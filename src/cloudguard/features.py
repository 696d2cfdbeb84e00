"""Fixed-width feature extraction over telemetry windows.

A window maps to one numeric vector of configurable dimension (default 428).
The vector is split into three contiguous segments:

- ``traffic``      flow-derived scalars and histograms
- ``time_series``  per-sub-bin activity counts, their first differences,
                   and per-series peak ratios across a fixed sub-bin grid
- ``behavior``     user-action and system-log statistics

Every position has a stable name (``"traffic.byte_sum"``); the full catalog
lives in a FeatureLayout, which detector checkpoints carry in their
metadata, so tests and downstream consumers address features by name
instead of raw index.
Positions the catalog does not populate are named ``*.reserved_*`` and are
always zero. Extraction is pure: the same window yields the same vector, and
all time handling is window-relative, so shifting a window and its events by
a constant changes nothing.

Extraction works on a window's numpy columns in one pass per segment:
counts and histograms come from ``bincount``/``unique`` and exact log2
buckets, giving each segment's statistics in catalog order. A layout
resolves its names to positions in those statistics once, when it is
built, so a window costs one gather instead of a name lookup per feature.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError
from .telemetry import (BEHAVIOR_ACTIONS, FIXED_CODES, FIXED_STRINGS, LOG_SUBSYSTEMS,
                        TelemetryWindow)

DEFAULT_DIM = 428

# segment boundaries for the default 428-wide vector; other dims scale
# these proportionally so the three segments always partition [0, D)
_TRAFFIC_END_DEFAULT = 200
_TIMESERIES_END_DEFAULT = 328

TS_SERIES = ("flows", "bytes", "logs", "actions")

_PORT_BUCKETS = 32  # 2048 ports per bucket
_BYTE_LOG_BUCKETS = 24
_PACKET_LOG_BUCKETS = 12
_DURATION_LOG_BUCKETS = 16


def entropy_nats(counts) -> float:
    """Shannon entropy (natural log) of an empirical count distribution."""
    values = np.asarray(list(counts.values()) if isinstance(counts, dict) else counts,
                        dtype=np.float64)
    total = values.sum()
    if total <= 0:
        return 0.0
    p = values[values > 0] / total
    return float(-(p * np.log(p)).sum())


_TRAFFIC_SCALARS = (
    "flow_count", "flow_rate", "byte_sum", "byte_rate", "byte_mean",
    "byte_std", "byte_max", "byte_min", "packet_sum", "packet_rate",
    "packet_mean", "packet_std", "packet_max", "duration_mean",
    "duration_std", "duration_max", "bytes_per_packet_mean",
    "dominant_flow_ratio", "syn_count", "syn_ratio", "tcp_count",
    "tcp_ratio", "udp_count", "udp_ratio", "distinct_ports",
    "port_entropy", "low_port_ratio", "high_port_count", "distinct_src",
    "src_entropy", "distinct_dst", "dst_entropy", "payload_marker_count",
    "payload_marker_ratio", "flows_per_src_mean", "flows_per_src_max",
    "flows_per_dst_mean", "flows_per_dst_max",
)


def _traffic_catalog() -> list[str]:
    names = list(_TRAFFIC_SCALARS)
    names += [f"port_bucket_{i:02d}" for i in range(_PORT_BUCKETS)]
    names += [f"byte_log2_{i:02d}" for i in range(_BYTE_LOG_BUCKETS)]
    names += [f"packet_log2_{i:02d}" for i in range(_PACKET_LOG_BUCKETS)]
    names += [f"duration_log2_{i:02d}" for i in range(_DURATION_LOG_BUCKETS)]
    names += [f"payload_class_{i}" for i in range(4)]
    return names


def _timeseries_catalog(n_bins: int) -> list[str]:
    names = []
    for series in TS_SERIES:
        names += [f"{series}_bin_{i:02d}" for i in range(n_bins)]
    for series in TS_SERIES:
        names += [f"{series}_delta_{i:02d}" for i in range(n_bins - 1)]
    names += [f"{series}_peak_ratio" for series in TS_SERIES]
    return names


def _behavior_catalog() -> list[str]:
    names = []
    names += [f"action_{a}_count" for a in BEHAVIOR_ACTIONS]
    names += [f"action_{a}_failure_count" for a in BEHAVIOR_ACTIONS]
    names += [f"action_{a}_success_ratio" for a in BEHAVIOR_ACTIONS]
    names += [
        "event_count", "event_rate", "failure_count", "failure_ratio",
        "distinct_users", "user_entropy", "actions_per_user_mean",
        "actions_per_user_max", "failed_logins_per_user_max",
    ]
    names += [
        "log_count", "log_rate", "severity_mean", "severity_std",
        "severity_max", "high_severity_count", "high_severity_ratio",
    ]
    names += [f"severity_hist_{i}" for i in range(8)]
    names += [f"subsystem_{s}_count" for s in LOG_SUBSYSTEMS]
    names += ["subsystem_entropy", "distinct_event_codes", "event_code_entropy"]
    return names


_N_TRAFFIC_SCALARS = len(_TRAFFIC_SCALARS)
_N_TRAFFIC = len(_traffic_catalog())
_N_BEHAVIOR = len(_behavior_catalog())
_N_ACTION_STATS = _behavior_catalog().index("log_count")


def _stat_positions(n_bins: int) -> dict[str, int]:
    """Where each catalog name sits in the extractor's concatenated stats."""
    names = ([f"traffic.{n}" for n in _traffic_catalog()]
             + [f"time_series.{n}" for n in _timeseries_catalog(n_bins)]
             + [f"behavior.{n}" for n in _behavior_catalog()])
    return {name: i for i, name in enumerate(names)}


def _fit_segment(prefix: str, catalog: list[str], width: int) -> list[str]:
    """Trim or zero-pad a segment catalog to the segment's width."""
    names = [f"{prefix}.{n}" for n in catalog[:width]]
    names += [f"{prefix}.reserved_{i:03d}" for i in range(width - len(names))]
    return names


@dataclass(frozen=True)
class FeatureLayout:
    """Immutable description of where every named feature lives."""

    dim: int
    n_bins: int
    segments: dict[str, tuple[int, int]]
    names: tuple[str, ...]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown feature name {name!r}") from None

    def __post_init__(self):
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})
        # names resolved once per layout: vec[_dest] = stats[_src] on every window
        stat_at = _stat_positions(self.n_bins)
        pairs = [(i, stat_at[n]) for i, n in enumerate(self.names) if n in stat_at]
        dest, src = zip(*pairs) if pairs else ((), ())
        object.__setattr__(self, "_dest", np.array(dest, dtype=np.intp))
        object.__setattr__(self, "_src", np.array(src, dtype=np.intp))

    def segment_slice(self, segment: str) -> slice:
        start, end = self.segments[segment]
        return slice(start, end)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n_bins": self.n_bins,
            "segments": {k: list(v) for k, v in self.segments.items()},
            "names": list(self.names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureLayout":
        try:
            layout = cls(
                dim=d["dim"],
                n_bins=d["n_bins"],
                segments={k: tuple(v) for k, v in d["segments"].items()},
                names=tuple(d["names"]),
            )
        except KeyError as exc:
            raise InputError(f"layout descriptor missing field {exc}") from exc
        if len(layout.names) != layout.dim:
            raise InputError("layout names length does not match dim")
        return layout


def build_layout(dim: int = DEFAULT_DIM, n_bins: int = 16) -> FeatureLayout:
    """Construct the canonical layout for a given vector width."""
    if dim < 3:
        raise InputError("dim must be at least 3, one slot per segment")
    if n_bins < 2:
        raise InputError("n_bins must be at least 2")
    traffic_end = (dim * _TRAFFIC_END_DEFAULT) // DEFAULT_DIM
    ts_end = (dim * _TIMESERIES_END_DEFAULT) // DEFAULT_DIM
    traffic_end = max(traffic_end, 1)
    ts_end = max(ts_end, traffic_end + 1)
    if ts_end >= dim:
        raise InputError(f"dim {dim} too small to hold three segments")
    segments = {
        "traffic": (0, traffic_end),
        "time_series": (traffic_end, ts_end),
        "behavior": (ts_end, dim),
    }
    names = (
        _fit_segment("traffic", _traffic_catalog(), traffic_end)
        + _fit_segment("time_series", _timeseries_catalog(n_bins), ts_end - traffic_end)
        + _fit_segment("behavior", _behavior_catalog(), dim - ts_end)
    )
    return FeatureLayout(dim=dim, n_bins=n_bins, segments=segments, names=tuple(names))


# fixed-string codes the extractor counts by (equal in every window)
_ACTION_CODES = np.array([FIXED_CODES[a] for a in BEHAVIOR_ACTIONS])
_SUBSYSTEM_CODES = np.array([FIXED_CODES[s] for s in LOG_SUBSYSTEMS])
_LOGIN = FIXED_CODES["login"]
_TCP = FIXED_CODES["tcp"]
_N_FIXED = len(FIXED_STRINGS)


# the traffic histograms share one bincount: port buckets, then log2
# buckets of bytes, packets and duration, then payload classes
_LOG2_CAPS = np.array([[_BYTE_LOG_BUCKETS - 1], [_PACKET_LOG_BUCKETS - 1],
                       [_DURATION_LOG_BUCKETS - 1]])
_LOG2_OFFSETS = _PORT_BUCKETS + np.array([[0], [_BYTE_LOG_BUCKETS],
                                          [_BYTE_LOG_BUCKETS + _PACKET_LOG_BUCKETS]])
_PAYLOAD_OFFSET = _PORT_BUCKETS + _BYTE_LOG_BUCKETS + _PACKET_LOG_BUCKETS \
    + _DURATION_LOG_BUCKETS
_N_HISTOGRAM = _PAYLOAD_OFFSET + 4

# time-series rows counted per source (flows, logs, behaviors); the bytes
# row is a weighted count of the flows
_TS_ROWS = np.array([TS_SERIES.index(s) for s in ("flows", "logs", "actions")])
_TS_BYTES = TS_SERIES.index("bytes")


def _group_sizes(codes: np.ndarray) -> np.ndarray:
    """How often each distinct code occurs."""
    counts = np.bincount(codes)
    return counts[counts > 0]


def _traffic_stats(window: TelemetryWindow) -> np.ndarray:
    """The traffic catalog's values, in catalog order."""
    flows = window.flows
    out = np.zeros(_N_TRAFFIC)
    seconds = window.duration_ms / 1000.0
    n = len(flows)
    out[0] = n
    out[1] = n / seconds
    if n == 0:
        return out
    sizes = np.stack([flows.bytes, flows.packets, flows.duration_ms])
    sums = sizes.sum(axis=1, dtype=np.float64)
    means = sums / n
    stds = sizes.std(axis=1)
    maxes = sizes.max(axis=1)
    byte_sum, packet_sum, _ = sums
    b_max = float(maxes[0])
    flags = np.stack([flows.syn_flag, flows.protocol == _TCP, flows.payload_class > 0,
                      flows.port < 1024])
    syn, tcp, markers, low_ports = np.count_nonzero(flags, axis=1).tolist()
    ports = np.unique(flows.port, return_counts=True)[1]
    srcs = _group_sizes(flows.src)
    dsts = _group_sizes(flows.dst)
    out[2:_N_TRAFFIC_SCALARS] = (
        byte_sum, byte_sum / seconds, means[0], stds[0], b_max, flows.bytes.min(),
        packet_sum, packet_sum / seconds, means[1], stds[1], maxes[1],
        means[2], stds[2], maxes[2],
        byte_sum / packet_sum if packet_sum else 0.0,
        b_max / byte_sum if byte_sum else 0.0,
        syn, syn / n, tcp, tcp / n, n - tcp, (n - tcp) / n,
        len(ports), entropy_nats(ports), low_ports / n, n - low_ports,
        len(srcs), entropy_nats(srcs), len(dsts), entropy_nats(dsts),
        markers, markers / n,
        n / len(srcs), srcs.max(), n / len(dsts), dsts.max(),
    )
    # floor(log2(v + 1)) read off frexp's exponent, exact for integers
    log2 = np.minimum(np.frexp(sizes + 1)[1] - 1, _LOG2_CAPS) + _LOG2_OFFSETS
    out[_N_TRAFFIC_SCALARS:] = np.bincount(np.concatenate([
        np.minimum(flows.port // 2048, _PORT_BUCKETS - 1),
        log2.ravel(),
        np.clip(flows.payload_class, 0, 3) + _PAYLOAD_OFFSET,
    ]), minlength=_N_HISTOGRAM)
    return out


def _timeseries_stats(window: TelemetryWindow, n_bins: int) -> np.ndarray:
    """Sub-bin counts, their first differences and peak ratios, in catalog order."""
    duration = window.duration_ms
    flows, logs, behaviors = window.flows, window.logs, window.behaviors
    stamps = np.concatenate([flows.timestamp, logs.timestamp, behaviors.timestamp])
    # window-relative offset keeps features invariant under time shifts
    sub_bin = np.minimum((stamps - window.start) * n_bins // duration, n_bins - 1)
    series = np.repeat(_TS_ROWS, (len(flows), len(logs), len(behaviors)))
    bins = np.bincount(series * n_bins + sub_bin, minlength=len(TS_SERIES) * n_bins)
    bins = bins.reshape(len(TS_SERIES), n_bins).astype(np.float64)
    bins[_TS_BYTES] = np.bincount(sub_bin[:len(flows)], weights=flows.bytes,
                                  minlength=n_bins)
    mean = bins.mean(axis=1)
    peak = np.divide(bins.max(axis=1), mean, out=np.zeros(len(TS_SERIES)),
                     where=mean > 0)
    return np.concatenate([bins.ravel(), np.diff(bins, axis=1).ravel(), peak])


def _behavior_stats(window: TelemetryWindow) -> np.ndarray:
    """The behavior catalog's values, in catalog order."""
    out = np.zeros(_N_BEHAVIOR)
    seconds = window.duration_ms / 1000.0
    acts, logs = window.behaviors, window.logs
    n = len(acts)
    n_actions = len(BEHAVIOR_ACTIONS)
    if n:
        failed = ~acts.success
        count = np.bincount(acts.action, minlength=_N_FIXED)[_ACTION_CODES]
        fail = np.bincount(acts.action[failed], minlength=_N_FIXED)[_ACTION_CODES]
        out[:n_actions] = count
        out[n_actions:2 * n_actions] = fail
        out[2 * n_actions:3 * n_actions] = np.divide(
            count - fail, count, out=np.zeros(n_actions), where=count > 0)
        failures = int(np.count_nonzero(failed))
        users = _group_sizes(acts.user_id)
        failed_logins = acts.user_id[failed & (acts.action == _LOGIN)]
        out[3 * n_actions:_N_ACTION_STATS] = (
            n, n / seconds, failures, failures / n, len(users),
            entropy_nats(users), n / len(users), users.max(),
            np.bincount(failed_logins).max() if len(failed_logins) else 0,
        )
    n_logs = len(logs)
    out[_N_ACTION_STATS:_N_ACTION_STATS + 2] = n_logs, n_logs / seconds
    if n_logs:
        severity = logs.severity
        high = int(np.count_nonzero(severity >= 5))
        in_range = severity[(severity >= 0) & (severity < 8)]
        subsystems = np.bincount(logs.subsystem, minlength=_N_FIXED)
        codes = np.unique(logs.event_code, return_counts=True)[1]
        out[_N_ACTION_STATS + 2:] = np.concatenate([
            (severity.mean(), severity.std(), severity.max(), high, high / n_logs),
            np.bincount(in_range, minlength=8),
            subsystems[_SUBSYSTEM_CODES],
            (entropy_nats(subsystems), len(codes), entropy_nats(codes)),
        ])
    return out


def extract_features(window: TelemetryWindow, layout: FeatureLayout) -> np.ndarray:
    """Compute the named feature vector for one window. Pure and deterministic."""
    stats = np.concatenate([
        _traffic_stats(window),
        _timeseries_stats(window, layout.n_bins),
        _behavior_stats(window),
    ])
    vec = np.zeros(layout.dim)
    vec[layout._dest] = stats[layout._src]
    return vec


@dataclass
class NormStats:
    """Per-dimension mean and population standard deviation."""

    mean: np.ndarray
    std: np.ndarray


def fit_normalizer(dataset: list[np.ndarray] | np.ndarray) -> NormStats:
    """Fit per-dimension mean and population std over a non-empty dataset."""
    arr = np.asarray(dataset, dtype=np.float64)
    if arr.size == 0:
        raise InputError("cannot fit a normalizer on an empty dataset")
    if arr.ndim == 1:
        arr = arr[None]
    return NormStats(mean=arr.mean(axis=0), std=arr.std(axis=0))


def normalize(fv: np.ndarray, stats: NormStats) -> np.ndarray:
    """Standardize a vector; constant dimensions (std 0) map to 0."""
    fv = np.asarray(fv, dtype=np.float64)
    if fv.shape[-1] != stats.mean.shape[0]:
        raise DimensionError(
            f"vector width {fv.shape[-1]} does not match stats width {stats.mean.shape[0]}"
        )
    safe = np.where(stats.std > 0, stats.std, 1.0)
    out = (fv - stats.mean) / safe
    return np.where(stats.std > 0, out, 0.0)

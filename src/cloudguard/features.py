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
always zero. Extraction is pure: a window yields the same vector bit for
bit whichever windows it is extracted with, and all time handling is
window-relative, so shifting a window and its events by a constant changes
nothing.

Featurization is one call per run. ``extract_features`` reads a
``TelemetryRun``'s columns, each row's window index taken from the run's
row offsets, and computes every window's statistics in one pass per
segment: counts and histograms from one ``bincount`` over (window, bin) ids,
sums and squared deviations from weighted ``bincount``s (each window's in
row order), maxima and minima from ``reduceat``, and distinct counts and
entropies from one sort of (window, value) keys. Long runs go through in
blocks of consecutive windows holding a fixed budget of events, each block
slices of the run's columns, so a sparse run takes fewer blocks than a
dense one of the same length and no block's intermediates outgrow the
budget (unless one window alone does). A sequence
of windows is concatenated into a run first, and a single window is the run
of one. A layout resolves its names to positions in those statistics once,
when it is built, so a block costs one gather instead of a name lookup per
feature.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError
from .telemetry import (BEHAVIOR_ACTIONS, FIXED_CODES, FIXED_STRINGS, LOG_SUBSYSTEMS,
                        TelemetryRun, TelemetryWindow)

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
        for name, span in layout.segments.items():
            if len(span) != 2 or not all(type(v) is int for v in span):
                raise InputError(f"layout segment {name!r} {list(span)} is not "
                                 f"a [start, end) pair of integers")
        edge = 0  # taken by start, the segments tile [0, dim), none empty
        for name, (start, end) in sorted(layout.segments.items(),
                                         key=lambda item: item[1]):
            if start != edge or end <= start:
                raise InputError(f"layout segment {name!r} [{start}, {end}) does "
                                 f"not run on from {edge}")
            edge = end
        if edge != layout.dim:
            raise InputError(f"layout segments end at {edge}, not at dim {layout.dim}")
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


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0)


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Where each run of equal rows begins in columns sorted by ``keys``."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def _per_window(ufunc, values: np.ndarray, win: np.ndarray, n: int) -> np.ndarray:
    """``ufunc`` reduced over each window's values (``win`` sorted); 0 for a
    window with none."""
    out = np.zeros(n)
    starts = _starts(win)
    out[win[starts]] = ufunc.reduceat(values, starts)
    return out


def _sums(values: np.ndarray, win: np.ndarray, n: int) -> np.ndarray:
    """Per-window sums, each accumulated in row order."""
    return np.bincount(win, weights=values, minlength=n)


def _std(values: np.ndarray, win: np.ndarray, count: np.ndarray, mean: np.ndarray):
    """Per-window population std, from deviations about each window's mean."""
    dev = values - mean[win]
    return np.sqrt(_ratio(_sums(dev * dev, win, len(count)), count))


def _code_counts(codes: np.ndarray, win: np.ndarray, n: int, width: int) -> np.ndarray:
    """[n, width]: how often each code in [0, width) occurs per window; codes
    at or past ``width`` share a spare slot that is dropped."""
    slot = np.minimum(codes, width)
    counts = np.bincount(win * (width + 1) + slot, minlength=n * (width + 1))
    return counts.reshape(n, width + 1)[:, :width]


class _Groups:
    """The (window, distinct value) groups of a column: each group's window
    and size, in window then value order."""

    def __init__(self, values: np.ndarray, win: np.ndarray, n: int):
        # one sort key per row, window-major; values spanning too wide a
        # range for that are replaced by their ranks first
        lo, hi = int(values.min(initial=0)), int(values.max(initial=0))
        if (hi - lo + 1) * n >= 2**63:
            values = np.unique(values, return_inverse=True)[1]
            lo, hi = 0, int(values.max(initial=0))
        span = hi - lo + 1
        key = np.sort(win * span + (values - lo))
        first = _starts(key)
        self.win = key[first] // span
        self.size = np.diff(np.r_[first, len(key)])
        self.count = np.bincount(self.win, minlength=n)  # distinct values per window

    def entropy(self) -> np.ndarray:
        """Shannon entropy (nats) of each window's value distribution."""
        n = len(self.count)
        total = np.bincount(self.win, weights=self.size, minlength=n)
        p = self.size / total[self.win]
        plogp = np.bincount(self.win, weights=p * np.log(p), minlength=n)
        return np.negative(plogp, out=np.zeros(n), where=self.count > 0)

    def max_size(self) -> np.ndarray:
        return _per_window(np.maximum, self.size, self.win, len(self.count))


def _traffic_stats(run: TelemetryRun, rows: list, seconds: np.ndarray) -> np.ndarray:
    """[n, traffic catalog]: the traffic values, in catalog order."""
    flows, (win, n), m = run.sources[0], rows[0], len(run)
    sizes = np.stack([flows.bytes, flows.packets, flows.duration_ms])
    sums = [_sums(col, win, m) for col in sizes]
    means = [_ratio(s, n) for s in sums]
    stds = [_std(col, win, n, mean) for col, mean in zip(sizes, means)]
    maxes = [_per_window(np.maximum, col, win, m) for col in sizes]
    byte_sum, packet_sum, _ = sums
    b_max = maxes[0]
    syn, tcp, markers, low_ports = (
        _sums(flag, win, m) for flag in (flows.syn_flag, flows.protocol == _TCP,
                                         flows.payload_class > 0, flows.port < 1024))
    ports = _Groups(flows.port, win, m)
    srcs = _Groups(flows.src, win, m)
    dsts = _Groups(flows.dst, win, m)
    scalars = np.column_stack([
        n, n / seconds,
        byte_sum, byte_sum / seconds, means[0], stds[0], b_max,
        _per_window(np.minimum, flows.bytes, win, m),
        packet_sum, packet_sum / seconds, means[1], stds[1], maxes[1],
        means[2], stds[2], maxes[2],
        _ratio(byte_sum, packet_sum), _ratio(b_max, byte_sum),
        syn, _ratio(syn, n), tcp, _ratio(tcp, n), n - tcp, _ratio(n - tcp, n),
        ports.count, ports.entropy(), _ratio(low_ports, n), n - low_ports,
        srcs.count, srcs.entropy(), dsts.count, dsts.entropy(),
        markers, _ratio(markers, n),
        _ratio(n, srcs.count), srcs.max_size(), _ratio(n, dsts.count), dsts.max_size(),
    ])
    # floor(log2(v + 1)) read off frexp's exponent, exact for integers
    log2 = np.minimum(np.frexp(sizes + 1)[1] - 1, _LOG2_CAPS) + _LOG2_OFFSETS
    buckets = np.concatenate([
        np.minimum(flows.port // 2048, _PORT_BUCKETS - 1),
        log2.ravel(),
        np.clip(flows.payload_class, 0, 3) + _PAYLOAD_OFFSET,
    ])
    histograms = np.bincount(np.tile(win, 5) * _N_HISTOGRAM + buckets,
                             minlength=m * _N_HISTOGRAM)
    return np.concatenate([scalars, histograms.reshape(m, _N_HISTOGRAM)], axis=1)


def _timeseries_stats(run: TelemetryRun, rows: list, start: np.ndarray, duration: np.ndarray,
                      n_bins: int) -> np.ndarray:
    """[n, time-series catalog]: sub-bin counts, their first differences and
    peak ratios, in catalog order."""
    wins, m = [win for win, _ in rows], len(run)
    # window-relative offset keeps features invariant under time shifts
    sub_bins = [np.minimum((cols.timestamp - start[win]) * n_bins // duration[win], n_bins - 1)
                for cols, win in zip(run.sources, wins)]
    keys = np.concatenate([(win * len(TS_SERIES) + series) * n_bins + sub_bin
                           for win, series, sub_bin in zip(wins, _TS_ROWS, sub_bins)])
    bins = np.bincount(keys, minlength=m * len(TS_SERIES) * n_bins)
    bins = bins.reshape(m, len(TS_SERIES), n_bins).astype(np.float64)
    bins[:, _TS_BYTES] = np.bincount(wins[0] * n_bins + sub_bins[0], weights=run.sources[0].bytes,
                                     minlength=m * n_bins).reshape(m, n_bins)
    # every bin holds an integer, so the mean is exact in any summation order
    peak = _ratio(bins.max(axis=2), bins.mean(axis=2))
    return np.concatenate([bins.reshape(m, -1), np.diff(bins, axis=2).reshape(m, -1), peak],
                          axis=1)


def _behavior_stats(run: TelemetryRun, rows: list, seconds: np.ndarray) -> np.ndarray:
    """[n, behavior catalog]: the behavior values, in catalog order."""
    _, logs, acts = run.sources
    (_, (log_win, n_logs), (win, n)), m = rows, len(run)
    failed = ~acts.success
    count = _code_counts(acts.action, win, m, _N_FIXED)[:, _ACTION_CODES]
    fail = _code_counts(acts.action[failed], win[failed], m, _N_FIXED)[:, _ACTION_CODES]
    failures = _sums(failed, win, m)
    users = _Groups(acts.user_id, win, m)
    login_fail = failed & (acts.action == _LOGIN)
    failed_logins = _Groups(acts.user_id[login_fail], win[login_fail], m)
    severity = logs.severity
    severity_mean = _ratio(_sums(severity, log_win, m), n_logs)
    high = _sums(severity >= 5, log_win, m)
    in_range = (severity >= 0) & (severity < 8)
    subsystems = _Groups(logs.subsystem, log_win, m)
    codes = _Groups(logs.event_code, log_win, m)
    return np.concatenate([
        count, fail, _ratio(count - fail, count),
        np.column_stack([
            n, n / seconds, failures, _ratio(failures, n), users.count,
            users.entropy(), _ratio(n, users.count), users.max_size(),
            failed_logins.max_size(),
            n_logs, n_logs / seconds, severity_mean,
            _std(severity, log_win, n_logs, severity_mean),
            _per_window(np.maximum, severity, log_win, m), high, _ratio(high, n_logs),
        ]),
        _code_counts(severity[in_range], log_win[in_range], m, 8),
        _code_counts(logs.subsystem, log_win, m, _N_FIXED)[:, _SUBSYSTEM_CODES],
        np.column_stack([subsystems.entropy(), codes.count, codes.entropy()]),
    ], axis=1)


# events featurized together: bounds the per-block intermediates (about
# 350 bytes per event) on long runs without giving back the per-call
# savings; about 64 windows at 60 events/s, a whole 130-window run at 6
_BLOCK_EVENTS = 7000


def _blocks(run: TelemetryRun):
    """Consecutive ``(lo, hi)`` window ranges of the run, each holding at
    most ``_BLOCK_EVENTS`` events over all sources, or one window."""
    before = sum(np.asarray(at, dtype=np.int64) for at in run.offsets)  # [N + 1]
    lo = 0
    while lo < len(run):
        fits = int(np.searchsorted(before, before[lo] + _BLOCK_EVENTS, side="right")) - 1
        hi = max(fits, lo + 1)
        yield lo, hi
        lo = hi


def extract_features(data, layout: FeatureLayout) -> np.ndarray:
    """The named feature vectors of a run: ``[N, D]`` for a TelemetryRun or
    a sequence of windows, ``[D]`` for one window. Pure and deterministic: a
    window's vector does not depend on the other windows it is extracted
    with. InputError on a window longer than ``int64 max // n_bins`` ms."""
    one = isinstance(data, TelemetryWindow)
    run = data if isinstance(data, TelemetryRun) else TelemetryRun.of([data] if one else data)
    longest = np.iinfo(np.int64).max // layout.n_bins  # so (ts - start) * n_bins fits
    for start, end in zip(run.starts, run.ends):
        if end - start > longest:
            raise InputError(f"window [{start}, {end}) is too long for {layout.n_bins} time bins")
    out = np.zeros((len(run), layout.dim))
    for lo, hi in _blocks(run):
        block = run.part(lo, hi)
        start = np.array(block.starts, dtype=np.int64)
        duration = np.array(block.ends, dtype=np.int64) - start
        # per source: each row's window (sorted) and each window's row count
        rows = [(np.repeat(np.arange(len(block)), count), count)
                for count in map(np.diff, block.offsets)]
        stats = np.concatenate([_traffic_stats(block, rows, duration / 1000.0),
                                _timeseries_stats(block, rows, start, duration, layout.n_bins),
                                _behavior_stats(block, rows, duration / 1000.0)], axis=1)
        out[lo:lo + len(block), layout._dest] = stats[:, layout._src]
    return out[0] if one else out


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

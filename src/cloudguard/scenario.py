"""Seeded synthetic telemetry with labeled attack injection.

The generator is a pure function of its config. Every window draws from its
own Philox counter-based substream keyed ``(seed, window_index)``, so windows
can be produced in any order or in parallel and the stream is still
byte-identical. A window is drawn as numpy columns, block by block (benign
flows, logs and behaviors, then the blocks of every attack overlapping it),
with one generator call for a block's uniform draws instead of one per
event. The blocks of a source merge by a stable timestamp sort, so ties keep
draw order. String fields are drawn as integer keys; a window's vocabulary
holds only its own distinct keys' strings, and a stream formats each
distinct key once. Windows find the attack specs overlapping them through
one sorted index per scenario (``BurstIndex``). Five attack kinds
perturb a benign baseline, each with a distinct signature tied to a
documented marker feature:

- ddos               flow-rate surge of tiny SYN flows (marker: flow count)
- sql_injection      suspicious payload classes on db traffic (marker:
                     payload marker count)
- port_scan          uniformly random destination ports (marker: distinct
                     ports)
- brute_force        login-failure bursts against few accounts (marker:
                     login failure count)
- data_exfiltration  very large outbound flows (marker: max flow bytes)

Windows are labeled by majority temporal overlap: the kind covering the most
time wins; ties resolve toward the attack, and between attacks toward the
canonical label order.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import read_config
from .errors import ConfigError, InputError
from .features import FeatureLayout, extract_features
from .telemetry import (
    ATTACK_KINDS,
    BEHAVIOR_ACTIONS,
    FIXED_CODES,
    FIXED_STRINGS,
    LABELS,
    LOG_SUBSYSTEMS,
    SOURCE_COLUMNS,
    BehaviorColumns,
    FlowColumns,
    LogColumns,
    TelemetryWindow,
    encode_strings,
)

# documented marker feature per attack kind; separability of these against
# benign is what makes detector training on synthetic data well-posed
MARKER_FEATURES = {
    "ddos": "traffic.flow_count",
    "sql_injection": "traffic.payload_marker_count",
    "port_scan": "traffic.distinct_ports",
    "brute_force": "behavior.action_login_failure_count",
    "data_exfiltration": "traffic.byte_max",
}
SEPARABILITY_MIN_Z = 3.0  # benign stds a marker must stand off the benign mean

# share of benign events by source
_FLOW_SHARE = 0.6
_LOG_SHARE = 0.2
_BEHAVIOR_SHARE = 0.2

# attack event rates per second at intensity 1.0 (ddos scales off the
# benign flow rate instead, see ddos_surge)
_SQLI_RATE = 30.0
_SCAN_RATE = 40.0
_BRUTE_RATE = 25.0
_EXFIL_RATE = 3.0

_COMMON_PORTS = np.array([443, 80, 22, 3306, 8080])
_COMMON_PORT_WEIGHTS = np.array([0.5, 0.2, 0.05, 0.1, 0.15])
_ACTION_WEIGHTS = np.array([0.15, 0.55, 0.10, 0.15, 0.05])  # matches BEHAVIOR_ACTIONS
_SEVERITY_WEIGHTS = np.array([0.10, 0.30, 0.25, 0.20, 0.10, 0.05, 0.0, 0.0])


def _cdf(weights: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


_SEVERITIES = np.arange(8)
_PORT_CDF = _cdf(_COMMON_PORT_WEIGHTS)
_ACTION_CDF = _cdf(_ACTION_WEIGHTS)
_SEVERITY_CDF = _cdf(_SEVERITY_WEIGHTS)


@dataclass(frozen=True)
class AttackSpec:
    """One attack burst: what, how hard, and when."""

    kind: str
    intensity: float
    start: int  # ms
    end: int  # ms

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind {self.kind!r}")
        if not 0.0 < self.intensity <= 1.0:
            raise ConfigError(f"intensity must be in (0, 1], got {self.intensity}")
        if self.start >= self.end:
            raise ConfigError(f"attack start {self.start} must precede end {self.end}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a synthetic run; the stream is a function of this."""

    duration_ms: int
    window_ms: int = 1000
    benign_rate: float = 60.0  # events per second across all sources
    attacks: tuple[AttackSpec, ...] = ()
    seed: int = 0
    ddos_surge: float = 8.0  # ddos flow rate = surge x benign flow rate

    def __post_init__(self):
        object.__setattr__(self, "attacks", tuple(self.attacks))
        if self.duration_ms <= 0 or self.window_ms <= 0:
            raise ConfigError("duration and window must be positive")
        if self.duration_ms % self.window_ms != 0:
            raise ConfigError(
                f"window {self.window_ms} ms must tile duration {self.duration_ms} ms"
            )
        if self.benign_rate <= 0:
            raise ConfigError("benign_rate must be positive")
        if self.ddos_surge <= 1.0:
            raise ConfigError("ddos_surge must exceed 1")
        for spec in self.attacks:
            if spec.start < 0 or spec.end > self.duration_ms:
                raise ConfigError(
                    f"attack [{spec.start}, {spec.end}) outside duration "
                    f"{self.duration_ms} ms"
                )

    @property
    def n_windows(self) -> int:
        return self.duration_ms // self.window_ms

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        return read_config(cls, d)


@dataclass
class LabeledStream:
    """Windows tiling the configured duration, each with a ground-truth label."""

    windows: list[TelemetryWindow]
    config: ScenarioConfig

    def __len__(self) -> int:
        return len(self.windows)


def _window_rng(seed: int, window_index: int) -> np.random.Generator:
    """Independent substream per window: 128-bit Philox key (seed, index)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(window_index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _overlap(spec: AttackSpec, start: int, end: int) -> tuple[int, int]:
    return max(spec.start, start), min(spec.end, end)


def _union_length(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by a set of half-open intervals."""
    if not intervals:
        return 0
    intervals = sorted(intervals)
    covered = 0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return covered + (cur_hi - cur_lo)


class BurstIndex:
    """A scenario's attack specs sorted by start, so that a window finds the
    specs overlapping it by binary search instead of a scan of every spec."""

    def __init__(self, attacks):
        self.attacks = tuple(attacks)
        starts = np.array([spec.start for spec in self.attacks], dtype=np.int64)
        ends = np.array([spec.end for spec in self.attacks], dtype=np.int64)
        self._order = np.argsort(starts, kind="stable")
        self._starts = starts[self._order]
        # running max of the sorted specs' ends: the specs before the first
        # one reaching past ``start`` all end by ``start``
        self._reach = np.maximum.accumulate(ends[self._order])

    def overlapping(self, start: int, end: int) -> list[AttackSpec]:
        """The specs overlapping ``[start, end)``, in configured order."""
        lo = int(np.searchsorted(self._reach, start, side="right"))
        hi = int(np.searchsorted(self._starts, end, side="left"))
        return [self.attacks[i] for i in sorted(self._order[lo:hi].tolist())
                if self.attacks[i].end > start]

    def label(self, start: int, end: int) -> str:
        """Majority-overlap label of ``[start, end)`` (see label_for_window)."""
        by_kind: dict[str, list[tuple[int, int]]] = {}
        for spec in self.overlapping(start, end):
            by_kind.setdefault(spec.kind, []).append(_overlap(spec, start, end))
        if not by_kind:
            return "benign"
        per_kind = {kind: _union_length(iv) for kind, iv in by_kind.items()}
        attacked = _union_length([iv for ivs in by_kind.values() for iv in ivs])
        benign_cover = (end - start) - attacked
        best_kind = min(per_kind, key=lambda k: (-per_kind[k], LABELS.index(k)))
        if per_kind[best_kind] >= benign_cover:  # tie resolves to the attack
            return best_kind
        return "benign"

    def intensity(self, start: int, end: int, kind: str) -> float:
        """Attack pressure of ``kind`` on ``[start, end)`` (see truth_intensity)."""
        best = 0.0
        for spec in self.overlapping(start, end):
            if spec.kind == kind:
                lo, hi = _overlap(spec, start, end)
                best = max(best, spec.intensity * (hi - lo) / (end - start))
        return best


def label_for_window(attacks, start: int, end: int) -> str:
    """Majority-overlap label, recomputable independently of generation.

    Coverage per kind is the union of that kind's overlap intervals. The
    benign share is whatever no attack covers. Ties go to the attack, and
    between attacks to the canonical label order.
    """
    return BurstIndex(attacks).label(start, end)


def truth_intensity(attacks, start: int, end: int, kind: str) -> float:
    """Effective attack pressure on a window: max spec intensity x coverage."""
    return BurstIndex(attacks).intensity(start, end, kind)


# A string column is drawn as int64 keys ``family << 32 | value``; a window
# turns only the distinct keys it holds into strings (see _assemble), each
# formatted once per stream (_KeyNames). Families never format to the same
# string, so keys are equal exactly when strings are.
_FORMATS = (
    FIXED_STRINGS.__getitem__,
    lambda v: f"10.0.{v // 199}.{v % 199 + 1}",  # internal hosts, 8 x 199
    lambda v: f"172.16.{v >> 8}.{v & 255}",  # ddos sources
    "192.0.2.{}".format,  # sql injection sources
    "198.51.100.{}".format,  # scanners
    "203.0.113.{}".format,  # brute-force sources
    "srv-{}".format,
    "ext-{}.example".format,
    "user-{}".format,
    ("srv-db", "user-web").__getitem__,
)
_FIXED, _LAN, _DDOS, _SQLI, _SCAN, _BRUTE, _SRV, _EXT, _USER, _NAMED = range(len(_FORMATS))
_LAN_HOSTS = 8 * 199


def _format_key(key: int) -> str:
    """The string a key stands for."""
    return _FORMATS[key >> 32](key & 0xFFFFFFFF)


class _KeyNames(dict):
    """Key -> string, each key formatted on first use. One lives for one
    generate_stream call, so a stream formats each distinct key once."""

    def __missing__(self, key: int) -> str:
        self[key] = name = _format_key(key)
        return name


_TCP = FIXED_CODES["tcp"]
_UDP = FIXED_CODES["udp"]
_ACTION_KEYS = np.array([FIXED_CODES[a] for a in BEHAVIOR_ACTIONS])
_SUBSYSTEM_KEYS = np.array([FIXED_CODES[s] for s in LOG_SUBSYSTEMS])


def _key(family: int, value):
    """Key (or array of keys) of values of one string family."""
    return (family << 32) | value


class _Draws:
    """Uniform draws for one block of n events, from one generator call.

    Each column takes the next of ``rows`` uniform rows, so a block costs
    one call for all its columns instead of one per column (or per event).
    """

    def __init__(self, rng: np.random.Generator, rows: int, n: int):
        self._rows = iter(rng.random((rows, n)))

    def ints(self, lo: int, hi: int) -> np.ndarray:
        """Uniform integers in [lo, hi)."""
        return lo + (next(self._rows) * (hi - lo)).astype(np.int64)

    def times(self, lo: int, hi: int) -> np.ndarray:
        """Sorted timestamps in [lo, hi). Payload columns are drawn
        independently of time, so sorting the times alone orders the block."""
        return np.sort(self.ints(lo, hi))

    def below(self, p: float) -> np.ndarray:
        """True with probability p."""
        return next(self._rows) < p

    def pick(self, values: np.ndarray, cdf: np.ndarray) -> np.ndarray:
        """Weighted choice of values by inverse CDF."""
        return values[np.searchsorted(cdf, next(self._rows), side="right")]


def _full(n: int, value) -> np.ndarray:
    return np.full(n, value, dtype=bool if isinstance(value, bool) else np.int64)


def _benign_events(rng: np.random.Generator, start: int, window_ms: int,
                   rate: float) -> list:
    seconds = window_ms / 1000.0
    end = start + window_ms
    n = rng.poisson(rate * _FLOW_SHARE * seconds)
    draw = _Draws(rng, 9, n)
    byte_count = rng.lognormal(6.5, 1.0, n).astype(np.int64) + 40
    flows = FlowColumns(
        timestamp=draw.times(start, end),
        src=_key(_LAN, draw.ints(0, _LAN_HOSTS)),
        dst=_key(_SRV, draw.ints(0, 12)),
        port=draw.pick(_COMMON_PORTS, _PORT_CDF),
        protocol=np.where(draw.below(0.85), _TCP, _UDP),
        bytes=byte_count,
        packets=1 + byte_count // 700 + draw.ints(0, 3),
        duration_ms=rng.lognormal(3.5, 1.0, n).astype(np.int64) + 1,
        syn_flag=draw.below(0.08),
        payload_class=np.where(draw.below(0.02), draw.ints(1, 4), 0),
    )
    n = rng.poisson(rate * _LOG_SHARE * seconds)
    draw = _Draws(rng, 4, n)
    logs = LogColumns(
        timestamp=draw.times(start, end),
        severity=draw.pick(_SEVERITIES, _SEVERITY_CDF),
        event_code=draw.ints(100, 150),
        subsystem=_SUBSYSTEM_KEYS[draw.ints(0, 5)],
    )
    n = rng.poisson(rate * _BEHAVIOR_SHARE * seconds)
    draw = _Draws(rng, 4, n)
    behaviors = BehaviorColumns(
        timestamp=draw.times(start, end),
        user_id=_key(_USER, draw.ints(0, 40)),
        action=draw.pick(_ACTION_KEYS, _ACTION_CDF),
        success=~draw.below(0.05),
    )
    return [flows, logs, behaviors]


def _attack_events(rng: np.random.Generator, spec: AttackSpec, lo: int, hi: int,
                   config: ScenarioConfig) -> list:
    """Overlay for one attack spec clipped to [lo, hi) inside one window."""
    seconds = (hi - lo) / 1000.0

    def count(rate: float) -> int:
        return rng.poisson(rate * spec.intensity * seconds)

    if spec.kind == "ddos":
        n = count(config.benign_rate * _FLOW_SHARE * config.ddos_surge)
        draw = _Draws(rng, 6, n)
        return [FlowColumns(
            timestamp=draw.times(lo, hi),
            src=_key(_DDOS, draw.ints(0, 1 << 16)),
            dst=_full(n, _key(_SRV, 0)),
            port=np.where(draw.below(0.5), 80, 443),
            protocol=_full(n, _TCP),
            bytes=rng.lognormal(4.2, 0.4, n).astype(np.int64) + 40,
            packets=draw.ints(1, 3),
            duration_ms=draw.ints(1, 6),
            syn_flag=draw.below(0.9),
            payload_class=_full(n, 0),
        )]
    if spec.kind == "sql_injection":
        n = count(_SQLI_RATE)
        draw = _Draws(rng, 4, n)
        flows = FlowColumns(
            timestamp=draw.times(lo, hi),
            src=_key(_SQLI, draw.ints(0, 16)),
            dst=_full(n, _key(_NAMED, 0)),  # srv-db
            port=_full(n, 3306),
            protocol=_full(n, _TCP),
            bytes=rng.lognormal(6.0, 0.5, n).astype(np.int64) + 40,
            packets=draw.ints(2, 6),
            duration_ms=rng.lognormal(3.0, 0.6, n).astype(np.int64) + 1,
            syn_flag=_full(n, False),
            payload_class=draw.ints(1, 4),
        )
        n = count(_SQLI_RATE * 0.4)
        draw = _Draws(rng, 2, n)
        behaviors = BehaviorColumns(
            timestamp=draw.times(lo, hi),
            user_id=_full(n, _key(_NAMED, 1)),  # user-web
            action=_full(n, FIXED_CODES["query"]),
            success=draw.below(0.5),
        )
        n = count(_SQLI_RATE * 0.2)
        draw = _Draws(rng, 3, n)
        logs = LogColumns(
            timestamp=draw.times(lo, hi),
            severity=draw.ints(4, 7),
            event_code=draw.ints(500, 520),
            subsystem=_full(n, FIXED_CODES["db"]),
        )
        return [flows, behaviors, logs]
    if spec.kind == "port_scan":
        n = count(_SCAN_RATE)
        draw = _Draws(rng, 5, n)
        return [FlowColumns(
            timestamp=draw.times(lo, hi),
            src=_full(n, _key(_SCAN, spec.start % 251)),
            dst=_key(_SRV, draw.ints(0, 12)),
            port=draw.ints(1, 65536),
            protocol=_full(n, _TCP),
            bytes=draw.ints(40, 60),
            packets=_full(n, 1),
            duration_ms=draw.ints(1, 4),
            syn_flag=_full(n, True),
            payload_class=_full(n, 0),
        )]
    if spec.kind == "brute_force":
        n = count(_BRUTE_RATE)
        draw = _Draws(rng, 2, n)
        behaviors = BehaviorColumns(
            timestamp=draw.times(lo, hi),
            user_id=_full(n, _key(_USER, spec.start % 40)),
            action=_full(n, FIXED_CODES["login"]),
            success=draw.below(0.05),
        )
        n = count(_BRUTE_RATE * 0.6)
        draw = _Draws(rng, 2, n)
        logs = LogColumns(
            timestamp=draw.times(lo, hi),
            severity=draw.ints(4, 6),
            event_code=_full(n, 401),
            subsystem=_full(n, FIXED_CODES["auth"]),
        )
        n = count(_BRUTE_RATE * 0.3)
        draw = _Draws(rng, 5, n)
        flows = FlowColumns(
            timestamp=draw.times(lo, hi),
            src=_full(n, _key(_BRUTE, spec.start % 251)),
            dst=_full(n, _key(_SRV, 1)),
            port=_full(n, 22),
            protocol=_full(n, _TCP),
            bytes=draw.ints(200, 600),
            packets=draw.ints(3, 8),
            duration_ms=draw.ints(50, 350),
            syn_flag=draw.below(0.5),
            payload_class=_full(n, 0),
        )
        return [behaviors, logs, flows]
    if spec.kind == "data_exfiltration":
        n = count(_EXFIL_RATE)
        if seconds >= 0.5:
            n = max(n, 1)  # a covering exfil burst always moves data
        draw = _Draws(rng, 3, n)
        flows = FlowColumns(
            timestamp=draw.times(lo, hi),
            src=_full(n, _key(_LAN, spec.start % 8 * 199 + spec.start % 199)),
            dst=_full(n, _key(_EXT, spec.start % 4)),
            port=_full(n, 443),
            protocol=_full(n, _TCP),
            bytes=(rng.lognormal(13.5, 0.4, n) * spec.intensity).astype(np.int64) + 1000,
            packets=draw.ints(200, 1000),
            duration_ms=draw.ints(400, 900),
            syn_flag=_full(n, False),
            payload_class=_full(n, 0),
        )
        n = count(2.0)
        draw = _Draws(rng, 2, n)
        behaviors = BehaviorColumns(
            timestamp=draw.times(lo, hi),
            user_id=_full(n, _key(_USER, spec.start % 40)),
            action=np.where(draw.below(0.6), FIXED_CODES["download"],
                            FIXED_CODES["upload"]),
            success=_full(n, True),
        )
        return [flows, behaviors]
    return []


def _assemble(start: int, end: int, parts: list, label: str,
              names: _KeyNames) -> TelemetryWindow:
    """Merge drawn parts into one window: each source's parts (each sorted
    already) by a stable timestamp sort, so ties keep draw order; then
    string keys turned into codes."""
    merged = []
    for cls in SOURCE_COLUMNS:
        group = [p for p in parts if type(p) is cls]
        if len(group) == 1:
            merged.append({name: getattr(group[0], name) for name in cls.names})
            continue
        order = np.argsort(np.concatenate([p.timestamp for p in group]), kind="stable")
        merged.append({name: np.concatenate([getattr(p, name) for p in group])[order]
                       for name in cls.names})
    strings = encode_strings(merged, names.__getitem__)
    return TelemetryWindow(
        start, end, label=label,
        sources=tuple(cls(**cols) for cls, cols in zip(SOURCE_COLUMNS, merged)),
        strings=strings)


def generate_window(config: ScenarioConfig, index: int, bursts: BurstIndex | None = None,
                    names: _KeyNames | None = None) -> TelemetryWindow:
    """Generate one labeled window from its own substream.

    ``bursts`` (the index of ``config.attacks``) and ``names`` (a key-name
    memo) let a stream share both across its windows; the window is the
    same without them.
    """
    bursts = bursts if bursts is not None else BurstIndex(config.attacks)
    start = index * config.window_ms
    end = start + config.window_ms
    rng = _window_rng(config.seed, index)
    parts = _benign_events(rng, start, config.window_ms, config.benign_rate)
    for spec in bursts.overlapping(start, end):
        parts.extend(_attack_events(rng, spec, *_overlap(spec, start, end), config))
    return _assemble(start, end, parts, bursts.label(start, end),
                     names if names is not None else _KeyNames())


def generate_stream(config: ScenarioConfig) -> LabeledStream:
    """Generate the full labeled stream. Pure function of the config."""
    bursts, names = BurstIndex(config.attacks), _KeyNames()
    windows = [generate_window(config, i, bursts, names) for i in range(config.n_windows)]
    return LabeledStream(windows=windows, config=config)


def verify_separability(stream: LabeledStream, layout: FeatureLayout) -> dict[str, float]:
    """Check each attack kind's marker feature stands >= SEPARABILITY_MIN_Z
    benign stds from the benign mean. Returns the per-kind z-scores."""
    labels = [w.label for w in stream.windows]
    benign = np.array([label == "benign" for label in labels], dtype=bool)
    if not benign.any():
        raise InputError("stream has no benign windows to compare against")
    vectors = extract_features(stream.windows, layout)
    scores = {}
    for kind in dict.fromkeys(label for label in labels if label in MARKER_FEATURES):
        marker = vectors[:, layout.index_of(MARKER_FEATURES[kind])]
        attacked = marker[[label == kind for label in labels]]
        z = (float(attacked.mean()) - float(marker[benign].mean())) \
            / max(float(marker[benign].std()), 1e-9)
        scores[kind] = z
        if z < SEPARABILITY_MIN_Z:
            raise InputError(
                f"{kind} marker {MARKER_FEATURES[kind]} separates at "
                f"z={z:.2f} < {SEPARABILITY_MIN_Z}"
            )
    return scores


def default_scenario(seed: int = 0, rounds: int = 30, burst_windows: int = 11,
                     gap_windows: int = 2, window_ms: int = 1000,
                     benign_rate: float = 60.0) -> ScenarioConfig:
    """Round-robin attack schedule giving every class hundreds of windows.

    Each round visits all five attack kinds: a benign gap, then a burst
    aligned to window boundaries. Intensities cycle deterministically over
    [0.6, 1.0] so the policy sees varied pressure.
    """
    attacks = []
    t = 0
    for r in range(rounds):
        for k, kind in enumerate(ATTACK_KINDS):
            t += gap_windows * window_ms
            intensity = 0.6 + 0.4 * ((r * 7 + k * 3) % 5) / 4.0
            attacks.append(AttackSpec(
                kind=kind, intensity=intensity,
                start=t, end=t + burst_windows * window_ms,
            ))
            t += burst_windows * window_ms
    return ScenarioConfig(
        duration_ms=t,
        window_ms=window_ms,
        benign_rate=benign_rate,
        attacks=tuple(attacks),
        seed=seed,
    )

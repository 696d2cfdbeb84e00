"""Seeded synthetic telemetry with labeled attack injection.

The generator is a pure function of its config. Every window draws from its
own Philox counter-based substream keyed ``(seed, window_index)``, so a
window is the same whether it is generated alone or as part of a run, and
the stream is byte-identical. The config holds the seed to one uint64 word,
[0, 2**64), so no two seeds share a stream. A run is generated in two phases:

1. Draws, window by window: each window draws its blocks (benign flows,
   logs and behaviors, then the blocks of every attack overlapping it, in
   configured order), each block an event count, one generator call for
   all its uniform draws, then its lognormal draws.
2. One pass over the whole run: each kind of block turns all its draws
   into columns at once, sorts each block's timestamps, and each source
   merges its blocks by one stable sort on (timestamp, block draw order),
   so ties keep draw order. String fields are drawn as integer keys; the
   run formats each distinct key once and ranks the keys by their strings
   once, and each window's vocabulary holds only its own keys' strings.

A generated stream keeps its run (``TelemetryRun``: each source's columns
over the whole run and each window's row offsets), and its windows are cut
from it, their columns slices of the run's. Windows find the attack specs
overlapping them through one sorted index per scenario (``BurstIndex``).
Five attack kinds perturb a benign baseline, each with a distinct signature
tied to a documented marker feature:

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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import check_seed, read_config
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
    TelemetryRun,
    TelemetryWindow,
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
        check_seed(self.seed, "scenario")
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
    """Windows tiling the configured duration, each labeled, and their run."""

    windows: list[TelemetryWindow]
    run: TelemetryRun

    def __len__(self) -> int:
        return len(self.windows)


class Substreams:
    """Independent Philox substreams of one seed: stream ``index`` is keyed
    by the 128-bit pair (seed, index), the seed one uint64 word.

    ``streams(index)`` re-keys one bit generator from the state of a fresh
    one (counter and buffer empty) and returns its one Generator, so the
    stream draws exactly what a new ``Generator(Philox(key=...))`` would,
    without building one. Each call invalidates the stream handed out
    before it.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._fresh = self._bits.state
        self._rng = np.random.Generator(self._bits)

    def __call__(self, index: int) -> np.random.Generator:
        self._fresh["state"]["key"] = np.array([self._seed, index], dtype=np.uint64)
        self._bits.state = self._fresh
        return self._rng


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


def _majority_label(specs: list[AttackSpec], start: int, end: int) -> str:
    """Majority-overlap label of ``[start, end)`` under the specs overlapping it."""
    by_kind: dict[str, list[tuple[int, int]]] = {}
    for spec in specs:
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


def peak_intensity(specs: list[AttackSpec], start: int, end: int, kind: str) -> float:
    """Attack pressure of ``kind`` on ``[start, end)`` under the specs
    overlapping it: the largest intensity x covered share."""
    best = 0.0
    for spec in specs:
        if spec.kind == kind:
            lo, hi = _overlap(spec, start, end)
            best = max(best, spec.intensity * (hi - lo) / (end - start))
    return best


class BurstIndex:
    """A scenario's attack specs sorted by start, so that spans find the
    specs overlapping them by binary search instead of a scan of every spec:
    a run's windows all at once, in two ``searchsorted`` calls."""

    def __init__(self, attacks):
        self.attacks = tuple(attacks)
        starts = np.array([spec.start for spec in self.attacks], dtype=np.int64)
        ends = np.array([spec.end for spec in self.attacks], dtype=np.int64)
        order = np.argsort(starts, kind="stable")
        self._starts = starts[order]
        # running max of the sorted specs' ends: the specs before the first
        # one reaching past ``start`` all end by ``start``
        self._reach = np.maximum.accumulate(ends[order])
        self._order = order.tolist()

    def covering(self, starts, ends) -> list[list[AttackSpec]]:
        """The specs overlapping each span ``[starts[i], ends[i])``, in
        configured order."""
        los = np.searchsorted(self._reach, starts, side="right").tolist()
        his = np.searchsorted(self._starts, ends, side="left").tolist()
        return [[self.attacks[i] for i in sorted(self._order[lo:hi])
                 if self.attacks[i].end > start] if lo < hi else []
                for start, lo, hi in zip(starts, los, his)]


def _scan_overlapping(attacks, start: int, end: int) -> list[AttackSpec]:
    """The specs overlapping ``[start, end)``, by a scan of every spec."""
    return [spec for spec in attacks if spec.start < end and spec.end > start]


def label_for_window(attacks, start: int, end: int) -> str:
    """Majority-overlap label, recomputable independently of generation.

    Coverage per kind is the union of that kind's overlap intervals. The
    benign share is whatever no attack covers. Ties go to the attack, and
    between attacks to the canonical label order. The specs are scanned,
    not looked up through a BurstIndex, so this checks that index too.
    """
    return _majority_label(_scan_overlapping(attacks, start, end), start, end)


def truth_intensity(attacks, start: int, end: int, kind: str) -> float:
    """Effective attack pressure on a window: max spec intensity x
    coverage, over a scan of the specs, as label_for_window."""
    return peak_intensity(_scan_overlapping(attacks, start, end), start, end, kind)


def _each(fmt):
    """A family formatter applying ``fmt`` to each value."""
    return lambda values: map(fmt, values.tolist())


_OCTETS = np.array([str(i) for i in range(256)])


def _addresses(prefix: str, third: np.ndarray, fourth: np.ndarray) -> list[str]:
    """``prefix`` + ``third.fourth`` for arrays of octets, in numpy string ops."""
    return np.char.add(np.char.add(prefix, _OCTETS[third]),
                       np.char.add(".", _OCTETS[fourth])).tolist()


_LAN_HOSTS = 8 * 199
# A string column is drawn as int64 keys, each a string family's first key
# plus the value. A family has a formatter (from an array of its values to
# their strings) and a number of values, so the keys of all families make
# one dense range. A run formats each distinct key once (_format_keys), and
# a window's vocabulary holds only its own distinct keys' strings. Families
# never format to the same string, so keys are equal exactly when strings are.
_FAMILIES = (
    (_each(FIXED_STRINGS.__getitem__), len(FIXED_STRINGS)),
    (lambda v: _addresses("10.0.", v // 199, v % 199 + 1), _LAN_HOSTS),  # internal hosts
    (lambda v: _addresses("172.16.", v >> 8, v & 255), 1 << 16),  # ddos sources
    (_each("192.0.2.{}".format), 16),  # sql injection sources
    (_each("198.51.100.{}".format), 251),  # scanners
    (_each("203.0.113.{}".format), 251),  # brute-force sources
    (_each("srv-{}".format), 12),
    (_each("ext-{}.example".format), 4),
    (_each("user-{}".format), 40),
    (_each(("srv-db", "user-web").__getitem__), 2),
)
_FIRST_KEYS = np.cumsum([0] + [size for _, size in _FAMILIES])
_FIXED, _LAN, _DDOS, _SQLI, _SCAN, _BRUTE, _SRV, _EXT, _USER, _NAMED = _FIRST_KEYS[:-1].tolist()


def _format_keys(keys: np.ndarray) -> list[str]:
    """The strings an ascending array of keys stands for, formatted one
    family at a time."""
    bounds = np.searchsorted(keys, _FIRST_KEYS).tolist()
    names = []
    for (fmt, _), first, lo, hi in zip(_FAMILIES, _FIRST_KEYS.tolist(), bounds, bounds[1:]):
        names += fmt(keys[lo:hi] - first)
    return names


_TCP = FIXED_CODES["tcp"]
_UDP = FIXED_CODES["udp"]
_ACTION_KEYS = np.array([FIXED_CODES[a] for a in BEHAVIOR_ACTIONS])
_SUBSYSTEM_KEYS = np.array([FIXED_CODES[s] for s in LOG_SUBSYSTEMS])


def _key(family: int, value):
    """Key (or array of keys) of values of the string family whose first
    key is ``family``."""
    return family + value


class _Draws:
    """One recipe's draws over every block of a run, turned into columns.

    ``rows`` holds the recipe's uniform rows, each with the blocks' draws
    side by side, and ``logs`` its lognormal columns likewise; each column
    takes the next one, in the order the recipe names them. The per-event
    arrays hold each event's block parameters: the block's number within
    the recipe, its span ``[lo, hi)``, and its spec's start and intensity.
    """

    def __init__(self, rows: np.ndarray, logs: list, block: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, start: np.ndarray, intensity: np.ndarray):
        self._rows = iter(rows)
        self._logs = iter(logs)
        self.block, self.lo, self.hi = block, lo, hi
        self.start, self.intensity = start, intensity

    def ints(self, lo, hi) -> np.ndarray:
        """Uniform integers in [lo, hi)."""
        return lo + (next(self._rows) * (hi - lo)).astype(np.int64)

    def times(self) -> np.ndarray:
        """Timestamps in each event's span, sorted within each block.
        Payload columns are drawn independently of time, so sorting the
        times alone orders a block."""
        t = self.ints(self.lo, self.hi)
        return t[np.lexsort((t, self.block))]

    def below(self, p: float) -> np.ndarray:
        """True with probability p."""
        return next(self._rows) < p

    def pick(self, values: np.ndarray, cdf: np.ndarray) -> np.ndarray:
        """Weighted choice of values by inverse CDF."""
        return values[np.searchsorted(cdf, next(self._rows), side="right")]

    def lognormal(self) -> np.ndarray:
        return next(self._logs)

    def full(self, value) -> np.ndarray:
        return np.full(len(self.block), value,
                       dtype=bool if isinstance(value, bool) else np.int64)


@dataclass(frozen=True, eq=False)
class _Recipe:
    """One kind of block: the source it feeds, how many uniform rows it
    draws, the (mean, sigma) of each lognormal column it draws after them,
    and its columns from those draws."""

    source: type
    rows: int
    lognormals: tuple[tuple[float, float], ...]
    columns: Callable[[_Draws], dict]
    at_least_one: bool = False  # a block spanning half a second draws an event


def _benign_flows(d: _Draws) -> dict:
    byte_count = d.lognormal().astype(np.int64) + 40
    return dict(
        timestamp=d.times(),
        src=_key(_LAN, d.ints(0, _LAN_HOSTS)),
        dst=_key(_SRV, d.ints(0, 12)),
        port=d.pick(_COMMON_PORTS, _PORT_CDF),
        protocol=np.where(d.below(0.85), _TCP, _UDP),
        bytes=byte_count,
        packets=1 + byte_count // 700 + d.ints(0, 3),
        duration_ms=d.lognormal().astype(np.int64) + 1,
        syn_flag=d.below(0.08),
        payload_class=np.where(d.below(0.02), d.ints(1, 4), 0),
    )


def _benign_logs(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        severity=d.pick(_SEVERITIES, _SEVERITY_CDF),
        event_code=d.ints(100, 150),
        subsystem=_SUBSYSTEM_KEYS[d.ints(0, 5)],
    )


def _benign_behaviors(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        user_id=_key(_USER, d.ints(0, 40)),
        action=d.pick(_ACTION_KEYS, _ACTION_CDF),
        success=~d.below(0.05),
    )


def _ddos_flows(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        src=_key(_DDOS, d.ints(0, 1 << 16)),
        dst=d.full(_key(_SRV, 0)),
        port=np.where(d.below(0.5), 80, 443),
        protocol=d.full(_TCP),
        bytes=d.lognormal().astype(np.int64) + 40,
        packets=d.ints(1, 3),
        duration_ms=d.ints(1, 6),
        syn_flag=d.below(0.9),
        payload_class=d.full(0),
    )


def _sqli_flows(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        src=_key(_SQLI, d.ints(0, 16)),
        dst=d.full(_key(_NAMED, 0)),  # srv-db
        port=d.full(3306),
        protocol=d.full(_TCP),
        bytes=d.lognormal().astype(np.int64) + 40,
        packets=d.ints(2, 6),
        duration_ms=d.lognormal().astype(np.int64) + 1,
        syn_flag=d.full(False),
        payload_class=d.ints(1, 4),
    )


def _sqli_behaviors(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        user_id=d.full(_key(_NAMED, 1)),  # user-web
        action=d.full(FIXED_CODES["query"]),
        success=d.below(0.5),
    )


def _sqli_logs(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        severity=d.ints(4, 7),
        event_code=d.ints(500, 520),
        subsystem=d.full(FIXED_CODES["db"]),
    )


def _scan_flows(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        src=_key(_SCAN, d.start % 251),
        dst=_key(_SRV, d.ints(0, 12)),
        port=d.ints(1, 65536),
        protocol=d.full(_TCP),
        bytes=d.ints(40, 60),
        packets=d.full(1),
        duration_ms=d.ints(1, 4),
        syn_flag=d.full(True),
        payload_class=d.full(0),
    )


def _brute_behaviors(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        user_id=_key(_USER, d.start % 40),
        action=d.full(FIXED_CODES["login"]),
        success=d.below(0.05),
    )


def _brute_logs(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        severity=d.ints(4, 6),
        event_code=d.full(401),
        subsystem=d.full(FIXED_CODES["auth"]),
    )


def _brute_flows(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        src=_key(_BRUTE, d.start % 251),
        dst=d.full(_key(_SRV, 1)),
        port=d.full(22),
        protocol=d.full(_TCP),
        bytes=d.ints(200, 600),
        packets=d.ints(3, 8),
        duration_ms=d.ints(50, 350),
        syn_flag=d.below(0.5),
        payload_class=d.full(0),
    )


def _exfil_flows(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        src=_key(_LAN, d.start % 8 * 199 + d.start % 199),
        dst=_key(_EXT, d.start % 4),
        port=d.full(443),
        protocol=d.full(_TCP),
        bytes=(d.lognormal() * d.intensity).astype(np.int64) + 1000,
        packets=d.ints(200, 1000),
        duration_ms=d.ints(400, 900),
        syn_flag=d.full(False),
        payload_class=d.full(0),
    )


def _exfil_behaviors(d: _Draws) -> dict:
    return dict(
        timestamp=d.times(),
        user_id=_key(_USER, d.start % 40),
        action=np.where(d.below(0.6), FIXED_CODES["download"], FIXED_CODES["upload"]),
        success=d.full(True),
    )


_BENIGN = (
    _Recipe(FlowColumns, 9, ((6.5, 1.0), (3.5, 1.0)), _benign_flows),
    _Recipe(LogColumns, 4, (), _benign_logs),
    _Recipe(BehaviorColumns, 4, (), _benign_behaviors),
)
_DDOS_FLOWS = _Recipe(FlowColumns, 6, ((4.2, 0.4),), _ddos_flows)
_SQLI_BLOCKS = (
    _Recipe(FlowColumns, 4, ((6.0, 0.5), (3.0, 0.6)), _sqli_flows),
    _Recipe(BehaviorColumns, 2, (), _sqli_behaviors),
    _Recipe(LogColumns, 3, (), _sqli_logs),
)
_SCAN_FLOWS = _Recipe(FlowColumns, 5, (), _scan_flows)
_BRUTE_BLOCKS = (
    _Recipe(BehaviorColumns, 2, (), _brute_behaviors),
    _Recipe(LogColumns, 2, (), _brute_logs),
    _Recipe(FlowColumns, 5, (), _brute_flows),
)
_EXFIL_BLOCKS = (
    _Recipe(FlowColumns, 3, ((13.5, 0.4),), _exfil_flows, at_least_one=True),
    _Recipe(BehaviorColumns, 2, (), _exfil_behaviors),
)


def _block_rates(config: ScenarioConfig) -> dict[str, tuple]:
    """Each kind's blocks in draw order, as (events per second at intensity
    1, recipe); benign blocks draw at intensity 1."""
    rate = config.benign_rate
    return {
        "benign": tuple(zip((rate * _FLOW_SHARE, rate * _LOG_SHARE,
                             rate * _BEHAVIOR_SHARE), _BENIGN)),
        "ddos": ((rate * _FLOW_SHARE * config.ddos_surge, _DDOS_FLOWS),),
        "sql_injection": tuple(zip((_SQLI_RATE, _SQLI_RATE * 0.4, _SQLI_RATE * 0.2),
                                   _SQLI_BLOCKS)),
        "port_scan": ((_SCAN_RATE, _SCAN_FLOWS),),
        "brute_force": tuple(zip((_BRUTE_RATE, _BRUTE_RATE * 0.6, _BRUTE_RATE * 0.3),
                                 _BRUTE_BLOCKS)),
        "data_exfiltration": tuple(zip((_EXFIL_RATE, 2.0), _EXFIL_BLOCKS)),
    }


def _draw_blocks(config: ScenarioConfig, indices: range) -> tuple[dict, list[str]]:
    """Phase one: every window's draws, from the window's own substream.

    A window draws its benign blocks, then the blocks of each spec
    overlapping it in configured order; a block draws its event count, then
    its uniform rows, then its lognormal columns. Returns each recipe's
    blocks as (draw number, count, span, spec start and intensity, uniform
    rows, lognormal columns...), and each window's label.
    """
    starts = [index * config.window_ms for index in indices]
    covering = BurstIndex(config.attacks).covering(
        starts, [start + config.window_ms for start in starts])
    rates = _block_rates(config)
    drawn: dict[_Recipe, list] = {}
    labels = []
    seq = 0
    streams = Substreams(config.seed)
    for index, start, specs in zip(indices, starts, covering):
        rng = streams(index)
        end = start + config.window_ms
        labels.append(_majority_label(specs, start, end))
        spans = [("benign", 1.0, 0, start, end)] + [
            (spec.kind, spec.intensity, spec.start, *_overlap(spec, start, end))
            for spec in specs]
        for kind, intensity, spec_start, lo, hi in spans:
            seconds = (hi - lo) / 1000.0
            for rate, recipe in rates[kind]:
                n = rng.poisson(rate * intensity * seconds)
                if recipe.at_least_one and seconds >= 0.5:
                    n = max(n, 1)  # a covering exfil burst always moves data
                drawn.setdefault(recipe, []).append((
                    seq, n, lo, hi, spec_start, intensity, rng.random((recipe.rows, n)),
                    *[rng.lognormal(mean, sigma, n) for mean, sigma in recipe.lognormals]))
                seq += 1
    return drawn, labels


def _recipe_columns(recipe: _Recipe, blocks: list) -> tuple[dict, np.ndarray]:
    """One recipe's columns over all its blocks, and each event's block draw
    number."""
    seq, n, lo, hi, start, intensity, rows, *logs = zip(*blocks)
    counts = np.array(n, dtype=np.int64)

    def per_event(values, dtype=np.int64) -> np.ndarray:
        return np.repeat(np.array(values, dtype=dtype), counts)

    draws = _Draws(np.concatenate(rows, axis=1), [np.concatenate(c) for c in logs],
                   per_event(range(len(counts))), per_event(lo), per_event(hi),
                   per_event(start), per_event(intensity, np.float64))
    return recipe.columns(draws), per_event(seq)


def _source_columns(cls: type, drawn: dict) -> dict:
    """One source's columns over the run, recipe after recipe, merged by one
    stable sort on (timestamp, block draw number). Takes the source's blocks
    out of ``drawn``, so that each recipe's draws are dropped once its
    columns are made."""
    parts = [_recipe_columns(recipe, drawn.pop(recipe))
             for recipe in list(drawn) if recipe.source is cls]
    order = np.lexsort((np.concatenate([seq for _, seq in parts]),
                        np.concatenate([cols["timestamp"] for cols, _ in parts])))
    # one column at a time, to hold one extra copy at most
    return {name: np.concatenate([cols[name] for cols, _ in parts])[order]
            for name in cls.names}


def _generate(config: ScenarioConfig, indices: range) -> TelemetryRun:
    """Windows ``indices`` of a scenario as one run, generated in two phases.

    Phase one draws each window from its own substream (_draw_blocks).
    Phase two runs once over the whole run: each recipe's transforms over
    all its blocks, each block's time sort, then per source one stable
    sort by (timestamp, block draw number), which is the per-window merge
    where ties keep draw order, since windows do not overlap in time.
    """
    drawn, labels = _draw_blocks(config, indices)
    sources = [_source_columns(cls, drawn) for cls in SOURCE_COLUMNS]
    window_of = [cols["timestamp"] // config.window_ms - indices.start for cols in sources]
    spans = [(i * config.window_ms, (i + 1) * config.window_ms, label)
             for i, label in zip(indices, labels)]
    return TelemetryRun.from_keys(spans, sources, window_of, _format_keys)


def generate_window(config: ScenarioConfig, index: int, run: TelemetryRun | None = None
                    ) -> TelemetryWindow:
    """Window ``index`` of the stream: cut out of ``run``, the stream's run,
    or else generated as a run of its own. It is the same either way, since
    each window draws from its own substream."""
    if not 0 <= index < config.n_windows:
        raise InputError(f"window index {index} outside [0, {config.n_windows})")
    if run is None:
        return _generate(config, range(index, index + 1)).window(0)
    return run.window(index)


def generate_stream(config: ScenarioConfig) -> LabeledStream:
    """Generate the full labeled stream. Pure function of the config: one
    run of every window, whose windows are views into its columns."""
    run = _generate(config, range(config.n_windows))
    return LabeledStream(windows=[generate_window(config, i, run)
                                  for i in range(config.n_windows)], run=run)


def verify_separability(stream: LabeledStream, layout: FeatureLayout) -> dict[str, float]:
    """Check each attack kind's marker feature stands >= SEPARABILITY_MIN_Z
    benign stds from the benign mean. Returns the per-kind z-scores."""
    labels = stream.run.labels
    benign = np.array([label == "benign" for label in labels], dtype=bool)
    if not benign.any():
        raise InputError("stream has no benign windows to compare against")
    vectors = extract_features(stream.run, layout)
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

"""Reference generator: draws, transforms and assembles one window at a time.

This is the per-window generator that ``scenario.generate_stream``'s
two-phase run generation replaced. Each window draws its blocks from its own
Philox substream, turns each block's uniform rows into columns, merges a
source's blocks by a stable timestamp sort and sorts its strings in Python.
It is kept here only as the oracle the run generator is checked against
(see test_scenario_oracle.py): the two must agree byte for byte.
"""

import bisect

import numpy as np

from cloudguard.scenario import (
    _ACTION_CDF,
    _ACTION_KEYS,
    _BEHAVIOR_SHARE,
    _BRUTE,
    _BRUTE_RATE,
    _COMMON_PORTS,
    _DDOS,
    _EXFIL_RATE,
    _EXT,
    _FIXED,
    _FLOW_SHARE,
    _LAN,
    _LAN_HOSTS,
    _LOG_SHARE,
    _NAMED,
    _PORT_CDF,
    _SCAN,
    _SCAN_RATE,
    _SEVERITIES,
    _SEVERITY_CDF,
    _SQLI,
    _SQLI_RATE,
    _SRV,
    _SUBSYSTEM_KEYS,
    _TCP,
    _UDP,
    _USER,
    AttackSpec,
    ScenarioConfig,
    _key,
    _overlap,
    label_for_window,
)
from cloudguard.telemetry import (
    FIXED_CODES,
    FIXED_STRINGS,
    SOURCE_COLUMNS,
    STRING_FIELDS,
    BehaviorColumns,
    FlowColumns,
    LogColumns,
    TelemetryWindow,
)


def _window_rng(seed: int, window_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(window_index)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_FORMATS = (
    FIXED_STRINGS.__getitem__,
    lambda v: f"10.0.{v // 199}.{v % 199 + 1}",
    lambda v: f"172.16.{v >> 8}.{v & 255}",
    "192.0.2.{}".format,
    "198.51.100.{}".format,
    "203.0.113.{}".format,
    "srv-{}".format,
    "ext-{}.example".format,
    "user-{}".format,
    ("srv-db", "user-web").__getitem__,
)


_FIRST_KEYS = (_FIXED, _LAN, _DDOS, _SQLI, _SCAN, _BRUTE, _SRV, _EXT, _USER, _NAMED)


class _KeyNames(dict):
    """Key -> string, each key formatted on first use."""

    def __missing__(self, key: int) -> str:
        family = bisect.bisect_right(_FIRST_KEYS, key) - 1
        self[key] = name = _FORMATS[family](key - _FIRST_KEYS[family])
        return name


class _Draws:
    """Uniform draws for one block of n events, from one generator call."""

    def __init__(self, rng: np.random.Generator, rows: int, n: int):
        self._rows = iter(rng.random((rows, n)))

    def ints(self, lo: int, hi: int) -> np.ndarray:
        return lo + (next(self._rows) * (hi - lo)).astype(np.int64)

    def times(self, lo: int, hi: int) -> np.ndarray:
        return np.sort(self.ints(lo, hi))

    def below(self, p: float) -> np.ndarray:
        return next(self._rows) < p

    def pick(self, values: np.ndarray, cdf: np.ndarray) -> np.ndarray:
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
            dst=_full(n, _key(_NAMED, 0)),
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
            user_id=_full(n, _key(_NAMED, 1)),
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
            n = max(n, 1)
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


def _encode_strings(sources: list[dict], name_of) -> tuple[str, ...]:
    """Keys to codes in place; the window's vocabulary, extras sorted in Python."""
    slots = [(cols, name) for cols in sources for name in cols if name in STRING_FIELDS]
    n_fixed = len(FIXED_STRINGS)
    keys = np.concatenate([np.arange(n_fixed)] + [cols[name] for cols, name in slots])
    ordered = np.sort(keys)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    extras = list(map(name_of, distinct[n_fixed:].tolist()))
    order = sorted(range(len(extras)), key=extras.__getitem__)
    code = np.arange(len(distinct))
    code[n_fixed + np.array(order, dtype=np.int64)] = code[n_fixed:]
    codes = code[np.searchsorted(distinct, keys[n_fixed:])]
    at = 0
    for cols, name in slots:
        n = len(cols[name])
        cols[name] = codes[at:at + n]
        at += n
    return FIXED_STRINGS + tuple(extras[j] for j in order)


def _assemble(start: int, end: int, parts: list, label: str,
              names: _KeyNames) -> TelemetryWindow:
    """Merge each source's parts by a stable timestamp sort; keys to codes."""
    merged = []
    for cls in SOURCE_COLUMNS:
        group = [p for p in parts if type(p) is cls]
        if len(group) == 1:
            merged.append({name: getattr(group[0], name) for name in cls.names})
            continue
        order = np.argsort(np.concatenate([p.timestamp for p in group]), kind="stable")
        merged.append({name: np.concatenate([getattr(p, name) for p in group])[order]
                       for name in cls.names})
    strings = _encode_strings(merged, names.__getitem__)
    return TelemetryWindow(
        start, end, label=label,
        sources=tuple(cls(**cols) for cls, cols in zip(SOURCE_COLUMNS, merged)),
        strings=strings)


def oracle_window(config: ScenarioConfig, index: int) -> TelemetryWindow:
    """Window ``index`` of ``config``'s stream, drawn and assembled alone,
    its specs and label found by a scan of every spec."""
    start = index * config.window_ms
    end = start + config.window_ms
    rng = _window_rng(config.seed, index)
    parts = _benign_events(rng, start, config.window_ms, config.benign_rate)
    for spec in config.attacks:
        if spec.start < end and spec.end > start:
            parts.extend(_attack_events(rng, spec, *_overlap(spec, start, end), config))
    return _assemble(start, end, parts, label_for_window(config.attacks, start, end),
                     _KeyNames())

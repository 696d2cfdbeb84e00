"""Telemetry windows as per-source columns, and their JSON-lines persistence.

An event is one observation from one of three sources: a network flow, a
system log line, or a user behavior action. A window is a half-open time
slice ``[start, end)``, optionally tagged with a ground-truth label, that
holds its events as one set of numpy columns per source (``flows``,
``logs``, ``behaviors``), each in timestamp order. Timestamps are integer
milliseconds.

String fields (``src``, ``dst``, ``protocol``, ``subsystem``, ``user_id``,
``action``) are integer codes into the window's ``strings`` vocabulary, so
two codes are equal exactly when their strings are. The vocabulary is
``FIXED_STRINGS`` followed by the window's other strings in sorted order:
an action, subsystem or protocol of the fixed catalogs has the same code in
every window, and a window has one column representation.

``TelemetryEvent`` objects exist only at the edges: JSON lines, and windows
built by hand from a list of events. ``window.events`` is a lazy view that
counts without building objects and builds them only when read; events
with equal timestamps come out flow, then log, then behavior.
"""

import csv
import json
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError

LABELS = (
    "benign",
    "ddos",
    "sql_injection",
    "port_scan",
    "brute_force",
    "data_exfiltration",
)

ATTACK_KINDS = LABELS[1:]

BEHAVIOR_ACTIONS = ("login", "query", "upload", "download", "admin_op")

LOG_SUBSYSTEMS = ("auth", "db", "net", "api", "kernel")

PROTOCOLS = ("tcp", "udp")

# every window's vocabulary starts with these, so their codes never change
FIXED_STRINGS = BEHAVIOR_ACTIONS + LOG_SUBSYSTEMS + PROTOCOLS
FIXED_CODES = {s: i for i, s in enumerate(FIXED_STRINGS)}


@dataclass(frozen=True)
class FlowData:
    """One network flow record."""

    src: str
    dst: str
    port: int
    protocol: str  # tcp or udp
    bytes: int
    packets: int
    duration_ms: int
    syn_flag: bool
    payload_class: int  # 0 = plain; 1..3 = suspicious payload families


@dataclass(frozen=True)
class LogData:
    """One system log line."""

    severity: int  # 0 (debug) .. 7 (emergency)
    event_code: int
    subsystem: str


@dataclass(frozen=True)
class BehaviorData:
    """One user action."""

    user_id: str
    action: str  # one of BEHAVIOR_ACTIONS
    success: bool


@dataclass(frozen=True)
class TelemetryEvent:
    """A timestamped observation carrying exactly one source payload."""

    kind: str  # flow, log, or behavior
    timestamp: int  # milliseconds
    flow: FlowData | None = None
    log: LogData | None = None
    behavior: BehaviorData | None = None

    def __post_init__(self):
        if self.kind not in ("flow", "log", "behavior"):
            raise InputError(f"unknown event kind {self.kind!r}")
        if self.timestamp < 0:
            raise InputError("timestamp must be non-negative")
        payloads = {"flow": self.flow, "log": self.log, "behavior": self.behavior}
        populated = [k for k, v in payloads.items() if v is not None]
        if populated != [self.kind]:
            raise InputError(
                f"event of kind {self.kind!r} must populate exactly that payload, "
                f"got {populated or 'none'}"
            )


STRING_FIELDS = frozenset(("src", "dst", "protocol", "subsystem", "user_id", "action"))
_BOOL_FIELDS = frozenset(("syn_flag", "success"))


class _Columns:
    """Equal-length columns of one source: ``timestamp`` plus one column per
    field of the source's payload record, in the record's field order."""

    kind: str
    payload: type
    names: tuple[str, ...]  # the column names, set once per class below

    def __len__(self) -> int:
        return len(self.timestamp)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.names)


@dataclass(eq=False)
class FlowColumns(_Columns):
    kind = "flow"
    payload = FlowData

    timestamp: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    port: np.ndarray
    protocol: np.ndarray
    bytes: np.ndarray
    packets: np.ndarray
    duration_ms: np.ndarray
    syn_flag: np.ndarray
    payload_class: np.ndarray


@dataclass(eq=False)
class LogColumns(_Columns):
    kind = "log"
    payload = LogData

    timestamp: np.ndarray
    severity: np.ndarray
    event_code: np.ndarray
    subsystem: np.ndarray


@dataclass(eq=False)
class BehaviorColumns(_Columns):
    kind = "behavior"
    payload = BehaviorData

    timestamp: np.ndarray
    user_id: np.ndarray
    action: np.ndarray
    success: np.ndarray


SOURCE_COLUMNS = (FlowColumns, LogColumns, BehaviorColumns)
for _cls in SOURCE_COLUMNS:
    _cls.names = tuple(f.name for f in fields(_cls))


def encode_strings(sources: list[dict], window_of: list[np.ndarray], n_windows: int,
                   names_of) -> list[tuple[str, ...]]:
    """Turn the string columns of per-source column dicts from keys into
    codes, each row's code in its own window's vocabulary.

    A key stands for a string: keys are equal exactly when their strings
    are, a fixed string's key is its code, and every other key is larger.
    Keys are small non-negative integers, looked up in tables indexed by
    key. ``window_of`` gives each source's window per row, in
    ``range(n_windows)``; ``names_of`` gives the strings of an ascending
    array of distinct keys. Each distinct key is formatted and ranked by its
    string once, so each window's codes come from an integer sort over
    (window, rank). Rewrites the string columns in place and returns every
    window's vocabulary: the fixed strings, then the window's other strings
    sorted.
    """
    slots = [(cols, name, wins) for cols, wins in zip(sources, window_of)
             for name in cols if name in STRING_FIELDS]
    # a fixed key is its own code; only the other keys are ranked
    extras = [cols[name] >= len(FIXED_STRINGS) for cols, name, _ in slots]
    keys = np.concatenate([cols[name][m] for (cols, name, _), m in zip(slots, extras)])
    wins = np.concatenate([wins[m] for (_, _, wins), m in zip(slots, extras)])
    present = np.zeros(keys.max(initial=0) + 1, dtype=bool)
    present[keys] = True
    distinct = np.flatnonzero(present)
    names = names_of(distinct)
    by_name = sorted(range(len(names)), key=names.__getitem__)
    rank = np.zeros(len(present), dtype=np.int64)  # by key, its string's rank
    rank[distinct[by_name]] = np.arange(len(names))
    pairs, codes = np.unique(wins * len(names) + rank[keys], return_inverse=True)
    firsts = np.searchsorted(pairs, np.arange(n_windows + 1) * len(names))
    codes += len(FIXED_STRINGS) - firsts[wins]
    vocab = tuple(np.array(names, dtype=object)[by_name][pairs % max(len(names), 1)])
    firsts = firsts.tolist()
    at = 0
    for (cols, name, _), m in zip(slots, extras):
        col = cols[name].copy()
        n = np.count_nonzero(m)
        col[m] = codes[at:at + n]
        cols[name] = col
        at += n
    return [FIXED_STRINGS + vocab[a:b] for a, b in zip(firsts, firsts[1:])]


def _column(values: list, what: str, dtype=np.int64) -> np.ndarray:
    """One column from event field values, which must be integers (or, for
    a bool column, booleans): no silent truncation of floats or strings."""
    arr = np.array(values)
    if len(arr) and arr.dtype.kind != np.dtype(dtype).kind:
        raise InputError(f"{what} must hold {np.dtype(dtype).name} values")
    return arr.astype(dtype)


def _columns_from_events(events: list[TelemetryEvent]):
    """Split hand-built or parsed events into per-source columns."""
    if (np.diff(_column([ev.timestamp for ev in events], "timestamp")) < 0).any():
        raise InputError("events must be sorted by timestamp")
    key_of = dict(FIXED_CODES)  # string -> key, in order of first sight
    sources = []
    for cls in SOURCE_COLUMNS:
        rows = [(ev.timestamp, getattr(ev, cls.kind)) for ev in events
                if ev.kind == cls.kind]
        cols = {"timestamp": _column([ts for ts, _ in rows], "timestamp")}
        for name in cls.names[1:]:
            values = [getattr(p, name) for _, p in rows]
            what = f"{cls.kind} field {name}"
            if name in STRING_FIELDS:
                if not all(isinstance(v, str) for v in values):
                    raise InputError(f"{what} must hold strings")
                values = [key_of.setdefault(v, len(key_of)) for v in values]
            cols[name] = _column(values, what, bool if name in _BOOL_FIELDS else np.int64)
        sources.append(cols)
    spelled = list(key_of)
    strings, = encode_strings(sources, [np.zeros(len(cols["timestamp"]), np.int64)
                                        for cols in sources], 1,
                              lambda keys: [spelled[k] for k in keys.tolist()])
    return [cls(**cols) for cls, cols in zip(SOURCE_COLUMNS, sources)], strings


class EventView(Sequence):
    """A window's events in timestamp order, as objects built on first read.

    ``len`` counts from the columns without building anything.
    """

    def __init__(self, window: "TelemetryWindow"):
        self._window = window
        self._events: list[TelemetryEvent] | None = None

    def __len__(self) -> int:
        return self._window.event_count

    def __getitem__(self, i):
        if self._events is None:
            self._events = self._window.to_events()
        return self._events[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, (EventView, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventView({len(self)} events)"


class TelemetryWindow:
    """Events inside ``[start, end)`` as per-source columns.

    Built by hand (or by the JSON-lines reader) from a timestamp-sorted list
    of events, or by the generator from ready columns, slices of its run's
    columns, whose string fields are codes into ``strings``.
    """

    def __init__(self, start: int, end: int, events=(), label: str | None = None, *,
                 sources: tuple | None = None, strings: tuple[str, ...] = FIXED_STRINGS):
        if sources is None:
            sources, strings = _columns_from_events(list(events))
        elif events:
            raise InputError("pass events or columns, not both")
        self.start = start
        self.end = end
        self.label = label
        self.flows, self.logs, self.behaviors = sources
        self.strings = strings
        self.__post_init__()

    def __post_init__(self):
        if self.start >= self.end:
            raise InputError(f"window start {self.start} must precede end {self.end}")
        if self.label is not None and self.label not in LABELS:
            raise InputError(f"unknown label {self.label!r}")
        # the rest of the vocabulary (sorted, unique) comes from encode_strings;
        # checking it here would cost more than the window's other checks together
        if self.strings[:len(FIXED_STRINGS)] != FIXED_STRINGS:
            raise InputError("window strings must start with the fixed strings")
        for cols in self.sources:
            ts = cols.timestamp
            if len({len(getattr(cols, name)) for name in cols.names}) > 1:
                raise InputError(f"{cols.kind} columns differ in length")
            if len(ts) == 0:
                continue
            if (ts[1:] < ts[:-1]).any():
                raise InputError("events must be sorted by timestamp")
            if ts[0] < self.start or ts[-1] >= self.end:
                bad = ts[0] if ts[0] < self.start else ts[-1]
                raise InputError(
                    f"event at {bad} outside window [{self.start}, {self.end})")
        flows = self.flows
        if len(flows) and min(flows.port.min(), flows.bytes.min(), flows.packets.min(),
                              flows.duration_ms.min()) < 0:
            raise InputError("flow port, bytes, packets and duration must be "
                             "non-negative")

    @property
    def sources(self) -> tuple:
        return (self.flows, self.logs, self.behaviors)

    @property
    def duration_ms(self) -> int:
        return self.end - self.start

    @property
    def event_count(self) -> int:
        return len(self.flows) + len(self.logs) + len(self.behaviors)

    @property
    def events(self) -> EventView:
        return EventView(self)

    def to_events(self) -> list[TelemetryEvent]:
        """Build the event objects, merged by a stable timestamp sort."""
        rows = []
        for cols in self.sources:
            names = cols.names[1:]  # the payload's fields, after the timestamp
            columns = [getattr(cols, name).tolist() for name in names]
            for j, name in enumerate(names):
                if name in STRING_FIELDS:
                    columns[j] = [self.strings[c] for c in columns[j]]
            for ts, *values in zip(cols.timestamp.tolist(), *columns):
                rows.append(TelemetryEvent(kind=cols.kind, timestamp=ts,
                                           **{cols.kind: cols.payload(*values)}))
        rows.sort(key=lambda ev: ev.timestamp)  # stable: flow, log, behavior on ties
        return rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, TelemetryWindow):
            return NotImplemented
        return ((self.start, self.end, self.label, self.strings)
                == (other.start, other.end, other.label, other.strings)
                and self.sources == other.sources)

    def __repr__(self) -> str:
        return (f"TelemetryWindow(start={self.start}, end={self.end}, "
                f"label={self.label!r}, events={self.event_count})")


def event_to_dict(ev: TelemetryEvent) -> dict:
    d = {"kind": ev.kind, "timestamp": ev.timestamp}
    if ev.flow is not None:
        d["flow"] = vars(ev.flow).copy()
    if ev.log is not None:
        d["log"] = vars(ev.log).copy()
    if ev.behavior is not None:
        d["behavior"] = vars(ev.behavior).copy()
    return d


def event_from_dict(d: dict) -> TelemetryEvent:
    try:
        kind = d["kind"]
        timestamp = d["timestamp"]
    except KeyError as exc:
        raise InputError(f"event record missing field {exc}") from exc
    try:
        flow = FlowData(**d["flow"]) if "flow" in d else None
        log = LogData(**d["log"]) if "log" in d else None
        behavior = BehaviorData(**d["behavior"]) if "behavior" in d else None
    except TypeError as exc:
        raise InputError(f"malformed event payload: {exc}") from exc
    return TelemetryEvent(kind=kind, timestamp=timestamp, flow=flow, log=log,
                          behavior=behavior)


def write_events_jsonl(path: str, windows: list[TelemetryWindow]) -> None:
    """Write every event of every window as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for w in windows:
            for ev in w.to_events():
                fh.write(json.dumps(event_to_dict(ev), sort_keys=True))
                fh.write("\n")


def write_label_sidecar(path: str, windows: list[TelemetryWindow]) -> None:
    """CSV sidecar mapping each window's time span to its ground-truth label."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "end", "label"])
        for w in windows:
            writer.writerow([w.start, w.end, w.label if w.label is not None else ""])


def read_stream_jsonl(events_path: str, labels_path: str) -> list[TelemetryWindow]:
    """Rebuild labeled windows from an events file and its label sidecar."""
    events: list[TelemetryEvent] = []
    with open(events_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(event_from_dict(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise InputError(f"{events_path}:{lineno}: invalid JSON ({exc})") from exc
    spans: list[tuple[int, int, str | None]] = []
    with open(labels_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["start", "end", "label"]:
            raise InputError(f"{labels_path}: expected header start,end,label")
        for row in reader:
            label = row["label"] or None
            spans.append((int(row["start"]), int(row["end"]), label))
    windows = []
    idx = 0
    for start, end, label in spans:
        evs = []
        while idx < len(events) and events[idx].timestamp < end:
            if events[idx].timestamp < start:
                raise InputError(
                    f"event at {events[idx].timestamp} not covered by any window span"
                )
            evs.append(events[idx])
            idx += 1
        windows.append(TelemetryWindow(start=start, end=end, events=evs, label=label))
    if idx != len(events):
        raise InputError(f"{events_path}: {len(events) - idx} events past the last window")
    return windows

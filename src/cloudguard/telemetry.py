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

A run (``TelemetryRun``) holds many windows' columns end to end. The
generator, the JSON-lines reader and a window built by hand all build their
columns as a run, through one constructor, and cut windows out of it.

``TelemetryEvent`` objects exist only for windows built by hand from a list
of events and when ``window.events`` is read: a lazy view that counts
without building objects; events with equal timestamps come out flow, then
log, then behavior. JSON lines are written from and read into columns.
The reader raises InputError naming the file for one it cannot read or that
is not UTF-8 text, and naming ``path:line`` for a malformed line.
"""

import csv
import functools
import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError
from .files import read_text

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
_NON_NEGATIVE_FIELDS = frozenset(("port", "bytes", "packets", "duration_ms"))


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


_INT64 = np.iinfo(np.int64)


def _column(values: list, dtype=np.int64) -> np.ndarray | None:
    """One column from field values, or None unless all are integers (for a
    bool column, booleans): no silent truncation of floats or strings."""
    try:
        arr = np.array(values)
    except ValueError:  # ragged nested lists
        return None
    if len(arr) and (arr.ndim != 1 or arr.dtype.kind != np.dtype(dtype).kind):
        return None
    return arr.astype(dtype)


def _build_columns(rows: list[tuple[list, list, list]], where=lambda kind, row: ""):
    """Check each source's timestamps and payload field dicts (``rows``,
    with each row's window) and make them ``TelemetryRun.from_keys``'s column
    dicts, string fields as keys, rows' windows and keys' strings.
    ``where(kind, row)`` prefixes an error with the row's location."""
    key_of = dict(FIXED_CODES)  # string -> key, in order of first sight
    sources = []
    for cls, (stamps, payloads, _) in zip(SOURCE_COLUMNS, rows):
        cols = {}
        for name in cls.names:
            values = stamps if name == "timestamp" else [p[name] for p in payloads]
            what = name if name == "timestamp" else f"{cls.kind} field {name}"
            if name in STRING_FIELDS:
                bad = next((i for i, v in enumerate(values) if not isinstance(v, str)), None)
                if bad is not None:
                    raise InputError(f"{where(cls.kind, bad)}{what} must hold strings")
                values = [key_of.setdefault(v, len(key_of)) for v in values]
            dtype = bool if name in _BOOL_FIELDS else np.int64
            cols[name] = _column(values, dtype)
            if cols[name] is None:
                bad = next((i for i, v in enumerate(values) if _column([v], dtype) is None), 0)
                raise InputError(f"{where(cls.kind, bad)}{what} must hold "
                                 f"{np.dtype(dtype).name} values")
            if name in _NON_NEGATIVE_FIELDS and (cols[name] < 0).any():
                bad = int(np.argmax(cols[name] < 0))
                raise InputError(f"{where(cls.kind, bad)}{what} must be non-negative")
        sources.append(cols)
    spelled = list(key_of)
    window_of = [np.array(wins, dtype=np.int64) for _, _, wins in rows]
    return sources, window_of, lambda keys: [spelled[k] for k in keys.tolist()]


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

    Built by hand from a timestamp-sorted list of events, or by the
    generator and the JSON-lines reader from ready columns, slices of their
    run's columns, whose string fields are codes into ``strings``.

    Flow values are checked non-negative where they enter, as events or
    JSON lines; a window cut from a generated run is not checked again,
    since the generator cannot make them negative.
    """

    def __init__(self, start: int, end: int, events=(), label: str | None = None, *,
                 sources: tuple | None = None, strings: tuple[str, ...] = FIXED_STRINGS):
        if sources is None:  # hand-built events, sorted by timestamp: a run of one
            events = list(events)
            by_kind = [[ev for ev in events if ev.kind == cls.kind] for cls in SOURCE_COLUMNS]
            run = TelemetryRun.from_keys([(start, end, label)], *_build_columns(
                [([ev.timestamp for ev in evs], [vars(getattr(ev, ev.kind)) for ev in evs],
                  [0] * len(evs)) for evs in by_kind]))
            if any(b.timestamp < a.timestamp for a, b in itertools.pairwise(events)):
                raise InputError("events must be sorted by timestamp")
            sources, strings = run.sources, run.strings[0]
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


@dataclass(eq=False)
class TelemetryRun:
    """Many windows' columns end to end: per source, the whole run's rows in
    window order and the ``[N + 1]`` row offsets of its windows; per window,
    its span, label and vocabulary, which its rows' string codes index.
    ``from_keys`` builds a run, ``of`` concatenates ready windows into one,
    and ``window(i)`` cuts window ``i`` out."""

    sources: tuple  # FlowColumns, LogColumns, BehaviorColumns
    offsets: tuple  # per source: window i is rows offsets[k][i] to offsets[k][i + 1]
    starts: list[int]
    ends: list[int]
    labels: list[str | None]
    strings: list[tuple[str, ...]]

    def __post_init__(self):
        # per source: its class, its columns and its window offsets as ints
        self._cuts = [(type(cols), [getattr(cols, name) for name in cols.names], at.tolist())
                      for cols, at in zip(self.sources, self.offsets)]

    @classmethod
    def from_keys(cls, spans: list[tuple], sources: list[dict], window_of: list[np.ndarray],
                  names_of) -> "TelemetryRun":
        """The run of windows ``spans`` (start, end, label) from per-source
        column dicts and each row's window, rows in window order; string
        columns hold keys, encoded by ``encode_strings``. InputError if a
        span's start or end lies outside int64, as event timestamps must."""
        starts, ends, labels = [list(col) for col in zip(*spans)] or [[], [], []]
        bounds = starts + ends
        if bounds and not _INT64.min <= min(bounds) <= max(bounds) <= _INT64.max:
            raise InputError(f"window spans reach [{min(bounds)}, {max(bounds)}], outside int64")
        strings = encode_strings(sources, window_of, len(spans), names_of)
        return cls(tuple(kind(**cols) for kind, cols in zip(SOURCE_COLUMNS, sources)),
                   tuple(np.searchsorted(wins, np.arange(len(spans) + 1)) for wins in window_of),
                   starts, ends, labels, strings)

    @classmethod
    def of(cls, windows) -> "TelemetryRun":
        """Ready windows' columns concatenated, each row keeping its code in
        its own window's vocabulary."""
        windows = list(windows)
        if not windows:
            return cls.from_keys([], *_build_columns([([], [], [])] * 3))
        parts = [[w.sources[k] for w in windows] for k in range(len(SOURCE_COLUMNS))]
        return cls(tuple(kind(*[np.concatenate([getattr(p, name) for p in ps])
                                for name in kind.names])
                         for kind, ps in zip(SOURCE_COLUMNS, parts)),
                   tuple(np.cumsum([0] + [len(p) for p in ps]) for ps in parts),
                   [w.start for w in windows], [w.end for w in windows],
                   [w.label for w in windows], [w.strings for w in windows])

    def __len__(self) -> int:
        return len(self.starts)

    def window(self, i: int) -> TelemetryWindow:
        """Window ``i``, validated, its columns slices of the run's."""
        return TelemetryWindow(
            self.starts[i], self.ends[i], label=self.labels[i], strings=self.strings[i],
            sources=tuple(kind(*[col[at[i]:at[i + 1]] for col in cols])
                          for kind, cols, at in self._cuts))

    def part(self, lo: int, hi: int) -> "TelemetryRun":
        """Windows ``lo`` to ``hi`` as a run, its columns slices of this one's."""
        hi = min(hi, len(self))
        return TelemetryRun(
            tuple(kind(*[col[at[lo]:at[hi]] for col in cols]) for kind, cols, at in self._cuts),
            tuple(at[lo:hi + 1] - at[lo] for at in self.offsets), self.starts[lo:hi],
            self.ends[lo:hi], self.labels[lo:hi], self.strings[lo:hi])


_FIELD_ORDER = {cls.kind: sorted(cls.names[1:]) for cls in SOURCE_COLUMNS}


def _template(kind: str) -> str:
    """A ``kind`` event's line of ``json.dumps(record, sort_keys=True)``: a
    ``%s`` for each payload field in sorted order, then the timestamp."""
    parts = {kind: "{%s}" % ", ".join(f'"{name}": %s' for name in _FIELD_ORDER[kind]),
             "kind": f'"{kind}"', "timestamp": "%s"}
    return "{%s}\n" % ", ".join(f'"{key}": {parts[key]}' for key in sorted(parts))


_TEMPLATES = {kind: _template(kind) for kind in _FIELD_ORDER}


def _check_spans(windows: list[TelemetryWindow]) -> None:
    """InputError unless the windows are in time order and disjoint, as
    read_stream_jsonl requires of the spans it reads back."""
    for before, w in itertools.pairwise(windows):
        if w.start < before.end:
            raise InputError(f"window [{w.start}, {w.end}) overlaps or precedes "
                             f"the one before it, [{before.start}, {before.end})")


def write_events_jsonl(path: str, windows: list[TelemetryWindow]) -> None:
    """Write every event of every window as one line of ``json.dumps(record,
    sort_keys=True)``, formatted from the window's columns, each distinct
    string JSON-encoded once. One stable sort by timestamp merges the
    sources, so ties come out flow, log, behavior. InputError, before the
    file is opened, unless the windows are in time order and disjoint."""
    _check_spans(windows)
    encode = functools.cache(json.dumps)
    with open(path, "w", encoding="utf-8") as fh:
        for w in windows:
            spelled = np.array([encode(s) for s in w.strings], dtype=object)
            lines = []
            for cols in w.sources:
                args = [spelled[col] if name in STRING_FIELDS
                        else np.where(col, "true", "false") if name in _BOOL_FIELDS else col
                        for name in _FIELD_ORDER[cols.kind] + ["timestamp"]
                        for col in [getattr(cols, name)]]
                lines += map(_TEMPLATES[cols.kind].__mod__, zip(*[a.tolist() for a in args]))
            order = np.argsort(np.concatenate([c.timestamp for c in w.sources]), kind="stable")
            fh.writelines([lines[i] for i in order.tolist()])


def write_label_sidecar(path: str, windows: list[TelemetryWindow]) -> None:
    """CSV sidecar mapping each window's time span to its ground-truth label.
    InputError, before the file is opened, unless the windows are in time
    order and disjoint."""
    _check_spans(windows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "end", "label"])
        for w in windows:
            writer.writerow([w.start, w.end, w.label if w.label is not None else ""])


def _read_spans(path: str) -> list[tuple[int, int, str | None]]:
    """The label sidecar's spans: two integers and a label each, non-empty,
    in time order and disjoint."""
    spans = []
    reader = csv.reader(read_text(path, InputError, "label sidecar").split("\n"))
    if next(reader, None) != ["start", "end", "label"]:
        raise InputError(f"{path}: expected header start,end,label")
    for row in filter(None, reader):  # a blank line holds no span
        where = f"{path}:{reader.line_num}"
        try:
            start, end, label = row
            start, end = int(start), int(end)
        except ValueError:
            raise InputError(f"{where}: expected integer start and end, then a label"
                             ) from None
        if start >= end:
            raise InputError(f"{where}: window start {start} must precede end {end}")
        if label and label not in LABELS:
            raise InputError(f"{where}: unknown label {label!r}")
        if spans and start < spans[-1][1]:
            raise InputError(f"{where}: span [{start}, {end}) overlaps or precedes "
                             "the one before it")
        spans.append((start, end, label or None))
    return spans


_RECORD_KEYS = {cls.kind: {"kind", "timestamp", cls.kind} for cls in SOURCE_COLUMNS}
_PAYLOAD_KEYS = {cls.kind: set(cls.names[1:]) for cls in SOURCE_COLUMNS}


def _record_fault(record, last: int) -> str | None:
    """What is wrong with a parsed line as the event after timestamp ``last``."""
    if type(record) is not dict:
        return "expected a JSON object"
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in _RECORD_KEYS:
        return f"unknown event kind {kind!r}"
    if record.keys() != _RECORD_KEYS[kind]:
        return f"a {kind} record holds exactly kind, timestamp and {kind}"
    ts = record["timestamp"]
    if type(ts) is not int or ts < 0:
        return "timestamp must be a non-negative integer"
    if ts < last:
        return "events must be sorted by timestamp"
    if type(record[kind]) is not dict or record[kind].keys() != _PAYLOAD_KEYS[kind]:
        return f"{kind} must hold exactly the fields {', '.join(_FIELD_ORDER[kind])}"
    return None


def read_stream_jsonl(events_path: str, labels_path: str) -> list[TelemetryWindow]:
    """Rebuild labeled windows from an events file and its label sidecar:
    each source's lines become the run's columns, cut into windows."""
    spans = _read_spans(labels_path)
    rows = {kind: [] for kind in _FIELD_ORDER}
    last = span = 0
    lines = read_text(events_path, InputError, "telemetry events").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"{events_path}:{lineno}: invalid JSON ({exc})") from exc
        fault = _record_fault(record, last)
        if fault is None:
            last = record["timestamp"]
            while span < len(spans) and last >= spans[span][1]:
                span += 1
            if span == len(spans) or last < spans[span][0]:
                fault = f"event at {last} not covered by any window span"
        if fault:
            raise InputError(f"{events_path}:{lineno}: {fault}")
        rows[record["kind"]].append((last, record[record["kind"]], span, lineno))
    del lines  # building the columns is the reader's peak; hold no text there
    # per source: timestamps, payloads, windows, line numbers
    rows = {kind: list(zip(*rows[kind])) or [()] * 4 for kind in rows}
    run = TelemetryRun.from_keys(spans, *_build_columns(
        [rows[kind][:3] for kind in rows],
        lambda kind, row: f"{events_path}:{rows[kind][3][row]}: "))
    return [run.window(i) for i in range(len(run))]

"""Span tracer for the traced benchmark run.

The tracer wraps cloudguard's public functions and layer methods from the
outside: it swaps each target for a timing wrapper in every loaded
``cloudguard`` module that holds a reference to it, and puts the originals
back on ``uninstall``. Nothing under ``src/`` knows about it.

A span carries a name, start, end, parent span and thread. Spans stay in
memory, in one columnar buffer per thread, until the run writes them out.
A span's parent is the innermost open span of its own thread; a span opened
on a worker thread with nothing open there (the simulation's shard pool)
takes the innermost open span of the thread that installed the tracer,
which is the call that is waiting on the pool.
"""

import array
import functools
import itertools
import threading
import time
import weakref

import numpy as np

_perf = time.perf_counter


class _Buffer:
    """Spans and counters recorded by one thread."""

    def __init__(self, thread_index: int):
        self.thread_index = thread_index
        self.stack: list[int] = []
        self.ids = array.array("q")
        self.names = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Spans:
    """All recorded spans as parallel numpy arrays, ordered by start."""

    def __init__(self, names: list[str], buffers: list[_Buffer]):
        self.names = list(names)
        cols = {
            "id": np.concatenate([np.frombuffer(b.ids, dtype=np.int64)
                                  for b in buffers] or [np.zeros(0, np.int64)]),
            "name": np.concatenate([np.frombuffer(b.names, dtype=np.int32)
                                    for b in buffers] or [np.zeros(0, np.int32)]),
            "start": np.concatenate([np.frombuffer(b.starts, dtype=np.float64)
                                     for b in buffers] or [np.zeros(0)]),
            "end": np.concatenate([np.frombuffer(b.ends, dtype=np.float64)
                                   for b in buffers] or [np.zeros(0)]),
            "parent": np.concatenate([np.frombuffer(b.parents, dtype=np.int64)
                                      for b in buffers] or [np.zeros(0, np.int64)]),
            "thread": np.concatenate([np.full(len(b.ids), b.thread_index, np.int32)
                                      for b in buffers] or [np.zeros(0, np.int32)]),
        }
        order = np.argsort(cols["start"], kind="stable")
        for key, col in cols.items():
            setattr(self, key, col[order])

    def __len__(self) -> int:
        return len(self.id)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def busy(self, *names: str) -> float:
        """Summed span durations over every thread."""
        total = 0.0
        for name in names:
            m = self.mask(name)
            total += float((self.end[m] - self.start[m]).sum())
        return total

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def wall(self, name: str) -> float:
        """First start to last end of the named spans, across threads."""
        m = self.mask(name)
        if not m.any():
            return 0.0
        return float(self.end[m].max() - self.start[m].min())

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus what their children cover."""
        total = 0.0
        for i in np.flatnonzero(self.mask(name)):
            lo, hi = self.start[i], self.end[i]
            kids = self.parent == self.id[i]
            covered = covered_length(np.clip(self.start[kids], lo, hi),
                                     np.clip(self.end[kids], lo, hi))
            total += (hi - lo) - covered
        return total

    def coverage(self, lo: float, hi: float) -> float:
        """Share of ``[lo, hi]`` that at least one span covers."""
        inside = (self.end > lo) & (self.start < hi)
        covered = covered_length(np.clip(self.start[inside], lo, hi),
                                 np.clip(self.end[inside], lo, hi))
        return covered / (hi - lo) if hi > lo else 0.0

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), id=self.id,
                            name=self.name, start=self.start, end=self.end,
                            parent=self.parent, thread=self.thread)


def covered_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of the union of the intervals ``[starts[i], ends[i]]``."""
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    # a new merged segment begins where a start lies beyond everything before
    fresh = np.ones(len(s), dtype=bool)
    fresh[1:] = s[1:] > reach[:-1]
    seg_start = s[fresh]
    seg_end = np.append(reach[np.flatnonzero(fresh)[1:] - 1], reach[-1])
    return float((seg_end - seg_start).sum())


class Tracer:
    """Records spans around patched callables; install, run, uninstall."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._ids = itertools.count()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._main_stack: list[int] = []
        self.gauges: dict[str, float] = {}
        self.layer_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self._names))
                if nid == len(self._names):
                    self._names.append(name)
        return nid

    def span(self, name_of, fn, after=None):
        """Wrap ``fn`` so each call records a span.

        ``name_of`` is a span name, or a callable mapping the call's
        arguments to one. ``after(buf, args, kwargs, result)`` may update the
        thread's counters once the call returns.
        """
        tracer = self
        fixed = None if callable(name_of) else self.name_id(name_of)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            nid = fixed if fixed is not None else tracer.name_id(name_of(args))
            if buf.stack:
                parent = buf.stack[-1]
            else:
                try:
                    parent = tracer._main_stack[-1]
                except IndexError:
                    parent = -1
            sid = next(tracer._ids)
            buf.stack.append(sid)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                buf.stack.pop()
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.parents.append(parent)
            if after is not None:
                after(buf, args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_function(self, modules, home, attr: str, name_of, after=None) -> None:
        """Replace ``home.attr`` in every module that holds the same object."""
        original = getattr(home, attr)
        wrapper = self.span(name_of, original, after)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, name_of, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.span(name_of, original, after))

    def patch_plain(self, cls, attr: str, replacement) -> None:
        """Swap in a replacement that records no span (restored like the others)."""
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def activate(self) -> None:
        """Mark the calling thread as the one whose open span adopts
        orphaned worker-thread spans."""
        self._main_stack = self._buffer().stack

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for buf in self._buffers:
            for key, value in buf.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    def spans(self) -> Spans:
        return Spans(self._names, self._buffers)

"""Telemetry record validation and JSON-lines round trips."""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings

from cloudguard.errors import InputError
from cloudguard.features import build_layout, extract_features
from cloudguard.scenario import default_scenario, generate_stream
from cloudguard.telemetry import (
    FIXED_CODES,
    BehaviorData,
    FlowData,
    LogData,
    TelemetryEvent,
    TelemetryWindow,
    read_stream_jsonl,
    write_events_jsonl,
    write_label_sidecar,
)

from .strategies import random_windows


def flow_event(ts=10, **kw):
    defaults = dict(src="10.0.0.1", dst="srv-1", port=443, protocol="tcp",
                    bytes=100, packets=2, duration_ms=5, syn_flag=False,
                    payload_class=0)
    defaults.update(kw)
    return TelemetryEvent(kind="flow", timestamp=ts, flow=FlowData(**defaults))


def log_event(ts=20):
    return TelemetryEvent(kind="log", timestamp=ts,
                          log=LogData(severity=3, event_code=120, subsystem="api"))


def behavior_event(ts=30, action="query", success=True, user="user-1"):
    return TelemetryEvent(kind="behavior", timestamp=ts,
                          behavior=BehaviorData(user_id=user, action=action,
                                                success=success))


class TestEventValidation:
    def test_exactly_one_payload_required(self):
        with pytest.raises(InputError):
            TelemetryEvent(kind="flow", timestamp=0)  # no payload
        with pytest.raises(InputError):
            TelemetryEvent(kind="log", timestamp=0,
                           flow=flow_event().flow,
                           log=LogData(severity=1, event_code=1, subsystem="db"))

    def test_kind_must_match_payload(self):
        with pytest.raises(InputError):
            TelemetryEvent(kind="log", timestamp=0, flow=flow_event().flow)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(InputError):
            flow_event(ts=-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            TelemetryEvent(kind="dns", timestamp=0)


class TestWindowValidation:
    def test_events_must_fall_inside_span(self):
        with pytest.raises(InputError):
            TelemetryWindow(start=0, end=100, events=[flow_event(ts=150)])

    def test_events_must_be_sorted(self):
        with pytest.raises(InputError):
            TelemetryWindow(start=0, end=100,
                            events=[flow_event(ts=50), flow_event(ts=10)])

    def test_end_exclusive(self):
        with pytest.raises(InputError):
            TelemetryWindow(start=0, end=100, events=[flow_event(ts=100)])
        TelemetryWindow(start=0, end=100, events=[flow_event(ts=99)])  # ok

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError):
            TelemetryWindow(start=0, end=100, label="zero_day")

    def test_empty_window_ok(self):
        w = TelemetryWindow(start=0, end=1000)
        assert w.duration_ms == 1000
        assert w.events == []

    @pytest.mark.parametrize("start, end", [(2**63, 2**63 + 1), (-2**63 - 1, 0),
                                            (0, 2**63)])
    def test_span_outside_int64_rejected(self, start, end):
        # numpy would raise a bare OverflowError on the span when featurizing
        with pytest.raises(InputError, match="int64"):
            TelemetryWindow(start=start, end=end)

    def test_span_at_the_int64_edges_featurizes(self):
        w = TelemetryWindow(start=2**63 - 17, end=2**63 - 1)
        assert extract_features([w], build_layout()).shape == (1, build_layout().dim)


# one valid line of each source, for building malformed files around
FLOW_LINE = {"kind": "flow", "timestamp": 10, "flow": {
    "src": "10.0.0.1", "dst": "srv-1", "port": 443, "protocol": "tcp", "bytes": 100,
    "packets": 2, "duration_ms": 5, "syn_flag": False, "payload_class": 0}}
LOG_LINE = {"kind": "log", "timestamp": 20,
            "log": {"severity": 3, "event_code": 120, "subsystem": "api"}}


def _with(record: dict, **changes) -> str:
    """``record`` as a JSON line, with top-level keys changed (a None value
    drops the key) or, through ``payload``, its payload's fields changed."""
    record = {**record, **changes}
    payload = record.pop("payload", None)
    if payload is not None:
        record[record["kind"]] = {**record[record["kind"]], **payload}
    return json.dumps({k: v for k, v in record.items() if v is not None})


_MALFORMED = {
    "array line": (["[1, 2]"], "expected a JSON object"),
    "string line": (['"flow"'], "expected a JSON object"),
    "string timestamp": ([_with(FLOW_LINE, timestamp="5")], "timestamp"),
    "null timestamp": ([json.dumps({**FLOW_LINE, "timestamp": None})], "timestamp"),
    "bool timestamp": ([_with(FLOW_LINE, timestamp=True)], "timestamp"),
    "negative timestamp": ([_with(FLOW_LINE, timestamp=-1)], "timestamp"),
    "unsorted": ([_with(LOG_LINE, timestamp=5)], "sorted"),
    "extra key": ([_with(FLOW_LINE, extra=1)], "exactly kind, timestamp and flow"),
    "missing kind": ([_with(FLOW_LINE, kind=None)], "unknown event kind"),
    "second payload": ([_with(FLOW_LINE, log=LOG_LINE["log"])], "exactly"),
    "extra field": ([_with(LOG_LINE, payload={"extra": 1})], "exactly the fields"),
    "missing field": ([json.dumps({**LOG_LINE, "log": {"severity": 3, "event_code": 1}})],
                      "exactly the fields"),
    "float field": ([_with(LOG_LINE, payload={"severity": 2.5})], "severity must hold"),
    "string field": ([_with(FLOW_LINE, payload={"port": "443"})], "port must hold"),
    "list field": ([_with(FLOW_LINE, payload={"bytes": [1, 2]})], "bytes must hold"),
    "huge field": ([_with(FLOW_LINE, payload={"bytes": 2**70})], "bytes must hold"),
    "negative port": ([_with(FLOW_LINE, payload={"port": -1})], "port must be non-negative"),
    "int bool": ([_with(FLOW_LINE, payload={"syn_flag": 1})], "syn_flag must hold"),
    "number string": ([_with(FLOW_LINE, payload={"src": 7})], "src must hold strings"),
    "uncovered": ([_with(LOG_LINE, timestamp=150)], "not covered"),
}
_MALFORMED_SPANS = {
    "non-integer start": ("x,100,benign\n", "integer"),
    "short row": ("0\n", "integer"),
    "long row": ("0,100,benign,x\n", "integer"),
    "empty span": ("100,100,benign\n", "precede"),
    "overlap": ("0,100,benign\n50,150,ddos\n", "overlaps"),
    "out of order": ("200,300,\n0,100,benign\n", "precedes"),
    "unknown label": ("0,100,ddoss\n", "unknown label 'ddoss'"),
}


class TestSerialization:
    def test_stream_file_round_trip(self, tmp_path):
        odd = 'ü"\\'  # a non-ASCII character, a quote and a backslash
        windows = [
            TelemetryWindow(start=0, end=100,
                            events=[flow_event(ts=10), log_event(ts=20)],
                            label="benign"),
            TelemetryWindow(start=100, end=200,
                            events=[behavior_event(ts=150)], label="ddos"),
            TelemetryWindow(start=200, end=300, events=[], label=None),
            TelemetryWindow(start=300, end=400, label="benign", events=[
                flow_event(ts=300, src=odd), behavior_event(ts=300, user=odd + "x")]),
        ]
        ev_path = str(tmp_path / "events.jsonl")
        lb_path = str(tmp_path / "labels.csv")
        write_events_jsonl(ev_path, windows)
        write_label_sidecar(lb_path, windows)
        with open(ev_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 5
        assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in lines)
        got = read_stream_jsonl(ev_path, lb_path)
        assert got == windows
        for a, b in zip(got, windows):
            assert (a.start, a.end, a.label) == (b.start, b.end, b.label)
            assert a.events == b.events

    @pytest.mark.parametrize("case", list(_MALFORMED) + list(_MALFORMED_SPANS))
    def test_reader_rejects_malformed_lines_with_their_location(self, tmp_path, case):
        ev = tmp_path / "events.jsonl"
        lb = tmp_path / "labels.csv"
        lines, spans = [json.dumps(FLOW_LINE)], "0,100,benign\n"
        if case in _MALFORMED:
            lines += _MALFORMED[case][0]
            where, match = f"{ev}:2: ", _MALFORMED[case][1]
        else:
            spans, match = _MALFORMED_SPANS[case]
            where = f"{lb}:{spans.count(chr(10)) + 1}: "
        ev.write_text("\n".join(lines) + "\n")
        lb.write_text("start,end,label\n" + spans)
        with pytest.raises(InputError) as err:
            read_stream_jsonl(str(ev), str(lb))
        assert str(err.value).startswith(where)
        assert match in str(err.value)

    def test_read_rejects_garbage_line(self, tmp_path):
        ev = tmp_path / "events.jsonl"
        ev.write_text("not json\n")
        lb = tmp_path / "labels.csv"
        lb.write_text("start,end,label\n0,100,benign\n")
        with pytest.raises(InputError, match="invalid JSON"):
            read_stream_jsonl(str(ev), str(lb))

    @pytest.mark.parametrize("writer", [write_events_jsonl, write_label_sidecar])
    @pytest.mark.parametrize("spans", [((100, 200), (0, 100)), ((0, 100), (50, 150))],
                             ids=["out-of-order", "overlapping"])
    def test_writers_reject_spans_the_reader_refuses(self, tmp_path, writer, spans):
        windows = [TelemetryWindow(start=a, end=b, events=[flow_event(ts=a)])
                   for a, b in spans]
        path = tmp_path / "out"
        with pytest.raises(InputError, match="overlaps or precedes"):
            writer(str(path), windows)
        assert not path.exists()  # refused before the file is opened

    def test_read_rejects_uncovered_event(self, tmp_path):
        windows = [TelemetryWindow(start=0, end=100, events=[flow_event(ts=10)])]
        ev = str(tmp_path / "e.jsonl")
        write_events_jsonl(ev, windows)
        lb = tmp_path / "l.csv"
        lb.write_text("start,end,label\n50,100,\n")  # event at 10 precedes span
        with pytest.raises(InputError):
            read_stream_jsonl(ev, str(lb))


class TestColumnarWindows:
    def test_generated_stream_round_trips_through_json_lines(self, tmp_path):
        stream = generate_stream(default_scenario(seed=8, rounds=1))
        ev_path = str(tmp_path / "events.jsonl")
        lb_path = str(tmp_path / "labels.csv")
        write_events_jsonl(ev_path, stream.windows)
        write_label_sidecar(lb_path, stream.windows)
        got = read_stream_jsonl(ev_path, lb_path)
        layout = build_layout()
        assert len(got) == len(stream.windows)
        for a, b in zip(got, stream.windows):
            assert a.label == b.label
            assert a.strings == b.strings
            for cols_a, cols_b in zip(a.sources, b.sources):
                for name in cols_a.names:
                    np.testing.assert_array_equal(getattr(cols_a, name),
                                                  getattr(cols_b, name))
            np.testing.assert_array_equal(extract_features(a, layout),
                                          extract_features(b, layout))

    @settings(max_examples=100, deadline=None)
    @given(random_windows())
    def test_hand_built_windows_round_trip(self, case):
        _, window = case
        with tempfile.TemporaryDirectory() as tmp:
            ev_path = os.path.join(tmp, "events.jsonl")
            lb_path = os.path.join(tmp, "labels.csv")
            write_events_jsonl(ev_path, [window])
            write_label_sidecar(lb_path, [window])
            assert read_stream_jsonl(ev_path, lb_path) == [window]

    def test_event_count_needs_no_event_objects(self, monkeypatch):
        w = generate_stream(default_scenario(seed=2, rounds=1)).windows[3]
        built = []
        original = TelemetryEvent.__post_init__
        monkeypatch.setattr(TelemetryEvent, "__post_init__",
                            lambda ev: (built.append(ev), original(ev)))
        assert len(w.events) == w.event_count == sum(len(c) for c in w.sources) > 0
        assert built == []
        assert len(list(w.events)) == w.event_count
        assert len(built) == w.event_count

    def test_json_lines_need_no_event_objects(self, tmp_path, monkeypatch):
        windows = generate_stream(default_scenario(seed=2, rounds=1)).windows
        built = []
        original = TelemetryEvent.__post_init__
        monkeypatch.setattr(TelemetryEvent, "__post_init__",
                            lambda ev: (built.append(ev), original(ev)))
        ev_path = str(tmp_path / "events.jsonl")
        lb_path = str(tmp_path / "labels.csv")
        write_events_jsonl(ev_path, windows)
        write_label_sidecar(lb_path, windows)
        assert read_stream_jsonl(ev_path, lb_path) == windows
        assert built == []

    def test_string_codes_follow_string_equality(self):
        w = TelemetryWindow(start=0, end=100, events=[
            flow_event(ts=1, src="b", dst="a"), flow_event(ts=2, src="a", dst="b"),
            behavior_event(ts=3, user="a", action="login")])
        strings = np.array(w.strings)
        np.testing.assert_array_equal(strings[w.flows.src], ["b", "a"])
        np.testing.assert_array_equal(strings[w.flows.dst], ["a", "b"])
        assert w.flows.src[1] == w.flows.dst[0] == w.behaviors.user_id[0]
        assert w.behaviors.action[0] == FIXED_CODES["login"]
        assert w.flows.protocol.tolist() == [FIXED_CODES["tcp"]] * 2

    def test_malformed_columns_rejected(self):
        w = TelemetryWindow(start=0, end=100, events=[flow_event(ts=10)])
        with pytest.raises(InputError, match="non-negative"):
            TelemetryWindow(start=0, end=100, events=[flow_event(ts=10, bytes=-5)])
        with pytest.raises(InputError, match="strings"):
            TelemetryWindow(0, 100, sources=w.sources, strings=w.strings[::-1])
        short = dataclasses.replace(w.flows, port=w.flows.port[:0])
        with pytest.raises(InputError, match="length"):
            TelemetryWindow(0, 100, sources=(short, w.logs, w.behaviors),
                            strings=w.strings)
        with pytest.raises(InputError, match="strings"):
            TelemetryWindow(start=0, end=100, events=[flow_event(ts=10, src=7)])
        for bad in (dict(bytes=1.5), dict(port="443"), dict(syn_flag=1)):
            with pytest.raises(InputError, match="must hold"):
                TelemetryWindow(start=0, end=100, events=[flow_event(ts=10, **bad)])

    def test_reader_rejects_span_outside_int64(self, tmp_path):
        ev = tmp_path / "events.jsonl"
        ev.write_text("")
        lb = tmp_path / "labels.csv"
        lb.write_text(f"start,end,label\n0,100,benign\n100,{2**63},benign\n")
        with pytest.raises(InputError, match="int64"):
            read_stream_jsonl(str(ev), str(lb))

    def test_reader_rejects_non_integer_fields(self, tmp_path):
        ev = tmp_path / "events.jsonl"
        ev.write_text(json.dumps({"kind": "flow", "timestamp": 10, "flow": {
            "src": "10.0.0.1", "dst": "srv-1", "port": 443, "protocol": "tcp",
            "bytes": 100.5, "packets": 2, "duration_ms": 5, "syn_flag": False,
            "payload_class": 0}}) + "\n")
        lb = tmp_path / "labels.csv"
        lb.write_text("start,end,label\n0,100,benign\n")
        with pytest.raises(InputError, match="bytes must hold"):
            read_stream_jsonl(str(ev), str(lb))

"""The columnar extractor against the event-by-event reference extractor.

Entropies sum their terms in another order (bincount/unique order instead of
first occurrence), and sums and standard deviations accumulate in row order
rather than numpy's pairwise order, so vectors are compared with a
tolerance fixed up front from float64 rounding, not tuned to the observed
differences.

A run is featurized in one call. Its rows must equal, bit for bit, the
vectors of its windows featurized one at a time, and the rows of any slice
of the run: no window's features depend on the windows around it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cloudguard.features import build_layout, extract_features
from cloudguard.scenario import (AttackSpec, ScenarioConfig, default_scenario,
                                 generate_stream)
from cloudguard.telemetry import (LABELS, LogData, TelemetryEvent, TelemetryWindow,
                                  read_stream_jsonl, write_events_jsonl, write_label_sidecar)

from .feature_oracle import reference_features
from .strategies import random_windows
from .test_telemetry import behavior_event, flow_event, log_event

RTOL = 1e-12
ATOL = 1e-9

LAYOUTS = (build_layout(), build_layout(dim=16), build_layout(dim=600, n_bins=8))


def assert_matches_oracle(window):
    for layout in LAYOUTS:
        np.testing.assert_allclose(extract_features(window, layout),
                                   reference_features(window, layout),
                                   rtol=RTOL, atol=ATOL)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def assert_run_matches(windows, slices=None):
    """The run form against the one-window form, slices of the run and the
    oracle, for every layout. ``slices`` defaults to every slice."""
    n = len(windows)
    if slices is None:
        slices = [(a, b) for a in range(n + 1) for b in range(a, n + 1)]
    for layout in LAYOUTS:
        run = extract_features(windows, layout)
        assert run.shape == (n, layout.dim)
        for k, window in enumerate(windows):
            assert_bitwise(run[k], extract_features(window, layout))
            np.testing.assert_allclose(run[k], reference_features(window, layout),
                                       rtol=RTOL, atol=ATOL)
        for a, b in slices:
            assert_bitwise(extract_features(windows[a:b], layout), run[a:b])


def window_of(events, start=0, end=1000, label=None):
    return TelemetryWindow(start=start, end=end, label=label,
                           events=sorted(events, key=lambda e: e.timestamp))


class TestHandBuiltEdges:
    def test_empty_window(self):
        assert_matches_oracle(TelemetryWindow(start=0, end=1000))

    def test_logs_only(self):
        events = [TelemetryEvent(kind="log", timestamp=t,
                                 log=LogData(severity=s, event_code=c, subsystem=sub))
                  for t, s, c, sub in [(1, 6, 401, "auth"), (5, 2, 120, "db"),
                                       (5, 9, 120, "other"), (700, -1, 3, "auth")]]
        assert_matches_oracle(window_of(events))

    def test_high_ports(self):
        events = [flow_event(ts=i, port=p)
                  for i, p in enumerate([1023, 1024, 2047, 2048, 65535, 80, 70000])]
        assert_matches_oracle(window_of(events))

    def test_payload_class_clipping(self):
        events = [flow_event(ts=i, payload_class=c) for i, c in enumerate([-2, 0, 1, 3, 5, 7])]
        assert_matches_oracle(window_of(events))

    def test_repeated_strings(self):
        events = [flow_event(ts=i, src=["a", "b", "a"][i % 3], dst=["x", "x", "y"][i % 3])
                  for i in range(9)]
        events += [behavior_event(ts=20 + i, action="login", success=i % 2 == 0,
                                  user=["u1", "u2", "u1", "u1"][i % 4])
                   for i in range(8)]
        # a source address spelled like a fixed string shares its code
        events += [flow_event(ts=40, src="login", protocol="icmp"),
                   behavior_event(ts=41, action="reboot", user="tcp")]
        assert_matches_oracle(window_of(events))

    def test_timestamp_ties(self):
        events = [flow_event(ts=10, bytes=100), log_event(ts=10), behavior_event(ts=10),
                  flow_event(ts=10, bytes=7), flow_event(ts=999), behavior_event(ts=999)]
        w = TelemetryWindow(start=0, end=1000, events=events)
        assert_matches_oracle(w)
        assert [ev.kind for ev in w.events] == ["flow", "flow", "log", "behavior",
                                                "flow", "behavior"]
        assert [ev.flow.bytes for ev in w.events[:2]] == [100, 7]

    def test_shifted_short_window(self):
        events = [flow_event(ts=10**9 + 2), log_event(ts=10**9 + 2),
                  behavior_event(ts=10**9 + 4)]
        assert_matches_oracle(window_of(events, start=10**9, end=10**9 + 5))

    def test_values_spanning_all_of_int64(self):
        # too wide a range to key (window, value) pairs directly
        events = [flow_event(ts=1, port=10**18), flow_event(ts=2, port=3),
                  flow_event(ts=3, port=10**18)]
        events += [TelemetryEvent(kind="log", timestamp=t,
                                  log=LogData(severity=1, event_code=c, subsystem="db"))
                   for t, c in [(4, -10**18), (5, 10**18), (6, -10**18), (7, 0)]]
        window = window_of(events)
        assert_matches_oracle(window)
        assert_run_matches([window, TelemetryWindow(start=0, end=10), window])


class TestRuns:
    def test_empty_run(self):
        for layout in LAYOUTS:
            assert extract_features([], layout).shape == (0, layout.dim)

    def test_mixed_sources_starts_and_durations(self):
        logs = [TelemetryEvent(kind="log", timestamp=t,
                               log=LogData(severity=s, event_code=c, subsystem=sub))
                for t, s, c, sub in [(5001, 6, 401, "auth"), (5003, -1, 3, "other"),
                                     (5003, 9, 120, "db")]]
        flows = [flow_event(ts=10**9 + i, port=p, src=src, bytes=b)
                 for i, (p, src, b) in enumerate([(22, "a", 10**9), (70000, "b", 0),
                                                  (22, "a", 7)])]
        mixed = [flow_event(ts=40, src="login"), log_event(ts=41),
                 behavior_event(ts=42, action="login", success=False, user="u"),
                 behavior_event(ts=43, action="reboot", user="tcp")]
        windows = [
            TelemetryWindow(start=0, end=1000),
            window_of(logs, start=5000, end=5004),
            window_of(flows, start=10**9, end=10**9 + 3000),
            TelemetryWindow(start=7, end=8),
            window_of(mixed, start=0, end=50),
            window_of(flows, start=10**9 - 1, end=10**9 + 3),
            TelemetryWindow(start=0, end=1000),
        ]
        assert_run_matches(windows)

    @pytest.mark.parametrize("benign_rate", [60.0, 6.0])
    def test_generated_runs(self, benign_rate):
        windows = generate_stream(default_scenario(seed=5, rounds=1,
                                                   benign_rate=benign_rate)).windows
        n = len(windows)
        assert_run_matches(windows, slices=[(0, 1), (0, n // 2), (n // 3, n), (7, 8),
                                            (10, 40), (n - 1, n), (5, 5)])


    def test_generated_run_matches_its_windows_and_their_read_back(self, tmp_path):
        stream = generate_stream(default_scenario(seed=5, rounds=2))
        events, labels = str(tmp_path / "events.jsonl"), str(tmp_path / "labels.csv")
        write_events_jsonl(events, stream.windows)
        write_label_sidecar(labels, stream.windows)
        read_back = read_stream_jsonl(events, labels)
        for layout in LAYOUTS:
            from_run = extract_features(stream.run, layout)
            assert_bitwise(from_run, extract_features(stream.windows, layout))
            assert_bitwise(from_run, extract_features(read_back, layout))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(random_windows(), max_size=5))
def test_random_runs_match_windows_and_oracle(cases):
    assert_run_matches([window for _, window in cases])


class TestGeneratedWindows:
    @pytest.mark.parametrize("benign_rate", [60.0, 6.0])
    def test_every_label(self, benign_rate):
        stream = generate_stream(default_scenario(seed=5, rounds=1,
                                                  benign_rate=benign_rate))
        assert {w.label for w in stream.windows} == set(LABELS)
        for w in stream.windows:
            assert_matches_oracle(w)

    def test_partial_window_overlap(self):
        cfg = ScenarioConfig(duration_ms=6000, window_ms=1000, seed=3, attacks=(
            AttackSpec(kind="data_exfiltration", intensity=0.7, start=500, end=2300),
            AttackSpec(kind="ddos", intensity=0.6, start=2100, end=4700),
            AttackSpec(kind="sql_injection", intensity=1.0, start=4200, end=6000),
        ))
        for w in generate_stream(cfg).windows:
            assert_matches_oracle(w)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_windows())
def test_random_windows_match_oracle(case):
    events, window = case
    # the columns hold exactly the events they were built from, ties ordered
    # flow, log, behavior
    rank = {"flow": 0, "log": 1, "behavior": 2}
    assert list(window.events) == sorted(events, key=lambda e: (e.timestamp, rank[e.kind]))
    assert_matches_oracle(window)

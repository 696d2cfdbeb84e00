"""Feature extraction: catalog layout, named statistics, and normalization."""

import dataclasses

import numpy as np
import pytest

from cloudguard import features
from cloudguard.errors import DimensionError, InputError
from cloudguard.features import (
    DEFAULT_DIM,
    FeatureLayout,
    build_layout,
    entropy_nats,
    extract_features,
    fit_normalizer,
    normalize,
)
from cloudguard.scenario import default_scenario, generate_stream
from cloudguard.telemetry import (
    BehaviorData,
    FlowData,
    LogData,
    TelemetryEvent,
    TelemetryWindow,
)

from .test_telemetry import behavior_event, flow_event, log_event


@pytest.fixture(scope="module")
def layout():
    return build_layout()


def window_of(events, start=0, end=1000):
    return TelemetryWindow(start=start, end=end,
                           events=sorted(events, key=lambda e: e.timestamp))


class TestLayout:
    def test_default_dimension_and_segments(self, layout):
        assert layout.dim == DEFAULT_DIM == 428
        assert layout.segments["traffic"] == (0, 200)
        assert layout.segments["time_series"] == (200, 328)
        assert layout.segments["behavior"] == (328, 428)
        assert len(layout.names) == 428

    def test_segments_partition_index_space(self):
        for dim in (3, 16, 47, 100, 428, 600):
            lo = build_layout(dim=dim)
            spans = sorted(lo.segments.values())
            assert spans[0][0] == 0
            assert spans[-1][1] == dim
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b == c  # contiguous, no gap or overlap

    def test_names_unique_and_namespaced(self, layout):
        assert len(set(layout.names)) == layout.dim
        for name in layout.names:
            segment = name.split(".", 1)[0]
            assert segment in ("traffic", "time_series", "behavior")

    def test_named_lookup_round_trip(self, layout):
        idx = layout.index_of("traffic.byte_sum")
        assert layout.names[idx] == "traffic.byte_sum"
        with pytest.raises(InputError):
            layout.index_of("traffic.nonexistent")

    def test_timeseries_catalog_exactly_fills_default_segment(self, layout):
        # 4 series x 16 bins + 4 x 15 deltas + 4 peak ratios = 128 = segment width
        start, end = layout.segments["time_series"]
        names = layout.names[start:end]
        assert not any("reserved" in n for n in names)
        assert names[0] == "time_series.flows_bin_00"
        assert names[-1] == "time_series.actions_peak_ratio"

    def test_small_dim_still_partitions(self):
        lo = build_layout(dim=16)
        assert lo.segments["traffic"] == (0, 7)
        assert lo.segments["time_series"] == (7, 12)
        assert lo.segments["behavior"] == (12, 16)


class TestExtraction:
    def test_empty_window_gives_zero_vector(self, layout):
        fv = extract_features(TelemetryWindow(start=0, end=1000), layout)
        assert fv.shape == (428,)
        assert not fv.any()

    def test_single_flow_aggregates(self, layout):
        fv = extract_features(window_of([flow_event(ts=10, bytes=100, packets=7)]),
                              layout)
        assert fv[layout.index_of("traffic.byte_sum")] == 100.0
        assert fv[layout.index_of("traffic.packet_sum")] == 7.0
        assert fv[layout.index_of("traffic.flow_count")] == 1.0
        assert fv[layout.index_of("traffic.flow_rate")] == 1.0  # 1 flow / 1 s

    def test_port_entropy_uniform_four_ports_is_ln4(self, layout):
        events = [flow_event(ts=i, port=p) for i, p in enumerate([10, 20, 30, 40])]
        fv = extract_features(window_of(events), layout)
        assert fv[layout.index_of("traffic.port_entropy")] == pytest.approx(np.log(4.0),
                                                                            rel=1e-12)

    def test_entropy_bounds(self, layout):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ports = rng.integers(1, 40, size=int(rng.integers(1, 30)))
            events = [flow_event(ts=i, port=int(p)) for i, p in enumerate(ports)]
            fv = extract_features(window_of(events), layout)
            h = fv[layout.index_of("traffic.port_entropy")]
            assert 0.0 <= h <= np.log(len(set(ports.tolist()))) + 1e-12

    def test_purity_same_window_same_vector(self, layout):
        events = [flow_event(ts=3), log_event(ts=7), behavior_event(ts=11)]
        w = window_of(events)
        a = extract_features(w, layout)
        b = extract_features(w, layout)
        np.testing.assert_array_equal(a, b)

    def test_time_translation_invariance(self, layout):
        rng = np.random.default_rng(12)
        base_events = []
        for _ in range(40):
            ts = int(rng.integers(0, 1000))
            kind = rng.choice(["flow", "log", "behavior"])
            if kind == "flow":
                base_events.append(flow_event(ts=ts, bytes=int(rng.integers(40, 5000)),
                                              port=int(rng.integers(1, 1000))))
            elif kind == "log":
                base_events.append(log_event(ts=ts))
            else:
                base_events.append(behavior_event(ts=ts))
        for shift in (1000, 123000, 10**9):
            shifted = []
            for ev in base_events:
                if ev.flow is not None:
                    shifted.append(TelemetryEvent(kind="flow",
                                                  timestamp=ev.timestamp + shift,
                                                  flow=ev.flow))
                elif ev.log is not None:
                    shifted.append(TelemetryEvent(kind="log",
                                                  timestamp=ev.timestamp + shift,
                                                  log=ev.log))
                else:
                    shifted.append(TelemetryEvent(kind="behavior",
                                                  timestamp=ev.timestamp + shift,
                                                  behavior=ev.behavior))
            a = extract_features(window_of(base_events), layout)
            b = extract_features(window_of(shifted, start=shift, end=shift + 1000),
                                 layout)
            np.testing.assert_array_equal(a, b)

    def test_all_finite_on_random_windows(self, layout):
        rng = np.random.default_rng(77)
        for _ in range(20):
            events = []
            for _ in range(int(rng.integers(0, 60))):
                ts = int(rng.integers(0, 1000))
                pick = int(rng.integers(0, 3))
                if pick == 0:
                    events.append(flow_event(
                        ts=ts, bytes=int(rng.integers(0, 10**7)),
                        packets=int(rng.integers(0, 1000)),
                        port=int(rng.integers(0, 65536)),
                        duration_ms=int(rng.integers(0, 10**5)),
                        payload_class=int(rng.integers(0, 4)),
                        syn_flag=bool(rng.integers(0, 2))))
                elif pick == 1:
                    events.append(log_event(ts=ts))
                else:
                    events.append(behavior_event(ts=ts,
                                                 success=bool(rng.integers(0, 2))))
            fv = extract_features(window_of(events), layout)
            assert np.isfinite(fv).all()
            assert fv.shape == (layout.dim,)

    def test_window_too_long_for_its_time_bins_rejected(self, layout):
        # (timestamp - start) * n_bins would overflow int64
        window = TelemetryWindow(0, 10**18, events=[flow_event(ts=9 * 10**17)])
        with pytest.raises(InputError, match="too long"):
            extract_features(window, layout)
        with pytest.raises(InputError, match="too long"):
            extract_features([window_of([]), window], layout)

    def test_timeseries_bins_count_events(self, layout):
        # 16 bins over 1000 ms: events at 0 ms and 999 ms land in bins 0 and 15
        events = [flow_event(ts=0), flow_event(ts=999)]
        fv = extract_features(window_of(events), layout)
        assert fv[layout.index_of("time_series.flows_bin_00")] == 1.0
        assert fv[layout.index_of("time_series.flows_bin_15")] == 1.0
        assert fv[layout.index_of("time_series.flows_delta_00")] == -1.0

    def test_behavior_failure_stats(self, layout):
        events = [
            behavior_event(ts=1, action="login", success=False, user="u1"),
            behavior_event(ts=2, action="login", success=False, user="u1"),
            behavior_event(ts=3, action="login", success=True, user="u2"),
            behavior_event(ts=4, action="query", success=True, user="u2"),
        ]
        fv = extract_features(window_of(events), layout)
        assert fv[layout.index_of("behavior.action_login_count")] == 3.0
        assert fv[layout.index_of("behavior.action_login_failure_count")] == 2.0
        assert fv[layout.index_of("behavior.failed_logins_per_user_max")] == 2.0
        assert fv[layout.index_of("behavior.failure_ratio")] == 0.5
        assert fv[layout.index_of("behavior.distinct_users")] == 2.0

    def test_log_severity_stats(self, layout):
        events = [
            TelemetryEvent(kind="log", timestamp=1,
                           log=LogData(severity=6, event_code=1, subsystem="auth")),
            TelemetryEvent(kind="log", timestamp=2,
                           log=LogData(severity=2, event_code=2, subsystem="db")),
        ]
        fv = extract_features(window_of(events), layout)
        assert fv[layout.index_of("behavior.high_severity_count")] == 1.0
        assert fv[layout.index_of("behavior.severity_max")] == 6.0
        assert fv[layout.index_of("behavior.severity_hist_6")] == 1.0
        assert fv[layout.index_of("behavior.subsystem_auth_count")] == 1.0


class TestEntropyHelper:
    def test_uniform_four(self):
        assert entropy_nats([5, 5, 5, 5]) == pytest.approx(np.log(4.0), rel=1e-14)

    def test_single_category_zero(self):
        assert entropy_nats([10]) == 0.0

    def test_empty_zero(self):
        assert entropy_nats([]) == 0.0

    def test_dict_counts(self):
        assert entropy_nats({"a": 1, "b": 1}) == pytest.approx(np.log(2.0), rel=1e-14)


class TestNormalizer:
    def test_single_vector_mean_is_vector_std_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        stats = fit_normalizer([v])
        np.testing.assert_array_equal(stats.mean, v)
        np.testing.assert_array_equal(stats.std, np.zeros(3))

    def test_two_point_closed_form(self):
        stats = fit_normalizer([np.array([0.0]), np.array([2.0])])
        np.testing.assert_array_equal(stats.mean, [1.0])
        np.testing.assert_array_equal(stats.std, [1.0])  # population std

    def test_fit_then_normalize_standardizes(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(50, 6)) * np.array([1, 2, 3, 4, 5, 6])
        data[:, 3] = 7.0  # constant dimension
        stats = fit_normalizer(data)
        normed = np.array([normalize(v, stats) for v in data])
        np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-12)
        live = [i for i in range(6) if i != 3]
        np.testing.assert_allclose(normed[:, live].std(axis=0), 1.0, rtol=1e-9)
        np.testing.assert_array_equal(normed[:, 3], np.zeros(50))

    def test_constant_dim_maps_to_zero_regardless_of_input(self):
        stats = fit_normalizer([np.array([5.0]), np.array([5.0])])
        assert normalize(np.array([123.0]), stats)[0] == 0.0

    def test_vector_equal_to_mean_maps_to_zero(self):
        stats = fit_normalizer([np.array([1.0, 4.0]), np.array([3.0, 8.0])])
        np.testing.assert_array_equal(normalize(stats.mean, stats), [0.0, 0.0])

    def test_explicit_formula(self):
        stats = fit_normalizer([np.array([-1.0]), np.array([3.0])])  # mean 1, std 2
        assert normalize(np.array([3.0]), stats)[0] == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            fit_normalizer([])

    def test_dimension_mismatch_rejected(self):
        stats = fit_normalizer([np.zeros(4)])
        with pytest.raises(DimensionError):
            normalize(np.zeros(5), stats)


class TestBlocks:
    """A run is featurized in blocks of at most ``_BLOCK_EVENTS`` events;
    the blocks never show in the output."""

    @pytest.fixture(scope="class")
    def run(self):
        return generate_stream(default_scenario(seed=2, rounds=2)).run

    def test_blocks_tile_the_run_within_the_event_budget(self, run):
        blocks = list(features._blocks(run))
        assert len(blocks) > 1
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == len(run)
        before = sum(np.asarray(at) for at in run.offsets)
        for lo, hi in blocks:
            assert before[hi] - before[lo] <= features._BLOCK_EVENTS or hi == lo + 1
        # a sparse run of the same windows is one block
        sparse = generate_stream(dataclasses.replace(
            default_scenario(seed=2, rounds=2), benign_rate=6.0)).run
        assert list(features._blocks(sparse)) == [(0, len(sparse))]

    def test_a_run_featurized_whole_equals_it_featurized_in_parts(self, run, layout):
        whole = extract_features(run, layout)
        edge = list(features._blocks(run))[0][1]
        for cut in (edge - 1, edge, edge + 1, len(run) // 3):
            parts = np.concatenate([extract_features(run.part(0, cut), layout),
                                    extract_features(run.part(cut, len(run)), layout)])
            np.testing.assert_array_equal(parts.view(np.uint64), whole.view(np.uint64))
        for i in (edge - 1, edge):  # each window alone, on both sides of the edge
            np.testing.assert_array_equal(
                extract_features(run.window(i), layout).view(np.uint64),
                whole[i].view(np.uint64))

    def test_one_window_over_the_budget_is_its_own_block(self, monkeypatch, run):
        monkeypatch.setattr(features, "_BLOCK_EVENTS", 1)
        assert list(features._blocks(run)) == [(i, i + 1) for i in range(len(run))]

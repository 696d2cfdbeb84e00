"""Simulation harness: percentiles, determinism, report files, comparison."""

import copy
import dataclasses
import inspect
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudguard import simulate
from cloudguard.baseline import RuleBasedDetector
from cloudguard.detector import (SERIES_CHUNK, ArchConfig, ThreatVerdict, build_model,
                                 prepare_dataset, save_detector)
from cloudguard.enforcement import OUTCOMES, LatencyBreakdown
from cloudguard.errors import (CheckpointError, ComparisonError, ConfigError,
                               FilesystemError, InputError)
from cloudguard.features import (NormStats, build_layout, extract_features,
                                 fit_normalizer)
from cloudguard.policy import (N_STATES, DoubleQTables, build_action_catalog,
                               save_qtables)
from cloudguard.scenario import (AttackSpec, ScenarioConfig, default_scenario,
                                 generate_stream)
from cloudguard.simulate import (PipelineEvent, SimConfig, build_report,
                                 compare_reports, compute_percentiles,
                                 emit_report, fixed_action_damage,
                                 metrics_from_events, read_events,
                                 run_simulation, window_truths, write_events)
from cloudguard.telemetry import LABELS, TelemetryEvent, TelemetryRun


def small_scenario(seed=3):
    return ScenarioConfig(
        duration_ms=90000, benign_rate=60.0, seed=seed,
        attacks=(
            AttackSpec(kind="ddos", intensity=0.9, start=10000, end=25000),
            AttackSpec(kind="brute_force", intensity=0.8, start=40000,
                       end=55000),
            AttackSpec(kind="data_exfiltration", intensity=0.7, start=70000,
                       end=85000),
        ),
    )


def strip_timing(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    doc.pop("timing")
    return doc


def event_cores(events) -> list[dict]:
    return [{k: v for k, v in ev.to_dict().items() if k != "timing"}
            for ev in events]


@pytest.fixture(scope="module")
def small_run():
    cfg = SimConfig(scenario=small_scenario(), detector="baseline", seed=42)
    report, events = run_simulation(cfg)
    return cfg, report, events


def test_generated_streams_reach_the_featurizer_as_their_run(monkeypatch):
    """No path concatenates a generated stream's windows back into columns:
    the simulation and the training data featurize the stream's run."""
    def refuse(windows):
        raise AssertionError("a generated stream's windows were concatenated")

    monkeypatch.setattr(TelemetryRun, "of", refuse)
    cfg = SimConfig(scenario=small_scenario(), detector="baseline", seed=42)
    run_simulation(cfg)
    simulate.evaluate_detection(cfg)
    arch = ArchConfig()
    x, _, _ = prepare_dataset(generate_stream(small_scenario()),
                              build_layout(dim=arch.feature_dim), arch.seq_len)
    assert len(x) > 0


# ---------------------------------------------------------------------------
# percentiles


def test_percentiles_reject_empty():
    with pytest.raises(InputError):
        compute_percentiles([], (0.5,))


def test_percentiles_reject_bad_fraction():
    with pytest.raises(InputError):
        compute_percentiles([1.0], (1.5,))
    with pytest.raises(InputError):
        compute_percentiles([1.0], (-0.1,))


def test_percentiles_worked_example():
    assert compute_percentiles(range(1, 101), (0.95,)) == [95.0]


def test_percentiles_extremes():
    data = [5.0, 1.0, 9.0, 3.0]
    lo, hi = compute_percentiles(data, (0.0, 1.0))
    assert lo == 1.0 and hi == 9.0


def test_percentile_single_sample():
    assert compute_percentiles([7.25], (0.0, 0.5, 0.999, 1.0)) == [7.25] * 4


def test_percentiles_match_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        data = rng.normal(size=n).tolist()
        qs = rng.random(size=4).tolist()
        got = compute_percentiles(data, qs)
        ordered = sorted(data)
        want = [ordered[max(math.ceil(q * n), 1) - 1] for q in qs]
        assert got == want


def test_percentiles_monotone_in_q():
    rng = np.random.default_rng(1)
    data = rng.exponential(size=37)
    qs = np.linspace(0, 1, 11)
    vals = compute_percentiles(data, qs)
    assert all(a <= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# configuration


def test_config_validates_threshold_and_replicas():
    with pytest.raises(ConfigError):
        SimConfig(scenario=small_scenario(), threshold=1.5)
    with pytest.raises(ConfigError):
        SimConfig(scenario=small_scenario(), replicas=0)
    with pytest.raises(ConfigError):
        SimConfig(scenario=small_scenario(), deadline_ms=0.0)


def test_config_requires_existing_files(tmp_path):
    with pytest.raises(ConfigError, match="detector"):
        SimConfig(scenario=small_scenario(), detector=str(tmp_path / "no.npz"))
    with pytest.raises(ConfigError, match="policy"):
        SimConfig(scenario=small_scenario(), policy=str(tmp_path / "no.csv"))


def test_config_seed_override():
    cfg = SimConfig(scenario=small_scenario(seed=3), seed=99)
    assert cfg.resolved_scenario().seed == 99
    assert cfg.scenario.seed == 3
    assert SimConfig(scenario=small_scenario(seed=3)).resolved_scenario().seed == 3


def test_config_dict_round_trip():
    cfg = SimConfig(scenario=small_scenario(), threshold=0.6, replicas=2,
                    seed=5, fixed_action=7)
    back = SimConfig.from_dict(dataclasses.asdict(cfg))
    assert back == cfg


def test_config_from_dict_defaults():
    cfg = SimConfig.from_dict({"seed": 4})
    assert cfg.scenario.n_windows > 0
    assert cfg.detector == "baseline"
    assert cfg.threshold == 0.75


def test_event_record_round_trip():
    ev = PipelineEvent(
        window_id=3, truth="ddos", predicted="ddos", confident=True,
        max_probability=0.91, threat_score=0.7, threat_level=4, action_id=55,
        outcome="blocked", attack_damage=0.0, collateral_damage=1.5,
        latency=LatencyBreakdown.from_parts(1.0, 0.2, 0.05),
        started_at=100.0, finished_at=100.1)
    assert PipelineEvent.from_dict(ev.to_dict()) == ev
    with pytest.raises(InputError):
        PipelineEvent.from_dict({"window_id": 1})


# ---------------------------------------------------------------------------
# simulation runs


def test_one_event_per_window(small_run):
    cfg, report, events = small_run
    assert len(events) == cfg.resolved_scenario().n_windows
    assert [ev.window_id for ev in events] == list(range(len(events)))


def test_loop_builds_no_event_objects(monkeypatch):
    built = []
    original = TelemetryEvent.__post_init__
    monkeypatch.setattr(TelemetryEvent, "__post_init__",
                        lambda ev: (built.append(ev), original(ev)))
    _, events = run_simulation(SimConfig(scenario=small_scenario(seed=4),
                                         detector="baseline"))
    assert len(events) == 90
    assert built == []


def test_same_seed_identical_modulo_timing(small_run):
    cfg, report, events = small_run
    report2, events2 = run_simulation(cfg)
    assert event_cores(events) == event_cores(events2)
    assert strip_timing(report.to_dict()) == strip_timing(report2.to_dict())


def test_different_seed_differs(small_run):
    cfg, report, _ = small_run
    other, _ = run_simulation(
        SimConfig(scenario=small_scenario(), detector="baseline", seed=43))
    assert strip_timing(other.to_dict()) != strip_timing(report.to_dict())


def test_replicas_merge_identically(small_run):
    cfg, report, events = small_run
    report3, events3 = run_simulation(
        SimConfig(scenario=small_scenario(), detector="baseline", seed=42,
                  replicas=3))
    assert event_cores(events) == event_cores(events3)
    a, b = strip_timing(report.to_dict()), strip_timing(report3.to_dict())
    a["config"].pop("replicas"), b["config"].pop("replicas")
    assert a == b


def test_quiet_scenario_full_availability_zero_interceptions():
    cfg = SimConfig(
        scenario=ScenarioConfig(duration_ms=30000, benign_rate=60.0, seed=5),
        detector="accept-all")
    report, events = run_simulation(cfg)
    d = report.to_dict()
    assert d["timing"]["availability"] == 1.0
    assert d["interceptions"]["blocked"] == 0
    assert d["interceptions"]["mitigated"] == 0
    assert d["interceptions"]["none"] == len(events)
    assert d["detection"]["accuracy"] == 1.0
    assert d["damage"]["total"] == 0.0
    assert d["warning_latency"]["bursts_total"] == 0
    assert d["warning_latency"]["mean_windows"] is None
    assert all(ev.predicted == "benign" and ev.confident for ev in events)


def test_fixed_action_is_enforced_everywhere(small_run):
    _, _, events = small_run
    assert {ev.action_id for ev in events} == {0}
    report5, events5 = run_simulation(
        SimConfig(scenario=small_scenario(), detector="baseline", seed=42,
                  fixed_action=55))
    assert {ev.action_id for ev in events5} == {55}
    assert report5.damage["collateral"] > 0


def test_threat_fields_in_range(small_run):
    _, report, events = small_run
    assert all(1 <= ev.threat_level <= 5 for ev in events)
    assert all(0.0 <= ev.threat_score <= 1.0 for ev in events)
    fr = report.threat_distribution
    assert set(fr) == {"low", "medium", "high"}
    assert abs(sum(fr.values()) - 1.0) < 1e-9


def test_damage_accounting_consistent(small_run):
    _, report, events = small_run
    attack = sum(ev.attack_damage for ev in events)
    coll = sum(ev.collateral_damage for ev in events)
    assert report.damage["attack"] == pytest.approx(attack)
    assert report.damage["collateral"] == pytest.approx(coll)
    assert report.damage["total"] == pytest.approx(attack + coll)
    # idle posture: every attack window passes through at full damage
    assert all(ev.outcome == "passed" for ev in events if ev.truth != "benign")


def test_warning_latency_bounds(small_run):
    _, report, _ = small_run
    w = report.warning_latency
    assert w["bursts_total"] == 3
    assert 0 <= w["bursts_detected"] <= w["bursts_total"]
    if w["bursts_detected"]:
        assert w["mean_windows"] >= 0.0
        assert w["max_windows"] >= w["mean_windows"] or \
            w["max_windows"] == pytest.approx(w["mean_windows"])


def test_latency_percentiles_monotone(small_run):
    _, report, _ = small_run
    lat = report.timing["latency_ms"]
    assert lat["p50"] <= lat["p95"] <= lat["p99_9"]
    shares = report.timing["component_shares"]
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_detection_metrics_recount_from_log(small_run, tmp_path):
    _, report, events = small_run
    path = tmp_path / "events.jsonl"
    write_events(path, events)
    back = read_events(path)
    assert event_cores(back) == event_cores(events)
    m = metrics_from_events(back)
    assert (m.confusion == report.detection.confusion).all()
    assert m.accuracy == report.detection.accuracy
    assert m.false_positive_rate == report.detection.false_positive_rate
    assert m.unknown_rate == report.detection.unknown_rate


def test_read_events_rejects_garbage(tmp_path):
    p = tmp_path / "events.jsonl"
    p.write_text("not json\n")
    with pytest.raises(InputError):
        read_events(p)
    with pytest.raises(InputError):
        read_events(tmp_path / "absent.jsonl")
    good = PipelineEvent(
        window_id=0, truth="ddos", predicted="ddos", confident=True,
        max_probability=0.9, threat_score=0.7, threat_level=4, action_id=3,
        outcome="blocked", attack_damage=0.0, collateral_damage=0.1,
        latency=LatencyBreakdown.from_parts(1.0, 0.1, 0.01), started_at=0.0,
        finished_at=0.0).to_dict()
    p.write_text(json.dumps(good) + "\n")
    assert read_events(p)[0].to_dict() == good
    for field, value in (("truth", "meteor"), ("predicted", "meteor"),
                         ("outcome", "deflected"), ("threat_level", 9),
                         ("threat_level", 0), ("confident", "no"),
                         ("confident", 1), ("action_id", 999), ("action_id", -4),
                         ("action_id", 2.9), ("action_id", True),
                         ("window_id", 0.7), ("window_id", False),
                         ("threat_level", 4.0), ("threat_level", True),
                         ("max_probability", "0.9"), ("attack_damage", True),
                         ("threat_score", "1e0"), ("collateral_damage", 10**400)):
        p.write_text(json.dumps({**good, field: value}) + "\n")
        with pytest.raises(InputError):
            read_events(p)
    for field, value in (("started_at", "nan"), ("started_at", float("nan")),
                         ("finished_at", float("inf")), ("finished_at", False)):
        p.write_text(json.dumps({**good, "timing": {**good["timing"],
                                                    field: value}}) + "\n")
        with pytest.raises(InputError):
            read_events(p)
    # a JSON integer is a number
    p.write_text(json.dumps({**good, "attack_damage": 1}) + "\n")
    assert read_events(p)[0].attack_damage == 1.0


def test_read_events_rejects_ids_out_of_order(small_run, tmp_path):
    _, _, events = small_run
    lines = [json.dumps(ev.to_dict(), sort_keys=True) for ev in events]
    shuffled = list(lines)
    np.random.default_rng(0).shuffle(shuffled)
    duplicated = [lines[0], lines[0]] + lines[2:]
    negative = json.loads(lines[0])
    negative["window_id"] = -1
    p = tmp_path / "events.jsonl"
    for bad in (shuffled, duplicated, [json.dumps(negative)] + lines[1:]):
        p.write_text("\n".join(bad) + "\n")
        with pytest.raises(InputError, match="window_id"):
            read_events(p)


def test_warning_latency_reads_windows_by_id(small_run, tmp_path):
    # a log missing a window loads, and no later window takes its place
    config, report, events = small_run
    first = next(i for i, ev in enumerate(events)
                 if ev.confident and ev.predicted != "benign")
    p = tmp_path / "events.jsonl"
    write_events(p, events[:first] + events[first + 1:])
    gapped = build_report(config, read_events(p)).warning_latency
    assert gapped["bursts_total"] == report.warning_latency["bursts_total"]
    lags = []
    scenario = config.resolved_scenario()
    for spec in scenario.attacks:
        start = spec.start // scenario.window_ms
        last = (spec.end - 1) // scenario.window_ms
        hits = [i - start for i in range(start, last + 1) if i != first
                and events[i].confident and events[i].predicted != "benign"]
        lags += hits[:1]
    assert gapped["bursts_detected"] == len(lags)
    assert gapped["max_windows"] == max(lags)


NON_FINITE_FIELDS = ("max_probability", "threat_score", "attack_damage",
                     "collateral_damage", "detection_ms", "policy_ms",
                     "execution_ms", "total_ms")


# the float edges a hand-written formatter gets wrong: signed zero, the
# smallest subnormal, and the switches between fixed and exponent notation
EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e-7, 1e-4, 1e16, 1e22, 0.1 + 0.2)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
STAGE = st.floats(0.0, 1e300) | st.sampled_from([x for x in EDGE_FLOATS if x >= 0])
BIG_INTS = st.integers(-2**80, 2**80) | st.sampled_from([0, 2**63, -2**63 - 1, 10**30])


@st.composite
def pipeline_events(draw):
    return PipelineEvent(
        window_id=draw(BIG_INTS), truth=draw(st.sampled_from(LABELS)),
        predicted=draw(st.sampled_from(LABELS)), confident=draw(st.booleans()),
        max_probability=draw(FINITE), threat_score=draw(FINITE),
        threat_level=draw(BIG_INTS), action_id=draw(BIG_INTS),
        outcome=draw(st.sampled_from(OUTCOMES)), attack_damage=draw(FINITE),
        collateral_damage=draw(FINITE),
        latency=LatencyBreakdown.from_parts(draw(STAGE), draw(STAGE), draw(STAGE)),
        started_at=draw(FINITE), finished_at=draw(FINITE))


@settings(max_examples=300, deadline=None)
@given(st.lists(pipeline_events(), max_size=4))
@example([])
def test_event_lines_are_the_json_dumps_lines(tmp_path_factory, events):
    path = tmp_path_factory.getbasetemp() / "oracle-events.jsonl"
    write_events(str(path), events)
    # the formatter this one replaced, kept as its reference
    lines = [json.dumps(ev.to_dict(), sort_keys=True) for ev in events]
    assert path.read_bytes() == ("\n".join(lines) + ("\n" if lines else "")).encode()


def _event_with(field, value) -> PipelineEvent:
    """A valid event with ``field`` set to ``value``."""
    good = PipelineEvent(
        window_id=0, truth="ddos", predicted="ddos", confident=True,
        max_probability=0.9, threat_score=0.7, threat_level=4, action_id=3,
        outcome="blocked", attack_damage=0.0, collateral_damage=0.1,
        latency=LatencyBreakdown.from_parts(1.0, 0.1, 0.01), started_at=0.0,
        finished_at=0.0)
    if not field.endswith("_ms"):
        return dataclasses.replace(good, **{field: value})
    parts = dict(detection_ms=1.0, policy_ms=0.1, execution_ms=0.01)
    latency = LatencyBreakdown(**parts, total_ms=value) if field == "total_ms" \
        else LatencyBreakdown.from_parts(**{**parts, field: value})
    return dataclasses.replace(good, latency=latency)


@pytest.mark.parametrize("field", NON_FINITE_FIELDS + ("started_at", "finished_at"))
def test_write_events_rejects_non_finite_values_before_opening(field, tmp_path):
    path = tmp_path / "events.jsonl"
    rejected = 0
    for value in (math.nan, math.inf, -math.inf):
        try:
            bad = _event_with(field, value)
        except InputError:  # a latency the breakdown itself refuses
            continue
        with pytest.raises(InputError, match="NaN or infinite"):
            write_events(str(path), [_event_with("window_id", 0), bad])
        assert not path.exists()
        rejected += 1
    assert rejected >= 1


@pytest.mark.parametrize("field, value", [("truth", "dos"), ("predicted", 'a"b'),
                                          ("outcome", "dropped")])
def test_write_events_rejects_unknown_names_before_opening(field, value, tmp_path):
    path = tmp_path / "events.jsonl"
    with pytest.raises(InputError, match="unknown label or outcome"):
        write_events(str(path), [_event_with(field, value)])
    assert not path.exists()


@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
def test_read_events_rejects_non_finite_values(field, tmp_path):
    good = PipelineEvent(
        window_id=0, truth="ddos", predicted="ddos", confident=True,
        max_probability=0.9, threat_score=0.7, threat_level=4, action_id=3,
        outcome="blocked", attack_damage=0.0, collateral_damage=0.1,
        latency=LatencyBreakdown.from_parts(1.0, 0.1, 0.01), started_at=0.0,
        finished_at=0.0).to_dict()
    p = tmp_path / "events.jsonl"
    for value in (math.nan, math.inf, -math.inf):
        doc = copy.deepcopy(good)
        record = doc["timing"]["latency"] if field.endswith("_ms") else doc
        record[field] = value
        p.write_text(json.dumps(doc) + "\n")  # json writes bare NaN/Infinity
        with pytest.raises(InputError, match=field):
            read_events(p)


def test_policy_checkpoint_size_mismatch(tmp_path):
    tables = DoubleQTables(n_actions=5)
    path = tmp_path / "tiny.csv"
    save_qtables(path, tables)
    cfg = SimConfig(scenario=small_scenario(), detector="baseline",
                    policy=str(path))
    with pytest.raises(CheckpointError, match="n_actions"):
        run_simulation(cfg)


def test_detector_class_set_mismatch(tmp_path):
    arch = ArchConfig(feature_dim=16, seq_len=8, conv_filters=(4,),
                      kernel_size=3, pool_after=(), lstm_hidden=4,
                      fc_widths=(), num_classes=3)
    model = build_model(arch, seed=0)
    layout = build_layout(dim=16)
    stats = NormStats(mean=np.zeros(16), std=np.ones(16))
    path = tmp_path / "det.npz"
    save_detector(str(path), model, arch, stats, layout,
                  classes=("benign", "odd", "weird"))
    cfg = SimConfig(scenario=small_scenario(), detector=str(path))
    with pytest.raises(CheckpointError, match="classes"):
        run_simulation(cfg)


# ---------------------------------------------------------------------------
# fixed-action evaluation


def test_fixed_action_damage_hand_check():
    scenario = small_scenario()
    cfg = SimConfig(scenario=scenario, detector="baseline", seed=42)
    _, events = run_simulation(cfg)
    catalog = build_action_catalog()
    from cloudguard.scenario import generate_stream
    truths = window_truths(cfg.resolved_scenario(),
                           generate_stream(cfg.resolved_scenario()).windows)
    # idle action: damage equals what the simulation recorded under action 0
    total = fixed_action_damage(truths, catalog[0])
    recorded = sum(ev.attack_damage + ev.collateral_damage for ev in events)
    assert total == pytest.approx(recorded)
    # a blocking posture trades attack damage for collateral
    heavy = fixed_action_damage(truths, catalog[74])  # top tiers everywhere
    assert heavy != total


# ---------------------------------------------------------------------------
# report files


def test_emit_json_files(small_run, tmp_path):
    _, report, events = small_run
    out = tmp_path / "json_out"
    paths = emit_report(report, events, str(out), "json")
    names = {os.path.basename(p) for p in paths}
    assert names == {"events.jsonl", "metrics.json"}
    doc = json.loads((out / "metrics.json").read_text())
    assert doc == json.loads(json.dumps(report.to_dict()))


def test_emit_csv_files(small_run, tmp_path):
    _, report, events = small_run
    out = tmp_path / "csv_out"
    paths = emit_report(report, events, str(out), "csv")
    names = {os.path.basename(p) for p in paths}
    assert names == {"events.jsonl", "per_class_metrics.csv",
                     "latency_breakdown.csv", "threat_distribution.csv",
                     "convergence.csv"}
    per_class = (out / "per_class_metrics.csv").read_text().splitlines()
    assert per_class[0] == "class,precision,recall,f1,support"
    assert len(per_class) == 1 + len(LABELS)
    lat = (out / "latency_breakdown.csv").read_text().splitlines()
    assert lat[0] == "component,share"
    assert [row.split(",")[0] for row in lat[1:]] == ["detection", "policy",
                                                      "execution"]
    dist = (out / "threat_distribution.csv").read_text().splitlines()
    assert dist[0] == "band,fraction"


def test_emit_is_byte_stable(small_run, tmp_path):
    _, report, events = small_run
    a, b = tmp_path / "a", tmp_path / "b"
    emit_report(report, events, str(a), "json")
    emit_report(report, events, str(b), "json")
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
    assert (a / "events.jsonl").read_bytes() == (b / "events.jsonl").read_bytes()


def test_emit_rejects_unwritable_dir(small_run, tmp_path):
    _, report, events = small_run
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory")
    with pytest.raises(FilesystemError):
        emit_report(report, events, str(blocker / "sub"), "json")


def test_emit_rejects_unknown_format(small_run, tmp_path):
    _, report, events = small_run
    with pytest.raises(ConfigError):
        emit_report(report, events, str(tmp_path), "yaml")


def test_emit_copies_convergence_curve(small_run, tmp_path):
    cfg, _, _ = small_run
    curve = tmp_path / "convergence.csv"
    # write_convergence_csv's CRLF rows are copied with LF line ends
    curve.write_bytes(b"episode,mean_reward,moving_avg\r\n0,1.0,1.0\r\n")
    cfg2 = SimConfig(scenario=small_scenario(), detector="baseline", seed=42,
                     convergence=str(curve))
    report, events = run_simulation(cfg2)
    out = tmp_path / "out"
    emit_report(report, events, str(out), "csv")
    assert (out / "convergence.csv").read_bytes() == \
        b"episode,mean_reward,moving_avg\n0,1.0,1.0\n"


def test_emit_raises_on_a_convergence_curve_deleted_after_the_run(tmp_path):
    # SimConfig checked that the curve exists; once it is gone, emitting
    # raises before anything is written instead of a header-only copy
    curve = tmp_path / "convergence.csv"
    curve.write_text("episode,mean_reward,moving_avg\n0,1.0,1.0\n")
    cfg = SimConfig(scenario=small_scenario(), detector="baseline", seed=42,
                    convergence=str(curve))
    report, events = run_simulation(cfg)
    curve.unlink()
    out = tmp_path / "out"
    with pytest.raises(CheckpointError, match="convergence curve"):
        emit_report(report, events, str(out), "csv")
    assert not out.exists()


# ---------------------------------------------------------------------------
# comparison


def table_reports(base_acc, cand_acc, base_ms, cand_ms):
    shape = lambda acc, ms: {
        "detection": {"accuracy": acc},
        "timing": {"latency_ms": {"p95": ms}},
    }
    return shape(base_acc, base_ms), shape(cand_acc, cand_ms)


def test_compare_headline_arithmetic():
    base, cand = table_reports(0.788, 0.973, 75.0, 18.0)
    rows = {r.indicator: r for r in compare_reports(base, cand)}
    acc = rows["detection.accuracy"]
    assert acc.mode == "points" and acc.delta == 18.50
    lat = rows["timing.latency_ms.p95"]
    assert lat.mode == "percent" and lat.delta == -76.0
    assert isinstance(lat.delta, float) and lat.delta == int(lat.delta)


def test_compare_identical_reports_zero_delta(small_run):
    _, report, _ = small_run
    rows = compare_reports(report.to_dict(), report.to_dict())
    assert rows and all(r.delta in (0.0, None) for r in rows)


def test_compare_schema_mismatch():
    base, cand = table_reports(0.7, 0.9, 10.0, 5.0)
    del cand["timing"]["latency_ms"]["p95"]
    with pytest.raises(ComparisonError, match="p95"):
        compare_reports(base, cand)
    with pytest.raises(ComparisonError):
        compare_reports([], {})


def test_compare_ignores_config_echo(small_run):
    _, report, _ = small_run
    a = report.to_dict()
    b = copy.deepcopy(a)
    b["config"]["seed"] = 1234  # inputs may differ without breaking the schema
    rows = compare_reports(a, b)
    assert all(not r.indicator.startswith("config.") for r in rows)


def test_compare_handles_null_indicator():
    base = {"warning_latency": {"mean_windows": None}}
    cand = {"warning_latency": {"mean_windows": 2.0}}
    rows = compare_reports(base, cand)
    assert rows[0].delta is None


def test_compare_zero_baseline_relative_is_undefined():
    base = {"damage": {"total": 0.0}}
    cand = {"damage": {"total": 5.0}}
    rows = compare_reports(base, cand)
    assert rows[0].mode == "percent" and rows[0].delta is None


def test_compare_mode_assignment(small_run):
    _, report, _ = small_run
    rows = {r.indicator: r.mode for r in
            compare_reports(report.to_dict(), report.to_dict())}
    assert rows["detection.accuracy"] == "points"
    assert rows["detection.false_positive_rate"] == "points"
    assert rows["unknown_attack_detection_rate"] == "points"
    assert rows["timing.availability"] == "points"
    assert rows["threat_distribution.low"] == "points"
    assert rows["damage.total"] == "percent"
    assert rows["timing.latency_ms.p50"] == "percent"


def test_report_rebuild_matches(small_run):
    cfg, report, events = small_run
    again = build_report(cfg, events)
    assert strip_timing(again.to_dict()) == strip_timing(report.to_dict())


# ---------------------------------------------------------------------------
# neural detection path

# the default arch's feature width and shared convolutions: for these
# shapes OpenBLAS takes another path when a product has few rows, which a
# batch whose shape followed the run length would show in the event bytes
NEURAL_ARCH = ArchConfig(conv_filters=(64, 64, 8, 8), lstm_hidden=8,
                         fc_widths=(16,), num_classes=len(LABELS))


@pytest.fixture(scope="module")
def neural_cfg(tmp_path_factory):
    """An untrained small detector, normalized on other traffic, and a
    Q-table with distinct random values in every state, so that each
    decision depends on the verdict, the threat score and the last action."""
    tmp = tmp_path_factory.mktemp("neural")
    layout = build_layout(dim=NEURAL_ARCH.feature_dim)
    raw = [extract_features(w, layout)
           for w in generate_stream(small_scenario(seed=8)).windows]
    detector_path = tmp / "detector.npz"
    save_detector(str(detector_path), build_model(NEURAL_ARCH, seed=5), NEURAL_ARCH,
                  fit_normalizer(raw), layout)
    n_actions = len(build_action_catalog())
    tables = DoubleQTables(n_actions=n_actions)
    rng = np.random.default_rng(6)
    for state in range(N_STATES):
        tables.q_a[state] = rng.normal(size=n_actions)
    policy_path = tmp / "policy.csv"
    save_qtables(policy_path, tables)
    return SimConfig(scenario=small_scenario(), detector=str(detector_path),
                     policy=str(policy_path), threshold=0.19, seed=42)


def test_neural_prefix_of_a_run_is_bitwise_unchanged(neural_cfg):
    """Detection and the response walk on the first k windows give the full
    run's first k events, byte for byte outside ``timing``."""
    pipe = simulate._Pipeline(neural_cfg)
    scenario = neural_cfg.resolved_scenario()
    windows = generate_stream(scenario).windows

    def event_bytes(k):
        verdicts, detect_ms, normed = simulate._run_detection(
            pipe, windows[:k], neural_cfg.threshold)
        events = simulate._respond(pipe, window_truths(scenario, windows[:k]),
                                   verdicts, detect_ms, normed)
        return [json.dumps(core, sort_keys=True) for core in event_cores(events)]

    full = event_bytes(len(windows))
    assert len({json.loads(b)["action_id"] for b in full}) > 1
    assert len({json.loads(b)["confident"] for b in full}) == 2
    t, c = NEURAL_ARCH.seq_len, SERIES_CHUNK
    for k in (1, t - 1, t, c, c + 1, len(windows)):
        assert event_bytes(k) == full[:k], k


def test_neural_replicas_change_no_output(neural_cfg):
    report, events = run_simulation(neural_cfg)
    want = strip_timing(report.to_dict())
    want["config"].pop("replicas")
    for replicas in (1, 2, 4):
        other, other_events = run_simulation(
            dataclasses.replace(neural_cfg, replicas=replicas))
        assert event_cores(other_events) == event_cores(events)
        got = strip_timing(other.to_dict())
        assert got["config"].pop("replicas") == replicas
        assert got == want


def test_neural_run_starts_no_thread(neural_cfg, monkeypatch):
    started = []
    real_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        real_start(thread)

    counts = []
    real_classify = simulate.classify_series

    def counting_classify(*args, **kwargs):
        counts.append(threading.active_count())
        verdicts = real_classify(*args, **kwargs)
        counts.append(threading.active_count())
        return verdicts

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    monkeypatch.setattr(simulate, "classify_series", counting_classify)
    before = threading.active_count()
    _, events = run_simulation(dataclasses.replace(neural_cfg, replicas=4))
    assert len(events) == 90
    assert started == []
    assert counts == [before, before]
    assert threading.active_count() == before
    source = inspect.getsource(simulate)
    assert "concurrent.futures" not in source
    assert "ThreadPoolExecutor" not in source


@pytest.mark.parametrize("neural", [False, True], ids=["rules", "neural"])
def test_run_builds_one_verdict_per_classify_call(neural, neural_cfg, monkeypatch):
    built, calls = [], []
    original = ThreatVerdict.__init__

    def counting_init(verdict, *args, **kwargs):
        built.append(verdict)
        original(verdict, *args, **kwargs)

    def counted(real):
        return lambda *args, **kwargs: (calls.append(real), real(*args, **kwargs))[1]

    monkeypatch.setattr(ThreatVerdict, "__init__", counting_init)
    monkeypatch.setattr(RuleBasedDetector, "classify_batch",
                        counted(RuleBasedDetector.classify_batch))
    monkeypatch.setattr(simulate, "classify_series", counted(simulate.classify_series))
    cfg = neural_cfg if neural else SimConfig(scenario=small_scenario(seed=4),
                                              detector="baseline")
    _, events = run_simulation(cfg)
    assert len(events) == 90
    assert len(calls) == len(built) == 1

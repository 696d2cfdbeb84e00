"""Signature-rule baseline detector."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudguard.baseline import (Rule, RuleBasedDetector, default_rules,
                                 load_rules, parse_rules)
from cloudguard.errors import InputError
from cloudguard.features import build_layout, extract_features
from cloudguard.scenario import AttackSpec, ScenarioConfig, generate_stream
from cloudguard.telemetry import ATTACK_KINDS, LABELS


@pytest.fixture(scope="module")
def layout():
    return build_layout()


def test_rule_validation():
    Rule(label="ddos", feature="traffic.flow_count", op=">=", threshold=1.0)
    with pytest.raises(InputError):
        Rule(label="meteor", feature="traffic.flow_count", op=">=", threshold=1)
    with pytest.raises(InputError):
        Rule(label="ddos", feature="traffic.flow_count", op="~=", threshold=1)


def test_rule_operators():
    r = Rule(label="ddos", feature="f", op=">=", threshold=5.0)
    assert r.matches(5.0) and r.matches(6.0) and not r.matches(4.9)
    r = Rule(label="ddos", feature="f", op="<", threshold=5.0)
    assert r.matches(4.9) and not r.matches(5.0)


def test_parse_rules_rejects_malformed():
    with pytest.raises(InputError):
        parse_rules([])  # not an object
    with pytest.raises(InputError):
        parse_rules({"rules": [{"label": "ddos"}]})  # missing keys


def test_load_rules_rejects_bad_file(tmp_path):
    p = tmp_path / "rules.json"
    p.write_text("{nope")
    with pytest.raises(InputError, match="not valid JSON"):
        load_rules(p)
    with pytest.raises(InputError, match="cannot read"):
        load_rules(tmp_path / "absent.json")


def test_default_rules_cover_every_attack_kind():
    rules = default_rules()
    assert {r.label for r in rules} == set(ATTACK_KINDS)
    assert all(r.op == ">=" for r in rules)


def test_first_matching_rule_wins(layout):
    rules = (
        Rule(label="ddos", feature="traffic.flow_count", op=">=", threshold=10),
        Rule(label="port_scan", feature="traffic.distinct_ports", op=">=",
             threshold=3),
    )
    det = RuleBasedDetector(rules, layout)
    fv = np.zeros(layout.dim)
    fv[layout.index_of("traffic.flow_count")] = 50
    fv[layout.index_of("traffic.distinct_ports")] = 50
    v = det.classify(fv)
    assert LABELS[v.predicted] == "ddos"  # both fire; the first decides


def test_no_match_is_benign(layout):
    det = RuleBasedDetector(default_rules(), layout)
    v = det.classify(np.zeros(layout.dim))
    assert v.predicted == 0
    assert v.confident and v.max_probability == 1.0
    assert v.probabilities.sum() == 1.0 and v.probabilities[0] == 1.0


def test_verdict_is_one_hot(layout):
    det = RuleBasedDetector(default_rules(), layout)
    fv = np.zeros(layout.dim)
    fv[layout.index_of("behavior.action_login_failure_count")] = 99
    v = det.classify(fv)
    assert LABELS[v.predicted] == "brute_force"
    assert v.probabilities[v.predicted] == 1.0
    assert v.probabilities.sum() == 1.0


def test_wrong_shape_rejected(layout):
    det = RuleBasedDetector(default_rules(), layout)
    with pytest.raises(InputError):
        det.classify(np.zeros(7))


def test_default_rules_score_well_on_generated_traffic(layout):
    attacks = tuple(
        AttackSpec(kind=kind, intensity=0.9, start=20000 + i * 40000,
                   end=40000 + i * 40000)
        for i, kind in enumerate(ATTACK_KINDS)
    )
    cfg = ScenarioConfig(duration_ms=240000, benign_rate=60.0, seed=11,
                         attacks=attacks)
    stream = generate_stream(cfg)
    det = RuleBasedDetector(default_rules(), layout)
    hits = sum(
        LABELS[det.classify(extract_features(w, layout)).predicted] == w.label
        for w in stream.windows
    )
    assert hits / len(stream.windows) >= 0.95


# ---------------------------------------------------------------------------
# batch classification


def assert_batch_matches_rows(det, raw):
    batch = det.classify_batch(raw)
    assert batch.probabilities.shape == (len(raw), len(LABELS))
    assert batch.predicted.shape == batch.max_probability.shape == \
        batch.confident.shape == (len(raw),)
    for i, row in enumerate(raw):
        want = det.classify(row)
        assert batch.predicted[i] == want.predicted
        assert batch.confident[i] and batch.max_probability[i] == 1.0
        np.testing.assert_array_equal(batch.probabilities[i], want.probabilities)


def test_batch_matches_rows_on_generated_traffic(layout):
    attacks = tuple(
        AttackSpec(kind=kind, intensity=0.6, start=10000 + i * 20000,
                   end=20000 + i * 20000)
        for i, kind in enumerate(ATTACK_KINDS)
    )
    stream = generate_stream(ScenarioConfig(duration_ms=120000, benign_rate=30.0,
                                            seed=12, attacks=attacks))
    raw = np.array([extract_features(w, layout) for w in stream.windows])
    det = RuleBasedDetector(default_rules(), layout)
    assert_batch_matches_rows(det, raw)
    assert set(det.classify_batch(raw).predicted.tolist()) != {0}


def test_batch_rejects_wrong_shape(layout):
    det = RuleBasedDetector(default_rules(), layout)
    with pytest.raises(InputError):
        det.classify_batch(np.zeros(layout.dim))
    with pytest.raises(InputError):
        det.classify_batch(np.zeros((3, 7)))
    assert det.classify_batch(np.zeros((0, layout.dim))).probabilities.shape == (0, 6)


# every operator, and two rules on one feature, so order and ties matter
_EDGE_RULES = (
    Rule(label="ddos", feature="traffic.flow_count", op=">", threshold=40.0),
    Rule(label="port_scan", feature="traffic.flow_count", op=">=", threshold=20.0),
    Rule(label="brute_force", feature="behavior.action_login_failure_count",
         op="<", threshold=-1.0),
    Rule(label="sql_injection", feature="traffic.payload_marker_count", op="<=",
         threshold=0.5),
)


@st.composite
def values_on_thresholds(draw, rules, n_rows):
    """Per row and rule feature: the threshold, a neighbouring float, or a
    value far away on either side."""
    rows = []
    for _ in range(n_rows):
        row = {}
        for rule in rules:
            t = rule.threshold
            row[rule.feature] = draw(st.sampled_from(
                (t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf),
                 t + 1e3, t - 1e3, float("nan"))))
        rows.append(row)
    return rows


@pytest.mark.parametrize("rules", [_EDGE_RULES, default_rules(), ()],
                         ids=["edge-rules", "default-rules", "no-rules"])
def test_batch_matches_rows_on_threshold_values(layout, rules):
    det = RuleBasedDetector(rules, layout)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: values_on_thresholds(rules, n)))
    def check(rows):
        raw = np.zeros((len(rows), layout.dim))
        for i, row in enumerate(rows):
            for name, value in row.items():
                raw[i, layout.index_of(name)] = value
        assert_batch_matches_rows(det, raw)

    check()

"""The array response model against the per-window reference model.

Damage, collateral, rewards and outcome codes must match the reference bit
for bit, since the arithmetic per element is unchanged; so must Q-tables
trained through either form.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudguard.enforcement import (BASE_DAMAGE, OUTCOMES, default_matrix,
                                    resolve_attack)
from cloudguard.environment import (DefenseEnv, EnvConfig, defense_train_config,
                                    enforce_window, reward_for)
from cloudguard.policy import build_action_catalog, train_policy
from cloudguard.simulate import fixed_action_damage
from cloudguard.telemetry import LABELS

from . import response_oracle as oracle

CATALOG = build_action_catalog()
ACTION_COST = np.array([a.cost for a in CATALOG])
ORACLE_MATRIX = oracle.default_matrix()
ORACLE_COLLATERAL = oracle.CollateralModel()

unit = st.floats(0.0, 1.0, allow_nan=False)
kinds = st.integers(0, len(LABELS) - 1)
actions = st.integers(0, len(CATALOG) - 1)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_default_matrix_matches_the_keyed_table():
    m = default_matrix()
    for (kind, f, r, i), e in ORACLE_MATRIX.table.items():
        assert same_bits(m[LABELS.index(kind), f, r, i], e)


@settings(max_examples=400, deadline=None)
@given(kind=kinds, action=actions, intensity=unit, load=unit)
def test_enforce_window_matches_the_reference(kind, action, intensity, load):
    code, attack, collateral = enforce_window(action, kind, intensity, load)
    want = oracle.enforce_window(CATALOG[action], LABELS[kind], intensity, load,
                                 ORACLE_MATRIX, ORACLE_COLLATERAL)
    assert OUTCOMES[code] == want.verdict
    assert same_bits(attack, want.attack_damage)
    assert same_bits(collateral, want.collateral_damage)
    cfg = EnvConfig()
    assert same_bits(reward_for(code, attack, collateral, action,
                                cfg.cost_weight, cfg.block_bonus),
                     oracle.reward_for(want, CATALOG[action]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(kinds, actions, unit, unit), min_size=1, max_size=30))
def test_array_rewards_are_the_one_window_rewards(windows):
    kind, action, intensity, load = (np.array(c) for c in zip(*windows))
    cfg = EnvConfig()
    code, attack, collateral = enforce_window(action, kind, intensity, load)
    rewards = reward_for(code, attack, collateral, action, cfg.cost_weight,
                         cfg.block_bonus)
    assert rewards.shape == (len(windows),)
    for j in range(len(windows)):
        one = reward_for(code[j], attack[j], collateral[j], action[j],
                         cfg.cost_weight, cfg.block_bonus)
        assert same_bits(rewards[j], one)


def test_idling_on_a_quiet_window_scores_negative_zero_in_both_forms():
    code, attack, collateral = enforce_window(np.array([0]), np.array([0]),
                                              np.array([0.0]), np.array([0.5]))
    many = reward_for(code, attack, collateral, np.array([0]), 0.1, 2.5)
    one = reward_for(code[0], attack[0], collateral[0], 0, 0.1, 2.5)
    assert same_bits(many[0], -0.0) and same_bits(one, -0.0)


def same_array_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# any float, signed zeros and values outside [0, 1] included
anyfloat = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0, 1.0)))
# the shapes a scalar, a run and an episode grid broadcast from
shapes = st.sampled_from(((), (5,), (4, 1), (1, 5), (4, 5)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind_shape=shapes, intensity_shape=shapes, coverage_shape=shapes)
def test_in_place_resolve_is_the_one_expression(data, kind_shape, intensity_shape,
                                                coverage_shape):
    # resolve_attack fills its outputs in place; the one broadcast
    # expression it replaced is the reference, bit for bit
    def draw(shape, elements):
        return np.array(data.draw(st.lists(elements, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape))))).reshape(shape)
    kind = draw(kind_shape, kinds)
    intensity = draw(intensity_shape, anyfloat)
    coverage = draw(coverage_shape, anyfloat)
    code, damage = resolve_attack(kind, intensity, coverage)
    want_damage = (1.0 - coverage) * intensity * BASE_DAMAGE[kind]
    want_code = (intensity > 0) * (kind != 0) * (1 + (coverage > 0) + (coverage >= 1))
    assert np.asarray(code).dtype == np.int8
    assert np.shape(code) == np.shape(want_code)
    assert np.array_equal(code, want_code)
    assert same_array_bits(damage, want_damage)


@settings(max_examples=200, deadline=None)
@given(windows=st.lists(st.tuples(st.integers(0, len(OUTCOMES) - 1), anyfloat, anyfloat,
                                  actions), min_size=1, max_size=20),
       cost_weight=st.floats(0.0, 2.0), block_bonus=st.floats(0.0, 5.0))
def test_in_place_reward_is_the_one_expression(windows, cost_weight, block_bonus):
    # (-lambda * cost) - damage in place equals -(damage) - lambda * cost,
    # signs of zero included, on any inputs
    code, attack, collateral, action = (np.array(c) for c in zip(*windows))
    want = np.asarray(-(attack + collateral) - cost_weight * ACTION_COST[action])
    np.add(want, block_bonus, out=want, where=code == OUTCOMES.index("blocked"))
    got = reward_for(code, attack, collateral, action, cost_weight, block_bonus)
    assert same_array_bits(got, want)
    one = reward_for(code[0], attack[0], collateral[0], action[0], cost_weight, block_bonus)
    assert same_bits(one, want[0])


@settings(max_examples=60, deadline=None)
@given(action=actions,
       truths=st.lists(st.tuples(st.sampled_from(LABELS), unit, unit), max_size=80))
def test_fixed_action_damage_is_the_running_total(action, truths):
    assert same_bits(fixed_action_damage(truths, CATALOG[action]),
                     oracle.fixed_action_damage(truths, CATALOG[action]))


def test_training_gives_the_reference_tables():
    cfg = dataclasses.replace(defense_train_config(seed=3), episodes=200)
    tables, curve = train_policy(DefenseEnv(EnvConfig(seed=3)), cfg)
    want, want_curve = oracle.train_policy(oracle.OracleDefenseEnv(EnvConfig(seed=3)),
                                           cfg)
    assert curve == want_curve
    assert tables.states() == want.states()
    assert len(want.states()) > 50
    for s in want.states():
        np.testing.assert_array_equal(tables.q_a[s], want.row_a(s))
        np.testing.assert_array_equal(tables.q_b[s], want.row_b(s))
        np.testing.assert_array_equal(tables.visits[s], want.visits[s])
    untouched = np.setdiff1d(np.arange(len(tables.q_a)), want.states())
    assert not tables.q_a[untouched].any() and not tables.visits[untouched].any()


"""Defense training environment: sampling, rewards, damage accounting."""

import numpy as np
import pytest

from cloudguard.enforcement import BASE_DAMAGE, EffectivenessMatrix
from cloudguard.environment import (
    CollateralModel,
    DefenseEnv,
    EnvConfig,
    WindowOutcome,
    defense_train_config,
    enforce_window,
    reward_for,
)
from cloudguard.errors import ConfigError, EnvironmentFault, InputError
from cloudguard.policy import N_STATES, build_action_catalog, decode_state
from cloudguard.telemetry import ATTACK_KINDS

CATALOG = build_action_catalog()
ALL_COMBOS = [(f, r, i) for f in range(5) for r in range(5) for i in range(3)]


def flat_matrix(kind, e):
    return EffectivenessMatrix({(kind, f, r, i): e for f, r, i in ALL_COMBOS})


def core_action(fw, rl, iso):
    for a in CATALOG:
        if a.mode == "standard" and (a.firewall_tier, a.rate_limit_tier,
                                     a.isolation_tier) == (fw, rl, iso):
            return a
    raise AssertionError


def run_episode(env, action=0):
    """Play one episode with a constant action; returns (states, rewards)."""
    states = [env.reset()]
    rewards = []
    terminal = False
    while not terminal:
        s, r, terminal = env.step(action)
        states.append(s)
        rewards.append(r)
    return states, rewards


class TestCollateralModel:
    def test_friction_lookup_and_scaling(self):
        m = CollateralModel()
        assert m.collateral(0, 0, 0, 0.9) == 0.0
        assert m.collateral(4, 0, 0, 1.0) == pytest.approx(0.18 * 4.0)
        assert m.collateral(0, 4, 0, 1.0) == pytest.approx(0.28 * 4.0)
        assert m.collateral(0, 0, 2, 1.0) == pytest.approx(0.30 * 4.0)
        assert m.collateral(4, 4, 2, 0.5) == pytest.approx(0.5 * 0.76 * 4.0)

    def test_linear_in_load(self):
        m = CollateralModel()
        lo = m.collateral(2, 3, 1, 0.25)
        hi = m.collateral(2, 3, 1, 0.75)
        assert hi == pytest.approx(3.0 * lo)

    def test_monotone_in_tiers(self):
        m = CollateralModel()
        values = [m.collateral(f, r, i, 1.0) for f, r, i in ALL_COMBOS]
        by_combo = dict(zip(ALL_COMBOS, values))
        for (f, r, i), v in by_combo.items():
            if f + 1 < 5:
                assert by_combo[(f + 1, r, i)] >= v

    def test_validation(self):
        with pytest.raises(InputError):
            CollateralModel().collateral(0, 0, 0, 1.5)
        with pytest.raises(ConfigError):
            CollateralModel(firewall_friction=(0.0, 0.1))
        with pytest.raises(ConfigError):
            CollateralModel(isolation_friction=(0.1, 0.2, 0.3))  # must start at 0
        with pytest.raises(ConfigError):
            CollateralModel(rate_limit_friction=(0.0, 0.3, 0.2, 0.4, 0.5))


class TestEnforceWindow:
    def test_benign_window_has_only_collateral(self):
        out = enforce_window(core_action(3, 2, 1), "benign", 0.0, 0.5,
                             flat_matrix("benign", 0.0), CollateralModel())
        assert out.attack_damage == 0.0
        assert out.verdict == "none"
        assert not out.blocked
        expected = 0.5 * (0.10 + 0.08 + 0.12) * 4.0
        assert out.collateral_damage == pytest.approx(expected)
        assert out.total_damage == pytest.approx(expected)

    def test_blocked_attack(self):
        out = enforce_window(core_action(0, 0, 0), "ddos", 0.8, 0.0,
                             flat_matrix("ddos", 1.0), CollateralModel())
        assert out.blocked
        assert out.verdict == "blocked"
        assert out.total_damage == 0.0

    def test_passed_attack_takes_full_damage(self):
        out = enforce_window(core_action(0, 0, 0), "ddos", 0.8, 0.0,
                             flat_matrix("ddos", 0.0), CollateralModel())
        assert out.verdict == "passed"
        assert out.attack_damage == pytest.approx(0.8 * BASE_DAMAGE["ddos"])

    def test_mitigation_and_collateral_combine(self):
        out = enforce_window(core_action(0, 4, 0), "ddos", 1.0, 1.0,
                             flat_matrix("ddos", 0.75), CollateralModel())
        assert out.attack_damage == pytest.approx(0.25 * BASE_DAMAGE["ddos"])
        assert out.collateral_damage == pytest.approx(0.28 * 4.0)
        assert out.total_damage == pytest.approx(2.5 + 1.12)


class TestReward:
    def test_blocked_reward_includes_bonus(self):
        a = core_action(0, 4, 0)
        out = WindowOutcome(attack_damage=0.0, collateral_damage=1.2,
                            blocked=True, verdict="blocked")
        r = reward_for(out, a, cost_weight=0.1, block_bonus=2.5)
        assert r == pytest.approx(2.5 - 1.2 - 0.1 * a.cost)

    def test_unblocked_reward_is_pure_penalty(self):
        a = core_action(1, 0, 0)
        out = WindowOutcome(attack_damage=4.0, collateral_damage=0.3,
                            blocked=False, verdict="mitigated")
        assert reward_for(out, a) == pytest.approx(-4.3 - 0.1 * a.cost)

    def test_idle_on_quiet_window_is_free(self):
        a = core_action(0, 0, 0)
        out = WindowOutcome(0.0, 0.0, False, "none")
        assert reward_for(out, a) == 0.0

    def test_best_block_beats_idle_on_attacks(self):
        # the bonus must make some blocking action profitable even at the
        # worst load, or greedy play would never leave the zero posture
        matrix = flat_matrix("ddos", 1.0)
        coll = CollateralModel()
        a = core_action(3, 4, 0)
        out = enforce_window(a, "ddos", 1.0, 1.0, matrix, coll)
        assert reward_for(out, a) > 0.0


class TestEnvProtocol:
    def test_reset_and_step_types(self):
        env = DefenseEnv(EnvConfig(episode_len=5, seed=1))
        assert env.n_actions == 187
        state = env.reset()
        assert isinstance(state, int)
        assert 0 <= state < N_STATES
        nxt, reward, terminal = env.step(0)
        assert isinstance(nxt, int)
        assert isinstance(reward, float)
        assert terminal is False

    def test_terminates_exactly_at_episode_len(self):
        env = DefenseEnv(EnvConfig(episode_len=7, seed=2))
        states, rewards = run_episode(env)
        assert len(rewards) == 7

    def test_step_before_reset_faults(self):
        env = DefenseEnv(EnvConfig(seed=0))
        with pytest.raises(EnvironmentFault):
            env.step(0)

    def test_step_after_terminal_faults(self):
        env = DefenseEnv(EnvConfig(episode_len=2, seed=0))
        run_episode(env)
        with pytest.raises(EnvironmentFault):
            env.step(0)

    def test_deterministic_for_fixed_seed(self):
        a = DefenseEnv(EnvConfig(episode_len=20, seed=9))
        b = DefenseEnv(EnvConfig(episode_len=20, seed=9))
        sa, ra = run_episode(a, action=17)
        sb, rb = run_episode(b, action=17)
        assert sa == sb
        assert ra == rb
        c = DefenseEnv(EnvConfig(episode_len=20, seed=10))
        sc, rc = run_episode(c, action=17)
        assert rc != ra

    def test_episode_substreams_are_independent_of_play(self):
        # what happens in episode 2 cannot depend on how episode 1 was played
        a = DefenseEnv(EnvConfig(episode_len=15, seed=4))
        b = DefenseEnv(EnvConfig(episode_len=15, seed=4))
        run_episode(a, action=0)
        run_episode(b, action=186)
        sa, ra = run_episode(a, action=3)
        sb, rb = run_episode(b, action=3)
        assert sa == sb
        assert ra == rb


class TestEnvDistribution:
    def test_kind_mix_matches_config(self):
        env = DefenseEnv(EnvConfig(episode_len=80, benign_share=0.4, seed=11))
        kinds = []
        env.reset()
        for _ in range(4000):
            kinds.append(env._context.kind)
            env._context = env._sample_context(0.0)
        benign_frac = kinds.count("benign") / len(kinds)
        assert 0.35 < benign_frac < 0.45
        for kind in ATTACK_KINDS:
            assert kinds.count(kind) > 0

    def test_intensity_and_load_ranges(self):
        env = DefenseEnv(EnvConfig(episode_len=80, seed=12,
                                   intensity_range=(0.3, 1.0)))
        env.reset()
        for _ in range(600):
            ctx = env._context
            if ctx.kind == "benign":
                assert ctx.intensity == 0.0
            else:
                assert 0.3 <= ctx.intensity <= 1.0
            assert 0.0 <= ctx.load <= 1.0
            assert 0.0 <= ctx.threat <= 1.0
            assert ctx.probs.shape == (6,)
            assert abs(ctx.probs.sum() - 1.0) < 1e-9
            env._context = env._sample_context(0.0)

    def test_recent_action_axis_tracks_the_last_action(self):
        env = DefenseEnv(EnvConfig(episode_len=10, seed=13))
        env.reset()
        heavy = next(a for a in CATALOG
                     if (a.firewall_tier, a.rate_limit_tier, a.isolation_tier)
                     == (4, 4, 2) and a.mode == "standard")
        nxt, _, _ = env.step(heavy.action_id)
        assert decode_state(nxt)[3] == 2  # full tiers -> top bucket
        nxt, _, _ = env.step(0)
        assert decode_state(nxt)[3] == 0

    def test_state_keys_vary(self):
        env = DefenseEnv(EnvConfig(episode_len=80, seed=14))
        states, _ = run_episode(env)
        assert len(set(states)) > 10

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EnvConfig(episode_len=0)
        with pytest.raises(ConfigError):
            EnvConfig(benign_share=1.2)
        with pytest.raises(ConfigError):
            EnvConfig(intensity_range=(0.0, 1.0))
        with pytest.raises(ConfigError):
            EnvConfig(intensity_range=(0.8, 0.4))
        with pytest.raises(ConfigError):
            EnvConfig(block_bonus=-1.0)
        with pytest.raises(ConfigError):
            EnvConfig(misperception=2.0)


def test_defense_train_config_is_valid_and_seedable():
    cfg = defense_train_config(seed=5)
    assert cfg.seed == 5
    assert cfg.episodes > 0
    assert cfg.epsilon_start == 1.0
    assert cfg.epsilon_end == 0.05

"""Defense training environment: sampling, rewards, damage accounting."""

import dataclasses
import hashlib

import numpy as np
import pytest

from cloudguard.enforcement import (
    ACTION_FRICTION,
    BASE_DAMAGE,
    BLOCKED,
    FIREWALL_FRICTION,
    ISOLATION_FRICTION,
    OUTCOMES,
    RATE_LIMIT_FRICTION,
)
from cloudguard.environment import (
    DefenseEnv,
    EnvConfig,
    defense_train_config,
    draw_episode,
    enforce_window,
    reward_for,
)
from cloudguard.errors import ConfigError, EnvironmentFault, InputError
from cloudguard.policy import N_STATES, build_action_catalog, decode_state
from cloudguard.simulate import fixed_action_damage
from cloudguard.telemetry import ATTACK_KINDS, LABELS

CATALOG = build_action_catalog()
ALL_COMBOS = [(f, r, i) for f in range(5) for r in range(5) for i in range(3)]


DDOS = LABELS.index("ddos")


def collateral(action, load):
    return enforce_window(action.action_id, 0, 0.0, load)[2]


def core_action(fw, rl, iso):
    for a in CATALOG:
        if a.mode == "standard" and (a.firewall_tier, a.rate_limit_tier,
                                     a.isolation_tier) == (fw, rl, iso):
            return a
    raise AssertionError


def drawn(cfg, n, field):
    """The first ``n`` windows' ``field`` over consecutive episodes."""
    episodes = range(-(-n // cfg.episode_len))
    return np.concatenate([getattr(draw_episode(cfg, e), field)
                           for e in episodes])[:n]


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
    """Collateral damage: load x the action's summed friction x 4."""

    def test_friction_lookup_and_scaling(self):
        assert collateral(core_action(0, 0, 0), 0.9) == 0.0
        assert collateral(core_action(4, 0, 0), 1.0) == pytest.approx(0.18 * 4.0)
        assert collateral(core_action(0, 4, 0), 1.0) == pytest.approx(0.28 * 4.0)
        assert collateral(core_action(0, 0, 2), 1.0) == pytest.approx(0.30 * 4.0)
        assert collateral(core_action(4, 4, 2), 0.5) == pytest.approx(0.5 * 0.76 * 4.0)

    def test_linear_in_load(self):
        a = core_action(2, 3, 1)
        assert collateral(a, 0.75) == pytest.approx(3.0 * collateral(a, 0.25))

    def test_monotone_in_tiers(self):
        by_combo = {combo: collateral(core_action(*combo), 1.0)
                    for combo in ALL_COMBOS}
        for (f, r, i), v in by_combo.items():
            if f + 1 < 5:
                assert by_combo[(f + 1, r, i)] >= v
        # burst and sustained presets disrupt exactly like their tiers
        for a in CATALOG:
            assert ACTION_FRICTION[a.action_id] == ACTION_FRICTION[
                core_action(a.firewall_tier, a.rate_limit_tier,
                            a.isolation_tier).action_id]

    def test_validation(self):
        for values, count in ((FIREWALL_FRICTION, 5), (RATE_LIMIT_FRICTION, 5),
                              (ISOLATION_FRICTION, 3)):
            assert len(values) == count
            assert values[0] == 0.0 and list(values) == sorted(values)
        with pytest.raises(InputError):
            fixed_action_damage([("benign", 0.0, 1.5)], CATALOG[0])
        with pytest.raises(InputError):
            fixed_action_damage([("ddos", 0.5, float("nan"))], CATALOG[0])


class TestEnforceWindow:
    def test_benign_window_has_only_collateral(self):
        code, attack, coll = enforce_window(core_action(3, 2, 1).action_id, 0,
                                            0.0, 0.5)
        assert attack == 0.0
        assert OUTCOMES[code] == "none"
        assert coll == pytest.approx(0.5 * (0.10 + 0.08 + 0.12) * 4.0)

    def test_blocked_attack(self):
        # ddos coverage at (3, 4, 0) is 0.1875 + 0.85, capped at 1
        code, attack, coll = enforce_window(core_action(3, 4, 0).action_id,
                                            DDOS, 0.8, 0.0)
        assert code == BLOCKED
        assert OUTCOMES[code] == "blocked"
        assert attack + coll == 0.0

    def test_passed_attack_takes_full_damage(self):
        code, attack, _ = enforce_window(0, DDOS, 0.8, 0.0)
        assert OUTCOMES[code] == "passed"
        assert attack == 0.8 * BASE_DAMAGE[DDOS]

    def test_mitigation_and_collateral_combine(self):
        # rate limit 4 covers 0.85 of a flood
        code, attack, coll = enforce_window(core_action(0, 4, 0).action_id,
                                            DDOS, 1.0, 1.0)
        assert OUTCOMES[code] == "mitigated"
        assert attack == pytest.approx(0.15 * BASE_DAMAGE[DDOS])
        assert coll == pytest.approx(0.28 * 4.0)

    def test_arrays_broadcast_like_scalar_calls(self):
        rng = np.random.default_rng(3)
        actions = rng.integers(len(CATALOG), size=200)
        kinds = rng.integers(len(LABELS), size=200)
        intensity = rng.uniform(0.0, 1.0, size=200)
        load = rng.uniform(0.0, 1.0, size=200)
        codes, attack, coll = enforce_window(actions, kinds, intensity, load)
        for j in range(200):
            one = enforce_window(int(actions[j]), int(kinds[j]),
                                 float(intensity[j]), float(load[j]))
            assert one == (codes[j], attack[j], coll[j])


WEIGHTS = (EnvConfig().cost_weight, EnvConfig().block_bonus)


class TestReward:
    def test_blocked_reward_includes_bonus(self):
        a = core_action(0, 4, 0)
        r = reward_for(BLOCKED, 0.0, 1.2, a.action_id, cost_weight=0.1, block_bonus=2.5)
        assert r == pytest.approx(2.5 - 1.2 - 0.1 * a.cost)

    def test_unblocked_reward_is_pure_penalty(self):
        a = core_action(1, 0, 0)
        mitigated = OUTCOMES.index("mitigated")
        assert reward_for(mitigated, 4.0, 0.3, a.action_id, *WEIGHTS) == \
            pytest.approx(-4.3 - 0.1 * a.cost)

    def test_idle_on_quiet_window_is_free(self):
        assert reward_for(OUTCOMES.index("none"), 0.0, 0.0,
                          core_action(0, 0, 0).action_id, *WEIGHTS) == 0.0

    def test_best_block_beats_idle_on_attacks(self):
        # the bonus must make some blocking action profitable even at the
        # worst load, or greedy play would never leave the zero posture
        a = core_action(3, 4, 0)
        outcome = enforce_window(a.action_id, DDOS, 1.0, 1.0)
        assert reward_for(*outcome, a.action_id, *WEIGHTS) > 0.0


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


def test_episode_bytes_are_pinned():
    # a change that moves the environment stream is a deliberate bump:
    # update this digest with it and record the bump in CHANGES.md
    env = DefenseEnv(EnvConfig(seed=5))
    states, rewards = [env.reset()], []
    for t in range(env.cfg.episode_len):
        state, reward, _ = env.step(17 * t % env.n_actions)
        states.append(state)
        rewards.append(reward)
    h = hashlib.sha256(repr(states).encode())
    h.update(np.array(rewards).tobytes())
    assert h.hexdigest() == \
        "da43f5036ee75e659c716eb0eba61efd739bb7a145d355099130d9e377a3f53b"


def _hash_arrays(h, arrays) -> None:
    """Fold arrays into ``h`` by shape and value: integers as int64, floats
    as their float64 bytes, so a -0.0 differs from a 0.0."""
    for a in arrays:
        a = np.asarray(a)
        assert a.dtype.kind in "iuf", a.dtype
        assert a.dtype.kind != "f" or a.dtype == np.float64, a.dtype
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=np.float64 if a.dtype.kind == "f"
                                      else np.int64).tobytes())


@pytest.mark.parametrize("seed", [0, 5, 2**63])
def test_whole_episode_bytes_are_pinned(seed):
    # every Episode field, the full [80, 187] rewards included, and the
    # (code, attack, collateral) grid they are scored from; a change that
    # moves any of them is a deliberate environment-stream bump
    pinned = {
        0: "3185042cda5a56771b81a4d552769646c975d6cdc8bdff060042da77855d1d40",
        5: "a77c691794e7c0a64b956896823d6ff61f13b1005e3f768f46b71683876d9402",
        2**63: "063cb58f93e2cf353fde6363a8da62f7c56ca5f8770718995aa55b86a0232b7b",
    }
    cfg = EnvConfig(seed=seed)
    h = hashlib.sha256()
    for e in (0, 1, 1499):
        ep = draw_episode(cfg, e)
        _hash_arrays(h, (getattr(ep, f.name) for f in dataclasses.fields(ep)))
        _hash_arrays(h, enforce_window(np.arange(len(CATALOG)), ep.kind[:, None],
                                       ep.intensity[:, None], ep.load[:, None]))
    assert h.hexdigest() == pinned[seed]


class TestEnvDistribution:
    def test_kind_mix_matches_config(self):
        cfg = EnvConfig(episode_len=80, benign_share=0.4, seed=11)
        kinds = [LABELS[k] for k in drawn(cfg, 4000, "kind")]
        assert len(kinds) == 4000
        benign_frac = kinds.count("benign") / len(kinds)
        assert 0.35 < benign_frac < 0.45
        for kind in ATTACK_KINDS:
            assert kinds.count(kind) > 0

    def test_intensity_and_load_ranges(self):
        cfg = EnvConfig(episode_len=80, seed=12, intensity_range=(0.3, 1.0))
        kind, intensity, load, threat, probs = (
            drawn(cfg, 600, name)
            for name in ("kind", "intensity", "load", "threat", "probs"))
        assert len(kind) == 600
        for j in range(600):
            if kind[j] == 0:
                assert intensity[j] == 0.0
            else:
                assert 0.3 <= intensity[j] <= 1.0
            assert 0.0 <= load[j] <= 1.0
            assert 0.0 <= threat[j] <= 1.0
            assert probs[j].shape == (6,)
            assert abs(probs[j].sum() - 1.0) < 1e-9

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

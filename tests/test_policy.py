"""State encoding, action catalog, and double Q-learning."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudguard.errors import (
    CatalogError,
    CheckpointError,
    ConfigError,
    DimensionError,
    EnvironmentFault,
    InputError,
)
from cloudguard.perception import BAND_EDGES, level_for_score
from cloudguard.policy import (
    LOAD_EDGES,
    N_STATES,
    RECENT_EDGES,
    STATE_RADICES,
    Action,
    ConvergenceCurve,
    DoubleQTables,
    PolicyTrainConfig,
    Transition,
    build_action_catalog,
    compose_indicators,
    decode_state,
    double_q_update,
    encode_state,
    epsilon_at,
    get_action,
    greedy_policy,
    load_qtables,
    read_convergence_csv,
    save_qtables,
    select_action,
    train_policy,
    write_convergence_csv,
)


class CoinRng:
    """Stub generator feeding double_q_update a scripted coin sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def kind_slots(hot):
    v = np.zeros(6)
    v[hot] = 1.0
    return v


def state_key(threat=0.0, load=0.0, kind=0, recent=0.0):
    return encode_state(compose_indicators(threat, load, kind_slots(kind), recent))


class ChainEnv:
    """Five-state corridor: advance toward the goal state, which is terminal.

    Advancing succeeds with probability 0.85 and otherwise stays put;
    retreating is deterministic. Every step costs 1; entering the goal
    pays 11, for a net of +10 on the final step.
    """

    n_states = 5
    n_actions = 2
    goal = 4
    advance_p = 0.85

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.state = 0

    def reset(self):
        self.state = 0
        return 0

    def step(self, action):
        s = self.state
        if action == 1:
            nxt = s + 1 if self.rng.random() < self.advance_p else s
        else:
            nxt = max(s - 1, 0)
        reward = -1.0 + (11.0 if nxt == self.goal else 0.0)
        self.state = nxt
        return nxt, reward, nxt == self.goal


def chain_value_iteration(gamma=0.9, sweeps=500):
    """Exact Q* for ChainEnv by dynamic programming on its known dynamics."""
    q = np.zeros((5, 2))
    for _ in range(sweeps):
        new = q.copy()
        for s in range(4):
            back = max(s - 1, 0)
            new[s, 0] = -1.0 + gamma * q[back].max()
            ahead = s + 1
            if ahead == 4:
                hit = 10.0
            else:
                hit = -1.0 + gamma * q[ahead].max()
            miss = -1.0 + gamma * q[s].max()
            new[s, 1] = 0.85 * hit + 0.15 * miss
        q = new
    return q


class TestSchema:
    def test_default_schema_shape(self):
        assert STATE_RADICES == (5, 4, 6, 3)
        assert N_STATES == 360

    def test_compose_places_values_in_their_regions(self):
        assert compose_indicators(0.7, 0.3, kind_slots(2), 0.9) == (3, 1, 2, 2)

    def test_compose_validation(self):
        with pytest.raises(DimensionError):
            compose_indicators(0.5, 0.5, np.zeros(5), 0.0)
        with pytest.raises(InputError):
            compose_indicators(np.nan, 0.5, kind_slots(0), 0.0)
        with pytest.raises(InputError):
            compose_indicators(0.5, 0.5, kind_slots(0), np.inf)
        probs = kind_slots(0)
        probs[3] = np.nan
        with pytest.raises(InputError):
            compose_indicators(0.5, 0.5, probs, 0.0)


class TestEncodeState:
    def test_worked_mixed_radix_example(self):
        # buckets (1, 2, 3, 0) under radices (5, 4, 6, 3):
        # 1 + 5*(2 + 4*(3 + 6*0)) = 71
        assert state_key(threat=0.3, load=0.6, kind=3, recent=0.1) == 71

    def test_all_zero_indicators_give_key_zero(self):
        assert state_key() == 0

    def test_encode_decode_bijection(self):
        seen = set()
        threat_mid = (0.1, 0.3, 0.5, 0.7, 0.9)
        load_mid = (0.1, 0.4, 0.6, 0.9)
        recent_mid = (0.1, 0.5, 0.9)
        for ti, tv in enumerate(threat_mid):
            for li, lv in enumerate(load_mid):
                for kind in range(6):
                    for ri, rv in enumerate(recent_mid):
                        key = state_key(tv, lv, kind, rv)
                        assert decode_state(key) == (ti, li, kind, ri)
                        seen.add(key)
        assert seen == set(range(360))

    def test_out_of_range_values_clamp(self):
        assert decode_state(state_key(threat=99.0))[0] == 4
        assert decode_state(state_key(threat=-5.0))[0] == 0
        assert compose_indicators(7.0, 7.0, kind_slots(5), 7.0) == (4, 3, 5, 2)
        assert compose_indicators(-1.0, -1.0, kind_slots(0), -1.0) == (0, 0, 0, 0)

    def test_edge_values_take_the_upper_bucket(self):
        for i, edge in enumerate((0.25, 0.5, 0.75)):
            assert compose_indicators(0.0, edge, kind_slots(0), 0.0)[1] == i + 1
            below = np.nextafter(edge, 0.0)
            assert compose_indicators(0.0, below, kind_slots(0), 0.0)[1] == i
        for i, edge in enumerate((1 / 3, 2 / 3)):
            assert compose_indicators(0.0, 0.0, kind_slots(0), edge)[3] == i + 1
            below = np.nextafter(edge, 0.0)
            assert compose_indicators(0.0, 0.0, kind_slots(0), below)[3] == i

    def test_threat_bucket_is_the_threat_level(self):
        # a score exactly on a band edge takes that level's bucket; averaging
        # copies of the score (np.full(58, 0.4).mean() < 0.4) would not
        for i, edge in enumerate(BAND_EDGES):
            bucket = compose_indicators(edge, 0.0, kind_slots(0), 0.0)[0]
            assert bucket == level_for_score(edge).level - 1 == i + 1
            below = np.nextafter(edge, 0.0)
            assert compose_indicators(below, 0.0, kind_slots(0), 0.0)[0] == i

    def test_argmax_axis_takes_first_max(self):
        probs = np.array([1.0, 3.0, 3.0, 0.0, 3.0, 0.0])
        assert compose_indicators(0.0, 0.0, probs, 0.0)[2] == 1

    def test_encode_validation(self):
        with pytest.raises(DimensionError):
            encode_state((0, 0, 0))
        with pytest.raises(InputError):
            encode_state((5, 0, 0, 0))
        with pytest.raises(InputError):
            encode_state((0, 0, 0, -1))
        with pytest.raises(InputError):
            decode_state(360)
        with pytest.raises(InputError):
            decode_state(-1)


_EDGES = BAND_EDGES + LOAD_EDGES + RECENT_EDGES
# edges, the value just below each, values that clamp, and values between
_signal = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(_EDGES),
                    st.sampled_from([float(np.nextafter(e, 0.0)) for e in _EDGES]),
                    st.sampled_from((-1e9, 7.0, 1e9)))
# few distinct values, so rows tie for the largest probability
_prob = st.one_of(st.floats(-1.0, 2.0), st.sampled_from((0.0, 0.5, 1.0)))
_window = st.tuples(_signal, _signal, st.lists(_prob, min_size=6, max_size=6), _signal)


def as_arrays(windows):
    """(threat, load, probs, recent) arrays of a list of windows."""
    return tuple(np.array(column, dtype=np.float64) for column in zip(*windows))


class TestArrayStateKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_window, min_size=1, max_size=20))
    def test_each_element_is_the_one_window_result(self, windows):
        buckets = compose_indicators(*as_arrays(windows))
        keys = encode_state(buckets)
        assert all(b.shape == (len(windows),) for b in buckets)
        for j, (threat, load, probs, recent) in enumerate(windows):
            one = compose_indicators(threat, load, np.array(probs), recent)
            assert tuple(int(b[j]) for b in buckets) == one
            assert int(keys[j]) == encode_state(one)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_window, min_size=1, max_size=20), st.data())
    def test_any_non_finite_element_is_rejected(self, windows, data):
        arrays = list(as_arrays(windows))
        column = data.draw(st.integers(0, 3))
        at = data.draw(st.tuples(*(st.integers(0, n - 1) for n in arrays[column].shape)))
        arrays[column][at] = data.draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        with pytest.raises(InputError):
            compose_indicators(*arrays)

    def test_shapes_must_agree(self):
        probs = np.tile(kind_slots(0), (3, 1))
        with pytest.raises(DimensionError):
            compose_indicators(np.zeros(3), np.zeros(2), probs, np.zeros(3))
        with pytest.raises(DimensionError):
            compose_indicators(0.5, 0.5, probs, 0.0)
        with pytest.raises(DimensionError):
            compose_indicators(np.zeros(3), np.zeros(3), probs[:, :5], np.zeros(3))

    def test_encode_rejects_any_bucket_outside_its_radix(self):
        with pytest.raises(InputError):
            encode_state((np.array([0, 4]), np.zeros(2, int), np.zeros(2, int),
                          np.array([0, 3])))
        with pytest.raises(InputError):
            encode_state((np.array([-1, 0]), 0, 0, 0))


class TestActionCatalog:
    def test_exactly_187_actions(self):
        catalog = build_action_catalog()
        assert len(catalog) == 187
        by_mode = {}
        for a in catalog:
            by_mode.setdefault(a.mode, []).append(a)
        assert len(by_mode["standard"]) == 75
        assert len(by_mode["burst"]) == 56
        assert len(by_mode["sustained"]) == 56

    def test_ids_dense_and_positional(self):
        catalog = build_action_catalog()
        assert [a.action_id for a in catalog] == list(range(187))

    def test_core_combinations_cover_all_tiers(self):
        core = [a for a in build_action_catalog() if a.mode == "standard"]
        combos = {(a.firewall_tier, a.rate_limit_tier, a.isolation_tier)
                  for a in core}
        assert combos == {(f, r, i)
                          for f in range(5) for r in range(5) for i in range(3)}

    def test_presets_only_reuse_heavy_combos(self):
        catalog = build_action_catalog()
        for a in catalog:
            if a.mode != "standard":
                assert a.firewall_tier + a.rate_limit_tier + a.isolation_tier >= 4

    def test_cost_formula(self):
        catalog = build_action_catalog()
        core = {(a.firewall_tier, a.rate_limit_tier, a.isolation_tier): a
                for a in catalog if a.mode == "standard"}
        for (f, r, i), a in core.items():
            assert a.cost == pytest.approx(0.08 * f + 0.10 * r + 0.22 * i)
        assert core[(4, 4, 2)].cost == pytest.approx(1.16)
        assert core[(0, 0, 0)].cost == 0.0
        for a in catalog:
            base = core[(a.firewall_tier, a.rate_limit_tier, a.isolation_tier)].cost
            if a.mode == "burst":
                assert a.cost == pytest.approx(0.8 * base)
            elif a.mode == "sustained":
                assert a.cost == pytest.approx(1.3 * base)

    def test_get_action_bounds(self):
        catalog = build_action_catalog()
        assert get_action(catalog, 0) is catalog[0]
        assert get_action(catalog, 186) is catalog[186]
        with pytest.raises(CatalogError):
            get_action(catalog, 187)
        with pytest.raises(CatalogError):
            get_action(catalog, -1)

    def test_tier_norm_range(self):
        catalog = build_action_catalog()
        norms = [a.tier_norm() for a in catalog]
        assert min(norms) == 0.0
        assert max(norms) == 1.0
        assert all(0.0 <= n <= 1.0 for n in norms)


class TestDoubleQTables:
    def test_missing_states_read_zero_without_materializing(self):
        t = DoubleQTables(4)
        assert t.q_a.shape == t.q_b.shape == t.visits.shape == (N_STATES, 4)
        assert t.visits.dtype == np.int64
        assert (t.q_a[17] == 0).all()
        assert (t.q_b[17] == 0).all()
        assert t.visits[17, 2] == 0
        assert t.states() == []  # reading a state touched nothing

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            DoubleQTables(-1)


class TestSelectAction:
    def test_greedy_takes_combined_argmax_lowest_index_tie(self):
        t = DoubleQTables(4)
        t.q_a[3] = np.array([0.0, 2.0, 1.0, 0.0])
        t.q_b[3] = np.array([0.0, 1.0, 2.0, 3.0])
        assert select_action(t, 3, 0.0) == 1  # ties at 3.0 between 1, 2, 3
        assert select_action(t, 99, 0.0) == 0  # unseen state: all zero

    def test_greedy_consumes_no_randomness(self):
        t = DoubleQTables(4)
        assert select_action(t, 0, 0.0, rng=None) == 0

    def test_exploration_requires_generator(self):
        t = DoubleQTables(4)
        with pytest.raises(ConfigError):
            select_action(t, 0, 0.5, rng=None)

    def test_golden_exploration_draws(self):
        # frozen from numpy's Generator(PCG64(123)) stream
        t = DoubleQTables(187)
        rng = np.random.default_rng(123)
        draws = [select_action(t, 0, 1.0, rng) for _ in range(3)]
        assert draws == [110, 10, 62]

    def test_pre_drawn_pair_explores_below_epsilon(self):
        t = DoubleQTables(4)
        t.q_a[0] = np.array([0.0, 0.0, 3.0, 0.0])
        assert select_action(t, 0, 0.5, (0.49, 1)) == 1
        assert select_action(t, 0, 0.5, (0.5, 1)) == 2  # greedy
        assert select_action(t, 0, 0.0, (0.0, 1)) == 2  # epsilon 0 reads nothing
        with pytest.raises(CatalogError):
            select_action(t, 0, 0.5, (0.1, 4))

    def test_full_exploration_covers_the_catalog(self):
        t = DoubleQTables(187)
        rng = np.random.default_rng(0)
        seen = {select_action(t, 0, 1.0, rng) for _ in range(5000)}
        assert all(0 <= a < 187 for a in seen)
        assert len(seen) > 150

    def test_empty_catalog_rejected(self):
        with pytest.raises(ConfigError):
            select_action(DoubleQTables(0), 0, 0.0)

    def test_bad_epsilon_rejected(self):
        t = DoubleQTables(2)
        with pytest.raises(ConfigError):
            select_action(t, 0, 1.5, np.random.default_rng(0))

    def test_state_outside_the_key_space_rejected(self):
        # a negative key would otherwise read a row from the end
        t = DoubleQTables(2)
        for state in (-1, N_STATES):
            with pytest.raises(InputError):
                select_action(t, state, 0.0)

    @pytest.mark.parametrize("epsilon", (0.0, 1.0))
    def test_state_is_checked_before_the_exploration_coin(self, epsilon):
        # an exploring step is checked as a greedy one is, and a rejected
        # key draws nothing from the generator
        t = DoubleQTables(187)
        rng = np.random.default_rng(5)
        for state in (-5, -1, N_STATES):
            with pytest.raises(InputError):
                select_action(t, state, epsilon, rng)
        assert rng.random() == np.random.default_rng(5).random()


class TestDoubleQUpdate:
    def test_hand_worked_first_update(self):
        # fresh tables, alpha 0.5, gamma 0.9, reward 1: target is 1 because
        # every next-state entry is 0, so the entry moves to 0 + 0.5*1 = 0.5
        for coin in (0.0, 0.9):
            t = DoubleQTables(3)
            tr = Transition(state=5, action=1, reward=1.0,
                            next_state=6, terminal=False)
            new = double_q_update(t, tr, alpha=0.5, gamma=0.9, rng=CoinRng([coin]))
            assert new == pytest.approx(0.5)
            assert t.q_a[5, 1] + t.q_b[5, 1] == pytest.approx(0.5)
            assert t.states() == [5]

    def test_pre_drawn_coin_updates_the_table_a_drawn_one_does(self):
        tr = Transition(state=5, action=1, reward=1.0, next_state=6, terminal=False)
        for coin in (0.0, 0.49, 0.5, 0.9):
            given, drawn = DoubleQTables(3), DoubleQTables(3)
            double_q_update(given, tr, 0.5, 0.9, coin)
            double_q_update(drawn, tr, 0.5, 0.9, CoinRng([coin]))
            for name in ("q_a", "q_b", "visits"):
                np.testing.assert_array_equal(getattr(given, name), getattr(drawn, name))
            assert (given.q_a[5, 1] != 0.0) == (coin < 0.5)

    def test_bootstrap_crosses_tables(self):
        t = DoubleQTables(2)
        t.q_a[7] = np.array([5.0, 0.0])  # chosen argmax at next state: action 0
        t.q_b[7] = np.array([3.0, 7.0])  # other table values that action at 3
        tr = Transition(state=1, action=0, reward=1.0, next_state=7, terminal=False)
        double_q_update(t, tr, alpha=1.0, gamma=0.5, rng=CoinRng([0.0]))
        assert t.q_a[1][0] == pytest.approx(1.0 + 0.5 * 3.0)

        t2 = DoubleQTables(2)
        t2.q_a[7] = np.array([3.0, 7.0])
        t2.q_b[7] = np.array([5.0, 0.0])  # updating B: argmax 0, bootstrap q_a 3
        double_q_update(t2, tr, alpha=1.0, gamma=0.5, rng=CoinRng([0.9]))
        assert t2.q_b[1][0] == pytest.approx(1.0 + 0.5 * 3.0)

    def test_terminal_drops_the_bootstrap(self):
        t = DoubleQTables(2)
        t.q_a[7] = np.array([100.0, 100.0])
        t.q_b[7] = np.array([100.0, 100.0])
        tr = Transition(state=0, action=1, reward=2.0, next_state=7, terminal=True)
        double_q_update(t, tr, alpha=1.0, gamma=0.9, rng=CoinRng([0.0]))
        assert t.q_a[0][1] == pytest.approx(2.0)

    def test_terminal_full_step_lands_exactly_on_the_reward(self):
        t = DoubleQTables(2)
        tr = Transition(state=0, action=0, reward=1.0, next_state=1, terminal=True)
        new = double_q_update(t, tr, alpha=1.0, gamma=0.9, rng=CoinRng([0.0]))
        assert new == 1.0

    def test_zero_reward_on_zero_tables_changes_no_value(self):
        t = DoubleQTables(3)
        tr = Transition(state=2, action=1, reward=0.0, next_state=3, terminal=False)
        double_q_update(t, tr, alpha=0.7, gamma=0.9, rng=CoinRng([0.0]))
        assert (t.q_a[2] + t.q_b[2] == 0.0).all()
        assert t.visits[2, 1] == 1
        assert t.states() == [2]  # a visit alone touches the state

    def test_exactly_one_entry_changes(self):
        rng = np.random.default_rng(4)
        t = DoubleQTables(5)
        for _ in range(30):
            before = (t.q_a.copy(), t.q_b.copy())
            tr = Transition(int(rng.integers(10)), int(rng.integers(5)),
                            float(rng.normal()), int(rng.integers(10)),
                            bool(rng.random() < 0.2))
            double_q_update(t, tr, alpha=0.3, gamma=0.8, rng=rng)
            changed = sum(int((b != a).sum())
                          for b, a in zip(before, (t.q_a, t.q_b)))
            assert changed == 1

    def test_parameter_validation(self):
        t = DoubleQTables(2)
        tr = Transition(0, 0, 0.0, 1, False)
        rng = np.random.default_rng(0)
        for alpha, gamma in ((0.0, 0.9), (1.5, 0.9), (0.5, 1.0), (0.5, -0.1)):
            with pytest.raises(ConfigError):
                double_q_update(t, tr, alpha=alpha, gamma=gamma, rng=rng)
        with pytest.raises(CatalogError):
            double_q_update(t, Transition(0, 2, 0.0, 1, False),
                            alpha=0.5, gamma=0.9, rng=rng)
        for state, next_state in ((-1, 0), (N_STATES, 0), (0, -1), (0, N_STATES)):
            with pytest.raises(InputError):
                double_q_update(t, Transition(state, 0, 0.0, next_state, False),
                                alpha=0.5, gamma=0.9, rng=rng)


class TestEpsilonSchedule:
    def test_linear_decay_over_first_eighty_percent(self):
        cfg = PolicyTrainConfig(episodes=100)
        assert epsilon_at(cfg, 0) == pytest.approx(1.0)
        assert epsilon_at(cfg, 40) == pytest.approx(0.525)
        assert epsilon_at(cfg, 80) == pytest.approx(0.05)
        assert epsilon_at(cfg, 99) == pytest.approx(0.05)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PolicyTrainConfig(episodes=-1)
        with pytest.raises(ConfigError):
            PolicyTrainConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            PolicyTrainConfig(gamma=1.0)
        with pytest.raises(ConfigError):
            PolicyTrainConfig(epsilon_start=0.2, epsilon_end=0.4)
        with pytest.raises(ConfigError):
            PolicyTrainConfig(moving_avg_window=0)
        with pytest.raises(ConfigError):
            PolicyTrainConfig(steps_per_episode=0)


class TestTraining:
    CHAIN_CFG = PolicyTrainConfig(
        episodes=400, steps_per_episode=30, alpha=0.2, gamma=0.9,
        epsilon_start=1.0, epsilon_end=0.05, seed=0, moving_avg_window=20)

    def test_learns_the_chain_against_value_iteration(self):
        q_star = chain_value_iteration(gamma=0.9)
        optimal = {s: int(np.argmax(q_star[s])) for s in range(4)}
        assert optimal == {0: 1, 1: 1, 2: 1, 3: 1}  # sanity: advance everywhere
        matches = 0
        for seed in range(20):
            cfg = PolicyTrainConfig(
                episodes=400, steps_per_episode=30, alpha=0.2, gamma=0.9,
                seed=seed, moving_avg_window=20)
            tables, _ = train_policy(ChainEnv(seed + 1000), cfg)
            learned = greedy_policy(tables, states=range(4))
            matches += int(learned == optimal)
        assert matches >= 18

    def test_chain_training_bytes_are_pinned(self, tmp_path):
        # acceptance criterion 4's first call, which pins the agent's
        # exploration and coin draws; a change that moves them is a
        # deliberate bump
        cfg = PolicyTrainConfig(episodes=400, steps_per_episode=30, alpha=0.2,
                                gamma=0.9, seed=0, moving_avg_window=20)
        tables, curve = train_policy(ChainEnv(1000), cfg)
        save_qtables(tmp_path / "policy.csv", tables)
        write_convergence_csv(tmp_path / "convergence.csv", curve)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("policy.csv", "convergence.csv")}
        assert digests == {
            "policy.csv":
                "c49e1d879ef4d42d8e2b1c216742ad4db72e01d7a9e6b0ec2674e2a1e5c57681",
            "convergence.csv":
                "3727e795afc88afb2813f97d7651ddc348f3f972d990c78dbb4a9b6c3598dc03",
        }

    def test_agent_draws_are_independent_of_earlier_play(self):
        # episode 1's exploring actions cannot depend on where episode 0 ended
        class RecordingEnv:
            """One state; episode 0 ends after ``first_len`` steps, later
            episodes run to the step limit. Records each episode's actions."""

            n_actions = 50

            def __init__(self, first_len: int):
                self.first_len = first_len
                self.actions = []

            def reset(self):
                self.actions.append([])
                return 0

            def step(self, action):
                self.actions[-1].append(action)
                return 0, 0.0, len(self.actions) == 1 \
                    and len(self.actions[0]) == self.first_len

        cfg = PolicyTrainConfig(episodes=2, steps_per_episode=12, epsilon_start=1.0,
                                epsilon_end=1.0)
        short, full = RecordingEnv(first_len=3), RecordingEnv(first_len=12)
        train_policy(short, cfg)
        train_policy(full, cfg)
        assert [len(a) for a in short.actions] == [3, 12]
        assert short.actions[0] == full.actions[0][:3]
        assert short.actions[1] == full.actions[1]

    def test_reward_curve_rises(self):
        tables, curve = train_policy(ChainEnv(7), self.CHAIN_CFG)
        n = len(curve.moving_avg)
        first = np.mean(curve.moving_avg[: n // 10])
        last = np.mean(curve.moving_avg[-n // 10:])
        assert last > first

    def test_two_state_deterministic_mdp_matches_value_iteration(self):
        # stay pays 1 in the good state and nothing in the bad one; switching
        # costs 0.1; optimal: switch out of bad (0), stay in good (1)
        class TwoState:
            n_actions = 2

            def __init__(self, seed):
                self.state = 0

            def reset(self):
                self.state = 0
                return 0

            def step(self, action):
                if action == 1:  # switch
                    self.state = 1 - self.state
                    return self.state, -0.1, False
                reward = 1.0 if self.state == 1 else 0.0
                return self.state, reward, False

        gamma = 0.8
        q = np.zeros((2, 2))
        for _ in range(400):
            new = q.copy()
            for s in range(2):
                new[s, 0] = (1.0 if s == 1 else 0.0) + gamma * q[s].max()
                new[s, 1] = -0.1 + gamma * q[1 - s].max()
            q = new
        oracle = {s: int(np.argmax(q[s])) for s in range(2)}
        assert oracle == {0: 1, 1: 0}

        cfg = PolicyTrainConfig(episodes=200, steps_per_episode=25,
                                alpha=0.2, gamma=gamma, seed=5)
        tables, _ = train_policy(TwoState(0), cfg)
        assert greedy_policy(tables, states=range(2)) == oracle

    def test_training_is_deterministic(self):
        t1, c1 = train_policy(ChainEnv(3), self.CHAIN_CFG)
        t2, c2 = train_policy(ChainEnv(3), self.CHAIN_CFG)
        assert c1 == c2
        assert t1.states() == t2.states()
        for name in ("q_a", "q_b", "visits"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))

    def test_zero_episodes_give_empty_curve_and_zero_tables(self):
        cfg = PolicyTrainConfig(episodes=0)
        tables, curve = train_policy(ChainEnv(0), cfg)
        assert curve.episode_rewards == ()
        assert curve.moving_avg == ()
        assert tables.states() == []

    def test_environment_fault_carries_episode_and_step(self):
        class FaultyEnv:
            n_actions = 2

            def __init__(self):
                self.calls = 0

            def reset(self):
                return 0

            def step(self, action):
                self.calls += 1
                if self.calls == 7:
                    raise EnvironmentFault("probe timed out")
                return 0, 0.0, False

        cfg = PolicyTrainConfig(episodes=5, steps_per_episode=3)
        with pytest.raises(EnvironmentFault, match=r"episode 2 step 0: probe"):
            train_policy(FaultyEnv(), cfg)

    def test_curve_lengths_match_episodes(self):
        cfg = PolicyTrainConfig(episodes=25, steps_per_episode=5)
        _, curve = train_policy(ChainEnv(1), cfg)
        assert len(curve.episode_rewards) == 25
        assert len(curve.moving_avg) == 25

    def test_moving_average_formula(self):
        curve = ConvergenceCurve.from_rewards([1.0, 2.0, 3.0, 4.0], window=2)
        assert curve.moving_avg == (1.0, 1.5, 2.5, 3.5)


class TestGreedyPolicy:
    def test_scale_invariance(self):
        tables, _ = train_policy(ChainEnv(5), TestTraining.CHAIN_CFG)
        base = greedy_policy(tables)
        tables.q_a *= 3.0
        tables.q_b *= 3.0
        assert greedy_policy(tables) == base

    def test_unseen_state_maps_to_action_zero(self):
        t = DoubleQTables(10)
        assert greedy_policy(t, states=[42]) == {42: 0}


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        tables, _ = train_policy(ChainEnv(11), TestTraining.CHAIN_CFG)
        path = tmp_path / "policy.qt"
        save_qtables(path, tables)
        loaded = load_qtables(path)
        assert loaded.n_actions == tables.n_actions
        assert loaded.states() == tables.states()
        for name in ("q_a", "q_b", "visits"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(tables, name))

    def test_dump_is_canonical(self, tmp_path):
        tables, _ = train_policy(ChainEnv(2), TestTraining.CHAIN_CFG)
        p1, p2 = tmp_path / "a.qt", tmp_path / "b.qt"
        save_qtables(p1, tables)
        save_qtables(p2, load_qtables(p1))
        assert p1.read_text() == p2.read_text()
        body = p1.read_text().splitlines()[3:]
        keys = [tuple(map(int, ln.split(",")[:2])) for ln in body]
        assert keys == sorted(keys)

    def test_all_zero_rows_are_omitted(self, tmp_path):
        t = DoubleQTables(3)
        t.q_a[5] = np.zeros(3)
        t.q_a[6] = np.array([0.0, 1.5, 0.0])
        path = tmp_path / "z.qt"
        save_qtables(path, t)
        loaded = load_qtables(path)
        assert loaded.states() == [6]
        assert (loaded.q_a[5] == 0).all()

    def test_malformed_files_rejected(self, tmp_path):
        missing = tmp_path / "nope.qt"
        with pytest.raises(CheckpointError):
            load_qtables(missing)
        bad_magic = tmp_path / "m.qt"
        bad_magic.write_text("hello\nn_actions=2\nstate,action,q_a,q_b,visits\n")
        with pytest.raises(CheckpointError):
            load_qtables(bad_magic)
        bad_row = tmp_path / "r.qt"
        bad_row.write_text("# double-q checkpoint v1\nn_actions=2\n"
                           "state,action,q_a,q_b,visits\n0,1,x,0.0,1\n")
        with pytest.raises(CheckpointError):
            load_qtables(bad_row)
        out_of_range = tmp_path / "o.qt"
        out_of_range.write_text("# double-q checkpoint v1\nn_actions=2\n"
                                "state,action,q_a,q_b,visits\n0,5,0.5,0.0,1\n")
        with pytest.raises(CheckpointError):
            load_qtables(out_of_range)
        for header, row in (("n_actions=2", "-5,1,0.5,0.0,1"),
                            ("n_actions=2", f"{N_STATES},1,0.5,0.0,1"),
                            ("n_actions=2", "99999,1,0.5,0.0,1"),
                            ("n_actions=2", "0,1,0.5,0.0,-3"),
                            ("n_actions=2", f"0,1,0.5,0.0,{2**63}"),
                            ("n_actions=-1", "")):
            bad = tmp_path / "b.qt"
            bad.write_text(f"# double-q checkpoint v1\n{header}\n"
                           f"state,action,q_a,q_b,visits\n{row}\n")
            with pytest.raises(CheckpointError):
                load_qtables(bad)

    def test_non_finite_q_values_rejected(self, tmp_path):
        # a NaN or infinite Q value would steer argmax: a "3,4,nan,inf,2"
        # row made select_action(t, 3, 0.0) return action 4
        for row in ("3,4,nan,inf,2", "3,4,0.5,-inf,2", "3,1,nan,0.5,1", "3,1,1e400,0,1"):
            path = tmp_path / "nf.qt"
            path.write_text("# double-q checkpoint v1\nn_actions=5\n"
                            f"state,action,q_a,q_b,visits\n3,0,0.25,0.25,1\n{row}\n")
            with pytest.raises(CheckpointError, match="non-finite"):
                load_qtables(path)

    def test_repeated_state_action_rejected(self, tmp_path):
        path = tmp_path / "dup.qt"
        path.write_text("# double-q checkpoint v1\nn_actions=3\n"
                        "state,action,q_a,q_b,visits\n"
                        "0,1,0.5,0.5,1\n2,0,1.0,1.0,1\n0,1,-7.0,-7.0,4\n")
        with pytest.raises(CheckpointError, match="repeated"):
            load_qtables(path)
        # the same action in another state, or another action, is no repeat
        path.write_text("# double-q checkpoint v1\nn_actions=3\n"
                        "state,action,q_a,q_b,visits\n0,1,0.5,0.5,1\n1,1,1.0,1.0,1\n"
                        "0,2,2.0,2.0,1\n")
        tables = load_qtables(path)
        assert tables.states() == [0, 1]
        assert tables.q_a[0, 2] == 2.0

    def test_convergence_csv_round_trip(self, tmp_path):
        _, curve = train_policy(
            ChainEnv(4), PolicyTrainConfig(episodes=30, steps_per_episode=10))
        path = tmp_path / "curve.csv"
        write_convergence_csv(path, curve)
        loaded = read_convergence_csv(path)
        assert loaded.episode_rewards == curve.episode_rewards
        assert loaded.moving_avg == curve.moving_avg
        header = path.read_text().splitlines()[0]
        assert header == "episode,mean_reward,moving_avg"

    def test_convergence_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CheckpointError):
            read_convergence_csv(path)

    def test_convergence_csv_malformed_rows_rejected(self, tmp_path):
        header = "episode,mean_reward,moving_avg\n"
        for body in ("0,1.5\n", "0,1.5,x\n", "0,1.5,2.0,9\n", "one,1.5,2.0\n"):
            path = tmp_path / "bad.csv"
            path.write_text(header + body)
            with pytest.raises(CheckpointError):
                read_convergence_csv(path)
        with pytest.raises(CheckpointError):
            read_convergence_csv(tmp_path / "missing.csv")

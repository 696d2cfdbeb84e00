"""Reference response model: per-window objects and dictionary-backed tables.

The enforcement and policy modules compute damage with one array expression
and keep the double Q-tables as dense arrays. This module keeps the scalar
form they replaced, one window and one table row at a time: an effectiveness
table keyed by (kind, firewall, rate-limit, isolation) with per-entry
validation, result objects for attacks and windows, a collateral model, and
Q-tables whose rows appear on first write, plus a defense environment that
builds each step's window from scalars. Tests require the array form to
match it bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from numpy.random import Generator, Philox

from cloudguard.environment import EnvConfig
from cloudguard.errors import ConfigError, EnvironmentFault, InputError
from cloudguard.perception import DEFAULT_SEVERITY
from cloudguard.policy import (FIREWALL_TIERS, ISOLATION_TIERS, RATE_LIMIT_TIERS,
                               Action, ConvergenceCurve, PolicyTrainConfig,
                               Transition, build_action_catalog, compose_indicators,
                               encode_state, epsilon_at, get_action)
from cloudguard.telemetry import ATTACK_KINDS, LABELS

BASE_DAMAGE = {
    "benign": 0.0,
    "ddos": 10.0,
    "sql_injection": 8.0,
    "port_scan": 3.0,
    "brute_force": 5.0,
    "data_exfiltration": 12.0,
}

# typical service-load band per window kind
LOAD_RANGES = {
    "benign": (0.30, 0.70),
    "ddos": (0.80, 1.00),
    "sql_injection": (0.55, 1.00),
    "port_scan": (0.45, 1.00),
    "brute_force": (0.55, 1.00),
    "data_exfiltration": (0.30, 0.80),
}

TIER_WEIGHTS = {
    "benign": (0.0, 0.0, 0.0),
    "ddos": (0.25, 0.85, 0.30),
    "sql_injection": (0.85, 0.25, 0.30),
    "port_scan": (0.90, 0.30, 0.20),
    "brute_force": (0.80, 0.40, 0.25),
    "data_exfiltration": (0.30, 0.20, 0.95),
}

COMBOS = [(f, r, i)
          for f in range(FIREWALL_TIERS)
          for r in range(RATE_LIMIT_TIERS)
          for i in range(ISOLATION_TIERS)]


class EffectivenessMatrix:
    """(kind, firewall, rate-limit, isolation) -> coverage, checked entry by
    entry: complete per kind, within [0, 1], and never lower when any single
    tier rises."""

    def __init__(self, table: dict):
        self.kinds = tuple(sorted({k for k, _, _, _ in table}))
        self.table = dict(table)
        if not self.kinds:
            raise InputError("effectiveness matrix is empty")
        expected = {(k, f, r, i) for k in self.kinds for f, r, i in COMBOS}
        if set(self.table) != expected:
            raise InputError("effectiveness matrix must cover every tier "
                             "combination per kind")
        for key, e in self.table.items():
            if not 0.0 <= e <= 1.0:
                raise InputError(f"effectiveness {e} for {key} outside [0, 1]")
        limits = (FIREWALL_TIERS, RATE_LIMIT_TIERS, ISOLATION_TIERS)
        for k, f, r, i in self.table:
            for df, dr, di in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                nf, nr, ni = f + df, r + dr, i + di
                if nf < limits[0] and nr < limits[1] and ni < limits[2]:
                    if self.table[(k, nf, nr, ni)] < self.table[(k, f, r, i)]:
                        raise InputError(f"effectiveness for {k} decreases")

    def effectiveness(self, kind: str, fw: int, rl: int, iso: int) -> float:
        return self.table[(kind, fw, rl, iso)]


def default_matrix() -> EffectivenessMatrix:
    table = {}
    for kind in LABELS:
        wf, wr, wi = TIER_WEIGHTS[kind]
        for f, r, i in COMBOS:
            raw = (wf * f / (FIREWALL_TIERS - 1)
                   + wr * r / (RATE_LIMIT_TIERS - 1)
                   + wi * i / (ISOLATION_TIERS - 1))
            table[(kind, f, r, i)] = min(1.0, raw)
    return EffectivenessMatrix(table)


@dataclass(frozen=True)
class AttackOutcome:
    verdict: str  # "blocked", "mitigated", or "passed"
    effectiveness: float
    damage: float


def resolve_attack(kind: str, intensity: float, tiers: tuple[int, int, int],
                   matrix: EffectivenessMatrix) -> AttackOutcome:
    e = matrix.effectiveness(kind, *tiers)
    base = BASE_DAMAGE[kind]
    if e >= 1.0:
        return AttackOutcome(verdict="blocked", effectiveness=e, damage=0.0)
    if e <= 0.0:
        return AttackOutcome(verdict="passed", effectiveness=e,
                             damage=intensity * base)
    return AttackOutcome(verdict="mitigated", effectiveness=e,
                         damage=(1.0 - e) * intensity * base)


@dataclass(frozen=True)
class CollateralModel:
    firewall_friction: tuple = (0.0, 0.02, 0.05, 0.10, 0.18)
    rate_limit_friction: tuple = (0.0, 0.03, 0.08, 0.16, 0.28)
    isolation_friction: tuple = (0.0, 0.12, 0.30)
    benign_damage_unit: float = 4.0

    def collateral(self, fw: int, rl: int, iso: int, load: float) -> float:
        if not 0.0 <= load <= 1.0:
            raise InputError(f"load must be in [0, 1], got {load}")
        friction = (self.firewall_friction[fw] + self.rate_limit_friction[rl]
                    + self.isolation_friction[iso])
        return load * friction * self.benign_damage_unit


@dataclass(frozen=True)
class WindowOutcome:
    attack_damage: float
    collateral_damage: float
    blocked: bool
    verdict: str  # "none" for windows with no attack

    @property
    def total_damage(self) -> float:
        return self.attack_damage + self.collateral_damage


def enforce_window(action: Action, kind: str, intensity: float, load: float,
                   matrix: EffectivenessMatrix,
                   collateral: CollateralModel) -> WindowOutcome:
    tiers = (action.firewall_tier, action.rate_limit_tier, action.isolation_tier)
    coll = collateral.collateral(*tiers, load)
    if kind == "benign" or intensity <= 0.0:
        return WindowOutcome(attack_damage=0.0, collateral_damage=coll,
                             blocked=False, verdict="none")
    out = resolve_attack(kind, intensity, tiers, matrix)
    return WindowOutcome(attack_damage=out.damage, collateral_damage=coll,
                         blocked=out.verdict == "blocked", verdict=out.verdict)


def reward_for(outcome: WindowOutcome, action: Action,
               cost_weight: float = 0.1, block_bonus: float = 2.5) -> float:
    reward = -(outcome.attack_damage + outcome.collateral_damage)
    reward -= cost_weight * action.cost
    if outcome.blocked:
        reward += block_bonus
    return reward


def fixed_action_damage(truths, action: Action) -> float:
    """Running total of one action's damage over (kind, intensity, load)."""
    matrix, collateral = default_matrix(), CollateralModel()
    total = 0.0
    for kind, intensity, load in truths:
        total += enforce_window(action, kind, intensity, load, matrix,
                                collateral).total_damage
    return total


@dataclass(frozen=True)
class StepContext:
    kind: int  # label id
    intensity: float
    load: float
    probs: np.ndarray
    threat: float


def step_context(cfg, block: np.ndarray, t: int) -> StepContext:
    """Window t of an episode, read one scalar at a time from column t of
    the episode's ``[8, episode_len]`` uniform block."""
    coin, pick, level, busy, slip, misread, confidence, context = \
        (float(u) for u in block[:, t])
    if coin < cfg.benign_share:
        kind = 0
        intensity = 0.0
    else:
        kind = 1 + int(pick * len(ATTACK_KINDS))
        lo, hi = cfg.intensity_range
        intensity = lo + (hi - lo) * level
    lo, hi = LOAD_RANGES[LABELS[kind]]
    load = lo + (hi - lo) * busy
    perceived = kind
    if slip < cfg.misperception:
        others = [i for i in range(len(LABELS)) if i != perceived]
        perceived = others[int(misread * len(others))]
    max_p = 0.75 + (0.995 - 0.75) * confidence
    probs = np.full(len(LABELS), (1.0 - max_p) / (len(LABELS) - 1))
    probs[perceived] = max_p
    context_factor = 0.5 + (0.95 - 0.5) * context
    threat = max_p * DEFAULT_SEVERITY[LABELS[perceived]] * context_factor
    return StepContext(kind=kind, intensity=intensity, load=load, probs=probs,
                       threat=threat)


class OracleDefenseEnv:
    """The defense environment one step at a time: each step's window comes
    from its column of the episode's uniform block, its state key from the
    scalar state-key functions, and its reward from the objects above."""

    def __init__(self, cfg=None):
        self.cfg = cfg or EnvConfig()
        self.catalog = build_action_catalog()
        self.n_actions = len(self.catalog)
        self.oracle_matrix = default_matrix()
        self.oracle_collateral = CollateralModel()
        self._episode = -1
        self._block = None

    def reset(self) -> int:
        self._episode += 1
        rng = Generator(Philox(key=np.array([self.cfg.seed, self._episode],
                                            dtype=np.uint64)))
        self._block = rng.random((8, self.cfg.episode_len))
        self._steps = 0
        self._context = step_context(self.cfg, self._block, 0)
        self._state = self._key(0.0)
        return self._state

    def _key(self, recent: float) -> int:
        ctx = self._context
        return encode_state(compose_indicators(ctx.threat, ctx.load, ctx.probs, recent))

    def step(self, action_id: int) -> tuple[int, float, bool]:
        if self._block is None:
            raise EnvironmentFault("step called before reset")
        if self._steps >= self.cfg.episode_len:
            raise EnvironmentFault("episode is terminal; call reset")
        action = get_action(self.catalog, action_id)
        ctx = self._context
        outcome = enforce_window(action, LABELS[ctx.kind], ctx.intensity,
                                 ctx.load, self.oracle_matrix,
                                 self.oracle_collateral)
        reward = reward_for(outcome, action, self.cfg.cost_weight,
                            self.cfg.block_bonus)
        self._steps += 1
        terminal = self._steps >= self.cfg.episode_len
        if not terminal:
            self._context = step_context(self.cfg, self._block, self._steps)
            self._state = self._key(action.tier_norm())
        return self._state, reward, terminal


class DoubleQTables:
    """Q-table rows in dicts keyed by state, created on first write."""

    def __init__(self, n_actions: int):
        if n_actions < 0:
            raise ConfigError(f"n_actions must be >= 0, got {n_actions}")
        self.n_actions = n_actions
        self.q_a: dict[int, np.ndarray] = {}
        self.q_b: dict[int, np.ndarray] = {}
        self.visits: dict[int, np.ndarray] = {}

    def row_a(self, state: int) -> np.ndarray:
        row = self.q_a.get(state)
        return np.zeros(self.n_actions) if row is None else row

    def row_b(self, state: int) -> np.ndarray:
        row = self.q_b.get(state)
        return np.zeros(self.n_actions) if row is None else row

    def combined(self, state: int) -> np.ndarray:
        return self.row_a(state) + self.row_b(state)

    def states(self) -> list[int]:
        return sorted(set(self.q_a) | set(self.q_b) | set(self.visits))

    def writable(self, table: dict, state: int, dtype=np.float64) -> np.ndarray:
        row = table.get(state)
        if row is None:
            row = np.zeros(self.n_actions, dtype=dtype)
            table[state] = row
        return row


def select_action(tables: DoubleQTables, state: int, epsilon: float,
                  coin: float, pick: int) -> int:
    if epsilon > 0.0 and coin < epsilon:
        return pick
    return int(np.argmax(tables.combined(state)))


def double_q_update(tables: DoubleQTables, t: Transition, alpha: float,
                    gamma: float, coin: float) -> float:
    if coin < 0.5:
        chosen_next, other_next = tables.row_a(t.next_state), tables.row_b(t.next_state)
        row = tables.writable(tables.q_a, t.state)
    else:
        chosen_next, other_next = tables.row_b(t.next_state), tables.row_a(t.next_state)
        row = tables.writable(tables.q_b, t.state)
    if t.terminal:
        target = t.reward
    else:
        a_star = int(np.argmax(chosen_next))
        target = t.reward + gamma * float(other_next[a_star])
    row[t.action] += alpha * (target - row[t.action])
    tables.writable(tables.visits, t.state, dtype=np.int64)[t.action] += 1
    return float(row[t.action])


def train_policy(env, cfg: PolicyTrainConfig) -> tuple[DoubleQTables, ConvergenceCurve]:
    """The episodic double Q-learning loop over dictionary-backed tables.

    Each episode first draws its exploration coins, random action ids and
    table coins from the agent's generator, ``steps_per_episode`` of each,
    however early the episode then ends; step t reads entry t of each.
    """
    rng = np.random.default_rng(cfg.seed)
    tables = DoubleQTables(env.n_actions)
    rewards = []
    for episode in range(cfg.episodes):
        eps = epsilon_at(cfg, episode)
        explore_coins = rng.random(cfg.steps_per_episode)
        random_ids = rng.integers(env.n_actions, size=cfg.steps_per_episode)
        table_coins = rng.random(cfg.steps_per_episode)
        state = env.reset()
        total = 0.0
        steps = 0
        for t in range(cfg.steps_per_episode):
            action = select_action(tables, state, eps, float(explore_coins[t]),
                                   int(random_ids[t]))
            next_state, reward, terminal = env.step(action)
            double_q_update(tables, Transition(state, action, float(reward),
                                               next_state, bool(terminal)),
                            cfg.alpha, cfg.gamma, float(table_coins[t]))
            total += float(reward)
            steps += 1
            state = next_state
            if terminal:
                break
        rewards.append(total / steps)
    return tables, ConvergenceCurve.from_rewards(rewards, cfg.moving_avg_window)

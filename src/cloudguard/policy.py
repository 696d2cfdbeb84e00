"""Adaptive response selection with tabular double Q-learning.

The state of a window is four buckets: the threat level, the service load,
the most probable attack kind, and how hard the previous action pushed the
tiers. They pack into a single integer state key by little-endian mixed-radix
encoding. A fixed catalog of defense actions combines firewall, rate-limit,
and isolation tiers; burst and sustained presets reuse the aggressive tier
combinations at scaled cost. Two Q tables are trained with the double
estimator update. The tables are dense arrays over every state key and
action, zero until trained, so an unvisited state reads as zero.

Training draws each episode's randomness from the agent's generator in one
block at the episode's start: ``steps_per_episode`` exploration coins, then
as many random action ids, then as many table coins. The count never
depends on when the episode ends, so episode k's draws depend only on the
seed and k, never on how earlier episodes were played.
"""

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import check_seed
from .errors import (
    CatalogError,
    CheckpointError,
    ConfigError,
    DimensionError,
    EnvironmentFault,
    InputError,
)
from .files import read_text, write_text
from .perception import BAND_EDGES
from .telemetry import LABELS

FIREWALL_TIERS = 5
RATE_LIMIT_TIERS = 5
ISOLATION_TIERS = 3

# per-tier cost weights for the core action combinations
FIREWALL_COST = 0.08
RATE_LIMIT_COST = 0.10
ISOLATION_COST = 0.22

BURST_COST_SCALE = 0.8
SUSTAINED_COST_SCALE = 1.3
HEAVY_TIER_SUM = 4  # combos at or above this total get burst/sustained presets


# state-key bucket edges; the threat axis buckets by the perception band
# edges, so its bucket is the threat level minus one
LOAD_EDGES = (0.25, 0.5, 0.75)
RECENT_EDGES = (1 / 3, 2 / 3)
STATE_RADICES = (len(BAND_EDGES) + 1, len(LOAD_EDGES) + 1, len(LABELS),
                 len(RECENT_EDGES) + 1)
N_STATES = math.prod(STATE_RADICES)
# the edges as arrays, so bucketing converts no tuple per call
_BAND_EDGES, _LOAD_EDGES, _RECENT_EDGES = (
    np.array(edges) for edges in (BAND_EDGES, LOAD_EDGES, RECENT_EDGES))


def compose_indicators(threat, load, kind_probs, recent_action) -> tuple:
    """The (threat, load, attack kind, recent action) buckets of windows.

    Scalar signals with ``[6]`` probabilities bucket one window; ``[N]``
    signals with ``[N, 6]`` probabilities give four ``[N]`` int arrays.
    Values on an edge take the upper bucket and out-of-range values clamp;
    the kind bucket is the first index of the largest probability.
    """
    probs = np.asarray(kind_probs, dtype=np.float64)
    signals = [np.asarray(v, dtype=np.float64) for v in (threat, load, recent_action)]
    if probs.shape[-1:] != (len(LABELS),) \
            or any(v.shape != probs.shape[:-1] for v in signals):
        raise DimensionError(f"kind_probs {probs.shape} need a last axis of "
                             f"{len(LABELS)} and signals of shape {probs.shape[:-1]}, "
                             f"got {[v.shape for v in signals]}")
    if not (np.isfinite(signals).all() and np.isfinite(probs).all()):
        raise InputError("state signals must be finite")
    threat, load, recent_action = signals
    return (np.searchsorted(_BAND_EDGES, threat, side="right"),
            np.searchsorted(_LOAD_EDGES, load, side="right"),
            probs.argmax(axis=-1),
            np.searchsorted(_RECENT_EDGES, recent_action, side="right"))


def encode_state(buckets):
    """Pack per-axis integer buckets into one key, first axis least
    significant.

    One window's buckets give an int key; ``[N]`` bucket arrays give an
    ``[N]`` array of keys.
    """
    if len(buckets) != len(STATE_RADICES):
        raise DimensionError(f"state takes {len(STATE_RADICES)} buckets, "
                             f"got {len(buckets)}")
    try:
        key = np.ravel_multi_index(buckets[::-1], STATE_RADICES[::-1])
    except ValueError:
        for bucket, radix in zip(buckets, STATE_RADICES):
            bucket = np.asarray(bucket)
            outside = (bucket < 0) | (bucket >= radix)
            if outside.any():
                raise InputError(f"bucket {bucket[outside][0]} outside [0, {radix})") from None
        raise
    return int(key) if key.ndim == 0 else key


def _check_state(state: int) -> None:
    # a negative key would silently index a row from the end
    if not 0 <= state < N_STATES:
        raise InputError(f"state key {state} outside [0, {N_STATES})")


def decode_state(key: int) -> tuple[int, ...]:
    """Inverse of encode_state: the per-axis bucket tuple."""
    _check_state(key)
    buckets = []
    for radix in STATE_RADICES:
        buckets.append(key % radix)
        key //= radix
    return tuple(buckets)


@dataclass(frozen=True)
class Action:
    """One defense action: absolute tier targets plus a cost."""

    action_id: int
    firewall_tier: int
    rate_limit_tier: int
    isolation_tier: int
    mode: str  # "standard", "burst", or "sustained"
    cost: float

    def tier_norm(self) -> float:
        """Mean tier utilization in [0, 1], used as the recent-action signal."""
        return (self.firewall_tier / (FIREWALL_TIERS - 1)
                + self.rate_limit_tier / (RATE_LIMIT_TIERS - 1)
                + self.isolation_tier / (ISOLATION_TIERS - 1)) / 3.0


def build_action_catalog() -> tuple[Action, ...]:
    """All 187 actions: 75 tier combinations, then burst and sustained presets.

    Presets reuse combinations whose tier sum reaches HEAVY_TIER_SUM: burst
    applies them briefly at 0.8x cost, sustained holds them at 1.3x cost.
    Action ids are dense and positional.
    """
    combos = [(f, r, i)
              for f in range(FIREWALL_TIERS)
              for r in range(RATE_LIMIT_TIERS)
              for i in range(ISOLATION_TIERS)]
    actions = []
    for f, r, i in combos:
        cost = FIREWALL_COST * f + RATE_LIMIT_COST * r + ISOLATION_COST * i
        actions.append(Action(len(actions), f, r, i, "standard", cost))
    heavy = [(f, r, i) for f, r, i in combos if f + r + i >= HEAVY_TIER_SUM]
    for scale, mode in ((BURST_COST_SCALE, "burst"), (SUSTAINED_COST_SCALE, "sustained")):
        for f, r, i in heavy:
            cost = (FIREWALL_COST * f + RATE_LIMIT_COST * r + ISOLATION_COST * i) * scale
            actions.append(Action(len(actions), f, r, i, mode, cost))
    return tuple(actions)


# the catalog, built once: configs check ids against its size and the
# response model reads its tier vectors
ACTION_CATALOG = build_action_catalog()
N_ACTIONS = len(ACTION_CATALOG)

# per catalog action id: the state-key offset of its recent-action bucket
# (the key of a window with every other bucket 0)
RECENT_OFFSET = encode_state(compose_indicators(
    np.zeros(N_ACTIONS), np.zeros(N_ACTIONS), np.zeros((N_ACTIONS, len(LABELS))),
    np.array([a.tier_norm() for a in ACTION_CATALOG]))).tolist()


def get_action(catalog: tuple[Action, ...], action_id: int) -> Action:
    if not 0 <= action_id < len(catalog):
        raise CatalogError(f"action id {action_id} outside catalog of {len(catalog)}")
    return catalog[action_id]


class DoubleQTables:
    """Dense pair of Q tables plus visit counts over every state key.

    ``q_a`` and ``q_b`` are ``[N_STATES, n_actions]`` float64 and ``visits``
    the matching int64 counts, all zero until trained; a row is indexed by
    state key. Zero pages are only mapped when first written, so the rows a
    run never visits cost no memory.
    """

    def __init__(self, n_actions: int):
        if n_actions < 0:
            raise ConfigError(f"n_actions must be >= 0, got {n_actions}")
        self.n_actions = n_actions
        self.q_a = np.zeros((N_STATES, n_actions))
        self.q_b = np.zeros((N_STATES, n_actions))
        self.visits = np.zeros((N_STATES, n_actions), dtype=np.int64)

    def states(self) -> list[int]:
        """State keys whose row holds any non-zero value or visit, ascending."""
        touched = self.q_a.any(axis=1) | self.q_b.any(axis=1) \
            | self.visits.any(axis=1)
        return np.flatnonzero(touched).tolist()


class Transition(NamedTuple):
    state: int
    action: int
    reward: float
    next_state: int
    terminal: bool


def select_action(tables: DoubleQTables, state: int, epsilon: float,
                  draws: tuple[float, int] | None = None) -> int:
    """Epsilon-greedy over Q_A + Q_B; greedy ties go to the lowest action id.

    ``draws`` is one step's pre-drawn ``(coin, action id)`` pair, as
    train_policy passes it: the step explores, taking that action id, when
    the coin is below epsilon. With epsilon == 0 nothing is read, so a greedy
    caller passes no draws and replays are exactly reproducible.
    """
    if tables.n_actions < 1:
        raise ConfigError("cannot select from an empty action catalog")
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon must be in [0, 1], got {epsilon}")
    if not 0 <= state < N_STATES:  # a negative key would index from the end
        raise InputError(f"state key {state} outside [0, {N_STATES})")
    if epsilon > 0.0:
        if draws is None:
            raise ConfigError("exploration (epsilon > 0) needs a pre-drawn coin and action")
        coin, pick = draws
        if coin < epsilon:
            if not 0 <= pick < tables.n_actions:
                raise CatalogError(f"action id {pick} outside catalog of "
                                   f"{tables.n_actions}")
            return pick
    return int((tables.q_a[state] + tables.q_b[state]).argmax())


def double_q_update(tables: DoubleQTables, t: Transition | tuple, alpha: float,
                    gamma: float, rng: np.random.Generator | float) -> float:
    """One double-estimator update; returns the new value of the entry.

    ``t`` is a Transition or a plain tuple of its five fields in order.

    A fair coin picks the table to update: a coin below 0.5 updates Q_A.
    ``rng`` is a Generator that draws the coin, or the step's pre-drawn
    coin, a float in [0, 1), as train_policy passes it. The updated table
    chooses the argmax action at the next state; the *other* table supplies
    its value. Terminal transitions drop the bootstrap term entirely.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    if not 0.0 <= gamma < 1.0:
        raise ConfigError(f"gamma must be in [0, 1), got {gamma}")
    state, action, reward, next_state, terminal = t
    if not 0 <= action < tables.n_actions:
        raise CatalogError(f"action id {action} outside catalog of {tables.n_actions}")
    if not (0 <= state < N_STATES and 0 <= next_state < N_STATES):
        raise InputError(f"state keys {state} -> {next_state} outside [0, {N_STATES})")
    coin = rng if isinstance(rng, float) else rng.random()
    table, other = (tables.q_a, tables.q_b) if coin < 0.5 else (tables.q_b, tables.q_a)
    if terminal:
        target = reward
    else:
        target = reward + gamma * float(other[next_state, table[next_state].argmax()])
    value = float(table[state, action])
    value += alpha * (target - value)
    table[state, action] = value
    tables.visits[state, action] += 1
    return value


@dataclass(frozen=True)
class PolicyTrainConfig:
    episodes: int = 1500
    steps_per_episode: int = 80
    alpha: float = 0.1
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    anneal_fraction: float = 0.8  # share of episodes over which epsilon decays
    seed: int = 0
    moving_avg_window: int = 20

    def __post_init__(self):
        check_seed(self.seed, "policy training")
        if self.episodes < 0:
            raise ConfigError(f"episodes must be >= 0, got {self.episodes}")
        if self.steps_per_episode < 1:
            raise ConfigError("steps_per_episode must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ConfigError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 < self.anneal_fraction <= 1.0:
            raise ConfigError("anneal_fraction must be in (0, 1]")
        if self.moving_avg_window < 1:
            raise ConfigError("moving_avg_window must be >= 1")


def epsilon_at(cfg: PolicyTrainConfig, episode: int) -> float:
    """Linear decay from start to end over the first anneal_fraction episodes."""
    anneal = int(round(cfg.anneal_fraction * cfg.episodes))
    if anneal <= 0:
        return cfg.epsilon_end
    frac = min(episode / anneal, 1.0)
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac


@dataclass(frozen=True)
class ConvergenceCurve:
    """Per-episode mean reward with a trailing moving average."""

    episode_rewards: tuple[float, ...]
    moving_avg: tuple[float, ...]

    @classmethod
    def from_rewards(cls, rewards, window: int) -> "ConvergenceCurve":
        rewards = tuple(float(r) for r in rewards)
        moving = tuple(
            float(np.mean(rewards[max(0, i - window + 1):i + 1]))
            for i in range(len(rewards))
        )
        return cls(episode_rewards=rewards, moving_avg=moving)

    def to_rows(self) -> list[tuple[int, float, float]]:
        return [(i, r, m) for i, (r, m)
                in enumerate(zip(self.episode_rewards, self.moving_avg))]


def train_policy(env, cfg: PolicyTrainConfig) -> tuple[DoubleQTables, ConvergenceCurve]:
    """Run episodic double Q-learning against ``env``.

    The environment contract: ``n_actions`` attribute, ``reset() -> state``,
    ``step(action) -> (next_state, reward, terminal)``. Faults raised by the
    environment are re-raised with episode and step context attached.

    The agent's generator is ``default_rng(cfg.seed)``. At each episode's
    start, before ``reset``, it draws three arrays of ``steps_per_episode``:
    the exploration coins (``random``), the random action ids (``integers``
    below ``n_actions``) and the table coins (``random``). Step t explores
    when its exploration coin is below the episode's epsilon, and then takes
    its random action id; its update takes Q_A when its table coin is below
    0.5. An episode that ends early leaves the rest of its draws unused, so
    episode k's draws depend only on the seed and k.
    """
    rng = np.random.default_rng(cfg.seed)
    tables = DoubleQTables(env.n_actions)
    if tables.n_actions < 1:
        raise ConfigError("cannot train over an empty action catalog")
    alpha, gamma, n = cfg.alpha, cfg.gamma, cfg.steps_per_episode
    rewards = []
    for episode in range(cfg.episodes):
        eps = epsilon_at(cfg, episode)
        explore = rng.random(n).tolist()
        picks = rng.integers(tables.n_actions, size=n).tolist()
        flips = rng.random(n).tolist()
        state = env.reset()
        total = 0.0
        steps = 0
        for step in range(n):
            action = select_action(tables, state, eps, (explore[step], picks[step]))
            try:
                next_state, reward, terminal = env.step(action)
            except EnvironmentFault as exc:
                raise EnvironmentFault(
                    f"episode {episode} step {step}: {exc}") from exc
            reward = float(reward)
            # a plain tuple in Transition's field order, cheaper to build
            double_q_update(tables, (state, action, reward, next_state, bool(terminal)),
                            alpha, gamma, flips[step])
            total += reward
            steps += 1
            state = next_state
            if terminal:
                break
        rewards.append(total / steps)
    return tables, ConvergenceCurve.from_rewards(rewards, cfg.moving_avg_window)


def greedy_policy(tables: DoubleQTables, states=None) -> dict[int, int]:
    """Greedy action per state (defaults to every touched state)."""
    if states is None:
        states = tables.states()
    return {s: select_action(tables, s, 0.0) for s in states}


_QT_HEADER = "state,action,q_a,q_b,visits"
_QT_MAGIC = "# double-q checkpoint v1"


def save_qtables(path, tables: DoubleQTables) -> None:
    """Canonical text dump: one row per touched entry, sorted by state, action.

    Floats are written with repr so a reload is bit-exact. FilesystemError
    when ``path`` cannot be written.
    """
    lines = [_QT_MAGIC, f"n_actions={tables.n_actions}", _QT_HEADER]
    touched = (tables.q_a != 0.0) | (tables.q_b != 0.0) | (tables.visits != 0)
    states, actions = np.nonzero(touched)
    for s, a, qa, qb, v in zip(states.tolist(), actions.tolist(),
                               tables.q_a[touched].tolist(),
                               tables.q_b[touched].tolist(),
                               tables.visits[touched].tolist()):
        lines.append(f"{s},{a},{qa!r},{qb!r},{v}")
    write_text(path, "\n".join(lines) + "\n")


_QT_ROW = np.dtype([("state", np.int64), ("action", np.int64), ("q_a", np.float64),
                    ("q_b", np.float64), ("visits", np.int64)])


def load_qtables(path) -> DoubleQTables:
    """Read a ``save_qtables`` file; CheckpointError on any malformed part,
    a non-finite Q value or a repeated (state, action) row."""
    lines = read_text(path, CheckpointError, "q-table checkpoint").split("\n")
    if len(lines) < 3 or lines[0] != _QT_MAGIC or lines[2] != _QT_HEADER:
        raise CheckpointError(f"{path} is not a q-table checkpoint")
    try:
        n_actions = int(lines[1].removeprefix("n_actions="))
    except ValueError as exc:
        raise CheckpointError(f"bad n_actions line: {lines[1]!r}") from exc
    if n_actions < 0:
        raise CheckpointError(f"negative n_actions: {lines[1]!r}")
    body = [ln for ln in lines[3:] if ln]
    try:
        rows = np.loadtxt(body, dtype=_QT_ROW, delimiter=",", comments=None, ndmin=1) \
            if body else np.empty(0, _QT_ROW)
    except ValueError as exc:
        raise CheckpointError(f"malformed q-table row: {exc}") from exc

    def reject(bad, what: str):
        if bad.any():
            raise CheckpointError(f"{what} in row: {body[int(np.argmax(bad))]!r}")

    state, action = rows["state"], rows["action"]
    reject((state < 0) | (state >= N_STATES), f"state id outside [0, {N_STATES})")
    reject((action < 0) | (action >= n_actions),
           f"action id outside catalog of {n_actions}")
    reject(rows["visits"] < 0, "negative visit count")
    reject(~(np.isfinite(rows["q_a"]) & np.isfinite(rows["q_b"])), "non-finite Q value")
    key = state * n_actions + action
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(len(key), dtype=bool)
    repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
    reject(repeated, "repeated (state, action)")
    tables = DoubleQTables(n_actions)
    tables.q_a[state, action] = rows["q_a"]
    tables.q_b[state, action] = rows["q_b"]
    tables.visits[state, action] = rows["visits"]
    return tables


def write_convergence_csv(path, curve: ConvergenceCurve) -> None:
    """One CSV row per episode, CRLF-terminated, floats written with repr;
    FilesystemError when ``path`` cannot be written."""
    rows = ["episode,mean_reward,moving_avg"]
    rows += [f"{episode},{reward!r},{moving!r}" for episode, reward, moving in curve.to_rows()]
    write_text(path, "\r\n".join(rows) + "\r\n")


def read_convergence_csv(path) -> ConvergenceCurve:
    """CheckpointError when ``path`` cannot be read or is not a curve."""
    return parse_convergence_csv(read_text(path, CheckpointError, "convergence curve"),
                                 path)


def parse_convergence_csv(text: str, path) -> ConvergenceCurve:
    """The curve in ``text``, read from ``path``; CheckpointError on a
    missing header or a malformed row."""
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != ["episode", "mean_reward", "moving_avg"]:
        raise CheckpointError(f"{path} is not a convergence curve file")
    rewards, moving = [], []
    for row in rows[1:]:
        try:
            episode, reward, avg = row  # a wrong field count is a ValueError too
            int(episode)
            rewards.append(float(reward))
            moving.append(float(avg))
        except ValueError as exc:
            raise CheckpointError(f"malformed convergence row: {row!r}") from exc
    return ConvergenceCurve(episode_rewards=tuple(rewards), moving_avg=tuple(moving))

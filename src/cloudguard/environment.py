"""Simulated defense environment for training the response policy.

Each step presents one traffic window (attack kind, intensity, service load,
and a detector-like probability read) as the same state key the simulation
loop uses; the agent answers with a catalog action. The reward follows
r = -(damage) - lambda * action cost + bonus for blocked attacks, where
damage counts both residual attack damage and collateral service disruption
from the defense tiers themselves under load. The block bonus defaults high
enough that blocking an attack nets a positive reward; with zero-initialized
tables that keeps never-tried actions from outranking known-good ones.

An episode is drawn whole at reset, as one ``[8, episode_len]`` block of
uniforms from its counter-based substream (seed, episode index): one row per
quantity, column t for step t. So step t's window depends only on (seed,
episode, t), never on how the episode or earlier ones were played. The
environment keeps one ``scenario.Substreams`` for its seed and re-keys it
per episode, so no episode builds a generator; ``draw_episode(cfg,
episode)`` draws the same episode from a fresh one. From that block
``reset`` computes the episode's windows as arrays, their state keys
without the recent-action bucket (one ``compose_indicators`` and one
``encode_state`` call over the episode), and the ``[episode_len,
n_actions]`` reward of every action on every window, scored by one
broadcast ``enforcement.enforce_window`` call: the attack damage at the
action's coverage of the window's kind plus collateral damage from the
action's tier friction under the load. The window columns stay
``[episode_len, 1]`` against the ``[n_actions]`` catalog, and the grid's
damage, int8 outcome codes, collateral and rewards are each filled in
place, one pass per operation. ``step`` reads
one reward and adds the action's ``policy.RECENT_OFFSET``, the key offset
of its recent-action bucket, to the next window's key, as the simulation's
decision walk does.

Training (``policy.train_policy``) keeps the agent's side just as separate:
at each episode's start it draws that episode's exploration coins, random
action ids and table coins, ``steps_per_episode`` of each, from its own
generator. So with the environment's substreams, episode k of a training
run depends only on the two seeds, k and the tables learned so far.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .config import check_seed
from .enforcement import BLOCKED, enforce_window
from .errors import ConfigError, EnvironmentFault
from .perception import SEVERITY
from .policy import (
    ACTION_CATALOG,
    RECENT_OFFSET,
    PolicyTrainConfig,
    compose_indicators,
    encode_state,
    get_action,
)
from .scenario import Substreams
from .telemetry import ATTACK_KINDS, LABELS

# typical service-load band per window kind, mirroring what the harness
# derives from event counts
_LOAD_RANGES = {
    "benign": (0.30, 0.70),
    "ddos": (0.80, 1.00),
    "sql_injection": (0.55, 1.00),
    "port_scan": (0.45, 1.00),
    "brute_force": (0.55, 1.00),
    "data_exfiltration": (0.30, 0.80),
}

# per label id: the load band's low end and width
_LOAD_LOW = np.array([_LOAD_RANGES[k][0] for k in LABELS])
_LOAD_SPAN = np.array([_LOAD_RANGES[k][1] - _LOAD_RANGES[k][0] for k in LABELS])
_LABEL_IDS = np.arange(len(LABELS))

# the catalog action ids and their costs
_ACTION_IDS = np.arange(len(ACTION_CATALOG))
_ACTION_COST = np.array([a.cost for a in ACTION_CATALOG])


def reward_for(code, attack_damage, collateral_damage, action,
               cost_weight: float, block_bonus: float):
    """r = -(attack + collateral damage) - lambda * cost + bonus if blocked.

    ``action`` is a catalog action id, scored on scalars into a float, or
    an array of ids broadcasting against array outcomes into an array. The
    reward is formed in place as (-lambda * cost) - damage, which is
    -(damage) - lambda * cost bit for bit, signs of zero included. The
    bonus is added where blocked, so an unblocked reward keeps its sign bit
    (an idle quiet window scores -0.0).
    """
    shape = np.broadcast(code, attack_damage, collateral_damage, action).shape
    reward = np.add(attack_damage, collateral_damage, out=np.empty(shape))
    np.subtract(-cost_weight * _ACTION_COST[action], reward, out=reward)
    np.add(reward, block_bonus, out=reward, where=code == BLOCKED)
    return float(reward) if reward.ndim == 0 else reward


@dataclass(frozen=True)
class EnvConfig:
    episode_len: int = 80
    seed: int = 0
    benign_share: float = 0.4
    intensity_range: tuple = (0.3, 1.0)
    cost_weight: float = 0.1
    block_bonus: float = 2.5
    misperception: float = 0.06  # chance the synthesized read mislabels the kind

    def __post_init__(self):
        check_seed(self.seed, "environment")
        if self.episode_len < 1:
            raise ConfigError("episode_len must be >= 1")
        if not 0.0 <= self.benign_share <= 1.0:
            raise ConfigError("benign_share must be in [0, 1]")
        lo, hi = self.intensity_range
        if not 0.0 < lo <= hi <= 1.0:
            raise ConfigError("intensity_range must satisfy 0 < low <= high <= 1")
        if self.cost_weight < 0 or self.block_bonus < 0:
            raise ConfigError("cost_weight and block_bonus cannot be negative")
        if not 0.0 <= self.misperception <= 1.0:
            raise ConfigError("misperception must be in [0, 1]")


@dataclass(frozen=True)
class Episode:
    """One episode's windows, row t for step t."""

    kind: np.ndarray  # [L] label ids
    intensity: np.ndarray  # [L], 0 on benign windows
    load: np.ndarray  # [L]
    probs: np.ndarray  # [L, len(LABELS)] the synthesized read
    threat: np.ndarray  # [L]
    state_key: np.ndarray  # [L] keys with the recent-action bucket 0
    rewards: np.ndarray  # [L, n_actions] reward of each action on each window


def draw_episode(cfg: EnvConfig, episode: int) -> Episode:
    """Draw episode ``episode`` of ``cfg.seed`` and score every action on it."""
    return _episode(cfg, Substreams(cfg.seed)(episode))


def _episode(cfg: EnvConfig, rng: Generator) -> Episode:
    """The episode whose substream is ``rng``: one ``[8, episode_len]``
    block whose rows are the benign coin, attack kind, intensity, load,
    misperception coin, misread kind, max probability and context factor.
    """
    n = cfg.episode_len
    coin, pick, level, busy, slip, misread, confidence, context = rng.random((8, n))
    attack = coin >= cfg.benign_share
    kind = np.where(attack, 1 + (pick * len(ATTACK_KINDS)).astype(np.intp), 0)
    lo, hi = cfg.intensity_range
    intensity = np.where(attack, lo + (hi - lo) * level, 0.0)
    load = _LOAD_LOW[kind] + _LOAD_SPAN[kind] * busy
    other = (misread * (len(LABELS) - 1)).astype(np.intp)  # any label but kind
    perceived = np.where(slip < cfg.misperception, other + (other >= kind), kind)
    max_p = 0.75 + (0.995 - 0.75) * confidence
    # max_p on the perceived label, the rest shared equally by the others
    probs = np.where(perceived[:, None] == _LABEL_IDS, max_p[:, None],
                     ((1.0 - max_p) / (len(LABELS) - 1))[:, None])
    threat = max_p * SEVERITY[perceived] * (0.5 + (0.95 - 0.5) * context)
    code, attack_damage, collateral = enforce_window(
        _ACTION_IDS, kind[:, None], intensity[:, None], load[:, None])
    return Episode(
        kind=kind, intensity=intensity, load=load, probs=probs, threat=threat,
        state_key=encode_state(compose_indicators(threat, load, probs, np.zeros(n))),
        rewards=reward_for(code, attack_damage, collateral, _ACTION_IDS,
                           cfg.cost_weight, cfg.block_bonus))


class DefenseEnv:
    """reset/step environment over synthesized windows and real enforcement."""

    def __init__(self, cfg: EnvConfig | None = None):
        self.cfg = cfg or EnvConfig()
        self.catalog = ACTION_CATALOG
        self._streams = Substreams(self.cfg.seed)
        self._episode = -1
        self._steps = 0
        self._drawn: Episode | None = None
        self._keys: list[int] = []
        self._state = 0

    @property
    def n_actions(self) -> int:
        return len(self.catalog)

    def reset(self) -> int:
        self._episode += 1
        self._drawn = _episode(self.cfg, self._streams(self._episode))
        self._keys = self._drawn.state_key.tolist()
        self._steps = 0
        self._state = self._keys[0]
        return self._state

    def step(self, action_id: int) -> tuple[int, float, bool]:
        if self._drawn is None:
            raise EnvironmentFault("step called before reset")
        if self._steps >= self.cfg.episode_len:
            raise EnvironmentFault("episode is terminal; call reset")
        get_action(self.catalog, action_id)  # CatalogError outside the catalog
        t = self._steps
        reward = self._drawn.rewards.item(t, action_id)
        self._steps = t + 1
        terminal = self._steps >= self.cfg.episode_len
        if not terminal:
            self._state = self._keys[t + 1] + RECENT_OFFSET[action_id]
        return self._state, reward, terminal


def defense_train_config(seed: int = 0) -> PolicyTrainConfig:
    """Training preset sized for the desk-scale defense environment.

    Low gamma reflects the weak step-to-step coupling (the next window does
    not depend on the action beyond the recent-action indicator), which cuts
    bootstrap noise across the 187-action catalog.
    """
    return PolicyTrainConfig(
        episodes=1500,
        steps_per_episode=80,
        alpha=0.1,
        gamma=0.35,
        epsilon_start=1.0,
        epsilon_end=0.05,
        anneal_fraction=0.8,
        seed=seed,
        moving_avg_window=20,
    )

"""Simulated defense environment for training the response policy.

Each step presents one traffic window (attack kind, intensity, service load,
and a detector-like probability read) as the same state key the simulation
loop uses; the agent answers with a catalog action. The reward follows
r = -(damage) - lambda * action cost + bonus for blocked attacks, where
damage counts both residual attack damage and collateral service disruption
from the defense tiers themselves under load. The block bonus defaults high
enough that blocking an attack nets a positive reward; with zero-initialized
tables that keeps never-tried actions from outranking known-good ones.

Damage comes from ``enforcement.enforce_window``, called on one step's
scalars: the attack damage at the action's coverage of the window's kind
plus collateral damage from the action's tier friction under the load.

Episodes draw from dedicated counter-based substreams (seed, episode index),
so an episode's windows do not depend on how earlier episodes were played.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .enforcement import BLOCKED, enforce_window
from .errors import ConfigError, EnvironmentFault
from .perception import DEFAULT_SEVERITY
from .policy import (
    ACTION_CATALOG,
    Action,
    PolicyTrainConfig,
    compose_indicators,
    encode_state,
    get_action,
)
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


def reward_for(code, attack_damage, collateral_damage, action: Action,
               cost_weight: float, block_bonus: float) -> float:
    """r = -(attack + collateral damage) - lambda * cost + bonus if blocked."""
    reward = -(attack_damage + collateral_damage)
    reward -= cost_weight * action.cost
    if code == BLOCKED:
        reward += block_bonus
    return float(reward)


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
class _StepContext:
    kind: int  # label id
    intensity: float
    load: float
    probs: np.ndarray
    threat: float
    state_key: int


class DefenseEnv:
    """reset/step environment over synthesized windows and real enforcement."""

    def __init__(self, cfg: EnvConfig | None = None):
        self.cfg = cfg or EnvConfig()
        self.catalog = ACTION_CATALOG
        self._episode = -1
        self._steps = 0
        self._context: _StepContext | None = None
        self._rng: Generator | None = None

    @property
    def n_actions(self) -> int:
        return len(self.catalog)

    def reset(self) -> int:
        self._episode += 1
        self._rng = Generator(Philox(key=np.array(
            [self.cfg.seed, self._episode], dtype=np.uint64)))
        self._steps = 0
        self._context = self._sample_context(last_action_norm=0.0)
        return self._context.state_key

    def step(self, action_id: int) -> tuple[int, float, bool]:
        if self._context is None or self._rng is None:
            raise EnvironmentFault("step called before reset")
        if self._steps >= self.cfg.episode_len:
            raise EnvironmentFault("episode is terminal; call reset")
        action = get_action(self.catalog, action_id)
        ctx = self._context
        code, attack, collateral = enforce_window(action_id, ctx.kind,
                                                  ctx.intensity, ctx.load)
        reward = reward_for(code, attack, collateral, action,
                            self.cfg.cost_weight, self.cfg.block_bonus)
        self._steps += 1
        terminal = self._steps >= self.cfg.episode_len
        if not terminal:
            self._context = self._sample_context(action.tier_norm())
        return self._context.state_key, reward, terminal

    def _sample_context(self, last_action_norm: float) -> _StepContext:
        rng = self._rng
        if rng.random() < self.cfg.benign_share:
            kind = 0
            intensity = 0.0
        else:
            kind = 1 + int(rng.integers(len(ATTACK_KINDS)))  # attack label id
            intensity = float(rng.uniform(*self.cfg.intensity_range))
        load = float(rng.uniform(*_LOAD_RANGES[LABELS[kind]]))
        perceived = kind
        if rng.random() < self.cfg.misperception:
            others = [i for i in range(len(LABELS)) if i != perceived]
            perceived = others[int(rng.integers(len(others)))]
        max_p = float(rng.uniform(0.75, 0.995))
        probs = np.full(len(LABELS), (1.0 - max_p) / (len(LABELS) - 1))
        probs[perceived] = max_p
        context_factor = float(rng.uniform(0.5, 0.95))
        threat = max_p * DEFAULT_SEVERITY[LABELS[perceived]] * context_factor
        buckets = compose_indicators(threat, load, probs, last_action_norm)
        return _StepContext(kind=kind, intensity=intensity, load=load,
                            probs=probs, threat=threat,
                            state_key=encode_state(buckets))


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

"""Simulated enforcement: attack resolution, damage, latency.

An action's firewall, rate-limit, and isolation tiers are absolute targets,
so a window's posture is its own action's, and enforcing a run is one timed
array call, ``apply_action``.

Attack outcomes come from an effectiveness matrix, one array indexed by
(label id, firewall, rate-limit, isolation tier) holding a coverage fraction
e in [0, 1]: e >= 1 blocks the attack outright, e == 0 lets it through at
full damage, and anything between mitigates damage to (1 - e) x intensity x
base damage for the kind. ``resolve_attack`` is branch-free, so a single
window, a whole run of windows and an episode's windows x actions grid take
the same path. It fills its damage and int8 outcome codes in place over
the inputs' broadcast shape and tests for a live attack on the unbroadcast
kind and intensity, so the grid costs one pass per operation.
The matrix is a read-only constant, ``default_matrix()``, built from
per-kind tier leverage: rate limiting against volumetric floods, the
firewall against scans, injections, and credential stuffing, and isolation
against data exfiltration.
``enforce_window`` adds collateral damage: load x the action's summed tier
friction x the damage of one fully disrupted window.
"""

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CatalogError, InputError
from .policy import (
    ACTION_CATALOG,
    FIREWALL_TIERS,
    ISOLATION_TIERS,
    N_ACTIONS,
    RATE_LIMIT_TIERS,
)
from .telemetry import LABELS

# damage units dealt by a full-intensity, unmitigated attack window, by
# label id: benign, ddos, sql_injection, port_scan, brute_force,
# data_exfiltration
BASE_DAMAGE = np.array([0.0, 10.0, 8.0, 3.0, 5.0, 12.0])

# per-kind (firewall, rate_limit, isolation) leverage in the default matrix,
# by label id
_TIER_WEIGHTS = np.array([
    (0.0, 0.0, 0.0),
    (0.25, 0.85, 0.30),
    (0.85, 0.25, 0.30),
    (0.90, 0.30, 0.20),
    (0.80, 0.40, 0.25),
    (0.30, 0.20, 0.95),
])

# how enforcement left a window, indexed by the outcome code resolve_attack
# returns; "none" is a window with no attack
OUTCOMES = ("none", "passed", "mitigated", "blocked")
BLOCKED = OUTCOMES.index("blocked")


def resolve_attack(kind, intensity, coverage):
    """Outcome codes and residual damage of attacks at a coverage e.

    ``kind`` holds label ids, ``coverage`` the matrix entries of the
    postures met; scalars and broadcastable arrays alike. Damage is
    (1 - e) x intensity x base damage: full coverage (e >= 1) blocks at
    zero damage, zero coverage passes the attack at full damage, anything
    between mitigates. The code indexes OUTCOMES, as int8; a benign kind or
    zero intensity is "none".

    Both results are filled in place over the inputs' broadcast shape, and
    the live-attack test runs on the unbroadcast kind and intensity, so a
    grid of windows x actions costs one pass per operation.
    """
    shape = np.broadcast(kind, intensity, coverage).shape
    damage = np.subtract(1.0, coverage, out=np.empty(shape))
    damage *= intensity
    damage *= BASE_DAMAGE[kind]
    # 1 + (e > 0) + (e >= 1) where an attack is live, else 0; each test's
    # bools are read as int8 0/1, so no pass casts
    code = np.empty(shape, np.int8)
    np.greater(coverage, 0, out=code.view(np.bool_))
    code += np.greater_equal(coverage, 1).view(np.int8)
    code += 1
    code *= np.logical_and(np.greater(intensity, 0), np.not_equal(kind, 0)).view(np.int8)
    return code[()], damage[()]


@lru_cache(maxsize=1)
def default_matrix() -> np.ndarray:
    """The effectiveness matrix, read-only: ``[len(LABELS), FIREWALL_TIERS,
    RATE_LIMIT_TIERS, ISOLATION_TIERS]``, per-kind tier leverage saturating
    at full coverage. Built from the constants above, its values lie in
    [0, 1] and never fall as a single tier rises."""
    wf, wr, wi = (w[:, None, None, None] for w in _TIER_WEIGHTS.T)
    f = np.arange(FIREWALL_TIERS)[:, None, None]
    r = np.arange(RATE_LIMIT_TIERS)[:, None]
    i = np.arange(ISOLATION_TIERS)
    raw = (wf * f / (FIREWALL_TIERS - 1)
           + wr * r / (RATE_LIMIT_TIERS - 1)
           + wi * i / (ISOLATION_TIERS - 1))
    table = np.minimum(1.0, raw)
    table.flags.writeable = False
    return table


# fraction of legitimate traffic each tier degrades; collateral damage is
# load x the action's summed friction x the damage value of one
# fully-disrupted window
FIREWALL_FRICTION = (0.0, 0.02, 0.05, 0.10, 0.18)
RATE_LIMIT_FRICTION = (0.0, 0.03, 0.08, 0.16, 0.28)
ISOLATION_FRICTION = (0.0, 0.12, 0.30)
DISRUPTION_DAMAGE = 4.0

# per action id of the catalog: its summed friction, and the default
# matrix's coverage of each label id under its tiers ([len(LABELS), n])
_FW, _RL, _ISO = np.array([(a.firewall_tier, a.rate_limit_tier, a.isolation_tier)
                           for a in ACTION_CATALOG]).T
ACTION_FRICTION = (np.array(FIREWALL_FRICTION)[_FW] + np.array(RATE_LIMIT_FRICTION)[_RL]
                   + np.array(ISOLATION_FRICTION)[_ISO])
ACTION_COVERAGE = default_matrix()[:, _FW, _RL, _ISO]
# the same coverage flat, action-major: entry action * len(LABELS) + kind, so
# one take gathers a run and an id past the catalog still raises IndexError
_COVERAGE_FLAT = ACTION_COVERAGE.T.ravel()


def enforce_window(action_ids, kind_ids, intensity, load):
    """Resolve windows under catalog actions: (outcome code, attack damage,
    collateral damage).

    Scalars give one window; arrays broadcast, so one call scores a whole
    run. Loads must lie in [0, 1] (fixed_action_damage checks the ones it
    is given).
    """
    coverage = _COVERAGE_FLAT.take(np.multiply(action_ids, len(LABELS)) + kind_ids)
    code, damage = resolve_attack(kind_ids, intensity, coverage)
    collateral = np.multiply(load, ACTION_FRICTION[action_ids])
    collateral *= DISRUPTION_DAMAGE
    return code, damage, collateral


def apply_action(action_ids, kind_ids, intensity, load):
    """Enforce a run: ``enforce_window`` over its arrays, plus the wall time.

    Returns (outcome codes, attack damage, collateral damage, milliseconds
    spent in the call on the monotonic clock). An action id outside the
    catalog raises CatalogError before anything is enforced.
    """
    started = time.perf_counter()
    action_ids = np.asarray(action_ids, dtype=np.intp)
    outside = (action_ids < 0) | (action_ids >= N_ACTIONS)
    if outside.any():
        raise CatalogError(f"action id {action_ids[outside].flat[0]} outside "
                           f"catalog of {N_ACTIONS}")
    code, attack, collateral = enforce_window(action_ids, kind_ids, intensity, load)
    return code, attack, collateral, (time.perf_counter() - started) * 1e3


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-stage response time for one window, in milliseconds."""

    detection_ms: float
    policy_ms: float
    execution_ms: float
    total_ms: float

    def __post_init__(self):
        parts = (self.detection_ms, self.policy_ms, self.execution_ms)
        if any(p < 0 for p in parts) or self.total_ms < 0:
            raise InputError("latencies cannot be negative")
        if abs(self.total_ms - sum(parts)) > 1e-9:
            raise InputError(
                f"total {self.total_ms} does not equal the sum of stages "
                f"{sum(parts)}"
            )

    @classmethod
    def from_parts(cls, detection_ms: float, policy_ms: float,
                   execution_ms: float) -> "LatencyBreakdown":
        return cls(detection_ms=detection_ms, policy_ms=policy_ms,
                   execution_ms=execution_ms,
                   total_ms=detection_ms + policy_ms + execution_ms)

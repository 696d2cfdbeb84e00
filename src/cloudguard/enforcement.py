"""Simulated enforcement: defense posture, attack resolution, latency.

A DefenseState carries the current firewall, rate-limit, and isolation
tiers. Applying an action sets the tiers to the action's targets (absolute,
so reapplying is a no-op) and measures how long the mutation took on the
monotonic clock.

Attack outcomes come from an effectiveness matrix mapping (attack kind, tier
combination) to a coverage fraction e in [0, 1]: e >= 1 blocks the attack
outright, e == 0 lets it through at full damage, and anything between
mitigates damage to (1 - e) x intensity x base damage for the kind. The
default matrix is built from per-kind tier leverage: rate limiting against
volumetric floods, the firewall against scans, injections, and credential
stuffing, and isolation against data exfiltration.
"""

import time
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConfigError, InputError
from .policy import (
    FIREWALL_TIERS,
    ISOLATION_TIERS,
    RATE_LIMIT_TIERS,
    Action,
    get_action,
)
from .telemetry import LABELS

# damage units dealt by a full-intensity, unmitigated attack window
BASE_DAMAGE = {
    "benign": 0.0,
    "ddos": 10.0,
    "sql_injection": 8.0,
    "port_scan": 3.0,
    "brute_force": 5.0,
    "data_exfiltration": 12.0,
}

# per-kind (firewall, rate_limit, isolation) leverage in the default matrix
_TIER_WEIGHTS = {
    "benign": (0.0, 0.0, 0.0),
    "ddos": (0.25, 0.85, 0.30),
    "sql_injection": (0.85, 0.25, 0.30),
    "port_scan": (0.90, 0.30, 0.20),
    "brute_force": (0.80, 0.40, 0.25),
    "data_exfiltration": (0.30, 0.20, 0.95),
}


@dataclass
class DefenseState:
    """Current posture: absolute firewall, rate-limit, and isolation tiers."""

    firewall_tier: int = 0
    rate_limit_tier: int = 0
    isolation_tier: int = 0

    def __post_init__(self):
        if not 0 <= self.firewall_tier < FIREWALL_TIERS:
            raise ConfigError(f"firewall tier {self.firewall_tier} out of range")
        if not 0 <= self.rate_limit_tier < RATE_LIMIT_TIERS:
            raise ConfigError(f"rate-limit tier {self.rate_limit_tier} out of range")
        if not 0 <= self.isolation_tier < ISOLATION_TIERS:
            raise ConfigError(f"isolation tier {self.isolation_tier} out of range")

    def tiers(self) -> tuple[int, int, int]:
        return (self.firewall_tier, self.rate_limit_tier, self.isolation_tier)


def apply_action(state: DefenseState, action_id: int,
                 catalog: tuple[Action, ...]) -> tuple[DefenseState, float]:
    """Set the posture to the action's tier targets.

    Returns the mutated state together with the execution latency in
    milliseconds, measured around the mutation on the monotonic clock.
    Tiers are absolute targets, not deltas, so applying the same action twice
    leaves the state unchanged. Unknown action ids raise CatalogError before
    any change.
    """
    action = get_action(catalog, action_id)
    started = time.perf_counter()
    state.firewall_tier = action.firewall_tier
    state.rate_limit_tier = action.rate_limit_tier
    state.isolation_tier = action.isolation_tier
    return state, (time.perf_counter() - started) * 1000.0


class EffectivenessMatrix:
    """Complete (kind x tier combination) -> effectiveness lookup.

    Construction validates the table: every declared kind must cover every
    tier combination, values must lie in [0, 1], and raising any single tier
    must never lower effectiveness.
    """

    def __init__(self, table: dict):
        self.kinds = tuple(sorted({k for k, _, _, _ in table}))
        self._table = dict(table)
        self._validate()

    def _validate(self):
        if not self.kinds:
            raise InputError("effectiveness matrix is empty")
        combos = [(f, r, i)
                  for f in range(FIREWALL_TIERS)
                  for r in range(RATE_LIMIT_TIERS)
                  for i in range(ISOLATION_TIERS)]
        expected = {(k, f, r, i) for k in self.kinds for f, r, i in combos}
        have = set(self._table)
        if have != expected:
            missing = sorted(expected - have)[:3]
            extra = sorted(have - expected)[:3]
            raise InputError(
                f"effectiveness matrix must cover every tier combination per "
                f"kind; missing {missing}, unexpected {extra}"
            )
        for key, e in self._table.items():
            if not 0.0 <= e <= 1.0:
                raise InputError(f"effectiveness {e} for {key} outside [0, 1]")
        bumps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        limits = (FIREWALL_TIERS, RATE_LIMIT_TIERS, ISOLATION_TIERS)
        for k, f, r, i in self._table:
            for (df, dr, di) in bumps:
                nf, nr, ni = f + df, r + dr, i + di
                if nf < limits[0] and nr < limits[1] and ni < limits[2]:
                    if self._table[(k, nf, nr, ni)] < self._table[(k, f, r, i)]:
                        raise InputError(
                            f"effectiveness for {k} decreases from tiers "
                            f"({f},{r},{i}) to ({nf},{nr},{ni})"
                        )

    def effectiveness(self, kind: str, fw: int, rl: int, iso: int) -> float:
        try:
            return self._table[(kind, fw, rl, iso)]
        except KeyError:
            raise InputError(
                f"no effectiveness entry for kind {kind!r} at tiers "
                f"({fw}, {rl}, {iso})"
            ) from None


@dataclass(frozen=True)
class AttackOutcome:
    """What enforcement did to one attack: verdict, coverage, residual damage."""

    verdict: str  # "blocked", "mitigated", or "passed"
    effectiveness: float
    damage: float


def resolve_attack(kind: str, intensity: float, tiers: tuple[int, int, int],
                   matrix: EffectivenessMatrix,
                   base_damage: dict | None = None) -> AttackOutcome:
    """Outcome of one attack burst against (firewall, rate-limit, isolation) tiers.

    Full coverage (e >= 1) blocks: zero damage. Zero coverage passes the
    attack at intensity x base damage. Partial coverage mitigates, scaling
    damage by (1 - e).
    """
    base_damage = BASE_DAMAGE if base_damage is None else base_damage
    e = matrix.effectiveness(kind, *tiers)
    try:
        base = base_damage[kind]
    except KeyError:
        raise InputError(f"no base damage for attack kind {kind!r}") from None
    if e >= 1.0:
        return AttackOutcome(verdict="blocked", effectiveness=e, damage=0.0)
    if e <= 0.0:
        return AttackOutcome(verdict="passed", effectiveness=e,
                             damage=intensity * base)
    return AttackOutcome(verdict="mitigated", effectiveness=e,
                         damage=(1.0 - e) * intensity * base)


@lru_cache(maxsize=1)
def default_matrix() -> EffectivenessMatrix:
    """Parametric default: per-kind tier leverage, saturating at full coverage."""
    table = {}
    for kind in LABELS:
        wf, wr, wi = _TIER_WEIGHTS[kind]
        for f in range(FIREWALL_TIERS):
            for r in range(RATE_LIMIT_TIERS):
                for i in range(ISOLATION_TIERS):
                    raw = (wf * f / (FIREWALL_TIERS - 1)
                           + wr * r / (RATE_LIMIT_TIERS - 1)
                           + wi * i / (ISOLATION_TIERS - 1))
                    table[(kind, f, r, i)] = min(1.0, raw)
    return EffectivenessMatrix(table)


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

    def to_dict(self) -> dict:
        return {
            "detection_ms": self.detection_ms,
            "policy_ms": self.policy_ms,
            "execution_ms": self.execution_ms,
            "total_ms": self.total_ms,
        }

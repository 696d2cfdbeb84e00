"""Defense posture, effectiveness lookup, and attack resolution."""

import numpy as np
import pytest

from cloudguard.enforcement import (
    BASE_DAMAGE,
    AttackOutcome,
    DefenseState,
    EffectivenessMatrix,
    LatencyBreakdown,
    apply_action,
    default_matrix,
    resolve_attack,
)
from cloudguard.errors import CatalogError, ConfigError, InputError
from cloudguard.policy import build_action_catalog, get_action
from cloudguard.telemetry import LABELS

CATALOG = build_action_catalog()

ALL_COMBOS = [(f, r, i) for f in range(5) for r in range(5) for i in range(3)]


def flat_matrix(kind: str, e: float) -> EffectivenessMatrix:
    """Single-kind matrix with the same effectiveness everywhere."""
    return EffectivenessMatrix({(kind, f, r, i): e for f, r, i in ALL_COMBOS})


OPEN = (0, 0, 0)


def action_with(fw, rl, iso):
    for a in CATALOG:
        if a.mode == "standard" and (a.firewall_tier, a.rate_limit_tier,
                                     a.isolation_tier) == (fw, rl, iso):
            return a
    raise AssertionError("no such combo")


class TestDefenseState:
    def test_defaults_to_open_posture(self):
        state = DefenseState()
        assert state.tiers() == (0, 0, 0)

    def test_tier_ranges_validated(self):
        with pytest.raises(ConfigError):
            DefenseState(firewall_tier=5)
        with pytest.raises(ConfigError):
            DefenseState(rate_limit_tier=-1)
        with pytest.raises(ConfigError):
            DefenseState(isolation_tier=3)


class TestApplyAction:
    def test_sets_tiers_absolutely(self):
        state = DefenseState(firewall_tier=4, rate_limit_tier=4, isolation_tier=2)
        a = action_with(1, 2, 0)
        returned, _ = apply_action(state, a.action_id, CATALOG)
        assert returned is state
        assert state.tiers() == (1, 2, 0)

    def test_read_back_matches_catalog_entry(self):
        state = DefenseState()
        for a in (CATALOG[0], CATALOG[40], CATALOG[120], CATALOG[186]):
            apply_action(state, a.action_id, CATALOG)
            assert state.tiers() == (a.firewall_tier, a.rate_limit_tier,
                                     a.isolation_tier)

    def test_idempotent(self):
        state = DefenseState()
        a = action_with(3, 1, 2)
        apply_action(state, a.action_id, CATALOG)
        snapshot = state.tiers()
        apply_action(state, a.action_id, CATALOG)
        assert state.tiers() == snapshot

    def test_latency_is_nonnegative_ms(self):
        state = DefenseState()
        _, latency = apply_action(state, 0, CATALOG)
        assert isinstance(latency, float)
        assert latency >= 0.0
        assert latency < 1000.0  # a tier write is far below a second

    def test_unknown_action_rejected_before_any_change(self):
        state = DefenseState(firewall_tier=2)
        with pytest.raises(CatalogError):
            apply_action(state, 999, CATALOG)
        assert state.tiers() == (2, 0, 0)


class TestMatrixValidation:
    def test_missing_combination_rejected(self):
        table = {("ddos", f, r, i): 0.5 for f, r, i in ALL_COMBOS}
        del table[("ddos", 2, 2, 1)]
        with pytest.raises(InputError, match="every tier combination"):
            EffectivenessMatrix(table)

    def test_out_of_range_effectiveness_rejected(self):
        table = {("ddos", f, r, i): 0.5 for f, r, i in ALL_COMBOS}
        table[("ddos", 1, 1, 1)] = 1.2
        with pytest.raises(InputError, match="outside"):
            EffectivenessMatrix(table)

    def test_monotonicity_violation_rejected(self):
        table = {("ddos", f, r, i): f / 8 for f, r, i in ALL_COMBOS}
        table[("ddos", 3, 0, 0)] = 0.1  # below the tier-2 value of 0.25
        with pytest.raises(InputError, match="decreases"):
            EffectivenessMatrix(table)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InputError):
            EffectivenessMatrix({})

    def test_unknown_kind_lookup(self):
        m = flat_matrix("ddos", 0.5)
        with pytest.raises(InputError):
            m.effectiveness("port_scan", 0, 0, 0)


class TestResolveAttack:
    def test_partial_coverage_mitigates(self):
        # e = 0.75 against a full-intensity flood leaves a quarter of the
        # base damage: 0.25 * 10 = 2.5
        m = flat_matrix("ddos", 0.75)
        out = resolve_attack("ddos", 1.0, OPEN, m)
        assert out.verdict == "mitigated"
        assert out.damage == pytest.approx(0.25 * BASE_DAMAGE["ddos"])

    def test_full_coverage_blocks(self):
        m = flat_matrix("ddos", 1.0)
        out = resolve_attack("ddos", 0.9, OPEN, m)
        assert out == AttackOutcome(verdict="blocked", effectiveness=1.0, damage=0.0)

    def test_zero_coverage_passes_at_full_damage(self):
        m = flat_matrix("data_exfiltration", 0.0)
        out = resolve_attack("data_exfiltration", 0.6, OPEN, m)
        assert out.verdict == "passed"
        assert out.damage == pytest.approx(0.6 * BASE_DAMAGE["data_exfiltration"])

    def test_open_posture_passes_every_kind(self):
        m = default_matrix()
        for kind in LABELS[1:]:
            out = resolve_attack(kind, 1.0, OPEN, m)
            assert out.verdict == "passed"
            assert out.damage == pytest.approx(BASE_DAMAGE[kind])

    def test_zero_intensity_deals_no_damage_under_any_verdict(self):
        for e in (0.0, 0.5, 1.0):
            out = resolve_attack("ddos", 0.0, OPEN, flat_matrix("ddos", e))
            assert out.damage == 0.0

    def test_damage_monotone_in_effectiveness(self):
        damages = [
            resolve_attack("sql_injection", 0.8, OPEN,
                           flat_matrix("sql_injection", e)).damage
            for e in np.linspace(0.0, 1.0, 11)
        ]
        assert all(b <= a for a, b in zip(damages, damages[1:]))

    def test_damage_linear_in_intensity(self):
        m = flat_matrix("brute_force", 0.4)
        lo = resolve_attack("brute_force", 0.3, OPEN, m)
        hi = resolve_attack("brute_force", 0.9, OPEN, m)
        assert hi.damage == pytest.approx(3.0 * lo.damage)

    def test_effectiveness_follows_posture(self):
        m = default_matrix()
        s = resolve_attack("ddos", 1.0, (0, 4, 0), m)
        w = resolve_attack("ddos", 1.0, (0, 1, 0), m)
        assert s.damage < w.damage

    def test_unknown_kind_in_base_damage(self):
        m = flat_matrix("ddos", 0.5)
        with pytest.raises(InputError):
            resolve_attack("ddos", 1.0, OPEN, m, base_damage={})


class TestDefaultMatrix:
    def test_covers_every_kind_and_combo(self):
        m = default_matrix()
        assert m.kinds == tuple(sorted(LABELS))
        for kind in LABELS:
            for f, r, i in ALL_COMBOS:
                assert 0.0 <= m.effectiveness(kind, f, r, i) <= 1.0

    def test_benign_is_never_actionable(self):
        m = default_matrix()
        for f, r, i in ALL_COMBOS:
            assert m.effectiveness("benign", f, r, i) == 0.0

    def test_posture_specialization(self):
        m = default_matrix()
        # rate limiting is the lever against floods
        assert m.effectiveness("ddos", 0, 4, 0) > m.effectiveness("ddos", 4, 0, 0)
        # the firewall is the lever against scans, injection, brute force
        for kind in ("port_scan", "sql_injection", "brute_force"):
            assert m.effectiveness(kind, 4, 0, 0) > m.effectiveness(kind, 0, 4, 0)
            assert m.effectiveness(kind, 4, 0, 0) > m.effectiveness(kind, 0, 0, 2)
        # isolation is the lever against exfiltration
        exfil = "data_exfiltration"
        assert m.effectiveness(exfil, 0, 0, 2) > m.effectiveness(exfil, 4, 0, 0)
        assert m.effectiveness(exfil, 0, 0, 2) > m.effectiveness(exfil, 0, 4, 0)

    def test_maximum_posture_blocks_every_attack(self):
        m = default_matrix()
        for kind in LABELS[1:]:
            out = resolve_attack(kind, 1.0, (4, 4, 2), m)
            assert out.verdict == "blocked", kind

    def test_packaged_matrix_is_cached(self):
        assert default_matrix() is default_matrix()


class TestLatencyBreakdown:
    def test_total_is_the_exact_stage_sum(self):
        lb = LatencyBreakdown.from_parts(4.25, 0.75, 0.125)
        assert lb.total_ms == 4.25 + 0.75 + 0.125
        rng = np.random.default_rng(0)
        for _ in range(50):
            d, p, e = rng.uniform(0, 100, size=3)
            lb = LatencyBreakdown.from_parts(d, p, e)
            assert lb.total_ms == pytest.approx(d + p + e, abs=1e-12)

    def test_negative_latency_rejected(self):
        with pytest.raises(InputError):
            LatencyBreakdown.from_parts(-1.0, 0.0, 0.0)

    def test_inconsistent_total_rejected(self):
        with pytest.raises(InputError):
            LatencyBreakdown(detection_ms=1.0, policy_ms=1.0,
                             execution_ms=1.0, total_ms=4.0)

    def test_dict_export(self):
        lb = LatencyBreakdown.from_parts(1.0, 2.0, 3.0)
        assert lb.to_dict() == {
            "detection_ms": 1.0, "policy_ms": 2.0,
            "execution_ms": 3.0, "total_ms": 6.0,
        }


def test_get_action_is_the_catalog_gate():
    # apply_action delegates unknown-id handling to the catalog lookup
    with pytest.raises(CatalogError):
        get_action(CATALOG, len(CATALOG))

"""Run enforcement, effectiveness matrix, and attack resolution."""

import dataclasses

import numpy as np
import pytest

from cloudguard.enforcement import (
    BASE_DAMAGE,
    OUTCOMES,
    LatencyBreakdown,
    apply_action,
    default_matrix,
    resolve_attack,
)
from cloudguard.errors import CatalogError, InputError
from cloudguard.policy import build_action_catalog, get_action
from cloudguard.telemetry import LABELS

CATALOG = build_action_catalog()

SHAPE = (len(LABELS), 5, 5, 3)
DDOS = LABELS.index("ddos")
OPEN = (0, 0, 0)


def resolve(kind: str, intensity: float, e: float) -> tuple[str, float]:
    """(outcome name, damage) of one attack at coverage e."""
    code, damage = resolve_attack(LABELS.index(kind), intensity, e)
    return OUTCOMES[code], damage


def action_with(fw, rl, iso):
    for a in CATALOG:
        if a.mode == "standard" and (a.firewall_tier, a.rate_limit_tier,
                                     a.isolation_tier) == (fw, rl, iso):
            return a
    raise AssertionError("no such combo")


class TestApplyAction:
    """The run's enforcement call: windows under their actions' tiers."""

    def test_sets_tiers_absolutely(self):
        # a window's outcome depends on its own action, not the one before
        a = action_with(1, 2, 0)
        heavy = action_with(4, 4, 2)
        kinds = np.array([DDOS, DDOS])
        ones = np.ones(2)
        after_open = apply_action([0, a.action_id], kinds, ones, ones)
        after_heavy = apply_action([heavy.action_id, a.action_id], kinds, ones, ones)
        for got, want in zip(after_heavy[:3], after_open[:3]):
            assert got[1] == want[1]

    def test_read_back_matches_catalog_entry(self):
        kinds = np.arange(1, len(LABELS))
        for a in (CATALOG[0], CATALOG[40], CATALOG[120], CATALOG[186]):
            ids = np.full(len(kinds), a.action_id)
            codes, attack, _, _ = apply_action(ids, kinds, 0.9, 0.0)
            coverage = default_matrix()[kinds, a.firewall_tier,
                                        a.rate_limit_tier, a.isolation_tier]
            want_codes, want_attack = resolve_attack(kinds, 0.9, coverage)
            np.testing.assert_array_equal(codes, want_codes)
            np.testing.assert_array_equal(attack, want_attack)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        ids = rng.integers(len(CATALOG), size=50)
        kinds = rng.integers(len(LABELS), size=50)
        intensity, load = rng.uniform(size=50), rng.uniform(size=50)
        first = apply_action(ids, kinds, intensity, load)
        again = apply_action(ids, kinds, intensity, load)
        for got, want in zip(again[:3], first[:3]):
            np.testing.assert_array_equal(got, want)

    def test_latency_is_nonnegative_ms(self):
        *_, latency = apply_action([0, 1], np.array([0, DDOS]),
                                   np.array([0.0, 1.0]), 0.5)
        assert isinstance(latency, float)
        assert latency >= 0.0
        assert latency < 1000.0  # two windows are far below a second

    def test_unknown_action_rejected_before_any_change(self):
        for bad in (999, -1, len(CATALOG)):
            with pytest.raises(CatalogError):
                apply_action([0, bad], [DDOS, DDOS], 1.0, 0.5)


class TestMatrixValidation:
    def test_unknown_kind_lookup(self):
        # label ids index the tables; an id past the label set cannot resolve
        with pytest.raises(IndexError):
            resolve_attack(len(LABELS), 1.0, 0.5)
        with pytest.raises(IndexError):
            default_matrix()[len(LABELS), 0, 0, 0]

    def test_default_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            default_matrix()[DDOS, 0, 0, 0] = 0.9


class TestResolveAttack:
    def test_partial_coverage_mitigates(self):
        # e = 0.75 against a full-intensity flood leaves a quarter of the
        # base damage: 0.25 * 10 = 2.5
        verdict, damage = resolve("ddos", 1.0, 0.75)
        assert verdict == "mitigated"
        assert damage == pytest.approx(0.25 * BASE_DAMAGE[DDOS])

    def test_full_coverage_blocks(self):
        assert resolve("ddos", 0.9, 1.0) == ("blocked", 0.0)

    def test_zero_coverage_passes_at_full_damage(self):
        verdict, damage = resolve("data_exfiltration", 0.6, 0.0)
        assert verdict == "passed"
        assert damage == 0.6 * BASE_DAMAGE[LABELS.index("data_exfiltration")]

    def test_open_posture_passes_every_kind(self):
        m = default_matrix()
        for kind_id, kind in enumerate(LABELS[1:], start=1):
            verdict, damage = resolve(kind, 1.0, m[(kind_id, *OPEN)])
            assert verdict == "passed"
            assert damage == BASE_DAMAGE[kind_id]

    def test_zero_intensity_deals_no_damage_under_any_verdict(self):
        for e in (0.0, 0.5, 1.0):
            assert resolve("ddos", 0.0, e) == ("none", 0.0)

    def test_damage_monotone_in_effectiveness(self):
        grid = np.linspace(0.0, 1.0, 11)
        codes, damages = resolve_attack(LABELS.index("sql_injection"), 0.8, grid)
        assert all(b <= a for a, b in zip(damages, damages[1:]))
        # the array call is the scalar call, element by element
        for e, code, damage in zip(grid, codes, damages):
            assert resolve("sql_injection", 0.8, e) == (OUTCOMES[code], damage)

    def test_damage_linear_in_intensity(self):
        _, lo = resolve("brute_force", 0.3, 0.4)
        _, hi = resolve("brute_force", 0.9, 0.4)
        assert hi == pytest.approx(3.0 * lo)

    def test_effectiveness_follows_posture(self):
        m = default_matrix()
        _, strong = resolve("ddos", 1.0, m[DDOS, 0, 4, 0])
        _, weak = resolve("ddos", 1.0, m[DDOS, 0, 1, 0])
        assert strong < weak

    def test_unknown_kind_in_base_damage(self):
        # one base damage per label id; benign windows never deal damage
        assert BASE_DAMAGE.shape == (len(LABELS),)
        assert BASE_DAMAGE[0] == 0.0 and (BASE_DAMAGE[1:] > 0).all()
        assert resolve("benign", 1.0, 0.0) == ("none", 0.0)


class TestDefaultMatrix:
    def test_covers_every_kind_and_combo(self):
        # one coverage fraction in [0, 1] per (label id, tier combination),
        # and raising any single tier never lowers it
        m = default_matrix()
        assert m.shape == SHAPE
        assert ((0.0 <= m) & (m <= 1.0)).all()
        for axis in (1, 2, 3):
            assert (np.diff(m, axis=axis) >= 0).all(), axis

    def test_benign_is_never_actionable(self):
        assert (default_matrix()[0] == 0.0).all()

    def test_posture_specialization(self):
        m = default_matrix()
        # rate limiting is the lever against floods
        assert m[DDOS, 0, 4, 0] > m[DDOS, 4, 0, 0]
        # the firewall is the lever against scans, injection, brute force
        for kind in ("port_scan", "sql_injection", "brute_force"):
            k = LABELS.index(kind)
            assert m[k, 4, 0, 0] > m[k, 0, 4, 0]
            assert m[k, 4, 0, 0] > m[k, 0, 0, 2]
        # isolation is the lever against exfiltration
        exfil = LABELS.index("data_exfiltration")
        assert m[exfil, 0, 0, 2] > m[exfil, 4, 0, 0]
        assert m[exfil, 0, 0, 2] > m[exfil, 0, 4, 0]

    def test_maximum_posture_blocks_every_attack(self):
        m = default_matrix()
        for kind_id, kind in enumerate(LABELS[1:], start=1):
            assert resolve(kind, 1.0, m[kind_id, 4, 4, 2])[0] == "blocked", kind

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
        assert dataclasses.asdict(lb) == {
            "detection_ms": 1.0, "policy_ms": 2.0,
            "execution_ms": 3.0, "total_ms": 6.0,
        }


def test_get_action_is_the_catalog_gate():
    # the lookup by id refuses an id past the catalog, as apply_action does
    with pytest.raises(CatalogError):
        get_action(CATALOG, len(CATALOG))

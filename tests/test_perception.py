"""Attention fusion and threat leveling."""

import numpy as np
import pytest

from cloudguard.detector import ThreatVerdict, verdict
from cloudguard.errors import DimensionError, InputError
from cloudguard.features import build_layout
from cloudguard.perception import (
    BAND_EDGES,
    DEFAULT_FUSION_DIM,
    DEFAULT_PERCEPTION_SEED,
    DEFAULT_SEVERITY,
    SOURCE_SEGMENTS,
    SOURCES,
    AttentionWeights,
    SourceEmbedding,
    ThreatLevel,
    build_embedders,
    build_scorer,
    context_from_fused,
    embed_window,
    fuse,
    level_for_score,
    summarize_threats,
    threat_score,
)


def make_embeddings(vectors):
    return [SourceEmbedding(source=s, vector=v) for s, v in zip(SOURCES, vectors)]


def basis_scorer(dim, axis=0):
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


def seeded_scorer(dim):
    """``build_scorer``'s draw at another fusion width."""
    rng = np.random.default_rng(DEFAULT_PERCEPTION_SEED + 1)
    return rng.normal(size=dim) / np.sqrt(dim)


def verdict_with(probs):
    probs = np.asarray(probs, dtype=np.float64)
    pred = int(np.argmax(probs))
    return ThreatVerdict(
        probabilities=probs,
        predicted=pred,
        max_probability=float(probs[pred]),
        confident=True,
    )


class TestEmbedders:
    def test_one_embedder_per_source_with_segment_widths(self):
        layout = build_layout(dim=428)
        embedders = build_embedders(layout)
        assert set(embedders) == set(SOURCES)
        assert embedders["traffic"].shape == (200, 16)
        assert embedders["logs"].shape == (128, 16)
        assert embedders["behavior"].shape == (100, 16)

    def test_seeded_and_reproducible(self):
        layout = build_layout(dim=64)
        a = build_embedders(layout)
        b = build_embedders(layout)
        # the three maps are drawn in source order from one seeded stream,
        # each uniform in +-1/sqrt(width)
        rng = np.random.default_rng(DEFAULT_PERCEPTION_SEED)
        for s in SOURCES:
            assert np.array_equal(a[s], b[s])
            start, end = layout.segments[SOURCE_SEGMENTS[s]]
            scale = 1.0 / np.sqrt(end - start)
            want = rng.uniform(-scale, scale, size=(end - start, DEFAULT_FUSION_DIM))
            assert np.array_equal(a[s], want), s
        assert np.array_equal(build_scorer(), seeded_scorer(DEFAULT_FUSION_DIM))

    def test_embed_window_is_linear_in_the_segment(self):
        layout = build_layout(dim=64)
        embedders = build_embedders(layout)
        rng = np.random.default_rng(0)
        fv1 = rng.normal(size=64)
        fv2 = rng.normal(size=64)
        e1 = embed_window(fv1, layout, embedders)
        e2 = embed_window(fv2, layout, embedders)
        esum = embed_window(fv1 + fv2, layout, embedders)
        for a, b, s in zip(e1, e2, esum):
            np.testing.assert_allclose(a.vector + b.vector, s.vector, atol=1e-12)

    def test_embed_window_rejects_wrong_width(self):
        layout = build_layout(dim=64)
        embedders = build_embedders(layout)
        with pytest.raises(DimensionError):
            embed_window(np.zeros(63), layout, embedders)
        # maps drawn for another layout do not fit its segments
        with pytest.raises(DimensionError, match="traffic"):
            embed_window(np.zeros(428), build_layout(dim=428), embedders)


class TestFusion:
    def test_hand_checked_score_softmax(self):
        # scores come out as [ln 2, 0, 0], so weights are [1/2, 1/4, 1/4]
        dim = 4
        vecs = [np.zeros(dim) for _ in range(3)]
        vecs[0][0] = np.log(2.0)
        fused, weights = fuse(make_embeddings(vecs), basis_scorer(dim))
        np.testing.assert_allclose(weights.values, [0.5, 0.25, 0.25], atol=1e-12)
        np.testing.assert_allclose(fused, 0.5 * vecs[0], atol=1e-12)

    def test_identical_sources_fuse_uniformly(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=16)
        scorer = build_scorer()
        fused, weights = fuse(make_embeddings([v, v, v]), scorer)
        np.testing.assert_allclose(weights.values, [1 / 3] * 3, atol=1e-12)
        np.testing.assert_allclose(fused, v, atol=1e-12)

    def test_weights_sum_to_one_on_random_inputs(self):
        rng = np.random.default_rng(11)
        scorer = seeded_scorer(8)
        for _ in range(250):
            vecs = [rng.normal(size=8) * rng.uniform(0.1, 50) for _ in range(3)]
            fused, weights = fuse(make_embeddings(vecs), scorer)
            assert abs(weights.values.sum() - 1.0) <= 1e-9
            assert (weights.values >= 0).all()
            assert np.isfinite(fused).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        vecs = [rng.normal(size=8) for _ in range(3)]
        scorer = seeded_scorer(8)
        base = make_embeddings(vecs)
        fused_a, w_a = fuse(base, scorer)
        order = [2, 0, 1]
        fused_b, w_b = fuse([base[i] for i in order], scorer)
        np.testing.assert_allclose(fused_a, fused_b, atol=1e-12)
        for spot, i in enumerate(order):
            assert w_b.sources[spot] == base[i].source
            assert w_b.values[spot] == pytest.approx(w_a.values[i], abs=1e-12)

    def test_dominant_score_dominates_weight(self):
        dim = 4
        vecs = [np.zeros(dim) for _ in range(3)]
        vecs[2][0] = 40.0
        _, weights = fuse(make_embeddings(vecs), basis_scorer(dim))
        assert weights.values[2] > 0.999
        assert weights.by_source()["behavior"] == pytest.approx(weights.values[2])

    def test_missing_source_rejected(self):
        vecs = [np.zeros(4)] * 3
        emb = make_embeddings(vecs)
        emb[1] = SourceEmbedding(source="traffic", vector=np.zeros(4))
        with pytest.raises(InputError):
            fuse(emb, basis_scorer(4))
        with pytest.raises(InputError):
            fuse(emb[:2], basis_scorer(4))

    def test_mismatched_dimensions_rejected(self):
        emb = make_embeddings([np.zeros(4), np.zeros(5), np.zeros(4)])
        with pytest.raises(DimensionError):
            fuse(emb, basis_scorer(4))

    def test_weights_object_validates(self):
        with pytest.raises(InputError):
            AttentionWeights(sources=SOURCES, values=np.array([0.5, 0.5, 0.5]))
        with pytest.raises(InputError):
            AttentionWeights(sources=SOURCES, values=np.array([1.2, -0.1, -0.1]))


class TestRunPerception:
    """A run's [N, D] matrix in one call against the per-window chain."""

    @staticmethod
    def window_chain(fv, layout, embedders, scorer):
        fused, weights = fuse(embed_window(fv, layout, embedders), scorer)
        return context_from_fused(fused), weights.values

    @pytest.mark.parametrize("n", [1, 7, 33, 130])
    def test_run_matches_the_window_chain(self, n):
        layout = build_layout(dim=428)
        embedders, scorer = build_embedders(layout), build_scorer()
        x = np.random.default_rng(n).normal(size=(n, 428)) * 3.0
        fused, weights = fuse(embed_window(x, layout, embedders), scorer)
        contexts = context_from_fused(fused)
        assert fused.shape == (n, 16) and weights.values.shape == (n, 3)
        assert (weights.values >= 0).all()
        assert np.abs(weights.values.sum(axis=1) - 1.0).max() <= 1e-9
        for i in range(n):
            context, values = self.window_chain(x[i], layout, embedders, scorer)
            assert abs(contexts[i] - context) <= 4.5e-16, i
            if n == 1:
                assert contexts[i] == context
                assert np.array_equal(weights.values[i], values)

    def test_run_rows_of_the_wrong_width_rejected(self):
        layout = build_layout(dim=64)
        embedders = build_embedders(layout)
        with pytest.raises(DimensionError):
            embed_window(np.zeros((5, 63)), layout, embedders)
        with pytest.raises(DimensionError):
            embed_window(np.zeros((2, 5, 64)), layout, embedders)

    def test_weights_object_validates_each_row(self):
        good = np.full((4, 3), 1 / 3)
        assert AttentionWeights(sources=SOURCES, values=good).values.shape == (4, 3)
        bad = good.copy()
        bad[2] = [0.5, 0.5, 0.5]
        with pytest.raises(InputError):
            AttentionWeights(sources=SOURCES, values=bad)


class TestThreatLevels:
    def test_band_edges_are_half_open(self):
        cases = [
            (0.0, 1), (0.19, 1),
            (0.2, 2), (0.39, 2),
            (0.4, 3), (0.59, 3),
            (0.6, 4), (0.79, 4),
            (0.8, 5), (0.95, 5), (1.0, 5),
        ]
        for score, expected in cases:
            assert level_for_score(score).level == expected, score

    def test_levels_monotone_in_score(self):
        scores = np.sort(np.random.default_rng(2).uniform(0, 1, size=200))
        levels = [level_for_score(s).level for s in scores]
        assert all(b >= a for a, b in zip(levels, levels[1:]))

    def test_run_levels_are_the_per_window_levels(self):
        # edges, their neighbours and scores outside [0, 1] included
        edges = np.array(BAND_EDGES)
        scores = np.concatenate([
            np.random.default_rng(3).uniform(-0.5, 1.5, size=500),
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        run = level_for_score(scores)
        assert run.level.tolist() == [level_for_score(float(s)).level for s in scores]
        assert run.band.tolist() == [ThreatLevel(int(v)).band for v in run.level]
        assert summarize_threats(run) == \
            summarize_threats([ThreatLevel(int(v)) for v in run.level])

    def test_run_levels_are_checked(self):
        with pytest.raises(InputError):
            ThreatLevel(np.array([1, 5, 6]))

    def test_band_grouping(self):
        assert ThreatLevel(1).band == "low"
        assert ThreatLevel(2).band == "medium"
        assert ThreatLevel(3).band == "medium"
        assert ThreatLevel(4).band == "high"
        assert ThreatLevel(5).band == "high"
        with pytest.raises(InputError):
            ThreatLevel(0)
        with pytest.raises(InputError):
            ThreatLevel(6)

    def test_threat_score_is_the_three_way_product(self):
        v = verdict_with([0.05, 0.9, 0.02, 0.01, 0.01, 0.01])
        assert threat_score(v, 0.5) == pytest.approx(0.9 * 1.0 * 0.5)
        v2 = verdict_with([0.9, 0.02, 0.02, 0.02, 0.02, 0.02])
        assert threat_score(v2, 1.0) == pytest.approx(0.9 * DEFAULT_SEVERITY["benign"])

    def test_threat_score_of_a_run_is_each_windows_score(self):
        rows = np.random.default_rng(3).dirichlet(np.ones(len(DEFAULT_SEVERITY)),
                                                  size=20)
        context = np.linspace(0.0, 1.0, 20)
        scores = threat_score(verdict(rows, 0.5), context)
        assert scores.shape == (20,)
        assert scores.tolist() == [threat_score(verdict(r, 0.5), c)
                                   for r, c in zip(rows, context)]
        for bad in (1.5, np.nan):
            with pytest.raises(InputError):
                threat_score(verdict(rows, 0.5), np.append(context[1:], bad))

    def test_assessment_monotone_in_probability(self):
        context = 0.8
        last = 0
        for p in (0.3, 0.5, 0.7, 0.9, 0.99):
            rest = (1 - p) / 5
            v = verdict_with([rest, p, rest, rest, rest, rest])
            level = level_for_score(threat_score(v, context)).level
            assert level >= last
            last = level

    def test_context_factor_validated(self):
        v = verdict_with([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(InputError):
            threat_score(v, 1.5)
        with pytest.raises(InputError):
            threat_score(v, -0.1)

    def test_context_from_fused(self):
        assert context_from_fused(np.zeros(8)) == pytest.approx(0.5)
        big = context_from_fused(np.full(8, 100.0))
        assert 0.99 < big <= 1.0
        a = context_from_fused(np.full(8, 0.5))
        b = context_from_fused(np.full(8, 1.5))
        assert b > a

    def test_band_edge_constants(self):
        assert BAND_EDGES == (0.2, 0.4, 0.6, 0.8)


class TestSummary:
    def test_exact_fractions(self):
        levels = (
            [ThreatLevel(1)] * 123 + [ThreatLevel(3)] * 587 + [ThreatLevel(5)] * 290
        )
        dist = summarize_threats(levels)
        assert dist.fractions["low"] == 123 / 1000
        assert dist.fractions["medium"] == 587 / 1000
        assert dist.fractions["high"] == 290 / 1000

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(9)
        levels = [ThreatLevel(int(v)) for v in rng.integers(1, 6, size=777)]
        dist = summarize_threats(levels)
        assert sum(dist.fractions.values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            summarize_threats([])

    def test_single_band(self):
        dist = summarize_threats([ThreatLevel(4), ThreatLevel(5)])
        assert dist.fractions == {"low": 0.0, "medium": 0.0, "high": 1.0}

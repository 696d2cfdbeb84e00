"""Multi-source threat perception: attention fusion and threat leveling.

Three sources (traffic, logs, behavior) are embedded from slices of the
feature vector by seeded linear maps, then fused by dot-product attention:
each source is scored against a learned vector, scores softmax into weights,
and the fused context is the weighted sum. The temporal segment carries the
per-bin log activity counts, so it stands in as the log source's input.

Embedding, fusion and the context factor take one window's ``[D]`` feature
vector or a run's ``[N, D]`` matrix: a leading window axis carries through
each step, so a run is perceived in one call along the same path as a window.

The maps are plain arrays of fixed size, drawn from
``DEFAULT_PERCEPTION_SEED``: each source's is a ``[W, F]`` matrix into a
``DEFAULT_FUSION_DIM``-wide fusion space, and the scorer an ``[F]`` vector.

A verdict plus fused context maps to a five-level threat score, weighted by
the predicted class's ``DEFAULT_SEVERITY``; levels group into bands (1 low,
2-3 medium, 4-5 high).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError
from .features import FeatureLayout
from .nn.layers import softmax
from .telemetry import LABELS

SOURCES = ("traffic", "logs", "behavior")

# which layout segment feeds each source embedder
SOURCE_SEGMENTS = {"traffic": "traffic", "logs": "time_series", "behavior": "behavior"}

# relative severity of each predicted class when scoring threats, and the
# same by label id
DEFAULT_SEVERITY = {
    "benign": 0.05,
    "ddos": 1.0,
    "sql_injection": 0.95,
    "port_scan": 0.7,
    "brute_force": 0.8,
    "data_exfiltration": 1.0,
}
SEVERITY = np.array([DEFAULT_SEVERITY[k] for k in LABELS])

# level k covers [edge_{k-1}, edge_k); scores at an edge take the upper level
BAND_EDGES = (0.2, 0.4, 0.6, 0.8)

BANDS = ("low", "medium", "high")

DEFAULT_FUSION_DIM = 16
DEFAULT_PERCEPTION_SEED = 7


@dataclass(frozen=True)
class SourceEmbedding:
    """One source's fixed-width embedding: ``[F]``, or ``[N, F]`` for a run."""

    source: str
    vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=np.float64))
        if not np.isfinite(self.vector).all():
            raise InputError(f"{self.source} embedding contains non-finite values")


@dataclass(frozen=True)
class AttentionWeights:
    """Per-source fusion weights, in the order the sources were given:
    ``[3]``, or ``[N, 3]`` with one row per window of a run."""

    sources: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if (self.values < 0).any() or \
                (np.abs(self.values.sum(axis=-1) - 1.0) > 1e-9).any():
            raise InputError("attention weights must be nonnegative and sum to 1")

    def by_source(self) -> dict[str, float]:
        """One window's weights by source name."""
        return {s: float(v) for s, v in zip(self.sources, self.values)}


def build_embedders(layout: FeatureLayout) -> dict[str, np.ndarray]:
    """One seeded ``[W, F]`` linear map per source, from the source's layout
    segment to the fusion space, all drawn from a single stream."""
    rng = np.random.default_rng(DEFAULT_PERCEPTION_SEED)
    out = {}
    for source in SOURCES:
        start, end = layout.segments[SOURCE_SEGMENTS[source]]
        scale = 1.0 / np.sqrt(end - start)
        out[source] = rng.uniform(-scale, scale, size=(end - start, DEFAULT_FUSION_DIM))
    return out


def build_scorer() -> np.ndarray:
    """The ``[F]`` dot-product relevance vector over the fusion space."""
    # seed + 1: a distinct stream from the embedders
    rng = np.random.default_rng(DEFAULT_PERCEPTION_SEED + 1)
    return rng.normal(size=DEFAULT_FUSION_DIM) / np.sqrt(DEFAULT_FUSION_DIM)


def embed_window(fv: np.ndarray, layout: FeatureLayout,
                 embedders: dict[str, np.ndarray]) -> list[SourceEmbedding]:
    """Slice a feature vector, ``[D]``, or a run's ``[N, D]`` feature matrix
    into its three source embeddings."""
    fv = np.asarray(fv, dtype=np.float64)
    if fv.ndim not in (1, 2) or fv.shape[-1] != layout.dim:
        raise DimensionError(f"vector shape {fv.shape} does not match layout {layout.dim}")
    out = []
    for source in SOURCES:
        seg = fv[..., layout.segment_slice(SOURCE_SEGMENTS[source])]
        weights = embedders[source]
        if seg.shape[-1] != weights.shape[0]:
            raise DimensionError(f"segment width {seg.shape[-1]} does not match "
                                 f"the {source} embedder's {weights.shape[0]}")
        out.append(SourceEmbedding(source=source, vector=seg @ weights))
    return out


def fuse(embeddings: list[SourceEmbedding],
         score_vector: np.ndarray) -> tuple[np.ndarray, AttentionWeights]:
    """Attention-weighted combination of the three source embeddings.

    weight_i = softmax_i(score_vector . e_i); fused = sum_i weight_i * e_i.
    The weights follow the order the embeddings were passed in. Embeddings of
    a run, ``[N, F]`` each, give ``[N, F]`` fused rows and ``[N, 3]`` weights.
    """
    present = [e.source for e in embeddings]
    if sorted(present) != sorted(SOURCES):
        missing = set(SOURCES) - set(present)
        raise InputError(
            f"fusion needs each source exactly once; missing or duplicated: "
            f"{sorted(missing) if missing else present}"
        )
    dims = {e.vector.shape for e in embeddings}
    if len(dims) != 1:
        raise DimensionError(f"embedding dimensions disagree: {sorted(dims)}")
    if embeddings[0].vector.shape[-1:] != np.shape(score_vector):
        raise DimensionError("scorer dimension does not match embeddings")
    vectors = np.stack([e.vector for e in embeddings], axis=-2)  # [..., 3, F]
    weights = softmax(vectors @ score_vector)
    fused = (weights[..., None] * vectors).sum(axis=-2)
    return fused, AttentionWeights(sources=tuple(present), values=weights)


# band index of each threat level, at index level - 1
_LEVEL_BAND = np.array([0, 1, 1, 2, 2])


@dataclass(frozen=True)
class ThreatLevel:
    """Integer severity 1-5 with its derived band. A run's levels are one
    ThreatLevel whose ``level`` is an ``[N]`` int array."""

    level: int | np.ndarray

    def __post_init__(self):
        level = self.level
        if not (((1 <= level) & (level <= 5)).all() if isinstance(level, np.ndarray)
                else 1 <= level <= 5):
            raise InputError(f"threat level must be 1..5, got {level}")

    @property
    def band(self):
        """"low", "medium" or "high"; an ``[N]`` array of them for a run."""
        band = _LEVEL_BAND[self.level - 1]
        return BANDS[band] if band.ndim == 0 else np.array(BANDS)[band]


def context_from_fused(fused: np.ndarray) -> float | np.ndarray:
    """Squash a fused embedding into a [0, 1] context factor: a float for
    ``[F]``, one factor per window for a run's ``[N, F]``."""
    return 0.5 + 0.5 * np.tanh(np.abs(np.asarray(fused)).mean(axis=-1))


def threat_score(verdict, context_factor):
    """Raw threat score: max probability x class severity x context factor,
    a float for one window's verdict, ``[N]`` scores for a run's verdict."""
    if not np.all((0.0 <= context_factor) & (context_factor <= 1.0)):
        raise InputError(f"context factor must be in [0, 1], got {context_factor}")
    score = verdict.max_probability * SEVERITY[verdict.predicted] * context_factor
    return float(score) if score.ndim == 0 else score


def level_for_score(score) -> ThreatLevel:
    """Map a score to a level via the half-open band edges: an int level for
    one score, ``[N]`` levels from one search for a run's ``[N]`` scores."""
    level = 1 + np.searchsorted(BAND_EDGES, score, side="right")
    return ThreatLevel(level=int(level) if level.ndim == 0 else level)


@dataclass(frozen=True)
class ThreatDistribution:
    """Fraction of assessed events per band."""

    fractions: dict[str, float]


def summarize_threats(levels) -> ThreatDistribution:
    """Band fractions over a non-empty list of assessments, or over one
    ThreatLevel of a run's levels."""
    level = np.ravel(levels.level if isinstance(levels, ThreatLevel)
                     else [tl.level for tl in levels])
    if not level.size:
        raise InputError("cannot summarize an empty list of threat levels")
    counts = np.bincount(_LEVEL_BAND[level - 1], minlength=len(BANDS)).tolist()
    return ThreatDistribution(
        fractions={band: count / level.size for band, count in zip(BANDS, counts)}
    )

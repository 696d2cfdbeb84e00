"""
Attention fusion and threat levels
==================================

Fuse the three telemetry sources with attention weights, grade verdicts
into five threat levels, and summarize a whole stream into band
fractions.
"""

from cloudguard.baseline import RuleBasedDetector, default_rules
from cloudguard.features import build_layout, extract_features, fit_normalizer, normalize
from cloudguard.perception import (
    build_embedders,
    build_scorer,
    context_from_fused,
    embed_window,
    fuse,
    level_for_score,
    summarize_threats,
    threat_score,
)
from cloudguard.scenario import AttackSpec, ScenarioConfig, generate_stream
from cloudguard.telemetry import LABELS

# 1. a short stream with three very different bursts
config = ScenarioConfig(
    duration_ms=120000,
    benign_rate=60.0,
    seed=11,
    attacks=[
        AttackSpec(kind="ddos", intensity=0.9, start=15000, end=35000),
        AttackSpec(kind="port_scan", intensity=0.7, start=55000, end=70000),
        AttackSpec(kind="data_exfiltration", intensity=0.8, start=90000, end=110000),
    ],
)
stream = generate_stream(config)
layout = build_layout()
vectors = extract_features(stream.run, layout)  # one call per run
normed = normalize(vectors, fit_normalizer(vectors))

# 2. seeded embedders map each layout segment into one fusion space;
#    a dot-product scorer turns relevance into softmax weights
embedders = build_embedders(layout)
scorer = build_scorer()
print("attention weights per source (weights always sum to 1):")
for name, idx in (("benign", 5), ("ddos", 25), ("exfiltration", 100)):
    fused, weights = fuse(embed_window(normed[idx], layout, embedders), scorer)
    parts = ", ".join(f"{s} {v:.3f}" for s, v in weights.by_source().items())
    print(f"  window {idx:3d} ({name:12s}): {parts}")

# 3. verdict + fused context -> score -> one of five levels in three bands.
#    The rule engine supplies quick verdicts here, one verdict of arrays for
#    the whole stream; the neural detector's classify_series plugs into the
#    same scoring path.
engine = RuleBasedDetector(default_rules(), layout)
verdict = engine.classify_batch(vectors)
fused, _ = fuse(embed_window(normed, layout, embedders), scorer)
scores = threat_score(verdict, context_from_fused(fused))
levels = [level_for_score(score) for score in scores]
print("\nwindow  truth              score  level  band")
for i in (5, 25, 60, 100):
    truth = stream.windows[i].label or "benign"
    level = levels[i]
    print(f"{i:6d}  {truth:18s} {scores[i]:.3f}  {level.level:5d}  {level.band}")

# 4. the whole stream summarized as band fractions
dist = summarize_threats(levels)
print("\nthreat distribution over", len(levels), "windows:",
      {band: round(frac, 3) for band, frac in dist.fractions.items()})

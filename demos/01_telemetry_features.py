"""
Synthetic telemetry and the feature map
=======================================

Generate one labeled scenario, look at the columnar events inside a quiet
window and an attacked one, then turn both into fixed-width feature
vectors and check that each attack kind's marker feature stands out
from the benign baseline.
"""

from collections import Counter

import numpy as np

from cloudguard.features import build_layout, extract_features, fit_normalizer, normalize
from cloudguard.scenario import (
    MARKER_FEATURES,
    AttackSpec,
    ScenarioConfig,
    generate_stream,
    verify_separability,
)

# 1. a two-minute scenario: steady benign traffic plus two attack bursts
config = ScenarioConfig(
    duration_ms=120000,
    benign_rate=60.0,
    seed=7,
    attacks=[
        AttackSpec(kind="ddos", intensity=0.9, start=20000, end=40000),
        AttackSpec(kind="sql_injection", intensity=0.8, start=70000, end=90000),
    ],
)
stream = generate_stream(config)
labels = [w.label or "benign" for w in stream.windows]
print(f"{config.n_windows} one-second windows:", dict(Counter(labels)))

# 2. raw events inside a benign window vs the middle of the flood: each
#    window holds one set of numpy columns per source
benign_win = stream.windows[5]
ddos_win = stream.windows[30]
for name, win in (("benign", benign_win), ("ddos", ddos_win)):
    mix = {cols.kind: len(cols) for cols in win.sources}
    print(f"{name:7s} window [{win.start}, {win.end}) ms: "
          f"{win.event_count} events {mix}")
first = ddos_win.events[0]  # event objects are built only when read
print(f"first ddos-window event: {first}")

# 3. the feature layout: three named segments partitioning one vector
layout = build_layout()
print(f"\nfeature vector width {layout.dim}, segments:")
for segment, (start, end) in layout.segments.items():
    print(f"  {segment:12s} [{start:3d}, {end:3d})  {end - start} features")

# 4. featurize the stream's run, the columns its windows are cut from, in
#    one call ([windows, features]) and compare each attack kind's marker
#    feature on the two windows
vectors = extract_features(stream.run, layout)
fv_benign, fv_ddos = vectors[5], vectors[30]
print("\nmarker features, benign vs ddos window:")
for kind, feature in MARKER_FEATURES.items():
    i = layout.index_of(feature)
    print(f"  {feature:38s} {fv_benign[i]:10.1f} {fv_ddos[i]:12.1f}"
          f"   (marks {kind})")

# 5. the generator guarantees separability; the check returns z-scores
z_scores = verify_separability(stream, layout)
print("\nmarker z-scores vs benign traffic (must clear 3.0):")
for kind, z in sorted(z_scores.items()):
    print(f"  {kind:18s} z = {z:8.1f}")

# 6. normalization stats fitted on the stream make the scales comparable
stats = fit_normalizer(vectors)
normed = normalize(vectors, stats)
print(f"\nafter normalization: mean |column| = "
      f"{np.abs(normed.mean(axis=0)).max():.2e}, "
      f"max |value| = {np.abs(normed).max():.1f}")

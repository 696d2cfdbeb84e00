"""
Learning the response policy
============================

Encode situations into discrete states, train double Q-tables against
the simulated defense environment, and inspect what the greedy policy
chose for the situations it visited.
"""

from dataclasses import replace

import numpy as np

from cloudguard.environment import DefenseEnv, EnvConfig, defense_train_config
from cloudguard.policy import (
    N_STATES,
    STATE_RADICES,
    build_action_catalog,
    compose_indicators,
    decode_state,
    encode_state,
    epsilon_at,
    greedy_policy,
    train_policy,
)
from cloudguard.telemetry import LABELS

# 1. the state: four signals, each bucketed into a handful of ranges and
#    packed into one key
print(f"{N_STATES} reachable states")
for name, radix in zip(("threat", "load", "attack_kind", "recent_action"),
                       STATE_RADICES):
    print(f"  {name:14s} -> {radix} buckets")

# 2. encode one concrete situation and read it back
buckets = compose_indicators(threat=0.83, load=0.67,
                             kind_probs=np.eye(len(LABELS))[LABELS.index("ddos")],
                             recent_action=0.0)
state = encode_state(buckets)
print(f"\nheavy ddos under load encodes to state {state}, "
      f"buckets {decode_state(state)}")

# 3. the action catalog: firewall/rate-limit/isolation tier combinations
#    plus burst and sustained variants of the stronger ones
catalog = build_action_catalog()
print(f"\n{len(catalog)} catalog actions; a few of them:")
for action in (catalog[0], catalog[55], catalog[74], catalog[100]):
    print(f"  id {action.action_id:3d}: firewall {action.firewall_tier}, "
          f"rate-limit {action.rate_limit_tier}, isolation "
          f"{action.isolation_tier}, {action.mode}, cost {action.cost:.2f}")

# 4. train against the simulated environment with the stock schedule;
#    exploration anneals linearly before settling at its floor
cfg = defense_train_config(seed=0)
for episode in (0, cfg.episodes // 2, cfg.episodes - 1):
    print(f"epsilon at episode {episode:4d}: {epsilon_at(cfg, episode):.3f}")
tables, curve = train_policy(DefenseEnv(EnvConfig(seed=0)), cfg)

decile = len(curve.moving_avg) // 10
early = float(np.mean(curve.moving_avg[:decile]))
late = float(np.mean(curve.moving_avg[-decile:]))
print(f"mean episode reward, first decile {early:.1f} -> last decile {late:.1f}")

# 5. what the greedy policy chose, by perceived attack kind. Buckets read
#    (threat, load, kind, recent action); attacks should draw real tiers
#    while benign windows stay cheap. Sticking to heavily visited states
#    keeps the sample to choices the agent actually settled on.
chosen = greedy_policy(tables)
visits = {state: int(tables.visits[state].sum()) for state in chosen}
print(f"\n{len(chosen)} states visited; greedy picks where visits >= 400:")
shown = set()
for state in sorted(chosen, key=lambda s: -visits[s]):
    if visits[state] < 400:
        break
    threat_bucket, load_bucket, kind_bucket, _ = decode_state(state)
    kind = LABELS[kind_bucket]
    if kind in shown or (kind == "benign") != (threat_bucket == 0):
        continue
    shown.add(kind)
    action = catalog[chosen[state]]
    print(f"  {kind:18s} threat bucket {threat_bucket}, load bucket "
          f"{load_bucket}, {visits[state]:5d} visits -> tiers "
          f"({action.firewall_tier}, {action.rate_limit_tier}, "
          f"{action.isolation_tier}) {action.mode}")

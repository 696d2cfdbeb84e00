"""The state key against the 232-wide indicator encoding it replaced.

The oracle is a minimal copy of that encoding: broadcast each signal into
its region, reduce each region to one bucket (the mean against the axis
edges, or the first argmax for attack kind), then pack mixed-radix with the
first axis least significant.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cloudguard.policy import build_action_catalog, compose_indicators, encode_state

THREAT_EDGES = (0.2, 0.4, 0.6, 0.8)
LOAD_EDGES = (0.25, 0.5, 0.75)
RECENT_EDGES = (1 / 3, 2 / 3)

# (start, end, edges); edges None marks the argmax axis
_AXES = (
    (0, 58, THREAT_EDGES),
    (58, 116, LOAD_EDGES),
    (116, 122, None),
    (122, 232, RECENT_EDGES),
)


def oracle_key(threat, load, kind_probs, recent):
    v = np.zeros(232)
    v[0:58] = threat
    v[58:116] = load
    v[116:122] = kind_probs
    v[122:232] = recent
    key, mult = 0, 1
    for start, end, edges in _AXES:
        region = v[start:end]
        if edges is None:
            bucket, radix = int(np.argmax(region)), end - start
        else:
            bucket = int(np.searchsorted(edges, float(region.mean()), side="right"))
            radix = len(edges) + 1
        key += bucket * mult
        mult *= radix
    return key


def new_key(threat, load, kind_probs, recent):
    return encode_state(compose_indicators(threat, load, kind_probs, recent))


def clear_of(value, edges):
    return all(abs(value - e) > 1e-9 for e in edges)


_signal = st.floats(-0.5, 1.5)
_probs = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                  min_size=6, max_size=6)


@settings(max_examples=500, deadline=None)
@given(_signal, _signal, _probs, _signal)
def test_key_matches_the_indicator_encoding(threat, load, probs, recent):
    assume(clear_of(threat, THREAT_EDGES))
    assume(clear_of(load, LOAD_EDGES))
    assume(clear_of(recent, RECENT_EDGES))
    probs = np.array(probs)
    assert new_key(threat, load, probs, recent) == oracle_key(threat, load, probs, recent)


def test_key_matches_on_every_recent_action_value():
    # the simulation feeds back tier_norm() of the last action; some of these
    # move by a few ulps in the 110-wide mean, but none crosses an edge
    norms = sorted({a.tier_norm() for a in build_action_catalog()})
    assert len(norms) == 13
    probs = np.eye(6)
    for recent in norms:
        for threat in (0.1, 0.5, 0.9):
            for load in (0.1, 0.6):
                for kind in range(6):
                    assert (new_key(threat, load, probs[kind], recent)
                            == oracle_key(threat, load, probs[kind], recent))

"""The run generator against the per-window reference generator.

``generate_stream`` draws every window from its own substream and then
transforms, merges and encodes the whole run at once; ``scenario_oracle``
does each window alone. The two must give the same windows: columns, column
dtypes, vocabularies, labels and spans.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from cloudguard.scenario import (
    AttackSpec,
    ScenarioConfig,
    generate_stream,
    generate_window,
)
from cloudguard.telemetry import ATTACK_KINDS

from .scenario_oracle import oracle_window


def assert_same_window(got, want):
    assert (got.start, got.end, got.label, got.strings) == \
        (want.start, want.end, want.label, want.strings)
    for cols, ref in zip(got.sources, want.sources):
        for name in cols.names:
            a, b = getattr(cols, name), getattr(ref, name)
            assert a.dtype == b.dtype, f"{cols.kind}.{name}"
            assert a.tolist() == b.tolist(), f"{cols.kind}.{name}"
    assert got == want


@st.composite
def configs(draw):
    """Small scenarios: rates down to 0.5 events/s (so many blocks draw no
    event), windows other than a second, specs overlapping each other and
    starting and ending mid-window."""
    window_ms = draw(st.sampled_from([100, 250, 500, 1000, 1500]))
    duration_ms = window_ms * draw(st.integers(1, 8))
    specs = []
    for kind, level, a, b in draw(st.lists(st.tuples(
            st.sampled_from(ATTACK_KINDS), st.integers(1, 10),
            st.integers(0, duration_ms), st.integers(0, duration_ms)), max_size=6)):
        if a != b:
            specs.append(AttackSpec(kind=kind, intensity=level / 10,
                                    start=min(a, b), end=max(a, b)))
    return ScenarioConfig(
        duration_ms=duration_ms, window_ms=window_ms,
        benign_rate=draw(st.sampled_from([0.5, 2.0, 6.0, 60.0, 150.0])),
        attacks=tuple(specs), seed=draw(st.integers(0, 2**64 - 1)),
        ddos_surge=draw(st.sampled_from([1.5, 8.0])))


@settings(max_examples=150, deadline=None)
@given(configs())
def test_stream_matches_per_window_oracle(cfg):
    stream = generate_stream(cfg)
    assert len(stream.windows) == cfg.n_windows
    for i, window in enumerate(stream.windows):
        assert_same_window(window, oracle_window(cfg, i))


@settings(max_examples=40, deadline=None)
@given(configs())
def test_each_window_alone_matches_its_place_in_the_stream(cfg):
    stream = generate_stream(cfg)
    for i in range(cfg.n_windows):
        assert_same_window(generate_window(cfg, i), stream.windows[i])


def cut(cfg: ScenarioConfig, k: int) -> ScenarioConfig:
    """``cfg`` cut to its first k windows: later specs dropped, ends clipped."""
    end = k * cfg.window_ms
    return dataclasses.replace(cfg, duration_ms=end, attacks=tuple(
        dataclasses.replace(spec, end=min(spec.end, end))
        for spec in cfg.attacks if spec.start < end))


@settings(max_examples=40, deadline=None)
@given(configs(), st.integers(1, 8))
def test_cut_config_generates_the_streams_first_windows(cfg, k):
    k = min(k, cfg.n_windows)
    stream = generate_stream(cfg)
    for got, want in zip(generate_stream(cut(cfg, k)).windows, stream.windows[:k],
                         strict=True):
        assert_same_window(got, want)

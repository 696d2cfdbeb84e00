"""Scenario generator: determinism, signatures and labeling."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudguard.cli import main
from cloudguard.errors import ConfigError, InputError
from cloudguard.features import build_layout, extract_features
from cloudguard.scenario import (
    MARKER_FEATURES,
    AttackSpec,
    BurstIndex,
    ScenarioConfig,
    default_scenario,
    generate_stream,
    generate_window,
    label_for_window,
    truth_intensity,
    verify_separability,
)
from cloudguard.simulate import window_truths
from cloudguard.telemetry import ATTACK_KINDS, LABELS

from .test_scenario_oracle import configs


# half-second windows under overlapping specs of all five kinds
OVERLAPPING = ScenarioConfig(duration_ms=12_000, window_ms=500, benign_rate=40.0, seed=21,
                             attacks=(
    AttackSpec(kind="ddos", intensity=0.7, start=1250, end=4750),
    AttackSpec(kind="sql_injection", intensity=0.9, start=2100, end=6300),
    AttackSpec(kind="ddos", intensity=0.5, start=3000, end=3600),
    AttackSpec(kind="port_scan", intensity=1.0, start=3333, end=3900),
    AttackSpec(kind="brute_force", intensity=0.6, start=4200, end=9100),
    AttackSpec(kind="data_exfiltration", intensity=0.8, start=5050, end=11_700),
))


def small_config(seed=0, attacks=(), duration_ms=20_000, benign_rate=60.0):
    return ScenarioConfig(duration_ms=duration_ms, window_ms=1000,
                          benign_rate=benign_rate, attacks=attacks, seed=seed)


def stream_signature(stream):
    """Cheap structural fingerprint for byte-identity comparisons."""
    return [
        (w.start, w.end, w.label, len(w.events),
         sum(ev.timestamp for ev in w.events),
         sum(ev.flow.bytes for ev in w.events if ev.flow is not None))
        for w in stream.windows
    ]


def scan_truth(attacks, start, end):
    """(label, intensity per attack kind) of a window by a scan of every spec,
    counting covered milliseconds on a mask: the oracle of label_for_window
    and truth_intensity."""
    covered = np.zeros((len(ATTACK_KINDS), end - start), dtype=bool)
    intensity = dict.fromkeys(ATTACK_KINDS, 0.0)
    for spec in attacks:
        lo, hi = max(spec.start, start), min(spec.end, end)
        if lo < hi:
            covered[ATTACK_KINDS.index(spec.kind), lo - start:hi - start] = True
            intensity[spec.kind] = max(intensity[spec.kind],
                                       spec.intensity * (hi - lo) / (end - start))
    per_kind = covered.sum(axis=1)
    benign = (end - start) - int(covered.any(axis=0).sum())
    best = int(np.argmax(per_kind))  # first of the largest: canonical order wins ties
    label = ATTACK_KINDS[best] if per_kind[best] and per_kind[best] >= benign else "benign"
    return label, intensity


def scan_covering(attacks, spans):
    """The specs overlapping each span, by a scan: BurstIndex.covering's oracle."""
    return [[a for a in attacks if a.start < end and a.end > start] for start, end in spans]


def stream_digest(stream):
    """sha256 over every window's span, label, strings and column bytes."""
    h = hashlib.sha256()
    for w in stream.windows:
        h.update(repr((w.start, w.end, w.label, w.strings)).encode())
        for cols in w.sources:
            for name in cols.names:
                col = getattr(cols, name)
                h.update(f"{cols.kind}.{name}:{col.dtype.str}".encode())
                h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


class TestConfigValidation:
    def test_attack_outside_duration_rejected(self):
        spec = AttackSpec(kind="ddos", intensity=1.0, start=19_000, end=25_000)
        with pytest.raises(ConfigError):
            small_config(attacks=(spec,))

    def test_bad_intensity_rejected(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="ddos", intensity=0.0, start=0, end=1000)
        with pytest.raises(ConfigError):
            AttackSpec(kind="ddos", intensity=1.5, start=0, end=1000)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AttackSpec(kind="phishing", intensity=0.5, start=0, end=1000)
        # a spec names an attack; benign is what no spec covers
        with pytest.raises(ConfigError):
            AttackSpec(kind="benign", intensity=0.5, start=0, end=1000)

    def test_window_must_tile_duration(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(duration_ms=1500, window_ms=1000)

    def test_config_dict_round_trip(self):
        cfg = default_scenario(seed=3, rounds=2)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


class TestDeterminism:
    def test_same_seed_identical_streams(self):
        attacks = (AttackSpec(kind="ddos", intensity=0.8, start=5000, end=9000),)
        a = generate_stream(small_config(seed=7, attacks=attacks))
        b = generate_stream(small_config(seed=7, attacks=attacks))
        assert stream_signature(a) == stream_signature(b)
        for wa, wb in zip(a.windows, b.windows):
            assert wa.events == wb.events

    def test_different_seeds_differ(self):
        a = generate_stream(small_config(seed=1))
        b = generate_stream(small_config(seed=2))
        assert stream_signature(a) != stream_signature(b)

    def test_windows_independent_of_generation_order(self):
        # per-window substreams: generating window 5 alone matches its place
        # in the full stream
        cfg = small_config(seed=11)
        stream = generate_stream(cfg)
        alone = generate_window(cfg, 5)
        assert alone.events == stream.windows[5].events

    @pytest.mark.parametrize("index", [65, -1])
    def test_window_index_outside_the_run_rejected(self, index):
        cfg = default_scenario(seed=1, rounds=1)
        assert cfg.n_windows == 65
        with pytest.raises(InputError, match=f"window index {index} outside"):
            generate_window(cfg, index)

    def test_seeded_stream_bytes_are_pinned(self):
        # a change that moves seeded streams is a deliberate version bump:
        # update this digest with it and record the bump in CHANGES.md
        stream = generate_stream(default_scenario(seed=5, rounds=2))
        assert stream_digest(stream) == \
            "7d2a43d1bb4d2c73c6fadc1928ef9e5ec53bf5bfe71599f5bb3cff66ebfd78da"

    def test_sparse_stream_bytes_are_pinned(self):
        # few events per window, so many blocks draw n = 0
        stream = generate_stream(default_scenario(seed=3, rounds=2, benign_rate=6.0))
        assert stream_digest(stream) == \
            "e98f1042416a398536752ed3d3c1e353ea2d25ef5afaf300a6f2e268c7f03854"

    def test_overlapping_specs_stream_bytes_are_pinned(self):
        # half-second windows; specs of all five kinds overlap each other and
        # start and end mid-window
        stream = generate_stream(OVERLAPPING)
        assert stream_digest(stream) == \
            "ebd20a144410292e6bc983f2a7d2088887ec119c611617ea25c6bcb816b6e451"

    def test_generate_command_bytes_are_pinned(self, tmp_path):
        assert main(["generate", "--seed", "8", "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("telemetry.jsonl", "labels.csv")}
        assert digests == {
            "telemetry.jsonl":
                "23f3c41f8dd41fa676c2b9dd107171888967c9923cb5a8a22755dcf527f31b3a",
            "labels.csv":
                "bb7057b62c951120e4a271b778685d5104cd971c968db7155398f26b7de98d65",
        }

    def test_windows_tile_duration(self):
        cfg = small_config(seed=4)
        stream = generate_stream(cfg)
        assert len(stream) == cfg.n_windows
        for i, w in enumerate(stream.windows):
            assert w.start == i * 1000
            assert w.end == w.start + 1000


class TestLabeling:
    def test_no_attacks_all_benign(self):
        stream = generate_stream(small_config(seed=5))
        assert all(w.label == "benign" for w in stream.windows)

    def test_majority_overlap_rule(self):
        attacks = (AttackSpec(kind="ddos", intensity=1.0, start=1000, end=2600),)
        # window [2000,3000): covered 600/1000 -> ddos; [3000,4000): 0 -> benign
        assert label_for_window(attacks, 2000, 3000) == "ddos"
        assert label_for_window(attacks, 3000, 4000) == "benign"
        # window [1000,2000) fully covered
        assert label_for_window(attacks, 1000, 2000) == "ddos"

    def test_exact_half_tie_resolves_to_attack(self):
        attacks = (AttackSpec(kind="port_scan", intensity=1.0, start=0, end=500),)
        assert label_for_window(attacks, 0, 1000) == "port_scan"

    def test_attack_tie_resolves_by_canonical_order(self):
        attacks = (
            AttackSpec(kind="brute_force", intensity=1.0, start=0, end=500),
            AttackSpec(kind="ddos", intensity=1.0, start=500, end=1000),
        )
        # equal 500 ms each; ddos precedes brute_force in the label order
        assert label_for_window(attacks, 0, 1000) == "ddos"

    def test_generated_labels_match_recomputation(self):
        cfg = default_scenario(seed=9, rounds=2)
        stream = generate_stream(cfg)
        for w in stream.windows:
            assert w.label == label_for_window(cfg.attacks, w.start, w.end)

    def test_truth_intensity_scales_with_coverage(self):
        attacks = (AttackSpec(kind="ddos", intensity=0.8, start=1000, end=2500),)
        assert truth_intensity(attacks, 1000, 2000, "ddos") == pytest.approx(0.8)
        assert truth_intensity(attacks, 2000, 3000, "ddos") == pytest.approx(0.4)
        assert truth_intensity(attacks, 5000, 6000, "ddos") == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_burst_index_matches_scan_on_default_scenario(self, seed):
        cfg = default_scenario(seed=seed)
        spans = [(i * cfg.window_ms, (i + 1) * cfg.window_ms) for i in range(cfg.n_windows)]
        assert BurstIndex(cfg.attacks).covering(*zip(*spans)) == \
            scan_covering(cfg.attacks, spans)
        for start, end in spans:
            label, intensity = scan_truth(cfg.attacks, start, end)
            assert label_for_window(cfg.attacks, start, end) == label
            assert {kind: truth_intensity(cfg.attacks, start, end, kind)
                    for kind in ATTACK_KINDS} == intensity

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ATTACK_KINDS), st.integers(1, 10),
                              st.integers(0, 60), st.integers(1, 40)), max_size=8),
           st.integers(0, 70), st.integers(1, 30))
    def test_burst_index_matches_scan_on_overlapping_specs(self, specs, start, length):
        attacks = [AttackSpec(kind=kind, intensity=level / 10, start=lo, end=lo + span)
                   for kind, level, lo, span in specs]
        end = start + length
        assert BurstIndex(attacks).covering([start], [end]) == \
            scan_covering(attacks, [(start, end)])
        label, intensity = scan_truth(attacks, start, end)
        assert label_for_window(attacks, start, end) == label
        assert {kind: truth_intensity(attacks, start, end, kind)
                for kind in ATTACK_KINDS} == intensity


def per_window_truths(scenario, windows):
    """``window_truths`` as it was, one lookup per window, with each
    intensity from a scan of every spec (``scan_truth``): the run-wide
    lookup's bit-for-bit reference."""
    out = []
    for win in windows:
        kind = win.label or "benign"
        intensity = scan_truth(scenario.attacks, win.start, win.end)[1][kind] \
            if kind != "benign" else 0.0
        capacity = 2.0 * scenario.benign_rate * (win.duration_ms / 1000.0)
        load = min(1.0, win.event_count / capacity) if capacity > 0 else 0.0
        out.append((kind, intensity, load))
    return out


def bits(truths):
    return [(kind, intensity.hex(), load.hex()) for kind, intensity, load in truths]


class TestRunWideLookup:
    def check(self, cfg):
        spans = [(i * cfg.window_ms, (i + 1) * cfg.window_ms) for i in range(cfg.n_windows)]
        bursts = BurstIndex(cfg.attacks)
        assert bursts.covering(*zip(*spans)) == scan_covering(cfg.attacks, spans)
        for start, end in spans:  # the scans that recompute ground truth
            label, intensity = scan_truth(cfg.attacks, start, end)
            assert label_for_window(cfg.attacks, start, end) == label
            for kind in ATTACK_KINDS:
                assert truth_intensity(cfg.attacks, start, end, kind).hex() == \
                    intensity[kind].hex()
        stream = generate_stream(cfg)
        assert bits(window_truths(cfg, stream.windows)) == \
            bits(per_window_truths(cfg, stream.windows))

    def test_default_scenario(self):
        self.check(default_scenario(100))

    def test_overlapping_specs(self):
        self.check(OVERLAPPING)

    @settings(max_examples=100, deadline=None)
    @given(configs())
    def test_oracle_configs(self, cfg):
        self.check(cfg)

    def test_spans_between_and_across_specs(self):
        spans = [(0, 1), (1250, 1251), (4749, 4750), (4750, 5050), (0, 12_000), (3400, 3500)]
        bursts = BurstIndex(OVERLAPPING.attacks)
        assert bursts.covering(*zip(*spans)) == scan_covering(OVERLAPPING.attacks, spans)
        assert [bursts.covering([start], [end])[0] for start, end in spans] == \
            scan_covering(OVERLAPPING.attacks, spans)
        assert BurstIndex(()).covering([0, 5], [5, 9]) == [[], []]
        assert bursts.covering([], []) == []


class TestSignatures:
    def test_ddos_flow_rate_exceeds_surge_factor(self):
        cfg = small_config(
            seed=21, duration_ms=40_000,
            attacks=(AttackSpec(kind="ddos", intensity=1.0, start=20_000,
                                end=40_000),),
        )
        stream = generate_stream(cfg)
        benign_rates = []
        attack_rates = []
        for w in stream.windows:
            flows = sum(1 for ev in w.events if ev.flow is not None)
            (benign_rates if w.label == "benign" else attack_rates).append(flows)
        assert np.mean(attack_rates) >= cfg.ddos_surge * np.mean(benign_rates)

    def test_each_kind_has_distinct_marker(self):
        layout = build_layout()
        for kind in ATTACK_KINDS:
            cfg = small_config(
                seed=31, duration_ms=30_000,
                attacks=(AttackSpec(kind=kind, intensity=1.0, start=15_000,
                                    end=30_000),),
            )
            stream = generate_stream(cfg)
            idx = layout.index_of(MARKER_FEATURES[kind])
            benign_vals = [extract_features(w, layout)[idx]
                           for w in stream.windows if w.label == "benign"]
            attack_vals = [extract_features(w, layout)[idx]
                           for w in stream.windows if w.label == kind]
            z = (np.mean(attack_vals) - np.mean(benign_vals)) / max(
                np.std(benign_vals), 1e-9)
            assert z >= 3.0, f"{kind} marker z={z:.2f}"

    def test_verify_separability_on_default_scenario(self):
        stream = generate_stream(default_scenario(seed=13, rounds=3))
        scores = verify_separability(stream, build_layout())
        assert set(scores) == set(ATTACK_KINDS)
        assert all(z >= 3.0 for z in scores.values())

    def test_verify_separability_needs_benign(self):
        cfg = ScenarioConfig(
            duration_ms=4000, window_ms=1000, benign_rate=60.0,
            attacks=(AttackSpec(kind="ddos", intensity=1.0, start=0, end=4000),),
            seed=1,
        )
        with pytest.raises(InputError):
            verify_separability(generate_stream(cfg), build_layout())


class TestDefaultScenario:
    def test_class_volume(self):
        cfg = default_scenario(seed=1)
        stream = generate_stream(cfg)
        counts = {label: 0 for label in LABELS}
        for w in stream.windows:
            counts[w.label] += 1
        assert counts["benign"] >= 300
        for kind in ATTACK_KINDS:
            assert counts[kind] >= 300, f"{kind}: {counts[kind]}"

    def test_intensities_vary(self):
        cfg = default_scenario(seed=1)
        intensities = {a.intensity for a in cfg.attacks}
        assert len(intensities) >= 3
        assert min(intensities) >= 0.6
        assert max(intensities) <= 1.0

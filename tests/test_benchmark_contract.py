"""The benchmark's view of the package: every name it calls or patches exists.

The benchmark (``benchmark/``) drives cloudguard through public names and,
for its traced run, wraps functions and methods by name. A refactor that
renames or removes one breaks the benchmark without failing any other
test, so this module checks those names from the benchmark's own files.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cloudguard import baseline, detector
from cloudguard.detector import ArchConfig, TrainConfig
from cloudguard.environment import DefenseEnv, EnvConfig, defense_train_config
from cloudguard.nn import Conv1dLayer, DenseLayer, LstmLayer
from cloudguard.errors import InputError
from cloudguard.features import build_layout
from cloudguard.policy import (N_STATES, Action, ConvergenceCurve, DoubleQTables,
                               PolicyTrainConfig, save_qtables, train_policy)
from cloudguard.scenario import AttackSpec, ScenarioConfig, generate_stream
from cloudguard.simulate import PipelineEvent, SimConfig, run_simulation

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}",
                                                  BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _harness_references() -> list[tuple[str, str]]:
    """Each ``<module>.<name>`` the harness reads from a cloudguard module."""
    tree = ast.parse((BENCHMARK / "harness.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "cloudguard"
               for alias in node.names}
    return [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules]


def test_traced_run_patches_resolve_and_restore():
    probes, tracing = _load("probes"), _load("tracing")
    tracer = tracing.Tracer()
    try:
        probes.install(tracer)
    finally:
        tracer.uninstall()


# spans the traced sims must record for BENCHMARK.json's per-layer metrics
SIM_SPANS = ("perception.embed", "perception.fuse", "enforcement.apply",
             "policy.encode", "policy.select", "environment.enforce_window")


def test_traced_simulation_passes_through_every_response_probe(tmp_path):
    tables, _ = train_policy(DefenseEnv(EnvConfig(episode_len=20)),
                             dataclasses.replace(defense_train_config(),
                                                 episodes=5, steps_per_episode=20))
    policy = tmp_path / "policy.csv"
    save_qtables(str(policy), tables)
    scenario = ScenarioConfig(duration_ms=12000, attacks=(
        AttackSpec(kind="ddos", intensity=0.9, start=4000, end=8000),))
    probes, tracing = _load("probes"), _load("tracing")
    tracer = tracing.Tracer()
    try:
        probes.install(tracer)
        _, events = run_simulation(SimConfig(scenario=scenario, policy=str(policy)))
    finally:
        tracer.uninstall()
    spans, counters = tracer.spans(), tracer.counters()
    assert len(events) == 12
    assert {name: spans.count(name) >= 1 for name in SIM_SPANS} == \
        dict.fromkeys(SIM_SPANS, True)
    # the generation probes: one span per stream and per window, the
    # validator's spans, and the window and event counters read at each window
    assert spans.count("scenario.generate") == 1
    assert spans.count("scenario.window") == scenario.n_windows == 12
    assert spans.count("telemetry.validate") >= 12
    assert counters["scenario.windows"] == 12
    assert counters["scenario.events"] == \
        sum(w.event_count for w in generate_stream(scenario).windows)


def test_traced_classify_records_each_detectors_verdict_counter():
    # the classify probes read the one-sequence verdict of each detector
    arch = ArchConfig(feature_dim=8, conv_filters=(4, 4, 8, 8), lstm_hidden=8,
                      fc_widths=(8,))
    model = detector.build_model(arch)
    layout = build_layout()
    rules = baseline.RuleBasedDetector((baseline.Rule(
        label="ddos", feature="traffic.flow_count", op=">=", threshold=0.0),), layout)
    probes, tracing = _load("probes"), _load("tracing")
    tracer = tracing.Tracer()
    try:
        probes.install(tracer)
        detector.classify(model, np.zeros((arch.seq_len, arch.feature_dim)), 0.0)
        rules.classify(np.zeros(layout.dim))
    finally:
        tracer.uninstall()
    spans, counters = tracer.spans(), tracer.counters()
    assert spans.count("detector.classify") == spans.count("baseline.classify") == 1
    assert counters["detector.confident"] == counters["baseline.matched"] == 1


def test_traced_detector_training_evaluates_once_per_epoch():
    # detector.eval wraps predict_probs, which train calls once per epoch;
    # its shared-convolution pass still runs conv1 under that span
    arch = ArchConfig(feature_dim=8, conv_filters=(4, 4, 8, 8), lstm_hidden=8,
                      fc_widths=(8,))
    rng = np.random.default_rng(0)
    series = rng.normal(size=(60 + arch.seq_len - 1, arch.feature_dim))
    x, y = detector.build_sequences(series, rng.integers(arch.num_classes, size=len(series)),
                                    arch.seq_len)
    probes, tracing = _load("probes"), _load("tracing")
    tracer = tracing.Tracer()
    try:
        probes.install(tracer)
        model = detector.build_model(arch)  # built traced, so its layers are named
        detector.train(model, x, y, TrainConfig(epochs=3, batch_size=16))
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert spans.count("detector.train") == 1
    assert spans.count("detector.eval") == 3
    assert spans.busy("nn.conv1.forward") > 0 and spans.busy("nn.conv1.backward") > 0
    assert tracer.counters()["nn.conv1.forward_flop"] > 0
    evals = spans.id[spans.mask("detector.eval")]
    assert np.isin(spans.parent[spans.mask("nn.conv1.forward")], evals).any()


class _CountingEnv(DefenseEnv):
    """The defense environment, counting the steps it is asked to take."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.steps_taken = 0

    def step(self, action_id):
        self.steps_taken += 1
        return super().step(action_id)


def test_traced_policy_training_probes_every_step():
    # 20 steps asked, 12 taken: each episode ends at its terminal step
    env = _CountingEnv(EnvConfig(episode_len=12))
    cfg = dataclasses.replace(defense_train_config(), episodes=5, steps_per_episode=20)
    probes, tracing = _load("probes"), _load("tracing")
    tracer = tracing.Tracer()
    try:
        probes.install(tracer)
        train_policy(env, cfg)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert env.steps_taken == 5 * 12
    assert spans.count("policy.select") == spans.count("policy.update") == 5 * 12
    # each episode is drawn and scored through the probed calls: one reset,
    # one enforce_window with its resolve_attack, and the state key's
    # compose_indicators and encode_state
    per_episode = {name: spans.count(name) / 5 for name in (
        "environment.reset", "environment.enforce_window", "enforcement.resolve",
        "policy.encode")}
    assert per_episode == {"environment.reset": 1, "environment.enforce_window": 1,
                           "enforcement.resolve": 1, "policy.encode": 2}


class _FixedStateEnv:
    """Three actions; reset and every step return fixed state keys."""

    n_actions = 3

    def __init__(self, first: int, then: int):
        self.first, self.then = first, then

    def reset(self) -> int:
        return self.first

    def step(self, action_id: int):
        return self.then, 0.0, False


@pytest.mark.parametrize("first,then", [(-1, 0), (N_STATES, 0), (0, -1), (0, N_STATES)],
                         ids=["reset-negative", "reset-past-end", "step-negative",
                              "step-past-end"])
def test_policy_training_rejects_state_keys_off_the_table(first, then):
    # -1 would silently train the table's last row
    with pytest.raises(InputError, match="state key"):
        train_policy(_FixedStateEnv(first, then),
                     PolicyTrainConfig(episodes=1, steps_per_episode=3))


def test_harness_references_exist():
    refs = _harness_references()
    assert len(refs) >= 40  # the walk found the harness's calls
    missing = [f"{mod}.{name}" for mod, name in refs
               if not hasattr(importlib.import_module(f"cloudguard.{mod}"), name)]
    assert missing == []


@pytest.mark.parametrize("module,owner,method", [
    ("simulate", "SimConfig", "from_dict"),
    ("scenario", "ScenarioConfig", "to_dict"),
])
def test_harness_config_methods_exist(module, owner, method):
    cls = getattr(importlib.import_module(f"cloudguard.{module}"), owner)
    assert callable(getattr(cls, method))


# attributes the benchmark reads off cloudguard objects: the harness's
# workloads and output checks, and probes._flops on each network layer
ATTRIBUTE_READS = [
    (TrainConfig, ("val_fraction", "epochs", "batch_size")),
    (PolicyTrainConfig, ("episodes", "steps_per_episode")),
    (EnvConfig, ("episode_len",)),
    (ScenarioConfig, ("window_ms", "n_windows", "attacks")),
    (ArchConfig, ("seq_len", "feature_dim")),
    (ConvergenceCurve, ("moving_avg", "episode_rewards")),
    (DoubleQTables, ("states",)),
    (Action, ("firewall_tier", "rate_limit_tier", "isolation_tier")),
    (PipelineEvent, ("window_id", "latency")),
    (Conv1dLayer(2, 3, 2).params, ("kernel", "stride")),
    (LstmLayer(2, 3).params, ("hidden_size",)),
    (DenseLayer(2, 3).params, ("weights",)),
]


@pytest.mark.parametrize("owner,names", ATTRIBUTE_READS,
                         ids=[getattr(o, "__name__", type(o).__name__)
                              for o, _ in ATTRIBUTE_READS])
def test_benchmark_attribute_reads_exist(owner, names):
    fields = {f.name for f in dataclasses.fields(owner)} \
        if dataclasses.is_dataclass(owner) else set()
    assert [name for name in names
            if name not in fields and not hasattr(owner, name)] == []


@pytest.mark.parametrize("layer,x", [
    (Conv1dLayer(2, 3, 2), np.zeros((1, 5, 2))),
    (LstmLayer(2, 3), np.zeros((1, 4, 2))),
    (DenseLayer(2, 3), np.zeros((1, 2))),
], ids=["conv", "lstm", "dense"])
def test_traced_layer_flops_read_each_layer(layer, x):
    assert _load("probes")._flops(layer, x) > 0

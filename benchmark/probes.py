"""Where the traced run puts its spans, and the per-layer metrics they give.

Layers are cloudguard's modules. Each probe wraps a public function or a
layer method; ``install`` applies them all to a Tracer and ``layer_metrics``
turns the recorded spans and counters into the metrics BENCHMARK.json names.
Times are busy seconds summed over threads and include nested calls into
other layers (``detector.classify_s`` contains the network forward).
"""

import sys

from cloudguard import (baseline, cli, detector, enforcement, environment, features,
                        perception, policy, scenario, simulate, telemetry)
from cloudguard.nn import model as nn_model
from cloudguard.nn import optim as nn_optim

NN_LAYERS = ("conv1", "conv2", "conv3", "conv4", "pool1", "pool2", "lstm",
             "dense1", "dense2", "dense3")
NN_FLOP_LAYERS = ("conv1", "conv2", "conv3", "conv4", "lstm", "dense1",
                  "dense2", "dense3")

# name -> (unit, better); the order is the order results are printed in
PER_LAYER = {
    "scenario.generate_s": ("s", "lower"),
    "scenario.windows": ("count", "higher"),
    "scenario.events": ("count", "higher"),
    "scenario.events_per_window": ("events/window", "higher"),
    "telemetry.validate_s": ("s", "lower"),
    "telemetry.objects": ("count", "lower"),
    "features.extract_s": ("s", "lower"),
    "features.extract_calls": ("count", "lower"),
    "features.normalize_s": ("s", "lower"),
    "detector.classify_s": ("s", "lower"),
    "detector.classify_calls": ("count", "lower"),
    "detector.classify_wall_s": ("s", "lower"),
    "detector.confident_ratio": ("ratio", "higher"),
    "detector.train_s": ("s", "lower"),
    "detector.batches": ("count", "lower"),
    "detector.eval_s": ("s", "lower"),
    **{f"nn.{layer}.forward_s": ("s", "lower") for layer in NN_LAYERS},
    **{f"nn.{layer}.backward_s": ("s", "lower") for layer in NN_LAYERS},
    **{f"nn.{layer}.forward_gflop": ("GFLOP", "lower") for layer in NN_FLOP_LAYERS},
    "nn.forward_calls": ("count", "lower"),
    "nn.forward_rows": ("count", "lower"),
    "nn.optim.step_s": ("s", "lower"),
    "nn.optim.steps": ("count", "lower"),
    "baseline.classify_s": ("s", "lower"),
    "baseline.calls": ("count", "lower"),
    "baseline.match_ratio": ("ratio", "higher"),
    "perception.embed_s": ("s", "lower"),
    "perception.fuse_s": ("s", "lower"),
    "perception.calls": ("count", "lower"),
    "policy.encode_s": ("s", "lower"),
    "policy.select_s": ("s", "lower"),
    "policy.select_calls": ("count", "lower"),
    "policy.unseen_state_ratio": ("ratio", "lower"),
    "policy.update_s": ("s", "lower"),
    "policy.updates": ("count", "lower"),
    "policy.states_visited": ("count", "higher"),
    "enforcement.apply_s": ("s", "lower"),
    "enforcement.resolve_s": ("s", "lower"),
    "enforcement.resolve_calls": ("count", "lower"),
    "environment.enforce_window_s": ("s", "lower"),
    "environment.step_s": ("s", "lower"),
    "environment.steps": ("count", "lower"),
    "environment.reset_s": ("s", "lower"),
    "simulate.run_s": ("s", "lower"),
    "simulate.self_s": ("s", "lower"),
    "simulate.report_s": ("s", "lower"),
    "simulate.emit_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.coverage_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _flops(layer, x) -> float:
    """Multiply-adds x 2 of one batched layer forward, from shapes alone."""
    if isinstance(layer, nn_model.Conv1dLayer):
        b, t, _ = x.shape
        k, c_in, c_out = layer.params.kernel.shape
        t_out = (t - k) // layer.params.stride + 1
        return 2.0 * b * t_out * k * c_in * c_out
    if isinstance(layer, nn_model.LstmLayer):
        b, t, c_in = x.shape
        h = layer.params.hidden_size
        return 2.0 * b * t * (c_in + h) * 4 * h
    if isinstance(layer, nn_model.DenseLayer):
        n_in, n_out = layer.params.weights.shape
        return 2.0 * x.shape[0] * n_in * n_out
    return 0.0


def install(tracer) -> None:
    """Wrap every probed function and method of the loaded cloudguard."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "cloudguard"
                                     or name.startswith("cloudguard."))]

    def fn(home, attr, name, after=None):
        tracer.patch_function(modules, home, attr, name, after)

    def on_window(buf, args, kwargs, window):
        buf.add("scenario.windows")
        buf.add("scenario.events", len(window.events))

    def on_classify(buf, args, kwargs, verdict):
        buf.add("detector.confident", int(verdict.confident))

    def on_rules(buf, args, kwargs, verdict):
        buf.add("baseline.matched", int(verdict.predicted != 0))

    def on_select(buf, args, kwargs, action):
        epsilon = kwargs.get("epsilon", args[2] if len(args) > 2 else None)
        if epsilon == 0.0:  # a greedy decision, not an exploration draw
            buf.add("policy.decisions")
            tables, state = args[0], args[1]
            buf.add("policy.unseen", int(state not in set(tables.states())))

    def on_tables(buf, args, kwargs, result):
        tables = result[0] if isinstance(result, tuple) else result
        tracer.gauges["policy.states_visited"] = len(tables.states())

    def on_forward(buf, args, kwargs, result):
        buf.add("nn.forward_calls")
        buf.add("nn.forward_rows", len(args[1]))

    fn(scenario, "generate_stream", "scenario.generate")
    fn(scenario, "generate_window", "scenario.window", on_window)
    tracer.patch_method(telemetry.TelemetryEvent, "__post_init__", "telemetry.validate")
    tracer.patch_method(telemetry.TelemetryWindow, "__post_init__", "telemetry.validate")
    fn(features, "extract_features", "features.extract")
    fn(features, "normalize", "features.normalize")
    fn(features, "fit_normalizer", "features.normalize")
    fn(detector, "classify", "detector.classify", on_classify)
    fn(detector, "train", "detector.train")
    fn(detector, "predict_probs", "detector.eval")
    tracer.patch_method(baseline.RuleBasedDetector, "classify", "baseline.classify",
                        on_rules)
    fn(perception, "embed_window", "perception.embed")
    fn(perception, "fuse", "perception.fuse")
    fn(policy, "compose_indicators", "policy.encode")
    fn(policy, "encode_state", "policy.encode")
    fn(policy, "select_action", "policy.select", on_select)
    fn(policy, "double_q_update", "policy.update")
    fn(policy, "train_policy", "policy.train", on_tables)
    fn(policy, "load_qtables", "policy.load", on_tables)
    fn(enforcement, "apply_action", "enforcement.apply")
    fn(enforcement, "resolve_attack", "enforcement.resolve")
    fn(environment, "enforce_window", "environment.enforce_window")
    tracer.patch_method(environment.DefenseEnv, "step", "environment.step")
    tracer.patch_method(environment.DefenseEnv, "reset", "environment.reset")
    fn(simulate, "run_simulation", "simulate.run")
    fn(simulate, "build_report", "simulate.report")
    fn(simulate, "emit_report", "simulate.emit")
    fn(cli, "main", "cli.main")

    # network: name each layer when its graph is built, then time it by name
    graph_init = nn_model.ModelGraph.__dict__["__init__"]
    kinds = {nn_model.Conv1dLayer: "conv", nn_model.MaxPool1dLayer: "pool",
             nn_model.LstmLayer: "lstm", nn_model.DenseLayer: "dense"}

    def named_init(graph, layer_list):
        graph_init(graph, layer_list)
        seen: dict[str, int] = {}
        for layer in graph.layers:
            kind = kinds.get(type(layer), "layer")
            seen[kind] = seen.get(kind, 0) + 1
            tracer.layer_names[layer] = kind if kind == "lstm" and seen[kind] == 1 \
                else f"{kind}{seen[kind]}"

    tracer.patch_plain(nn_model.ModelGraph, "__init__", named_init)

    def layer_name(args) -> str:
        return tracer.layer_names.get(args[0], type(args[0]).__name__)

    def on_layer_forward(buf, args, kwargs, result):
        buf.add(f"nn.{layer_name(args)}.forward_flop", _flops(args[0], args[1]))

    for cls in kinds:
        tracer.patch_method(cls, "forward",
                            lambda a: f"nn.{layer_name(a)}.forward", on_layer_forward)
        tracer.patch_method(cls, "backward", lambda a: f"nn.{layer_name(a)}.backward")
    tracer.patch_method(nn_model.ModelGraph, "forward", "nn.forward", on_forward)
    tracer.patch_method(nn_model.ModelGraph, "loss_and_gradients",
                        "nn.loss_and_gradients", on_forward)
    tracer.patch_method(nn_optim.Adam, "step", "nn.optim.step")
    tracer.patch_method(nn_optim.Sgd, "step", "nn.optim.step")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, spans, timed: tuple[float, float],
                  overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric; a layer the workload never ran reads 0."""
    c = tracer.counters()
    windows = c.get("scenario.windows", 0)
    classify_calls = spans.count("detector.classify")
    rule_calls = spans.count("baseline.classify")
    out = {
        "scenario.generate_s": spans.busy("scenario.generate"),
        "scenario.windows": windows,
        "scenario.events": c.get("scenario.events", 0),
        "scenario.events_per_window": _ratio(c.get("scenario.events", 0), windows),
        "telemetry.validate_s": spans.busy("telemetry.validate"),
        "telemetry.objects": spans.count("telemetry.validate"),
        "features.extract_s": spans.busy("features.extract"),
        "features.extract_calls": spans.count("features.extract"),
        "features.normalize_s": spans.busy("features.normalize"),
        "detector.classify_s": spans.busy("detector.classify"),
        "detector.classify_calls": classify_calls,
        "detector.classify_wall_s": spans.wall("detector.classify"),
        "detector.confident_ratio": _ratio(c.get("detector.confident", 0),
                                           classify_calls),
        "detector.train_s": spans.busy("detector.train"),
        "detector.batches": spans.count("nn.loss_and_gradients"),
        "detector.eval_s": spans.busy("detector.eval"),
    }
    for layer in NN_LAYERS:
        out[f"nn.{layer}.forward_s"] = spans.busy(f"nn.{layer}.forward")
        out[f"nn.{layer}.backward_s"] = spans.busy(f"nn.{layer}.backward")
    for layer in NN_FLOP_LAYERS:
        out[f"nn.{layer}.forward_gflop"] = c.get(f"nn.{layer}.forward_flop", 0) / 1e9
    out.update({
        "nn.forward_calls": c.get("nn.forward_calls", 0),
        "nn.forward_rows": c.get("nn.forward_rows", 0),
        "nn.optim.step_s": spans.busy("nn.optim.step"),
        "nn.optim.steps": spans.count("nn.optim.step"),
        "baseline.classify_s": spans.busy("baseline.classify"),
        "baseline.calls": rule_calls,
        "baseline.match_ratio": _ratio(c.get("baseline.matched", 0), rule_calls),
        "perception.embed_s": spans.busy("perception.embed"),
        "perception.fuse_s": spans.busy("perception.fuse"),
        "perception.calls": spans.count("perception.embed"),
        "policy.encode_s": spans.busy("policy.encode"),
        "policy.select_s": spans.busy("policy.select"),
        "policy.select_calls": spans.count("policy.select"),
        "policy.unseen_state_ratio": _ratio(c.get("policy.unseen", 0),
                                            c.get("policy.decisions", 0)),
        "policy.update_s": spans.busy("policy.update"),
        "policy.updates": spans.count("policy.update"),
        "policy.states_visited": tracer.gauges.get("policy.states_visited", 0),
        "enforcement.apply_s": spans.busy("enforcement.apply"),
        "enforcement.resolve_s": spans.busy("enforcement.resolve"),
        "enforcement.resolve_calls": spans.count("enforcement.resolve"),
        "environment.enforce_window_s": spans.busy("environment.enforce_window"),
        "environment.step_s": spans.busy("environment.step"),
        "environment.steps": spans.count("environment.step"),
        "environment.reset_s": spans.busy("environment.reset"),
        "simulate.run_s": spans.busy("simulate.run"),
        "simulate.self_s": spans.self_time("simulate.run"),
        "simulate.report_s": spans.busy("simulate.report"),
        "simulate.emit_s": spans.busy("simulate.emit"),
        "cli.self_s": spans.self_time("cli.main"),
        "trace.coverage_ratio": spans.coverage(*timed),
        "trace.overhead_ratio": overhead_ratio,
    })
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {set(out) ^ set(PER_LAYER)}")
    return out

"""Command-line front end for the protection loop.

Each subcommand reads one JSON configuration document (--config) plus a few
override flags, writes its outputs under --out, and prints a one-line
summary. Exit codes map the package's error taxonomy: 2 configuration or
usage, 3 bad input data, 4 checkpoint problems, 5 filesystem problems,
1 anything else. An input file that cannot be read or is not UTF-8 text
exits with its reader's code (2 --config, 3 report, 4 policy or convergence).

Config schemas (all fields optional unless noted):

  generate        {"scenario": {...}}
  train-detector  {"scenario": {...}, "arch": {...}, "epochs": int,
                   "batch_size": int, "lr": float, "threshold": float,
                   "eval_seed": int}
                  writes detector.npz, evaluation.json and history.csv
                  (per-epoch training loss/accuracy and validation accuracy)
  train-policy    {"env": {...}, "episodes": int, "steps_per_episode": int,
                   "alpha": float, "gamma": float, "epsilon_start": float,
                   "epsilon_end": float, "anneal_fraction": float}
  simulate        {"scenario": {...}, "detector": path|"baseline"|"accept-all",
                   "policy": path, "fixed_action": int, "threshold": float,
                   "replicas": int, "seed": int, "deadline_ms": float,
                   "convergence": path}
  evaluate        the simulate document; its scenario, seed, detector and
                  threshold decide the scores
  compare         {"baseline": path, "candidate": path}  (or two positionals)

Each object that maps to a config class takes exactly that class's fields:
the simulate (and evaluate) document is SimConfig, "scenario" is
ScenarioConfig (each attack an AttackSpec), "arch" is ArchConfig and "env"
is EnvConfig (less its seed, which --seed sets). A missing field keeps its
default, so "arch" may be partial, though train-detector's num_classes
must be the six labels; an unknown key, a value of the wrong
type, an int field given a fraction or a non-finite number is a
configuration error (exit 2). Numeric strings are read as numbers. The
generate, train-detector, train-policy and compare documents take only the
keys listed above, read the same way. A configuration error, and for
simulate and evaluate a checkpoint error, exits before --out is made.
When "scenario" is omitted, the default desk-scale scenario is used with
the given seed.
"""

import argparse
import dataclasses
import functools
import os
import sys

from . import detector as det
from .config import read_config, read_value
from .environment import DefenseEnv, EnvConfig, defense_train_config
from .errors import (CatalogError, CheckpointError, CloudguardError,
                     ConfigError, DimensionError, FilesystemError, InputError)
from .features import build_layout
from .files import make_dir, read_json, write_text
from .policy import PolicyTrainConfig, save_qtables, train_policy, \
    write_convergence_csv
from .scenario import ScenarioConfig, default_scenario, generate_stream
from .simulate import (SimConfig, canonical_json, comparison_to_dict,
                       compare_reports, emit_report, evaluate_detection,
                       per_class_csv, run_simulation)
from .telemetry import LABELS, write_events_jsonl, write_label_sidecar

# train-policy document keys overlaid on the defense_train_config preset
_POLICY_KEYS = ("episodes", "steps_per_episode", "alpha", "gamma",
                "epsilon_start", "epsilon_end", "anneal_fraction")

# the keys a command's document may hold; SimConfig checks the simulate and
# evaluate documents itself
_DOC_KEYS = {
    "generate": ("scenario",),
    "train-detector": ("scenario", "arch", "epochs", "batch_size", "lr",
                       "threshold", "eval_seed"),
    "train-policy": ("env",) + _POLICY_KEYS,
    "compare": ("baseline", "candidate"),
}


def _load_config(args) -> dict:
    """The command's --config document; ConfigError on a key it does not take."""
    if args.config is None:
        return {}
    doc = read_json(args.config, ConfigError, "config file")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a single JSON object")
    keys = _DOC_KEYS.get(args.command)
    for key in doc:
        if keys is not None and key not in keys:
            raise ConfigError(f"the {args.command} document has no key {key!r}")
    return doc


def _pick(doc: dict, keys) -> dict:
    return {key: doc[key] for key in keys if key in doc}


def _resolve_scenario(doc: dict, seed: int | None) -> ScenarioConfig:
    if doc.get("scenario") is None:
        return default_scenario(seed=seed or 0)
    cfg = ScenarioConfig.from_dict(doc["scenario"])
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def _sim_config(args) -> SimConfig:
    """The simulate document with the command-line overrides applied."""
    doc = _load_config(args)
    for key in ("seed", "replicas"):
        if getattr(args, key, None) is not None:
            doc[key] = getattr(args, key)
    return SimConfig.from_dict(doc)


def _cmd_generate(args) -> int:
    doc = _load_config(args)
    scenario = _resolve_scenario(doc, args.seed)
    out = make_dir(args.out)
    stream = generate_stream(scenario)
    try:
        write_events_jsonl(os.path.join(out, "telemetry.jsonl"), stream.windows)
        write_label_sidecar(os.path.join(out, "labels.csv"), stream.windows)
    except OSError as exc:
        raise FilesystemError(f"cannot write telemetry: {exc}") from exc
    write_text(os.path.join(out, "scenario.json"),
               canonical_json(scenario.to_dict()))
    counts = {}
    for w in stream.windows:
        counts[w.label] = counts.get(w.label, 0) + 1
    print(f"generated {len(stream.windows)} windows -> {out} "
          f"({', '.join(f'{k}:{v}' for k, v in sorted(counts.items()))})")
    return 0


def _cmd_train_detector(args) -> int:
    doc = _load_config(args)
    scenario = _resolve_scenario(doc, args.seed)
    train_cfg = read_config(det.TrainConfig,
                            _pick(doc, ("epochs", "batch_size", "lr")),
                            seed=scenario.seed)
    arch = det.ArchConfig.from_dict(doc.get("arch", {}))
    if arch.num_classes != len(LABELS):
        raise ConfigError(f"arch num_classes {arch.num_classes} must match "
                          f"the {len(LABELS)} labels")
    eval_seed = read_value(int, doc.get("eval_seed", scenario.seed + 1),
                           "eval_seed")
    eval_scenario = dataclasses.replace(scenario, seed=eval_seed)
    threshold = det.check_threshold(read_value(
        float, doc.get("threshold", det.DEFAULT_THRESHOLD), "threshold"))
    out = make_dir(args.out)
    layout = build_layout(dim=arch.feature_dim)
    stream = generate_stream(scenario)
    x, y, stats = det.prepare_dataset(stream, layout, arch.seq_len)
    model = det.build_model(arch, seed=train_cfg.seed)
    model, history = det.train(model, x, y, train_cfg)

    eval_stream = generate_stream(eval_scenario)
    xe, ye, _ = det.prepare_dataset(eval_stream, layout, arch.seq_len, stats)
    metrics = det.evaluate(model, xe, ye, threshold=threshold)
    ckpt = os.path.join(out, "detector.npz")
    det.save_detector(ckpt, model, arch, stats, layout)
    write_text(os.path.join(out, "evaluation.json"),
               canonical_json(metrics.to_dict()))
    rows = ["epoch,loss,train_accuracy,val_accuracy"]
    rows += [f"{h['epoch']},{h['loss']!r},{h['train_accuracy']!r},{h['val_accuracy']!r}"
             for h in history]
    write_text(os.path.join(out, "history.csv"), "\n".join(rows) + "\n")
    print(f"trained detector -> {ckpt} "
          f"(eval accuracy {metrics.accuracy:.4f} on seed {eval_seed})")
    return 0


def _cmd_train_policy(args) -> int:
    doc = _load_config(args)
    seed = args.seed if args.seed is not None else 0
    env = DefenseEnv(read_config(EnvConfig, doc.get("env", {}), seed=seed))
    preset = dataclasses.asdict(defense_train_config(seed=seed))
    cfg = read_config(PolicyTrainConfig, preset | _pick(doc, _POLICY_KEYS))
    out = make_dir(args.out)
    tables, curve = train_policy(env, cfg)
    qt = os.path.join(out, "policy.csv")
    save_qtables(qt, tables)
    write_convergence_csv(os.path.join(out, "convergence.csv"), curve)
    tail = curve.moving_avg[-1] if len(curve.moving_avg) else float("nan")
    print(f"trained policy -> {qt} ({cfg.episodes} episodes, "
          f"{len(tables.states())} states, final moving avg {tail:.3f})")
    return 0


def _cmd_simulate(args) -> int:
    config = _sim_config(args)
    report, events = run_simulation(config)
    emit_report(report, events, args.out, args.format)
    d = report.to_dict()
    print(f"simulated {len(events)} windows -> {args.out} "
          f"(accuracy {d['detection']['accuracy']:.4f}, "
          f"unknown rate {d['detection']['unknown_rate']:.4f}, "
          f"total damage {d['damage']['total']:.1f}, "
          f"availability {d['timing']['availability']:.4f})")
    return 0


def _cmd_evaluate(args) -> int:
    config = _sim_config(args)
    metrics = evaluate_detection(config)
    out = make_dir(args.out)
    write_text(os.path.join(out, "evaluation.json"),
               canonical_json(metrics.to_dict()))
    if args.format == "csv":
        write_text(os.path.join(out, "per_class_metrics.csv"),
                   per_class_csv(metrics))
    print(f"evaluated {metrics.total} windows -> {out} "
          f"(accuracy {metrics.accuracy:.4f}, "
          f"unknown rate {metrics.unknown_rate:.4f})")
    return 0


def _cmd_compare(args) -> int:
    doc = _load_config(args)
    baseline = args.baseline or read_value(str | None, doc.get("baseline"),
                                           "baseline")
    candidate = args.candidate or read_value(str | None, doc.get("candidate"),
                                             "candidate")
    if not baseline or not candidate:
        raise ConfigError("compare needs a baseline and a candidate report "
                          "(two positionals or config keys)")
    rows = compare_reports(read_json(baseline, InputError, "report"),
                           read_json(candidate, InputError, "report"))
    text = canonical_json(comparison_to_dict(rows))
    if args.out:
        out = make_dir(args.out)
        write_text(os.path.join(out, "comparison.json"), text)
        print(f"compared {len(rows)} indicators -> {out}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # parse_args leaves the parser as it was; one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudguard",
        description="Synthetic cloud-defense loop: generate traffic, train "
                    "the detector and response policy, simulate, and score.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=False, replicas=False, out_required=True):
        p.add_argument("--config", help="JSON configuration document")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--out", required=out_required, help="output directory")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"),
                           default="json", help="report format")
        if replicas:
            p.add_argument("--replicas", type=int,
                           help="accepted and validated (>= 1) for older "
                                "configs; changes neither outputs nor "
                                "scheduling")

    common(sub.add_parser("generate", help="write a scenario's telemetry"))
    common(sub.add_parser("train-detector", help="fit the sequence classifier"))
    common(sub.add_parser("train-policy", help="fit the response Q-tables"))
    common(sub.add_parser("simulate", help="run the full protection loop"),
           fmt=True, replicas=True)
    common(sub.add_parser("evaluate", help="score detection only"), fmt=True)
    cmp_p = sub.add_parser("compare", help="diff two metrics.json reports")
    cmp_p.add_argument("baseline", nargs="?", help="baseline metrics.json")
    cmp_p.add_argument("candidate", nargs="?", help="candidate metrics.json")
    common(cmp_p, out_required=False)
    return parser


_HANDLERS = {
    "generate": _cmd_generate,
    "train-detector": _cmd_train_detector,
    "train-policy": _cmd_train_policy,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (InputError, DimensionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, CatalogError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 4
    except FilesystemError as exc:
        print(f"filesystem error: {exc}", file=sys.stderr)
        return 5
    except CloudguardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

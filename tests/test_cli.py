"""Command-line interface: subcommands, config files, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import cloudguard
from cloudguard import simulate
from cloudguard.cli import main
from cloudguard.detector import ArchConfig, build_model, load_detector, save_detector
from cloudguard.errors import CheckpointError
from cloudguard.features import NormStats, build_layout
from cloudguard.nn import load_params, save_params
from cloudguard.policy import ACTION_CATALOG, compose_indicators
from cloudguard.scenario import ScenarioConfig, generate_stream
from cloudguard.telemetry import LABELS, read_stream_jsonl

SCENARIO = {
    "duration_ms": 60000,
    "window_ms": 1000,
    "benign_rate": 60.0,
    "seed": 3,
    "attacks": [
        {"kind": "ddos", "intensity": 0.9, "start": 10000, "end": 25000},
        {"kind": "brute_force", "intensity": 0.8, "start": 35000, "end": 50000},
    ],
}

TINY_ARCH = {
    "feature_dim": 428,
    "seq_len": 8,
    "conv_filters": [4, 4],
    "kernel_size": 3,
    "pool_size": 2,
    "pool_after": [2],
    "lstm_hidden": 8,
    "fc_widths": [8],
    "num_classes": 6,
}


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def scenario_cfg(tmp_path):
    return write_config(tmp_path, "scenario.json", {"scenario": SCENARIO})


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_usage_error_exits_two(capsys):
    assert main(["no-such-command"]) == 2


def test_generate_writes_stream(tmp_path, scenario_cfg, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--config", scenario_cfg,
                 "--out", str(out)]) == 0
    assert (out / "telemetry.jsonl").exists()
    assert (out / "labels.csv").exists()
    assert (out / "scenario.json").exists()
    assert "generated 60 windows" in capsys.readouterr().out


def test_generate_seed_override(tmp_path, scenario_cfg):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", scenario_cfg, "--seed", "9",
                 "--out", str(out_a)]) == 0
    assert main(["generate", "--config", scenario_cfg, "--seed", "9",
                 "--out", str(out_b)]) == 0
    assert (out_a / "telemetry.jsonl").read_bytes() == \
        (out_b / "telemetry.jsonl").read_bytes()
    doc = json.loads((out_a / "scenario.json").read_text())
    assert doc["seed"] == 9


def test_generate_twice_is_byte_identical_and_reads_back(tmp_path, scenario_cfg):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["generate", "--config", scenario_cfg, "--seed", "5",
                     "--out", str(out)]) == 0
    for name in ("telemetry.jsonl", "labels.csv", "scenario.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    scenario = ScenarioConfig.from_dict(
        json.loads((outs[0] / "scenario.json").read_text()))
    got = read_stream_jsonl(str(outs[0] / "telemetry.jsonl"),
                            str(outs[0] / "labels.csv"))
    assert got == generate_stream(scenario).windows


def test_generate_requires_out():
    assert main(["generate"]) == 2


def test_train_policy_writes_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, "pol.json",
                       {"episodes": 40, "steps_per_episode": 30})
    out = tmp_path / "pol"
    assert main(["train-policy", "--config", cfg, "--seed", "0",
                 "--out", str(out)]) == 0
    assert (out / "policy.csv").exists()
    curve = (out / "convergence.csv").read_text().splitlines()
    assert curve[0] == "episode,mean_reward,moving_avg"
    assert len(curve) == 41


def file_digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def _checkpoint_digest(path):
    """The npz members' digest; the zip headers carry write times."""
    h = hashlib.sha256()
    with zipfile.ZipFile(path) as npz:
        for name in sorted(npz.namelist()):
            h.update(name.encode())
            h.update(npz.read(name))
    return h.hexdigest()


def test_train_policy_command_bytes_are_pinned(tmp_path):
    # the default preset on environment seed 8; a change that moves the
    # environment or agent stream is a deliberate bump
    assert main(["train-policy", "--seed", "8", "--out", str(tmp_path)]) == 0
    assert file_digests(tmp_path, ("policy.csv", "convergence.csv")) == {
        "policy.csv":
            "0df79dc59dc958567961669d6b24be65a56a6a2d98a6f0da7a021283be4ac60a",
        "convergence.csv":
            "86c7abe4822377cce35e405c7c0b0f3d20582e5eec981a408eaf139b75370dbe",
    }


def test_train_detector_command_bytes_are_pinned(tmp_path):
    # the default arch, whose LSTM sees one step, so Adam skips its
    # recurrent weights 6.u, whose gradient is always zero
    cfg = write_config(tmp_path, "det.json",
                       {"scenario": SCENARIO, "epochs": 2, "batch_size": 8})
    out = tmp_path / "det"
    assert main(["train-detector", "--config", cfg, "--out", str(out)]) == 0
    assert _checkpoint_digest(out / "detector.npz") == \
        "f983a2a43b01ad7da7b718257a531785155ac89cfdc291ef1ff19c94521cd57b"
    assert file_digests(out, ("history.csv",)) == {
        "history.csv":
            "4ab61169e2da83e471c6e66c55a224989e7027567b02d8dcf9a4ea66f038fbd4",
    }


def test_train_detector_exits_1_without_the_blas_thread_control(
        tmp_path, capsys, no_blas_thread_control):
    # a numpy whose BLAS is not the bundled scipy-openblas: one line, exit 1
    cfg = write_config(tmp_path, "det.json",
                       {"scenario": SCENARIO, "arch": TINY_ARCH, "epochs": 1})
    assert main(["train-detector", "--config", cfg,
                 "--out", str(tmp_path / "det")]) == 1
    err = capsys.readouterr().err
    assert "scipy_openblas_set_num_threads64_" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_train_detector_tiny(tmp_path, capsys):
    cfg = write_config(tmp_path, "det.json", {
        "scenario": SCENARIO,
        "arch": TINY_ARCH,
        "epochs": 2,
        "batch_size": 16,
        "eval_seed": 4,
    })
    out = tmp_path / "det"
    assert main(["train-detector", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "detector.npz").exists()
    doc = json.loads((out / "evaluation.json").read_text())
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert "trained detector" in capsys.readouterr().out


def test_train_detector_rejects_zero_epochs(tmp_path, capsys):
    cfg = write_config(tmp_path, "det.json", {
        "scenario": SCENARIO, "arch": TINY_ARCH, "epochs": 0,
    })
    out = tmp_path / "det"
    assert main(["train-detector", "--config", cfg, "--out", str(out)]) == 2
    assert "epochs" in capsys.readouterr().err
    assert not out.exists()


def test_train_detector_rejects_outputs_other_than_the_labels(tmp_path, capsys):
    cfg = write_config(tmp_path, "det.json", {
        "scenario": SCENARIO, "arch": {**TINY_ARCH, "num_classes": 8}, "epochs": 1,
    })
    out = tmp_path / "det"
    assert main(["train-detector", "--config", cfg, "--out", str(out)]) == 2
    assert "num_classes 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-policy", "train-detector", "generate",
                                     "simulate", "evaluate"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_commands_reject_a_seed_the_generators_cannot_take(
        tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    assert main([command, "--seed", str(seed), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "[0, 2**64)" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_train_detector_writes_history(tmp_path):
    cfg = write_config(tmp_path, "det.json", {
        "scenario": SCENARIO, "arch": TINY_ARCH, "epochs": 3, "batch_size": 16,
    })
    out = tmp_path / "det"
    assert main(["train-detector", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["epoch", "loss", "train_accuracy", "val_accuracy"]
    assert [int(r["epoch"]) for r in rows] == [0, 1, 2]
    for r in rows:
        assert math.isfinite(float(r["loss"])) and float(r["loss"]) > 0.0
        assert 0.0 <= float(r["train_accuracy"]) <= 1.0
        assert 0.0 <= float(r["val_accuracy"]) <= 1.0


def test_simulate_and_compare_round_trip(tmp_path, scenario_cfg, capsys):
    base_out = tmp_path / "base"
    assert main(["simulate", "--config", scenario_cfg, "--seed", "42",
                 "--out", str(base_out)]) == 0
    assert (base_out / "metrics.json").exists()
    assert (base_out / "events.jsonl").exists()

    pol_out = tmp_path / "pol"
    pol_cfg = write_config(tmp_path, "pol.json", {"episodes": 200})
    assert main(["train-policy", "--config", pol_cfg, "--seed", "0",
                 "--out", str(pol_out)]) == 0
    sim_doc = {"scenario": SCENARIO, "policy": str(pol_out / "policy.csv"),
               "convergence": str(pol_out / "convergence.csv")}
    adaptive_cfg = write_config(tmp_path, "sim.json", sim_doc)
    adaptive_out = tmp_path / "adaptive"
    assert main(["simulate", "--config", adaptive_cfg, "--seed", "42",
                 "--out", str(adaptive_out)]) == 0

    cmp_out = tmp_path / "cmp"
    assert main(["compare", str(base_out / "metrics.json"),
                 str(adaptive_out / "metrics.json"),
                 "--out", str(cmp_out)]) == 0
    doc = json.loads((cmp_out / "comparison.json").read_text())
    rows = {r["indicator"]: r for r in doc["indicators"]}
    assert rows["damage.total"]["delta"] < 0  # the policy cuts damage
    capsys.readouterr()


def test_simulate_deterministic_modulo_timing(tmp_path, scenario_cfg, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--config", scenario_cfg, "--seed", "42",
                     "--out", str(out)]) == 0
    docs = [json.loads((out / "metrics.json").read_text())
            for out in (out_a, out_b)]
    for doc in docs:
        doc.pop("timing")
    assert docs[0] == docs[1]
    capsys.readouterr()


def test_policy_simulate_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # a Q-table in the loop, so the pin covers the state keys, the greedy
    # walk and the recent-action feedback; relative paths keep tmp_path out
    # of the report's config echo
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "pol.json", {"episodes": 200})
    assert main(["train-policy", "--config", cfg, "--seed", "0",
                 "--out", "pol"]) == 0
    sim = write_config(tmp_path, "sim.json",
                       {"scenario": SCENARIO, "policy": "pol/policy.csv"})
    assert main(["simulate", "--config", sim, "--out", "sim"]) == 0
    records = [json.loads(line)
               for line in (tmp_path / "sim/events.jsonl").read_text().splitlines()]
    actions = [r["action_id"] for r in records]
    assert len(set(actions)) >= 2
    # some window's key carries a non-zero recent-action bucket
    assert any(compose_indicators(0.0, 0.0, np.eye(len(LABELS))[0],
                                  ACTION_CATALOG[a].tier_norm())[3] > 0
               for a in actions[:-1])
    report = json.loads((tmp_path / "sim/metrics.json").read_text())
    h = hashlib.sha256()
    for doc in records + [report]:
        doc.pop("timing")
        h.update(json.dumps(doc, sort_keys=True).encode())
    assert h.hexdigest() == \
        "45a6141bf0e492a8bfd4e634a412f86b860ca96c86c30029404c1487cddb1a9a"
    capsys.readouterr()


def test_simulate_csv_format(tmp_path, scenario_cfg, capsys):
    out = tmp_path / "csv"
    assert main(["simulate", "--config", scenario_cfg, "--seed", "42",
                 "--format", "csv", "--out", str(out)]) == 0
    assert (out / "latency_breakdown.csv").exists()
    assert (out / "threat_distribution.csv").exists()
    assert (out / "convergence.csv").exists()
    # every numeric cell must parse back as a plain float
    rows = (out / "per_class_metrics.csv").read_text().splitlines()
    assert rows[0] == "class,precision,recall,f1,support"
    for row in rows[1:]:
        _, p, r, f1, support = row.split(",")
        assert all(v == repr(float(v)) for v in (p, r, f1))
        int(support)
    capsys.readouterr()


def test_simulate_rejects_a_malformed_convergence_curve(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("episode,mean_reward,moving_avg\n0,1.5\n")
    cfg = write_config(tmp_path, "sim.json",
                       {"scenario": SCENARIO, "convergence": str(curve)})
    out = tmp_path / "csv"
    assert main(["simulate", "--config", cfg, "--format", "csv",
                 "--out", str(out)]) == 4
    assert not (out / "convergence.csv").exists()
    assert "malformed convergence row" in capsys.readouterr().err


def test_simulate_replicas_flag(tmp_path, scenario_cfg, capsys):
    out_1, out_4 = tmp_path / "r1", tmp_path / "r4"
    assert main(["simulate", "--config", scenario_cfg, "--seed", "42",
                 "--replicas", "1", "--out", str(out_1)]) == 0
    assert main(["simulate", "--config", scenario_cfg, "--seed", "42",
                 "--replicas", "4", "--out", str(out_4)]) == 0
    docs = [json.loads((out / "metrics.json").read_text())
            for out in (out_1, out_4)]
    for doc in docs:
        doc.pop("timing")
        doc["config"].pop("replicas")
    assert docs[0] == docs[1]
    capsys.readouterr()


def test_evaluate_detection_only(tmp_path, scenario_cfg, capsys):
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", scenario_cfg, "--seed", "42",
                 "--format", "csv", "--out", str(out)]) == 0
    doc = json.loads((out / "evaluation.json").read_text())
    assert set(doc) >= {"accuracy", "per_class", "confusion"}
    per_class = (out / "per_class_metrics.csv").read_text().splitlines()
    assert per_class[0] == "class,precision,recall,f1,support"
    for row in per_class[1:]:
        _, p, r, f1, _ = row.split(",")
        assert all(v == repr(float(v)) for v in (p, r, f1))
    capsys.readouterr()


def test_evaluate_never_runs_the_response_walk(tmp_path, scenario_cfg,
                                              capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate ran the response walk")

    monkeypatch.setattr(simulate, "_respond", refuse)
    assert main(["evaluate", "--config", scenario_cfg, "--out",
                 str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "evaluation.json").exists()
    capsys.readouterr()


def test_compare_to_stdout(tmp_path, scenario_cfg, capsys):
    out = tmp_path / "m"
    assert main(["simulate", "--config", scenario_cfg, "--seed", "42",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out / "metrics.json"),
                 str(out / "metrics.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(r["delta"] in (0.0, None) for r in doc["indicators"])


def test_compare_via_config_keys(tmp_path, scenario_cfg, capsys):
    out = tmp_path / "m"
    assert main(["simulate", "--config", scenario_cfg, "--seed", "42",
                 "--out", str(out)]) == 0
    cfg = write_config(tmp_path, "cmp.json",
                       {"baseline": str(out / "metrics.json"),
                        "candidate": str(out / "metrics.json")})
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 0


# ---------------------------------------------------------------------------
# exit codes


def test_exit_two_on_bad_config_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_exit_two_on_missing_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": SCENARIO, "policy": "/absent/q.csv"})
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_exit_three_on_unreadable_report(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
def test_exit_three_on_a_report_holding_a_non_finite_number(tmp_path, scenario_cfg,
                                                            capsys, number):
    out = tmp_path / "m"
    assert main(["simulate", "--config", scenario_cfg, "--seed", "42",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    doc["damage"]["attack"] = float(number)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # as NaN, Infinity or -Infinity
    capsys.readouterr()
    assert main(["compare", str(out / "metrics.json"), str(bad)]) == 3
    err = capsys.readouterr().err
    assert "input error" in err and str(bad) in err


def test_exit_two_naming_a_config_holding_nan(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"scenario": {"duration_ms": NaN}}')
    out = tmp_path / "o"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(cfg) in err
    assert not out.exists()


def test_exit_four_on_corrupt_checkpoint(tmp_path, scenario_cfg, capsys):
    corrupt = tmp_path / "policy.csv"
    corrupt.write_text("this is not a q-table\n")
    doc = json.loads(open(scenario_cfg).read())
    doc["policy"] = str(corrupt)
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert "checkpoint error" in capsys.readouterr().err
    assert not out.exists()


def _detector_checkpoint(tmp_path, meta_edit):
    """A checkpoint of TINY_ARCH's shape whose metadata ``meta_edit`` alters."""
    arch = ArchConfig.from_dict(TINY_ARCH)
    params = dict(build_model(arch).parameters())
    params["norm.mean"] = params["norm.std"] = np.ones(arch.feature_dim)
    meta = {"kind": "detector", "arch": TINY_ARCH, "classes": list(LABELS),
            "layout": build_layout(arch.feature_dim).to_dict()}
    meta_edit(meta)
    path = tmp_path / "detector.npz"
    save_params(str(path), params, meta)
    return str(path)


@pytest.mark.parametrize("meta_edit", [
    lambda meta: meta.pop("arch"),
    lambda meta: meta.pop("layout"),
    lambda meta: meta.pop("classes"),
    lambda meta: meta.update(arch={"seq_len": 4}),
    lambda meta: meta.update(layout={"dim": 428}),
], ids=["no-arch", "no-layout", "no-classes", "bad-arch", "bad-layout"])
def test_exit_four_on_malformed_detector_metadata(tmp_path, capsys, meta_edit):
    ckpt = _detector_checkpoint(tmp_path, meta_edit)
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": SCENARIO, "detector": ckpt})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert ckpt in capsys.readouterr().err
    assert not out.exists()


def test_exit_four_on_a_per_gate_lstm_checkpoint(tmp_path, capsys):
    # the LSTM layout before its gates were stacked: twelve arrays, 6.w_i
    # to 6.b_g, in place of 6.w, 6.u and 6.b
    arch = ArchConfig()
    path = str(tmp_path / "detector.npz")
    ones = np.ones(arch.feature_dim)
    save_detector(path, build_model(arch), arch, NormStats(mean=ones, std=ones),
                  build_layout(arch.feature_dim))
    params, meta = load_params(path)
    for kind in "wub":
        for gate, block in zip("ifog", np.split(params.pop(f"6.{kind}"), 4, axis=-1)):
            params[f"6.{kind}_{gate}"] = block
    save_params(path, params, meta)
    with pytest.raises(CheckpointError, match=r"missing parameter '6\.w'"):
        load_detector(path)
    cfg = write_config(tmp_path, "c.json", {"scenario": SCENARIO, "detector": path})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "'6.w'" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_exit_four_on_a_detector_whose_outputs_outnumber_its_classes(
        tmp_path, capsys, command):
    # eight outputs saved under the six label names
    arch = ArchConfig.from_dict({**TINY_ARCH, "num_classes": 8})
    path = str(tmp_path / "detector.npz")
    ones = np.ones(arch.feature_dim)
    save_detector(path, build_model(arch), arch, NormStats(mean=ones, std=ones),
                  build_layout(arch.feature_dim))
    cfg = write_config(tmp_path, "c.json", {"scenario": SCENARIO, "detector": path})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert path in err and "6 class names for 8 outputs" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def _policy_of_five_actions(tmp_path):
    path = tmp_path / "policy.csv"
    path.write_text("# double-q checkpoint v1\nn_actions=5\n"
                    "state,action,q_a,q_b,visits\n")
    return {"policy": str(path)}


def _detector_of_overlapping_layout(tmp_path):
    def overlap(meta):
        meta["layout"]["segments"]["traffic"] = [0, 300]  # into time_series
    return {"detector": _detector_checkpoint(tmp_path, overlap)}


def _detector_of_five_wide_std(tmp_path):
    path = _detector_checkpoint(tmp_path, lambda meta: None)
    params, meta = load_params(path)
    params["norm.std"] = np.ones(5)
    save_params(path, params, meta)
    return {"detector": path}


def _detector_of_layout(edit):
    def checkpoint(tmp_path):
        return {"detector": _detector_checkpoint(
            tmp_path, lambda meta: edit(meta["layout"]))}
    return checkpoint


def _policy_with_n_actions_line(line):
    def checkpoint(tmp_path):
        path = tmp_path / "policy.csv"
        path.write_text(f"# double-q checkpoint v1\n{line}\n"
                        "state,action,q_a,q_b,visits\n")
        return {"policy": str(path)}
    return checkpoint


def _npy(arr, version=(1, 0)) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, version=version, allow_pickle=True)
    return buf.getvalue()


def _detector_of_members(edit):
    """A TINY_ARCH checkpoint rewritten as stored members, after ``edit``
    alters its dict of member name to bytes."""
    def checkpoint(tmp_path):
        path = _detector_checkpoint(tmp_path, lambda meta: None)
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        edit(members)
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        return {"detector": path}
    return checkpoint


def _detector_of_bad_local_header(tmp_path):
    path = _detector_checkpoint(tmp_path, lambda meta: None)
    with zipfile.ZipFile(path) as archive:
        at = archive.getinfo("0.kernel.npy").header_offset
    raw = bytearray(Path(path).read_bytes())
    raw[at:at + 4] = b"PK\x00\x00"  # the central directory still lists it
    Path(path).write_bytes(bytes(raw))
    return {"detector": path}


@pytest.mark.parametrize("command,checkpoint,message", [
    ("simulate", _policy_of_five_actions, "n_actions 5 does not match"),
    ("evaluate", lambda tmp_path: {"detector": _detector_checkpoint(
        tmp_path, lambda meta: meta.pop("arch"))}, "detector.npz"),
    ("simulate", _detector_of_five_wide_std, "'norm.std' shape (5,)"),
    ("simulate", lambda tmp_path: {"detector": _detector_checkpoint(
        tmp_path, lambda meta: meta.update(layout=build_layout(300).to_dict()))},
     "layout width 300"),
    ("simulate", _detector_of_overlapping_layout, "layout segment 'time_series'"),
    ("simulate", _detector_of_layout(lambda layout: layout.update(
        names=layout["names"][:-1])), "layout names length does not match dim"),
    ("simulate", _detector_of_layout(lambda layout: layout["segments"].update(
        traffic=[0, 200.0])),
     "layout segment 'traffic' [0, 200.0] is not a [start, end) pair of integers"),
    ("simulate", _detector_of_layout(lambda layout: layout["segments"].update(
        behavior=[328, 427])), "layout segments end at 427, not at dim 428"),
    ("simulate", _policy_with_n_actions_line("n_actions=five"),
     "bad n_actions line: 'n_actions=five'"),
    ("simulate", _policy_with_n_actions_line("n_actions=-1"),
     "negative n_actions: 'n_actions=-1'"),
    ("simulate", _detector_of_members(lambda m: m.update({"notes.txt": b"x"})),
     "member 'notes.txt' is not an .npy array"),
    ("simulate", _detector_of_members(lambda m: m.pop("meta_json.npy")),
     "missing 'meta_json' entry"),
    ("simulate", _detector_of_members(lambda m: m.update({"meta_json.npy": _npy(
        np.frombuffer(b"{nope", dtype=np.uint8))})), "corrupt metadata"),
    ("simulate", _detector_of_members(lambda m: m.update({"0.kernel.npy": _npy(
        np.zeros(3, dtype=np.float32))})),
     "parameter '0.kernel' has dtype float32, expected float64"),
    ("simulate", _detector_of_members(lambda m: m.update({"0.kernel.npy": _npy(
        np.array([None], dtype=object))})), "object arrays are not parameters"),
    ("simulate", _detector_of_members(lambda m: m.update({"0.kernel.npy": _npy(
        np.zeros(3), version=(3, 0))})), "unsupported .npy version (3, 0)"),
    ("simulate", _detector_of_bad_local_header,
     "bad local header for file '0.kernel.npy'"),
], ids=["simulate-policy", "evaluate-detector", "simulate-std-width",
        "simulate-layout-width", "simulate-layout-overlap", "simulate-layout-names",
        "simulate-layout-float-segment", "simulate-layout-short",
        "simulate-q-table-n-actions", "simulate-q-table-negative-n-actions",
        "simulate-archive-not-npy", "simulate-archive-no-meta",
        "simulate-archive-meta-not-json", "simulate-archive-float32",
        "simulate-archive-object", "simulate-archive-npy-v3",
        "simulate-archive-local-header"])
def test_exit_four_before_out_is_made(tmp_path, capsys, command, checkpoint,
                                      message):
    cfg = write_config(tmp_path, "c.json",
                       {"scenario": SCENARIO, **checkpoint(tmp_path)})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("member,value", [("0.kernel", np.nan), ("norm.mean", np.nan),
                                          ("norm.std", np.inf)])
def test_exit_four_on_a_non_finite_detector_value(tmp_path, capsys, member, value):
    # these exited 3 after --out was made, or, for the infinite std, ran on
    # with that feature zeroed
    path = _detector_checkpoint(tmp_path, lambda meta: None)
    params, meta = load_params(path)
    params[member].flat[params[member].size // 2] = value
    save_params(path, params, meta)
    cfg = write_config(tmp_path, "c.json", {"scenario": SCENARIO, "detector": path})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"{path}: parameter {member!r} holds a NaN or an infinity" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


# each document exits 2 before any --out directory is made
MALFORMED = [
    ("train-detector", {"epochs": "two"}),
    ("train-detector", {"scenario": SCENARIO, "arch": TINY_ARCH,
                        "eval_seed": "x", "epochs": 1}),
    ("train-detector", {"threshold": "x"}),
    ("train-detector", {"arch": dict(TINY_ARCH, conv_filters=5)}),
    ("train-policy", {"env": {"bogus": 1}}),
    ("train-policy", {"episodes": "x"}),
    ("train-policy", {"env": {"intensity_range": 5}}),
    ("train-policy", {"env": {"seed": 1}}),
    ("evaluate", {"threshold": "x"}),
    ("evaluate", {"scenario": SCENARIO, "bogus": 1}),
    ("simulate", {"seed": "x"}),
    ("simulate", {"scenario": SCENARIO, "fixed_action": 3.7}),
    ("simulate", {"scenario": SCENARIO, "treshold": 0.2}),
    ("simulate", {"scenario": SCENARIO, "deadline_ms": float("nan")}),
    ("compare", {"baseline": 5, "candidate": "b.json"}),
    ("simulate", {"scenario": dict(SCENARIO, attacks=[
        {"kind": "benign", "intensity": 1.0, "start": 0, "end": 3000}])}),
    ("simulate", {"scenario": {"duration_ms": 5000}, "fixed_action": 999}),
    ("train-detector", {"scenario": SCENARIO, "arch": TINY_ARCH, "epochs": 1,
                        "threshold": 5}),
    ("generate", {"scenario": SCENARIO, "seed": 3}),
    ("train-detector", {"scenario": SCENARIO, "arch": TINY_ARCH, "epoch": 2}),
    ("train-policy", {"episodes": 5, "episode_len": 10}),
    ("compare", {"baseline": "a.json", "candidate": "b.json", "out": "c"}),
]


@pytest.mark.parametrize("command,doc", MALFORMED,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(MALFORMED)])
def test_exit_two_on_malformed_config(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


# each documented rejection, with the message that names it
DOCUMENTED = [
    ("train-detector", {"scenario": SCENARIO, "arch": dict(TINY_ARCH, feature_dim=2),
                        "epochs": 1}, "arch feature_dim 2: dim must be at least 3"),
    ("train-detector", {"scenario": SCENARIO, "arch": dict(TINY_ARCH, feature_dim=1),
                        "epochs": 1}, "arch feature_dim 1: dim must be at least 3"),
    ("train-detector", {"arch": dict(TINY_ARCH, num_classes=1)},
     "need at least two classes"),
    ("train-detector", {"arch": dict(TINY_ARCH, conv_filters=[])},
     "conv_filters must be positive"),
    ("train-detector", {"arch": dict(TINY_ARCH, conv_filters=[4, 0])},
     "conv_filters must be positive"),
    ("train-detector", {"arch": dict(TINY_ARCH, lstm_hidden=0)}, "sizes must be positive"),
    ("train-detector", {"arch": dict(TINY_ARCH, feature_dim=0)}, "sizes must be positive"),
    ("train-detector", {"arch": dict(TINY_ARCH, pool_after=[3])},
     "pool_after indices must reference conv layers"),
    ("generate", {"scenario": dict(SCENARIO, attacks=[
        {"kind": "ddos", "intensity": 0.5, "start": 5000, "end": 5000}])},
     "attack start 5000 must precede end 5000"),
    ("generate", {"scenario": dict(SCENARIO, duration_ms=0)},
     "duration and window must be positive"),
    ("generate", {"scenario": dict(SCENARIO, benign_rate=0)},
     "benign_rate must be positive"),
    ("generate", {"scenario": dict(SCENARIO, ddos_surge=1.0)}, "ddos_surge must exceed 1"),
    ("train-policy", {"anneal_fraction": 0}, "anneal_fraction must be in (0, 1]"),
    ("generate", [SCENARIO], "config file must hold a single JSON object"),
]


@pytest.mark.parametrize("command,doc,message", DOCUMENTED,
                         ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(DOCUMENTED)])
def test_exit_two_names_the_documented_rejection(tmp_path, capsys, command, doc,
                                                 message):
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert not out.exists()


def test_compare_without_reports_exits_two(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["compare", "--out", str(out)]) == 2
    assert "compare needs a baseline and a candidate" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_string_seed_runs_as_that_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"scenario": SCENARIO, "seed": "7"})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "metrics.json").read_text())["config"]["seed"] == 7
    capsys.readouterr()


def test_partial_arch_takes_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, "det.json", {
        "scenario": SCENARIO, "epochs": 1, "batch_size": 16,
        "arch": {key: TINY_ARCH[key] for key in
                 ("seq_len", "conv_filters", "pool_after", "lstm_hidden",
                  "fc_widths")}})
    out = tmp_path / "det"
    assert main(["train-detector", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command,doc,blocked", [
    ("train-policy", {"episodes": 4, "steps_per_episode": 5}, "policy.csv"),
    ("train-policy", {"episodes": 4, "steps_per_episode": 5}, "convergence.csv"),
    ("train-detector", {"scenario": SCENARIO, "arch": TINY_ARCH, "epochs": 1,
                        "batch_size": 16}, "detector.npz"),
])
def test_exit_five_when_a_training_output_cannot_be_written(tmp_path, capsys,
                                                            command, doc, blocked):
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out)]) == 5
    assert "filesystem error:" in capsys.readouterr().err


def test_exit_five_on_blocked_output(tmp_path, scenario_cfg, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("file")
    assert main(["generate", "--config", scenario_cfg,
                 "--out", str(blocker / "sub")]) == 5
    assert "filesystem error" in capsys.readouterr().err


def test_module_entry_point(tmp_path, scenario_cfg):
    out = tmp_path / "mod"
    # the child imports the package under test, wherever pytest found it
    src = str(Path(cloudguard.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cloudguard.cli", "generate",
         "--config", scenario_cfg, "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert (out / "telemetry.jsonl").exists()


def _run_cli(cwd, blas_threads, *argv):
    """``python -m cloudguard.cli argv`` in a child that starts OpenBLAS with
    ``blas_threads`` threads."""
    src = str(Path(cloudguard.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cloudguard.cli", *argv], cwd=cwd,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path,
             "OPENBLAS_NUM_THREADS": str(blas_threads)})
    assert proc.returncode == 0, proc.stderr


def _untimed_events(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        record.pop("timing")
    return records


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the benchmark runs with one OpenBLAS thread and the suite with the
    # host's default, so both must see the same bits; each simulate scores
    # the same checkpoint
    write_config(tmp_path, "det.json",
                 {"scenario": SCENARIO, "epochs": 2, "batch_size": 8})
    write_config(tmp_path, "sim.json",
                 {"scenario": SCENARIO, "detector": "det1/detector.npz"})
    for threads in (1, 2):
        _run_cli(tmp_path, threads, "train-detector", "--config", "det.json",
                 "--out", f"det{threads}")
    for threads in (1, 2):
        _run_cli(tmp_path, threads, "simulate", "--config", "sim.json",
                 "--out", f"sim{threads}")
    det1, det2 = tmp_path / "det1", tmp_path / "det2"
    assert _checkpoint_digest(det1 / "detector.npz") == \
        _checkpoint_digest(det2 / "detector.npz")
    assert (det1 / "history.csv").read_bytes() == (det2 / "history.csv").read_bytes()
    assert _untimed_events(tmp_path / "sim1" / "events.jsonl") == \
        _untimed_events(tmp_path / "sim2" / "events.jsonl")

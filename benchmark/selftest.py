"""Fast self-test of the benchmark harness on a tiny scenario.

    python3 benchmark/selftest.py

Checks that BENCHMARK.json names exactly the metrics the harness emits,
that every workload emits every end-to-end metric, that the traced run
emits every per-layer metric and a non-zero value for each layer that runs
on the workload, that a corrupted ``events.jsonl`` is counted as failed, and
that the benchmark refuses to run without the package sources. Exits 0 when
all of that holds. Takes under half a minute on two cores.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run as bench

bench.import_cloudguard()

import harness  # noqa: E402  (needs the package path set up above)
from probes import PER_LAYER  # noqa: E402

TINY = harness.Scale(rounds=2, detector_rounds=2, qtable_episodes=20, train_rounds=2,
                     policy_episodes=60, setup_repeats=1)
SIMS = set(harness.SIMS)
EVERY = set(harness.WORKLOADS)

# per-layer metric (or name prefix) -> workloads on which it must be non-zero;
# ratios are only range-checked, since a run may legitimately score 0
MUST_RUN = {
    "scenario.": EVERY,
    "telemetry.": EVERY,
    "features.": EVERY,
    "detector.classify": {"sim-sparse-neural"},
    "detector.train_s": {"sim-sparse-neural", "train"},
    "detector.batches": {"sim-sparse-neural", "train"},
    "detector.eval_s": {"sim-sparse-neural", "train"},
    "nn.": {"sim-sparse-neural", "train"},
    "baseline.": {"sim-dense"},
    "perception.": SIMS,
    "policy.": EVERY,
    "enforcement.apply_s": SIMS,
    "enforcement.resolve": EVERY,
    "environment.": EVERY,
    "simulate.": SIMS,
    "cli.": SIMS,
    "trace.": EVERY,
}


def must_run(metric: str) -> set:
    prefix = max((p for p in MUST_RUN if metric.startswith(p)), key=len)
    return MUST_RUN[prefix]


def check_benchmark_json() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == harness.END_TO_END, "BENCHMARK.json end_to_end drifted from the harness"
    assert per_layer == PER_LAYER, "BENCHMARK.json per_layer drifted from the probes"
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def check_end_to_end(workload: str, workdir: Path) -> None:
    run = harness.Run(workload, seed=3, seconds=0, workdir=str(workdir), scale=TINY)
    run.setup()
    outcome = run.evaluate(run.timed_ops())
    assert set(outcome.metrics) == set(harness.END_TO_END), outcome.metrics
    for name, value in outcome.metrics.items():
        assert value is not None and math.isfinite(value) and value > 0, (name, value)
    assert outcome.attempted > 0 and 0 <= outcome.failed <= outcome.attempted


def check_traced(workload: str, workdir: Path) -> None:
    run = harness.Run(workload, seed=4, seconds=0, workdir=str(workdir), scale=TINY)
    _, layers, spans = bench.run_traced(run)
    assert set(layers) == set(PER_LAYER), set(layers) ^ set(PER_LAYER)
    assert len(spans) > 0
    for name, value in layers.items():
        assert math.isfinite(value) and value >= 0, (workload, name, value)
        if name.endswith("_ratio"):
            assert name == "trace.overhead_ratio" or value <= 1.0, (workload, name, value)
            if name.startswith("trace."):
                assert value > 0, (workload, name, value)
        elif workload in must_run(name):
            assert value > 0, f"{workload}: {name} is 0 but its layer runs there"


def check_corruption(workdir: Path) -> None:
    """A damaged events.jsonl must raise the failed count."""
    name = "sim-dense"
    run = harness.Run(name, seed=5, seconds=0, workdir=str(workdir), scale=TINY)
    run.setup()
    ops = run.timed_ops()
    scn = harness.sim_scenario(name, 5, TINY)
    n = scn.n_windows

    def failed() -> tuple[int, list[str]]:
        attempted, bad, problems, _, _ = harness.check_sim_ops(
            name, run.config_path(), ops, n, scn)
        assert attempted == n * len(ops)
        return bad, problems

    structural = ("exit", "unreadable", "window_ids", "report_recompute", "repeat_bytes")
    bad, problems = failed()
    assert not any(check in p for p in problems for check in structural), problems

    events = Path(ops[1].data["out"]) / "events.jsonl"
    pristine = events.read_text().splitlines(keepends=True)

    events.write_text("".join(pristine[:3] + pristine[4:]))  # one window missing
    bad, problems = failed()
    assert bad >= 1 and any("window_ids" in p for p in problems), problems

    doc = json.loads(pristine[5])
    doc["attack_damage"] += 1.0  # a non-timing field changed
    events.write_text("".join(pristine[:5] + [json.dumps(doc) + "\n"] + pristine[6:]))
    bad, problems = failed()
    assert any("report_recompute" in p for p in problems), problems
    assert any("repeat_bytes" in p for p in problems), problems

    events.write_text("".join(pristine[:7] + ["{not json\n"] + pristine[8:]))
    bad, problems = failed()
    assert bad >= n and any("unreadable" in p for p in problems), problems


def check_refuses_without_sources(workdir: Path) -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    bare = workdir / "bare"
    shutil.copytree(bench.HERE, bare / bench.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{bench.HERE.name}/run.py", "--workload",
                           "sim-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 2, proc
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    workdir = bench.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        check_benchmark_json()
        for workload in harness.WORKLOADS:
            check_end_to_end(workload, workdir / f"e2e-{workload}")
            check_traced(workload, workdir / f"trace-{workload}")
        check_corruption(workdir / "corrupt")
        check_refuses_without_sources(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"benchmark self-test passed in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

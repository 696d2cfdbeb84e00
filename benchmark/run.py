"""Run one cloudguard benchmark workload and print its metrics.

    python3 benchmark/run.py --workload sim-dense --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Run from anywhere; the package is imported from ``src/`` next to this
directory. Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, from a
run that times one untraced and one traced operation. The exit code is 0
when every output check passed, 1 when one failed, 2 when the run could not
start. Results, with the run's metadata, are also written under
``benchmark/out/``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: sim-sparse-neural already runs two
# shard threads on this two-core host, and more busy threads than cores
# would time the scheduler rather than the program.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="sim-dense, sim-sparse-neural, train, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long (whole operations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cannot_start(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_cloudguard():
    """Import cloudguard from this checkout's src/, or nothing at all."""
    if not (SRC / "cloudguard" / "__init__.py").is_file():
        cannot_start(f"no cloudguard sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cloudguard

    if not Path(cloudguard.__file__).resolve().is_relative_to(SRC):
        cannot_start(f"imported cloudguard from {cloudguard.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# run metadata


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    pkg = SRC / "cloudguard"
    for path in sorted(p for p in pkg.rglob("*")
                       if p.is_file() and p.suffix in (".py", ".csv", ".json")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# running


def run_traced(run):
    """Set up under the tracer, then one untraced and one traced operation."""
    from probes import install, layer_metrics
    from tracing import Tracer

    tracer = Tracer()
    install(tracer)
    tracer.activate()
    try:
        run.setup_once(0)
    finally:
        tracer.uninstall()
    plain = run.op(0)
    install(tracer)
    tracer.activate()
    try:
        traced = run.op(1)
    finally:
        tracer.uninstall()
    outcome = run.evaluate([plain, traced])
    spans = tracer.spans()
    layers = layer_metrics(tracer, spans, (traced.begin, traced.end),
                           traced.job_s / plain.job_s)
    return outcome, layers, spans


def run_one(args) -> int:
    import_cloudguard()
    import harness
    from probes import PER_LAYER

    if args.workload not in harness.WORKLOADS:
        cannot_start(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)} or all")
    meta = metadata(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    run = harness.Run(args.workload, args.seed, args.seconds, str(workdir))
    try:
        if args.trace:
            outcome, layers, spans = run_traced(run)
            spans.save(str(OUT / f"{stem}-spans.npz"))
            reported = {name: (layers[name], unit) for name, (unit, _) in PER_LAYER.items()}
        else:
            run.setup()
            outcome = run.evaluate(run.timed_ops())
            reported = {name: (outcome.metrics[name], unit)
                        for name, (unit, _) in harness.END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {outcome.info['ops']}")
    print(f"# nproc {meta['nproc']}  python {meta['python']}  numpy {meta['numpy']}  "
          f"blas {meta['blas']['name']} {meta['blas']['version']} "
          f"({meta['blas']['threads']} threads)  commit {meta['git_commit']}")
    samples = outcome.info["latency_samples"]
    print(f"# latency ({samples['what']}): each operation's percentiles, then the "
          f"median over {samples['ops_timed']} operations; samples per operation "
          f"{sorted(set(samples['per_op']))}, beyond p90 "
          f"{sorted(set(samples['beyond_p90_per_op']))}. A ref is one run of the "
          f"reference kernel, timed next to each operation.")
    lines = list(outcome.named.items()) + (list(reported.items()) if args.trace else [])
    for name, (value, unit) in lines:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:<18} {name:<28} {shown:>14} {unit}")
    print(f"{args.workload:<18} attempted {outcome.attempted}  failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"{args.workload:<18} FAILED {problem}")

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    record = {"meta": meta, "result": result, "info": outcome.info,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()},
              "problems": outcome.problems}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import_cloudguard()
    import harness

    code = 0
    for workload in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

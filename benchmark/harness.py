"""Workloads, output checks and end-to-end metrics of the cloudguard benchmark.

Every workload is a closed loop: one caller in one process, each operation
starting after the previous one finished. The workload seed only shapes the
generated inputs (the simulated scenario, the training initialisation); the
set-up artifacts are built from fixed seeds of their own, so every run of a
workload sees the same Q-table, detector checkpoint and training sequences.

cloudguard is driven only through its public entry points: ``cli.main``
in-process for the simulations, ``detector.train`` and
``policy.train_policy`` for training. Checks run after the timed region.
"""

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from cloudguard import cli, detector, environment, features, policy, scenario, simulate
from cloudguard.errors import CloudguardError

# fixed set-up seeds, far from the small seeds a run is given
QTABLE_SEED = 7_000_001
DETECTOR_SEED = 7_000_002
TRAIN_DATA_SEED = 7_000_003

# end-to-end metrics every workload reports: name -> (unit, better). A "ref"
# is one run of reference_kernel, timed next to the operation (see below).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_ref": ("ref", "lower"),
    "latency_p50_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass(frozen=True)
class Scale:
    """Input sizes. FULL is the benchmark; the self-test shrinks them.

    Operations are kept short (about 0.4 to 6 s) so that the reference
    kernel, timed between them, sees the host at the speed the operation
    saw (see reference_kernel).
    """

    rounds: int = 2  # simulated default_scenario rounds: 130 windows
    detector_rounds: int = 10  # set-up detector data: 650 windows
    qtable_episodes: int = 200  # set-up Q-table (the default preset runs 1500)
    train_rounds: int = 10  # training sequences from 650 windows
    policy_episodes: int = 200  # the default preset runs 1500
    setup_repeats: int = 3


FULL = Scale()
MIN_OPS = 3  # the repeat-bytes check needs two


@dataclass(frozen=True)
class SimSpec:
    benign_rate: float
    neural: bool
    replicas: int
    min_accuracy: float  # of confident verdicts
    max_unknown_rate: float
    max_damage_share: float  # adaptive total damage / observe-only damage


SIMS = {
    "sim-dense": SimSpec(benign_rate=60.0, neural=False, replicas=1,
                         min_accuracy=0.90, max_unknown_rate=0.05,
                         max_damage_share=0.5),
    "sim-sparse-neural": SimSpec(benign_rate=6.0, neural=True, replicas=2,
                                 min_accuracy=0.80, max_unknown_rate=0.60,
                                 max_damage_share=0.6),
}
TRAIN = "train"
WORKLOADS = (*SIMS, TRAIN)

# Floor on the validation accuracy of the model detector.train returns,
# which is its best epoch's. Two epochs: after one, it was 0.74 on one of ten
# seeds, too close to the floor; after two, 0.82 to 0.95 on thirty seeds.
TRAIN_MIN_VAL_ACCURACY = 0.70
TRAIN_EPOCHS = 2


def returned_val_accuracy(history: list[dict]) -> float:
    """detector.train restores its best validation-accuracy epoch."""
    return max(h["val_accuracy"] for h in history)


@dataclass
class Op:
    """One timed operation and what it left behind for the checks."""

    begin: float  # perf_counter bounds of the timed region
    end: float
    job_s: float
    data: dict = field(default_factory=dict)
    # With the reference kernel timed between parts of the timed region:
    # each part's wall time and the kernel ("plain" or "conv") it is divided
    # by, and the kernel times between consecutive parts.
    parts: list[tuple[float, str]] | None = None
    inner_refs: list[dict] = field(default_factory=list)
    # set by repeat_ops: the operation in refs, and the kernel time around
    # its last part, which holds the latency samples
    job_ref: float | None = None
    ref_s: float | None = None


@dataclass
class Outcome:
    """A workload run: counts, metrics and the facts behind them."""

    attempted: int
    failed: int
    metrics: dict  # END_TO_END name -> value
    named: dict  # the workload's own metrics: name -> (value, unit)
    info: dict
    problems: list[str]


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q of the mass at or
    below it. The harness's own, so no change to cloudguard's percentile code
    can move a benchmark figure."""
    data = sorted(samples)
    return float(data[max(math.ceil(q * len(data)), 1) - 1])


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# reference kernel
#
# The host is a shared VM. Its speed for the same code drifts by up to 3x
# within minutes (a simulation operation measured 0.44 s and 1.30 s two
# minutes apart), so a wall time taken in one run says little about the
# code. The timed end-to-end metrics are therefore stated in refs: an
# operation's wall time divided by the time of this fixed kernel, timed in
# the same process just before and just after the operation, outside its
# timed region. The kernel is the benchmark's own code and calls nothing of
# cloudguard, so a change to cloudguard moves a ref-valued metric as it
# moves the wall time. Like the workloads, it allocates small Python
# objects, walks dicts and makes small numpy calls. Raw wall times are
# printed and recorded next to the ref values.

REF_REPS = 10  # kernel runs per calibration, 4 to 11 ms each


def reference_kernel() -> float:
    rng = random.Random(12345)
    rows = [{"id": i, "v": rng.random(), "k": "abcde"[i % 5]} for i in range(4000)]
    rows.sort(key=lambda r: r["v"])
    totals: dict[str, float] = {}
    for r in rows:
        totals[r["k"]] = totals.get(r["k"], 0.0) + r["v"] * (r["id"] % 7)
    a = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
    for _ in range(200):
        a = np.tanh(a @ a.T * 0.05 + a[::-1])
    return sum(totals.values()) + float(a.sum())


_CONV_X = np.random.default_rng(0).standard_normal((4, 16, 428))
_CONV_K = np.random.default_rng(1).standard_normal((3, 428, 64)) * 0.05


def conv_kernel() -> float:
    """One forward and backward step of a convolution shaped like the
    detector's first layer, where ``train``'s detector loop spends most of
    its time. The host's drift slows these numpy kernels differently from
    interpreted Python: over four minutes of training loops, the detector
    loop's time divided by reference_kernel plus this kernel varied half as
    much as divided by reference_kernel alone."""
    out = np.zeros((4, 14, 64))
    for kk in range(3):
        out += _CONV_X[:, kk:kk + 14, :] @ _CONV_K[kk]
    dout = np.tanh(out)
    total = 0.0
    for kk in range(3):
        total += float(np.einsum("bti,bto->io", _CONV_X[:, kk:kk + 14, :], dout).sum())
        total += float((dout @ _CONV_K[kk].T).sum())
    return total


def reference_times(conv: bool = False, reps: int = REF_REPS) -> dict[str, list[float]]:
    """Kernel times, with the cyclic garbage collector off: a collection
    would walk the program's heap, whose size differs by workload.
    ``plain`` holds reference_kernel's times; with ``conv``, ``conv`` holds
    those of reference_kernel and conv_kernel run back to back."""
    times: dict[str, list[float]] = {"plain": [], "conv": []}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            begin = time.perf_counter()
            reference_kernel()
            times["plain"].append(time.perf_counter() - begin)
            if conv:
                conv_kernel()
                times["conv"].append(time.perf_counter() - begin)
    finally:
        if was_enabled:
            gc.enable()
    return times


def repeat_ops(run_op, seconds: float, min_ops: int, conv: bool) -> list[Op]:
    """Run whole operations while the next one is expected to end within
    ``seconds`` of the first one's start, and at least ``min_ops`` of them.
    The reference kernel is timed before each operation and after the last,
    and an operation may time it between its parts too. Each part is
    divided by the median of its kernel's times on both sides of it."""
    ops: list[Op] = []
    reference_times(conv, reps=1)  # warm-up
    before = reference_times(conv)
    start = time.perf_counter()
    while True:
        op = run_op(len(ops))
        after = reference_times(conv)
        sides = [before, *op.inner_refs, after]
        parts = op.parts or [(op.job_s, "plain")]
        refs = [median(sides[i][kernel] + sides[i + 1][kernel])
                for i, (_, kernel) in enumerate(parts)]
        op.job_ref = sum(part_s / ref for (part_s, _), ref in zip(parts, refs))
        op.ref_s = refs[-1]
        before = after
        ops.append(op)
        elapsed = time.perf_counter() - start
        typical = statistics.median(op.job_s for op in ops)
        if len(ops) >= min_ops and elapsed + typical > seconds:
            return ops


# ---------------------------------------------------------------------------
# simulations


def sim_scenario(name: str, seed: int, scale: Scale) -> scenario.ScenarioConfig:
    return scenario.default_scenario(seed=seed, rounds=scale.rounds,
                                     benign_rate=SIMS[name].benign_rate)


def setup_sim(name: str, scale: Scale, dest: str) -> dict:
    """Train the Q-table (and, for the neural workload, the detector)."""
    spec = SIMS[name]
    os.makedirs(dest, exist_ok=True)
    env = environment.DefenseEnv(environment.EnvConfig(seed=QTABLE_SEED))
    preset = dataclasses.replace(environment.defense_train_config(seed=QTABLE_SEED),
                                 episodes=scale.qtable_episodes)
    tables, _ = policy.train_policy(env, preset)
    qtable = os.path.join(dest, "policy.csv")
    policy.save_qtables(qtable, tables)
    artifacts = {"policy": qtable, "detector": simulate.BASELINE_DETECTOR}
    if spec.neural:
        arch = detector.ArchConfig()
        layout = features.build_layout(dim=arch.feature_dim)
        stream = scenario.generate_stream(scenario.default_scenario(
            seed=DETECTOR_SEED, rounds=scale.detector_rounds,
            benign_rate=spec.benign_rate))
        x, y, stats = detector.prepare_dataset(stream, layout, arch.seq_len)
        model = detector.build_model(arch, seed=DETECTOR_SEED)
        detector.train(model, x, y, detector.TrainConfig(epochs=1, seed=DETECTOR_SEED))
        ckpt = os.path.join(dest, "detector.npz")
        detector.save_detector(ckpt, model, arch, stats, layout)
        artifacts["detector"] = ckpt
    return artifacts


def write_sim_config(name: str, seed: int, scale: Scale, artifacts: dict,
                     path: str) -> None:
    doc = {
        "scenario": sim_scenario(name, seed, scale).to_dict(),
        "detector": artifacts["detector"],
        "policy": artifacts["policy"],
        "replicas": SIMS[name].replicas,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def sim_op(config_path: str, out_dir: str) -> Op:
    """One ``cloudguard simulate``: config in, events.jsonl + metrics.json out."""
    summary = io.StringIO()
    begin = time.perf_counter()
    with contextlib.redirect_stdout(summary):
        code = cli.main(["simulate", "--config", config_path, "--out", out_dir])
    end = time.perf_counter()
    return Op(begin, end, end - begin,
              {"exit_code": code, "summary": summary.getvalue(), "out": out_dir})


def _strip_timing(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "timing"}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def observe_only_damage(scn: scenario.ScenarioConfig) -> float:
    """Damage had every window been left to action 0 (observe only).

    Action 0 engages no tier, and every tier-0 friction is 0, so its
    collateral damage is 0 at any load: ground truth from the scenario
    config is enough, without regenerating the traffic.
    """
    catalog = policy.build_action_catalog()
    idle = policy.get_action(catalog, 0)
    if (idle.firewall_tier, idle.rate_limit_tier, idle.isolation_tier) != (0, 0, 0):
        raise RuntimeError("action 0 is no longer observe-only")
    truths = []
    for i in range(scn.n_windows):
        start, end = i * scn.window_ms, (i + 1) * scn.window_ms
        kind = scenario.label_for_window(scn.attacks, start, end)
        intensity = 0.0 if kind == "benign" else \
            scenario.truth_intensity(scn.attacks, start, end, kind)
        truths.append((kind, intensity, 0.0))
    return simulate.fixed_action_damage(truths, idle)


def check_sim_op(name: str, config_path: str, op: Op, n_windows: int,
                 observe_damage: float) -> dict:
    """Check one simulation's files. Returns the failed window ids per check,
    the per-window non-timing digests and the latency samples."""
    spec = SIMS[name]
    everything = set(range(n_windows))
    failed: dict[str, set] = {}
    result = {"failed": failed, "window_digests": None, "report_digest": None,
              "latencies": None}
    if op.data["exit_code"] != 0 or \
            not op.data["summary"].startswith(f"simulated {n_windows} windows"):
        failed["exit"] = everything
        return result
    events_path = os.path.join(op.data["out"], "events.jsonl")
    try:
        events = simulate.read_events(events_path)
        with open(events_path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        with open(os.path.join(op.data["out"], "metrics.json"), encoding="utf-8") as fh:
            persisted = json.load(fh)
    except (CloudguardError, OSError, ValueError):
        persisted = None
    if not isinstance(persisted, dict):
        failed["unreadable"] = everything
        return result

    ids = [ev.window_id for ev in events]
    seen: dict[int, int] = {}
    for i in ids:
        seen[i] = seen.get(i, 0) + 1
    bad = {i for i in everything if seen.get(i) != 1}
    if bad or len(ids) != n_windows:
        failed["window_ids"] = bad or everything
    else:
        latencies = [0.0] * n_windows
        for ev in events:
            latencies[ev.window_id] = ev.latency.total_ms
        result["latencies"] = latencies  # by window id
    result["window_digests"] = {d["window_id"]: _digest(_strip_timing(d)) for d in lines}

    with open(config_path, encoding="utf-8") as fh:
        config = simulate.SimConfig.from_dict(json.load(fh))
    try:
        rebuilt = json.loads(json.dumps(simulate.build_report(config, events).to_dict()))
    except CloudguardError:
        rebuilt = None
    result["report_digest"] = _digest(_strip_timing(persisted))
    if rebuilt is None or _strip_timing(rebuilt) != _strip_timing(persisted):
        failed["report_recompute"] = everything
        return result

    det = rebuilt["detection"]
    damage = rebuilt["damage"]["total"]
    if det["accuracy"] < spec.min_accuracy:
        failed["accuracy_floor"] = everything
    if det["unknown_rate"] > spec.max_unknown_rate:
        failed["unknown_rate_floor"] = everything
    if not damage <= spec.max_damage_share * observe_damage:
        failed["damage_floor"] = everything
    result["quality"] = {"accuracy": det["accuracy"], "unknown_rate": det["unknown_rate"],
                         "damage": damage, "observe_only_damage": observe_damage}
    return result


def check_sim_ops(name: str, config_path: str, ops: list[Op], n_windows: int,
                  scn: scenario.ScenarioConfig) -> tuple[int, int, list[str], list, list]:
    """All checks of a run; returns (attempted, failed, problems, per-op
    latency samples by window id or None, per-op quality)."""
    observe = observe_only_damage(scn)
    checked = [check_sim_op(name, config_path, op, n_windows, observe) for op in ops]
    first = checked[0]
    for res in checked[1:]:
        # the non-timing bytes of every repeat must equal the first one's
        if first["window_digests"] is None or res["window_digests"] is None:
            continue
        differing = {i for i in range(n_windows)
                     if res["window_digests"].get(i) != first["window_digests"].get(i)}
        if res["report_digest"] != first["report_digest"]:
            differing = set(range(n_windows))
        if differing:
            res["failed"]["repeat_bytes"] = differing
    failed = 0
    problems = []
    for k, res in enumerate(checked):
        bad = set().union(*res["failed"].values()) if res["failed"] else set()
        failed += len(bad)
        problems += [f"op {k}: {check} failed on {len(ids)} windows"
                     for check, ids in sorted(res["failed"].items())]
    latencies = [res["latencies"] for res in checked]
    quality = [res.get("quality") for res in checked]
    return n_windows * len(ops), failed, problems, latencies, quality


# ---------------------------------------------------------------------------
# training


def setup_train(scale: Scale) -> tuple[np.ndarray, np.ndarray]:
    """Featurize default-scenario traffic into training sequences."""
    arch = detector.ArchConfig()
    stream = scenario.generate_stream(
        scenario.default_scenario(seed=TRAIN_DATA_SEED, rounds=scale.train_rounds))
    x, y, _ = detector.prepare_dataset(stream, features.build_layout(dim=arch.feature_dim),
                                       arch.seq_len)
    return x, y


class EpisodeClock(environment.DefenseEnv):
    """The training environment, noting when each episode starts."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.resets: list[float] = []

    def reset(self) -> int:
        self.resets.append(time.perf_counter())
        return super().reset()


def policy_preset(seed: int, scale: Scale) -> policy.PolicyTrainConfig:
    return dataclasses.replace(environment.defense_train_config(seed=seed),
                               episodes=scale.policy_episodes)


def train_op(x, y, seed: int, scale: Scale, calibrate: bool) -> Op:
    """Both training loops on fresh state; with ``calibrate``, the reference
    kernel is timed between them, outside the timed region."""
    arch = detector.ArchConfig()
    model = detector.build_model(arch, seed=seed)
    cfg = detector.TrainConfig(epochs=TRAIN_EPOCHS, seed=seed)
    env = EpisodeClock(environment.EnvConfig(seed=seed))
    preset = policy_preset(seed, scale)
    history = error = None
    begin = time.perf_counter()
    try:
        _, history = detector.train(model, x, y, cfg)
    except CloudguardError as exc:
        error = f"detector.train raised {exc!r}"
    mid = time.perf_counter()
    inner_refs = [reference_times(conv=True)] if calibrate else []
    resume = time.perf_counter()
    tables = curve = None
    try:
        tables, curve = policy.train_policy(env, preset)
    except CloudguardError as exc:
        error = f"train_policy raised {exc!r}"
    end = time.perf_counter()
    episode_ms = [(b - a) * 1e3 for a, b in zip(env.resets, env.resets[1:] + [end])]
    steps = len(env.resets) * min(preset.steps_per_episode, env.cfg.episode_len)
    # the detector loop is mostly numpy convolutions, the policy loop
    # interpreted Python
    parts = [(mid - begin, "conv"), (end - resume, "plain")]
    return Op(begin, end, parts[0][0] + parts[1][0], {
        "detector_s": parts[0][0], "policy_s": parts[1][0], "history": history,
        "curve": curve, "states": len(tables.states()) if tables else 0,
        "episode_ms": episode_ms, "steps": steps, "error": error,
        "train_cfg": cfg, "preset": preset}, parts=parts, inner_refs=inner_refs)


def check_train_ops(ops: list[Op], n_sequences: int) -> tuple[int, int, list[str]]:
    """Operations are training batches and policy episodes."""
    attempted = failed = 0
    problems = []
    for k, op in enumerate(ops):
        cfg, preset = op.data["train_cfg"], op.data["preset"]
        n_train = n_sequences - int(round(cfg.val_fraction * n_sequences))
        batches = math.ceil(n_train / cfg.batch_size) * cfg.epochs
        attempted += batches + preset.episodes
        history, curve = op.data["history"], op.data["curve"]
        if op.data["error"]:
            problems.append(f"op {k}: {op.data['error']}")
        if history is None or not all(math.isfinite(h["loss"]) for h in history):
            failed += batches
            problems.append(f"op {k}: detector loss missing or not finite")
        elif returned_val_accuracy(history) < TRAIN_MIN_VAL_ACCURACY:
            failed += batches
            problems.append(f"op {k}: validation accuracy "
                            f"{returned_val_accuracy(history):.3f} < {TRAIN_MIN_VAL_ACCURACY}")
        if curve is None or len(curve.moving_avg) != preset.episodes or \
                not all(math.isfinite(r) for r in curve.episode_rewards):
            failed += preset.episodes
            problems.append(f"op {k}: policy curve missing or not finite")
        elif not curve.moving_avg[-1] > curve.moving_avg[0]:
            failed += preset.episodes
            problems.append(f"op {k}: final moving average {curve.moving_avg[-1]:.3f} "
                            f"does not beat the first {curve.moving_avg[0]:.3f}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# one run


class Run:
    """Set-up, timed operations and checks of one workload run.

    With ``tracer`` set, set-up runs once under the tracer, then one
    operation runs untraced and one traced; the second gives the per-layer
    spans and the pair gives the tracing overhead.
    """

    def __init__(self, workload: str, seed: int, seconds: float, workdir: str,
                 scale: Scale = FULL):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.scale = scale
        self.setup_times: list[float] = []
        self.state = None
        self.calibrate = False  # time the reference kernel inside operations

    def setup(self) -> None:
        """Set up several times; the operations use the last repeat's
        artifacts."""
        for k in range(self.scale.setup_repeats):
            self.setup_once(k)

    def setup_once(self, k: int) -> None:
        begin = time.perf_counter()
        if self.workload in SIMS:
            self.state = setup_sim(self.workload, self.scale,
                                   os.path.join(self.workdir, f"setup-{k}"))
        else:
            self.state = setup_train(self.scale)
        self.setup_times.append(time.perf_counter() - begin)

    def config_path(self) -> str:
        return os.path.join(self.workdir, "simulate.json")

    def op(self, k: int) -> Op:
        if self.workload in SIMS:
            if k == 0:
                write_sim_config(self.workload, self.seed, self.scale, self.state,
                                 self.config_path())
            return sim_op(self.config_path(), os.path.join(self.workdir, f"op-{k}"))
        x, y = self.state
        return train_op(x, y, self.seed, self.scale, calibrate=self.calibrate)

    def timed_ops(self) -> list[Op]:
        self.calibrate = True
        try:
            return repeat_ops(self.op, self.seconds, MIN_OPS, conv=self.workload == TRAIN)
        finally:
            self.calibrate = False

    def evaluate(self, ops: list[Op]) -> Outcome:
        rss = peak_rss_mb()
        job_s = [op.job_s for op in ops]
        timed = all(op.job_ref for op in ops)  # a traced run times no kernel
        info = {"ops": len(ops), "setup_repeats": len(self.setup_times),
                "setup_s_each": self.setup_times, "job_s_each": job_s,
                "reference_ms_each": [op.ref_s * 1e3 for op in ops] if timed else None,
                "reference_runs_per_op": 2 * REF_REPS}
        metrics = {"setup_s": median(self.setup_times),
                   "job_ref": median(op.job_ref for op in ops) if timed else None,
                   "peak_rss_mb": rss}
        if self.workload in SIMS:
            scn = sim_scenario(self.workload, self.seed, self.scale)
            n = scn.n_windows
            attempted, failed, problems, samples, quality = check_sim_ops(
                self.workload, self.config_path(), ops, n, scn)
            info["quality"] = quality
            named = {"sim_windows_per_s": (median(n / s for s in job_s), "windows/s")}
            sample_name = "decision latency (window)"
        else:
            x, _ = self.state
            attempted, failed, problems = check_train_ops(ops, len(x))
            samples = [op.data["episode_ms"] for op in ops]
            named = {
                "detector_train_seq_per_s": (median(
                    op.data["train_cfg"].epochs * len(x) / op.data["detector_s"]
                    for op in ops), "seq/s"),
                "policy_train_steps_per_s": (median(
                    op.data["steps"] / op.data["policy_s"] for op in ops), "steps/s"),
            }
            info["training_sequences"] = len(x)
            info["val_accuracy"] = [returned_val_accuracy(op.data["history"])
                                    if op.data["history"] else None for op in ops]
            info["states_visited"] = [op.data["states"] for op in ops]
            sample_name = "policy training episode"
        # each operation's own percentiles, then the median over operations
        p50_refs = [percentile(s, 0.50) / 1e3 / op.ref_s
                    for op, s in zip(ops, samples) if s and timed]
        metrics["latency_p50_ref"] = median(p50_refs) if p50_refs else None
        timed_samples = [s for s in samples if s]
        prefix = "decision" if self.workload in SIMS else "episode"
        for q, label in ((0.50, "p50"), (0.90, "p90")):
            named[f"{prefix}_{label}_ms"] = (median(percentile(s, q) for s in timed_samples)
                                             if timed_samples else None, "ms")
        counts = [len(s) for s in timed_samples]
        info["latency_samples"] = {
            "what": sample_name, "per_op": counts, "ops_timed": len(timed_samples),
            "beyond_p90_per_op": [k - math.ceil(0.90 * k) for k in counts]}
        named["job_s"] = (median(job_s), "s")
        if timed:
            named["reference_ms"] = (median(op.ref_s for op in ops) * 1e3, "ms")
            named["job_ref"] = (metrics["job_ref"], "ref")
            named["latency_p50_ref"] = (metrics["latency_p50_ref"], "ref")
        named["peak_rss_mb"] = (rss, "MB")
        named["setup_s"] = (metrics["setup_s"], "s")
        named["failed_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
        return Outcome(attempted, failed, metrics, named, info, problems)

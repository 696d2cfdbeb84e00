"""End-to-end protection loop: replay a scenario through detection,
perception, response selection, and enforcement, then score the run.

The run is deterministic given the configuration: every random draw comes
from the scenario generator's seeded substreams, and the pipeline itself
consumes no randomness (response selection is greedy). The only fields that
vary between runs are measured wall-clock latencies, which are confined to
the per-event ``timing`` record and the report's ``timing`` subtree so that
everything else can be compared byte for byte.

A run has three phases, all in one thread. Detect: featurize the whole run in
one call, classify it in one batched call (``classify_series`` for a network,
``RuleBasedDetector.classify_batch`` for the rules and for accept-all, the
rule detector with no rules) into one verdict of ``[N]`` arrays, perceive the
whole run in one call, then score every window's threat in one
``threat_score`` call and, given a policy, key every window with its
recent-action bucket 0 in one pass. Walk: choose each window's action, in
order, since each decision adds its ``RECENT_OFFSET`` to the next window's
key. Enforce: one ``apply_action`` call over the run.
"""

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .baseline import RuleBasedDetector, default_rules
from .config import read_config
from .detector import (DEFAULT_THRESHOLD, DetectionMetrics, check_threshold,
                       classify_series, load_detector)
from .enforcement import OUTCOMES, LatencyBreakdown, apply_action, enforce_window
from .errors import CheckpointError, ComparisonError, ConfigError, InputError
from .features import build_layout, extract_features, fit_normalizer, normalize
from .files import make_dir, read_text, write_text
from .perception import (ThreatLevel, build_embedders, build_scorer,
                         context_from_fused, embed_window, fuse,
                         level_for_score, summarize_threats, threat_score)
from .policy import (N_ACTIONS, RECENT_OFFSET, compose_indicators, encode_state,
                     load_qtables, parse_convergence_csv, select_action)
from .scenario import (BurstIndex, ScenarioConfig, default_scenario, generate_stream,
                       peak_intensity)
from .telemetry import LABELS

DEFAULT_DEADLINE_MS = 50.0

# sentinel detector names accepted in place of a checkpoint path
BASELINE_DETECTOR = "baseline"
ACCEPT_ALL_DETECTOR = "accept-all"

LABEL_IDS = {name: i for i, name in enumerate(LABELS)}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run depends on.

    ``detector`` is a checkpoint path, or one of the sentinels: "baseline"
    (the packaged signature rules) or "accept-all" (the rule detector with
    no rules, so every window is benign with full confidence; for
    availability floors and smoke tests).
    ``policy`` is a Q-table checkpoint path; when None, ``fixed_action`` is
    enforced on every window instead (default 0, observe only).
    ``scenario`` defaults to ``default_scenario(seed)``.
    ``seed`` overrides the scenario's own seed so one scenario description
    can be replayed on fresh traffic. ``replicas`` is accepted and validated
    (>= 1) for compatibility with older configs, but changes neither the
    outputs nor the scheduling: detection is one batched pass.
    """

    scenario: ScenarioConfig | None = None
    detector: str = BASELINE_DETECTOR
    policy: str | None = None
    fixed_action: int = 0
    threshold: float = DEFAULT_THRESHOLD
    replicas: int = 1
    seed: int | None = None
    deadline_ms: float = DEFAULT_DEADLINE_MS
    convergence: str | None = None  # training curve shipped alongside reports

    def __post_init__(self):
        if self.scenario is None:
            object.__setattr__(self, "scenario", default_scenario(seed=self.seed or 0))
        check_threshold(self.threshold)
        if not 0 <= self.fixed_action < N_ACTIONS:
            raise ConfigError(f"fixed_action {self.fixed_action} outside the "
                              f"catalog of {N_ACTIONS} actions")
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.deadline_ms <= 0:
            raise ConfigError("deadline_ms must be positive")
        if self.detector not in (BASELINE_DETECTOR, ACCEPT_ALL_DETECTOR) \
                and not os.path.exists(self.detector):
            raise ConfigError(f"detector checkpoint not found: {self.detector}")
        for name, path in (("policy", self.policy),
                           ("convergence", self.convergence)):
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"{name} file not found: {path}")

    def resolved_scenario(self) -> ScenarioConfig:
        if self.seed is None:
            return self.scenario
        return dataclasses.replace(self.scenario, seed=self.seed)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return read_config(cls, d)


# ---------------------------------------------------------------------------
# event records


@dataclass(frozen=True)
class PipelineEvent:
    """One window's trip through the loop; the report recomputes from these."""

    window_id: int
    truth: str
    predicted: str
    confident: bool
    max_probability: float
    threat_score: float
    threat_level: int
    action_id: int
    outcome: str  # blocked | mitigated | passed | none
    attack_damage: float
    collateral_damage: float
    latency: LatencyBreakdown
    started_at: float  # wall-clock, seconds since the epoch
    finished_at: float

    def to_dict(self) -> dict:
        return {
            "window_id": self.window_id,
            "truth": self.truth,
            "predicted": self.predicted,
            "confident": self.confident,
            "max_probability": self.max_probability,
            "threat_score": self.threat_score,
            "threat_level": self.threat_level,
            "action_id": self.action_id,
            "outcome": self.outcome,
            "attack_damage": self.attack_damage,
            "collateral_damage": self.collateral_damage,
            "timing": {
                # asdict's fields without its deep copy (12 us per event)
                "latency": dict(vars(self.latency)),
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineEvent":
        """Parse one event-log record; InputError on a missing field, a
        value of the wrong type (``confident`` must be a JSON bool, the ids
        and the threat level JSON integers, every other number a JSON
        number), a NaN or infinite score, probability, damage, latency or
        timestamp, or a label, outcome, threat level or action id outside its
        set."""
        try:
            timing = d["timing"]
            lat = timing["latency"]
            for field, allowed in (("truth", LABELS), ("predicted", LABELS),
                                   ("outcome", OUTCOMES)):
                if d[field] not in allowed:
                    raise InputError(f"{field} {d[field]!r} is not one of "
                                     f"{allowed}")
            if not isinstance(d["confident"], bool):
                raise InputError(f"confident {d['confident']!r} is not a bool")
            action_id = _integer(d, "action_id")
            if not 0 <= action_id < N_ACTIONS:
                raise InputError(f"action_id {action_id} outside the catalog "
                                 f"of {N_ACTIONS} actions")
            return cls(
                window_id=_integer(d, "window_id"),
                truth=d["truth"],
                predicted=d["predicted"],
                confident=d["confident"],
                max_probability=_finite(d, "max_probability"),
                threat_score=_finite(d, "threat_score"),
                threat_level=ThreatLevel(_integer(d, "threat_level")).level,
                action_id=action_id,
                outcome=d["outcome"],
                attack_damage=_finite(d, "attack_damage"),
                collateral_damage=_finite(d, "collateral_damage"),
                latency=LatencyBreakdown(
                    detection_ms=_finite(lat, "detection_ms"),
                    policy_ms=_finite(lat, "policy_ms"),
                    execution_ms=_finite(lat, "execution_ms"),
                    total_ms=_finite(lat, "total_ms"),
                ),
                started_at=_finite(timing, "started_at"),
                finished_at=_finite(timing, "finished_at"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed pipeline event record: {exc}") from exc


def _integer(record: dict, field: str) -> int:
    value = record[field]
    # bool is an int subclass, but true is not an id
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def _finite(record: dict, field: str) -> float:
    value = record[field]
    # a JSON number: no string, and no bool (an int subclass)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{field} must be a number, got {value!r}")
    value = float(value)  # OverflowError on an integer past float range
    if not math.isfinite(value):
        raise InputError(f"{field} must be finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# percentiles (nearest rank)


def compute_percentiles(samples, qs) -> list[float]:
    """Nearest-rank percentiles: the smallest sample with at least q of the
    mass at or below it. Exact set membership, no interpolation, so results
    can be checked against a plain sort."""
    data = sorted(float(s) for s in samples)
    if not data:
        raise InputError("cannot take percentiles of an empty sample set")
    out = []
    for q in qs:
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise InputError(f"percentile fraction must be in [0, 1], got {q}")
        rank = max(math.ceil(q * len(data)), 1)
        out.append(data[rank - 1])
    return out


# ---------------------------------------------------------------------------
# the loop


class _Pipeline:
    """Loaded models plus the shared layout and perception maps: ``classify``
    is the detector's one step, ``stats`` its normalizer (None for rules)."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.layout = build_layout()
        self.stats = None
        if config.detector in (BASELINE_DETECTOR, ACCEPT_ALL_DETECTOR):
            # accept-all has no rules, so every window takes the benign column
            rules = RuleBasedDetector(
                default_rules() if config.detector == BASELINE_DETECTOR else (),
                self.layout)
            self.classify = lambda raw, normed, threshold: rules.classify_batch(raw)
        else:
            model, arch, self.stats, self.layout, classes = load_detector(config.detector)
            if tuple(classes) != LABELS:
                raise CheckpointError(
                    f"{config.detector}: classes {tuple(classes)} do not match "
                    f"the canonical label set")
            self.classify = lambda raw, normed, threshold: classify_series(
                model, arch, normed, threshold)
        self.embedders = build_embedders(self.layout)
        self.scorer = build_scorer()
        self.tables = load_qtables(config.policy) if config.policy else None
        if self.tables is not None and self.tables.n_actions != N_ACTIONS:
            raise CheckpointError(
                f"{config.policy}: n_actions {self.tables.n_actions} does not "
                f"match the catalog size {N_ACTIONS}")


def _run_detection(pipe: _Pipeline, run, threshold: float):
    """Featurize the run in one call, then classify it in one batched call.

    Returns the run's verdict, each window's detection latency in ms (an
    equal share of the featurize call plus an equal share of the classify
    call) and the normalized feature matrix that perception reads.
    """
    t0 = time.perf_counter()
    raw = extract_features(run, pipe.layout)
    feature_ms = (time.perf_counter() - t0) * 1e3
    # rule detectors read raw values; their normalized copies only feed perception
    normed = normalize(raw, fit_normalizer(raw) if pipe.stats is None else pipe.stats)

    t0 = time.perf_counter()
    verdict = pipe.classify(raw, normed, threshold)
    classify_ms = (time.perf_counter() - t0) * 1e3
    share_ms = (feature_ms + classify_ms) / max(len(run), 1)
    return verdict, [share_ms] * len(run), normed


def _window_load(window, benign_rate: float) -> float:
    """Observed utilization proxy: event volume against twice the benign rate."""
    capacity = 2.0 * benign_rate * (window.duration_ms / 1000.0)
    return min(1.0, window.event_count / capacity) if capacity > 0 else 0.0


def _window_kind(window) -> str:
    return window.label or "benign"


def window_truths(scenario: ScenarioConfig, windows) -> list[tuple[str, float, float]]:
    """(kind, intensity, load) per window, straight from ground truth; the
    specs covering the windows are looked up once for them all."""
    windows = list(windows)
    covering = BurstIndex(scenario.attacks).covering([win.start for win in windows],
                                                     [win.end for win in windows])
    out = []
    for win, specs in zip(windows, covering):
        kind = _window_kind(win)
        intensity = peak_intensity(specs, win.start, win.end, kind) \
            if kind != "benign" else 0.0
        out.append((kind, intensity, _window_load(win, scenario.benign_rate)))
    return out


def _truth_arrays(truths):
    """The label ids, intensities and loads of ``window_truths`` as arrays;
    InputError on an unknown kind or a load outside [0, 1]."""
    kinds, intensity, load = zip(*truths)
    n = len(truths)
    try:
        kind_ids = np.fromiter(map(LABEL_IDS.__getitem__, kinds), np.intp, n)
    except KeyError as exc:
        raise InputError(f"unknown window kind {exc}") from None
    load = np.fromiter(load, np.float64, n)
    if not np.all((0.0 <= load) & (load <= 1.0)):
        raise InputError("window loads must lie in [0, 1]")
    return kind_ids, np.fromiter(intensity, np.float64, n), load


def _respond(pipe: _Pipeline, truths, verdict, detect_ms,
             normed) -> list[PipelineEvent]:
    """Perceive and key the run, walk its decisions in order, enforce the run.

    ``truths`` holds each window's (kind, intensity, load) from
    ``window_truths``; ``verdict`` is the run's verdict of ``[N]`` arrays and
    ``normed`` its ``[N, D]`` feature matrix. Window i's key is its base
    key, from one pass over the run as in ``environment.draw_episode``, plus
    ``RECENT_OFFSET`` of action i - 1.
    """
    n = len(truths)
    kinds, intensity, load = _truth_arrays(truths)
    t0 = time.perf_counter()
    fused, _ = fuse(embed_window(normed, pipe.layout, pipe.embedders), pipe.scorer)
    scores = threat_score(verdict, context_from_fused(fused))
    levels = level_for_score(scores).level.tolist()
    if pipe.tables is not None:
        base = encode_state(compose_indicators(
            scores, load, verdict.probabilities, np.zeros(n))).tolist()
    scores = scores.tolist()
    shared_ms = (time.perf_counter() - t0) * 1e3 / n

    walk, offset = [], 0
    for i in range(n):
        started, t0 = time.time(), time.perf_counter()
        action_id = pipe.config.fixed_action
        if pipe.tables is not None:
            action_id = select_action(pipe.tables, base[i] + offset, 0.0)
            offset = RECENT_OFFSET[action_id]
        walk.append((started, action_id, shared_ms + (time.perf_counter() - t0) * 1e3))

    started, actions, policy_ms = zip(*walk)
    codes, attack, collateral, enforce_ms = apply_action(actions, kinds, intensity, load)
    finished, execution_ms = time.time(), enforce_ms / n
    codes, attack, collateral = codes.tolist(), attack.tolist(), collateral.tolist()
    predicted, confident, max_p = (a.tolist() for a in (
        verdict.predicted, verdict.confident, verdict.max_probability))
    return [PipelineEvent(
        window_id=i, truth=kind, predicted=LABELS[predicted[i]],
        confident=confident[i], max_probability=max_p[i],
        threat_score=scores[i], threat_level=levels[i], action_id=actions[i],
        outcome=OUTCOMES[codes[i]], attack_damage=attack[i],
        collateral_damage=collateral[i],
        latency=LatencyBreakdown.from_parts(detect_ms[i], policy_ms[i], execution_ms),
        started_at=started[i], finished_at=finished)
        for i, (kind, _, _) in enumerate(truths)]


# ---------------------------------------------------------------------------
# metrics


def metrics_from_events(events) -> DetectionMetrics:
    """Recount the confusion matrix and rates from an event log."""
    return DetectionMetrics.from_rows([LABEL_IDS[ev.truth] for ev in events],
                                      [LABEL_IDS[ev.predicted] for ev in events],
                                      [ev.confident for ev in events])


def _warning_latency(scenario: ScenarioConfig, events) -> dict:
    """Windows from each burst's onset to its first confident attack verdict."""
    lags = []
    detected = 0
    w = scenario.window_ms
    by_id = {ev.window_id: ev for ev in events}
    for spec in scenario.attacks:
        first, last = spec.start // w, (spec.end - 1) // w
        lag = None
        for i in range(first, last + 1):
            ev = by_id.get(i)
            if ev is not None and ev.confident and ev.predicted != "benign":
                lag = i - first
                break
        if lag is not None:
            detected += 1
            lags.append(lag)
    return {
        "bursts_total": len(scenario.attacks),
        "bursts_detected": detected,
        "mean_windows": float(np.mean(lags)) if lags else None,
        "max_windows": int(max(lags)) if lags else None,
    }


def _unknown_attack_detection_rate(events) -> float:
    """Share of attack windows not confidently waved through as benign."""
    attacks = [ev for ev in events if ev.truth != "benign"]
    if not attacks:
        return 1.0
    missed = sum(1 for ev in attacks if ev.confident and ev.predicted == "benign")
    return 1.0 - missed / len(attacks)


@dataclass(frozen=True)
class SimulationReport:
    """Scored run. Everything outside ``timing`` is deterministic.

    An event's latency, in ms, shares each run-wide call equally among the
    run's windows. ``detection_ms`` is a share of the featurize call plus a
    share of the classify call; ``policy_ms`` a share of the perception call
    and of the scoring and key pass, plus its own action choice;
    ``execution_ms`` a share of the ``apply_action`` call; ``total_ms`` their
    sum. Its ``started_at`` is the wall-clock time its walk step began,
    ``finished_at`` the time enforcement returned.
    """

    config: dict
    detection: DetectionMetrics
    unknown_attack_detection_rate: float
    threat_distribution: dict  # band -> fraction
    interceptions: dict  # outcome verdict -> count
    damage: dict  # attack / collateral / total
    warning_latency: dict
    timing: dict  # latency percentiles, component shares, availability
    convergence: str | None  # path of the training curve, when provided

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "detection": self.detection.to_dict(),
            "unknown_attack_detection_rate": self.unknown_attack_detection_rate,
            "threat_distribution": self.threat_distribution,
            "interceptions": self.interceptions,
            "damage": self.damage,
            "warning_latency": self.warning_latency,
            "timing": self.timing,
            "convergence": self.convergence,
        }


def build_report(config: SimConfig, events) -> SimulationReport:
    """Score an event log against its scenario's ground truth."""
    scenario = config.resolved_scenario()
    detection = metrics_from_events(events)
    dist = summarize_threats(level_for_score(
        np.fromiter((ev.threat_score for ev in events), np.float64, len(events))))
    distribution = dict(dist.fractions)
    interceptions = {name: 0 for name in OUTCOMES}
    for ev in events:
        interceptions[ev.outcome] += 1
    attack_damage = float(sum(ev.attack_damage for ev in events))
    collateral = float(sum(ev.collateral_damage for ev in events))

    totals = [ev.latency.total_ms for ev in events]
    p50, p95, p999 = compute_percentiles(totals, (0.50, 0.95, 0.999))
    stage_sums = {
        "detection": sum(ev.latency.detection_ms for ev in events),
        "policy": sum(ev.latency.policy_ms for ev in events),
        "execution": sum(ev.latency.execution_ms for ev in events),
    }
    grand = sum(stage_sums.values())
    shares = {k: (v / grand if grand > 0 else 0.0) for k, v in stage_sums.items()}
    on_time = sum(1 for t in totals if t <= config.deadline_ms)

    return SimulationReport(
        config=dataclasses.asdict(config),
        detection=detection,
        unknown_attack_detection_rate=_unknown_attack_detection_rate(events),
        threat_distribution=distribution,
        interceptions=interceptions,
        damage={"attack": attack_damage, "collateral": collateral,
                "total": attack_damage + collateral},
        warning_latency=_warning_latency(scenario, events),
        timing={
            "latency_ms": {"p50": p50, "p95": p95, "p99_9": p999},
            "component_shares": shares,
            "availability": on_time / len(events),
            "deadline_ms": config.deadline_ms,
        },
        convergence=config.convergence,
    )


def run_simulation(config: SimConfig) -> tuple[SimulationReport, list[PipelineEvent]]:
    """Generate the scenario's traffic and run every window through the loop."""
    pipe = _Pipeline(config)
    scenario = config.resolved_scenario()
    stream = generate_stream(scenario)
    verdict, detect_ms, normed = _run_detection(pipe, stream.run, config.threshold)
    events = _respond(pipe, window_truths(scenario, stream.windows), verdict,
                      detect_ms, normed)
    return build_report(config, events), events


def evaluate_detection(config: SimConfig) -> DetectionMetrics:
    """Detection metrics of the configured run, without its response walk."""
    pipe = _Pipeline(config)
    stream = generate_stream(config.resolved_scenario())
    verdict, _, _ = _run_detection(pipe, stream.run, config.threshold)
    return DetectionMetrics.from_rows(
        [LABEL_IDS[label or "benign"] for label in stream.run.labels],
        verdict.predicted, verdict.confident)


# ---------------------------------------------------------------------------
# fixed-action evaluation (no detector in the loop)


def fixed_action_damage(truths, action) -> float:
    """Total damage if one action were enforced on every window.

    ``truths`` holds (kind, intensity, load) per window, as window_truths
    gives them; InputError on an unknown kind or a load outside [0, 1].
    """
    if not truths:
        return 0.0
    _, attack, collateral = enforce_window(action.action_id, *_truth_arrays(truths))
    # cumsum adds in window order, as a running total would
    return float(np.cumsum(attack + collateral)[-1])


# ---------------------------------------------------------------------------
# report files


def canonical_json(doc: dict) -> str:
    """The byte form of every JSON report: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# an event's line, ``json.dumps(ev.to_dict(), sort_keys=True)``, as one
# template: keys in sorted order, floats as their repr, which json uses
_EVENT_LINE = (
    '{"action_id": %d, "attack_damage": %r, "collateral_damage": %r, "confident": %s, '
    '"max_probability": %r, "outcome": "%s", "predicted": "%s", "threat_level": %d, '
    '"threat_score": %r, "timing": {"finished_at": %r, "latency": {"detection_ms": %r, '
    '"execution_ms": %r, "policy_ms": %r, "total_ms": %r}, "started_at": %r}, '
    '"truth": "%s", "window_id": %d}')
_OUTCOME_SET = frozenset(OUTCOMES)


def write_events(path: str, events) -> None:
    """One JSON object per line, in window order: each line is
    ``json.dumps(ev.to_dict(), sort_keys=True)``, formatted from one
    template. InputError, before the file is opened, on a number that is
    NaN or infinite, which ``read_events`` rejects, or on a label or
    outcome outside its set (no name in those sets needs escaping)."""
    lines = []
    for ev in events:
        lat = ev.latency
        numbers = (ev.attack_damage, ev.collateral_damage, ev.max_probability,
                   ev.threat_score, ev.finished_at, lat.detection_ms,
                   lat.execution_ms, lat.policy_ms, lat.total_ms, ev.started_at)
        if not all(map(math.isfinite, numbers)):
            raise InputError(f"event {ev.window_id} has a NaN or infinite number")
        if not (ev.truth in LABEL_IDS and ev.predicted in LABEL_IDS
                and ev.outcome in _OUTCOME_SET):
            raise InputError(f"event {ev.window_id} has an unknown label or outcome")
        lines.append(_EVENT_LINE % (
            ev.action_id, ev.attack_damage, ev.collateral_damage,
            "true" if ev.confident else "false", ev.max_probability, ev.outcome,
            ev.predicted, ev.threat_level, ev.threat_score, ev.finished_at,
            lat.detection_ms, lat.execution_ms, lat.policy_ms, lat.total_ms,
            ev.started_at, ev.truth, ev.window_id))
    write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_events(path: str) -> list[PipelineEvent]:
    """Parse an event log; InputError unless its window ids are
    non-negative and strictly rising."""
    raw_lines = [line for line in read_text(path, InputError, "event log").splitlines()
                 if line.strip()]
    events = []
    for line in raw_lines:
        try:
            events.append(PipelineEvent.from_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise InputError(f"event log line is not valid JSON: {exc}") from exc
        # a repeated or reordered window id means a damaged log; a missing
        # window still loads, so a reader can count it per window
        previous = events[-2].window_id if len(events) > 1 else -1
        if events[-1].window_id <= previous:
            raise InputError(f"event log line {len(events)} has window_id "
                             f"{events[-1].window_id} after {previous}; ids "
                             f"must rise from 0")
    return events


def per_class_csv(metrics: DetectionMetrics) -> str:
    """Precision, recall, F1 and support per class, one row each."""
    rows = ["class,precision,recall,f1,support"]
    for i, name in enumerate(metrics.classes):
        rows.append(f"{name},{float(metrics.precision[i])!r},"
                    f"{float(metrics.recall[i])!r},{float(metrics.f1[i])!r},"
                    f"{int(metrics.support[i])}")
    return "\n".join(rows) + "\n"


def emit_report(report: SimulationReport, events, out_dir: str,
                fmt: str = "json") -> list[str]:
    """Write the report under ``out_dir``; returns the paths written.

    "json" emits metrics.json; "csv" emits the per-class, latency-share,
    threat-distribution, and convergence tables. The event log is written
    either way: it is the record everything else recomputes from. An
    unreadable or malformed convergence curve raises CheckpointError before
    anything is written, a missing one included; a valid one is copied with
    LF line ends.
    """
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown report format {fmt!r}")
    curve = "episode,mean_reward,moving_avg\n"
    if fmt == "csv" and report.convergence:
        curve = read_text(report.convergence, CheckpointError, "convergence curve")
        parse_convergence_csv(curve, report.convergence)
    make_dir(out_dir)

    written = []

    def emit(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        write_text(path, text)
        written.append(path)

    write_events(os.path.join(out_dir, "events.jsonl"), events)
    written.append(os.path.join(out_dir, "events.jsonl"))

    if fmt == "json":
        emit("metrics.json", canonical_json(report.to_dict()))
        return written

    emit("per_class_metrics.csv", per_class_csv(report.detection))

    shares = report.timing["component_shares"]
    rows = ["component,share"]
    for name in ("detection", "policy", "execution"):
        rows.append(f"{name},{float(shares[name])!r}")
    emit("latency_breakdown.csv", "\n".join(rows) + "\n")

    rows = ["band,fraction"]
    for band, frac in report.threat_distribution.items():
        rows.append(f"{band},{float(frac)!r}")
    emit("threat_distribution.csv", "\n".join(rows) + "\n")

    emit("convergence.csv", curve)
    return written


# ---------------------------------------------------------------------------
# report comparison


_POINT_LEAVES = ("accuracy", "precision", "recall", "f1", "availability",
                 "fraction", "share")
_POINT_SUFFIXES = ("_rate", "_ratio")
_POINT_PARENTS = ("threat_distribution", "component_shares")


def _delta_mode(path: tuple[str, ...]) -> str:
    leaf = path[-1]
    if leaf in _POINT_LEAVES or leaf.endswith(_POINT_SUFFIXES):
        return "points"
    if any(parent in path[:-1] for parent in _POINT_PARENTS):
        return "points"
    return "percent"


def _numeric_leaves(doc, prefix=()):
    """Paths of every numeric-or-null scalar; lists and strings are skipped.

    Nulls count as present so that an indicator one run could not measure
    (say, warning latency with zero bursts detected) reads as an
    incomparable value rather than a schema mismatch.
    """
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(_numeric_leaves(value, prefix + (str(key),)))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)
    elif doc is None:
        out[prefix] = None
    return out


@dataclass(frozen=True)
class ComparisonRow:
    """One indicator's movement from baseline to candidate."""

    indicator: str
    baseline: float | None
    candidate: float | None
    mode: str  # "points": percentage-point delta; "percent": relative change
    delta: float | None


def compare_reports(baseline: dict, candidate: dict) -> list[ComparisonRow]:
    """Indicator-by-indicator deltas between two report documents.

    Fraction-like indicators move in percentage points, rounded to two
    decimals; scale indicators (damage, latency, counts) move in relative
    percent, rounded to the nearest integer. Both documents must expose the
    same numeric fields.
    """
    if hasattr(baseline, "to_dict"):
        baseline = baseline.to_dict()
    if hasattr(candidate, "to_dict"):
        candidate = candidate.to_dict()
    if not isinstance(baseline, dict) or not isinstance(candidate, dict):
        raise ComparisonError("reports must be mapping documents")
    # inputs and file references are not outcomes
    echoes = ("config", "convergence")
    base = _numeric_leaves({k: v for k, v in baseline.items() if k not in echoes})
    cand = _numeric_leaves({k: v for k, v in candidate.items() if k not in echoes})
    if set(base) != set(cand):
        missing = set(base).symmetric_difference(cand)
        name = ".".join(sorted(missing)[0])
        raise ComparisonError(
            f"reports do not share a schema: {len(missing)} field(s) differ, "
            f"first is {name!r}")
    rows = []
    for path in sorted(base):
        b, c = base[path], cand[path]
        mode = _delta_mode(path)
        if b is None or c is None:
            delta = None  # one side could not measure this indicator
        elif mode == "points":
            delta = round((c - b) * 100.0, 2)
        elif b != 0.0:
            delta = float(round((c - b) / b * 100.0))
        else:
            delta = None  # relative change from zero is undefined
        rows.append(ComparisonRow(indicator=".".join(path), baseline=b,
                                  candidate=c, mode=mode, delta=delta))
    return rows


def comparison_to_dict(rows) -> dict:
    return {"indicators": [dataclasses.asdict(r) for r in rows]}

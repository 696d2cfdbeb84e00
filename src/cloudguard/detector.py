"""Convolutional-recurrent traffic classifier with confidence gating.

The model stacks four 1-D convolutions (two pooling stages) over a sequence
of per-window feature vectors, reduces time with an LSTM's last hidden
state, and classifies through three fully connected layers ending in
softmax. A verdict is only *confident* when the max class probability
reaches the decision threshold (default 0.75); everything below routes to
an "unknown" bucket that evaluation counts separately instead of forcing
into a class.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import check_seed, read_config
from .errors import (CheckpointError, ConfigError, DimensionError, InputError,
                     TrainingDivergedError)
from .features import FeatureLayout, NormStats, extract_features, fit_normalizer, normalize
from .nn import (Adam, Conv1dLayer, DenseLayer, LstmLayer, MaxPool1dLayer, ModelGraph,
                 one_blas_thread)
from .nn import layers as nnl
from .nn.checkpoint import check_all_taken, map_params, save_params, take
from .telemetry import LABELS

DEFAULT_THRESHOLD = 0.75


def check_threshold(threshold: float) -> float:
    """A decision threshold as given; ConfigError unless it lies in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    return threshold


@dataclass(frozen=True)
class ArchConfig:
    """Network shape. Defaults give 4 conv, 2 pool, and 3 dense layers."""

    feature_dim: int = 428
    seq_len: int = 16
    conv_filters: tuple[int, ...] = (64, 64, 128, 128)
    kernel_size: int = 3
    pool_size: int = 2
    pool_after: tuple[int, ...] = (2, 4)  # 1-based conv indices
    lstm_hidden: int = 256
    fc_widths: tuple[int, ...] = (128, 64)
    num_classes: int = 6

    def __post_init__(self):
        object.__setattr__(self, "conv_filters", tuple(self.conv_filters))
        object.__setattr__(self, "pool_after", tuple(self.pool_after))
        object.__setattr__(self, "fc_widths", tuple(self.fc_widths))
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if not self.conv_filters or min(self.conv_filters) < 1:
            raise ConfigError("conv_filters must be positive")
        if self.lstm_hidden < 1 or self.feature_dim < 1 or self.seq_len < 1:
            raise ConfigError("sizes must be positive")
        if any(i < 1 or i > len(self.conv_filters) for i in self.pool_after):
            raise ConfigError("pool_after indices must reference conv layers")
        self.timeline()  # raises if the shape chain collapses

    def timeline(self) -> list[int]:
        """Sequence length after each conv/pool stage; validates the chain."""
        t = self.seq_len
        chain = [t]
        for i in range(1, len(self.conv_filters) + 1):
            t = t - self.kernel_size + 1
            if t < 1:
                raise ConfigError(
                    f"sequence collapses at conv {i}: length {t} after kernel "
                    f"{self.kernel_size}"
                )
            chain.append(t)
            if i in self.pool_after:
                if t % self.pool_size != 0:
                    raise ConfigError(
                        f"pool after conv {i} needs length divisible by "
                        f"{self.pool_size}, got {t}"
                    )
                t //= self.pool_size
                chain.append(t)
        return chain

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        return read_config(cls, d)


def build_model(arch: ArchConfig, seed: int = 0) -> ModelGraph:
    """Assemble the seeded layer stack described by ``arch``."""
    rng = np.random.default_rng(seed)
    return _assemble(arch, lambda i, cls, *sizes, **options: cls(*sizes, **options, rng=rng))


def _assemble(arch: ArchConfig, weighted) -> ModelGraph:
    """The layer stack of ``arch``. Each layer with weights is
    ``weighted(i, cls, *sizes, **options)``: ``i`` is its index in the
    stack, and ``cls(*sizes, **options)`` would draw it."""
    layer_list = []

    def add(cls, *sizes, **options):
        layer_list.append(weighted(len(layer_list), cls, *sizes, **options))

    channels = arch.feature_dim
    for i, filters in enumerate(arch.conv_filters, start=1):
        add(Conv1dLayer, channels, filters, arch.kernel_size)
        channels = filters
        if i in arch.pool_after:
            layer_list.append(MaxPool1dLayer(arch.pool_size))
    add(LstmLayer, channels, arch.lstm_hidden)
    width = arch.lstm_hidden
    for fc in arch.fc_widths:
        add(DenseLayer, width, fc, activation="relu")
        width = fc
    add(DenseLayer, width, arch.num_classes, activation="softmax")
    return ModelGraph(layer_list)


def build_sequences(vectors: np.ndarray, labels: np.ndarray,
                    seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding sequences of consecutive window vectors, stride 1.

    Each sequence's label is its most recent window's label: the verdict
    answers "what is happening now", with the earlier windows as context.
    Returns (sequences [M, T, D] as a zero-copy view, labels [M]).
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise DimensionError("vectors must be [N, D]")
    n = vectors.shape[0]
    if n < seq_len:
        raise InputError(f"need at least {seq_len} windows, got {n}")
    seqs = np.lib.stride_tricks.sliding_window_view(vectors, seq_len, axis=0)
    seqs = seqs.transpose(0, 2, 1)  # [M, T, D]
    return seqs, np.asarray(labels)[seq_len - 1:]


def prepare_dataset(stream, layout: FeatureLayout, seq_len: int,
                    stats: NormStats | None = None):
    """Featurize a labeled stream into normalized training sequences.

    Fits the normalizer on the stream itself when ``stats`` is None (pass the
    training stream's stats when preparing evaluation data). Returns
    ``(sequences, int labels, stats)``.
    """
    raw = extract_features(stream.run, layout)
    if stats is None:
        stats = fit_normalizer(raw)
    normed = normalize(raw, stats)
    label_ids = np.array([LABELS.index(label or "benign") for label in stream.run.labels])
    x, y = build_sequences(normed, label_ids, seq_len)
    return x, y, stats


@dataclass(frozen=True)
class ThreatVerdict:
    """Classification outcome: scalar fields over one sequence's ``[K]``
    probabilities, or ``[N]`` arrays over a run's ``[N, K]`` rows."""

    probabilities: np.ndarray
    predicted: int | np.ndarray
    max_probability: float | np.ndarray
    confident: bool | np.ndarray


def verdict(probs: np.ndarray, threshold: float) -> ThreatVerdict:
    """The verdict on ``[K]`` class probabilities, or on ``[N, K]`` rows."""
    predicted = probs.argmax(axis=-1)  # lowest index wins ties
    max_prob = probs.max(axis=-1)
    if probs.ndim == 1:
        predicted, max_prob = int(predicted), float(max_prob)
    return ThreatVerdict(probabilities=probs, predicted=predicted,
                         max_probability=max_prob, confident=max_prob >= threshold)


def classify(model: ModelGraph, sequence: np.ndarray,
             threshold: float = DEFAULT_THRESHOLD) -> ThreatVerdict:
    """Classify one ``[T, D]`` sequence with confidence gating."""
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2:
        raise DimensionError(f"sequence must be [T, D], got shape {sequence.shape}")
    return verdict(model.forward(sequence[None])[0], threshold)


SERIES_CHUNK = 32  # windows per batched forward over a series
PREDICT_CHUNK = 256  # sequences per forward in predict_probs's per-sequence path


def _shared_prefix(model: ModelGraph) -> int | None:
    """Number of leading convolutions, whose output does not depend on where
    a sequence starts; None if one is strided, since then it does."""
    n = 0
    for layer in model.layers:
        if not isinstance(layer, Conv1dLayer):
            break
        if layer.params.stride != 1:
            return None
        n += 1
    return n


def _series_probs(model: ModelGraph, series: np.ndarray, seq_len: int,
                  n_prefix: int) -> np.ndarray:
    """Class probabilities ``[N, K]`` of the ``seq_len`` windows ending at
    each row of an ``[N, D]`` series, row 0 repeated in front for warm-up.

    The ``n_prefix`` leading convolutions run once per chunk of windows, not
    once per sequence (the activation caching of Fast WaveNet); the rest of
    the stack runs batched on per-sequence slices of their output. Chunks
    always hold SERIES_CHUNK windows, the last one zero-padded, so every
    matrix product has one shape whatever N is: a row's probabilities depend
    only on it and the rows before it, bit for bit.
    """
    n, d = series.shape
    t = seq_len
    # rows a sequence of t windows keeps after the shared valid convolutions
    t_shared = t - sum(layer.params.kernel.shape[0] - 1
                       for layer in model.layers[:n_prefix])
    if t_shared < 1:
        raise DimensionError(f"sequences of {t} windows are too short for the convolutions")
    n_chunks = -(-n // SERIES_CHUNK)
    padded = np.zeros((n_chunks * SERIES_CHUNK + t - 1, d))
    padded[:t - 1] = series[0]
    padded[t - 1:t - 1 + n] = series
    probs = []
    with one_blas_thread():
        for lo in range(0, n, SERIES_CHUNK):
            out = padded[None, lo:lo + SERIES_CHUNK + t - 1]
            for layer in model.layers[:n_prefix]:
                out, _ = layer.forward(out)
            seqs = np.lib.stride_tricks.sliding_window_view(out[0], t_shared, axis=0)
            out = seqs.transpose(0, 2, 1)  # [chunk, t_shared, channels]
            for layer in model.layers[n_prefix:]:
                out, _ = layer.forward(out)
            probs.append(out)
    return np.concatenate(probs)[:n]


def classify_series(model: ModelGraph, arch: ArchConfig, normed: np.ndarray,
                    threshold: float = DEFAULT_THRESHOLD) -> ThreatVerdict:
    """Classify every window of a run's ``[N, D]`` normalized series into
    one verdict of ``[N]`` arrays.

    Row i of the verdict is ``classify`` on the ``seq_len`` windows ending
    at i, window 0 repeated in front for warm-up, within 1e-12; no row
    depends on later windows, bit for bit (see ``_series_probs``). Rows
    ``seq_len - 1`` on are, bit for bit, ``predict_probs`` on the
    ``build_sequences`` view of the series. ConfigError if a leading
    convolution is strided.
    """
    normed = np.asarray(normed, dtype=np.float64)
    if normed.ndim != 2 or normed.shape[1] != arch.feature_dim:
        raise DimensionError(f"series must be [N, {arch.feature_dim}], got shape "
                             f"{normed.shape}")
    if len(normed) == 0:
        return verdict(np.zeros((0, arch.num_classes)), threshold)
    n_prefix = _shared_prefix(model)
    if n_prefix is None:
        raise ConfigError("shared leading convolutions need stride 1")
    return verdict(_series_probs(model, normed, arch.seq_len, n_prefix), threshold)


def predict_probs(model: ModelGraph, x: np.ndarray) -> np.ndarray:
    """Class probabilities ``[M, K]`` of ``[M, T, D]`` sequences.

    Sequences that form one series, as the ``build_sequences`` view does,
    share ``classify_series``'s pass: ``x.strides[0] == x.strides[1]`` means
    ``x[m, t]`` is row ``m + t`` of an ``[M + T - 1, D]`` series, and row m
    is row ``m + T - 1`` of ``classify_series`` on it, bit for bit. Any
    other x (a copy of such a view too), or a model with a strided leading
    convolution, runs per sequence in chunks of PREDICT_CHUNK; the two paths
    agree within 1e-12.
    """
    x = np.asarray(x, dtype=np.float64)
    n_prefix = _shared_prefix(model)
    if x.ndim == 3 and len(x) and x.strides[0] == x.strides[1] and n_prefix is not None:
        m, t, d = x.shape
        series = np.lib.stride_tricks.as_strided(x, (m + t - 1, d), x.strides[1:],
                                                 writeable=False)
        return _series_probs(model, series, t, n_prefix)[t - 1:]
    outs = [model.forward(x[i:i + PREDICT_CHUNK])
            for i in range(0, len(x), PREDICT_CHUNK)]
    return np.concatenate(outs, axis=0)


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    val_fraction: float = 0.15

    def __post_init__(self):
        check_seed(self.seed, "detector training")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


def _class_weights(y: np.ndarray, num_classes: int) -> np.ndarray:
    """Inverse-frequency weight per class; absent classes weigh 0."""
    counts = np.bincount(y, minlength=num_classes).astype(np.float64)
    present = counts > 0
    weights = np.zeros(num_classes)
    weights[present] = counts[present].sum() / (present.sum() * counts[present])
    return weights


def train(model: ModelGraph, x: np.ndarray, y: np.ndarray,
          cfg: TrainConfig) -> tuple[ModelGraph, list[dict]]:
    """Mini-batch training with a held-out slice driving best-epoch selection.

    Deterministic for a fixed config: shuffling, the validation split, and
    initialization (the caller seeds build_model) all derive from cfg.seed.
    Returns the model restored to its best validation-accuracy epoch and the
    per-epoch history (training loss/accuracy in canonical data order plus
    validation accuracy). Each epoch is scored by one ``predict_probs`` over
    all of x, so a ``build_sequences`` view takes the shared-convolution
    pass; its history's losses are within 1e-12 of those on ``x.copy()``.

    Its working set is Adam's moments, one snapshot of the best epoch's
    parameters (made on the first epoch, then refreshed in place) and one
    batch's activations and gradients; each batch's gradients are dropped
    once its step is taken, before the next batch's pass or the epoch's
    scoring.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if len(x) == 0:
        raise InputError("training dataset is empty")
    if len(x) != len(y):
        raise InputError("sequences and labels disagree in length")
    num_classes = model.forward(x[:1]).shape[1]
    if y.min() < 0 or y.max() >= num_classes:
        raise InputError(f"labels must lie in [0, {num_classes})")
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(x))
    n_val = int(round(cfg.val_fraction * len(x)))
    if 0 < n_val < len(x):
        val_idx, train_idx = np.sort(perm[:n_val]), np.sort(perm[n_val:])
    else:
        # too small to hold anything out; validate on the training data
        val_idx = train_idx = np.arange(len(x))
    y_train, y_val = y[train_idx], y[val_idx]
    weights = _class_weights(y_train, num_classes)
    optimizer = Adam(lr=cfg.lr)
    history: list[dict] = []
    params = model.parameters()
    for epoch in range(cfg.epochs):
        order = rng.permutation(train_idx)
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            try:
                loss, grads = model.loss_and_gradients(
                    x[batch], y[batch], sample_weights=weights[y[batch]])
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"loss became {loss}")
                optimizer.step(params, grads)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(f"epoch {epoch}: {exc}") from exc
            # nothing reads them again: the next batch's pass and the
            # epoch's scoring must not hold them
            del grads
        # canonical-order evaluation keeps history reproducible bit for bit
        probs = predict_probs(model, x)
        train_probs, val_probs = probs[train_idx], probs[val_idx]
        train_loss = nnl.cross_entropy_batch(train_probs, y_train, weights[y_train])
        train_acc = float((train_probs.argmax(axis=1) == y_train).mean())
        val_acc = float((val_probs.argmax(axis=1) == y_val).mean())
        history.append({
            "epoch": epoch,
            "loss": train_loss,
            "train_accuracy": train_acc,
            "val_accuracy": val_acc,
        })
        if epoch == 0 or val_acc > best_acc:  # epochs >= 1: epoch 0 sets both
            best_acc = val_acc
            if epoch == 0:
                best = {k: v.copy() for k, v in params.items()}
            else:  # in place: a second snapshot would briefly double it
                for k, v in params.items():
                    np.copyto(best[k], v)
    model.set_parameters(best)
    return model, history


@dataclass
class DetectionMetrics:
    """Evaluation summary over a labeled sequence set.

    The confusion matrix covers confident verdicts only; sequences below
    the threshold land in the unknown bucket and are reported through
    unknown_rate. The false-positive rate is the share of truly benign
    sequences that received a confident non-benign verdict, over all truly
    benign sequences. Class 0 is benign.
    """

    classes: tuple[str, ...]
    confusion: np.ndarray  # [K, K], rows = truth, cols = prediction
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray  # confident sequences per true class (row sums)
    accuracy: float
    false_positive_rate: float
    unknown_rate: float
    total: int

    @classmethod
    def from_rows(cls, truth, predicted, confident,
                  classes: tuple[str, ...] = LABELS) -> "DetectionMetrics":
        """Score per-row truth and predicted class indices, with the rows
        whose verdict was confident flagged in ``confident``."""
        truth = np.asarray(truth, dtype=np.int64)
        predicted = np.asarray(predicted, dtype=np.int64)
        confident = np.asarray(confident, dtype=bool)
        if len(truth) == 0:
            raise InputError("no rows to score")
        k = len(classes)
        confusion = np.zeros((k, k), dtype=np.int64)
        np.add.at(confusion, (truth[confident], predicted[confident]), 1)
        precision, recall, f1 = confusion_metrics(confusion)
        n_confident = int(confident.sum())
        benign = truth == 0
        n_benign = int(benign.sum())
        false_alarms = int((benign & confident & (predicted != 0)).sum())
        return cls(
            classes=tuple(classes),
            confusion=confusion,
            precision=precision,
            recall=recall,
            f1=f1,
            support=confusion.sum(axis=1),
            accuracy=float(np.trace(confusion) / n_confident) if n_confident else 0.0,
            false_positive_rate=false_alarms / n_benign if n_benign else 0.0,
            unknown_rate=1.0 - n_confident / len(truth),
            total=len(truth),
        )

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "confusion": self.confusion.astype(int).tolist(),
            "per_class": {
                name: {
                    "precision": float(self.precision[i]),
                    "recall": float(self.recall[i]),
                    "f1": float(self.f1[i]),
                    "support": int(self.support[i]),
                }
                for i, name in enumerate(self.classes)
            },
            "accuracy": self.accuracy,
            "false_positive_rate": self.false_positive_rate,
            "unknown_rate": self.unknown_rate,
            "total": self.total,
        }


def confusion_metrics(confusion: np.ndarray):
    """Precision/recall/F1 per class from a confusion matrix."""
    confusion = np.asarray(confusion, dtype=np.float64)
    tp = np.diag(confusion)
    col = confusion.sum(axis=0)
    row = confusion.sum(axis=1)
    precision = np.divide(tp, col, out=np.zeros_like(tp), where=col > 0)
    recall = np.divide(tp, row, out=np.zeros_like(tp), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)
    return precision, recall, f1


def evaluate(model: ModelGraph, x: np.ndarray, y: np.ndarray,
             threshold: float = DEFAULT_THRESHOLD,
             classes: tuple[str, ...] = LABELS) -> DetectionMetrics:
    """Score a model on labeled sequences with confidence gating; class 0
    is benign."""
    if len(x) == 0:
        raise InputError("evaluation set is empty")
    v = verdict(predict_probs(model, np.asarray(x, dtype=np.float64)), threshold)
    return DetectionMetrics.from_rows(y, v.predicted, v.confident, classes)


def save_detector(path: str, model: ModelGraph, arch: ArchConfig,
                  stats: NormStats, layout: FeatureLayout,
                  classes: tuple[str, ...] = LABELS) -> None:
    """Bundle parameters, normalizer, and layout into one npz checkpoint."""
    params = dict(model.parameters())
    params["norm.mean"] = stats.mean
    params["norm.std"] = stats.std
    meta = {
        "kind": "detector",
        "arch": dataclasses.asdict(arch),
        "classes": list(classes),
        "layout": layout.to_dict(),
    }
    save_params(path, params, meta)


def load_detector(path: str):
    """Rebuild ``(model, arch, stats, layout, classes)`` from a bundle,
    writing each of its arrays once."""
    params, meta = map_params(path)
    if not isinstance(meta, dict) or meta.get("kind") != "detector":
        raise CheckpointError(f"{path}: not a detector checkpoint")
    try:
        arch = ArchConfig.from_dict(meta["arch"])
        layout = FeatureLayout.from_dict(meta["layout"])
        classes = tuple(meta["classes"])
    except KeyError as exc:
        raise CheckpointError(f"{path}: metadata lacks {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed metadata: {exc}") from exc
    for key in ("norm.mean", "norm.std"):
        if key not in params:
            raise CheckpointError(f"{path}: missing parameter {key!r}")
        if params[key].shape != (arch.feature_dim,):
            raise CheckpointError(f"{path}: parameter {key!r} shape "
                                  f"{params[key].shape} != ({arch.feature_dim},)")
    if layout.dim != arch.feature_dim:
        raise CheckpointError(f"{path}: layout width {layout.dim} != arch "
                              f"feature_dim {arch.feature_dim}")
    stats = NormStats(mean=params.pop("norm.mean").copy(), std=params.pop("norm.std").copy())
    # the graph is built around the mapped arrays: each layer's parameters
    # take their one aligned copy of them, and nothing is drawn
    model = _assemble(arch, lambda i, cls, *sizes, **options: cls.around(
        take(params, f"{i}.", cls.shapes(*sizes), path), **options))
    check_all_taken(params, path)
    if len(classes) != arch.num_classes:
        raise CheckpointError(f"{path}: {len(classes)} class names for "
                              f"{arch.num_classes} outputs")
    return model, arch, stats, layout, classes

"""Detector architecture, training behavior, verdicts, and metrics."""

import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudguard.detector import (
    PREDICT_CHUNK,
    SERIES_CHUNK,
    ArchConfig,
    DetectionMetrics,
    TrainConfig,
    build_model,
    build_sequences,
    classify,
    classify_series,
    confusion_metrics,
    evaluate,
    load_detector,
    predict_probs,
    save_detector,
    train,
)
from cloudguard.errors import (
    CheckpointError,
    ConfigError,
    DimensionError,
    InputError,
    TrainingDivergedError,
)
from cloudguard.features import NormStats, build_layout
from cloudguard.nn import (Adam, Conv1dLayer, DenseLayer, LstmLayer, ModelGraph,
                           grad_check, load_params, save_params)
from cloudguard.nn.layers import ALIGNMENT
from cloudguard.nn.optim import BLOCK
from cloudguard.telemetry import LABELS

from .memory import traced_peak
from .test_cli import TINY_ARCH


def tiny_arch(**kw):
    defaults = dict(feature_dim=16, seq_len=16, conv_filters=(4, 4, 8, 8),
                    kernel_size=3, pool_size=2, pool_after=(2, 4),
                    lstm_hidden=8, fc_widths=(16, 8), num_classes=3)
    defaults.update(kw)
    return ArchConfig(**defaults)


def toy_dataset(rng, arch, n_per_class=12, shift=3.0):
    """Separable class blobs shaped as sequences."""
    xs, ys = [], []
    for c in range(arch.num_classes):
        base = np.zeros(arch.feature_dim)
        base[c % arch.feature_dim] = shift
        blob = rng.normal(size=(n_per_class, arch.seq_len, arch.feature_dim)) * 0.3
        xs.append(blob + base)
        ys.append(np.full(n_per_class, c))
    return np.concatenate(xs), np.concatenate(ys)


class TestArchConfig:
    def test_default_shape_chain(self):
        arch = ArchConfig()
        # 16 -> conv 14 -> conv 12 -> pool 6 -> conv 4 -> conv 2 -> pool 1
        assert arch.timeline() == [16, 14, 12, 6, 4, 2, 1]

    def test_default_layer_census(self):
        model = build_model(ArchConfig(), seed=0)
        names = [type(layer).__name__ for layer in model.layers]
        assert names.count("Conv1dLayer") == 4
        assert names.count("MaxPool1dLayer") == 2
        assert names.count("DenseLayer") == 3
        assert names.count("LstmLayer") == 1

    def test_default_param_count_closed_form(self):
        arch = ArchConfig()
        model = build_model(arch, seed=0)
        k = arch.kernel_size

        def conv(c_in, c_out):
            return k * c_in * c_out + c_out

        def lstm(c_in, h):
            return 4 * (c_in * h + h * h + h)

        def dense(c_in, c_out):
            return c_in * c_out + c_out

        want = (conv(428, 64) + conv(64, 64) + conv(64, 128) + conv(128, 128)
                + lstm(128, 256) + dense(256, 128) + dense(128, 64) + dense(64, 6))
        assert model.num_params() == want

    def test_default_lstm_stacks_the_per_gate_draws(self):
        # one [C, H] Glorot block per gate, drawn after the conv kernels in
        # the order w_i, w_f, w_o, w_g, u_i, u_f, u_o, u_g and laid side by
        # side; the forget gate's bias starts at 1. The digest is of those
        # per-gate arrays as the twelve-array layout drew them, concatenated
        arch = ArchConfig()
        params = build_model(arch, seed=0).parameters()
        c, h = arch.conv_filters[-1], arch.lstm_hidden
        rng = np.random.default_rng(0)
        for i in (0, 1, 3, 4):
            rng.uniform(size=params[f"{i}.kernel"].shape)

        def blocks(fan_in):
            limit = np.sqrt(6.0 / (fan_in + h))
            return np.concatenate([rng.uniform(-limit, limit, size=(fan_in, h))
                                   for _ in range(4)], axis=1)

        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0
        want = {"6.w": blocks(c), "6.u": blocks(h), "6.b": bias}
        digest = hashlib.sha256()
        for name, arr in want.items():
            assert params[name].tobytes() == arr.tobytes(), name
            digest.update(arr.tobytes())
        assert digest.hexdigest() == \
            "cd0f9fddc11ce228623f8e82c1250b48b1c987ddc50f888cc8b25289963a3722"

    def test_same_seed_identical_init(self):
        a = build_model(tiny_arch(), seed=5)
        b = build_model(tiny_arch(), seed=5)
        for key, arr in a.parameters().items():
            np.testing.assert_array_equal(arr, b.parameters()[key])

    def test_num_classes_sets_output_width(self):
        model = build_model(tiny_arch(num_classes=2), seed=0)
        x = np.zeros((1, 16, 16))
        assert model.forward(x).shape == (1, 2)

    def test_collapsing_sequence_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(seq_len=4)  # dies at conv 3

    def test_pool_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            tiny_arch(seq_len=17)

    def test_dict_round_trip(self):
        arch = tiny_arch()
        assert ArchConfig.from_dict(dataclasses.asdict(arch)) == arch

    def test_gradients_on_shrunken_config(self):
        rng = np.random.default_rng(1)
        arch = tiny_arch()
        model = build_model(arch, seed=1)
        x = rng.normal(size=(2, 16, 16))
        err = grad_check(model, x, np.array([0, 2]), epsilon=1e-5,
                         max_entries_per_param=20, rng=np.random.default_rng(0))
        assert err < 1e-4


class TestBuildSequences:
    def test_shapes_and_last_window_label(self):
        vectors = np.arange(20, dtype=float)[:, None] * np.ones((1, 3))
        labels = np.arange(20)
        x, y = build_sequences(vectors, labels, seq_len=4)
        assert x.shape == (17, 4, 3)
        np.testing.assert_array_equal(y, labels[3:])
        np.testing.assert_array_equal(x[0, :, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(x[-1, :, 0], [16, 17, 18, 19])

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            build_sequences(np.zeros((3, 2)), np.zeros(3), seq_len=4)


class TestTraining:
    def test_lr_zero_leaves_params_and_history_flat(self):
        rng = np.random.default_rng(2)
        arch = tiny_arch()
        model = build_model(arch, seed=2)
        before = {k: v.copy() for k, v in model.parameters().items()}
        x, y = toy_dataset(rng, arch, n_per_class=4)
        _, history = train(model, x, y, TrainConfig(epochs=3, lr=0.0, seed=0))
        for key, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, before[key])
        assert len(history) == 3
        assert len({h["loss"] for h in history}) == 1
        assert len({h["val_accuracy"] for h in history}) == 1

    def test_single_sample_overfits(self):
        arch = tiny_arch()
        model = build_model(arch, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, arch.seq_len, arch.feature_dim))
        y = np.array([1])
        _, history = train(model, x, y,
                           TrainConfig(epochs=200, batch_size=1, lr=3e-3, seed=0))
        assert history[-1]["train_accuracy"] == 1.0

    def test_loss_descends_on_separable_data(self):
        arch = tiny_arch()
        model = build_model(arch, seed=4)
        x, y = toy_dataset(np.random.default_rng(4), arch)
        _, history = train(model, x, y, TrainConfig(epochs=12, lr=3e-3, seed=1))
        assert history[-1]["loss"] < history[0]["loss"]

    def test_bit_exact_reproducibility(self):
        arch = tiny_arch()
        x, y = toy_dataset(np.random.default_rng(5), arch)
        runs = []
        for _ in range(2):
            model = build_model(arch, seed=7)
            _, history = train(model, x, y, TrainConfig(epochs=4, lr=2e-3, seed=7))
            runs.append((history, {k: v.copy() for k, v in model.parameters().items()}))
        assert runs[0][0] == runs[1][0]  # bit-exact history dicts
        for key, arr in runs[0][1].items():
            np.testing.assert_array_equal(arr, runs[1][1][key])

    def test_history_length_equals_epochs(self):
        arch = tiny_arch()
        model = build_model(arch, seed=8)
        x, y = toy_dataset(np.random.default_rng(8), arch, n_per_class=3)
        _, history = train(model, x, y, TrainConfig(epochs=5, lr=1e-3, seed=0))
        assert [h["epoch"] for h in history] == [0, 1, 2, 3, 4]

    def test_divergence_reports_epoch(self):
        arch = tiny_arch()
        model = build_model(arch, seed=9)
        x, y = toy_dataset(np.random.default_rng(9), arch, n_per_class=3)
        x[:, 0, 0] = np.nan  # poisoned input makes the first batch non-finite
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(model, x, y, TrainConfig(epochs=3, lr=1e-3, seed=0))

    def test_label_out_of_range_rejected(self):
        arch = tiny_arch()
        model = build_model(arch, seed=10)
        x = np.zeros((2, arch.seq_len, arch.feature_dim))
        with pytest.raises(InputError):
            train(model, x, np.array([0, 3]), TrainConfig(epochs=1))

    def test_empty_dataset_rejected(self):
        model = build_model(tiny_arch(), seed=0)
        with pytest.raises(InputError):
            train(model, np.zeros((0, 16, 16)), np.zeros(0, dtype=int),
                  TrainConfig(epochs=1))

    def test_epoch_evaluation_never_gathers_the_whole_split(self):
        arch = ArchConfig.from_dict(TINY_ARCH)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(700, arch.seq_len, arch.feature_dim))
        y = rng.integers(arch.num_classes, size=len(x))
        cfg = TrainConfig(epochs=2, seed=0)
        n_train = len(x) - int(round(cfg.val_fraction * len(x)))
        model = build_model(arch, seed=0)
        assert traced_peak(lambda: train(model, x, y, cfg)) < x[:n_train].nbytes

    def test_peak_holds_the_moments_one_snapshot_and_one_step(self):
        # counted from the model's sizes: Adam's moments, one snapshot of
        # the best epoch, one batch's gradients, its activations and their
        # gradients, and Adam's block of scratch. A fresh 2 MB zero gradient
        # for u on every step, or a second snapshot made beside the first,
        # lands above it
        arch = ArchConfig()
        rng = np.random.default_rng(0)
        n = 96 + arch.seq_len - 1
        labels = np.repeat(rng.integers(arch.num_classes, size=n // 8 + 1), 8)[:n]
        series = rng.normal(size=(n, arch.feature_dim)) * 0.5
        series[np.arange(n), labels * 7] += 1.0
        x, y = build_sequences(series, labels, arch.seq_len)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=0)
        model = build_model(arch, seed=0)
        params = model.parameters()
        param_bytes = sum(arr.nbytes for arr in params.values())
        # one LSTM step: u's gradient is always zero, so Adam never updates it
        trained_bytes = param_bytes - params["6.u"].nbytes
        out = np.ascontiguousarray(x[:cfg.batch_size])
        activations = out.nbytes
        for layer in model.layers:
            out, _ = layer.forward(out)
            activations += out.nbytes
        train(build_model(arch, seed=1), x[:20], y[:20], cfg)  # first-call set-up
        history = []
        peak = traced_peak(lambda: history.extend(train(model, x, y, cfg)[1]))
        assert history[1]["val_accuracy"] > history[0]["val_accuracy"]  # a refresh
        assert peak <= (3 * trained_bytes + param_bytes + 2 * activations
                        + 2 * BLOCK * out.itemsize)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -1), ("batch_size", 0),
        ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")),
        ("val_fraction", -0.1), ("val_fraction", 1.0), ("val_fraction", float("nan")),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})

    def test_edges_accepted(self):
        TrainConfig(epochs=1, batch_size=1, lr=0.0, val_fraction=0.0)


class TestClassify:
    def test_verdict_fields_and_gating(self):
        model = build_model(tiny_arch(), seed=11)
        x = np.random.default_rng(11).normal(size=(16, 16))
        v = classify(model, x, threshold=0.0)
        assert v.confident  # threshold 0 always confident
        assert v.predicted == int(np.argmax(v.probabilities))
        assert v.max_probability == pytest.approx(v.probabilities.max())
        assert abs(v.probabilities.sum() - 1.0) < 1e-9

    def test_boundary_just_below_threshold_not_confident(self):
        model = build_model(tiny_arch(num_classes=2), seed=12)
        x = np.random.default_rng(12).normal(size=(16, 16))
        v = classify(model, x, threshold=1.1)  # max prob can never reach 1.1
        assert not v.confident

    def test_threshold_is_inclusive(self):
        model = build_model(tiny_arch(), seed=13)
        x = np.random.default_rng(13).normal(size=(16, 16))
        v = classify(model, x, threshold=0.0)
        exact = classify(model, x, threshold=v.max_probability)
        assert exact.confident  # max >= threshold, equality counts

    def test_probability_sum_over_random_inputs(self):
        model = build_model(tiny_arch(), seed=14)
        rng = np.random.default_rng(14)
        for _ in range(25):
            v = classify(model, rng.normal(size=(16, 16)))
            assert abs(v.probabilities.sum() - 1.0) < 1e-9

    def test_shape_mismatch_rejected(self):
        model = build_model(tiny_arch(), seed=15)
        with pytest.raises(DimensionError):
            classify(model, np.zeros((16, 9)))


def _recount_detection(rows):
    """Detection metrics of (truth, predicted, confident) index rows in plain
    Python: the detection half of the acceptance suite's report recount."""
    classes = list(LABELS)
    k = len(classes)
    confusion = [[0] * k for _ in range(k)]
    n_confident = benign_total = false_alarms = 0
    for truth, predicted, confident in rows:
        if confident:
            confusion[truth][predicted] += 1
            n_confident += 1
        if truth == 0:
            benign_total += 1
            if confident and predicted != 0:
                false_alarms += 1
    per_class = {}
    for i, name in enumerate(classes):
        tp = confusion[i][i]
        col = sum(confusion[r][i] for r in range(k))
        row = sum(confusion[i])
        p = tp / col if col > 0 else 0.0
        r = tp / row if row > 0 else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        per_class[name] = {"precision": p, "recall": r, "f1": f1,
                           "support": row}
    return {
        "classes": classes,
        "confusion": confusion,
        "per_class": per_class,
        "accuracy": (sum(confusion[i][i] for i in range(k)) / n_confident
                     if n_confident else 0.0),
        "false_positive_rate": (false_alarms / benign_total
                                if benign_total else 0.0),
        "unknown_rate": 1.0 - n_confident / len(rows),
        "total": len(rows),
    }


class TestEvaluate:
    def test_textbook_confusion_arithmetic(self):
        # class 0: TP=49, FN=1 (one true-0 predicted 1), FP=2
        confusion = np.array([[49, 1], [2, 48]])
        precision, recall, f1 = confusion_metrics(confusion)
        assert precision[0] == pytest.approx(49 / 51)
        assert recall[0] == pytest.approx(0.98)
        assert f1[0] == pytest.approx(2 * (49 / 51) * 0.98 / ((49 / 51) + 0.98))

    def test_f1_is_harmonic_mean_recomputed_from_confusion(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            confusion = rng.integers(0, 30, size=(4, 4))
            precision, recall, f1 = confusion_metrics(confusion)
            for c in range(4):
                p, r = precision[c], recall[c]
                want = 2 * p * r / (p + r) if p + r > 0 else 0.0
                assert f1[c] == pytest.approx(want)

    def test_perfect_predictions(self):
        arch = tiny_arch()
        model = build_model(arch, seed=17)
        x, y = toy_dataset(np.random.default_rng(17), arch, n_per_class=8)
        model, _ = train(model, x, y, TrainConfig(epochs=40, lr=3e-3, seed=1))
        m = evaluate(model, x, y, threshold=0.0, classes=("a", "b", "c"))
        if m.accuracy == 1.0:  # fully learned; the separable case
            np.testing.assert_array_equal(m.precision, np.ones(3))
            np.testing.assert_array_equal(m.recall, np.ones(3))
            np.testing.assert_array_equal(m.f1, np.ones(3))
            assert m.false_positive_rate == 0.0

    def test_row_sums_equal_support(self):
        arch = tiny_arch()
        model = build_model(arch, seed=18)
        x, y = toy_dataset(np.random.default_rng(18), arch, n_per_class=6)
        m = evaluate(model, x, y, threshold=0.4, classes=("a", "b", "c"))
        np.testing.assert_array_equal(m.confusion.sum(axis=1), m.support)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(LABELS) - 1),
                              st.integers(0, len(LABELS) - 1), st.booleans()),
                    min_size=1, max_size=80))
    @example([(2, 2, False), (0, 3, False), (5, 0, False)])  # none confident
    @example([(1, 1, True), (3, 0, True), (4, 2, False)])  # no benign row
    @example([(0, 4, True)])  # a single row
    def test_from_rows_matches_a_plain_recount(self, rows):
        truth, predicted, confident = zip(*rows)
        m = DetectionMetrics.from_rows(np.array(truth), np.array(predicted),
                                       np.array(confident))
        assert m.to_dict() == _recount_detection(rows)

    def test_unknown_rate_counts_below_threshold(self):
        arch = tiny_arch()
        model = build_model(arch, seed=19)  # untrained: probs near uniform
        x, y = toy_dataset(np.random.default_rng(19), arch, n_per_class=6)
        m = evaluate(model, x, y, threshold=0.999)
        assert m.unknown_rate > 0.9
        assert m.confusion.sum() == round((1 - m.unknown_rate) * m.total)

    def test_argmax_invariant_under_monotone_logit_shift(self):
        # softmax order is preserved by any uniform shift of the logits; the
        # decision must depend only on the ordering
        arch = tiny_arch()
        model = build_model(arch, seed=20)
        x = np.random.default_rng(20).normal(size=(16, 16))
        v = classify(model, x, threshold=0.0)
        final = model.layers[-1]
        final.params.bias += 5.0  # uniform shift of every logit
        shifted = classify(model, x, threshold=0.0)
        assert shifted.predicted == v.predicted
        np.testing.assert_allclose(shifted.probabilities, v.probabilities,
                                   rtol=1e-9)


def padded_sequences(x: np.ndarray, seq_len: int) -> np.ndarray:
    """Window i's [T, D] input: the T windows ending at i, window 0 repeated
    in front for warm-up."""
    padded = np.concatenate([np.repeat(x[:1], seq_len - 1, axis=0), x])
    return np.stack([padded[i:i + seq_len] for i in range(len(x))])


# the default pooling, a pool right after the first conv, a pool after the
# first and third, and a wider kernel; the default arch at full width is
# where a batch shape that varied with N would change bits (OpenBLAS takes
# another path for small matrices)
SERIES_ARCHS = {
    "default": ArchConfig(),
    "pool-2-4": tiny_arch(),
    "pool-1": tiny_arch(pool_after=(1,)),
    "pool-1-3": tiny_arch(seq_len=14, conv_filters=(4, 4, 8), pool_after=(1, 3)),
    "kernel-5": tiny_arch(seq_len=18, conv_filters=(4, 4, 8), kernel_size=5,
                          pool_after=(2,)),
}


def series_lengths(arch) -> list[int]:
    t, c = arch.seq_len, SERIES_CHUNK
    return [1, t - 1, t, c - 1, c, c + 1, 2 * c + 3]


class TestClassifySeries:
    @pytest.mark.parametrize("name", sorted(SERIES_ARCHS))
    def test_matches_graph_forward_per_sequence(self, name):
        arch = SERIES_ARCHS[name]
        model = build_model(arch, seed=31)
        rng = np.random.default_rng(31)
        for n in series_lengths(arch):
            x = rng.normal(size=(n, arch.feature_dim))
            verdict = classify_series(model, arch, x, threshold=0.4)
            want = model.forward(padded_sequences(x, arch.seq_len))
            got = verdict.probabilities
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            for i, probs in enumerate(got):
                assert verdict.predicted[i] == int(np.argmax(probs))
                assert verdict.max_probability[i] == probs[verdict.predicted[i]]
                assert verdict.confident[i] == (verdict.max_probability[i] >= 0.4)

    @pytest.mark.parametrize("name", sorted(SERIES_ARCHS))
    def test_prefix_of_a_series_is_bitwise_unchanged(self, name):
        arch = SERIES_ARCHS[name]
        model = build_model(arch, seed=32)
        x = np.random.default_rng(32).normal(size=(2 * SERIES_CHUNK + 3,
                                                   arch.feature_dim))
        full = classify_series(model, arch, x).probabilities
        for k in series_lengths(arch):
            part = classify_series(model, arch, x[:k]).probabilities
            assert len(part) == k
            for a, b in zip(part, full):
                assert a.tobytes() == b.tobytes()

    def test_strided_shared_conv_rejected(self):
        arch = tiny_arch()
        model = build_model(arch, seed=34)
        model.layers[1].params.stride = 2  # conv2, before the first pool
        with pytest.raises(ConfigError, match="stride"):
            classify_series(model, arch, np.zeros((5, arch.feature_dim)))

    def test_shapes(self):
        arch = tiny_arch()
        model = build_model(arch, seed=35)
        empty = classify_series(model, arch, np.zeros((0, arch.feature_dim)))
        assert empty.probabilities.shape == (0, arch.num_classes)
        assert empty.predicted.shape == empty.confident.shape == (0,)
        with pytest.raises(DimensionError):
            classify_series(model, arch, np.zeros((5, arch.feature_dim + 1)))
        with pytest.raises(DimensionError):
            classify_series(model, arch, np.zeros(arch.feature_dim))


def series_dataset(arch, m: int, seed: int):
    """``build_sequences`` over a random series: M overlapping sequences
    (a sliding view) and random labels."""
    rng = np.random.default_rng(seed)
    series = rng.normal(size=(m + arch.seq_len - 1, arch.feature_dim))
    labels = rng.integers(arch.num_classes, size=len(series))
    return build_sequences(series, labels, arch.seq_len)


class TestPredictProbs:
    @pytest.mark.parametrize("name", sorted(SERIES_ARCHS))
    def test_series_view_matches_graph_forward_per_sequence(self, name):
        arch = SERIES_ARCHS[name]
        model = build_model(arch, seed=41)
        for m in (1, SERIES_CHUNK - 1, 2 * SERIES_CHUNK + 3):
            x, _ = series_dataset(arch, m, seed=m)
            assert x.strides[0] == x.strides[1]
            got = predict_probs(model, x)
            want = model.forward(np.ascontiguousarray(x))
            assert got.shape == want.shape == (m, arch.num_classes)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(SERIES_ARCHS))
    def test_series_view_rows_are_classify_series_rows_bitwise(self, name):
        arch = SERIES_ARCHS[name]
        model = build_model(arch, seed=42)
        x, _ = series_dataset(arch, 2 * SERIES_CHUNK + 3, seed=42)
        series = np.concatenate([x[:, 0], x[-1, 1:]])  # row m + t is x[m, t]
        want = classify_series(model, arch, series).probabilities[arch.seq_len - 1:]
        assert predict_probs(model, x).tobytes() == want.tobytes()

    def test_train_on_a_view_and_on_its_copy_agree(self):
        arch = tiny_arch()
        x, y = series_dataset(arch, 90, seed=43)
        runs = []
        for data in (x, x.copy()):
            model = build_model(arch, seed=43)
            _, history = train(model, data, y, TrainConfig(epochs=3, lr=3e-3, seed=4))
            runs.append((history, model.parameters()))
        (view_hist, view_params), (copy_hist, copy_params) = runs
        for a, b in zip(view_hist, copy_hist):
            assert a["train_accuracy"] == b["train_accuracy"]
            assert a["val_accuracy"] == b["val_accuracy"]
            assert abs(a["loss"] - b["loss"]) <= 1e-12
        for key, arr in view_params.items():  # training itself reads the same batches
            np.testing.assert_array_equal(arr, copy_params[key])

    def test_evaluating_overlapping_sequences_never_gathers_a_chunk(self):
        arch = tiny_arch(feature_dim=64)
        x, y = series_dataset(arch, 400, seed=44)
        gather = PREDICT_CHUNK * arch.seq_len * arch.feature_dim * x.itemsize
        model = build_model(arch, seed=44)

        def train_and_evaluate():
            train(model, x, y, TrainConfig(epochs=1, seed=0))
            evaluate(model, x, y)

        assert traced_peak(train_and_evaluate) < gather / 2

    def test_strided_leading_conv_runs_per_sequence(self):
        arch = tiny_arch()
        conv = Conv1dLayer(arch.feature_dim, 4, 3)
        conv.params.stride = 2
        model = ModelGraph([conv, LstmLayer(4, 8), DenseLayer(8, 3, activation="softmax")])
        x, y = series_dataset(arch, 40, seed=45)
        np.testing.assert_allclose(predict_probs(model, x),
                                   model.forward(np.ascontiguousarray(x)),
                                   rtol=0, atol=1e-12)
        _, history = train(model, x, y, TrainConfig(epochs=2, seed=0))
        assert len(history) == 2
        with pytest.raises(ConfigError, match="stride"):
            classify_series(model, arch, x[:, 0])

    def test_sequences_shorter_than_the_convolutions_rejected(self):
        arch = tiny_arch()
        model = build_model(arch, seed=46)
        x, _ = build_sequences(np.zeros((10, arch.feature_dim)), np.zeros(10), seq_len=2)
        for data in (x, x.copy()):  # the series path and the per-sequence path
            with pytest.raises(DimensionError):
                predict_probs(model, data)


class TestDetectorBundle:
    def test_round_trip_bit_exact(self, tmp_path):
        arch = tiny_arch()
        model = build_model(arch, seed=21)
        layout = build_layout(dim=arch.feature_dim)
        stats = NormStats(mean=np.arange(16.0), std=np.ones(16))
        path = str(tmp_path / "detector.npz")
        save_detector(path, model, arch, stats, layout, classes=("a", "b", "c"))
        got_model, got_arch, got_stats, got_layout, got_classes = load_detector(path)
        assert got_arch == arch
        assert got_layout == layout
        assert got_classes == ("a", "b", "c")
        np.testing.assert_array_equal(got_stats.mean, stats.mean)
        x = np.random.default_rng(22).normal(size=(3, 16, 16))
        np.testing.assert_array_equal(got_model.forward(x), model.forward(x))

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "other.npz")
        save_params(path, {"0.bias": np.zeros(2)}, {"kind": "qtables"})
        with pytest.raises(CheckpointError, match="not a detector"):
            load_detector(path)

    def test_missing_normalizer_named(self, tmp_path):
        arch = tiny_arch()
        model = build_model(arch, seed=23)
        layout = build_layout(dim=16)
        meta = {"kind": "detector", "arch": dataclasses.asdict(arch),
                "classes": ["a", "b", "c"], "layout": layout.to_dict()}
        path = str(tmp_path / "broken.npz")
        save_params(path, dict(model.parameters()), meta)  # no norm arrays
        with pytest.raises(CheckpointError, match="norm.mean"):
            load_detector(path)

    @pytest.mark.parametrize("member,array", [
        ("9.bias", None),
        ("9.ghost", np.zeros(2)),
        ("7.weights", np.zeros((8, 9))),
    ], ids=["missing", "unexpected", "reshaped"])
    def test_a_weight_that_does_not_fit_the_arch_is_named(self, tmp_path, member, array):
        arch = tiny_arch()
        path = str(tmp_path / "detector.npz")
        save_detector(path, build_model(arch, seed=24), arch,
                      NormStats(mean=np.zeros(16), std=np.ones(16)), build_layout(dim=16))
        params, meta = load_params(path)
        if array is None:
            del params[member]
        else:
            params[member] = array
        save_params(path, params, meta)
        with pytest.raises(CheckpointError, match=re.escape(repr(member))):
            load_detector(path)


@pytest.fixture(scope="module")
def default_bundle(tmp_path_factory):
    """A checkpoint of the default arch, and the model saved in it."""
    arch = ArchConfig()
    model = build_model(arch, seed=31)
    ones = np.ones(arch.feature_dim)
    path = str(tmp_path_factory.mktemp("bundle") / "detector.npz")
    save_detector(path, model, arch, NormStats(mean=ones, std=ones),
                  build_layout(arch.feature_dim))
    return path, model


class TestDetectorLoad:
    def test_load_peak_heap_stays_near_the_weights(self, default_bundle):
        path, model = default_bundle
        weight_bytes = sum(arr.nbytes for arr in model.parameters().values())
        load_detector(path)  # first-call imports and caches stay out of the count
        assert traced_peak(lambda: load_detector(path)) <= 1.5 * weight_bytes

    def test_weights_are_aligned_contiguous_writable_and_their_own(self, default_bundle):
        path, _ = default_bundle
        for model in (build_model(ArchConfig(), seed=31), load_detector(path)[0]):
            arrays = list(model.parameters().items())
            for name, arr in arrays:
                assert arr.ctypes.data % ALIGNMENT == 0, name
                assert arr.flags.c_contiguous and arr.flags.writeable, name
            for (a_name, a), (b_name, b) in itertools.combinations(arrays, 2):
                assert not np.shares_memory(a, b), (a_name, b_name)

    def test_loaded_model_classifies_and_steps_bit_equal_to_a_built_one(
            self, default_bundle):
        path, saved = default_bundle
        arch = ArchConfig()
        loaded = load_detector(path)[0]
        built = build_model(arch, seed=0)
        built.set_parameters(saved.parameters())
        rng = np.random.default_rng(32)
        series = rng.normal(size=(40, arch.feature_dim))
        assert classify_series(loaded, arch, series).probabilities.tobytes() == \
            classify_series(built, arch, series).probabilities.tobytes()
        x = rng.normal(size=(4, arch.seq_len, arch.feature_dim))
        y = rng.integers(0, arch.num_classes, size=4)
        for model in (loaded, built):
            _, grads = model.loss_and_gradients(x, y)
            Adam(lr=1e-3).step(model.parameters(), grads)
        for name, arr in built.parameters().items():
            assert loaded.parameters()[name].tobytes() == arr.tobytes(), name

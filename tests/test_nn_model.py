"""Model graph wiring, seeded init, and analytic-vs-numeric gradient agreement."""

import numpy as np
import pytest

from cloudguard.detector import ArchConfig, build_model
from cloudguard.errors import CloudguardError, DimensionError
from cloudguard.nn import (
    Conv1dLayer,
    DenseLayer,
    LstmLayer,
    MaxPool1dLayer,
    ModelGraph,
    grad_check,
    one_blas_thread,
)
from cloudguard.nn import layers as L
from cloudguard.nn import model as nn_model


def small_stack(rng=None):
    """Conv -> pool -> conv -> lstm -> dense relu -> dense softmax, tiny sizes."""
    rng = rng or np.random.default_rng(0)
    return ModelGraph([
        Conv1dLayer(3, 4, kernel_size=3, rng=rng),
        MaxPool1dLayer(2),
        Conv1dLayer(4, 5, kernel_size=2, rng=rng),
        LstmLayer(5, 6, rng=rng),
        DenseLayer(6, 4, activation="relu", rng=rng),
        DenseLayer(4, 3, activation="softmax", rng=rng),
    ])


class TestGraphBasics:
    def test_forward_shape_and_normalization(self):
        model = small_stack()
        x = np.random.default_rng(1).normal(size=(5, 12, 3))
        probs = model.forward(x)
        assert probs.shape == (5, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)

    def test_param_names_and_count(self):
        model = small_stack()
        params = model.parameters()
        assert "0.kernel" in params and "0.bias" in params
        assert "3.w" in params and "3.u" in params and "3.b" in params
        assert "5.weights" in params
        want = (3 * 3 * 4 + 4) + (2 * 4 * 5 + 5) \
            + 4 * (5 * 6) + 4 * (6 * 6) + 4 * 6 \
            + (6 * 4 + 4) + (4 * 3 + 3)
        assert model.num_params() == want

    def test_seeded_init_reproducible(self):
        a = small_stack(np.random.default_rng(99))
        b = small_stack(np.random.default_rng(99))
        for k, arr in a.parameters().items():
            np.testing.assert_array_equal(arr, b.parameters()[k])

    def test_different_seeds_differ(self):
        a = small_stack(np.random.default_rng(1))
        b = small_stack(np.random.default_rng(2))
        assert any(not np.array_equal(arr, b.parameters()[k])
                   for k, arr in a.parameters().items())

    def test_glorot_bounds(self):
        layer = DenseLayer(30, 20, rng=np.random.default_rng(5))
        limit = np.sqrt(6.0 / 50.0)
        w = layer.params.weights
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > limit * 0.8  # actually fills the range

    def test_forget_gate_bias_starts_open(self):
        layer = LstmLayer(4, 8, rng=np.random.default_rng(6))
        b = layer.params.b
        np.testing.assert_array_equal(b[8:16], np.ones(8))
        np.testing.assert_array_equal(b[:8], np.zeros(8))
        np.testing.assert_array_equal(b[16:], np.zeros(16))

    def test_set_parameters_round_trip(self):
        model = small_stack()
        snapshot = {k: v.copy() for k, v in model.parameters().items()}
        for arr in model.parameters().values():
            arr += 1.0
        model.set_parameters(snapshot)
        for k, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, snapshot[k])

    def test_set_parameters_rejects_bad_shape(self):
        model = small_stack()
        with pytest.raises(DimensionError):
            model.set_parameters({"0.bias": np.zeros(99)})

    def test_loss_requires_softmax_head(self):
        model = ModelGraph([DenseLayer(3, 2, activation="relu")])
        with pytest.raises(DimensionError):
            model.loss_and_gradients(np.zeros((1, 3)), np.array([0]))


def test_one_blas_thread_pins_one_then_restores_the_callers_count():
    get, set_ = nn_model._openblas_threads()
    before = get()
    set_(2)
    try:
        with one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        set_(before)


def test_one_blas_thread_fails_loudly_without_the_thread_control(
        no_blas_thread_control):
    # a numpy built on another BLAS (or found through a Windows .pyd)
    # exports no scipy-openblas symbol: stop before the first pass
    with pytest.raises(CloudguardError,
                       match="scipy_openblas_set_num_threads64_.*Linux"):
        with one_blas_thread():
            pass
    with pytest.raises(CloudguardError, match="undefined symbol"):
        small_stack().forward(np.zeros((1, 12, 3)))


class TestGradientsAgainstFiniteDifferences:
    """Central finite differences are the oracle for every backward pass."""

    def test_full_stack_max_rel_error_below_1e4(self):
        rng = np.random.default_rng(2024)
        model = small_stack(rng)
        x = rng.normal(size=(3, 12, 3))
        labels = np.array([0, 2, 1])
        err = grad_check(model, x, labels, epsilon=1e-5)
        assert err < 1e-4, f"worst relative gradient error {err:.3e}"

    def test_dense_only_chain(self):
        rng = np.random.default_rng(31)
        model = ModelGraph([
            DenseLayer(6, 5, activation="relu", rng=rng),
            DenseLayer(5, 4, activation="none", rng=rng),
            DenseLayer(4, 3, activation="softmax", rng=rng),
        ])
        x = rng.normal(size=(4, 6))
        err = grad_check(model, x, rng.integers(0, 3, size=4), epsilon=1e-5)
        assert err < 1e-6

    def test_lstm_chain(self):
        rng = np.random.default_rng(37)
        model = ModelGraph([
            LstmLayer(3, 4, rng=rng),
            DenseLayer(4, 2, activation="softmax", rng=rng),
        ])
        x = rng.normal(size=(2, 6, 3))
        err = grad_check(model, x, np.array([0, 1]), epsilon=1e-5)
        assert err < 1e-6

    def test_conv_pool_chain_with_stride(self):
        rng = np.random.default_rng(41)
        conv = Conv1dLayer(2, 3, kernel_size=3, rng=rng)
        conv.params.stride = 2
        model = ModelGraph([
            conv,
            LstmLayer(3, 3, rng=rng),
            DenseLayer(3, 2, activation="softmax", rng=rng),
        ])
        x = rng.normal(size=(2, 11, 2))
        err = grad_check(model, x, np.array([1, 0]), epsilon=1e-5)
        assert err < 1e-6

    def test_unpooled_detector_lstm_sees_several_steps(self):
        """With no pooling the LSTM runs 8 steps, so the recurrent products
        and gradients of steps after the first are under finite differences."""
        arch = ArchConfig(feature_dim=6, seq_len=16, conv_filters=(3, 3, 4, 4),
                          pool_after=(), lstm_hidden=4, fc_widths=(5,), num_classes=3)
        model = build_model(arch, seed=63)
        assert arch.timeline()[-1] == 8
        rng = np.random.default_rng(63)
        x = rng.normal(size=(2, arch.seq_len, arch.feature_dim))
        err = grad_check(model, x, np.array([2, 0]), epsilon=1e-5,
                         max_entries_per_param=12, rng=np.random.default_rng(64))
        assert err < 1e-4, f"worst relative gradient error {err:.3e}"

    def test_central_difference_error_shrinks_quadratically(self):
        """Central FD has O(eps^2) truncation error: on a curved scalar loss the
        deviation from the true derivative must grow ~4x when eps doubles."""
        w = 0.7

        def loss(v):
            return np.tanh(v) ** 2  # smooth, curved, no floor effects

        true_grad = 2.0 * np.tanh(w) * (1.0 - np.tanh(w) ** 2)

        def fd(eps):
            return (loss(w + eps) - loss(w - eps)) / (2.0 * eps)

        e1 = abs(fd(1e-3) - true_grad)
        e2 = abs(fd(2e-3) - true_grad)
        assert 3.0 < e2 / e1 < 5.0


def full_walk_gradients(model, x, labels):
    """``loss_and_gradients`` with every layer's input gradient computed,
    the first layer's included."""
    caches, out = [], x
    for layer in model.layers:
        out, cache = layer.forward(out)
        caches.append(cache)
    grad = L.softmax_xent_grad(out, labels)
    grads = {}
    for i in range(len(model.layers) - 1, -1, -1):
        grad, layer_grads = model.layers[i].backward(grad, caches[i])
        grads.update({f"{i}.{name}": g for name, g in layer_grads.items()})
    assert grad.shape == x.shape
    return grads


def default_detector():
    arch = ArchConfig()
    return build_model(arch, seed=4), (arch.seq_len, arch.feature_dim)


def first_layer_graphs():
    rng = np.random.default_rng(61)
    return {
        "dense": (ModelGraph([DenseLayer(6, 5, activation="relu", rng=rng),
                              DenseLayer(5, 3, activation="softmax", rng=rng)]), (6,)),
        "lstm": (ModelGraph([LstmLayer(3, 4, rng=rng),
                             DenseLayer(4, 3, activation="softmax", rng=rng)]), (5, 3)),
        "pool": (ModelGraph([MaxPool1dLayer(2), LstmLayer(3, 4, rng=rng),
                             DenseLayer(4, 3, activation="softmax", rng=rng)]), (6, 3)),
    }


class TestFirstLayerSkipsInputGradient:
    @pytest.mark.parametrize("name", ["default", "dense", "lstm", "pool"])
    def test_parameter_gradients_bitwise_equal_to_full_walk(self, name):
        model, shape = default_detector() if name == "default" \
            else first_layer_graphs()[name]
        rng = np.random.default_rng(62)
        x = rng.normal(size=(4, *shape))
        labels = rng.integers(0, 3, size=4)
        _, grads = model.loss_and_gradients(x, labels)
        want = full_walk_gradients(model, x, labels)
        assert grads.keys() == want.keys()
        for key, g in grads.items():
            np.testing.assert_array_equal(g, want[key], err_msg=key)


class TestTrainingSmoke:
    def test_loss_decreases_on_separable_toy_data(self):
        rng = np.random.default_rng(55)
        model = ModelGraph([
            DenseLayer(2, 8, activation="relu", rng=rng),
            DenseLayer(8, 2, activation="softmax", rng=rng),
        ])
        # two blobs
        x = np.vstack([rng.normal(loc=-2, size=(40, 2)), rng.normal(loc=2, size=(40, 2))])
        y = np.repeat([0, 1], 40)
        from cloudguard.nn import Adam

        opt = Adam(lr=0.05)
        first, _ = model.loss_and_gradients(x, y)
        for _ in range(60):
            _, grads = model.loss_and_gradients(x, y)
            opt.step(model.parameters(), grads)
        last, _ = model.loss_and_gradients(x, y)
        assert last < first * 0.2
        assert (model.forward(x).argmax(axis=1) == y).mean() > 0.95

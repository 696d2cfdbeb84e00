"""Layer forward passes checked against naive reference implementations."""

import numpy as np
import pytest

from cloudguard.errors import DimensionError
from cloudguard.nn import layers as L

from .nn_oracle import random_lstm_params


def naive_conv1d(x, kernel, bias, stride):
    """Triple-loop valid convolution, the oracle for the vectorized version."""
    t, c_in = x.shape
    k, _, c_out = kernel.shape
    t_out = (t - k) // stride + 1
    out = np.zeros((t_out, c_out))
    for tt in range(t_out):
        for co in range(c_out):
            acc = bias[co]
            for kk in range(k):
                for ci in range(c_in):
                    acc += x[tt * stride + kk, ci] * kernel[kk, ci, co]
            out[tt, co] = acc
    return out


class TestConv1d:
    def test_matches_naive_loop_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            t = int(rng.integers(3, 20))
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(t, 4) + 1))
            stride = int(rng.integers(1, 3))
            x = rng.normal(size=(t, c_in))
            p = L.ConvParams(kernel=rng.normal(size=(k, c_in, c_out)),
                             bias=rng.normal(size=c_out), stride=stride)
            got = L.conv1d_forward(x, p)
            want = naive_conv1d(x, p.kernel, p.bias, stride)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_known_values_by_hand(self):
        # x = [1, 2, 3, 4], kernel [1, -1], bias 0.5: out[t] = x[t] - x[t+1] + 0.5
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        p = L.ConvParams(kernel=np.array([[[1.0]], [[-1.0]]]), bias=np.array([0.5]))
        got = L.conv1d_forward(x, p)
        np.testing.assert_allclose(got, [[-0.5], [-0.5], [-0.5]])

    def test_stride_two_skips_positions(self):
        x = np.arange(6, dtype=float).reshape(6, 1)
        p = L.ConvParams(kernel=np.array([[[1.0]]]), bias=np.array([0.0]), stride=2)
        np.testing.assert_allclose(L.conv1d_forward(x, p), [[0.0], [2.0], [4.0]])

    def test_output_length_formula(self):
        rng = np.random.default_rng(7)
        for t, k, s in [(16, 3, 1), (14, 3, 1), (10, 2, 2), (5, 5, 1), (9, 4, 3)]:
            x = rng.normal(size=(t, 2))
            p = L.ConvParams(kernel=rng.normal(size=(k, 2, 3)), bias=np.zeros(3), stride=s)
            assert L.conv1d_forward(x, p).shape == ((t - k) // s + 1, 3)

    def test_rejects_input_shorter_than_kernel(self):
        p = L.ConvParams(kernel=np.zeros((5, 1, 1)), bias=np.zeros(1))
        with pytest.raises(DimensionError):
            L.conv1d_forward(np.zeros((3, 1)), p)

    def test_rejects_channel_mismatch(self):
        p = L.ConvParams(kernel=np.zeros((2, 3, 1)), bias=np.zeros(1))
        with pytest.raises(DimensionError):
            L.conv1d_forward(np.zeros((8, 2)), p)


class TestMaxPool1d:
    def test_matches_naive_blockwise_max(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            blocks = int(rng.integers(1, 8))
            pool = int(rng.integers(1, 4))
            c = int(rng.integers(1, 5))
            x = rng.normal(size=(blocks * pool, c))
            got, _ = L.maxpool1d_forward(x, pool)
            want = x.reshape(blocks, pool, c).max(axis=1)
            np.testing.assert_array_equal(got, want)

    def test_tie_breaks_to_first_index(self):
        x = np.array([[2.0], [2.0], [1.0], [3.0]])
        out, idx = L.maxpool1d_forward(x, 2)
        np.testing.assert_allclose(out, [[2.0], [3.0]])
        assert idx[0, 0] == 0  # first of the tied pair
        assert idx[1, 0] == 3

    def test_rejects_nondividing_pool(self):
        with pytest.raises(DimensionError):
            L.maxpool1d_forward(np.zeros((5, 1)), 2)


class TestDense:
    def test_matches_matmul(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        p = L.DenseParams(weights=rng.normal(size=(12, 7)), bias=rng.normal(size=7))
        np.testing.assert_allclose(L.dense_forward(x, p), x @ p.weights + p.bias)

    def test_relu_clamps_negatives(self):
        p = L.DenseParams(weights=np.eye(3), bias=np.array([0.0, 0.0, -10.0]),
                          activation="relu")
        out = L.dense_forward(np.array([1.0, -2.0, 3.0]), p)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_softmax_activation_normalizes(self):
        rng = np.random.default_rng(5)
        p = L.DenseParams(weights=rng.normal(size=(4, 6)), bias=np.zeros(6),
                          activation="softmax")
        out = L.dense_forward(rng.normal(size=4), p)
        assert out.min() > 0
        assert abs(out.sum() - 1.0) < 1e-12

    def test_rejects_width_mismatch(self):
        p = L.DenseParams(weights=np.zeros((4, 2)), bias=np.zeros(2))
        with pytest.raises(DimensionError):
            L.dense_forward(np.zeros(5), p)


class TestSoftmax:
    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.normal(scale=10, size=int(rng.integers(1, 12)))
            s = L.softmax(z)
            assert abs(s.sum() - 1.0) < 1e-12
            assert (s > 0).all()

    def test_shift_invariance(self):
        z = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(L.softmax(z), L.softmax(z + 1000.0), rtol=1e-12)

    def test_extreme_logits_stay_finite(self):
        s = L.softmax(np.array([1e4, -1e4, 0.0]))
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s, [1.0, 0.0, 0.0], atol=1e-300)

    def test_two_class_closed_form(self):
        z = np.array([2.0, 0.0])
        want = 1.0 / (1.0 + np.exp(-2.0))
        np.testing.assert_allclose(L.softmax(z)[0], want, rtol=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            L.softmax(np.array([]))


class TestCrossEntropy:
    def test_known_value(self):
        probs = np.array([0.7, 0.2, 0.1])
        assert abs(L.cross_entropy_batch(probs[None], np.array([0])) - (-np.log(0.7))) < 1e-15

    def test_floor_keeps_zero_probability_finite(self):
        probs = np.array([1.0, 0.0])
        loss = L.cross_entropy_batch(probs[None], np.array([1]))
        assert np.isfinite(loss)
        assert abs(loss - (-np.log(1e-12))) < 1e-9

    def test_perfect_prediction_is_zero(self):
        assert L.cross_entropy_batch(np.array([[0.0, 1.0]]), np.array([1])) == 0.0

    def test_batch_mean_matches_singles(self):
        rng = np.random.default_rng(21)
        probs = L.softmax(rng.normal(size=(8, 4)))
        labels = rng.integers(0, 4, size=8)
        singles = np.mean([L.cross_entropy_batch(probs[i:i + 1], labels[i:i + 1])
                           for i in range(8)])
        assert abs(L.cross_entropy_batch(probs, labels) - singles) < 1e-14

    def test_batch_weighting(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        labels = np.array([0, 0])
        w = np.array([3.0, 1.0])
        want = (3.0 * -np.log(0.5) + 1.0 * -np.log(0.9)) / 4.0
        assert abs(L.cross_entropy_batch(probs, labels, w) - want) < 1e-14

    def test_rejects_label_out_of_range(self):
        with pytest.raises(IndexError):
            L.cross_entropy_batch(np.array([[0.5, 0.5]]), np.array([2]))


class TestSoftmaxXentGradIdentity:
    def test_grad_is_probs_minus_onehot(self):
        """The fused gradient must equal (probs - one_hot) / B, floor or not."""
        rng = np.random.default_rng(33)
        logits = rng.normal(size=(6, 5))
        probs = L.softmax(logits)
        labels = rng.integers(0, 5, size=6)
        grad = L.softmax_xent_grad(probs, labels)
        onehot = np.zeros_like(probs)
        onehot[np.arange(6), labels] = 1.0
        np.testing.assert_allclose(grad, (probs - onehot) / 6.0, rtol=1e-14)

    def test_grad_unaffected_by_prob_floor(self):
        # a confidently wrong prediction hits the loss floor, but the logits
        # gradient must remain probs - one_hot rather than zero
        logits = np.array([[60.0, 0.0]])
        probs = L.softmax(logits)
        grad = L.softmax_xent_grad(probs, np.array([1]))
        np.testing.assert_allclose(grad[0], [probs[0, 0], probs[0, 1] - 1.0], atol=1e-15)
        assert grad[0, 1] < -0.999


def hand_lstm_step(x, h, c, p):
    """One LSTM step written out long-hand with scipy-free scalar math."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def gate(k):
        cols = slice(k * p.hidden_size, (k + 1) * p.hidden_size)
        return x @ p.w[:, cols] + h @ p.u[:, cols] + p.b[cols]

    i, f, o = sig(gate(0)), sig(gate(1)), sig(gate(2))
    g = np.tanh(gate(3))
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


class TestLstm:
    def test_matches_hand_unrolled_recurrence(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t, c_in, h_dim = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            p = random_lstm_params(rng, c_in, h_dim)
            x = rng.normal(size=(t, c_in))
            h = np.zeros(h_dim)
            c = np.zeros(h_dim)
            for tt in range(t):
                h, c = hand_lstm_step(x[tt], h, c, p)
                got = L.lstm_forward_batch(x[None, :tt + 1], p)[0][0]
                np.testing.assert_allclose(got, h, rtol=1e-12, atol=1e-12)

    def test_saturated_gates_reach_asymptotes(self):
        # huge forget+input biases with zero weights: c_t = c_{t-1} + tanh(b_g)
        p = L.LstmParams(w=np.zeros((1, 4)), u=np.zeros((1, 4)), b=np.full(4, 100.0))
        out = [L.lstm_forward_batch(np.zeros((1, t, 1)), p)[0][0, 0] for t in (1, 2, 3)]
        # c accumulates tanh(100) ~= 1 per step; h = tanh(c)
        np.testing.assert_allclose(out, np.tanh([1.0, 2.0, 3.0]), atol=1e-9)

    @pytest.mark.parametrize("w,u,b", [
        ((4, 6), (1, 6), (6,)),  # 6 columns are no four gates
        ((4, 8), (2, 4), (8,)),
        ((4, 8), (2, 8), (4,)),
        ((4, 0), (0, 0), (0,)),
        ((8,), (2, 8), (8,)),
    ], ids=["w-not-four-gates", "u-shape", "b-shape", "no-hidden", "w-vector"])
    def test_rejects_shapes_that_are_not_four_stacked_gates(self, w, u, b):
        with pytest.raises(DimensionError, match="w \\[C_in, 4H\\]"):
            L.LstmParams(w=np.zeros(w), u=np.zeros(u), b=np.zeros(b))

    def test_rejects_channel_mismatch(self):
        rng = np.random.default_rng(23)
        p = random_lstm_params(rng, 4, 2)
        with pytest.raises(DimensionError):
            L.lstm_forward_batch(rng.normal(size=(1, 5, 3)), p)


@pytest.mark.parametrize("make", [
    lambda zero: L.ConvParams(kernel=zero((3, 2, 4)), bias=zero((4,))),
    lambda zero: L.DenseParams(weights=zero((2, 4)), bias=zero((4,))),
    lambda zero: L.LstmParams(w=zero((2, 4)), u=zero((1, 4)), b=zero((4,))),
], ids=["conv", "dense", "lstm"])
def test_params_own_writable_copies_of_their_arrays(make):
    # each array given, a zero-stride view here, is copied once into memory
    # the parameters own, aligned to nn.layers.ALIGNMENT bytes
    given = []

    def zero(shape):
        given.append(np.broadcast_to(0.0, shape))
        return given[-1]

    p = make(zero)
    for arr, src in zip(vars(p).values(), given):
        assert arr.flags.writeable and arr.flags.c_contiguous
        assert arr.ctypes.data % L.ALIGNMENT == 0
        assert not np.shares_memory(arr, src)

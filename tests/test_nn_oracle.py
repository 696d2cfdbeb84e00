"""Training kernels against the reference forms in ``nn_oracle``.

The filter gradient sums in another order than the reference ``einsum``,
so it must agree within a relative tolerance of 1e-12, taken against the
sum of the absolute products each entry adds up (the scale its rounding
error grows with). On the default arch's four training shapes it must also
equal the one-GEMM form bit for bit. Everything else keeps its arithmetic
and must match bit for bit: the input and bias gradients, the sigmoid
(signed zeros, subnormals, the exp overflow edges and infinities included;
a NaN input only has to stay NaN), every LSTM output and gradient, and the
pooled values and routed gradients, ties, infinities and NaNs included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cloudguard.nn import MaxPool1dLayer, one_blas_thread
from cloudguard.nn import layers as L

from . import nn_oracle as oracle

DKERNEL_RTOL = 1e-12

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 5)


@st.composite
def conv_cases(draw):
    """(x, dout, params) for B 1-5, C_in and C_out 1-5, K 1-5, stride 1-3."""
    b, c_in, c_out, k = draw(sizes), draw(sizes), draw(sizes), draw(sizes)
    stride = draw(st.integers(1, 3))
    t_out = draw(st.integers(1, 6))
    t = (t_out - 1) * stride + k + draw(st.integers(0, stride - 1))
    rng = np.random.default_rng(draw(seeds))
    p = L.ConvParams(kernel=rng.normal(size=(k, c_in, c_out)),
                     bias=rng.normal(size=c_out), stride=stride)
    return rng.normal(size=(b, t, c_in)), rng.normal(size=(b, t_out, c_out)), p


# (B, T, C_in, C_out, K, stride): the default arch's four training shapes,
# then small cases on each side of the one-GEMM rule 3 T' > 2 T
CONV_SHAPES = {
    "conv1": (32, 16, 428, 64, 3, 1),
    "conv2": (32, 14, 64, 64, 3, 1),
    "conv3": (32, 6, 64, 128, 3, 1),
    "conv4": (32, 4, 128, 128, 3, 1),
    "one-gemm T'=5 of 7": (2, 7, 3, 4, 3, 1),
    "one-gemm K=1": (2, 5, 3, 4, 1, 1),
    "per-tap T'=4 of 6": (2, 6, 3, 4, 3, 1),
    "per-tap stride 2": (2, 9, 3, 4, 3, 2),
    "per-tap T'=1": (3, 4, 2, 5, 4, 1),
}


def conv_case(b, t, c_in, c_out, k, stride, seed=0):
    rng = np.random.default_rng(seed)
    p = L.ConvParams(kernel=rng.normal(size=(k, c_in, c_out)),
                     bias=rng.normal(size=c_out), stride=stride)
    t_out = (t - k) // stride + 1
    return rng.normal(size=(b, t, c_in)), rng.normal(size=(b, t_out, c_out)), p


class TestConvBackward:
    def check_against_einsum(self, x, dout, p):
        dx, dkernel, dbias = L.conv1d_backward_batch(dout, x, p)
        ref_dx, ref_dkernel, ref_dbias = oracle.conv1d_backward_batch(dout, x, p)
        np.testing.assert_array_equal(dx, ref_dx)
        np.testing.assert_array_equal(dbias, ref_dbias)
        scale = oracle.conv1d_backward_batch(np.abs(dout), np.abs(x), p)[1]
        assert np.all(np.abs(dkernel - ref_dkernel) <= DKERNEL_RTOL * scale)

    @settings(max_examples=200, deadline=None)
    @given(conv_cases())
    def test_matches_einsum_reference(self, case):
        self.check_against_einsum(*case)

    @pytest.mark.parametrize("name", CONV_SHAPES)
    def test_both_forms_match_einsum_reference(self, name):
        self.check_against_einsum(*conv_case(*CONV_SHAPES[name]))

    @pytest.mark.parametrize("name", ("conv1", "conv2", "conv3", "conv4"))
    def test_default_arch_kernel_gradients_equal_one_gemm_bitwise(self, name):
        # conv1 and conv2 take the one GEMM; on conv3 and conv4 the per-tap
        # products sum in its order. conv2's per-tap products would not:
        # they differ from it by up to about 1e-13
        x, dout, p = conv_case(*CONV_SHAPES[name])
        with one_blas_thread():
            dkernel = L.conv1d_backward_batch(dout, x, p, need_dx=False)[1]
            assert_bits_equal(dkernel, oracle.conv1d_dkernel_one_gemm(dout, x, p))

    @settings(max_examples=50, deadline=None)
    @given(conv_cases())
    def test_skipping_dx_keeps_parameter_gradients(self, case):
        x, dout, p = case
        _, dkernel, dbias = L.conv1d_backward_batch(dout, x, p)
        dx, dkernel_skip, dbias_skip = L.conv1d_backward_batch(dout, x, p, need_dx=False)
        assert dx is None
        np.testing.assert_array_equal(dkernel_skip, dkernel)
        np.testing.assert_array_equal(dbias_skip, dbias)


def assert_bits_equal(got, ref):
    """Equal as IEEE bit patterns, so -0.0 differs from 0.0."""
    assert got.dtype == ref.dtype == np.float64 and got.shape == ref.shape
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


TINY = np.finfo(np.float64).smallest_subnormal
SIGMOID_EDGES = np.array([0.0, -0.0, TINY, -TINY, 2.2e-308, -2.2e-308, 1e-300, 709.0,
                          -709.0, 709.8, -709.8, 745.0, -745.0, 746.0, -746.0, 1e308,
                          -1e308, np.inf, -np.inf])


class TestSigmoidAgainstMaskedReference:
    def test_edges_bitwise(self):
        assert_bits_equal(L._sigmoid(SIGMOID_EDGES), oracle.sigmoid(SIGMOID_EDGES))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6),
                      elements=st.floats(allow_nan=False, allow_subnormal=True)))
    def test_arrays_bitwise(self, z):
        assert_bits_equal(L._sigmoid(z), oracle.sigmoid(z))

    def test_nan_stays_nan(self):
        z = np.concatenate([SIGMOID_EDGES, [np.nan, -np.nan]])
        got, ref = L._sigmoid(z), oracle.sigmoid(z)
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.isnan(got[-2:]).all()


class TestLstmAgainstZeroStateReference:
    @settings(max_examples=150, deadline=None)
    @given(b=sizes, t=sizes, c_in=sizes, h=sizes, seed=seeds)
    def test_outputs_and_gradients_bitwise(self, b, t, c_in, h, seed):
        rng = np.random.default_rng(seed)
        p = oracle.random_lstm_params(rng, c_in, h)
        x = rng.normal(size=(b, t, c_in))
        out, steps = L.lstm_forward_batch(x, p)
        ref_out, ref_steps = oracle.lstm_forward_batch(x, p)
        np.testing.assert_array_equal(out, ref_out)
        dout = rng.normal(size=out.shape)
        dx, grads = L.lstm_backward_batch(dout, steps, p)
        ref_dx, ref_grads = oracle.lstm_backward_batch(dout, ref_steps, p)
        np.testing.assert_array_equal(dx, ref_dx)
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, ref_grads[name], err_msg=name)
        no_dx, skip_grads = L.lstm_backward_batch(dout, steps, p, need_dx=False)
        assert no_dx is None
        for name, g in skip_grads.items():
            np.testing.assert_array_equal(g, grads[name], err_msg=name)

    @settings(max_examples=20, deadline=None)
    @given(t=sizes, seed=seeds)
    def test_gradients_keep_the_sign_of_zero(self, t, seed):
        # g = tanh(0) = 0 and a negative dout make each dz_i a -0.0; the
        # reference sums into zeros, so its input-gate gradients are +0.0
        rng = np.random.default_rng(seed)
        p = oracle.random_lstm_params(rng, 2, 3)
        p.w[:, 9:] = 0.0  # the candidate gate's block
        p.b[9:] = 0.0
        x = rng.normal(size=(1, t, 2))
        dout = -np.ones((1, 3))
        _, grads = L.lstm_backward_batch(dout, L.lstm_forward_batch(x, p)[1], p)
        _, ref_grads = oracle.lstm_backward_batch(dout, oracle.lstm_forward_batch(x, p)[1], p)
        assert not np.signbit(grads["b"][:3]).any()
        for name, g in grads.items():
            assert_bits_equal(g, ref_grads[name])


# few values, so most blocks hold a tie for the maximum, signed zeros and
# infinities included, and many hold a NaN, some more than one
SPECIAL_VALUES = np.array([np.nan, np.inf, -np.inf, 1.0, -1.0, 0.0, -0.0])


class TestValuesOnlyPool:
    @settings(max_examples=300, deadline=None)
    @given(b=sizes, blocks=sizes, pool=st.integers(1, 4), c=sizes, seed=seeds,
           values=st.sampled_from(("normal", "ties", "special")))
    def test_values_and_gradients_bitwise(self, b, blocks, pool, c, seed, values):
        rng = np.random.default_rng(seed)
        shape = (b, blocks * pool, c)
        if values == "normal":
            x = rng.normal(size=shape)
        elif values == "ties":
            x = rng.integers(-1, 2, size=shape).astype(np.float64)
        else:
            x = rng.choice(SPECIAL_VALUES, size=shape)
        layer, ref = MaxPool1dLayer(pool), oracle.IndexMaxPool1dLayer(pool)
        out, cache = layer.forward(x)
        ref_out, ref_cache = ref.forward(x)
        np.testing.assert_array_equal(out, ref_out)
        dout = rng.normal(size=out.shape)
        dx, grads = layer.backward(dout, cache)
        assert_bits_equal(dx, ref.backward(dout, ref_cache)[0])
        assert grads == {}
        assert layer.backward(dout, cache, need_dx=False) == (None, {})

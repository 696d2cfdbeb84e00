"""Optimizer update rules checked against hand-computed steps and the
reference Adam."""

import numpy as np
import pytest

from cloudguard.detector import ArchConfig, build_model
from cloudguard.errors import TrainingDivergedError
from cloudguard.nn import Adam, Sgd
from cloudguard.nn.optim import BLOCK

from .memory import traced_peak
from .nn_oracle import ReferenceAdam


class TestSgd:
    def test_single_step_by_hand(self):
        p = {"w": np.array([1.0, 2.0])}
        g = {"w": np.array([0.5, -1.0])}
        Sgd(lr=0.1).step(p, g)
        np.testing.assert_allclose(p["w"], [0.95, 2.1])

    def test_updates_in_place(self):
        arr = np.array([3.0])
        p = {"w": arr}
        Sgd(lr=1.0).step(p, {"w": np.array([1.0])})
        assert arr[0] == 2.0  # same buffer mutated

    def test_rejects_negative_lr(self):
        with pytest.raises(ValueError):
            Sgd(lr=-0.1)

    def test_raises_on_nan_gradient(self):
        p = {"w": np.array([1.0])}
        with pytest.raises(TrainingDivergedError, match="w"):
            Sgd(lr=0.1).step(p, {"w": np.array([np.nan])})

    def test_raises_on_inf_gradient(self):
        p = {"w": np.array([1.0])}
        with pytest.raises(TrainingDivergedError):
            Sgd(lr=0.1).step(p, {"w": np.array([np.inf])})


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        """With bias correction, step 1 moves each weight by ~lr regardless of
        gradient scale (for eps much smaller than |g|)."""
        for scale in (1e-3, 1.0, 1e3):
            p = {"w": np.array([0.0])}
            Adam(lr=0.01).step(p, {"w": np.array([scale])})
            np.testing.assert_allclose(p["w"], [-0.01], rtol=1e-5)

    def test_two_steps_by_hand(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w = 1.0
        m = v = 0.0
        grads = [0.4, -0.2]
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            w -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p = {"w": np.array([1.0])}
        opt = Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        for g in grads:
            opt.step(p, {"w": np.array([g])})
        np.testing.assert_allclose(p["w"], [w], rtol=1e-12)

    def test_state_is_per_parameter(self):
        opt = Adam(lr=0.1)
        p = {"a": np.array([0.0]), "b": np.array([0.0])}
        opt.step(p, {"a": np.array([1.0]), "b": np.array([-1.0])})
        assert p["a"][0] < 0 < p["b"][0]

    def test_defaults(self):
        opt = Adam()
        assert opt.lr == 1e-3
        assert opt.beta1 == 0.9
        assert opt.beta2 == 0.999
        assert opt.eps == 1e-8

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)

    def test_raises_on_nan_gradient_naming_parameter(self):
        p = {"layer.bias": np.array([1.0])}
        with pytest.raises(TrainingDivergedError, match="layer.bias"):
            Adam().step(p, {"layer.bias": np.array([np.nan])})


# the default arch's LSTM sees one step: its recurrent weights meet h_0 = 0,
# so their gradient is always exactly zero, and so is its forget gate's
# (it meets c_0 = 0), which leaves that gate's columns of w and b unchanged
ALWAYS_ZERO = {"6.u"}


class TestAdamAgainstReference:
    def test_default_arch_stays_bit_equal_over_six_steps(self):
        arch = ArchConfig()
        models = [build_model(arch, seed=0), build_model(arch, seed=0)]
        optimizers = [Adam(lr=1e-3), ReferenceAdam(lr=1e-3)]
        rng = np.random.default_rng(0)
        for _ in range(6):
            x = rng.standard_normal((8, arch.seq_len, arch.feature_dim))
            y = rng.integers(arch.num_classes, size=8)
            for model, opt in zip(models, optimizers):
                _, grads = model.loss_and_gradients(x, y)
                opt.step(model.parameters(), grads)
            got, want = (m.parameters() for m in models)
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name
        assert set(want) - set(optimizers[0]._m) == ALWAYS_ZERO
        start = build_model(arch, seed=0).parameters()
        forget = slice(arch.lstm_hidden, 2 * arch.lstm_hidden)
        assert got["6.w"][:, forget].tobytes() == start["6.w"][:, forget].tobytes()
        assert got["6.b"][forget].tobytes() == start["6.b"][forget].tobytes()
        assert got["6.u"].tobytes() == start["6.u"].tobytes()

    @pytest.mark.parametrize("quiet_steps", (1, 3))
    def test_a_tensor_that_wakes_up_matches_the_reference(self, quiet_steps):
        rng = np.random.default_rng(quiet_steps)
        start = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(2)}
        params = [{k: v.copy() for k, v in start.items()} for _ in range(2)]
        optimizers = [Adam(lr=0.05), ReferenceAdam(lr=0.05)]
        for step in range(quiet_steps + 4):
            # quiet at first, then once more after it woke: the moments
            # must still decay on that step
            quiet = step < quiet_steps or step == quiet_steps + 2
            g_w = np.zeros((3, 4)) if quiet else rng.standard_normal((3, 4))
            grads = {"w": g_w, "b": rng.standard_normal(2)}
            for p, opt in zip(params, optimizers):
                opt.step(p, grads)
            for name in start:
                assert params[0][name].tobytes() == params[1][name].tobytes()
        assert not np.array_equal(params[0]["w"], start["w"])

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_gradient_on_a_never_updated_tensor_raises(self, bad):
        opt = Adam(lr=0.1)
        params = {"quiet": np.ones(3), "busy": np.ones(2)}
        opt.step(params, {"quiet": np.zeros(3), "busy": np.ones(2)})
        with pytest.raises(TrainingDivergedError, match="quiet"):
            opt.step(params, {"quiet": np.array([0.0, bad, 0.0]), "busy": np.ones(2)})

    @pytest.mark.parametrize("shape", ((4 * BLOCK + 5,), (3, BLOCK + 7), (BLOCK // 2 + 1, 3)))
    def test_a_tensor_larger_than_a_block_takes_one_block_of_scratch(self, shape):
        # a transposed gradient, as the one-GEMM conv kernel gradient is
        rng = np.random.default_rng(len(shape))
        start = rng.standard_normal(shape)
        params = [{"w": start.copy()} for _ in range(2)]
        optimizers = [Adam(lr=0.01), ReferenceAdam(lr=0.01)]
        peaks = []
        for _ in range(3):
            grads = {"w": rng.standard_normal(shape[::-1]).T}
            peaks.append(traced_peak(lambda: optimizers[0].step(params[0], grads)))
            optimizers[1].step(params[1], grads)
            assert params[0]["w"].tobytes() == params[1]["w"].tobytes()
        # the first step makes the moments, one block of scratch and, one at
        # a time, the finiteness masks; later steps only the masks. numpy
        # may buffer a strided operand, up to getbufsize() elements
        slack = start.size + np.getbufsize() * start.itemsize
        assert peaks[0] <= 2 * start.nbytes + 2 * BLOCK * start.itemsize + slack
        assert max(peaks[1:]) <= slack

    def test_a_step_after_the_first_allocates_no_moments(self):
        params = {"w": np.ones(100_000)}
        grads = {"w": np.full(100_000, 0.5)}
        opt = Adam(lr=0.1)
        opt.step(params, grads)  # makes the moments and the scratch buffers
        assert traced_peak(lambda: opt.step(params, grads)) < params["w"].nbytes

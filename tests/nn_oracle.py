"""Reference training kernels: the forms the network layers replaced.

``cloudguard.nn`` takes each tap's filter gradient as one matrix product,
or on short layers one product per tap, takes the sigmoid from one
``exp(-|z|)`` and a ``where``, skips the LSTM's recurrent products on the
first step (where h_0 = 0), starts each LSTM gradient from its last step's
product, and pools values only, routing each gradient in backward to the
first entry equal to its block's maximum; its Adam skips tensors whose
gradient has been zero since the start and updates the rest in place, in
blocks. This module keeps what they replaced: the ``einsum`` filter
gradient, the one filter-gradient product the short layers gave up, the
sigmoid that exponentiates each sign's elements under a boolean mask, the
LSTM that multiplies its zero initial state and sums every gradient into
zeros (through that sigmoid, so it never checks the new one against
itself), a max-pool layer that builds absolute argmax indices in forward
and puts gradients back along them into zeros, and Adam over every tensor
through temporaries. Tests require the filter gradient to match within a
relative tolerance, since its sum runs in another order, and everything
else bit for bit.
"""

import numpy as np

from cloudguard.errors import TrainingDivergedError
from cloudguard.nn.layers import LstmParams


def random_lstm_params(rng, c_in, h):
    """Standard-normal LSTM weights for ``c_in`` inputs and ``h`` units."""
    return LstmParams(w=rng.normal(size=(c_in, 4 * h)), u=rng.normal(size=(h, 4 * h)),
                      b=rng.normal(size=4 * h))


def conv1d_backward_batch(dout, x, p):
    """``(dx, dkernel, dbias)`` with the filter gradient as an ``einsum``."""
    k, _, _ = p.kernel.shape
    t_out = dout.shape[1]
    dx = np.zeros_like(x)
    dkernel = np.zeros_like(p.kernel)
    dbias = dout.sum(axis=(0, 1))
    for kk in range(k):
        sl = slice(kk, kk + (t_out - 1) * p.stride + 1, p.stride)
        dkernel[kk] = np.einsum("bti,bto->io", x[:, sl, :], dout)
        dx[:, sl, :] += dout @ p.kernel[kk].T
    return dx, dkernel, dbias


def conv1d_dkernel_one_gemm(dout, x, p):
    """The filter gradient as one matrix product over every (sequence,
    input position) row, where tap kk's columns hold ``dout`` on the rows
    that tap read and zeros elsewhere: the form every layer took before the
    per-tap products replaced it on short layers."""
    k, c_in, c_out = p.kernel.shape
    b, t, _ = x.shape
    t_out = dout.shape[1]
    shifted = np.zeros((b, t, k, c_out))
    for kk in range(k):
        shifted[:, kk:kk + (t_out - 1) * p.stride + 1:p.stride, kk] = dout
    dkernel = x.reshape(-1, c_in).T @ shifted.reshape(-1, k * c_out)
    return dkernel.reshape(c_in, k, c_out).transpose(1, 0, 2)


def sigmoid(z):
    """Logistic function, each sign's elements exponentiated under a mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_forward_batch(x, p):
    """LSTM forward whose first step multiplies h_0 = 0 by ``u``, with each
    gate read from its block of the stacked pre-activations; returns the
    last state."""
    b, t, _ = x.shape
    h_dim = p.hidden_size
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    hs = np.empty((b, t, h_dim))
    steps = []
    for tt in range(t):
        xt = x[:, tt, :]
        z = xt @ p.w + h @ p.u + p.b
        i = sigmoid(z[:, :h_dim])
        f = sigmoid(z[:, h_dim:2 * h_dim])
        o = sigmoid(z[:, 2 * h_dim:3 * h_dim])
        g = np.tanh(z[:, 3 * h_dim:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        steps.append((xt, h, c, i, f, o, g, tanh_c))
        h, c = h_new, c_new
        hs[:, tt, :] = h
    return hs[:, -1, :], steps


def lstm_backward_batch(dout, steps, p):
    """Backpropagation through time from the last state's gradient, over
    every step, the first included."""
    t = len(steps)
    b = steps[0][0].shape[0]
    h_dim = p.hidden_size
    dhs = np.zeros((b, t, h_dim))
    dhs[:, -1, :] = dout
    grads = {name: np.zeros_like(getattr(p, name)) for name in ("w", "u", "b")}
    dx = np.empty((b, t, p.input_size))
    dh_next = np.zeros((b, h_dim))
    dc_next = np.zeros((b, h_dim))
    for tt in range(t - 1, -1, -1):
        xt, h_prev, c_prev, i, f, o, g, tanh_c = steps[tt]
        dh = dhs[:, tt, :] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dzo = dh * tanh_c * o * (1.0 - o)
        dzi = dc * g * i * (1.0 - i)
        dzg = dc * i * (1.0 - g**2)
        dzf = dc * c_prev * f * (1.0 - f)
        dc_next = dc * f
        dz = np.concatenate([dzi, dzf, dzo, dzg], axis=1)
        grads["w"] += xt.T @ dz
        grads["u"] += h_prev.T @ dz
        grads["b"] += dz.sum(axis=0)
        dx[:, tt, :] = dz @ p.w.T
        dh_next = dz @ p.u.T
    return dx, grads


class IndexMaxPool1dLayer:
    """Max pooling that records absolute argmax indices in forward and routes
    gradients back to them."""

    def __init__(self, pool_size: int):
        self.pool_size = pool_size

    def forward(self, x):
        b, t, c = x.shape
        xr = x.reshape(b, t // self.pool_size, self.pool_size, c)
        within = xr.argmax(axis=2)  # first index wins ties
        out = np.take_along_axis(xr, within[:, :, None, :], axis=2)[:, :, 0, :]
        idx = within + (np.arange(t // self.pool_size) * self.pool_size)[None, :, None]
        return out, (idx, t)

    def backward(self, dout, cache):
        idx, t = cache
        b, t_out, c = dout.shape
        dxr = np.zeros((b, t_out, self.pool_size, c))
        within = idx - (np.arange(t_out) * self.pool_size)[None, :, None]
        np.put_along_axis(dxr, within[:, :, None, :], dout[:, :, None, :], axis=2)
        return dxr.reshape(b, t, c), {}


class ReferenceAdam:
    """Adam as the textbook expressions: every tensor's moments and values
    updated on every step through temporaries, zero gradients included."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._m, self._v = {}, {}

    def step(self, params, grads):
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError(f"non-finite gradient in parameter {name!r}")
            m = self._m.setdefault(name, np.zeros_like(p))
            v = self._v.setdefault(name, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if not np.all(np.isfinite(p)):
                raise TrainingDivergedError(f"non-finite parameter in parameter {name!r}")

"""Primitive 1-D network layers with explicit forward and backward passes.

Every function works on float64 arrays. Single-sample signatures take
``[T, C]`` inputs; the ``*_batch`` variants used by training take
``[B, T, C]`` and are what the backward passes pair with. The LSTM returns
only its last hidden state, the one thing the dense head reads.

The parameter dataclasses copy each array they are given once, through
``aligned_copy``, so each layer owns writable, C-contiguous arrays of its
own that start on an ``ALIGNMENT``-byte boundary, whether the arrays were
drawn or read from a checkpoint. Nothing else allocates a parameter.

The backward passes return gradients for reading only: one can be a
read-only view (the LSTM's always-zero ``u`` gradient at one step), so
callers must not write into them.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError

PROB_FLOOR = 1e-12  # loss clamp; keeps confident-wrong predictions finite
ALIGNMENT = 64  # bytes: a cache line, and the widest vector register


def aligned_copy(arr) -> np.ndarray:
    """A float64, C-contiguous, writable copy of ``arr`` in memory of its
    own that starts on an ALIGNMENT-byte boundary. numpy's allocator only
    promises 16 bytes, and a forward pass over weights aligned to 64 ran
    faster, bit for bit the same."""
    src = np.asarray(arr, dtype=np.float64)
    buf = np.empty(src.nbytes + ALIGNMENT, dtype=np.uint8)
    lo = -buf.ctypes.data % ALIGNMENT
    out = buf[lo:lo + src.nbytes].view(np.float64).reshape(src.shape)
    out[...] = src
    return out


@dataclass
class ConvParams:
    """1-D convolution parameters: kernel ``[K, C_in, C_out]``, bias ``[C_out]``."""

    kernel: np.ndarray
    bias: np.ndarray
    stride: int = 1

    def __post_init__(self):
        self.kernel = aligned_copy(self.kernel)
        self.bias = aligned_copy(self.bias)
        if self.kernel.ndim != 3:
            raise DimensionError(f"kernel must be [K, C_in, C_out], got shape {self.kernel.shape}")
        if self.bias.shape != (self.kernel.shape[2],):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match C_out={self.kernel.shape[2]}"
            )
        if self.kernel.shape[0] < 1 or self.stride < 1:
            raise DimensionError("kernel size and stride must be >= 1")


LSTM_PARAM_NAMES = ("w", "u", "b")


@dataclass
class LstmParams:
    """LSTM weights with the four gates stacked along the last axis, in the
    order input, forget, output, candidate: input weights ``w`` ``[C_in, 4H]``,
    recurrent weights ``u`` ``[H, 4H]`` and bias ``b`` ``[4H]``. Gate k owns
    columns ``[k H, (k + 1) H)``, so one product serves all four gates."""

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in LSTM_PARAM_NAMES:
            setattr(self, name, aligned_copy(getattr(self, name)))
        h = self.w.shape[1] // 4 if self.w.ndim == 2 else 0
        if (h < 1 or self.w.shape[1] != 4 * h
                or self.u.shape != (h, 4 * h) or self.b.shape != (4 * h,)):
            raise DimensionError(f"lstm weights must be w [C_in, 4H], u [H, 4H] and b [4H] "
                                 f"with H >= 1, got {self.w.shape}, {self.u.shape}, "
                                 f"{self.b.shape}")

    @property
    def hidden_size(self) -> int:
        return self.w.shape[1] // 4

    @property
    def input_size(self) -> int:
        return self.w.shape[0]


@dataclass
class DenseParams:
    """Affine layer ``out = activation(x @ weights + bias)``."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "none"  # one of: relu, softmax, none

    def __post_init__(self):
        self.weights = aligned_copy(self.weights)
        self.bias = aligned_copy(self.bias)
        if self.weights.ndim != 2:
            raise DimensionError(f"weights must be [In, Out], got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[1],):
            raise DimensionError("bias length does not match Out")
        if self.activation not in ("relu", "softmax", "none"):
            raise DimensionError(f"unknown activation {self.activation!r}")


def conv1d_forward(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Valid (no padding) 1-D convolution of a single ``[T, C_in]`` sequence."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"input must be [T, C_in], got shape {x.shape}")
    return conv1d_forward_batch(x[None], p)[0]


def conv1d_forward_batch(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Batched valid convolution: ``[B, T, C_in] -> [B, T', C_out]``."""
    x = np.asarray(x, dtype=np.float64)
    k, c_in, c_out = p.kernel.shape
    b, t, c = x.shape
    if c != c_in:
        raise DimensionError(f"input has {c} channels, kernel expects {c_in}")
    if t < k:
        raise DimensionError(f"input too short: T={t} < kernel size {k}")
    t_out = (t - k) // p.stride + 1
    out = np.broadcast_to(p.bias, (b, t_out, c_out)).copy()
    for kk in range(k):
        # window position t reads x[t*stride + kk]
        out += x[:, kk : kk + (t_out - 1) * p.stride + 1 : p.stride, :] @ p.kernel[kk]
    return out


def conv1d_backward_batch(dout: np.ndarray, x: np.ndarray, p: ConvParams,
                          need_dx: bool = True):
    """Gradients of the batched convolution. Returns ``(dx, dkernel, dbias)``.

    The filter gradient takes one of two forms, chosen from the lengths:

    - one matrix product over every (sequence, input position) row gives all
      taps' filter gradients, the backward-filter GEMM of cuDNN (Chetlur et
      al. 2014): ``[B*T, C_in]^T @ [B*T, K*C_out]``, where tap kk's columns
      hold ``dout`` on the input rows that tap read and zeros elsewhere;
    - one product per tap, ``[B*T', C_in]^T @ [B*T', C_out]``, over the rows
      that tap read.

    Each tap reads T' of the T rows, so the one product multiplies zeros on
    a ``1 - T'/T`` share of its rows. It is used only where that share is
    under a third (``3 T' > 2 T``); on shorter layers, where a third to a
    half of its rows are zeros, the per-tap products win. The two forms sum
    in different orders, so switching a layer's form can move its last bits.
    With ``need_dx=False`` the input gradient is not computed and ``dx`` is
    None; a graph's first layer has no use for it.
    """
    k, c_in, c_out = p.kernel.shape
    b, t, _ = x.shape
    t_out = dout.shape[1]
    dx = np.zeros_like(x) if need_dx else None
    dbias = dout.sum(axis=(0, 1))
    one_gemm = 3 * t_out > 2 * t
    if one_gemm:
        shifted = np.zeros((b, t, k, c_out))
    else:
        dflat = dout.reshape(-1, c_out)
        dkernel = np.empty_like(p.kernel)
    for kk in range(k):
        sl = slice(kk, kk + (t_out - 1) * p.stride + 1, p.stride)
        if one_gemm:
            shifted[:, sl, kk] = dout
        else:
            dkernel[kk] = x[:, sl, :].reshape(-1, c_in).T @ dflat
        if need_dx:
            dx[:, sl, :] += dout @ p.kernel[kk].T
    if one_gemm:
        dkernel = x.reshape(-1, c_in).T @ shifted.reshape(-1, k * c_out)
        dkernel = dkernel.reshape(c_in, k, c_out).transpose(1, 0, 2)
    return dx, dkernel, dbias


def maxpool1d_forward(x: np.ndarray, pool_size: int):
    """Non-overlapping max pooling of ``[T, C]``. Returns values and argmax time indices."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"input must be [T, C], got shape {x.shape}")
    out, idx = maxpool1d_forward_batch(x[None], pool_size)
    return out[0], idx[0]


def maxpool1d_blocks(x: np.ndarray, pool_size: int) -> np.ndarray:
    """``[B, T, C]`` reshaped to ``[B, T/P, P, C]``, one pooling block per row."""
    b, t, c = x.shape
    if pool_size < 1 or t % pool_size != 0:
        raise DimensionError(f"pool_size {pool_size} does not divide T={t}")
    return x.reshape(b, t // pool_size, pool_size, c)


def maxpool1d_forward_batch(x: np.ndarray, pool_size: int):
    """Batched max pooling ``[B, T, C] -> [B, T/P, C]`` plus absolute argmax indices."""
    xr = maxpool1d_blocks(np.asarray(x, dtype=np.float64), pool_size)
    within = xr.argmax(axis=2)  # first index wins ties
    out = np.take_along_axis(xr, within[:, :, None, :], axis=2)[:, :, 0, :]
    idx = within + (np.arange(xr.shape[1]) * pool_size)[None, :, None]
    return out, idx


def maxpool1d_backward_batch(dout: np.ndarray, x: np.ndarray, pool_size: int) -> np.ndarray:
    """Route each block's gradient to the first index of its maximum in ``x``;
    every other position gets zero.

    The maximum is the first entry equal to the block's ``max``, found one
    position at a time, so no ``[B, T/P, P, C]`` index or mask is built. A
    block holding a NaN has a NaN maximum that equals no entry; those blocks
    route along ``argmax``, which picks their first NaN.
    """
    xr = maxpool1d_blocks(x, pool_size)
    peak = xr.max(axis=2)
    if np.isnan(peak).any():
        first = xr.argmax(axis=2)[:, :, None, :] == np.arange(pool_size)[:, None]
        return np.where(first, dout[:, :, None, :], 0.0).reshape(x.shape)
    dx = np.zeros_like(xr)
    routed = xr[:, :, 0, :] == peak
    np.copyto(dx[:, :, 0, :], dout, where=routed)
    for j in range(1, pool_size):
        # every block's maximum is at some position, so the last one takes
        # whatever the earlier positions did not
        hit = ~routed
        if j < pool_size - 1:
            hit &= xr[:, :, j, :] == peak
            routed |= hit
        np.copyto(dx[:, :, j, :], dout, where=hit)
    return dx.reshape(x.shape)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-z) for z >= 0 and
    e^z/(1+e^z) below, both from one ``exp(-|z|)``. Bit-equal to taking
    each branch on its own elements; a NaN input stays NaN. The branches
    share one division: their numerators are picked first."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0, e) / d


def lstm_forward_batch(x: np.ndarray, p: LstmParams):
    """Batched LSTM. Returns the last state ``h_T`` ``[B, H]`` and the
    per-step cache needed by backward.

    Recurrence: i, f, o are sigmoid gates, g = tanh candidate,
    c_t = f * c_{t-1} + i * g, h_t = o * tanh(c_t), h_0 = c_0 = 0.
    Each step's four pre-activations come from one ``x_t @ w`` plus, after
    the first step, one ``h @ u``: because h_0 = 0, leaving the first
    recurrent product out is exact.
    """
    x = np.asarray(x, dtype=np.float64)
    b, t, c_in = x.shape
    if c_in != p.input_size:
        raise DimensionError(f"input has {c_in} channels, lstm expects {p.input_size}")
    h_dim = p.hidden_size
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    steps = []
    for tt in range(t):
        xt = x[:, tt, :]
        z = xt @ p.w
        if tt:  # h_0 = 0: no recurrent term on the first step
            z += h @ p.u
        z += p.b
        # activations per [B, H] gate block: one sigmoid over [B, 3H] made
        # temporaries 3x larger and the step up to 1.4x slower at B = 32
        zi, zf, zo, zg = (z[:, k * h_dim:(k + 1) * h_dim] for k in range(4))
        i, f, o, g = _sigmoid(zi), _sigmoid(zf), _sigmoid(zo), np.tanh(zg)
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        steps.append((xt, h, c, i, f, o, g, tanh_c))
        h, c = h_new, c_new
    return h, steps


def lstm_backward_batch(dout: np.ndarray, steps: list, p: LstmParams, need_dx: bool = True):
    """Backpropagation through time from ``dout``, the gradient of ``h_T``.
    Returns ``(dx, grads dict)``.

    Each step's four gate gradients are stacked into one ``[B, 4H]`` ``dz``, so
    the ``w``, ``u``, input and state gradients are one product each. The
    first step adds nothing to the ``u`` gradient and passes nothing back
    to h_0, since h_0 = 0 is no parameter; both are skipped, so with one
    step the ``u`` gradient is zero. It is then a read-only, zero-stride
    view of one 0.0, not a fresh ``[H, 4H]`` array: callers read gradients
    and must not write into them. Each gradient starts from the last step's
    product plus 0.0, which gives a zero the sign a sum started from zeros
    gives it, and adds the earlier steps' products in place. With
    ``need_dx=False`` the input gradient is not computed and ``dx`` is None.
    """
    t = len(steps)
    b = steps[0][0].shape[0]
    grads = {}

    def add(name, value):
        if name in grads:
            grads[name] += value
        else:
            value += 0.0  # 0.0 + (-0.0) is 0.0
            grads[name] = value

    dx = np.empty((b, t, p.input_size)) if need_dx else None
    dh = dout
    dc_next = np.zeros((b, p.hidden_size))
    for tt in range(t - 1, -1, -1):
        xt, h_prev, c_prev, i, f, o, g, tanh_c = steps[tt]
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dzo = dh * tanh_c * o * (1.0 - o)
        dzi = dc * g * i * (1.0 - i)
        dzg = dc * i * (1.0 - g**2)
        dzf = dc * c_prev * f * (1.0 - f)
        dc_next = dc * f
        dz = np.concatenate((dzi, dzf, dzo, dzg), axis=1)
        add("w", xt.T @ dz)
        if tt:
            add("u", h_prev.T @ dz)
        add("b", dz.sum(axis=0))
        if need_dx:
            dx[:, tt, :] = dz @ p.w.T
        if tt:
            dh = dz @ p.u.T
    if "u" not in grads:
        grads["u"] = np.broadcast_to(0.0, p.u.shape)
    return dx, {name: grads[name] for name in LSTM_PARAM_NAMES}


def dense_forward(x: np.ndarray, p: DenseParams) -> np.ndarray:
    """Affine map of a single ``[In]`` vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"input must be a vector, got shape {x.shape}")
    return dense_forward_batch(x[None], p)[0]


def dense_forward_batch(x: np.ndarray, p: DenseParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != p.weights.shape[0]:
        raise DimensionError(
            f"input width {x.shape[-1]} does not match weights In={p.weights.shape[0]}"
        )
    z = x @ p.weights + p.bias
    if p.activation == "relu":
        return np.maximum(z, 0.0)
    if p.activation == "softmax":
        return softmax(z)
    return z


def dense_backward_batch(dout: np.ndarray, x: np.ndarray, z_or_out: np.ndarray, p: DenseParams,
                         need_dx: bool = True):
    """Gradients for a dense layer. Returns ``(dx, dw, db)``.

    For relu, ``z_or_out`` is the post-activation output (its positive mask equals
    the pre-activation mask). For softmax the caller must supply the gradient
    with respect to the logits already (the fused cross-entropy path). With
    ``need_dx=False`` the input gradient is not computed and ``dx`` is None.
    """
    if p.activation == "relu":
        dout = dout * (z_or_out > 0.0)
    dw = x.T @ dout
    db = dout.sum(axis=0)
    dx = dout @ p.weights.T if need_dx else None
    return dx, dw, db


def softmax(logits: np.ndarray) -> np.ndarray:
    """Shift-stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise DimensionError("softmax of empty vector")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def cross_entropy_batch(probs: np.ndarray, labels: np.ndarray,
                        sample_weights: np.ndarray | None = None) -> float:
    """Weighted mean cross-entropy over a batch."""
    if probs.ndim != 2:
        raise DimensionError("probs must be [B, C]")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise IndexError("label out of range")
    picked = np.clip(probs[np.arange(len(labels)), labels], PROB_FLOOR, None)
    losses = -np.log(picked)
    if sample_weights is None:
        return float(losses.mean())
    return float((losses * sample_weights).sum() / sample_weights.sum())


def softmax_xent_grad(probs: np.ndarray, labels: np.ndarray,
                      sample_weights: np.ndarray | None = None) -> np.ndarray:
    """Gradient of mean cross-entropy w.r.t. the logits: ``probs - one_hot``."""
    b, c = probs.shape
    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    if sample_weights is None:
        return grad / b
    return grad * (sample_weights / sample_weights.sum())[:, None]

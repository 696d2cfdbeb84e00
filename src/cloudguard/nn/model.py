"""Layer objects and a sequential model graph with reverse-mode gradients.

The graph is a plain list of layers; ``loss_and_gradients`` runs one forward
pass, caches what each layer needs, and walks the list backwards. Parameters
are addressed by ``"<layer index>.<field>"`` so optimizers and checkpoints
can treat the whole model as a flat named dict.

Every pass runs with numpy's OpenBLAS on one thread (``one_blas_thread``):
a matrix product's last bits can depend on how many threads share it, and a
seeded run's bytes must not depend on ``OPENBLAS_NUM_THREADS``.
"""

import contextlib
import ctypes
import functools

import numpy as np
from numpy.linalg import _umath_linalg

from ..errors import CloudguardError, DimensionError
from . import layers as L


@functools.cache
def _openblas_threads():
    """The getter and setter of numpy's bundled OpenBLAS thread count,
    found through numpy's linear-algebra extension, which links the library.
    CloudguardError when they cannot be found: the network's bytes would
    then depend on the thread count."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError) as exc:
        raise CloudguardError(
            f"the network pins numpy's BLAS to one thread through "
            f"scipy_openblas_set_num_threads64_, which numpy 2 exports only "
            f"with its bundled OpenBLAS on Linux; this numpy does not: "
            f"{exc}") from exc
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    caller's thread count. CloudguardError if numpy's BLAS is not the
    bundled scipy-openblas."""
    get, set_ = _openblas_threads()
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class _Weighted:
    """A layer that computes from ``self.params``, an instance of its
    ``PARAMS`` dataclass; ``shapes(*sizes)`` gives the shape of each of its
    arrays, by field, for the sizes its constructor takes."""

    PARAMS: type

    @classmethod
    def around(cls, arrays: dict[str, np.ndarray], **options):
        """The layer over given arrays, one per field of ``shapes``, and
        ``options`` (an activation): its parameters copy each
        array once, and nothing is drawn."""
        layer = cls.__new__(cls)
        layer.params = cls.PARAMS(**arrays, **options)
        return layer


class Conv1dLayer(_Weighted):
    """Valid 1-D convolution, linear (no activation)."""

    PARAMS = L.ConvParams

    @staticmethod
    def shapes(in_channels: int, out_channels: int, kernel_size: int) -> dict[str, tuple]:
        return {"kernel": (kernel_size, in_channels, out_channels), "bias": (out_channels,)}

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        fan_in = kernel_size * in_channels
        fan_out = kernel_size * out_channels
        self.params = L.ConvParams(
            kernel=_glorot(rng, fan_in, fan_out, (kernel_size, in_channels, out_channels)),
            bias=np.zeros(out_channels),
        )

    def forward(self, x: np.ndarray):
        out = L.conv1d_forward_batch(x, self.params)
        return out, x

    def backward(self, dout: np.ndarray, cache, need_dx: bool = True):
        dx, dk, db = L.conv1d_backward_batch(dout, cache, self.params, need_dx)
        return dx, {"kernel": dk, "bias": db}

    def parameters(self) -> dict[str, np.ndarray]:
        return {"kernel": self.params.kernel, "bias": self.params.bias}


class MaxPool1dLayer:
    """Non-overlapping temporal max pooling.

    Forward computes the block maxima only and caches its input; backward
    recomputes the maxima from that input and routes each gradient to the
    first position holding its block's maximum. Inference, which never runs
    backward, builds no indices.
    """

    def __init__(self, pool_size: int):
        self.pool_size = pool_size

    def forward(self, x: np.ndarray):
        return L.maxpool1d_blocks(x, self.pool_size).max(axis=2), x

    def backward(self, dout: np.ndarray, cache, need_dx: bool = True):
        if not need_dx:
            return None, {}
        return L.maxpool1d_backward_batch(dout, cache, self.pool_size), {}

    def parameters(self) -> dict[str, np.ndarray]:
        return {}


class LstmLayer(_Weighted):
    """LSTM over ``[B, T, C]`` returning its last hidden state ``[B, H]``.
    Each gate's block of the stacked ``w`` and ``u`` starts as its own
    Glorot draw, in gate order, and the forget gate's bias at 1."""

    PARAMS = L.LstmParams

    @staticmethod
    def shapes(input_size: int, hidden_size: int) -> dict[str, tuple]:
        return {"w": (input_size, 4 * hidden_size), "u": (hidden_size, 4 * hidden_size),
                "b": (4 * hidden_size,)}

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)

        def stacked(fan_in):
            blocks = _glorot(rng, fan_in, hidden_size, (4, fan_in, hidden_size))
            return blocks.transpose(1, 0, 2).reshape(fan_in, 4 * hidden_size)

        b = np.zeros(4 * hidden_size)
        b[hidden_size:2 * hidden_size] = 1.0  # open forget gates at init
        # w's blocks are drawn before u's
        self.params = L.LstmParams(w=stacked(input_size), u=stacked(hidden_size), b=b)

    def forward(self, x: np.ndarray):
        return L.lstm_forward_batch(x, self.params)

    def backward(self, dout: np.ndarray, cache, need_dx: bool = True):
        return L.lstm_backward_batch(dout, cache, self.params, need_dx)

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self.params, name) for name in L.LSTM_PARAM_NAMES}


class DenseLayer(_Weighted):
    """Fully connected layer with optional relu or softmax activation."""

    PARAMS = L.DenseParams

    @staticmethod
    def shapes(in_features: int, out_features: int) -> dict[str, tuple]:
        return {"weights": (in_features, out_features), "bias": (out_features,)}

    def __init__(self, in_features: int, out_features: int, activation: str = "none",
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.params = L.DenseParams(
            weights=_glorot(rng, in_features, out_features, (in_features, out_features)),
            bias=np.zeros(out_features),
            activation=activation,
        )

    def forward(self, x: np.ndarray):
        out = L.dense_forward_batch(x, self.params)
        return out, (x, out)

    def backward(self, dout: np.ndarray, cache, need_dx: bool = True):
        x, out = cache
        # softmax layers receive d(logits) directly from the fused loss gradient
        dx, dw, db = L.dense_backward_batch(dout, x, out, self.params, need_dx)
        return dx, {"weights": dw, "bias": db}

    def parameters(self) -> dict[str, np.ndarray]:
        return {"weights": self.params.weights, "bias": self.params.bias}


class ModelGraph:
    """A fixed sequential stack of layers trained with cross-entropy."""

    def __init__(self, layer_list: list):
        if not layer_list:
            raise DimensionError("model needs at least one layer")
        self.layers = list(layer_list)

    def parameters(self) -> dict[str, np.ndarray]:
        """Flat view of every trainable array, keyed ``"<layer index>.<field>"``."""
        out = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.parameters().items():
                out[f"{i}.{name}"] = arr
        return out

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        """Copy new values into the existing arrays (shape-checked, in place)."""
        current = self.parameters()
        for key, arr in values.items():
            if key not in current:
                raise DimensionError(f"unknown parameter {key!r}")
            if current[key].shape != arr.shape:
                raise DimensionError(
                    f"parameter {key!r} shape {arr.shape} != expected {current[key].shape}"
                )
            current[key][...] = arr

    def num_params(self) -> int:
        return sum(arr.size for arr in self.parameters().values())

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch ``[B, T, C]`` (or ``[B, D]`` for MLPs)."""
        out = np.asarray(x, dtype=np.float64)
        with one_blas_thread():
            for layer in self.layers:
                out, _ = layer.forward(out)
        return out

    def loss_and_gradients(self, x: np.ndarray, labels: np.ndarray,
                           sample_weights: np.ndarray | None = None):
        """Mean cross-entropy and gradients for every parameter.

        The final layer must be a softmax DenseLayer; its backward pass is fed
        the fused ``probs - one_hot`` logits gradient, so the softmax Jacobian
        is never materialized. The first layer's input gradient is not
        computed: nothing reads it.
        """
        last = self.layers[-1]
        if not (isinstance(last, DenseLayer) and last.params.activation == "softmax"):
            raise DimensionError("loss_and_gradients requires a softmax output layer")
        labels = np.asarray(labels)
        out = np.asarray(x, dtype=np.float64)
        caches = []
        grads: dict[str, np.ndarray] = {}
        with one_blas_thread():
            for layer in self.layers:
                out, cache = layer.forward(out)
                caches.append(cache)
            probs = out
            loss = L.cross_entropy_batch(probs, labels, sample_weights)
            grad = L.softmax_xent_grad(probs, labels, sample_weights)
            for i in range(len(self.layers) - 1, -1, -1):
                grad, layer_grads = self.layers[i].backward(grad, caches[i], need_dx=i > 0)
                for name, g in layer_grads.items():
                    grads[f"{i}.{name}"] = g
        return loss, grads

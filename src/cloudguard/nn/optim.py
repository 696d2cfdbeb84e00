"""Parameter update rules.

Both optimizers mutate the model's parameter arrays in place and raise
TrainingDivergedError the moment a gradient or updated value is non-finite,
so a blown-up run fails loudly instead of writing NaN checkpoints.

Adam skips a tensor whose gradient has been all zero since the first step,
such as the LSTM's recurrent weights ``u`` when it sees one time step: with
m = v = g = 0 its update is exactly 0, so skipping it changes no bit. A
NaN or inf gradient is never all zero, so it is still checked. The other
tensors update in place, one block of at most ``BLOCK`` elements at a
time, through two scratch rows of one block: every operation is
elementwise and runs in the operation order of the textbook expressions,
so the values match them bit for bit, and a block's passes stay in cache.
"""

import math

import numpy as np

from ..errors import TrainingDivergedError

# elements per update block: two float64 scratch rows of 256 KB; 8192 made
# a default-arch step slower
BLOCK = 32768


def _blocks(shape: tuple, size: int):
    """Index tuples that cut an array of ``shape`` into blocks of at most
    ``size`` elements, in C order: runs of whole rows along the first axis,
    or, where one row is larger than ``size``, the blocks of each row."""
    row = math.prod(shape[1:])
    if row > size:
        for i in range(shape[0]):
            for rest in _blocks(shape[1:], size):
                yield (i, *rest)
    elif shape:
        step = size // row
        for lo in range(0, shape[0], step):
            yield (slice(lo, lo + step),)
    else:
        yield (...,)


def _check_finite(name: str, arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise TrainingDivergedError(f"non-finite {what} in parameter {name!r}")


class Sgd:
    """Plain stochastic gradient descent: ``p -= lr * g``."""

    def __init__(self, lr: float = 1e-3):
        if lr < 0:
            raise ValueError("lr must be non-negative")
        self.lr = lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = grads[name]
            _check_finite(name, g, "gradient")
            p -= self.lr * g
            _check_finite(name, p, "parameter")


class Adam:
    """Adam with bias-corrected first and second moments."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr < 0:
            raise ValueError("lr must be non-negative")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        # moments exist from a tensor's first non-zero gradient on
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._scratch = np.empty((2, 0))

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            m = self._m.get(name)
            if m is None and not g.any():
                continue
            _check_finite(name, g, "gradient")
            if m is None:
                m = self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            v = self._v[name]
            n = min(p.size, BLOCK)
            if self._scratch.shape[1] < n:
                self._scratch = np.empty((2, n))
            for at in _blocks(p.shape, BLOCK):
                pb, gb, mb, vb = p[at], g[at], m[at], v[at]
                a, b = (buf[:pb.size].reshape(pb.shape) for buf in self._scratch)
                # m = beta1 m + (1 - beta1) g
                np.multiply(gb, 1.0 - self.beta1, out=a)
                mb *= self.beta1
                mb += a
                # v = beta2 v + (1 - beta2) g g
                np.multiply(gb, 1.0 - self.beta2, out=a)
                a *= gb
                vb *= self.beta2
                vb += a
                # p -= lr (m / c1) / (sqrt(v / c2) + eps)
                np.divide(mb, c1, out=a)
                a *= self.lr
                np.divide(vb, c2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                pb -= a
            _check_finite(name, p, "parameter")

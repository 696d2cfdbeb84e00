"""Parameter update rules.

Both optimizers mutate the model's parameter arrays in place and raise
TrainingDivergedError the moment a gradient or updated value is non-finite,
so a blown-up run fails loudly instead of writing NaN checkpoints.

Adam skips a tensor whose gradient has been all zero since the first step,
such as the LSTM's recurrent weights ``u`` when it sees one time step: with
m = v = g = 0 its update is exactly 0, so skipping it changes no bit. A
NaN or inf gradient is never all zero, so it is still checked. The other
tensors update in place through two scratch rows, sized for the largest
tensor updated so far, in the operation order of the textbook
expressions, so the values match them bit for bit.
"""

import numpy as np

from ..errors import TrainingDivergedError


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
            if self._scratch.shape[1] < p.size:
                self._scratch = np.empty((2, p.size))
            a, b = (buf[:p.size].reshape(p.shape) for buf in self._scratch)
            # m = beta1 m + (1 - beta1) g
            np.multiply(g, 1.0 - self.beta1, out=a)
            m *= self.beta1
            m += a
            # v = beta2 v + (1 - beta2) g g
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v *= self.beta2
            v += a
            # p -= lr (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=a)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a
            _check_finite(name, p, "parameter")

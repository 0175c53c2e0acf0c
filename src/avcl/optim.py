"""Adam optimizer over a module's flat parameter leaf, with checkpointable
moments."""

from __future__ import annotations

import numpy as np

from avcl.tensor import Tensor


def zero_moments(param: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """A fresh run's first and second moments: two zero arrays, one value
    per parameter value."""
    return np.zeros(param.shape), np.zeros(param.shape)


class Adam:
    """Adam with bias correction over ``param``, a module's flat leaf (see
    :func:`tensor.flat_parameters`), and its first and second moments ``m``
    and ``v``: one float64 array each, of the leaf's shape.  Both are taken
    at construction as they are: zeros (:func:`zero_moments`) for a fresh
    run, a checkpoint's arrays for a restored one.  ``step`` reads the
    leaf's gradient and updates the moments and the leaf's values in place,
    through two scratch buffers of the step's own (kept between steps, they
    would add to the peak memory of every live optimizer), with the
    elementwise arithmetic of a per-parameter loop, so the result is the
    same bit for bit.  Only the moments are checkpointed; the trainer
    restores ``step_count`` from its loss records, one per step."""

    def __init__(self, param: Tensor, m: np.ndarray, v: np.ndarray,
                 lr: float = 1e-4, beta1: float = 0.95, beta2: float = 0.999,
                 eps: float = 1e-8):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if lr <= 0.0 or eps <= 0.0:
            raise ValueError("lr and eps must be positive")
        if m.shape != param.shape or v.shape != param.shape:
            raise ValueError(f"shape mismatch: moments of shapes {m.shape} and "
                             f"{v.shape}, not {param.shape}")
        self.param = param
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = m
        self.v = v

    def zero_grad(self) -> None:
        self.param.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        g, m, v = self.param.grad, self.m, self.v
        t, u = np.empty((2,) + g.shape)
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=t)
        m += t
        # v = beta2 * v + (1 - beta2) * g * g
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=t)
        t *= g
        v += t
        # data = data - lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=t)
        t *= self.lr
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        u += self.eps
        t /= u
        self.param.data -= t

    def named_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}/m": self.m, f"{prefix}/v": self.v}

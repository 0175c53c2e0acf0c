"""Adam optimizer over named parameter dicts, with checkpointable moments."""

from __future__ import annotations

import numpy as np

from avcl.tensor import Tensor


def _total(params: dict[str, Tensor]) -> int:
    return sum(p.data.size for p in params.values())


def zero_moments(params: dict[str, Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """A fresh run's first and second moments: two flat zero arrays, one
    value per parameter value."""
    total = _total(params)
    return np.zeros(total), np.zeros(total)


class Adam:
    """Adam with bias correction over ``params`` and their first and second
    moments ``m`` and ``v``: one flat float64 array each, holding the
    parameters' values one after another in ``params`` order (the module's
    parameter table).  Both are taken at construction as they are: zeros
    (:func:`zero_moments`) for a fresh run, a checkpoint's arrays for a
    restored one.  ``step`` updates them in place, with the elementwise
    arithmetic of a per-parameter loop, so the result is the same bit for
    bit.  Only the moments are checkpointed; the trainer restores
    ``step_count`` from its loss records, one per step."""

    def __init__(self, params: dict[str, Tensor], m: np.ndarray, v: np.ndarray,
                 lr: float = 1e-4, beta1: float = 0.95, beta2: float = 0.999,
                 eps: float = 1e-8):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if lr <= 0.0 or eps <= 0.0:
            raise ValueError("lr and eps must be positive")
        total = (_total(params),)
        if m.shape != total or v.shape != total:
            raise ValueError(f"shape mismatch: moments of shapes {m.shape} and "
                             f"{v.shape}, not {total}")
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = m
        self.v = v

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        g = np.concatenate([p.grad for p in self.params.values()], axis=None)
        m, v = self.m, self.v
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        t = (1.0 - self.beta1) * g
        m += t
        # v = beta2 * v + (1 - beta2) * g * g
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=t)
        t *= g
        v += t
        # update = lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=t)
        t *= self.lr
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        t /= g
        lo = 0
        for p in self.params.values():
            hi = lo + p.data.size
            p.data = p.data - t[lo:hi].reshape(p.data.shape)
            lo = hi

    def named_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}/m": self.m, f"{prefix}/v": self.v}

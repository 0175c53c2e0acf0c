"""Adam optimizer over named parameter dicts, with checkpointable moments."""

from __future__ import annotations

import numpy as np

from avcl.tensor import Tensor


def zero_moments(params: dict[str, Tensor]
                 ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """A fresh run's first and second moments: zeros shaped like ``params``."""
    return tuple({k: np.zeros(p.shape) for k, p in params.items()} for _ in "mv")


class Adam:
    """Adam with bias correction over ``params`` and their first and second
    moments ``m`` and ``v``, taken at construction as they are: zeros
    (:func:`zero_moments`) for a fresh run, a checkpoint's arrays for a
    restored one.  ``step`` replaces the moment arrays rather than writing
    into them.  Only the moments are checkpointed; the trainer restores
    ``step_count`` from its loss records, one per step."""

    def __init__(self, params: dict[str, Tensor], m: dict[str, np.ndarray],
                 v: dict[str, np.ndarray], lr: float = 1e-4,
                 beta1: float = 0.95, beta2: float = 0.999, eps: float = 1e-8):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if lr <= 0.0 or eps <= 0.0:
            raise ValueError("lr and eps must be positive")
        for k, p in params.items():
            if m[k].shape != p.shape or v[k].shape != p.shape:
                raise ValueError(f"shape mismatch for {k!r}")
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = {k: m[k] for k in self.params}
        self.v = {k: v[k] for k in self.params}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for k, p in self.params.items():
            g = p.grad
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            mhat = self.m[k] / c1
            vhat = self.v[k] / c2
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def named_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}/{kind}/{k}": moments[k] for k in self.params
                for kind, moments in (("m", self.m), ("v", self.v))}

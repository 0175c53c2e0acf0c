"""Adam optimizer over named parameter dicts, with checkpointable state."""

from __future__ import annotations

import numpy as np

from avcl.tensor import Tensor


class Adam:
    """Adam with bias correction; moments are persisted across restarts."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 beta1: float = 0.95, beta2: float = 0.999, eps: float = 1e-8):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if lr <= 0.0 or eps <= 0.0:
            raise ValueError("lr and eps must be positive")
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            mhat = self.m[k] / c1
            vhat = self.v[k] / c2
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def named_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        out = {f"{prefix}/step": np.array(float(self.step_count))}
        for k in self.params:
            out[f"{prefix}/m/{k}"] = self.m[k]
            out[f"{prefix}/v/{k}"] = self.v[k]
        return out

    def load_arrays(self, prefix: str, arrays: dict[str, np.ndarray]) -> None:
        self.step_count = int(arrays[f"{prefix}/step"])
        for k, p in self.params.items():
            m, v = arrays[f"{prefix}/m/{k}"], arrays[f"{prefix}/v/{k}"]
            if m.shape != p.shape or v.shape != p.shape:
                raise ValueError(f"shape mismatch for {k!r}")
            self.m[k] = np.ascontiguousarray(m, dtype=np.float64)
            self.v[k] = np.ascontiguousarray(v, dtype=np.float64)

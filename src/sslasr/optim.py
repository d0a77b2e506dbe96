"""Adam, global-norm gradient clipping, and learning-rate schedules."""

from __future__ import annotations

import math

import numpy as np

from .engine import Tensor


class Adam:
    """Adam with bias correction over a named parameter dict.

    Only the parameters handed to the constructor are ever updated, so
    freezing a module means leaving its tensors out of this dict.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        if lr is None:
            lr = self.lr
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m, v = self.m[k], self.v[k]
            # in place, same operations in the same order as b1*m + (1-b1)*g
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / c1
            vhat = v / c2
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(sq)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def noam_lr(step: int, d_model: int, warmup: int, factor: float = 1.0) -> float:
    """lr = factor * d_model^-0.5 * min(step^-0.5, step * warmup^-1.5)."""
    step = max(int(step), 1)
    return factor * d_model**-0.5 * min(step**-0.5, step * warmup**-1.5)


def tri_stage_lr(step: int, peak_lr: float, warmup_steps: int, hold_steps: int,
                 decay_steps: int, final_scale: float = 0.05) -> float:
    """Linear ramp to peak, hold, then exponential decay to final_scale*peak."""
    step = max(int(step), 1)
    if step <= warmup_steps:
        return peak_lr * step / warmup_steps
    if step <= warmup_steps + hold_steps:
        return peak_lr
    into = step - warmup_steps - hold_steps
    if into >= decay_steps:
        return peak_lr * final_scale
    return peak_lr * math.exp(math.log(final_scale) * into / decay_steps)

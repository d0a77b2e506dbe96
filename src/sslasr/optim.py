"""Adam, global-norm gradient clipping, and learning-rate schedules."""

from __future__ import annotations

import math

import numpy as np

from .engine import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# arena elements per update block: the scratch of two blocks stays small
# next to the two arena rows it replaces, and a block's nine ufunc calls
# cost a few microseconds against a pretrain step of milliseconds
BLOCK = 1 << 14


class Adam:
    """Adam with bias correction over a named parameter dict.

    Only the parameters handed to the constructor are ever updated, so
    freezing a module means leaving its tensors out of this dict. The
    arena is four flat rows, data, m, v and grad; each tensor's .data and
    grad_slot are views into `data` and `grad` (see engine.Tensor). A step
    runs the update block by block through two block-sized scratch arrays,
    so the temporaries never cost a row. A tensor whose .grad is None keeps
    data and moments.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.t = 0
        tensors = list({id(p): p for p in params.values()}.values())
        # one buffer, one dtype: a mix of dtypes fails to unpack with a ValueError
        (dtype,) = {p.dtype for p in tensors} or {np.dtype(np.float32)}
        ends = np.cumsum([0] + [p.size for p in tensors]).tolist()
        self.layout = [(p, slice(a, b)) for p, a, b in zip(tensors, ends, ends[1:])]
        n = ends[-1]
        self._rows = np.zeros((4, n), dtype)
        self.data, self.m, self.v, self.grad = self._rows
        scratch = np.zeros((2, min(n, BLOCK)), dtype)
        # every block's views, made once: (data, m, v, grad, s1, s2)
        self._blocks = [(*self._rows[:, a:a + BLOCK], *scratch[:, :min(BLOCK, n - a)])
                        for a in range(0, n, BLOCK)]
        for p, s in self.layout:
            self.data[s] = p.data.reshape(-1)
            p.data, p.grad_slot = self.data[s].reshape(p.shape), self.grad[s].reshape(p.shape)

    def zero_grad(self) -> None:
        for p, _ in self.layout:
            p.grad = None

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = BETA1, BETA2
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        held = [(s, self._rows[:3, s].copy()) for p, s in self.layout if p.grad is None]
        for p, s in self.layout:
            if p.grad is not None and p.grad is not p.grad_slot:  # assigned from outside
                p.grad_slot[...] = p.grad
        # the per-tensor m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # data -= lr*(m/c1) / (sqrt(v/c2) + eps) op for op, allocating nothing;
        # every op is elementwise, so blocks give the whole-buffer bits
        for data, m, v, g, s1, s2 in self._blocks:
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s1)
            v *= b2
            v += np.multiply(np.multiply(g, 1.0 - b2, out=s1), g, out=s1)
            np.multiply(np.divide(m, c1, out=s1), lr, out=s1)
            np.add(np.sqrt(np.divide(v, c2, out=s2), out=s2), EPS, out=s2)
            data -= np.divide(s1, s2, out=s1)
        for s, kept in held:
            self._rows[:3, s] = kept


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so that their joint L2 norm, from float64
    per-tensor sums in parameter order, is at most max_norm; returns the
    pre-clip norm."""
    live = [p for p in params.values() if p.grad is not None]
    norm = math.sqrt(sum(float(np.square(p.grad, dtype=np.float64).sum()) for p in live))
    if norm > max_norm and norm > 0:
        for p in live:
            p.grad *= max_norm / norm
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

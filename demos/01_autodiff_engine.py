"""Reverse-mode autodiff on tapes: build a graph, backprop, verify numerically.

The engine records every primitive op on the active Tape. backward() then
walks that record once in reverse and accumulates d(loss)/d(leaf) into the
.grad field of every leaf tensor that asked for gradients.
"""

import numpy as np

from sslasr import engine as E
from sslasr.engine import Tape, Tensor
from sslasr.gradcheck import finite_diff_gradcheck, gradcheck_battery

rng = np.random.default_rng(0)

print("== forward and backward through a small graph ==")
w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)
x = Tensor(rng.normal(size=(4, 3)))  # plain input, no gradient needed

with Tape() as tape:
    h = E.relu(E.linear(x, w, b))
    loss = E.mean_(E.mul(h, h))
E.backward(loss, tape)

print(f"loss              {float(loss.data):.6f}")
print(f"dloss/dw          shape {w.grad.shape}, mean |g| {np.abs(w.grad).mean():.6f}")
print(f"dloss/db          {np.round(b.grad, 6)}")
print(f"x.grad stays None {x.grad is None}  (x never asked for gradients)")

print()
print("== the same gradients, checked against central differences ==")
# finite_diff_gradcheck perturbs every input element by +-eps in float64
# and compares the numeric slope with what backward() produced
w64 = Tensor(rng.normal(size=(3, 2)), dtype=np.float64)
b64 = Tensor(np.zeros(2), dtype=np.float64)


def fn(wt, bt):
    return E.mean_(E.mul(E.relu(E.linear(x, wt, bt)), Tensor(np.full((4, 2), 0.7))))


err = finite_diff_gradcheck(fn, [w64, b64])
print(f"worst relative error vs numeric slopes: {err:.2e}")

print()
print("== one seed of the full primitive battery ==")
# every op in the engine (linear, attention, layer_norm, conv1d,
# embedding, ...) appears in at least one checked expression
worst = gradcheck_battery(seed=0)
print(f"worst relative error over the whole primitive set: {worst:.2e}")
print("anything below 1e-6 means the analytic gradients are trustworthy")

"""CTC from first principles: the loss is an exact sum over alignment paths.

For tiny shapes we can enumerate every path by hand and confirm the
forward algorithm reproduces -log P(target) to machine precision, that
probabilities over all targets sum to one, and that greedy decoding
collapses repeats and blanks the way the loss assumes.
"""

import itertools

import numpy as np

from sslasr.ctc import (
    ctc_loss_batch,
    error_rate,
    greedy_decode,
    min_input_length,
)
from sslasr.engine import Tensor


def ctc_nll(logits, target):
    """-log P(target) for one (T, V) utterance, scored as a batch of one.

    ctc_loss_batch divides each utterance's loss by its target length, so
    the loss times the target length is -log P(target)."""
    batch = Tensor(logits[None])  # (1, T, V)
    return len(target) * float(ctc_loss_batch(batch, [len(logits)], [list(target)]).data)


def collapse(path, blank=0):
    out, prev = [], None
    for p in path:
        if p != prev and p != blank:
            out.append(p)
        prev = p
    return out


rng = np.random.default_rng(0)
T, V = 3, 3  # 3 frames over {blank, a, b}
logits = rng.normal(size=(T, V))
logp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))

print("== brute force vs forward algorithm (the loss times the target length) ==")
for target in ([1], [2, 1], [1, 1]):
    paths = [p for p in itertools.product(range(V), repeat=T)
             if collapse(p) == list(target)]
    brute = -np.log(sum(np.exp(sum(logp[i, c] for i, c in enumerate(p)))
                        for p in paths))
    got = ctc_nll(logits, target)
    print(f"target {target}: {len(paths):2d} paths, brute {brute:.10f}, "
          f"ctc {got:.10f}, diff {abs(brute - got):.1e}")

print()
print("== the loss defines a true distribution over targets ==")
total = float(np.exp(logp[:, 0].sum()))  # the empty transcription
for n in range(1, T + 1):
    for target in itertools.product(range(1, V), repeat=n):
        if min_input_length(target) <= T:
            total += float(np.exp(-ctc_nll(logits, target)))
print(f"sum of P(target) over every possible target: {total:.12f}")

print()
print("== repeats need a blank in between ==")
print(f"min frames for [1, 2]: {min_input_length([1, 2])}  (no repeat)")
print(f"min frames for [1, 1]: {min_input_length([1, 1])}  (blank forced between)")

print()
print("== greedy decoding ==")
# frame-wise argmax, then collapse repeats and strip blanks
steps = np.array([
    [0.1, 2.0, 0.0],   # a
    [0.1, 1.5, 0.0],   # a (repeat, collapses)
    [3.0, 0.0, 0.0],   # blank
    [0.0, 0.0, 2.5],   # b
])
print(f"argmax per frame {[int(i) for i in steps.argmax(-1)]} "
      f"-> decoded {greedy_decode(steps)}")

refs = [[1, 2, 1], [2, 2]]
hyps = [[1, 2], [2, 2]]
print(f"token error rate of {hyps} against {refs}: "
      f"{error_rate(refs, hyps):.3f}  (1 edit / 5 reference tokens)")

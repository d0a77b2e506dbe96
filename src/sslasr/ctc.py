"""CTC loss, greedy decoding, and token error metrics.

The loss is one recorded op over the whole batch. Its forward pass runs
the log-space alpha recursion over each utterance's blank-interleaved
label sequence in float64, with a true -inf for unreachable states; its
backward pass runs the beta recursion and returns the closed-form
gradient softmax - posterior occupancy (Graves et al., ICML 2006).
"""

from __future__ import annotations

import numpy as np

from . import engine as E
from .engine import Tensor
from .model import Linear, Module

BLANK = 0  # output index of the CTC blank; token ids start at 1


class CTCHead(Module):
    """Linear generator from hidden states to per-frame token logits.

    Output dim is vocab_size + 1; index BLANK = 0 is the blank.
    """

    def __init__(self, rng, d_model: int, vocab_size: int):
        super().__init__()
        self.children["out"] = Linear(rng, d_model, vocab_size + 1)

    def __call__(self, hidden: Tensor) -> Tensor:
        return self.children["out"](hidden)


def extended_labels(target) -> list:
    ext = [BLANK]
    for y in target:
        ext.append(int(y))
        ext.append(BLANK)
    return ext


def min_input_length(target) -> int:
    """Shortest frame count that can emit the target under CTC."""
    target = list(target)
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def ctc_loss_batch(logits: Tensor, out_lengths, targets) -> Tensor:
    """Mean over a batch of each utterance's CTC loss, -log P(target),
    divided by its target length.

    logits: (B, T, V); out_lengths gives each utterance's valid frame
    count; targets is a list of B token-id lists. A target that its
    frames cannot emit raises ValueError.
    """
    B, T, V = logits.shape
    lengths = [int(n) for n in np.asarray(out_lengths).reshape(-1)]
    for what, n in (("out_lengths", len(lengths)), ("targets", len(targets))):
        if n != B:
            raise ValueError(f"{n} CTC {what} for a batch of {B}: "
                             f"utterance {min(n, B)} is unmatched")
    labels = []
    for b, (n, target) in enumerate(zip(lengths, targets)):
        if not 0 <= n <= T:
            raise ValueError(f"utterance {b}: out_length {n} outside [0, {T}]")
        target = [int(y) for y in target]
        if any(y == BLANK or not 0 <= y < V for y in target):
            raise ValueError(f"utterance {b}: target tokens must be non-blank vocabulary indices")
        if not target:
            raise ValueError(f"utterance {b}: empty CTC target")
        if n < min_input_length(target):
            raise ValueError(f"utterance {b}: CTC target of {len(target)} tokens needs "
                             f"{min_input_length(target)} frames, has {n}")
        labels.append(target)

    n_lab = np.array([len(y) for y in labels])
    S = 2 * int(n_lab.max()) + 1
    ext = np.full((B, S), BLANK)
    for k, y in enumerate(labels):
        ext[k, : 2 * len(y) + 1] = extended_labels(y)
    # the skip s-2 -> s is open only between distinct labels
    skip = np.full((B, S - 2), -np.inf)
    skip[(ext[:, 2:] != BLANK) & (ext[:, 2:] != ext[:, :-2])] = 0.0
    ks = np.arange(B)
    t_last = np.array(lengths) - 1
    s_last = 2 * n_lab
    scale = 1.0 / (B * n_lab)

    x = logits.data.astype(np.float64)
    m = x.max(axis=-1, keepdims=True)
    logp = x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    em = np.take_along_axis(logp, ext[:, None, :], axis=2)  # (B, T, S)
    alpha = np.full((B, T, S), -np.inf)
    alpha[:, 0, :2] = em[:, 0, :2]
    for t in range(1, T):
        a = alpha[:, t - 1]
        cur = a.copy()
        cur[:, 1:] = np.logaddexp(cur[:, 1:], a[:, :-1])
        cur[:, 2:] = np.logaddexp(cur[:, 2:], a[:, :-2] + skip)
        alpha[:, t] = cur + em[:, t]
    end = alpha[ks, t_last]
    nll = -np.logaddexp(end[ks, s_last], end[ks, s_last - 1])

    def bwd(g):
        # beta[k, t, s]: log-probability of frames t+1.. finishing the labels
        # from state s at frame t
        beta = np.full((B, T, S), -np.inf)
        beta[ks, t_last, s_last] = 0.0
        beta[ks, t_last, s_last - 1] = 0.0
        for t in range(T - 2, -1, -1):
            nxt = beta[:, t + 1] + em[:, t + 1]
            cur = nxt.copy()
            cur[:, :-1] = np.logaddexp(cur[:, :-1], nxt[:, 1:])
            cur[:, :-2] = np.logaddexp(cur[:, :-2], nxt[:, 2:] + skip)
            beta[:, t] = np.where((t < t_last)[:, None], cur, beta[:, t])
        onehot = np.zeros((B, S, V))
        onehot[ks[:, None], np.arange(S), ext] = 1.0
        occ = np.exp(alpha + beta + nll[:, None, None]) @ onehot  # (B, T, V)
        # occupancy sums to 1 over a valid frame and to 0 over a padded one,
        # so this is softmax - occupancy on valid frames and exactly 0 on padding
        gk = np.exp(logp) * occ.sum(axis=-1, keepdims=True) - occ
        return (gk * (g * scale)[:, None, None],)

    loss = np.asarray((nll * scale).sum(), dtype=logits.dtype)
    return E._record("ctc_loss", (logits,), loss, bwd)


def greedy_decode(log_probs: np.ndarray) -> list:
    """Best path decoding: framewise argmax (ties -> lowest index),
    collapse repeats, drop blanks."""
    best = np.argmax(np.asarray(log_probs), axis=-1)
    out = []
    prev = None
    for b in best:
        b = int(b)
        if b != prev and b != BLANK:
            out.append(b)
        prev = b
    return out


def edit_distance(ref, hyp) -> int:
    """Levenshtein distance over token sequences."""
    ref, hyp = list(ref), list(hyp)
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h))
        prev = cur
    return prev[len(hyp)]


def error_rate(refs, hyps) -> float:
    """Corpus-level token error rate: total edits / total reference tokens."""
    if len(refs) != len(hyps):
        raise ValueError("refs and hyps must pair up")
    edits = sum(edit_distance(r, h) for r, h in zip(refs, hyps))
    total = sum(len(list(r)) for r in refs)
    if total == 0:
        return 0.0 if edits == 0 else float("inf")
    return edits / total

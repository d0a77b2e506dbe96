"""Minimal reverse-mode autodiff over dense NumPy arrays.

A Tape records every differentiable op applied to Tensors while it is
active. backward() replays the tape in reverse and accumulates gradients
into leaf tensors that have requires_grad set. The tape refers to no op
output: a taped output's Tensor points to its node, a node points to the
nodes that made its inputs, and an op's closure holds only what its
backward reads, so an array outlives the forward pass only if some
backward reads it. A tape is consumed by its backward: each node lets go
of its closure once it has made its gradients, so a forward array is
freed as soon as the last node that reads it is done, and a second
backward on the tape raises. Gradients accumulate across tapes; reset
.grad between steps.

Finiteness has one check, finite_result: it runs some work, a training
step's forward pass or one evaluation, and tests only the result for NaN
and inf. A non-finite result runs the work again with every op checking
its own output, so the op that made the first non-finite value raises
naming itself. An op called outside finite_result returns what it
computes, NaN and inf included.

Each arithmetic form has one op: a difference is add with a negated
operand, and a matrix product is linear.

Ops never write into their inputs, and parameter data is only ever
written in place: optim.Adam moves its tensors' data into one flat
buffer and updates it there, and gives each tensor a grad_slot that
backward fills in place instead of allocating a gradient array.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


_replaying = False  # True while finite_result replays a non-finite run


class Tensor:
    """Dense C-contiguous float array with optional gradient tracking.

    Ops treat data as immutable. An optimizer updates it in place (see
    optim.Adam), and anyone else who writes weights must too, so that a
    tensor keeps the storage its optimizer updates. grad is None until
    backward() deposits into it. grad_slot, set by an optimizer, is the
    view of its gradient buffer that backward writes the gradient into;
    None otherwise. node is the _Node that made this tensor on a tape, None
    for a leaf and for an untaped op's output.
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_slot", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        # ascontiguousarray would promote 0-d scalars to 1-d
        self.data = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.grad_slot = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


class _Node:
    """One taped op. inputs holds, per input of the op, what backward sends
    its gradient to: the input's node when that is on the same tape (the
    one numbered serial), the input Tensor when it is a leaf that requires
    grad or another tape's output, else None. dtype is the output's. A
    node refers to neither its tape nor its output Tensor, so freeing
    needs reference counting alone."""

    __slots__ = ("op", "inputs", "dtype", "serial", "backward_fn")

    def __init__(self, op, inputs, dtype, serial, backward_fn):
        self.op = op
        self.inputs = inputs
        self.dtype = dtype
        self.serial = serial
        self.backward_fn = backward_fn


_SERIALS = itertools.count()


class Tape:
    """Ordered record of ops; context manager activates it. consumed is set
    by the one backward the tape may run; serial, unique to the tape, tells
    its nodes from other tapes'."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False
        self.serial = next(_SERIALS)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise RuntimeError("tape exit order violated")
        _TAPE_STACK.pop()
        return False


_TAPE_STACK: list[Tape] = []


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def finite_result(work, tape: Tape | None = None) -> Tensor:
    """work()'s Tensor result, from a run onto `tape` (if one is given) whose
    result alone is tested for NaN and inf.

    A non-finite result is dropped: work runs again off the tape with every
    op checking its output, and the caller gets what that run gives. So the
    first op to make a non-finite value raises FloatingPointError naming
    itself, a non-finite intermediate that does not reach the result raises
    nothing, and a result that no op made (a constant) comes back as it is.
    work must redo whatever it draws (rebuild its random generator), so
    that the replay repeats the first run."""
    global _replaying
    if tape is None:
        out = work()
    else:
        with tape:
            out = work()
    data = out.data
    # item() tests the usual scalar result ten times faster than isfinite
    if math.isfinite(data.item()) if data.size == 1 else np.isfinite(data).all():
        return out
    outer, _replaying = _replaying, True
    try:
        return work()
    finally:
        _replaying = outer


def _key(t: Tensor, serial: int):
    """What a node on tape `serial` keys input t's gradient by (see _Node)."""
    node = t.node
    if node is not None and node.serial == serial:
        return node
    return t if t.requires_grad else None


def _record(op: str, inputs: tuple, out_data: np.ndarray, backward_fn) -> Tensor:
    if type(out_data) is np.ndarray and out_data.dtype in _FLOAT_DTYPES:
        # Tensor(out_data) without the conversions
        out = Tensor.__new__(Tensor)
        out.data = out_data if out_data.flags.c_contiguous else np.ascontiguousarray(out_data)
        out.requires_grad = False
        out.grad = out.grad_slot = out.node = None
    else:
        out = Tensor(out_data)
    if _replaying and not np.isfinite(out.data).all():
        raise FloatingPointError(f"non-finite values produced by op '{op}'")
    if _TAPE_STACK:
        for t in inputs:
            if t.requires_grad:
                tape = _TAPE_STACK[-1]
                keys = [_key(u, tape.serial) for u in inputs]
                out.requires_grad = True
                out.node = _Node(op, keys, out.data.dtype, tape.serial, backward_fn)
                tape.nodes.append(out.node)
                break
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient g down to `shape` by summing broadcast axes."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every requiring leaf, and
    consume the tape.

    grads maps a node's or a Tensor's key (see _Node) to its gradient so
    far. A node's entry is popped when the node is reached: its consumers
    come later on the tape, so it is complete. The node then drops its
    backward_fn and inputs (it keeps op, and the tape keeps every node),
    so each forward array is freed once the last node that reads it has
    made its gradient. A second backward on the tape raises ValueError.
    The entries left at the end are Tensors': leaves, and other tapes'
    outputs. Each gets one deposit of its summed gradient g, written into
    its grad_slot when it has one: .grad + g, or 0.0 + g when .grad is
    None (the bits of zeros_like + g: -0.0 becomes +0.0)."""
    if loss.size != 1:
        raise ValueError("backward requires a scalar loss")
    if tape.consumed:
        raise ValueError("backward on a consumed tape: record the ops on a new tape")
    tape.consumed = True
    key = _key(loss, tape.serial)
    grads = {} if key is None else {key: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node, None)
        inputs, fn = node.inputs, node.backward_fn
        node.inputs = node.backward_fn = None
        if g is None:
            continue
        for k, ig in zip(inputs, fn(g)):
            if ig is None or k is None:
                continue
            ig = ig.astype(k.dtype, copy=False)
            grads[k] = grads[k] + ig if k in grads else ig
    for t, g in grads.items():
        t.grad = np.add(0.0 if t.grad is None else t.grad, g, out=t.grad_slot)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


# An op's closure holds only what its backward reads: an input's shape
# (sa), or the array it reads (xa), only when that input requires grad,
# else None. Ops read t.data.shape, at half the cost of the Tensor.shape
# property: gradcheck's untaped passes run tens of thousands of ops.


def add(a: Tensor, b: Tensor) -> Tensor:
    sa = a.data.shape if a.requires_grad else None
    sb = b.data.shape if b.requires_grad else None
    return _record("add", (a, b), a.data + b.data, lambda g: (
        None if sa is None else _unbroadcast(g, sa),
        None if sb is None else _unbroadcast(g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    sa = a.data.shape if a.requires_grad else None
    sb = b.data.shape if b.requires_grad else None
    xa = None if sb is None else a.data
    xb = None if sa is None else b.data
    return _record("mul", (a, b), a.data * b.data, lambda g: (
        None if sa is None else _unbroadcast(g * xb, sa),
        None if sb is None else _unbroadcast(g * xa, sb)))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, the one matrix product (a zero b for none).
    Its backward holds x's array only while w takes a gradient."""
    out = x.data @ w.data + b.data
    wd = w.data if x.requires_grad else None
    xd = x.data if w.requires_grad else None
    sw, sb = w.data.shape, b.data.shape if b.requires_grad else None

    def bwd(g):
        gx = None if wd is None else g @ np.swapaxes(wd, -1, -2)
        gw = None if xd is None else _unbroadcast(np.swapaxes(xd, -1, -2) @ g, sw)
        gb = None if sb is None else _unbroadcast(g, sb)
        return gx, gw, gb

    return _record("linear", (x, w, b), out, bwd)


@functools.lru_cache
def _attention_mask(lengths: tuple, T: int, causal: bool) -> np.ndarray:
    """(B, 1, T, T) keys each query may attend (see attention), memoised per
    (lengths, T, causal); read-only."""
    n = np.asarray(lengths)[:, None, None, None]
    key, query = np.arange(T), np.arange(T)[:, None]
    mask = (key < n) | ((n <= 0) & (key == query))
    if causal:
        mask &= key <= query
    mask.flags.writeable = False
    return mask


def attention(q: Tensor, k: Tensor, v: Tensor, lengths, n_heads: int, causal: bool) -> Tensor:
    """Multi-head attention over (B, T, D) projections as one node: head
    split, q k^T / sqrt(dh), softmax, p v, head merge. Query i of utterance
    b attends keys j < lengths[b], and only j <= i if causal; a row with no
    such key attends its diagonal. Both ways it takes the bits of that chain
    of single ops: the same contiguous copies, the same matmuls on the same
    views."""
    B, T, D = q.shape
    dh = D // n_heads

    def split(t):  # (B, T, D) -> contiguous (B, H, T, dh)
        return np.ascontiguousarray(t.data.reshape(B, T, n_heads, dh).transpose(0, 2, 1, 3))

    def merge(gh):  # (B, H, T, dh) -> (B, T, D)
        return np.transpose(gh, (0, 2, 1, 3)).reshape(B, T, D)

    qh, kh, vh = split(q), split(k), split(v)
    kt = np.ascontiguousarray(kh.transpose(0, 1, 3, 2))
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.dtype)
    s = (qh @ kt) * scale
    mask = _attention_mask(tuple(np.asarray(lengths).tolist()), T, causal)
    m = np.maximum.reduce(np.where(mask, s, -np.inf), axis=-1, keepdims=True)
    e = np.exp(np.where(mask, s - m, 0.0)) * mask
    p = e / e.sum(axis=-1, keepdims=True)
    out = np.ascontiguousarray((p @ vh).transpose(0, 2, 1, 3)).reshape(B, T, D)
    rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad

    def bwd(g):
        gctx = np.transpose(g.reshape(B, T, n_heads, dh), (0, 2, 1, 3))
        gq = gk = gv = None
        if rq or rk:
            gp = gctx @ np.swapaxes(vh, -1, -2)
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
            if rq:
                gq = merge(gs @ np.swapaxes(kt, -1, -2))
            if rk:
                gk = merge(np.transpose(np.swapaxes(qh, -1, -2) @ gs, (0, 1, 3, 2)))
        if rv:
            gv = merge(np.swapaxes(p, -1, -2) @ gctx)
        return gq, gk, gv

    return _record("attention", (q, k, v), out, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    orig = a.shape
    return _record("reshape", (a,), out, lambda g: (g.reshape(orig),))


def slice_axis(a: Tensor, axis: int, start: int, stop: int, step: int = 1) -> Tensor:
    if step <= 0:
        raise ValueError("slice_axis requires a positive step")
    key = [slice(None)] * a.ndim
    key[axis] = slice(start, stop, step)
    key = tuple(key)
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[key] = g
        return (full,)

    return _record("slice", (a,), a.data[key], bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record("exp", (a,), out, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    x = a.data
    return _record("log", (a,), np.log(x), lambda g: (g / x,))


def relu(a: Tensor) -> Tensor:
    x = a.data
    return _record("relu", (a,), np.maximum(x, 0), lambda g: (g * (x > 0),))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_K = 0.044715


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU. Its backward keeps tanh(u) and recomputes
    x * x, with the bits that keeping it gave, so until backward a taped
    gelu holds one array beside its input and output."""
    x = a.data
    x2 = x * x  # x**3 would take NumPy's generic pow loop, ~100x slower
    u = _GELU_C * (x + _GELU_K * (x2 * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)

    def bwd(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_K * (x * x))
        dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        return (g * dy,)

    return _record("gelu", (a,), out, bwd)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    x = a.data
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _record("softmax", (a,), p, bwd)


_LN_EPS = 1e-5


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis with population variance (plus _LN_EPS),
    then affine."""
    x = a.data
    if x.shape[-1] == 0:
        raise ValueError("layer_norm over an empty last axis")
    n = x.shape[-1]
    # add.reduce / n is the last-axis mean without ndarray.mean's Python
    # wrapper; the bits are the same (its float64 divide rounds back exactly)
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    d = x - mu
    var = np.add.reduce(d**2, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = d * inv
    gd = gamma.data
    out = gd * xhat + beta.data
    ra = a.requires_grad
    sg = gd.shape if gamma.requires_grad else None
    sb = beta.data.shape if beta.requires_grad else None

    def bwd(g):
        ga = ggamma = gbeta = None
        if ra:
            gx_hat = g * gd
            m1 = np.add.reduce(gx_hat, axis=-1, keepdims=True) / n
            m2 = np.add.reduce(gx_hat * xhat, axis=-1, keepdims=True) / n
            ga = inv * (gx_hat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        if sg is not None:
            ggamma = _unbroadcast((g * xhat).sum(axis=axes) if axes else g * xhat, sg)
        if sb is not None:
            gbeta = _unbroadcast(g.sum(axis=axes) if axes else g, sb)
        return ga, ggamma, gbeta

    return _record("layer_norm", (a, gamma, beta), out, bwd)


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int, causal: bool) -> Tensor:
    """1-D convolution (really correlation) over time.

    x: (B, T, Cin), w: (K, Cin, Cout), b: (Cout,). The K-1 zeros of
    padding all go on the left if causal, else the left gets the smaller
    half. The output has ceil(T/stride) frames either way.
    """
    B, T, Cin = x.shape
    K, Cin_w, Cout = w.shape
    if Cin != Cin_w:
        raise ValueError("conv1d channel mismatch")
    left = K - 1 if causal else (K - 1) // 2
    t_out = -(-T // stride)

    # zero padding, with extra on the right when the last strided window needs it
    Tp = max(T + K - 1, (t_out - 1) * stride + K)
    dtype = x.dtype
    xp = np.zeros((B, Tp, Cin), dtype=dtype)
    xp[:, left : left + T] = x.data
    # windows (B, t_out, K, Cin) as a strided view of xp, built directly
    # (as_strided's Python wrapper costs more than the view); xp is
    # contiguous, so the tap and channel axes merge into one (B, t_out, K*Cin) view
    sB, sT, sC = xp.strides
    win = np.ndarray((B, t_out, K, Cin), dtype=xp.dtype, buffer=xp,
                     strides=(sB, sT * stride, sT, sC))
    win.flags.writeable = False
    cols = win.reshape(B, t_out, K * Cin)
    w2 = w.data.reshape(K * Cin, Cout)
    out = cols @ w2 + b.data
    # the windows (and so xp) only while w takes a gradient
    w2t = w2.T if x.requires_grad else None
    colst = cols if w.requires_grad else None
    sb = b.data.shape if b.requires_grad else None

    def bwd(g):
        gx = gw = gb = None
        if w2t is not None:
            gcols = (g @ w2t).reshape(B, t_out, K, Cin)
            gxp = np.zeros((B, Tp, Cin), dtype=dtype)
            # one tap's windows never overlap, so a strided += scatters exactly
            span = stride * (t_out - 1) + 1
            for k in range(K):
                gxp[:, k : k + span : stride] += gcols[:, :, k]
            gx = gxp[:, left : left + T]
        if colst is not None:
            gw = (colst.reshape(B * t_out, K * Cin).T @ g.reshape(B * t_out, Cout)).reshape(K, Cin, Cout)
        if sb is not None:
            gb = _unbroadcast(g.sum(axis=(0, 1)), sb)
        return gx, gw, gb

    return _record("conv1d", (x, w, b), np.ascontiguousarray(out), bwd)


def embedding(table: Tensor, indices) -> Tensor:
    """Row lookup; indices is an integer ndarray, gradients scatter-add."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("embedding indices must be integers")
    out = table.data[idx]
    shape, dtype = table.data.shape, table.data.dtype

    def bwd(g):
        gt = np.zeros(shape, dtype)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record("embedding", (table,), out, bwd)


def where_mask(a: Tensor, b: Tensor, mask) -> Tensor:
    """Elementwise select: mask True takes a, False takes b."""
    m = np.asarray(mask, dtype=bool)
    out = np.where(m, a.data, b.data)
    sa = a.data.shape if a.requires_grad else None
    sb = b.data.shape if b.requires_grad else None

    def bwd(g):
        mb = np.broadcast_to(m, g.shape)
        return (None if sa is None else _unbroadcast(np.where(mb, g, 0.0), sa),
                None if sb is None else _unbroadcast(np.where(mb, 0.0, g), sb))

    return _record("where", (a, b), out, bwd)


def sum_(a: Tensor, axis=None) -> Tensor:
    shape = a.data.shape

    def bwd(g):
        g = np.asarray(g) if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record("sum", (a,), np.asarray(np.add.reduce(a.data, axis=axis)), bwd)


def mean_(a: Tensor) -> Tensor:
    """The mean over every element."""
    shape, size = a.data.shape, a.data.size
    return _record("mean", (a,), np.asarray(a.data.mean()),
                   lambda g: (np.broadcast_to(g, shape).copy() / size,))


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity over the last axis; zero-norm operands are an error."""
    xa, xb = a.data, b.data
    na = np.sqrt((xa**2).sum(axis=-1, keepdims=True))
    nb = np.sqrt((xb**2).sum(axis=-1, keepdims=True))
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("degenerate similarity input")
    dot = (xa * xb).sum(axis=-1, keepdims=True)
    c = dot / (na * nb)
    out = c[..., 0]
    sa, sb = xa.shape, xb.shape

    def bwd(g):
        ge = np.asarray(g)[..., None]
        ga = ge * (xb / (na * nb) - c * xa / (na * na))
        gb = ge * (xa / (na * nb) - c * xb / (nb * nb))
        return _unbroadcast(ga, sa), _unbroadcast(gb, sb)

    return _record("cosine_similarity", (a, b), out, bwd)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-row negative log-likelihood of integer targets.

    logits: (..., V), targets: integer array of shape (...). Returns a
    tensor shaped like targets (no reduction).
    """
    idx = np.asarray(targets)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("cross_entropy targets must be integers")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    lse = m[..., 0] + np.log(e.sum(axis=-1))
    picked = np.take_along_axis(x, idx[..., None], axis=-1)[..., 0]
    out = lse - picked

    def bwd(g):
        p = e / e.sum(axis=-1, keepdims=True)
        onehot = np.zeros_like(e)
        np.put_along_axis(onehot, idx[..., None], 1.0, axis=-1)
        return ((p - onehot) * np.asarray(g)[..., None],)

    return _record("cross_entropy", (logits,), out, bwd)


# ---------------------------------------------------------------------------
# composed helpers (no new primitives, gradients come from composition)
# ---------------------------------------------------------------------------


def abs_(a: Tensor) -> Tensor:
    return add(relu(a), relu(mul(a, Tensor(np.asarray(-1.0, dtype=a.dtype)))))

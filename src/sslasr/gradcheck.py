"""Central-difference gradient verification for taped functions."""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace

import numpy as np

from . import engine as E
from .ctc import CTCHead, ctc_loss_batch
from .data import Batch
from .engine import Tape, Tensor, backward
from .model import ResidualAdapter, build_encoder
from .objectives import (
    BidirectionalAPC,
    ContrastiveObjective,
    EAPCObjective,
    GumbelQuantizer,
    MaskedClusterObjective,
    group_mean_features,
    kmeans_assign,
    kmeans_fit,
)
from .training import PipelineConfig

GRADCHECK_THRESHOLD = 1e-6  # `sslasr gradcheck` passes iff the worst relative error is below it


def _analytic_grads(fn, inputs) -> list:
    """Gradients of fn's scalar output with respect to each float64 input,
    from one taped backward pass; an input the output does not reach gets
    zeros. Every check starts here, so a bad input is rejected before fn runs."""
    for t in inputs:
        if not isinstance(t, Tensor) or t.dtype != np.float64:
            raise TypeError("gradcheck requires float64 Tensor inputs")
        t.requires_grad = True
        t.grad = None
    tape = Tape()
    backward(E.finite_result(lambda: fn(*inputs), tape), tape)
    return [t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs]


def finite_diff_gradcheck(fn, inputs) -> float:
    """Compare analytic gradients of fn against central differences.

    fn maps the given leaf Tensors to a scalar Tensor. All inputs must be
    float64 leaves, each element probed at +-1e-5. Returns the worst
    relative error |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)
    over every element of every input. Raises if fn is nondeterministic
    (two evaluations disagree bitwise). A non-finite analytic or numeric
    gradient element makes the error inf, so the check fails.

    The taped analytic pass and each central-difference evaluation run
    through engine.finite_result, so a non-finite value of fn, at the
    point or at a probe that crosses a pole (log just above 0), raises
    FloatingPointError naming the op that made it.
    """
    inputs = list(inputs)
    return _check_grads(fn, inputs, _analytic_grads(fn, inputs))


def _hold(method):
    """method, returning its previous output again while its inputs keep
    the same shape, dtype and bytes; it always recomputes while
    finite_result replays, so the replay names the op."""
    last = []

    def held(*args):
        key = [(a.shape, a.dtype, a.tobytes())
               for a in (x.data if isinstance(x, Tensor) else np.asarray(x) for x in args)]
        if E._replaying or not last or last[0] != key:
            last[:] = key, method(*args)
        return last[1]

    return held


@contextlib.contextmanager
def _held_encoders(encoders, probed: np.ndarray):
    """Hold each encoder's encode_latents unless `probed` shares memory with
    a parameter of its conv block, and its contextualize unless `probed`
    shares memory with any of its parameters; the held methods are
    instance attributes, always deleted on exit."""
    try:
        for enc in encoders:
            for name, part in (("encode_latents", enc.children["conv"]), ("contextualize", enc)):
                if not any(np.shares_memory(probed, t.data) for t in part.named_params().values()):
                    setattr(enc, name, _hold(getattr(enc, name)))
        yield
    finally:
        for enc in encoders:
            vars(enc).pop("encode_latents", None)
            vars(enc).pop("contextualize", None)


def _check_grads(fn, inputs: list, analytic: list, encoders=()) -> float:
    """finite_diff_gradcheck given fn's analytic gradients at inputs. Each
    evaluation of fn runs through engine.finite_result, so a non-finite
    value raises naming its op before the determinism test, where
    NaN != NaN would read as nondeterminism.

    While one input's elements are probed, each of `encoders` (those fn
    runs) reuses its conv block's output (encode_latents) if that input is
    none of the block's parameters, and its transformer part's output
    (contextualize) if it is none of the encoder's, for as long as the
    method's inputs keep their bytes; the first probe computes them. A
    reused output is the one the same function of the same bytes made, so
    every evaluation, at the same points, gives the same bits as without
    reuse."""

    def evaluate() -> float:
        out = E.finite_result(lambda: fn(*inputs))
        if out.size != 1:
            raise ValueError("gradcheck requires a scalar-valued function")
        return float(out.data.reshape(()))

    first, second = evaluate(), evaluate()
    if first != second:
        raise RuntimeError("nondeterministic function under gradcheck")

    eps = 1e-5
    # max() would drop a NaN error, so a non-finite element counts as inf
    worst = 0.0 if all(np.isfinite(a).all() for a in analytic) else math.inf
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        aflat = a.reshape(-1)
        with _held_encoders(encoders, t.data):
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = evaluate()
                flat[i] = orig - eps
                fm = evaluate()
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * eps)
                denom = max(abs(aflat[i]), abs(numeric), 1e-8)
                err = abs(aflat[i] - numeric) / denom if math.isfinite(numeric) else math.inf
                worst = max(worst, err)
    return worst


def _draw(specs, rng) -> list:
    """Refresh each spec's tensor in place, in spec order, to
    max(shift + scale * N(0, 1), floor), keeping the array object a model
    or a checked function holds; returns the tensors.

    specs is a list of (tensor, shift, scale, floor)."""
    for t, shift, scale, floor in specs:
        t.data[...] = np.maximum(shift + scale * rng.normal(size=t.data.shape), floor)
    return [t for t, *_ in specs]


def _conditioned_check(fn, specs, rng, encoders=()) -> float:
    """Gradcheck at a probe point, drawn by _draw(specs, rng), whose
    gradient elements avoid the relative-error floor's blind spot.

    Elements with |g| between ~0 and 1e-3 make the floored relative error
    dominated by float64 noise, so such draws are rejected and redrawn;
    after eight rejections the ninth draw is checked untested. Exactly-zero
    gradients (masked-out inputs) are fine. encoders go to _check_grads.
    """
    for tries in range(9):
        inputs = _draw(specs, rng)
        grads = _analytic_grads(fn, inputs)
        if tries == 8 or not any(np.any((a > 1e-12) & (a < 1e-3)) for a in map(np.abs, grads)):
            return _check_grads(fn, inputs, grads, encoders)


def gradcheck_battery(seed: int) -> float:
    """Worst gradcheck error over the engine's primitive set for one seed.

    Inputs are drawn away from the relu kink so central differences stay
    valid; every engine primitive and abs_ appears in at least one
    checked function. The fused CTC op is checked by the CTC term of
    loss_gradcheck_battery.
    """
    rng = np.random.default_rng([seed, 0x6C])

    def drawer(*shapes, shifts=None, floors=None):
        # specs over float64 leaves made once: N(0, 1) plus each shift, floored
        return [(Tensor(np.zeros(s), dtype=np.float64), shift, 1.0, floor)
                for s, shift, floor in zip(shapes, shifts or [0.0] * len(shapes),
                                           floors or [-np.inf] * len(shapes))]

    def weights(*shape):
        # floored clear of 0: redrawing the inputs cannot lift a gradient
        # element equal to a near-zero weight out of the error floor
        return np.maximum(rng.normal(size=shape) + 1.5, 0.25)

    worst = 0.0

    w1 = weights(2, 3)
    worst = max(worst, _conditioned_check(
        lambda a, b: E.add(E.add(
            E.sum_(E.mul(E.add(E.log(a), E.add(E.exp(E.mul(b, Tensor(np.full((), 0.3)))),
                                               E.mul(E.relu(b), Tensor(np.full((), -1.0))))), Tensor(w1))),
            E.sum_(E.mul(E.gelu(b), Tensor(w1)))), E.mean_(E.abs_(b))),
        # log's operand is floored clear of its pole
        drawer((2, 3), (2, 3), shifts=[3.5, 0.0], floors=[0.5, -np.inf]), rng))

    w2 = weights(2, 6)
    worst = max(worst, _conditioned_check(
        lambda p, q: E.sum_(E.mul(E.reshape(E.slice_axis(
            E.linear(p, q, Tensor(np.zeros(5))), 2, 1, 5, step=2), (2, 6)), Tensor(w2))),
        drawer((2, 3, 4), (4, 5)), rng))

    w3 = weights(2, 6)
    worst = max(worst, _conditioned_check(
        lambda v, gg, bv: E.sum_(E.mul(E.softmax(E.layer_norm(v, gg, bv)), Tensor(w3))),
        drawer((2, 6), (6,), (6,), shifts=[0.0, 1.0, 0.0]), rng))

    wl = weights(2, 3, 5)
    worst = max(worst, _conditioned_check(
        lambda x, w, b: E.sum_(E.mul(E.linear(x, w, b), Tensor(wl))),
        drawer((2, 3, 4), (4, 5), (5,)), rng))

    # the second utterance's last key is padding
    wa = weights(2, 4, 4)
    worst = max(worst, _conditioned_check(
        lambda q, k, v: E.sum_(E.mul(E.attention(q, k, v, [4, 3], 2, causal=False), Tensor(wa))),
        drawer((2, 4, 4), (2, 4, 4), (2, 4, 4)), rng))

    # the last case is the non-causal encoder's own conv geometry
    for causal, stride in ((True, 2), (False, 1), (False, 2)):
        wc = weights(2, -(-9 // stride), 4)
        worst = max(worst, _conditioned_check(
            lambda u, v, z, c=causal, s=stride, w=wc: E.sum_(
                E.mul(E.conv1d(u, v, z, s, c), Tensor(w))),
            drawer((2, 9, 3), (3, 3, 4), (4,)), rng))

    idx = np.array([0, 3, 3])
    sel = np.array([[True], [False], [True]])
    w4 = weights(3, 4)
    worst = max(worst, _conditioned_check(
        lambda tt, oo: E.sum_(E.mul(E.where_mask(E.embedding(tt, idx), oo, sel), Tensor(w4))),
        drawer((5, 4), (3, 4)), rng))

    tg = np.array([0, 2, 1, 1])
    worst = max(worst, _conditioned_check(
        lambda p, q, l: E.add(E.sum_(E.cosine_similarity(p, q)), E.sum_(E.cross_entropy(l, tg))),
        drawer((3, 5), (3, 5), (4, 3), shifts=[0.6, -0.4, 0.0]), rng))

    return worst


def _float64_params(modules: dict) -> dict:
    """Cast every parameter of the given modules to float64 in place.

    Returns a flat name -> Tensor map with the dict keys as prefixes.
    """
    named = {}
    for prefix, m in modules.items():
        for k, t in m.named_params().items():
            t.data = t.data.astype(np.float64)
            named[f"{prefix}.{k}"] = t
    return named


def _with_linear_probe(base_fn, tensors, rng):
    """Add sum(w * t) over the checked tensors to a loss function.

    The linear term shifts every gradient element by an O(1) constant
    (central differences are exact on it), so no element can sit at an
    exact cancellation zero or inside the error floor's blind spot.
    """
    probes = [Tensor(rng.normal(size=t.data.shape) + 1.5, dtype=np.float64)
              for t in tensors]

    def fn(*args):
        out = base_fn(*args)
        for t, w in zip(tensors, probes):
            out = E.add(out, E.sum_(E.mul(t, w)))
        return out

    return fn


def loss_gradcheck_battery(seed: int) -> float:
    """Worst gradcheck error over every training loss for one seed.

    Each loss runs on a tiny float64 model and is checked against a
    sample of parameters drawn from every part of its graph: conv front
    end, attention, norms, generators, quantizer codebook, cluster
    classifier, CTC head, and residual adapters.
    """
    rng = np.random.default_rng([seed, 0x6D])
    cfg = PipelineConfig(d_feat=4, d_model=8, n_heads=2, n_blocks=1, d_ffn=16, causal=True)
    feats = rng.normal(size=(2, 14, 4))
    lengths = np.array([14, 11])
    batch = Batch(feats, lengths, utt_ids=("u0", "u1"))
    worst = 0.0

    def check(fn, specs, *encoders):
        # specs are (parameter, shift, scale), drawn unfloored
        tensors = [t for t, _, _ in specs]
        return _conditioned_check(_with_linear_probe(fn, tensors, rng),
                                  [(*spec, -np.inf) for spec in specs], rng, encoders)

    # APC (single lag, squared error)
    enc = build_encoder(cfg, seed)
    obj = EAPCObjective(replace(cfg, apc_shift=2, apc_lags=1, apc_p=2), rng)
    named = _float64_params({"enc": enc, "obj": obj})
    worst = max(worst, check(
        lambda *_: obj.loss(enc, batch),
        [(named["enc.block0.attn.wo.w"], 0.0, 0.5),
         (named["enc.final_ln.g"], 1.0, 0.3),
         (named["enc.conv.conv2.b"], 0.0, 0.5),
         (named["obj.gen0.b"], 0.0, 0.5)], enc))

    # E-APC (two lags, absolute error)
    enc2 = build_encoder(cfg, seed + 1)
    obj2 = EAPCObjective(replace(cfg, apc_shift=1, apc_lags=2, apc_p=1), rng)
    named = _float64_params({"enc": enc2, "obj": obj2})
    worst = max(worst, check(
        lambda *_: obj2.loss(enc2, batch),
        [(named["enc.block0.ffn.lin1.b"], 0.0, 0.5),
         (named["enc.block0.ln2.g"], 1.0, 0.3),
         (named["obj.gen1.b"], 0.0, 0.5),
         (named["enc.block0.attn.wq.b"], 0.0, 0.5)], enc2))

    # bidirectional APC with a shared generator
    pair = BidirectionalAPC(replace(cfg, apc_shift=1, apc_lags=1, apc_p=1,
                                    biapc_scheme="share_generator"), seed)
    named = _float64_params({"pair": pair})
    worst = max(worst, check(
        lambda *_: pair.loss(pair.fwd, batch),
        [(named["pair.fwd.gen.gen0.b"], 0.0, 0.5),
         (named["pair.fwd.model.block0.ln1.g"], 1.0, 0.3),
         (named["pair.rev.model.conv.conv2.b"], 0.0, 0.5)], pair.fwd, pair.rev))

    # contrastive with quantized targets and diversity. The quantizer's
    # hard assignment makes the forward pass piecewise-constant in
    # anything upstream of the argmax (straight-through gradients are
    # biased there by design), so the check targets parameters the loss
    # is genuinely differentiable in: the mask embedding and context
    # blocks, and the codebook, which enters linearly after assignment.
    enc3 = build_encoder(cfg, seed + 2)
    cobj = ContrastiveObjective(
        replace(cfg, n_negatives=3, mask_prob=0.6, span_len=2, n_codes=4), rng)
    feats_c = rng.normal(size=(2, 20, 4))
    lengths_c = np.array([20, 17])
    named = _float64_params({"enc": enc3, "obj": cobj})
    worst = max(worst, check(
        lambda *_: cobj.loss(enc3, Batch(feats_c, lengths_c),
                             np.random.default_rng([seed, 0x77]), step=3),
        [(named["obj.mask_emb"], 0.0, 0.5),
         (named["obj.quantizer.codebook"], 0.0, 1.0),
         (named["enc.block0.attn.wv.b"], 0.0, 0.5),
         (named["enc.final_ln.g"], 1.0, 0.3)], enc3))

    # the quantizer's soft path: diversity is smooth in the projection
    quant = cobj.children["quantizer"]
    z = Tensor(rng.normal(size=(2, 4, 8)))
    div_wts = np.ones((2, 4), dtype=np.float64)

    def div_fn(*_):
        _, soft = quant(z, np.random.default_rng([seed, 0x7C]), tau=1.5)
        return GumbelQuantizer.diversity_loss(soft, div_wts)

    worst = max(worst, check(
        div_fn,
        [(named["obj.quantizer.proj.w"], 0.0, 0.5),
         (named["obj.quantizer.proj.b"], 0.0, 0.5)]))

    # masked cluster prediction on k-means targets
    enc4 = build_encoder(cfg, seed + 3)
    mobj = MaskedClusterObjective(
        replace(cfg, n_clusters=3, mask_prob=0.5, span_len=2, cluster_alpha=0.5), rng)
    gm = [group_mean_features(feats[i], int(lengths[i])) for i in range(2)]
    centers = kmeans_fit(np.concatenate(gm).astype(np.float32), 3, rng)
    mobj.targets = {f"u{i}": kmeans_assign(gm[i].astype(np.float32), centers) for i in range(2)}
    named = _float64_params({"enc": enc4, "obj": mobj})
    worst = max(worst, check(
        lambda *_: mobj.loss(enc4, batch, np.random.default_rng([seed, 0x78])),
        [(named["obj.mask_emb"], 0.0, 0.5),
         (named["obj.classifier.w"], 0.0, 0.5),
         (named["obj.classifier.b"], 0.0, 0.5),
         (named["enc.block0.attn.wk.b"], 0.0, 0.5)], enc4))

    # CTC through an encoder carrying random-initialized adapters
    enc5 = build_encoder(cfg, seed + 4)
    enc5.insert_adapters(2, np.random.default_rng([seed, 0x79]))
    enc5.reinit_adapters(np.random.default_rng([seed, 0x79]))
    head = CTCHead(np.random.default_rng([seed, 0x7A]), 8, vocab_size=3)
    named = _float64_params({"enc": enc5, "head": head})
    targets = [[1, 2], [2]]

    def ctc_fn(*_):
        hidden, out_lengths = enc5(feats, lengths)
        return ctc_loss_batch(head(hidden), out_lengths, targets)

    worst = max(worst, check(
        ctc_fn,
        [(named["head.out.w"], 0.0, 0.5),
         (named["head.out.b"], 0.0, 0.5),
         (named["enc.adapter1.down.w"], 0.0, 0.5),
         (named["enc.adapter1.up.w"], 0.0, 0.5),
         (named["enc.adapter0.ln.g"], 1.0, 0.3)], enc5))

    # residual adapter forward on its own
    ada = ResidualAdapter(np.random.default_rng([seed, 0x7B]), 8, 2,
                          random_init=True)
    named = _float64_params({"ada": ada})
    xa = rng.normal(size=(2, 5, 8))
    wa = rng.normal(size=(2, 5, 8)) + 0.5

    worst = max(worst, check(
        lambda *_: E.sum_(E.mul(ada(Tensor(xa)), Tensor(wa))),
        [(named["ada.down.w"], 0.0, 0.5),
         (named["ada.up.w"], 0.0, 0.5),
         (named["ada.ln.g"], 1.0, 0.3),
         (named["ada.ln.b"], 0.0, 0.5)]))

    return worst

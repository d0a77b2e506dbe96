"""Self-supervised objectives over encoder hidden states.

Five objectives share one call shape, loss(encoder, batch, rng, step),
with batch a padded data.Batch: autoregressive prediction (single lag),
its multi-lag extension, a bidirectional pair with weight sharing,
masked contrastive prediction with a Gumbel-softmax codebook, and masked
cluster-id prediction with k-means targets. Each is built from a
PipelineConfig and reads its settings under their PipelineConfig names.
The two masked objectives derive from MaskedPrediction, which owns their
one mask embedding and their one masking step (masked_context).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import engine as E
from .data import Batch
from .engine import Tensor
from .model import Encoder, Linear, Module, build_encoder

if TYPE_CHECKING:
    from .training import PipelineConfig

GROUP = Encoder.subsample_factor  # frames per encoder output step


def valid_groups(lengths) -> np.ndarray:
    """Number of complete GROUP-frame groups per utterance."""
    return np.asarray(lengths) // GROUP


def stack_targets(feats: np.ndarray, lengths):
    """Concatenate each group of GROUP consecutive frames into one target row.

    Returns (stacked (B, G, GROUP*D), valid (B,)) where G = ceil(T/GROUP);
    trailing partial groups are zero-padded and not counted as valid.
    """
    x = np.asarray(feats)
    B, T, D = x.shape
    G = -(-T // GROUP)
    padded = np.zeros((B, G * GROUP, D), dtype=x.dtype)
    padded[:, :T] = x
    stacked = padded.reshape(B, G, GROUP * D)
    return stacked, valid_groups(lengths)


def apc_loss(pred: Tensor, target: np.ndarray, mask: np.ndarray, p: int = 1) -> Tensor:
    """Sum of |pred - target|^p over positions where mask is True.

    pred (B, G, D) on the tape, target and boolean mask (B, G) plain
    arrays.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    diff = E.add(pred, Tensor(-np.asarray(target, dtype=pred.dtype)))
    err = E.abs_(diff) if p == 1 else E.mul(diff, diff)
    weights = np.asarray(mask, dtype=pred.dtype)[..., None]
    return E.sum_(E.mul(err, Tensor(weights)))


class EAPCObjective(Module):
    """Future-frame regression with one linear generator per lag.

    Lags run from apc_shift (in frame groups): one lag for the 'apc'
    objective, which is plain autoregressive prediction, else apc_lags
    consecutive lags whose losses are summed. Targets are GROUP * d_feat
    wide; apc_p picks L1 or squared-L2 regression.
    """

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        n_lags = 1 if cfg.objective == "apc" else cfg.apc_lags
        self.lags = range(cfg.apc_shift, cfg.apc_shift + n_lags)
        self.d_target = GROUP * cfg.d_feat
        for i in range(n_lags):
            self.children[f"gen{i}"] = Linear(rng, cfg.d_model, self.d_target)

    def loss(self, encoder: Encoder, batch: Batch, rng=None, step: int = 0) -> Tensor:
        """The sum over lags of apc_loss, divided by the number of target
        elements the lags score (in float32); rng and step are unused."""
        feats, lengths = batch.feats, batch.lengths
        hidden, out_lengths = encoder(feats, lengths)
        stacked, valid = stack_targets(feats, lengths)
        # cap at the longest valid row so trailing padding cannot change
        # the reduction, not even in the last bit
        G = min(hidden.shape[1], stacked.shape[1], int(np.max(valid, initial=0)))
        total = None
        count = 0
        for i, lag in enumerate(self.lags):
            pred = self.children[f"gen{i}"](hidden)
            target = np.zeros_like(stacked)
            if lag < stacked.shape[1]:
                target[:, : stacked.shape[1] - lag] = stacked[:, lag:]
            mask = np.arange(G)[None, :] < np.maximum(valid[:, None] - lag, 0)
            if not mask.any():
                continue
            count += int(mask.sum()) * self.d_target
            term = apc_loss(E.slice_axis(pred, 1, 0, G), target[:, :G], mask, p=self.cfg.apc_p)
            total = term if total is None else E.add(total, term)
        if total is None:
            raise ValueError("no valid prediction targets at any lag")
        return E.mul(total, Tensor(np.asarray(1.0 / count, dtype=np.float32)))


def reverse_group_blocks(feats: np.ndarray, lengths) -> np.ndarray:
    """Reverse the order of complete frame groups per utterance.

    Frames inside a group keep their order; the trailing partial group
    and padding stay in place. A palindromic group sequence round-trips
    to itself exactly.
    """
    out = np.array(feats, copy=True)
    for b, n in enumerate(np.asarray(lengths)):
        g = int(n) // GROUP
        if g == 0:
            continue
        blocks = out[b, : g * GROUP].reshape(g, GROUP, -1)
        out[b, : g * GROUP] = blocks[::-1].reshape(g * GROUP, -1)
    return out


class BidirectionalAPC(Module):
    """Forward and time-reversed autoregressive models with weight sharing.

    Children 'fwd' and 'rev' each hold an encoder 'model' and its
    generator 'gen'. cfg.biapc_scheme picks the sharing: 'none' (two
    independent models),
    'share_generator', 'share_gen_encoder' (generator + every encoder
    module but the conv front end and its adapter), 'share_all' (every
    parameter aliased). A shared tensor is named once, under 'fwd'.
    """

    SCHEMES = ("none", "share_generator", "share_gen_encoder", "share_all")

    def __init__(self, cfg: PipelineConfig, seed: int):
        super().__init__()
        self.scheme = cfg.biapc_scheme
        self.fwd = build_encoder(cfg, seed)
        self.rev = build_encoder(cfg, seed + 1)
        self.fwd_obj = EAPCObjective(cfg, np.random.default_rng([seed, 0x0B1]))
        self.rev_obj = EAPCObjective(cfg, np.random.default_rng([seed + 1, 0x0B1]))
        for name, enc, obj in (("fwd", self.fwd, self.fwd_obj), ("rev", self.rev, self.rev_obj)):
            self.children[name] = Module()
            self.children[name].children.update(model=enc, gen=obj)
        self._apply_sharing()

    def _apply_sharing(self) -> None:
        """Alias the scheme's shared modules; adapters follow their host
        module, so insert_adapters runs this again."""
        if self.scheme != "none":
            self.rev_obj.alias_from(self.fwd_obj)
        if self.scheme in ("share_gen_encoder", "share_all"):
            for name, child in self.rev.children.items():
                if self.scheme == "share_all" or name not in ("conv", "adapter0"):
                    child.alias_from(self.fwd.children[name])

    def insert_adapters(self, d_adapter: int, rng: np.random.Generator) -> None:
        self.fwd.insert_adapters(d_adapter, rng)
        self.rev.insert_adapters(d_adapter, rng)
        self._apply_sharing()

    def loss(self, encoder: Encoder, batch: Batch, rng=None, step: int = 0) -> Tensor:
        """Forward term on `encoder` (the pair's 'fwd'), reverse term on 'rev'."""
        fwd_loss = self.fwd_obj.loss(encoder, batch)
        rev_feats = reverse_group_blocks(np.asarray(batch.feats), batch.lengths)
        rev_loss = self.rev_obj.loss(self.rev, batch._replace(feats=rev_feats))
        return E.add(fwd_loss, rev_loss)

    def average_directions(self) -> Encoder:
        """Average unshared forward/reverse weights elementwise, in place.

        Shared tensors pass through untouched. Both directions end up
        identical, so applying this twice is a no-op. Returns the forward
        encoder (now carrying the averaged weights) for downstream use.
        """
        for pair in ((self.fwd, self.rev), (self.fwd_obj, self.rev_obj)):
            f, r = pair[0].named_params(), pair[1].named_params()
            for k in f:
                if f[k] is not r[k]:
                    avg = (f[k].data.astype(np.float64) + r[k].data.astype(np.float64)) / 2.0
                    f[k].data[...] = avg  # in place, as load_params writes
                    r[k].data[...] = f[k].data
        return self.fwd


# ---------------------------------------------------------------------------
# span masking shared by the masked objectives
# ---------------------------------------------------------------------------


def sample_mask_spans(valid_len: int, rng: np.random.Generator,
                      mask_prob: float, span_len: int) -> np.ndarray:
    """Boolean mask over [0, valid_len): union of spans with random starts.

    Each position starts a span with probability mask_prob; if none fires,
    one start is forced so short utterances still contribute masked
    positions. An empty range draws nothing from rng.
    """
    mask = np.zeros(valid_len, dtype=bool)
    starts = np.nonzero(rng.random(valid_len) < mask_prob)[0]
    if starts.size == 0 and valid_len:
        starts = np.array([int(rng.integers(valid_len))])
    for s in starts:
        mask[s : s + span_len] = True
    return mask


class MaskedPrediction(Module):
    """Base of the masked objectives: their head (one child, named by the
    keyword; it draws from rng first), the learned mask embedding, and the
    span-masked forward pass both losses start from."""

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator, **head: Module):
        super().__init__()
        self.cfg = cfg
        self.children.update(head)
        self.p["mask_emb"] = Tensor(
            rng.uniform(-0.5, 0.5, size=cfg.d_model).astype(np.float32), requires_grad=True
        )

    def masked_context(self, encoder: Encoder, batch: Batch, rng: np.random.Generator):
        """Encode the latents, span-mask each utterance's complete frame
        groups, put mask_emb in place of the masked latents and
        contextualize. Returns (latents, context, mask (B, G), valid (B,))."""
        latents, out_lengths = encoder.encode_latents(batch.feats, batch.lengths)
        G = latents.shape[1]
        valid = np.minimum(valid_groups(batch.lengths), G)
        mask = np.zeros((len(valid), G), dtype=bool)
        for b, n in enumerate(valid):
            mask[b, :n] = sample_mask_spans(int(n), rng, self.cfg.mask_prob, self.cfg.span_len)
        masked = E.where_mask(self.p["mask_emb"], latents, mask[..., None])
        return latents, encoder.contextualize(masked, out_lengths), mask, valid


# ---------------------------------------------------------------------------
# contrastive objective with Gumbel-softmax quantization
# ---------------------------------------------------------------------------


def gumbel_tau(step: int) -> float:
    """Linear anneal from 2.0 to 0.5 over 1000 steps, then constant."""
    return 2.0 - 1.5 * min(max(step, 0) / 1000, 1.0)


class GumbelQuantizer(Module):
    """Latents -> nearest of V learned codes, hard forward / soft backward."""

    def __init__(self, rng, d_latent: int, n_codes: int):
        super().__init__()
        self.children["proj"] = Linear(rng, d_latent, n_codes)
        limit = math.sqrt(6.0 / (n_codes + d_latent))
        self.p["codebook"] = Tensor(
            rng.uniform(-limit, limit, size=(n_codes, d_latent)).astype(np.float32),
            requires_grad=True,
        )

    def __call__(self, z: Tensor, rng: np.random.Generator, tau: float):
        logits = self.children["proj"](z)
        u = rng.random(logits.shape)
        noise = -np.log(-np.log(np.clip(u, 1e-12, 1.0 - 1e-12)))
        noisy = E.mul(E.add(logits, Tensor(noise.astype(np.float32))),
                      Tensor(np.asarray(1.0 / tau, dtype=np.float32)))
        soft = E.softmax(noisy)
        hard = np.zeros_like(soft.data)
        np.put_along_axis(hard, np.argmax(soft.data, axis=-1)[..., None], 1.0, axis=-1)
        # forward emits hard, backward follows soft
        code = E.add(soft, Tensor(hard - soft.data))
        codebook = self.p["codebook"]
        quantized = E.linear(code, codebook, Tensor(np.zeros(codebook.shape[-1], dtype=codebook.dtype)))
        return quantized, soft

    @staticmethod
    def diversity_loss(soft: Tensor, weights: np.ndarray) -> Tensor:
        """(V - exp(H(pbar))) / V over the weighted mean code distribution."""
        v = soft.shape[-1]
        w = np.asarray(weights, dtype=soft.dtype)
        total = float(w.sum())
        if total <= 0:
            raise ValueError("diversity loss needs at least one weighted position")
        pbar = E.mul(
            E.sum_(E.mul(soft, Tensor(w[..., None])), axis=tuple(range(soft.ndim - 1))),
            Tensor(np.asarray(1.0 / total, dtype=soft.dtype)),
        )
        plogp = E.sum_(E.mul(pbar, E.log(E.add(pbar, Tensor(np.asarray(1e-10, dtype=soft.dtype))))))
        ent = E.mul(plogp, Tensor(np.asarray(-1.0, dtype=plogp.dtype)))
        # (exp(H) - V) * (-1/V): the bits of (V - exp(H)) * (1/V) both ways,
        # but for the sign of a zero
        return E.mul(E.add(E.exp(ent), Tensor(np.asarray(-float(v), dtype=soft.dtype))),
                     Tensor(np.asarray(-1.0 / v, dtype=soft.dtype)))


class ContrastiveObjective(MaskedPrediction):
    """Identify the quantized latent behind each masked position among
    distractors sampled from the other masked positions of the same
    utterance."""

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        super().__init__(cfg, rng, quantizer=GumbelQuantizer(rng, cfg.d_model, cfg.n_codes))

    def loss(self, encoder: Encoder, batch: Batch, rng: np.random.Generator, step: int = 0) -> Tensor:
        cfg = self.cfg
        latents, context, mask, valid = self.masked_context(encoder, batch, rng)
        B, G, D = latents.shape

        # quantize only the valid positions, packed row-wise, so the gumbel
        # noise and negative draws cannot depend on how much padding the
        # batch carries
        offsets = np.concatenate([[0], np.cumsum(valid)]).astype(np.int64)
        pack_idx = np.flatnonzero(np.arange(G) < valid[:, None])
        packed = E.embedding(E.reshape(latents, (B * G, D)), pack_idx)  # (Nv, D)
        quantized, soft = self.children["quantizer"](packed, rng, gumbel_tau(step))

        # anchor rows and their candidate rows (positive first, then negatives)
        anchor_idx, cand_idx = [], []
        for b in range(B):
            masked = np.nonzero(mask[b])[0]
            if masked.size < 2:
                continue  # no distractor pool for this utterance
            for t in masked:
                pool = masked[masked != t]
                replace = pool.size < cfg.n_negatives
                negs = rng.choice(pool, size=cfg.n_negatives, replace=replace)
                anchor_idx.append(b * G + t)
                cand_idx.append(offsets[b] + np.concatenate([[t], negs]))
        if not anchor_idx:
            raise ValueError("no contrastive anchors in batch")
        anchor_idx, cand_idx = np.asarray(anchor_idx), np.asarray(cand_idx)
        ctx_rows = E.embedding(E.reshape(context, (B * G, D)), anchor_idx)  # (N, D)
        cand_rows = E.embedding(quantized, cand_idx)  # (N, K+1, D)
        sims = E.cosine_similarity(E.reshape(ctx_rows, (len(anchor_idx), 1, D)), cand_rows)
        logits = E.mul(sims, Tensor(np.asarray(1.0 / cfg.tau_cos, dtype=np.float32)))
        nll = E.cross_entropy(logits, np.zeros(len(anchor_idx), dtype=np.int64))
        contrastive = E.mean_(nll)
        pack_w = mask.reshape(-1)[pack_idx].astype(np.float32)
        diversity = GumbelQuantizer.diversity_loss(soft, pack_w)
        return E.add(contrastive, E.mul(diversity, Tensor(np.asarray(cfg.diversity_weight, dtype=np.float32))))


# ---------------------------------------------------------------------------
# masked cluster prediction with k-means targets
# ---------------------------------------------------------------------------


def kmeans_fit(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding then at most 25 Lloyd iterations; empty clusters
    are reseeded to the point farthest from its assigned center. The loop
    ends early when the labels repeat those of an iteration that reseeded
    nothing: each center is then its cluster's mean, a fixed point.
    Working memory is O(n·d + n·k) for n points of d dims and k clusters."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < k:
        raise ValueError(f"fewer points than clusters: {n} points, {k} clusters")
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[i] = x[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1))
    prev = None  # the last iteration's labels, unless it reseeded a cluster
    for _ in range(25):
        dists = _sq_dists(x, centers)
        labels = dists.argmin(axis=1)
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        for i in range(k):
            pts = x[labels == i]
            if len(pts) == 0:
                worst = int(np.argmax(dists[np.arange(n), labels]))
                centers[i] = x[worst]
                labels[worst] = i
                prev = None
            else:
                centers[i] = pts.mean(axis=0)
    return centers


def kmeans_assign(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each point's nearest center, in O(n·d + n·k) working memory. Each
    call loops over the centers, so label many rows in one call."""
    return _sq_dists(np.asarray(x, dtype=np.float64), centers).argmin(axis=1)


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, one center at a time: no (n, k, d) temporary."""
    return np.stack([((x - c) ** 2).sum(axis=1) for c in centers], axis=1)


def group_mean_features(feats: np.ndarray, length: int) -> np.ndarray:
    """Mean feature vector of each complete frame group in one utterance."""
    g = int(length) // GROUP
    return np.asarray(feats)[: g * GROUP].reshape(g, GROUP, np.shape(feats)[-1]).mean(axis=1)


class MaskedClusterObjective(MaskedPrediction):
    """Predict the k-means cluster of each masked group from context.

    targets (utt_id -> one label per complete frame group, -1 for none)
    is filled by prepare() and is not checkpointed. cluster_alpha weighs
    the masked term; 1 - cluster_alpha goes to the unmasked one."""

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        super().__init__(cfg, rng, classifier=Linear(rng, cfg.d_model, cfg.n_clusters))
        self.targets = {}

    def prepare(self, corpus, rng: np.random.Generator, encoder: Encoder | None = None) -> None:
        """Fit k-means centers on the corpus and label every utterance of it,
        from group-mean features or, given an encoder, its hidden states."""
        rows = [cluster_features(u.feats, u.feats.shape[0], encoder) for u in corpus]
        points = np.concatenate(rows, axis=0)
        labels = kmeans_assign(points, kmeans_fit(points, self.cfg.n_clusters, rng))
        self.targets = dict(zip([u.utt_id for u in corpus], np.split(labels, np.cumsum([len(r) for r in rows])[:-1])))

    def loss(self, encoder: Encoder, batch: Batch, rng: np.random.Generator, step: int = 0) -> Tensor:
        missing = [u for u in batch.utt_ids if u not in self.targets]
        if missing:
            raise RuntimeError(f"cluster targets not prepared for utterances {missing[:3]}")
        _, context, mask, _ = self.masked_context(encoder, batch, rng)
        # labels pick the cross-entropy positions: -1 past each utterance's targets
        lab = np.full(mask.shape, -1, dtype=np.int64)
        for i, u in enumerate(batch.utt_ids):
            lab[i, : len(self.targets[u])] = self.targets[u]
        ce = E.cross_entropy(self.children["classifier"](context), np.maximum(lab, 0))  # (B, G)
        alpha = self.cfg.cluster_alpha
        total = None
        for weight, sel in ((alpha, mask & (lab >= 0)), (1.0 - alpha, ~mask & (lab >= 0))):
            count = int(sel.sum())
            if weight == 0.0 or count == 0:
                continue
            term = E.sum_(E.mul(ce, Tensor(sel.astype(np.float32) * (weight / count))))
            total = term if total is None else E.add(total, term)
        if total is None:
            raise ValueError("no labeled positions for cluster prediction")
        return total


def cluster_features(feats: np.ndarray, length: int, encoder: Encoder | None = None) -> np.ndarray:
    """One k-means input row per complete frame group of an utterance:
    the group's mean feature vector, or with an encoder its hidden state,
    from a run through engine.finite_result."""
    if encoder is None:
        return group_mean_features(feats, length)
    hidden = E.finite_result(lambda: encoder(feats[None, :, :], np.array([length]))[0])
    return hidden.data[0, : int(length) // GROUP]

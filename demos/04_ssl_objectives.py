"""Five self-supervised objectives over one batch of unlabeled features.

All of them train the same encoder through one call,
loss(encoder, batch, rng, step); they differ only in what they ask it
to predict: future frames (APC / E-APC, causal), both directions at once
(Bi-APC), a quantized latent among distractors (contrastive), or the
k-means cluster of each masked region (masked cluster prediction).
"""

from dataclasses import replace

import numpy as np

from sslasr.data import Batch
from sslasr.engine import Tape
from sslasr.engine import backward as run_backward
from sslasr.model import build_encoder
from sslasr.objectives import (
    BidirectionalAPC,
    ContrastiveObjective,
    EAPCObjective,
    MaskedClusterObjective,
    group_mean_features,
    kmeans_assign,
    kmeans_fit,
)
from sslasr.training import PipelineConfig

# every model and objective reads its settings from one PipelineConfig
cfg = PipelineConfig(d_feat=8, d_model=16, n_heads=2, n_blocks=1,
                     d_ffn=32, causal=True)
rng = np.random.default_rng(0)
feats = rng.normal(size=(4, 32, 8)).astype(np.float32)
lengths = np.array([32, 29, 24, 20])
batch = Batch(feats, lengths, utt_ids=("a", "b", "c", "d"))

print("== future-frame regression (APC and its multi-lag extension) ==")
enc = build_encoder(cfg, seed=1)
apc = EAPCObjective(replace(cfg, objective="apc", apc_shift=1, apc_p=1),
                    np.random.default_rng(2))
eapc = EAPCObjective(replace(cfg, objective="eapc", apc_shift=1, apc_lags=3, apc_p=1),
                     np.random.default_rng(3))
print(f"APC   (predict 1 group ahead)        loss {float(apc.loss(enc, batch).data):.4f}")
print(f"E-APC (predict lags 1..3, one generator each) "
      f"loss {float(eapc.loss(enc, batch).data):.4f}")

print()
print("== bidirectional APC with four sharing schemes ==")
for scheme in BidirectionalAPC.SCHEMES:
    pair = BidirectionalAPC(replace(cfg, apc_shift=1, apc_lags=1, apc_p=1,
                                    biapc_scheme=scheme), seed=4)
    n_tensors = len(pair.named_params())
    loss = float(pair.loss(pair.fwd, batch).data)
    print(f"{scheme:18s} {n_tensors:3d} unique tensors, loss {loss:.4f}")
# after pretraining, the two directions collapse into one inference encoder
pair = BidirectionalAPC(replace(cfg, apc_shift=1, apc_lags=1, apc_p=1,
                                biapc_scheme="none"), seed=4)
merged = pair.average_directions()
print(f"average_directions() -> a single encoder with "
      f"{len(merged.named_params())} tensors (elementwise mean of both)")

print()
print("== contrastive objective with gumbel-softmax quantization ==")
enc_c = build_encoder(cfg, seed=5)
contr = ContrastiveObjective(
    replace(cfg, n_negatives=5, mask_prob=0.3, span_len=2, n_codes=8),
    np.random.default_rng(6))
loss = contr.loss(enc_c, batch, np.random.default_rng(7), step=0)
print(f"masked positions pick their own quantized latent among 5 negatives")
print(f"loss (infonce + 0.1 * diversity) {float(loss.data):.4f}")

print()
print("== masked cluster prediction on k-means targets ==")
enc_m = build_encoder(cfg, seed=8)
mc = MaskedClusterObjective(
    replace(cfg, n_clusters=6, mask_prob=0.3, span_len=2, cluster_alpha=1.0),
    np.random.default_rng(9))
# unit discovery: k-means over group-averaged input features
groups = [group_mean_features(feats[i], int(lengths[i]))
          for i in range(len(feats))]
centers = kmeans_fit(np.concatenate(groups).astype(np.float32), 6,
                     np.random.default_rng(10))
# the objective keeps one label per group, keyed by utterance id
mc.targets = {u: kmeans_assign(g.astype(np.float32), centers)
              for u, g in zip(batch.utt_ids, groups)}
with Tape() as tape:
    loss = mc.loss(enc_m, batch, np.random.default_rng(11))
run_backward(loss, tape)
grads = sum(1 for t in {**enc_m.named_params(), **mc.named_params()}.values()
            if t.grad is not None)
print(f"6 clusters from {sum(len(g) for g in groups)} group vectors")
print(f"loss {float(loss.data):.4f}; gradients reached {grads} tensors")

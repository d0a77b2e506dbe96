"""The transformer encoder: causal masking, subsampling, residual adapters.

The encoder stacks two stride-2 convolutions (4x subsampling) under
causal self-attention blocks. Residual adapters are tiny bottleneck
modules inserted after each block; they start as exact identities so
dropping them in never disturbs a trained model.
"""

import numpy as np

from sslasr.engine import Tensor
from sslasr.model import ResidualAdapter, build_encoder
from sslasr.training import PipelineConfig

cfg = PipelineConfig(d_feat=8, d_model=32, n_heads=4, n_blocks=2,
                     d_ffn=64, causal=True)
enc = build_encoder(cfg, seed=0)

print("== shapes and subsampling ==")
rng = np.random.default_rng(0)
feats = rng.normal(size=(2, 24, 8)).astype(np.float32)
lengths = [24, 17]
hidden, out_lens = enc(feats, lengths)
print(f"input  (2, 24, 8) with lengths {lengths}")
print(f"output {hidden.shape} with lengths {out_lens.tolist()}  (ceil(n/4))")

print()
print("== causal mode cannot see the future ==")
poked = feats.copy()
poked[:, 12:] += 10.0  # large perturbation from input frame 12 onward
changed, _ = enc(poked, lengths)
same = np.array_equal(hidden.data[:, :3], changed.data[:, :3])
moved = float(np.abs(hidden.data[:, 3:] - changed.data[:, 3:]).max())
print(f"outputs 0..2 (inputs 0..11) bit-identical: {same}")
print(f"outputs from position 3 on shift by up to {moved:.3f}")

print()
print("== adapters: cheap, removable, identity at birth ==")
for d in (8, 64, 256):
    ada = ResidualAdapter(np.random.default_rng(d), cfg.d_model, d)
    n = sum(t.data.size for t in ada.named_params().values())
    print(f"bottleneck {d:3d} -> {n:6d} parameters "
          f"(= 2*{cfg.d_model}*{d} + {d} + 3*{cfg.d_model})")

before = hidden.data.copy()
enc.insert_adapters(8, np.random.default_rng(1))  # up-projection starts at zero
with_adapters, _ = enc(feats, lengths)
print(f"inserting zero-init adapters changes nothing: "
      f"{np.array_equal(before, with_adapters.data)}")

enc.reinit_adapters(np.random.default_rng(2))  # now random, output moves
after, _ = enc(feats, lengths)
print(f"after random re-init the outputs move:         "
      f"{not np.allclose(before, after.data)}")

backbone = [k for k in enc.named_params() if "adapter" not in k]
adapters = [k for k in enc.named_params() if "adapter" in k]
print(f"parameter split: {len(backbone)} backbone tensors, "
      f"{len(adapters)} adapter tensors")

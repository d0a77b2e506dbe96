"""The full recipe: pretrain on one domain, adapt cheaply to another.

Stage 1 pretrains the encoder with a self-supervised objective on the
source domain. Stage 2 freezes everything and trains only freshly
inserted adapters on unlabeled target audio. Stage 3 finetunes with CTC
on a little labeled target data. The same synthetic task also runs the
two obvious baselines for comparison.
"""

import statistics
import tempfile
import time
from pathlib import Path

from sslasr.io import load_checkpoint
from sslasr.training import (
    PipelineConfig, build_corpora, run_adapt, run_evaluate, run_finetune, run_pretrain,
)

# a narrower copy of the default task so the demo stays under a minute;
# drop the overrides to reproduce the full comparison
cfg = dict(
    n_train=150, n_target=150, n_eval=80,
    d_model=32, d_ffn=64,
)
stories = {
    "draft": "pretrain -> adapter-only adapt -> CTC finetune",
    "no_adapt": "pretrain -> CTC finetune",
    "scratch": "random init -> CTC finetune",
}

# the stages run_pipeline chains, except that draft and no_adapt, which
# pretrain identically for a seed, share one pretrain checkpoint; each of
# their times includes that pretrain
print("three pipelines, three seeds each (TER = token error rate)\n")
ters = {variant: [] for variant in stories}
secs = dict.fromkeys(stories, 0.0)
with tempfile.TemporaryDirectory() as root:
    for seed in range(3):
        seed_cfg = PipelineConfig(seed=seed, **cfg)
        corpora = build_corpora(seed_cfg)
        work = Path(root) / f"seed{seed}"
        t0 = time.time()
        pre = run_pretrain(seed_cfg, work / "source", corpus=corpora["source_train"])
        pretrain_s = time.time() - t0
        for variant in stories:
            t0 = time.time()
            if variant == "draft":
                ckpt = run_adapt(seed_cfg, pre, work / variant, mode="draft",
                                 corpus=corpora["target_train"])
            elif variant == "no_adapt":
                ckpt = pre
            else:
                ckpt = run_pretrain(seed_cfg, work / variant, corpus=corpora["source_train"], steps=0)
            ckpt = run_finetune(seed_cfg, ckpt, work / variant, corpus=corpora["target_train"])
            report = run_evaluate(seed_cfg, ckpt, corpus=corpora["target_eval"])
            ters[variant].append(report["ter"])
            secs[variant] += time.time() - t0 + (pretrain_s if variant != "scratch" else 0.0)

    results = {}
    for variant, story in stories.items():
        results[variant] = statistics.median(ters[variant])
        print(f"{variant:9s} {story}")
        print(f"          TERs {[f'{t:.3f}' for t in ters[variant]]}, "
              f"median {results[variant]:.3f}  ({secs[variant]:.1f}s)\n")

    print(f"adaptation helps: {results['draft']:.3f} <= {results['no_adapt']:.3f} "
          f"<= {results['scratch']:.3f}")

    print()
    print("== what the adapter stage actually touches ==")
    final = load_checkpoint(Path(root) / "seed0" / "draft" / "finetune_full.ckpt")
print("per-parameter-group step counts (f = backbone, ada = adapters, "
      "g = generators):")
print(f"  {final.provenance}")
print("the adapt stage moved only 'ada'; the backbone waited for finetuning")
print()
print("the CLI runs the same stages one at a time:")
print("  sslasr gen-corpus / pretrain / adapt / finetune / evaluate / sweep")

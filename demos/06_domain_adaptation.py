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
from sslasr.training import sweep

# a narrower copy of the default task so the demo stays under a minute;
# drop the overrides to reproduce the full comparison
cfg = dict(n_train=150, n_target=150, n_eval=80, d_model=32, d_ffn=64)
stories = {
    "draft": "pretrain -> adapter-only adapt -> CTC finetune",
    "no_adapt": "pretrain -> CTC finetune",
    "scratch": "random init -> CTC finetune",
}

# a sweep over seed runs all three variants at each seed, in <root>/seed=<n>/;
# draft and no_adapt share that seed's one pretrain
print("three pipelines, three seeds each (TER = token error rate)\n")
ters = {variant: [] for variant in stories}
with tempfile.TemporaryDirectory() as root:
    t0 = time.time()
    for seed, reports in sweep(cfg, "seed", range(3), root, tuple(stories)):
        for variant, report in reports.items():
            ters[variant].append(report["ter"])
    secs = time.time() - t0

    results = {variant: statistics.median(t) for variant, t in ters.items()}
    for variant, story in stories.items():
        print(f"{variant:9s} {story}")
        print(f"          TERs {[f'{t:.3f}' for t in ters[variant]]}, median {results[variant]:.3f}\n")

    print(f"adaptation helps: {results['draft']:.3f} <= {results['no_adapt']:.3f} "
          f"<= {results['scratch']:.3f}  ({secs:.1f}s for the three seeds)")

    print()
    print("== what the adapter stage actually touches ==")
    final = load_checkpoint(Path(root) / "seed=0" / "draft" / "finetune_full.ckpt")
print("per-parameter-group step counts (f = backbone, ada = adapters, "
      "g = generators):")
print(f"  {final.provenance}")
print("the adapt stage moved only 'ada'; the backbone waited for finetuning")
print()
print("the CLI runs the same stages one at a time:")
print("  sslasr gen-corpus / pretrain / adapt / finetune / evaluate / sweep")

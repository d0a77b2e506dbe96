"""Digest every file the training pipeline writes, to compare two trees byte for byte.

    python3 tools/output_matrix.py OUT.json

Runs run_pipeline once per recipe, with all four variants (draft, saft,
no_adapt, scratch) on the one pretrain in <recipe>/ and each variant's
other stages in <recipe>/<variant>/. The recipes: each objective, Bi-APC
once per sharing scheme, the two masked objectives once more on a
non-causal encoder (their setting in the paper). Plus one draft chain that
finetunes under every finetune mode, all on tiny configs. spec_augment/
finetunes the chain's adapt checkpoint once more with SpecAugment on and
enough steps to reach the learning-rate decay. Each run's evaluation
report is written beside its checkpoints and metrics logs. gradcheck.json
holds the gradient oracle's worst errors, as float.hex, for both batteries
over seeds 0-1. commands(), every `sslasr` subcommand once, makes
this the one list of programs (tools/program_lines.py traces it): corpus/
holds what gen-corpus and featurize write, cli/ what pretrain, adapt,
finetune, evaluate --report and sweep write from cli/tiny.cfg, a --config
file of tiny_config(). Reports name their checkpoint by file name, so no
file holds the run directory's path.
OUT.json maps every written file, by its path relative to the run
directory, to its sha256. A refactor that must not change outputs runs
this script in both checkouts (the package is imported from the src/
next to this file) and compares the two files with cmp.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sslasr.cli import main as sslasr_main  # noqa: E402
from sslasr.gradcheck import gradcheck_battery, loss_gradcheck_battery  # noqa: E402
from sslasr.objectives import BidirectionalAPC  # noqa: E402
from sslasr.training import (  # noqa: E402
    FINETUNE_MODES, PIPELINES, PipelineConfig, run_adapt, run_evaluate, run_finetune,
    run_pipeline, run_pretrain,
)


GRADCHECK_SEEDS = (0, 1)


def tiny_config() -> PipelineConfig:
    return PipelineConfig(
        vocab_size=5, d_feat=4, proto_len=8, min_tokens=3, max_tokens=4,
        n_train=16, n_target=12, n_eval=6, d_model=16, n_heads=2, n_blocks=1, d_ffn=32,
        apc_shift=1, apc_lags=2, mask_prob=0.5, span_len=2, n_negatives=3, n_codes=4,
        n_clusters=4, batch_size=4, pretrain_steps=3, adapt_steps=2, finetune_steps=2,
        noam_warmup=2, d_adapter=4, seed=0,
    )


def recipes() -> dict:
    """Run name -> objective overrides: every objective, Bi-APC per scheme,
    and the masked objectives on a non-causal encoder."""
    out = {name: {"objective": name} for name in ("apc", "eapc", "contrastive", "masked_cluster")}
    for name in ("contrastive", "masked_cluster"):
        out[f"{name}-noncausal"] = {"objective": name, "causal": False}
    for scheme in BidirectionalAPC.SCHEMES:
        out[f"biapc-{scheme}"] = {"objective": "biapc", "biapc_scheme": scheme}
    return out


def commands(root: Path) -> list:
    """The command lines run_matrix runs under `root`, in order: the corpus
    commands write corpus/ with every setting through --set, so the command
    line's reading of it is covered; the training commands read cli/tiny.cfg."""
    corpus, cli = root / "corpus", root / "cli"
    task = ["vocab_size=5", "d_feat=4", "proto_len=6", "min_tokens=3", "max_tokens=4",
            "noise_sigma=0.2", "proto_seed=3", "seed=2"]
    settings = ["--config", f"{cli}/tiny.cfg"]
    return [
        ["gen-corpus", "--out", f"{corpus}/features", "--set", "n_utterances=4"],
        ["gen-corpus", "--out", f"{corpus}/task", "--set", "n_utterances=4",
         *[arg for kv in task for arg in ("--set", kv)]],
        ["gen-corpus", "--out", f"{corpus}/waveform", "--set", "n_utterances=3",
         "--set", "domain=target", "--set", "emit=waveform", "--set", "seed=3"],
        ["featurize", "--manifest", f"{corpus}/waveform/manifest.tsv", "--out", f"{corpus}/fbank"],
        ["pretrain", *settings, "--out", f"{cli}", "--manifest", f"{corpus}/task/manifest.tsv"],
        ["adapt", *settings, "--init", f"{cli}/pretrain.ckpt", "--out", f"{cli}"],
        ["finetune", *settings, "--init", f"{cli}/adapt_draft.ckpt", "--out", f"{cli}"],
        ["evaluate", *settings, "--init", f"{cli}/finetune_full.ckpt", "--report", f"{cli}/report.json"],
        ["sweep", *settings, "--key", "seed", "--values", "0,1", "--variants", "draft,no_adapt",
         "--out", f"{cli}/sweep"],
        ["gradcheck", "--seeds", "1"],
    ]


def _write_report(report: dict, workdir: Path, name: str) -> None:
    (workdir / name).write_text(json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")


def run_matrix(root) -> None:
    """Write every run of the matrix under `root`, one directory per run."""
    root = Path(root)
    base = tiny_config()
    for name, overrides in recipes().items():
        cfg = replace(base, **overrides)
        for variant, report in run_pipeline(cfg, root / name, PIPELINES).items():
            _write_report(report, root / name / variant, "report.json")

    workdir = root / "chain"
    pre = run_pretrain(base, workdir)
    ada = run_adapt(base, pre, workdir, mode="draft")
    for mode in FINETUNE_MODES:
        # plus_ra adds adapters, so it starts from the adapter-free checkpoint
        fin = run_finetune(base, pre if mode == "plus_ra" else ada, workdir, mode=mode)
        _write_report(run_evaluate(base, fin), workdir, f"report_{mode}.json")

    # its own directory, so the chain's finetune_full.ckpt is not overwritten
    workdir = root / "spec_augment"
    augmented = replace(base, spec_augment=True, finetune_steps=6)
    fin = run_finetune(augmented, ada, workdir)
    _write_report(run_evaluate(augmented, fin), workdir, "report.json")

    cli = root / "cli"
    cli.mkdir()
    # every PipelineConfig field, so each kind of value goes through the config file
    (cli / "tiny.cfg").write_text("".join(f"{k} = {v}\n" for k, v in vars(base).items()),
                                  encoding="utf-8")
    for argv in commands(root):
        with contextlib.redirect_stdout(io.StringIO()):
            if sslasr_main(argv) != 0:
                raise SystemExit(f"command failed: sslasr {' '.join(argv)}")
    # in the library reports' compact form
    _write_report(json.loads((cli / "report.json").read_text(encoding="utf-8")), cli, "report.json")

    oracle = {f"{fn.__name__}/{seed}": float(fn(seed)).hex()
              for fn in (gradcheck_battery, loss_gradcheck_battery) for seed in GRADCHECK_SEEDS}
    (root / "gradcheck.json").write_text(json.dumps(oracle, sort_keys=True) + "\n", encoding="utf-8")


def digests(root) -> dict:
    root = Path(root)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write the digests to")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run_matrix(tmp)
        table = digests(tmp)
    Path(args.out).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} files digested -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

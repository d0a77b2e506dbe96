"""Command-line front end.

Subcommands cover the whole workflow: synthetic corpus generation,
waveform featurization, the three training stages (pretrain, adapt,
finetune), evaluation, the gradient-check oracle, and config sweeps.
Settings come from an optional `key = value` file (--config) with
--set KEY=VALUE overrides; flags named on a subcommand win over both.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .data import CorpusConfig, load_corpus, read_wav, write_corpus
from .features import Featurizer, FeaturizerConfig
from .gradcheck import gradcheck_battery, loss_gradcheck_battery
from .io import (
    ManifestEntry,
    append_jsonl,
    load_checkpoint,
    parse_value,
    read_config,
    read_manifest,
    write_feat,
    write_manifest,
)
from .training import (
    ADAPT_MODES,
    FINETUNE_MODES,
    OBJECTIVES,
    PIPELINES,
    PipelineConfig,
    run_adapt,
    run_evaluate,
    run_finetune,
    run_pipeline,
    run_pretrain,
)

_PIPELINE_KEYS = set(PipelineConfig().to_dict())
_CORPUS_KEYS = set(asdict(CorpusConfig()))
_FEATURIZER_KEYS = set(asdict(FeaturizerConfig()))
# every setting's default; a value must have its default's type
_DEFAULTS = {**asdict(FeaturizerConfig()), **asdict(CorpusConfig()), **PipelineConfig().to_dict(),
             "emit": "features"}


def _parse_override(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, _, raw = text.partition("=")
    return key.strip(), parse_value(raw)


def _load_settings(args) -> dict:
    """Merge the --config file with --set overrides; reject unknown keys
    and values of the wrong type."""
    values = read_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(values) - set(_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, val in getattr(args, "set", None) or []:
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key '{key}'")
        values[key] = val
    for key, val in values.items():
        _check_type(key, val)
    return values


def _check_type(key: str, val) -> None:
    default = _DEFAULTS[key]  # fmax's is None; it takes a number
    kinds = (int, float) if default is None or type(default) is float else (type(default),)
    if type(val) not in kinds:
        raise ValueError(f"setting '{key}' expects {kinds[-1].__name__}, got {val!r}")


def _pipeline_config(values: dict, **overrides) -> PipelineConfig:
    picked = {k: v for k, v in values.items() if k in _PIPELINE_KEYS}
    picked.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig(**picked)


def _disk_corpus(manifest_path, cfg: PipelineConfig):
    corpus = load_corpus(manifest_path)
    if not corpus:
        raise ValueError("no utterances")
    for u in corpus:
        d = u.feats.shape[1]
        if d != cfg.d_feat:
            raise ValueError(f"{manifest_path}: utterance '{u.utt_id}' has feature dim {d} "
                             f"but config d_feat={cfg.d_feat}")
    return corpus


def _cmd_gen_corpus(args) -> int:
    values = _load_settings(args)
    picked = {k: v for k, v in values.items() if k in _CORPUS_KEYS}
    if args.domain is not None:
        picked["domain"] = args.domain
    if args.n is not None:
        picked["n_utterances"] = args.n
    if args.seed is not None:
        picked["seed"] = args.seed
    emit = args.emit or values.get("emit", "features")
    manifest = write_corpus(args.out, CorpusConfig(**picked), emit=emit)
    print(manifest)
    return 0


def _cmd_featurize(args) -> int:
    values = _load_settings(args)
    fc = FeaturizerConfig(**{k: v for k, v in values.items() if k in _FEATURIZER_KEYS})
    featurizer = Featurizer(fc)
    out = Path(args.out)
    (out / "feats").mkdir(parents=True, exist_ok=True)
    entries = []
    root = Path(args.manifest).parent
    for e in read_manifest(args.manifest):
        src = root / e.path
        if src.suffix != ".wav":
            raise ValueError(f"featurize expects .wav inputs, got '{e.path}'")
        samples, rate = read_wav(src)
        if rate != fc.sample_rate:
            raise ValueError(
                f"'{e.path}' is {rate} Hz but the featurizer expects {fc.sample_rate}")
        rel = f"feats/{e.utt_id}.feat"
        write_feat(out / rel, featurizer(samples),
                   shift_ms=fc.shift_ms, window_ms=fc.window_ms)
        entries.append(ManifestEntry(e.utt_id, rel, e.transcript, e.domain))
    manifest = out / "manifest.tsv"
    write_manifest(manifest, entries)
    print(manifest)
    return 0


def _cmd_pretrain(args) -> int:
    values = _load_settings(args)
    cfg = _pipeline_config(values, objective=args.objective, seed=args.seed,
                           pretrain_steps=args.steps)
    corpus = _disk_corpus(args.manifest, cfg) if args.manifest else None
    print(run_pretrain(cfg, args.out, corpus=corpus))
    return 0


def _checkpoint_settings(args) -> dict:
    """Settings base for stages that resume a checkpoint.

    The checkpoint's stored config seeds the values so non-default choices
    (objective, model size, corpus task) carry forward automatically;
    --config / --set still override.
    """
    stored = load_checkpoint(args.init).config
    base = {k: v for k, v in stored.items() if k in _PIPELINE_KEYS}
    base.update(_load_settings(args))
    return base


def _cmd_adapt(args) -> int:
    values = _checkpoint_settings(args)
    cfg = _pipeline_config(values, seed=args.seed, adapt_steps=args.steps)
    corpus = _disk_corpus(args.manifest, cfg) if args.manifest else None
    print(run_adapt(cfg, args.init, args.out, mode=args.mode, corpus=corpus))
    return 0


def _cmd_finetune(args) -> int:
    values = _checkpoint_settings(args)
    cfg = _pipeline_config(values, seed=args.seed, finetune_steps=args.steps)
    corpus = _disk_corpus(args.manifest, cfg) if args.manifest else None
    print(run_finetune(cfg, args.init, args.out, mode=args.mode, corpus=corpus))
    return 0


def _cmd_evaluate(args) -> int:
    values = _checkpoint_settings(args)
    cfg = _pipeline_config(values, seed=args.seed)
    corpus = _disk_corpus(args.manifest, cfg) if args.manifest else None
    report = run_evaluate(cfg, args.init, corpus=corpus)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    for seed in range(args.seeds):
        prim = gradcheck_battery(seed)
        loss = loss_gradcheck_battery(seed)
        worst = max(worst, prim, loss)
        if args.verbose:
            print(f"seed {seed}: primitives {prim:.3e}  losses {loss:.3e}")
    ok = worst < args.threshold
    status = "PASS" if ok else "FAIL"
    print(f"gradcheck worst relative error {worst:.3e} "
          f"over {args.seeds} seeds (threshold {args.threshold:g}): {status}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    values = _load_settings(args)
    if args.key not in _PIPELINE_KEYS:
        raise ValueError(f"unknown sweep key '{args.key}'")
    points = [parse_value(v) for v in args.values.split(",") if v.strip()]
    if not points:
        raise ValueError("sweep needs at least one value")
    for val in points:
        _check_type(args.key, val)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "sweep.jsonl"
    results_path.unlink(missing_ok=True)
    for val in points:
        cfg = _pipeline_config({**values, args.key: val})
        report = run_pipeline(cfg, out / f"{args.key}={val}",
                              variant=args.variant, finetune_mode=args.finetune_mode)
        append_jsonl(results_path, {"key": args.key, "value": val,
                                    "variant": report["variant"], "ter": report["ter"]})
        print(f"{args.key}={val}: ter={report['ter']:.4f}")
    print(results_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslasr",
        description="Self-supervised speech representation learning toolkit "
                    "with adapter-based domain adaptation.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_, fn, settings=True):
        p = sub.add_parser(name, help=help_, description=help_)
        if settings:
            p.add_argument("--config", metavar="FILE",
                           help="settings file of 'key = value' lines")
            p.add_argument("--set", action="append", type=_parse_override,
                           metavar="KEY=VALUE", help="override one setting (repeatable)")
        p.set_defaults(handler=fn)
        return p

    p = add("gen-corpus", "generate a synthetic corpus plus manifest", _cmd_gen_corpus)
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p.add_argument("--domain", choices=("source", "target"))
    p.add_argument("--emit", choices=("features", "waveform"))
    p.add_argument("--n", type=int, metavar="N", help="number of utterances")
    p.add_argument("--seed", type=int)

    p = add("featurize", "convert a .wav manifest to log-mel feature files", _cmd_featurize)
    p.add_argument("--manifest", required=True, metavar="TSV")
    p.add_argument("--out", required=True, metavar="DIR")

    p = add("pretrain", "stage 1: self-supervised pretraining", _cmd_pretrain)
    p.add_argument("--out", required=True, metavar="DIR", help="checkpoint/metrics directory")
    p.add_argument("--objective", choices=OBJECTIVES)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--manifest", metavar="TSV", help="train on this corpus instead of the built-in one")

    p = add("adapt", "stage 2: adapt a pretrained model to the target domain", _cmd_adapt)
    p.add_argument("--init", required=True, metavar="CKPT", help="stage-1 checkpoint")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--mode", choices=ADAPT_MODES, default="draft")
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--manifest", metavar="TSV")

    p = add("finetune", "stage 3: supervised finetuning with a CTC head", _cmd_finetune)
    p.add_argument("--init", required=True, metavar="CKPT", help="stage-1 or stage-2 checkpoint")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--mode", choices=FINETUNE_MODES, default="full")
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--manifest", metavar="TSV")

    p = add("evaluate", "greedy-decode a corpus and report token error rate", _cmd_evaluate)
    p.add_argument("--init", required=True, metavar="CKPT", help="finetuned checkpoint")
    p.add_argument("--seed", type=int)
    p.add_argument("--manifest", metavar="TSV")
    p.add_argument("--report", metavar="JSON", help="also write the report here")

    p = add("gradcheck", "run the finite-difference gradient oracle", _cmd_gradcheck,
            settings=False)
    p.add_argument("--seeds", type=int, default=20, help="number of battery seeds")
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--verbose", action="store_true", help="print per-seed errors")

    p = add("sweep", "run the pipeline across a list of values for one setting", _cmd_sweep)
    p.add_argument("--key", required=True, help="pipeline setting to vary")
    p.add_argument("--values", required=True, metavar="V1,V2,...")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--variant", choices=PIPELINES, default="draft")
    p.add_argument("--finetune-mode", choices=FINETUNE_MODES, default="full")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

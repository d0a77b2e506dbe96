"""Command-line front end.

Subcommands cover the whole workflow: synthetic corpus generation,
waveform featurization, the three training stages (pretrain, adapt,
finetune), evaluation, the gradient-check oracle, and config sweeps.
Settings come from an optional `key = value` file (--config) with
--set KEY=VALUE overrides, the last --set of a key winning. A command
takes only the keys of the settings classes it builds (featurize:
FeaturizerConfig; gen-corpus: PipelineConfig and GenCorpusSettings; the
rest: PipelineConfig), and building one checks its values.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .data import DOMAINS, EMITS, load_corpus, read_wav, write_corpus
from .features import Featurizer, FeaturizerConfig
from .gradcheck import GRADCHECK_THRESHOLD, gradcheck_battery, loss_gradcheck_battery
from .io import (
    ManifestEntry,
    Settings,
    append_jsonl,
    load_checkpoint,
    parse_value,
    read_config,
    read_manifest,
    setting,
    write_feat,
    write_manifest,
)
from .training import (
    ADAPT_MODES,
    FINETUNE_MODES,
    PIPELINES,
    PipelineConfig,
    run_adapt,
    run_evaluate,
    run_finetune,
    run_pretrain,
    sweep,
)


@dataclass(frozen=True)
class GenCorpusSettings(Settings):
    """gen-corpus's own keys; it draws with the pipeline's `seed`."""

    n_utterances: int = setting(500, lo=1)
    domain: str = setting("source", choices=DOMAINS)
    emit: str = setting("features", choices=EMITS)


def _parse_override(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, _, raw = text.partition("=")
    return key.strip(), parse_value(raw)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _load_settings(args, *classes) -> dict:
    """Merge the --config file and then the --set overrides, the last --set
    of a key winning; reject a key that none of `classes` declares. Building
    a class checks the values."""
    values = read_config(args.config) if args.config else {}
    values.update(args.set or [])
    known = {f.name for cls in classes for f in fields(cls)}
    for key in values:
        if key not in known:
            raise ValueError(f"unknown config key '{key}' for {args.command}")
    return values


def _pick(cls, values: dict):
    """An instance of cls from the values that name its fields."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


def _cmd_gen_corpus(args) -> int:
    values = _load_settings(args, PipelineConfig, GenCorpusSettings)
    cfg, job = _pick(PipelineConfig, values), _pick(GenCorpusSettings, values)
    print(write_corpus(args.out, cfg, job.domain, job.n_utterances, cfg.seed, job.emit))
    return 0


def _cmd_featurize(args) -> int:
    fc = _pick(FeaturizerConfig, _load_settings(args, FeaturizerConfig))
    featurizer = Featurizer(fc)
    root = Path(args.manifest).parent
    feats, entries = [], []  # every entry is read and featurized before the first write
    for e in read_manifest(args.manifest):
        src = root / e.path
        try:
            if src.suffix != ".wav":
                raise ValueError(f"featurize expects .wav inputs, got '{e.path}'")
            samples, rate = read_wav(src)
            if rate != fc.sample_rate:
                raise ValueError(f"sampled at {rate} Hz, but the featurizer expects {fc.sample_rate}")
            feats.append(featurizer(samples))
        except ValueError as exc:
            raise ValueError(f"{args.manifest}: utterance '{e.utt_id}': {exc}") from None
        entries.append(ManifestEntry(e.utt_id, f"feats/{e.utt_id}.feat", e.transcript, e.domain))
    out = Path(args.out)
    (out / "feats").mkdir(parents=True, exist_ok=True)
    for e, f in zip(entries, feats):
        write_feat(out / e.path, f, shift_ms=fc.shift_ms, window_ms=fc.window_ms)
    manifest = out / "manifest.tsv"
    write_manifest(manifest, entries)
    print(manifest)
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _pick(PipelineConfig, _load_settings(args, PipelineConfig))
    corpus = load_corpus(args.manifest, cfg) if args.manifest else None
    print(run_pretrain(cfg, args.out, corpus=corpus))
    return 0


def _checkpoint_config(args) -> PipelineConfig:
    """The config of a stage that continues --init: the checkpoint's stored
    config, so non-default choices (objective, model size, corpus task) carry
    forward, then --config and --set."""
    values = _load_settings(args, PipelineConfig)
    return _pick(PipelineConfig, {**load_checkpoint(args.init).config, **values})


def _cmd_continue(args) -> int:
    """adapt or finetune: run args.stage from the --init checkpoint."""
    cfg = _checkpoint_config(args)
    corpus = load_corpus(args.manifest, cfg) if args.manifest else None
    print(args.stage(cfg, args.init, args.out, mode=args.mode, corpus=corpus))
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _checkpoint_config(args)
    corpus = load_corpus(args.manifest, cfg) if args.manifest else None
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
    ok = worst < GRADCHECK_THRESHOLD
    print(f"gradcheck worst relative error {worst:.3e} over {args.seeds} seeds "
          f"(threshold {GRADCHECK_THRESHOLD:g}): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _variants(text: str) -> tuple:
    names = tuple(name.strip() for name in text.split(","))
    if not set(names) <= set(PIPELINES) or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"expected distinct names from {','.join(PIPELINES)}, got {text!r}")
    return names


def _cmd_sweep(args) -> int:
    points = sweep(_load_settings(args, PipelineConfig), args.key,
                   [parse_value(v) for v in args.values.split(",") if v.strip()],
                   args.out, args.variants)
    results_path = Path(args.out) / "sweep.jsonl"
    results_path.unlink(missing_ok=True)
    ters = {variant: [] for variant in args.variants}
    for val, reports in points:
        with open(results_path, "a", encoding="utf-8") as fh:
            for variant, report in reports.items():
                append_jsonl(fh, {"key": args.key, "value": val, "variant": variant, "ter": report["ter"]})
                ters[variant].append(report["ter"])
        print(f"{args.key}={val}: " + "  ".join(f"{v} ter={r['ter']:.4f}" for v, r in reports.items()))
    for variant, values in ters.items():
        print(f"{variant}: median ter={statistics.median(values):.4f} over {len(values)} values of {args.key}")
    print(results_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslasr",
        description="Self-supervised speech representation learning toolkit "
                    "with adapter-based domain adaptation.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_, fn, settings=True, **defaults):
        p = sub.add_parser(name, help=help_, description=help_)
        if settings:
            p.add_argument("--config", metavar="FILE",
                           help="settings file of 'key = value' lines")
            p.add_argument("--set", action="append", type=_parse_override,
                           metavar="KEY=VALUE", help="override one setting (repeatable)")
        p.set_defaults(handler=fn, parser=p, **defaults)
        return p

    p = add("gen-corpus", "generate a synthetic corpus plus manifest", _cmd_gen_corpus)
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")

    p = add("featurize", "convert a .wav manifest to log-mel feature files", _cmd_featurize)
    p.add_argument("--manifest", required=True, metavar="TSV")
    p.add_argument("--out", required=True, metavar="DIR")

    p = add("pretrain", "stage 1: self-supervised pretraining", _cmd_pretrain)
    p.add_argument("--out", required=True, metavar="DIR", help="checkpoint/metrics directory")
    p.add_argument("--manifest", metavar="TSV", help="train on this corpus instead of the built-in one")

    p = add("adapt", "stage 2: adapt a pretrained model to the target domain", _cmd_continue,
            stage=run_adapt)
    p.add_argument("--init", required=True, metavar="CKPT", help="stage-1 checkpoint")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--mode", choices=ADAPT_MODES, default="draft")
    p.add_argument("--manifest", metavar="TSV")

    p = add("finetune", "stage 3: supervised finetuning with a CTC head", _cmd_continue,
            stage=run_finetune)
    p.add_argument("--init", required=True, metavar="CKPT", help="stage-1 or stage-2 checkpoint")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--mode", choices=FINETUNE_MODES, default="full")
    p.add_argument("--manifest", metavar="TSV")

    p = add("evaluate", "greedy-decode a corpus and report token error rate", _cmd_evaluate)
    p.add_argument("--init", required=True, metavar="CKPT", help="finetuned checkpoint")
    p.add_argument("--manifest", metavar="TSV")
    p.add_argument("--report", metavar="JSON", help="also write the report here")

    p = add("gradcheck", "run the finite-difference gradient oracle", _cmd_gradcheck,
            settings=False)
    p.add_argument("--seeds", type=_positive_int, default=20, help="number of battery seeds")
    p.add_argument("--verbose", action="store_true", help="print per-seed errors")

    p = add("sweep", "run the pipeline across a list of values for one setting", _cmd_sweep)
    p.add_argument("--key", required=True, help="pipeline setting to vary")
    p.add_argument("--values", required=True, metavar="V1,V2,...")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--variants", type=_variants, default=("draft",), metavar="V1,V2,...",
                   help=f"comma list from {','.join(PIPELINES)}, run on one pretrain per point")

    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported with the subcommand's usage line, not the root's
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Three-stage adaptation pipeline: SSL pretraining on the source domain,
adaptation on the unlabeled target domain (adapter-only or full SAFT),
and supervised CTC finetuning on the labeled target domain.

Every stage reads and writes SSLCKPT1 checkpoints carrying a config
snapshot and a provenance dict that counts optimizer steps applied to
the backbone ("f"), adapters ("ada"), and generator ("g"). restore() is
the one reader; the training stages share one tail that trains, counts
the steps and writes the checkpoint."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .ctc import CTCHead, ctc_loss_batch, edit_distance, error_rate, greedy_decode, min_input_length
from .data import make_corpus, pad_batch
from .engine import Tape, Tensor, backward, finite_result
from .features import spec_augment
from .io import Settings, append_jsonl, load_checkpoint, save_checkpoint, setting
from .model import Encoder, Module, build_encoder
from .objectives import (
    BidirectionalAPC,
    ContrastiveObjective,
    EAPCObjective,
    MaskedClusterObjective,
    valid_groups,
)
from .optim import Adam, clip_global_norm, noam_lr, tri_stage_lr

OBJECTIVES = ("apc", "eapc", "biapc", "contrastive", "masked_cluster")
ADAPT_MODES = ("draft", "saft")
FINETUNE_MODES = ("full", "adapters_frozen", "adapters_only", "random_adapters", "plus_ra")
_STAGE_IDS = {"pretrain": 1, "adapt": 2, "finetune": 3}
# the recipe's fixed schedule: noam peak factor (pretrain, draft), saft's share
# of it, the gradient-norm clip, and the finetune warmup and hold fractions
NOAM_FACTOR, SAFT_LR_SCALE, CLIP_NORM = 0.5, 0.5, 5.0
FT_WARMUP_FRAC, FT_HOLD_FRAC = 0.1, 0.4

# structural fields that must match between a config and a checkpoint snapshot
_STRUCTURAL = (
    "d_feat", "d_model", "n_heads", "n_blocks", "d_ffn", "causal",
    "objective", "biapc_scheme", "apc_shift", "apc_lags", "apc_p",
    "n_codes", "n_clusters", "vocab_size",
)


@dataclass(frozen=True)
class PipelineConfig(Settings):
    """Every pipeline setting, declared once with its domain. A value outside
    it, or a broken cross-field rule, is a ValueError naming the setting."""

    # data (toy domain-shift task)
    vocab_size: int = setting(8, lo=1)
    d_feat: int = setting(8, lo=1)
    proto_len: int = setting(8, lo=1)
    min_tokens: int = setting(2, lo=1)
    max_tokens: int = setting(6, lo=1)
    noise_sigma: float = setting(0.1, lo=0)
    n_train: int = setting(500, lo=1)
    n_target: int = setting(200, lo=1)
    n_eval: int = setting(100, lo=1)
    proto_seed: int = setting(7, lo=0)
    corpus_seed: int = setting(100, lo=0)
    # model
    d_model: int = setting(64, lo=1)
    n_heads: int = setting(4, lo=1)
    n_blocks: int = setting(2, lo=1)
    d_ffn: int = setting(128, lo=1)
    causal: bool = setting(True)
    # objective
    objective: str = setting("eapc", choices=OBJECTIVES)
    biapc_scheme: str = setting("share_generator", choices=BidirectionalAPC.SCHEMES)
    apc_shift: int = setting(1, lo=1)
    apc_lags: int = setting(2, lo=1)
    apc_p: int = setting(1, choices=(1, 2))
    n_codes: int = setting(32, lo=1)
    n_clusters: int = setting(16, lo=1)
    mask_prob: float = setting(0.2, lo=0, hi=1)
    span_len: int = setting(2, lo=1)
    n_negatives: int = setting(10, lo=1)
    tau_cos: float = setting(0.1, above=0)
    diversity_weight: float = setting(0.1, lo=0)
    cluster_alpha: float = setting(1.0, lo=0, hi=1)
    # optimization
    seed: int = setting(0, lo=0)
    batch_size: int = setting(8, lo=1)
    pretrain_steps: int = setting(150, lo=0)
    adapt_steps: int = setting(80, lo=0)
    finetune_steps: int = setting(60, lo=0)
    noam_warmup: int = setting(50, lo=1)
    ft_peak_lr: float = setting(2e-3, above=0)
    d_adapter: int = setting(8, lo=1)
    spec_augment: bool = setting(False)

    def __post_init__(self):
        super().__post_init__()
        if self.max_tokens < self.min_tokens:
            raise ValueError(f"setting 'max_tokens' must be >= min_tokens ({self.min_tokens}), "
                             f"got {self.max_tokens}")
        if self.d_model % 2:
            raise ValueError(f"setting 'd_model' must be even (sinusoidal positions), got {self.d_model}")
        if self.d_model % self.n_heads:
            raise ValueError(f"setting 'n_heads' must divide d_model ({self.d_model}), "
                             f"got {self.n_heads}")


# the built-in corpora: name -> (domain, size setting, offset from corpus_seed)
_CORPORA = {"source_train": ("source", "n_train", 0), "target_train": ("target", "n_target", 2),
            "target_eval": ("target", "n_eval", 3)}


def _corpus(cfg: PipelineConfig, name: str) -> list:
    domain, size, offset = _CORPORA[name]
    return make_corpus(cfg, domain, getattr(cfg, size), cfg.corpus_seed + offset)


def build_corpora(cfg: PipelineConfig) -> dict:
    """Source/target corpora drawn from one underlying task (same proto_seed)."""
    return {name: _corpus(cfg, name) for name in _CORPORA}


def _group(name: str) -> str:
    """Provenance group of a parameter name: adapters 'ada', generator 'g'
    (SSL objective heads and the CTC head), else backbone 'f'."""
    if ".adapter" in name or name.startswith("adapter"):
        return "ada"
    if name.startswith(("obj.", "ctc.")) or ".gen." in name:
        return "g"
    return "f"


@contextlib.contextmanager
def _prefixed(where: str):
    """Prefix `where: ` to a FloatingPointError or ValueError raised inside."""
    try:
        yield
    except FloatingPointError as e:
        raise FloatingPointError(f"{where}: {e}") from e
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from e


_OBJECTIVE_TYPES = {"apc": EAPCObjective, "eapc": EAPCObjective,
                    "contrastive": ContrastiveObjective, "masked_cluster": MaskedClusterObjective}


def build_objective(cfg: PipelineConfig, seed: int) -> Module:
    """The objective cfg.objective names; apc is E-APC at one lag."""
    if cfg.objective in ("apc", "eapc", "biapc") and not cfg.causal:
        raise ValueError(f"objective '{cfg.objective}' needs causal=True: a non-causal "
                         "encoder sees the frames it predicts")
    if cfg.objective == "biapc":
        return BidirectionalAPC(cfg, seed)
    return _OBJECTIVE_TYPES[cfg.objective](cfg, np.random.default_rng([seed, 0x0B1]))


class SSLBundle(Module):
    """Encoder(s) plus self-supervised objective for one recipe.

    Parameters are named 'model.*' and 'obj.*'; biapc takes the names of
    its forward/reverse pair ('fwd.model.*', 'fwd.gen.*', 'rev.*'). For
    masked_cluster, each stage labels its own corpus before training
    (prepare_cluster_targets); the labels are not checkpointed."""

    def __init__(self, cfg: PipelineConfig, seed: int):
        super().__init__()
        self.obj = build_objective(cfg, seed)
        self.pair = self.obj if isinstance(self.obj, BidirectionalAPC) else None
        if self.pair:  # Bi-APC trains its own encoder pair
            self.encoder = self.pair.fwd
            self.children.update(self.pair.children)
        else:
            self.encoder = build_encoder(cfg, seed)
            self.children.update(model=self.encoder, obj=self.obj)

    def insert_adapters(self, d_adapter: int, rng) -> None:
        (self.pair or self.encoder).insert_adapters(d_adapter, rng)

    def prepare_cluster_targets(self, stage: str, corpus, rng) -> None:
        """Label the stage's corpus for masked_cluster, from raw features at
        pretrain and from the encoder as the stage received it at adapt, after
        checking, with the stage named, that it has one point (complete frame
        group) per cluster."""
        if not corpus:
            raise ValueError(f"stage '{stage}' has no utterances")
        k = self.obj.cfg.n_clusters
        points = int(valid_groups([u.feats.shape[0] for u in corpus]).sum())
        if points < k:
            raise ValueError(f"stage '{stage}': fewer points than clusters: {points} points, {k} clusters")
        with _prefixed(f"stage '{stage}'"):
            self.obj.prepare(corpus, rng, self.encoder if stage == "adapt" else None)

    def loss(self, batch_utts, rng: np.random.Generator, step: int) -> Tensor:
        return self.obj.loss(self.encoder, pad_batch(batch_utts), rng, step)

    def encoder_for_finetune(self, backbone_steps: int) -> Encoder:
        """Bi-APC's direction average once its backbone has trained; before
        that, as for every objective, the (forward) encoder as it is."""
        return self.pair.average_directions() if self.pair and backbone_steps else self.encoder


class CTCModel(Module):
    """The finetuned recognizer: encoder 'model.*' plus a fresh CTC head 'ctc.*'."""

    def __init__(self, cfg: PipelineConfig, encoder: Encoder):
        super().__init__()
        self.encoder = encoder
        head = CTCHead(np.random.default_rng([cfg.seed, 0xC7C]), cfg.d_model, cfg.vocab_size)
        self.children.update(model=encoder, ctc=head)

    def __call__(self, feats, lengths):
        """Returns (logits over blank + vocabulary, output lengths)."""
        hidden, out_lengths = self.encoder(feats, lengths)
        return self.children["ctc"](hidden), out_lengths


# ---------------------------------------------------------------------------
# checkpoint plumbing
# ---------------------------------------------------------------------------


def restore(stage: str, cfg: PipelineConfig, ckpt_path) -> tuple:
    """Rebuild the model a checkpoint holds for `stage`; returns (model, provenance).

    cfg must match the checkpoint's on every _STRUCTURAL field, and then the
    checkpoint's kind must fit the stage: adapt and finetune continue a
    pretrain or adapt checkpoint (an SSLBundle, without masked-cluster
    targets), evaluate reads a finetune one (a CTCModel). Both checks run
    before any model is built; the checkpoint supplies the adapter width and
    every weight (through Module.load_params)."""
    ckpt = load_checkpoint(ckpt_path)
    bad = [k for k in _STRUCTURAL if k in ckpt.config and ckpt.config[k] != getattr(cfg, k)]
    if bad:
        raise ValueError(f"stage '{stage}': config mismatch with checkpoint on fields {bad}")
    finetuned = ckpt.config.get("stage") == "finetune"
    if finetuned != (stage == "evaluate"):
        held = "a finetune" if finetuned else "a pretrain or adapt"
        raise ValueError(f"stage '{stage}' cannot start from {held} checkpoint: {ckpt_path}")
    if finetuned:
        model = CTCModel(cfg, build_encoder(cfg, cfg.seed))
        host = model.encoder
    else:
        model = host = SSLBundle(cfg, seed=cfg.seed)
    d_ada = int(ckpt.config.get("adapters_d", 0))
    if d_ada:
        host.insert_adapters(d_ada, np.random.default_rng([cfg.seed, 0xADA]))
    model.load_params(ckpt.params)
    return model, dict(ckpt.provenance)


# ---------------------------------------------------------------------------
# the shared training loop and stage tail
# ---------------------------------------------------------------------------


def _train_loop(stage: str, cfg: PipelineConfig, corpus, loss_fn, all_params: dict,
                trainable: dict, steps: int, lr_fn, metrics_path) -> None:
    ids = {id(t) for t in trainable.values()}
    for t in all_params.values():
        t.requires_grad = id(t) in ids
        t.grad = None
    opt = Adam(trainable)
    n = len(corpus)
    stage_id = _STAGE_IDS[stage]

    def step_loss(step):
        # draws from (seed, stage, step) alone, so a replay draws the same
        rng = np.random.default_rng([cfg.seed, stage_id, step])
        idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
        return loss_fn([corpus[int(i)] for i in idx], rng, step)

    with contextlib.ExitStack() as stack:
        log = None  # opened at the first record: a failed first step leaves no file
        for step in range(1, steps + 1):
            opt.zero_grad()
            with _prefixed(f"stage '{stage}' step {step}"):
                # a non-finite loss is replayed, before any update, to name
                # the op that made it
                tape = Tape()
                loss = finite_result(lambda: step_loss(step), tape)
                backward(loss, tape)
            grad_norm = clip_global_norm(trainable, CLIP_NORM)
            if not np.isfinite(grad_norm):
                # the clipped update would write NaN into every trainable tensor
                raise FloatingPointError(f"stage '{stage}' step {step}: non-finite gradient norm {grad_norm}")
            lr = lr_fn(step)
            opt.step(lr=lr)
            log = log or stack.enter_context(open(metrics_path, "a", encoding="utf-8"))
            append_jsonl(log, {
                "step": step, "stage": stage, "loss": float(loss.data),
                "grad_norm": grad_norm, "lr": lr, "seed": cfg.seed,
            })
    # leave every parameter differentiable and grad-free for downstream use
    for t in all_params.values():
        t.requires_grad = True
        t.grad = None


def _run_stage(stage: str, tag: str, cfg: PipelineConfig, workdir, corpus, model, loss_fn,
               trainable: dict, steps: int, lr_fn, provenance: dict, **fields) -> str:
    """Train `model`, then save it as '<tag>.ckpt'; returns the path.

    A stage with no trainable parameters or no utterances is refused before
    any file is written or deleted. Otherwise its metrics log is written under
    a temporary name and renamed to '<tag>_metrics.jsonl' once the checkpoint
    is written, so a rerun in the same workdir leaves only its own records,
    and a rerun that fails leaves the previous run's checkpoint and log.
    Each provenance group gains `steps` iff any of its tensors was trainable."""
    if not trainable and steps > 0:
        raise ValueError(f"stage '{stage}' has no trainable parameters")
    if not corpus and steps > 0:
        raise ValueError(f"stage '{stage}' has no utterances")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    metrics_path = workdir / f"{tag}_metrics.jsonl"
    partial = workdir / f".{tag}_metrics.jsonl.partial"
    partial.unlink(missing_ok=True)  # left by a killed run: the log is appended to
    params = model.named_params()
    touched = {_group(name) for name in trainable}
    provenance = {g: provenance.get(g, 0) + (steps if g in touched else 0)
                  for g in ("f", "ada", "g")}
    fields.update(stage=stage, adapters_d=model.encoder.d_adapter)
    out = workdir / f"{tag}.ckpt"
    try:
        _train_loop(stage, cfg, corpus, loss_fn, params, trainable, steps, lr_fn, partial)
        save_checkpoint(out, params, {**vars(cfg), **fields}, provenance)
        if partial.exists():
            partial.replace(metrics_path)
        else:  # a 0-step run logs nothing
            metrics_path.unlink(missing_ok=True)
    finally:
        partial.unlink(missing_ok=True)
    return str(out)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def run_pretrain(cfg: PipelineConfig, workdir, corpus=None, steps: int | None = None) -> str:
    """SSL pretraining on the source domain; returns the checkpoint path."""
    steps = cfg.pretrain_steps if steps is None else steps
    corpus = _corpus(cfg, "source_train") if corpus is None else corpus
    with _prefixed("stage 'pretrain'"):
        bundle = SSLBundle(cfg, seed=cfg.seed)
    if cfg.objective == "masked_cluster" and steps > 0:
        bundle.prepare_cluster_targets("pretrain", corpus, np.random.default_rng([cfg.seed, 0x535]))
    lr_fn = lambda s: noam_lr(s, cfg.d_model, cfg.noam_warmup, NOAM_FACTOR)
    return _run_stage("pretrain", "pretrain", cfg, workdir, corpus, bundle, bundle.loss,
                      bundle.named_params(), steps, lr_fn, {})


def run_adapt(cfg: PipelineConfig, ckpt_path, workdir, mode: str = "draft",
              corpus=None) -> str:
    """Unlabeled target-domain adaptation.

    'draft' inserts fresh adapters and trains only them (backbone and
    generator stay bit-identical); 'saft' updates every parameter at a
    reduced peak learning rate."""
    if mode not in ADAPT_MODES:
        raise ValueError(f"stage 'adapt': unknown adapt mode '{mode}'")
    corpus = _corpus(cfg, "target_train") if corpus is None else corpus
    bundle, provenance = restore("adapt", cfg, ckpt_path)
    if cfg.objective == "masked_cluster" and cfg.adapt_steps > 0:
        bundle.prepare_cluster_targets("adapt", corpus, np.random.default_rng([cfg.seed, 0x535, 2]))
    if mode == "draft":
        if not bundle.encoder.d_adapter:
            bundle.insert_adapters(cfg.d_adapter, np.random.default_rng([cfg.seed, 0xADA]))
        elif bundle.encoder.d_adapter != cfg.d_adapter:
            raise ValueError(f"stage 'adapt': checkpoint has adapters of width {bundle.encoder.d_adapter}, not {cfg.d_adapter}")
        factor = NOAM_FACTOR
        trainable = {k: v for k, v in bundle.named_params().items() if _group(k) == "ada"}
    else:
        if bundle.encoder.d_adapter:
            raise ValueError("stage 'adapt': saft does not apply to a model with adapters")
        factor = NOAM_FACTOR * SAFT_LR_SCALE
        trainable = bundle.named_params()
    lr_fn = lambda s: noam_lr(s, cfg.d_model, cfg.noam_warmup, factor)
    return _run_stage("adapt", f"adapt_{mode}", cfg, workdir, corpus, bundle, bundle.loss,
                      trainable, cfg.adapt_steps, lr_fn, provenance)


def run_finetune(cfg: PipelineConfig, ckpt_path, workdir, mode: str = "full",
                 corpus=None) -> str:
    """Supervised CTC finetuning with a fresh generator; returns ckpt path.
    An utterance with an empty transcript, or with fewer encoder frames than
    CTC needs to emit its transcript, is refused before any file is written."""
    if mode not in FINETUNE_MODES:
        raise ValueError(f"stage 'finetune': unknown finetune mode '{mode}'")
    steps = cfg.finetune_steps
    corpus = _corpus(cfg, "target_train") if corpus is None else corpus
    bundle, provenance = restore("finetune", cfg, ckpt_path)
    encoder = bundle.encoder_for_finetune(provenance.get("f", 0))
    # CTC needs a token to align to, and enough encoder frames to emit it:
    # the loss refuses an infeasible one too, but only at a step that draws it
    for u in corpus:
        if not u.tokens:
            raise ValueError(f"stage 'finetune': utterance '{u.utt_id}' has an empty transcript")
        frames, need = encoder.out_length(u.feats.shape[0]), min_input_length(u.tokens)
        if frames < need:
            raise ValueError(f"stage 'finetune': utterance '{u.utt_id}' has {frames} encoder "
                             f"frames, fewer than the {need} that CTC needs to emit its transcript")

    if mode in ("adapters_frozen", "adapters_only", "random_adapters") and not encoder.d_adapter:
        raise ValueError(f"stage 'finetune': finetune mode '{mode}' requires a checkpoint with adapters")
    if mode == "random_adapters":
        encoder.reinit_adapters(np.random.default_rng([cfg.seed, 0xF00D]))
    if mode == "plus_ra":
        if encoder.d_adapter:
            raise ValueError("stage 'finetune': finetune mode 'plus_ra' requires a checkpoint without adapters")
        encoder.insert_adapters(cfg.d_adapter, np.random.default_rng([cfg.seed, 0xF00D]))

    model = CTCModel(cfg, encoder)
    trainable = model.named_params()
    if mode != "full":
        # adapters_frozen trains backbone + head; the adapter modes adapters + head
        frozen = "ada" if mode == "adapters_frozen" else "f"
        trainable = {k: v for k, v in trainable.items() if _group(k) != frozen}

    warmup = max(1, int(round(FT_WARMUP_FRAC * steps)))
    hold = int(round(FT_HOLD_FRAC * steps))
    decay = max(1, steps - warmup - hold)
    lr_fn = lambda s: tri_stage_lr(s, cfg.ft_peak_lr, warmup, hold, decay)

    def loss_fn(batch_utts, rng, step):
        batch = pad_batch(batch_utts)
        feats = batch.feats
        if cfg.spec_augment:
            for i, n in enumerate(batch.lengths):
                feats[i, :n] = spec_augment(feats[i, :n], rng)
        logits, out_lengths = model(feats, batch.lengths)
        # corpus tokens are 0-based; CTC reserves 0 for the blank
        shifted = [[t + 1 for t in y] for y in batch.tokens]
        return ctc_loss_batch(logits, out_lengths, shifted)

    return _run_stage("finetune", f"finetune_{mode}", cfg, workdir, corpus, model, loss_fn,
                      trainable, steps, lr_fn, provenance, finetune_mode=mode)


def run_evaluate(cfg: PipelineConfig, ckpt_path, corpus=None) -> dict:
    """Greedy-decode an eval corpus and report the token error rate. The
    report names its checkpoint by file name, not by the path it was given."""
    corpus = _corpus(cfg, "target_eval") if corpus is None else corpus
    model, provenance = restore("evaluate", cfg, ckpt_path)
    refs, hyps = [], []
    with _prefixed("stage 'evaluate'"):
        if not any(u.tokens for u in corpus):  # the error rate would be inf
            raise ValueError("every transcript is empty" if corpus else "no utterances")
        for i in range(0, len(corpus), cfg.batch_size):
            batch = pad_batch(corpus[i : i + cfg.batch_size])
            logits = finite_result(lambda: model(batch.feats, batch.lengths)[0])
            out_lengths = model.encoder.out_length(batch.lengths)
            for j, target in enumerate(batch.tokens):
                t_j = int(out_lengths[j])
                hyp = greedy_decode(logits.data[j, :t_j])
                refs.append(target)
                hyps.append([t - 1 for t in hyp])  # undo the blank offset
    ter = error_rate(refs, hyps)
    edits = sum(edit_distance(r, h) for r, h in zip(refs, hyps))
    return {
        "ter": ter,
        "n_utterances": len(refs),
        "total_ref_tokens": int(sum(len(r) for r in refs)),
        "total_edits": int(edits),
        "checkpoint": Path(ckpt_path).name,
        "provenance": provenance,
    }


# ---------------------------------------------------------------------------
# whole-pipeline variants
# ---------------------------------------------------------------------------

PIPELINES = ("draft", "saft", "no_adapt", "scratch")


def run_pipeline(cfg: PipelineConfig, workdir, variants: tuple) -> dict:
    """Run end-to-end variants on one set of corpora; returns {variant: report}.

    draft:    pretrain (source) -> adapter-only adapt (target) -> finetune
    saft:     pretrain (source) -> full adapt (target) -> finetune
    no_adapt: pretrain (source) -> finetune
    scratch:  random init -> finetune

    Each finetunes in mode 'full' (run_finetune runs the ablations). The variants that
    pretrain share one pretrain in `workdir`; each variant runs its other stages, scratch
    its 0-step pretrain too, in `workdir/<variant>/`, where an error names the variant.
    """
    if not (isinstance(variants, tuple) and variants and all(v in PIPELINES for v in variants)
            and len(set(variants)) == len(variants)):
        raise ValueError(f"variants must be a non-empty tuple of distinct names from {PIPELINES}, got {variants!r}")
    workdir = Path(workdir)
    corpora = build_corpora(cfg)
    if set(variants) != {"scratch"}:
        pre = run_pretrain(cfg, workdir, corpus=corpora["source_train"])
    reports = {}
    for variant in variants:
        vdir = workdir / variant
        with _prefixed(variant):
            if variant == "scratch":
                ckpt = run_pretrain(cfg, vdir, corpus=corpora["source_train"], steps=0)
            elif variant == "no_adapt":
                ckpt = pre
            else:
                ckpt = run_adapt(cfg, pre, vdir, mode=variant, corpus=corpora["target_train"])
            ckpt = run_finetune(cfg, ckpt, vdir, corpus=corpora["target_train"])
            reports[variant] = {**run_evaluate(cfg, ckpt, corpus=corpora["target_eval"]), "variant": variant}
    return reports


def sweep(settings: dict, key: str, values, workdir, variants: tuple):
    """Run run_pipeline on PipelineConfig(**{**settings, key: v}) in `workdir/<key>=<v>/`
    for each distinct v in `values`, yielding (v, {variant: report}) as each point ends; an
    error names its point. Every config is checked before this returns, and so is the spacing of
    corpus_seed values (closer than 4, two points would share corpora). key="seed" compares seeds."""
    if key not in {f.name for f in fields(PipelineConfig)}:
        raise ValueError(f"unknown sweep key '{key}'")
    configs = [PipelineConfig(**{**settings, key: v}) for v in values]
    if not values or len(set(values)) < len(values):
        raise ValueError(f"sweep needs distinct values of '{key}', got {list(values)}")
    if key == "corpus_seed":
        # corpus_seed + each offset seeds one corpus, so closer values share corpora
        span = max(offset for _, _, offset in _CORPORA.values()) + 1
        ordered = sorted(values)
        for a, b in zip(ordered, ordered[1:]):
            if b - a < span:
                raise ValueError(f"sweep values {a} and {b} of 'corpus_seed' are closer than {span}: "
                                 f"their built-in corpora would share utterances")

    def point(v, cfg):
        with _prefixed(f"{key}={v}"):
            return v, run_pipeline(cfg, Path(workdir) / f"{key}={v}", variants)
    return (point(v, cfg) for v, cfg in zip(values, configs))

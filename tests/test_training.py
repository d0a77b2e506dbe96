"""Three-stage pipeline: freeze guarantees, provenance, determinism."""

import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sslasr
from sslasr import engine as E
from sslasr.data import load_corpus, make_corpus, pad_batch, write_corpus
from sslasr.engine import Tape, Tensor, backward
from sslasr.io import load_checkpoint, read_jsonl, save_checkpoint, write_feat
from sslasr.objectives import (
    BidirectionalAPC,
    ContrastiveObjective,
    EAPCObjective,
    MaskedClusterObjective,
)
from sslasr.optim import Adam, clip_global_norm, noam_lr
from sslasr.training import (
    ADAPT_MODES,
    FINETUNE_MODES,
    NOAM_FACTOR,
    OBJECTIVES,
    PIPELINES,
    CTCModel,
    PipelineConfig,
    SSLBundle,
    _group,
    _train_loop,
    build_corpora,
    build_objective,
    restore,
    run_adapt,
    run_evaluate,
    run_finetune,
    run_pipeline,
    run_pretrain,
)


def tiny_cfg(**kw):
    # proto_len 8 with subsample 4 leaves two output frames per token, so
    # targets with adjacent repeats stay CTC-feasible
    base = dict(
        vocab_size=5, d_feat=4, proto_len=8, min_tokens=3, max_tokens=4,
        n_train=24, n_eval=10, d_model=16, n_heads=2, n_blocks=1, d_ffn=32,
        objective="eapc", apc_shift=1, apc_lags=1, mask_prob=0.5, span_len=2,
        n_negatives=3, n_codes=4, n_clusters=4,
        batch_size=4, pretrain_steps=4, adapt_steps=3, finetune_steps=3,
        noam_warmup=2, d_adapter=4, seed=0,
    )
    base.update(kw)
    return PipelineConfig(**base)


def nan_copy(ckpt_path, out_path):
    """A copy of a checkpoint with one NaN in the first conv's weight."""
    ckpt = load_checkpoint(ckpt_path)
    ckpt.params["model.conv.conv1.w"][1, 2, 3] = np.nan
    save_checkpoint(out_path, ckpt.params, ckpt.config, ckpt.provenance)
    return out_path


@pytest.fixture(scope="module")
def draft_chain(tmp_path_factory):
    cfg = tiny_cfg()
    work = tmp_path_factory.mktemp("chain")
    pre = run_pretrain(cfg, work)
    ada = run_adapt(cfg, pre, work, mode="draft")
    fin = run_finetune(cfg, ada, work, mode="full")
    report = run_evaluate(cfg, fin)
    return cfg, work, pre, ada, fin, report


class TestDraftFreeze:
    def test_backbone_and_generator_bit_identical_after_adapt(self, draft_chain):
        _, _, pre, ada, _, _ = draft_chain
        before = load_checkpoint(pre).params
        after = load_checkpoint(ada).params
        for name, arr in before.items():
            assert np.array_equal(after[name], arr), f"{name} changed during draft adapt"

    def test_adapters_were_actually_trained(self, draft_chain):
        _, _, pre, ada, _, _ = draft_chain
        before = set(load_checkpoint(pre).params)
        after = load_checkpoint(ada).params
        adapter_names = [n for n in after if n not in before]
        assert adapter_names, "adapt checkpoint grew no adapter parameters"
        up_weights = [after[n] for n in adapter_names if n.endswith("up.w")]
        assert any(np.abs(w).sum() > 0 for w in up_weights), \
            "zero-init up projections never moved"

    def test_checkpoint_records_adapter_width(self, draft_chain):
        cfg, _, pre, ada, _, _ = draft_chain
        assert load_checkpoint(pre).config["adapters_d"] == 0
        assert load_checkpoint(ada).config["adapters_d"] == cfg.d_adapter


class TestProvenance:
    def test_step_counts_accumulate_per_group(self, draft_chain):
        _, _, pre, ada, fin, report = draft_chain
        assert load_checkpoint(pre).provenance == {"f": 4, "ada": 0, "g": 4}
        assert load_checkpoint(ada).provenance == {"f": 4, "ada": 3, "g": 4}
        # full finetune trains backbone, adapters, and the fresh CTC head
        assert load_checkpoint(fin).provenance == {"f": 7, "ada": 6, "g": 7}
        assert report["provenance"] == {"f": 7, "ada": 6, "g": 7}

    def test_adapters_only_finetune_leaves_backbone_count(self, tmp_path):
        cfg = tiny_cfg()
        pre = run_pretrain(cfg, tmp_path)
        ada = run_adapt(cfg, pre, tmp_path, mode="draft")
        fin = run_finetune(cfg, ada, tmp_path, mode="adapters_only")
        assert load_checkpoint(fin).provenance == {"f": 4, "ada": 6, "g": 7}


class TestEvaluation:
    def test_report_shape(self, draft_chain):
        cfg, _, _, _, fin, report = draft_chain
        assert set(report) >= {"ter", "n_utterances", "total_ref_tokens",
                               "total_edits", "checkpoint", "provenance"}
        assert report["n_utterances"] == cfg.n_eval
        assert report["ter"] == report["total_edits"] / report["total_ref_tokens"]
        assert np.isfinite(report["ter"])

    def test_default_corpus_draws_only_the_eval_corpus(self, draft_chain, monkeypatch):
        cfg, _, _, _, fin, report = draft_chain
        calls = []
        monkeypatch.setattr(sslasr.training, "make_corpus",
                            lambda *a: calls.append(a) or make_corpus(*a))
        assert run_evaluate(cfg, fin) == report
        assert [a[1:] for a in calls] == [("target", cfg.n_eval, cfg.corpus_seed + 3)]
        monkeypatch.undo()
        assert run_evaluate(cfg, fin, corpus=build_corpora(cfg)["target_eval"]) == report

    def test_empty_corpus_rejected(self, draft_chain):
        cfg, _, _, _, fin, _ = draft_chain
        with pytest.raises(ValueError, match="^stage 'evaluate': no utterances$"):
            run_evaluate(cfg, fin, corpus=[])

    def test_corpus_without_a_reference_token_rejected(self, draft_chain):
        # the token error rate over no reference tokens would be inf
        cfg, _, _, _, fin, _ = draft_chain
        corpus = build_corpora(cfg)["target_eval"]
        silent = [replace(u, tokens=[]) for u in corpus]
        with pytest.raises(ValueError, match="^stage 'evaluate': every transcript is empty$"):
            run_evaluate(cfg, fin, corpus=silent)
        report = run_evaluate(cfg, fin, corpus=[corpus[0]] + silent[1:])
        assert report["total_ref_tokens"] == len(corpus[0].tokens)
        assert np.isfinite(report["ter"])

    def test_load_finetuned_roundtrip(self, draft_chain):
        cfg, _, _, _, fin, _ = draft_chain
        model, provenance = restore("evaluate", cfg, fin)
        assert isinstance(model, CTCModel)
        stored = load_checkpoint(fin).params
        restored = model.named_params()
        assert set(restored) == set(stored)
        assert any(k.startswith("model.adapter") for k in restored)
        for k, t in restored.items():
            assert np.array_equal(t.data, stored[k])
        assert provenance == {"f": 7, "ada": 6, "g": 7}


class TestMetricsLogs:
    def test_per_step_records(self, draft_chain):
        cfg, work, _, _, _, _ = draft_chain
        records = read_jsonl(work / "pretrain_metrics.jsonl")
        assert len(records) == cfg.pretrain_steps
        for i, rec in enumerate(records, 1):
            assert rec["step"] == i and rec["stage"] == "pretrain"
            assert np.isfinite(rec["loss"]) and rec["lr"] > 0
            assert np.isfinite(rec["grad_norm"]) and rec["grad_norm"] > 0
            assert rec["seed"] == cfg.seed
        assert len(read_jsonl(work / "adapt_draft_metrics.jsonl")) == cfg.adapt_steps
        assert len(read_jsonl(work / "finetune_full_metrics.jsonl")) == cfg.finetune_steps

    def test_rerun_starts_a_fresh_log(self, tmp_path):
        cfg = tiny_cfg(pretrain_steps=3)
        run_pretrain(cfg, tmp_path)
        run_pretrain(cfg, tmp_path)
        records = read_jsonl(tmp_path / "pretrain_metrics.jsonl")
        assert [r["step"] for r in records] == [1, 2, 3]


class TestNonFiniteSteps:
    """A non-finite loss or gradient stops the stage before any weight moves."""

    def test_infinite_gradient_raises_before_the_update(self, tmp_path):
        # d/dw log(w) = 1/w overflows float32 at w = 1e-45; the clipped
        # update used to write NaN into w and carry on
        w = Tensor(np.array([1e-45, 1.0], dtype=np.float32))
        before = w.data.copy()
        metrics = tmp_path / "m.jsonl"
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="stage 'pretrain' step 1: non-finite gradient norm"):
            _train_loop("pretrain", tiny_cfg(), [None], lambda batch, rng, step: E.sum_(E.log(w)),
                        {"w": w}, {"w": w}, 1, lambda s: 1e-3, metrics)
        np.testing.assert_array_equal(w.data, before)
        assert not metrics.exists()

    @pytest.mark.parametrize("kind,match", [
        ("forward", "stage 'pretrain' step 1: non-finite values produced by op 'mul'"),
        ("gradient", "stage 'pretrain' step 1: non-finite gradient norm nan"),
    ], ids=["forward", "gradient"])
    def test_stage_writes_no_checkpoint(self, kind, match, tmp_path, monkeypatch):
        loss = SSLBundle.loss

        def poisoned(self, batch, rng, step):
            out = loss(self, batch, rng, step)
            if kind == "forward":
                return E.mul(out, Tensor(np.float32(np.inf)))
            # log(0*w + 1e-45) is finite, but its gradient 0 * (1/1e-45) is NaN
            w = next(iter(self.encoder.named_params().values()))
            tiny = E.add(E.mul(w, Tensor(np.float32(0.0))), Tensor(np.float32(1e-45)))
            return E.add(out, E.sum_(E.log(tiny)))

        monkeypatch.setattr(SSLBundle, "loss", poisoned)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=match):
            run_pretrain(tiny_cfg(), tmp_path)
        assert not (tmp_path / "pretrain.ckpt").exists()
        assert not (tmp_path / "pretrain_metrics.jsonl").exists()

    @pytest.mark.parametrize("stage", ["pretrain", "adapt"])
    def test_a_rerun_that_fails_late_leaves_the_previous_run_untouched(self, stage, tmp_path, monkeypatch):
        # the new log replaces the old one only once the new checkpoint is
        # written; adapt reruns from its own checkpoint, which must survive
        cfg = tiny_cfg()
        pre = run_pretrain(cfg, tmp_path)
        ada = run_adapt(cfg, pre, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        loss = SSLBundle.loss

        def nan_at_step_3(self, batch, rng, step):
            return E.mul(loss(self, batch, rng, step), Tensor(np.float32(np.nan if step == 3 else 1.0)))

        monkeypatch.setattr(SSLBundle, "loss", nan_at_step_3)
        rerun = replace(cfg, seed=1)
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=f"^stage '{stage}' step 3: non-finite values produced by op 'mul'$"):
            if stage == "pretrain":
                run_pretrain(rerun, tmp_path)
            else:
                run_adapt(rerun, ada, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_nan_backbone_weight_names_the_first_op_reading_it(self, tmp_path):
        cfg = tiny_cfg()
        nan = nan_copy(run_pretrain(cfg, tmp_path), tmp_path / "nan.ckpt")
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            run_adapt(cfg, nan, tmp_path / "adapt")
        assert str(exc.value) == "stage 'adapt' step 1: non-finite values produced by op 'conv1d'"
        assert list((tmp_path / "adapt").iterdir()) == []
        # the replay is over: an op called directly checks nothing again
        assert E._replaying is False
        with np.errstate(all="ignore"):
            assert E.log(Tensor([0.0])).data[0] == -np.inf

    def test_nan_finetune_weight_names_the_first_op_in_evaluation(self, draft_chain, tmp_path):
        cfg, _, _, _, fin, _ = draft_chain
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            run_evaluate(cfg, nan_copy(fin, tmp_path / "nan.ckpt"))
        assert str(exc.value) == "stage 'evaluate': non-finite values produced by op 'conv1d'"

    def test_nan_backbone_weight_names_the_first_op_in_adapt_cluster_targets(self, tmp_path):
        cfg = tiny_cfg(objective="masked_cluster", pretrain_steps=1)
        nan = nan_copy(run_pretrain(cfg, tmp_path), tmp_path / "nan.ckpt")
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            run_adapt(cfg, nan, tmp_path / "adapt")
        assert str(exc.value) == "stage 'adapt': non-finite values produced by op 'conv1d'"
        assert not (tmp_path / "adapt").exists()

    def test_an_intermediate_that_misses_the_loss_does_not_stop_the_step(self, tmp_path):
        # log(0) is selected away: only the loss and the gradient norm
        # decide whether a step fails
        w = Tensor(np.array([0.5, 2.0]), requires_grad=True)

        def loss_fn(batch, rng, step):
            return E.sum_(E.where_mask(E.log(Tensor(np.zeros(2))), E.mul(w, w), [False, False]))

        with np.errstate(all="ignore"):
            _train_loop("adapt", tiny_cfg(), [None], loss_fn, {"w": w}, {"w": w}, 2,
                        lambda s: 1e-3, tmp_path / "m.jsonl")
        assert [r["step"] for r in read_jsonl(tmp_path / "m.jsonl")] == [1, 2]


class TestFrozenGradients:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_skipping_frozen_gradients_is_exact(self, objective):
        """A draft step's adapter gradients do not depend on whether the
        backbone's gradients are computed, and a frozen tensor gets none."""
        cfg = tiny_cfg(objective=objective, n_train=8)
        corpus = build_corpora(cfg)["target_train"][: cfg.batch_size]
        grads = {}
        for frozen in (True, False):
            bundle = SSLBundle(cfg, seed=0)
            if objective == "masked_cluster":
                bundle.prepare_cluster_targets("pretrain", corpus, np.random.default_rng(1))
            bundle.insert_adapters(cfg.d_adapter, np.random.default_rng(2))
            params, fill = bundle.named_params(), np.random.default_rng(4)
            for name, t in params.items():
                if _group(name) == "ada":  # in place, so aliased Bi-APC adapters stay aliased
                    t.data[...] = fill.normal(size=t.data.shape)
                t.requires_grad = not frozen or _group(name) == "ada"
            with Tape() as tape:
                backward(bundle.loss(corpus, np.random.default_rng(3), 1), tape)
            grads[frozen] = {name: t.grad for name, t in params.items()}
        adapters = [name for name in grads[True] if _group(name) == "ada"]
        assert adapters
        for name, g in grads[True].items():
            if name in adapters:
                assert g is not None and np.any(g != 0), name
                np.testing.assert_array_equal(g, grads[False][name], err_msg=name)
            else:
                assert g is None, name


class TestInsertedAdapters:
    @pytest.mark.parametrize("objective,scheme",
                             [(o, "share_generator") for o in OBJECTIVES if o != "biapc"]
                             + [("biapc", s) for s in BidirectionalAPC.SCHEMES])
    def test_inserted_adapters_are_an_exact_passthrough(self, objective, scheme):
        cfg = tiny_cfg(objective=objective, biapc_scheme=scheme, n_train=8)
        corpus = build_corpora(cfg)["target_train"][: cfg.batch_size]
        bundle = SSLBundle(cfg, seed=0)
        if objective == "masked_cluster":
            bundle.prepare_cluster_targets("pretrain", corpus, np.random.default_rng(1))
        before = bundle.loss(corpus, np.random.default_rng(3), 1).data
        bundle.insert_adapters(cfg.d_adapter, np.random.default_rng(2))
        assert any(_group(name) == "ada" for name in bundle.named_params())
        assert bundle.loss(corpus, np.random.default_rng(3), 1).data.tobytes() == before.tobytes()


class _ReferenceAdam:
    """Adam one tensor at a time, with fresh arrays: the arena's oracle."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.b1, self.b2, self.eps, self.t = dict(params), beta1, beta2, eps, 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        self.t += 1
        c1, c2 = 1.0 - self.b1**self.t, 1.0 - self.b2**self.t
        for k, p in self.params.items():
            if p.grad is not None:
                self.m[k] = self.b1 * self.m[k] + (1.0 - self.b1) * p.grad
                self.v[k] = self.b2 * self.v[k] + (1.0 - self.b2) * p.grad * p.grad
                p.data = p.data - lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)


def _reference_clip(params, max_norm):
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(sq)
    if norm > max_norm and norm > 0:
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * (max_norm / norm)
    return norm


class TestParameterArena:
    """Adam's flat buffers reproduce the per-tensor update bit for bit."""

    @pytest.mark.parametrize("objective,scheme", [("eapc", "share_generator"), ("biapc", "share_all")])
    def test_steps_match_per_tensor_reference(self, objective, scheme):
        cfg = tiny_cfg(objective=objective, biapc_scheme=scheme, apc_lags=2)
        max_norm = 0.5  # under the pipeline's CLIP_NORM, so that the clip scales
        corpus = build_corpora(cfg)["source_train"]
        runs = {}
        for kind in ("arena", "reference"):
            bundle = SSLBundle(cfg, seed=0)
            # a trainable tensor that leaves the graph after step 2 and must then stay put
            idle = Tensor(np.ones(3, np.float32), requires_grad=True)
            params = {**bundle.named_params(), "idle": idle}
            opt = Adam(params) if kind == "arena" else _ReferenceAdam(params)
            clip = clip_global_norm if kind == "arena" else _reference_clip
            trace = []
            for step in range(1, 5):
                rng = np.random.default_rng([cfg.seed, 1, step])
                batch = [corpus[int(i)] for i in rng.choice(len(corpus), cfg.batch_size, replace=False)]
                for t in params.values():
                    t.grad = None
                with Tape() as tape:
                    loss = bundle.loss(batch, rng, step)
                    if step <= 2:
                        loss = E.add(loss, E.sum_(E.mul(idle, Tensor(np.full(3, 0.25, np.float32)))))
                    backward(loss, tape)
                norm = clip(params, max_norm)
                opt.step(noam_lr(step, cfg.d_model, cfg.noam_warmup, NOAM_FACTOR))
                if kind == "arena":
                    slot = {id(p): s for p, s in opt.layout}
                    m = {k: opt.m[slot[id(t)]] for k, t in params.items()}
                    v = {k: opt.v[slot[id(t)]] for k, t in params.items()}
                else:
                    m, v = opt.m, opt.v
                trace.append((norm, {k: (t.data.tobytes(), m[k].tobytes(), v[k].tobytes())
                                     for k, t in params.items()}))
            runs[kind] = trace
        assert any(norm > max_norm for norm, _ in runs["arena"])  # the clip scaled
        for step, (got, want) in enumerate(zip(runs["arena"], runs["reference"]), 1):
            assert got[0].hex() == want[0].hex(), step
            for k in want[1]:
                assert got[1][k] == want[1][k], (step, k)
        assert runs["arena"][1][1]["idle"] == runs["arena"][3][1]["idle"]
        assert runs["arena"][1][1]["idle"][0] != np.ones(3, np.float32).tobytes()

    def test_weight_writers_keep_tensors_in_the_arena(self):
        bundle = SSLBundle(tiny_cfg(objective="biapc", biapc_scheme="share_generator"), seed=0)
        params = bundle.named_params()
        opt = Adam(params)
        views = {k: t.data for k, t in params.items()}
        stored = {k: np.full(t.shape, i, np.float32) for i, (k, t) in enumerate(params.items())}
        stored["rev.model.final_ln.g"] = np.full(params["rev.model.final_ln.g"].shape, 7.0)
        bundle.load_params(stored)
        bundle.pair.average_directions()
        assert all(t.data is views[k] for k, t in params.items())
        np.testing.assert_array_equal(params["fwd.model.final_ln.g"].data,
                                      (stored["fwd.model.final_ln.g"] + 7.0) / 2)
        for p, s in opt.layout:
            assert np.shares_memory(p.data, opt.data)
            np.testing.assert_array_equal(opt.data[s], p.data.reshape(-1))


class TestDiskCorpus:
    def test_library_path_checks_feature_width_before_training(self, tmp_path):
        cfg = tiny_cfg()
        manifest = write_corpus(tmp_path / "c", cfg, "source", 3, seed=1, emit="features")
        write_feat(tmp_path / "c" / "feats" / "source_00001.feat",
                   np.zeros((20, 5), np.float32), shift_ms=0.0, window_ms=0.0)
        run = tmp_path / "run"
        with pytest.raises(ValueError, match=r"manifest\.tsv: utterance 'source_00001' has feature "
                                             r"dim 5 but config d_feat=4"):
            run_pretrain(cfg, run, corpus=load_corpus(manifest, cfg))
        assert not run.exists()


class TestBundleRoundTrip:
    def test_load_bundle_restores_params(self, draft_chain):
        cfg, _, pre, _, _, _ = draft_chain
        bundle, provenance = restore("adapt", cfg, pre)
        assert isinstance(bundle, SSLBundle)
        stored = load_checkpoint(pre).params
        assert set(bundle.named_params()) == set(stored)
        for k, t in bundle.named_params().items():
            assert np.array_equal(t.data, stored[k])
        assert provenance == {"f": 4, "ada": 0, "g": 4}

    def test_structural_mismatch_rejected(self, draft_chain):
        _, _, pre, _, _, _ = draft_chain
        with pytest.raises(ValueError, match="config mismatch"):
            restore("adapt", tiny_cfg(d_model=32), pre)
        with pytest.raises(ValueError, match="config mismatch"):
            restore("adapt", tiny_cfg(objective="apc"), pre)

    def test_structural_mismatch_names_the_stage(self, draft_chain, tmp_path):
        _, _, pre, _, fin, _ = draft_chain
        wide = tiny_cfg(d_model=32)
        for stage, run in (("adapt", lambda: run_adapt(wide, pre, tmp_path)),
                           ("finetune", lambda: run_finetune(wide, pre, tmp_path)),
                           ("evaluate", lambda: run_evaluate(wide, fin))):
            with pytest.raises(ValueError) as exc:
                run()
            assert str(exc.value) == (f"stage '{stage}': config mismatch with checkpoint "
                                      "on fields ['d_model']")
        assert not any(tmp_path.iterdir())

    def test_restored_objective_takes_the_callers_settings(self, tmp_path):
        # the checkpoint holds weights; non-structural objective settings
        # come from the config of the stage that restores it
        cfg = tiny_cfg(objective="contrastive", pretrain_steps=1)
        pre = run_pretrain(cfg, tmp_path / "c")
        changed = replace(cfg, mask_prob=0.9, span_len=7, n_negatives=2, tau_cos=0.5,
                          diversity_weight=0.3)
        bundle, _ = restore("adapt", changed, pre)
        assert bundle.obj.cfg == changed
        cfg = tiny_cfg(objective="masked_cluster", pretrain_steps=1)
        pre = run_pretrain(cfg, tmp_path / "m")
        changed = replace(cfg, mask_prob=0.9, span_len=3, cluster_alpha=0.25)
        bundle, _ = restore("adapt", changed, pre)
        assert bundle.obj.cfg == changed

    def test_adapt_stage_uses_the_callers_objective_settings(self, tmp_path):
        cfg = tiny_cfg(objective="contrastive", pretrain_steps=1, adapt_steps=2)
        pre = run_pretrain(cfg, tmp_path)
        logs = []
        for mask_prob in (0.2, 0.9):
            work = tmp_path / f"p{mask_prob}"
            ada = run_adapt(replace(cfg, mask_prob=mask_prob), pre, work)
            assert load_checkpoint(ada).config["mask_prob"] == mask_prob
            logs.append((work / "adapt_draft_metrics.jsonl").read_bytes())
        assert logs[0] != logs[1]

    def test_wrong_stage_checkpoint_rejected(self, draft_chain, tmp_path):
        cfg, _, pre, _, fin, _ = draft_chain
        with pytest.raises(ValueError, match="'finetune' cannot start from a finetune"):
            run_finetune(cfg, fin, tmp_path)
        with pytest.raises(ValueError, match="'adapt' cannot start from a finetune"):
            run_adapt(cfg, fin, tmp_path)
        with pytest.raises(ValueError, match="'evaluate' cannot start from a pretrain"):
            run_evaluate(cfg, pre)

    def test_restore_checks_before_building_a_model(self, draft_chain, monkeypatch):
        cfg, _, pre, _, fin, _ = draft_chain
        built = []

        def counting(init):
            def counted(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)
            return counted

        for cls in (SSLBundle, CTCModel):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        with pytest.raises(ValueError, match="'evaluate' cannot start from a pretrain"):
            restore("evaluate", cfg, pre)
        with pytest.raises(ValueError, match="'adapt' cannot start from a finetune"):
            restore("adapt", cfg, fin)
        # the structural fields are checked first, then the kind
        with pytest.raises(ValueError, match="config mismatch with checkpoint on fields"):
            restore("evaluate", tiny_cfg(d_model=32), pre)
        assert built == []
        restore("evaluate", cfg, fin)
        assert built == ["CTCModel"]

    def test_param_groups_partition(self):
        for objective in ("eapc", "biapc"):
            bundle = SSLBundle(tiny_cfg(objective=objective), seed=0)
            bundle.insert_adapters(4, np.random.default_rng(0))
            groups = {}
            for name in bundle.named_params():
                groups.setdefault(_group(name), set()).add(name)
            assert set(groups) == {"f", "ada", "g"}
            assert all(".adapter" in n for n in groups["ada"])
            assert all(n.startswith("obj.") or ".gen." in n for n in groups["g"])
            assert not any("adapter" in n or "gen" in n or n.startswith("obj.")
                           for n in groups["f"])


class TestModeValidation:
    def test_unknown_names_rejected(self, draft_chain, tmp_path):
        cfg, _, pre, _, _, _ = draft_chain
        with pytest.raises(ValueError, match="^stage 'adapt': unknown adapt mode 'drift'$"):
            run_adapt(cfg, pre, tmp_path, mode="drift")
        with pytest.raises(ValueError, match="^stage 'finetune': unknown finetune mode 'partial'$"):
            run_finetune(cfg, pre, tmp_path, mode="partial")
        for variants in ((), ("draft", "draft"), ("baseline",), "draft"):
            with pytest.raises(ValueError, match="variants must be a non-empty tuple of distinct names"):
                run_pipeline(cfg, tmp_path / "pipeline", variants)
        assert not (tmp_path / "pipeline").exists()
        with pytest.raises(ValueError, match="setting 'objective' must be one of .*, got 'mlm'"):
            SSLBundle(tiny_cfg(objective="mlm"), seed=0)

    def test_saft_rejects_adapter_checkpoints(self, draft_chain, tmp_path):
        cfg, _, _, ada, _, _ = draft_chain
        with pytest.raises(ValueError, match="^stage 'adapt': saft does not apply to a model with adapters$"):
            run_adapt(cfg, ada, tmp_path, mode="saft")

    def test_adapter_modes_need_adapters(self, draft_chain, tmp_path):
        cfg, _, pre, ada, _, _ = draft_chain
        with pytest.raises(ValueError, match="^stage 'finetune': finetune mode 'adapters_only' "
                                             "requires a checkpoint with adapters$"):
            run_finetune(cfg, pre, tmp_path, mode="adapters_only")
        with pytest.raises(ValueError, match="^stage 'finetune': finetune mode 'plus_ra' "
                                             "requires a checkpoint without adapters$"):
            run_finetune(cfg, ada, tmp_path, mode="plus_ra")

    def test_adapter_width_conflict_rejected(self, draft_chain, tmp_path):
        cfg, _, _, ada, _, _ = draft_chain
        wider = tiny_cfg(d_adapter=8, adapt_steps=1)
        with pytest.raises(ValueError) as info:
            run_adapt(wider, ada, tmp_path, mode="draft")
        assert str(info.value) == "stage 'adapt': checkpoint has adapters of width 4, not 8"

    def test_infeasible_ctc_target_is_refused_before_a_file_is_written(self, draft_chain, tmp_path):
        # 4 frames make 1 encoder frame, too few for any 3-4 token transcript
        cfg, _, pre, _, _, _ = draft_chain
        corpus = build_corpora(cfg)["target_train"]
        for i in (5, 3):
            corpus[i] = replace(corpus[i], feats=corpus[i].feats[:4])
        need = len(corpus[3].tokens) + sum(a == b for a, b in zip(corpus[3].tokens, corpus[3].tokens[1:]))
        with pytest.raises(ValueError, match=f"^stage 'finetune': utterance 'target_00003' has 1 encoder "
                                             f"frames, fewer than the {need} that CTC needs to emit its "
                                             f"transcript$"):
            run_finetune(cfg, pre, tmp_path / "ft", corpus=corpus)
        assert not (tmp_path / "ft").exists()


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self, tmp_path):
        cfg = tiny_cfg(n_train=16, n_eval=6, pretrain_steps=2, adapt_steps=2,
                       finetune_steps=2)
        r1 = run_pipeline(cfg, tmp_path / "a", ("draft",))["draft"]
        r2 = run_pipeline(cfg, tmp_path / "b", ("draft",))["draft"]
        assert r1["ter"] == r2["ter"]
        assert r1["total_edits"] == r2["total_edits"]
        ck1 = (tmp_path / "a" / "draft" / "finetune_full.ckpt").read_bytes()
        ck2 = (tmp_path / "b" / "draft" / "finetune_full.ckpt").read_bytes()
        assert ck1 == ck2

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # a draft pipeline at the default model size, once per thread count,
        # each in its own process so OpenBLAS reads the variable at load
        script = ("import sys\n"
                  "from sslasr.training import PipelineConfig, run_pipeline\n"
                  "run_pipeline(PipelineConfig(n_train=16, n_target=16, n_eval=8, pretrain_steps=3,\n"
                  "             adapt_steps=2, finetune_steps=2, noam_warmup=2), sys.argv[1], ('draft',))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(sslasr.__file__)))
        written = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
            subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)], env=env,
                           check=True, timeout=300)
            written[threads] = {p.relative_to(tmp_path / threads): p.read_bytes()
                                for p in sorted((tmp_path / threads).rglob("*")) if p.is_file()}
        assert len(written["1"]) >= 6
        assert written["1"] == written["2"]

    def test_seed_changes_results(self, tmp_path):
        base = tiny_cfg(n_train=16, n_eval=6, pretrain_steps=2, adapt_steps=0,
                        finetune_steps=2)
        run_pipeline(base, tmp_path / "a", ("no_adapt",))
        other = tiny_cfg(n_train=16, n_eval=6, pretrain_steps=2, adapt_steps=0,
                         finetune_steps=2, seed=1)
        run_pipeline(other, tmp_path / "b", ("no_adapt",))
        ck1 = load_checkpoint(tmp_path / "a" / "no_adapt" / "finetune_full.ckpt").params
        ck2 = load_checkpoint(tmp_path / "b" / "no_adapt" / "finetune_full.ckpt").params
        assert any(not np.array_equal(ck1[k], ck2[k]) for k in ck1)


class TestRunPipeline:
    def test_variants_share_one_pretrain(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(n_train=16, n_target=12, n_eval=6, pretrain_steps=2, adapt_steps=2,
                       finetune_steps=2)
        variants, work, calls = ("draft", "saft", "no_adapt"), tmp_path / "all", []
        monkeypatch.setattr(sslasr.training, "run_pretrain",
                            lambda *a, **kw: calls.append(a) or run_pretrain(*a, **kw))
        reports = run_pipeline(cfg, work, variants)
        monkeypatch.undo()
        assert len(calls) == 1 and list(reports) == list(variants)
        assert sorted(p.relative_to(work).as_posix() for p in work.rglob("pretrain*")) == \
            ["pretrain.ckpt", "pretrain_metrics.jsonl"]
        for variant in variants:
            alone = run_pipeline(cfg, tmp_path / variant, (variant,))[variant]
            assert reports[variant] == alone

    def test_an_error_names_the_variant(self, tmp_path):
        # one target utterance has too few frame groups to seed 20 clusters at
        # adapt; the shared pretrain belongs to no variant
        cfg = tiny_cfg(objective="masked_cluster", n_target=1, n_clusters=20)
        with pytest.raises(ValueError, match=r"^draft: stage 'adapt': fewer points than clusters: "
                                             r"\d+ points, 20 clusters$"):
            run_pipeline(cfg, tmp_path / "adapt", ("no_adapt", "draft"))
        assert (tmp_path / "adapt/no_adapt/finetune_full.ckpt").is_file()
        with pytest.raises(ValueError, match=r"^stage 'pretrain': fewer points than clusters: "):
            run_pipeline(replace(cfg, n_train=2), tmp_path / "pretrain", ("no_adapt", "draft"))

    @pytest.mark.parametrize("scheme", BidirectionalAPC.SCHEMES)
    def test_biapc_scratch_is_the_random_init_of_every_objective(self, scheme, tmp_path):
        # no backbone step: finetuning takes the forward encoder as it is,
        # not the average of the pair's two random inits
        cfg = tiny_cfg(n_train=16, n_target=12, n_eval=6, apc_lags=2, pretrain_steps=3,
                       adapt_steps=2, finetune_steps=2, biapc_scheme=scheme)
        biapc, eapc = (run_pipeline(replace(cfg, objective=objective), tmp_path / objective,
                                    ("scratch",))["scratch"]
                       for objective in ("biapc", "eapc"))
        assert biapc == eapc


class TestObjectiveCoverage:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_full_chain_per_objective(self, objective, tmp_path):
        cfg = tiny_cfg(objective=objective, n_train=16, n_eval=6,
                       pretrain_steps=2, adapt_steps=2, finetune_steps=2,
                       mask_prob=0.6)
        assert np.isfinite(run_pipeline(cfg, tmp_path, ("draft",))["draft"]["ter"])

    def test_saft_chain(self, tmp_path):
        cfg = tiny_cfg(n_train=16, n_eval=6, pretrain_steps=2, adapt_steps=2,
                       finetune_steps=2)
        report = run_pipeline(cfg, tmp_path, ("saft",))["saft"]
        before = load_checkpoint(tmp_path / "pretrain.ckpt").params
        after = load_checkpoint(tmp_path / "saft" / "adapt_saft.ckpt").params
        # saft moves the backbone, unlike draft
        assert any(not np.array_equal(after[k], before[k]) for k in before)
        assert np.isfinite(report["ter"])

    def test_spec_augment_path(self, tmp_path):
        cfg = tiny_cfg(n_train=16, n_eval=6, pretrain_steps=1, finetune_steps=2,
                       spec_augment=True)
        pre = run_pretrain(cfg, tmp_path)
        fin = run_finetune(cfg, pre, tmp_path, mode="plus_ra")
        assert np.isfinite(run_evaluate(cfg, fin)["ter"])


class TestClusterTargets:
    def test_encoder_targets_differ_from_raw_feature_targets(self):
        cfg = tiny_cfg(objective="masked_cluster", n_train=16)
        corpus = build_corpora(cfg)["source_train"]
        labels = {}
        for stage in ("pretrain", "adapt"):
            bundle = SSLBundle(cfg, seed=0)
            bundle.prepare_cluster_targets(stage, corpus, np.random.default_rng(0))
            assert set(bundle.obj.targets) == {u.utt_id for u in corpus}
            labels[stage] = np.concatenate([bundle.obj.targets[u.utt_id] for u in corpus])
        assert labels["pretrain"].shape == labels["adapt"].shape
        assert not np.array_equal(labels["pretrain"], labels["adapt"])

    def test_restored_bundle_has_no_targets(self, tmp_path):
        cfg = tiny_cfg(objective="masked_cluster", n_train=16, pretrain_steps=2)
        pre = run_pretrain(cfg, tmp_path)
        assert not any(k.startswith("aux.") for k in load_checkpoint(pre).params)
        bundle, _ = restore("adapt", cfg, pre)
        corpus = build_corpora(cfg)["source_train"]
        with pytest.raises(RuntimeError, match="cluster targets not prepared"):
            bundle.loss(corpus[:2], np.random.default_rng(0), 1)

    def test_labels_require_preparation(self):
        bundle = SSLBundle(tiny_cfg(objective="masked_cluster"), seed=0)
        corpus = build_corpora(tiny_cfg(objective="masked_cluster"))["source_train"]
        with pytest.raises(RuntimeError, match="cluster targets not prepared"):
            bundle.obj.loss(bundle.encoder, pad_batch(corpus[:2]), np.random.default_rng(0), 1)


class TestObjectiveContract:
    def test_build_objective_maps_every_name(self):
        classes = {"apc": EAPCObjective, "eapc": EAPCObjective, "biapc": BidirectionalAPC,
                   "contrastive": ContrastiveObjective, "masked_cluster": MaskedClusterObjective}
        assert set(classes) == set(OBJECTIVES)
        for name, cls in classes.items():
            assert type(build_objective(tiny_cfg(objective=name), seed=0)) is cls, name
        assert len(build_objective(tiny_cfg(objective="apc"), 0).children) == 1
        with pytest.raises(ValueError, match="setting 'objective' must be one of .*, got 'mlm'"):
            build_objective(tiny_cfg(objective="mlm"), seed=0)

    def test_apc_family_needs_a_causal_encoder(self):
        for name in ("apc", "eapc", "biapc"):
            with pytest.raises(ValueError, match=f"objective '{name}' needs causal=True"):
                build_objective(tiny_cfg(objective=name, causal=False), seed=0)
        for name in ("contrastive", "masked_cluster"):
            build_objective(tiny_cfg(objective=name, causal=False), seed=0)

    def test_non_causal_apc_pipeline_names_the_pretrain_stage(self, tmp_path):
        # construction accepts causal=False: a finetune of a non-causal encoder needs it
        with pytest.raises(ValueError, match="^stage 'pretrain': objective 'eapc' needs causal=True"):
            run_pipeline(tiny_cfg(causal=False), tmp_path, ("draft",))
        assert not tmp_path.joinpath("pretrain_metrics.jsonl").exists()


class TestDegenerateInput:
    # one token of proto_len frames per utterance: a single frame group
    @pytest.mark.parametrize("overrides,match", [
        (dict(objective="contrastive"),
         r"stage 'pretrain' step 1: no contrastive anchors in batch"),
        (dict(objective="eapc", apc_shift=2),
         r"stage 'pretrain' step 1: no valid prediction targets at any lag"),
        (dict(objective="masked_cluster", n_train=2, proto_len=8, n_clusters=16),
         r"stage 'pretrain': fewer points than clusters: 4 points, 16 clusters"),
    ], ids=["contrastive", "eapc", "masked_cluster"])
    def test_degenerate_batch_names_its_context(self, overrides, match, tmp_path):
        cfg = tiny_cfg(**{**dict(min_tokens=1, max_tokens=1, proto_len=4, n_train=12),
                          **overrides})
        with pytest.raises(ValueError, match=match) as info:
            run_pretrain(cfg, tmp_path)
        if "step" in match:
            assert isinstance(info.value.__cause__, ValueError)
        assert not (tmp_path / "pretrain.ckpt").exists()

    def test_masked_cluster_corpus_checked_before_labelling(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(objective="masked_cluster", n_clusters=16)
        pre = run_pretrain(cfg, tmp_path)
        one = build_corpora(cfg)["source_train"][:1]
        points = one[0].feats.shape[0] // 4
        assert points < 16

        def unreachable(*args, **kwargs):
            raise AssertionError("cluster targets prepared")

        monkeypatch.setattr(MaskedClusterObjective, "prepare", unreachable)
        for stage, run in (("pretrain", lambda c: run_pretrain(cfg, tmp_path, corpus=c)),
                           ("adapt", lambda c: run_adapt(cfg, pre, tmp_path, corpus=c))):
            with pytest.raises(ValueError, match=f"stage '{stage}' has no utterances"):
                run([])
            with pytest.raises(ValueError, match=f"stage '{stage}': fewer points than clusters: "
                                                 f"{points} points, 16 clusters"):
                run(one)

    def test_a_stage_with_no_steps_prepares_no_cluster_targets(self, tmp_path):
        # 14 frame groups cannot seed 16 clusters, but scratch never pretrains,
        # and it alone writes no shared pretrain
        cfg = tiny_cfg(objective="masked_cluster", causal=False, n_train=2, n_clusters=16)
        assert np.isfinite(run_pipeline(cfg, tmp_path, ("scratch",))["scratch"]["ter"])
        assert not (tmp_path / "pretrain.ckpt").exists()
        with pytest.raises(ValueError, match="stage 'pretrain': fewer points than clusters: "
                                             "14 points, 16 clusters"):
            run_pretrain(cfg, tmp_path / "pretrained", steps=1)

    def test_empty_corpus_rejected_by_every_training_stage(self, tmp_path):
        cfg = tiny_cfg()
        with pytest.raises(ValueError, match="stage 'pretrain' has no utterances"):
            run_pretrain(cfg, tmp_path / "fresh", corpus=[])
        assert not (tmp_path / "fresh").exists()
        pre = run_pretrain(cfg, tmp_path, steps=0)
        with pytest.raises(ValueError, match="stage 'finetune' has no utterances"):
            run_finetune(cfg, pre, tmp_path, corpus=[])

    def test_a_refused_rerun_leaves_the_previous_run_untouched(self, draft_chain):
        # the refusal comes before the stage deletes its metrics log or writes
        cfg, work, pre, ada, _, _ = draft_chain
        before = {p: p.read_bytes() for p in work.iterdir()}
        for stage, run in (("pretrain", lambda: run_pretrain(cfg, work, corpus=[])),
                           ("adapt", lambda: run_adapt(cfg, pre, work, corpus=[])),
                           ("finetune", lambda: run_finetune(cfg, ada, work, corpus=[]))):
            with pytest.raises(ValueError, match=f"^stage '{stage}' has no utterances$"):
                run()
            assert {p: p.read_bytes() for p in work.iterdir()} == before


def test_registry_constants():
    assert OBJECTIVES == ("apc", "eapc", "biapc", "contrastive", "masked_cluster")
    assert ADAPT_MODES == ("draft", "saft")
    assert set(FINETUNE_MODES) == {"full", "adapters_frozen", "adapters_only",
                                   "random_adapters", "plus_ra"}
    assert PIPELINES == ("draft", "saft", "no_adapt", "scratch")


def test_odd_d_model_is_rejected_by_name():
    # n_heads=3 divides 9, so only the sinusoidal positions' rule is broken
    with pytest.raises(ValueError, match=r"setting 'd_model' must be even \(sinusoidal "
                                         r"positions\), got 9"):
        tiny_cfg(d_model=9, n_heads=3)


# one strategy per setting, each straddling the edge of its declared domain
EDGES = {
    "vocab_size": st.integers(0, 3), "d_feat": st.integers(0, 5), "proto_len": st.integers(0, 8),
    "min_tokens": st.integers(0, 4), "max_tokens": st.integers(0, 5),
    "noise_sigma": st.floats(-0.1, 0.5), "n_train": st.integers(0, 6),
    "n_target": st.integers(0, 6), "n_eval": st.integers(0, 3),
    "proto_seed": st.integers(-1, 3), "corpus_seed": st.integers(-1, 3),
    "d_model": st.integers(0, 16), "n_heads": st.integers(0, 3), "n_blocks": st.integers(0, 2),
    "d_ffn": st.integers(0, 8), "objective": st.sampled_from(OBJECTIVES),
    "biapc_scheme": st.sampled_from(BidirectionalAPC.SCHEMES),
    "apc_shift": st.integers(0, 3), "apc_lags": st.integers(0, 3), "apc_p": st.integers(0, 3),
    "n_codes": st.integers(0, 4), "n_clusters": st.integers(0, 8),
    "mask_prob": st.floats(-0.1, 1.1), "span_len": st.integers(0, 4),
    "n_negatives": st.integers(0, 30), "tau_cos": st.floats(-0.1, 1.0),
    "diversity_weight": st.floats(-0.1, 1.0), "cluster_alpha": st.floats(-0.1, 1.1),
    "seed": st.integers(-1, 3), "batch_size": st.integers(0, 5),
    "pretrain_steps": st.integers(-1, 3), "adapt_steps": st.integers(-1, 3),
    "finetune_steps": st.integers(-1, 3), "noam_warmup": st.integers(0, 3),
    "ft_peak_lr": st.floats(-1e-3, 1.0), "d_adapter": st.integers(0, 4),
    "causal": st.booleans(), "spec_augment": st.booleans(),
}
SETTING_NAMES = {f.name for f in fields(PipelineConfig)}


def test_every_setting_has_an_edge():
    assert set(EDGES) == SETTING_NAMES


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(sorted(EDGES)), max_size=3, unique=True)
       .flatmap(lambda keys: st.fixed_dictionaries({k: EDGES[k] for k in keys})))
def test_a_config_is_rejected_by_name_or_runs_to_a_named_end(overrides):
    """Construction rejects a value by its setting's name; a config it
    accepts runs the draft pipeline to a finite report or to an error that
    names its stage, and the variant too past the shared pretrain. No other
    exception escapes."""
    try:
        cfg = tiny_cfg(**{"n_target": 12, **overrides})
    except ValueError as e:
        named = re.match(r"setting '(\w+)' ", str(e))
        assert named and named.group(1) in SETTING_NAMES, e
        return
    with tempfile.TemporaryDirectory() as work:
        try:
            report = run_pipeline(cfg, work, ("draft",))["draft"]
        except (ValueError, FloatingPointError) as e:
            assert re.match(r"stage 'pretrain'|draft: stage '(adapt|finetune)'", str(e)), e
        else:
            assert math.isfinite(report["ter"])

"""Acceptance gate: twelve checks covering the library's core guarantees.

Each test ends with a single [PASS] summary line (visible under pytest -s)
carrying the measured quantity and its bound. The file runs standalone on
one CPU in about two minutes, dominated by the gradient battery and the
five-seed end-to-end comparison.
"""

import itertools
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from sslasr.ctc import CTCHead, ctc_loss_batch, min_input_length
from sslasr.data import Batch
from sslasr.engine import Tensor
from sslasr.features import Featurizer, FeaturizerConfig
from sslasr.gradcheck import gradcheck_battery, loss_gradcheck_battery
from sslasr.io import load_checkpoint, read_feat, write_feat
from sslasr.model import ResidualAdapter, build_encoder
from sslasr.objectives import (
    BidirectionalAPC,
    ContrastiveObjective,
    EAPCObjective,
    MaskedClusterObjective,
    apc_loss,
    group_mean_features,
    kmeans_assign,
    kmeans_fit,
    stack_targets,
)
from sslasr.optim import noam_lr, tri_stage_lr
from sslasr.training import PipelineConfig, run_adapt, run_pipeline, run_pretrain, sweep


def test_01_gradients_match_central_differences():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        worst = max(worst, gradcheck_battery(seed))
        worst = max(worst, loss_gradcheck_battery(seed))
    elapsed = time.time() - t0
    assert worst < 1e-6, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 120.0, f"gradient battery took {elapsed:.1f}s"
    print(f"\n[PASS] 1/12 gradient oracle: worst rel err {worst:.2e} < 1e-6 "
          f"over 20 seeds ({elapsed:.1f}s < 120s)")


def _collapse(path, blank=0):
    out = []
    prev = None
    for p in path:
        if p != prev and p != blank:
            out.append(p)
        prev = p
    return out


def _brute_force_nll(logits: np.ndarray, target) -> float:
    """-log of the total probability over every alignment path."""
    t, v = logits.shape
    logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True))
                           .sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
    target = list(target)
    total = 0.0
    for path in itertools.product(range(v), repeat=t):
        if _collapse(path) == target:
            total += np.exp(sum(logp[i, c] for i, c in enumerate(path)))
    return -np.log(total) if total > 0 else np.inf


def _ctc_nll(logits, target):
    """-log P(target) of one (T, V) utterance, scored as a batch of one:
    the loss times the target length it is divided by."""
    return len(target) * float(ctc_loss_batch(Tensor(logits[None]), [logits.shape[0]],
                                              [list(target)]).data)


def test_02_ctc_matches_brute_force_and_is_a_distribution():
    rng = np.random.default_rng(2)
    checked = 0
    worst = 0.0
    for v in (2, 3):
        for t in range(1, 5):
            logits = rng.normal(size=(t, v))
            for n in (1, 2):
                for target in itertools.product(range(1, v), repeat=n):
                    if min_input_length(target) > t:
                        continue
                    want = _brute_force_nll(logits, target)
                    got = _ctc_nll(logits, target)
                    worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                    checked += 1
    assert checked >= 20
    assert worst <= 1e-9, f"worst CTC loss error {worst:.3e}"

    # probabilities over all possible targets (plus the empty one) sum to 1
    worst_total = 0.0
    for t, v in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)):
        logits = rng.normal(size=(t, v))
        logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True))
                               .sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
        total = float(np.exp(logp[:, 0].sum()))
        for n in range(1, t + 1):
            for target in itertools.product(range(1, v), repeat=n):
                if min_input_length(target) > t:
                    continue
                total += float(np.exp(-_ctc_nll(logits, target)))
        worst_total = max(worst_total, abs(total - 1.0))
    assert worst_total <= 1e-9, f"total probability off by {worst_total:.3e}"
    print(f"\n[PASS] 2/12 ctc oracle: {checked} losses within {worst:.1e} of path "
          f"enumeration; total probability off by {worst_total:.1e} (<=1e-9)")


def test_03_causal_outputs_ignore_future_frames():
    enc = build_encoder(PipelineConfig(d_feat=8, d_model=16, n_heads=2,
                                       n_blocks=2, d_ffn=32, causal=True), seed=3)
    rng = np.random.default_rng(3)
    lengths = [24, 21]
    worst = 0.0
    for _ in range(100):
        feats = rng.normal(size=(2, 24, 8)).astype(np.float32)
        base, out_lens = enc(feats, lengths)
        cut_out = int(rng.integers(1, 6))
        poked = feats.copy()
        poked[:, 4 * cut_out:] += rng.normal(
            size=poked[:, 4 * cut_out:].shape).astype(np.float32)
        changed, _ = enc(poked, lengths)
        for b in range(2):
            k = min(cut_out, int(out_lens[b]))
            worst = max(worst, float(
                np.abs(base.data[b, :k] - changed.data[b, :k]).max()))
    assert worst < 1e-6, f"future perturbation leaked {worst:.3e} into the past"
    print(f"\n[PASS] 3/12 causality: 100 trials, max past-output change "
          f"{worst:.2e} < 1e-6")


def test_04_every_loss_is_invariant_to_extra_padding():
    cfg = PipelineConfig(d_feat=4, d_model=8, n_heads=2, n_blocks=1,
                         d_ffn=16, causal=True)
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(2, 33, 4)).astype(np.float32)
    lengths = np.array([33, 26])
    padded = np.concatenate([feats, np.zeros((2, 10, 4), np.float32)], axis=1)

    enc_a = build_encoder(cfg, seed=40)
    apc = EAPCObjective(replace(cfg, apc_shift=2, apc_lags=1, apc_p=1),
                        np.random.default_rng(41))
    enc_e = build_encoder(cfg, seed=42)
    eapc = EAPCObjective(replace(cfg, apc_shift=1, apc_lags=2, apc_p=1),
                         np.random.default_rng(43))
    pair = BidirectionalAPC(replace(cfg, apc_shift=1, apc_lags=1, apc_p=1,
                                    biapc_scheme="share_generator"), seed=44)
    enc_c = build_encoder(cfg, seed=45)
    contr = ContrastiveObjective(
        replace(cfg, n_negatives=3, mask_prob=0.5, span_len=2, n_codes=4),
        np.random.default_rng(46))
    enc_m = build_encoder(cfg, seed=47)
    mc = MaskedClusterObjective(
        replace(cfg, n_clusters=3, mask_prob=0.5, span_len=2, cluster_alpha=0.5),
        np.random.default_rng(48))
    gm0 = group_mean_features(feats[0], 33)
    gm1 = group_mean_features(feats[1], 26)
    centers = kmeans_fit(np.concatenate([gm0, gm1]).astype(np.float32), 3,
                         np.random.default_rng(49))
    labels = np.full((2, gm0.shape[0]), -1)
    labels[0] = kmeans_assign(gm0.astype(np.float32), centers)
    labels[1, : gm1.shape[0]] = kmeans_assign(gm1.astype(np.float32), centers)
    mc.targets = {"u0": labels[0], "u1": labels[1]}
    enc_t = build_encoder(cfg, seed=50)
    head = CTCHead(np.random.default_rng(51), 8, vocab_size=4)

    def ctc(x):
        hidden, out_lens = enc_t(x, lengths)
        return ctc_loss_batch(head(hidden), out_lens, [[1, 2], [2, 1]])

    losses = {
        "apc": lambda x: apc.loss(enc_a, Batch(x, lengths)),
        "eapc": lambda x: eapc.loss(enc_e, Batch(x, lengths)),
        "biapc": lambda x: pair.loss(pair.fwd, Batch(x, lengths)),
        "contrastive": lambda x: contr.loss(enc_c, Batch(x, lengths),
                                            np.random.default_rng(52), step=3),
        "masked_cluster": lambda x: mc.loss(enc_m, Batch(x, lengths, utt_ids=("u0", "u1")),
                                            np.random.default_rng(53)),
        "ctc": ctc,
    }
    worst = 0.0
    for name, fn in losses.items():
        base = float(fn(feats).data)
        with_pad = float(fn(padded).data)
        rel = abs(with_pad - base) / max(abs(base), 1e-12)
        assert rel < 1e-6, f"{name} loss moved by {rel:.3e} under 10 pad frames"
        worst = max(worst, rel)
    print(f"\n[PASS] 4/12 padding invariance: worst relative loss change "
          f"{worst:.2e} < 1e-6 across {', '.join(losses)}")


def _raw_lag_term(enc, gen, feats, lengths, lag, p):
    """Unscaled shifted-reconstruction loss of one generator at one lag, and
    the number of target elements it scores."""
    hidden, _ = enc(feats, lengths)
    stacked, valid = stack_targets(feats, lengths)
    g = stacked.shape[1]
    target = np.zeros_like(stacked)
    target[:, : g - lag] = stacked[:, lag:]
    mask = np.arange(g)[None, :] < np.maximum(valid[:, None] - lag, 0)
    return apc_loss(gen(hidden), target, mask, p=p).data, int(mask.sum()) * stacked.shape[2]


def test_05_single_lag_objective_reduces_to_plain_reconstruction():
    eps32 = float(np.finfo(np.float32).eps)
    rng = np.random.default_rng(5)
    cfg = PipelineConfig(d_feat=4, d_model=8, n_heads=2, n_blocks=1,
                         d_ffn=16, causal=True)
    feats = rng.normal(size=(2, 16, 4)).astype(np.float32)
    lengths = np.array([16, 13])

    # k=1 equals the plain shifted-reconstruction loss at lag s
    enc = build_encoder(cfg, seed=55)
    single = EAPCObjective(replace(cfg, apc_shift=2, apc_lags=1, apc_p=1),
                           np.random.default_rng(56))
    got = float(single.loss(enc, Batch(feats, lengths)).data)
    raw, count = _raw_lag_term(enc, single.children["gen0"], feats, lengths, lag=2, p=1)
    want = float(raw * np.float32(1.0 / count))  # the objective's float32 1/count scale
    err1 = abs(got - want) / max(abs(want), 1e-30)
    assert err1 <= 4 * eps32, f"single-lag mismatch {err1:.3e}"

    # shift=2 with two lags equals the sum of its per-lag terms
    enc2 = build_encoder(cfg, seed=57)
    multi = EAPCObjective(replace(cfg, apc_shift=2, apc_lags=2, apc_p=2),
                          np.random.default_rng(58))
    parts, count = [], 0
    for i, shift in enumerate((2, 3)):
        s = EAPCObjective(replace(cfg, apc_shift=shift, apc_lags=1, apc_p=2),
                          np.random.default_rng(59))
        s.children["gen0"].p["w"].data = multi.children[f"gen{i}"].p["w"].data.copy()
        s.children["gen0"].p["b"].data = multi.children[f"gen{i}"].p["b"].data.copy()
        raw, n = _raw_lag_term(enc2, s.children["gen0"], feats, lengths, lag=shift, p=2)
        parts.append(raw)
        count += n
    total = float(multi.loss(enc2, Batch(feats, lengths)).data)
    want = float(np.float32(parts[0] + parts[1]) * np.float32(1.0 / count))
    err2 = abs(total - want) / max(abs(total), 1e-30)
    assert err2 <= 4 * eps32, f"lag-sum mismatch {err2:.3e}"
    print(f"\n[PASS] 5/12 lag reduction: k=1 matches plain reconstruction "
          f"(rel {err1:.1e}), 2-lag loss matches its per-lag sum (rel {err2:.1e})")


def test_06_direction_averaging_honors_weight_sharing():
    cfg = PipelineConfig(d_feat=4, d_model=8, n_heads=2, n_blocks=1,
                         d_ffn=16, causal=True, apc_shift=1, apc_lags=1, apc_p=1)

    # fully shared directions: averaging must not move a single bit
    pair = BidirectionalAPC(replace(cfg, biapc_scheme="share_all"), seed=6)
    before = {k: t.data.copy() for k, t in pair.named_params().items()}
    pair.average_directions()
    for k, t in pair.named_params().items():
        assert np.array_equal(t.data, before[k]), f"share_all moved {k}"

    # independent directions: every averaged tensor equals the f64 mean
    pair = BidirectionalAPC(replace(cfg, biapc_scheme="none"), seed=7)
    snap = {k: t.data.copy() for k, t in pair.named_params().items()}
    pair.average_directions()
    n_avg = 0
    for k, t in pair.named_params().items():
        if not k.startswith("fwd."):
            continue
        mate = "rev." + k[len("fwd."):]
        want = ((snap[k].astype(np.float64) + snap[mate].astype(np.float64)) / 2
                ).astype(np.float32)
        assert np.array_equal(t.data, want), f"{k} is not the elementwise mean"
        n_avg += 1
    assert n_avg > 0
    print(f"\n[PASS] 6/12 direction averaging: share_all is a bit-exact no-op; "
          f"scheme none averaged {n_avg} tensors to the exact f64 mean")


def _small_pipeline_cfg(**overrides) -> PipelineConfig:
    # proto_len 8 with subsample 4 keeps repeated-token targets CTC-feasible
    base = dict(
        vocab_size=5, d_feat=4, proto_len=8, min_tokens=3, max_tokens=4,
        n_train=24, n_target=20, n_eval=10, d_model=16, n_heads=2, n_blocks=1,
        d_ffn=32, apc_lags=1, batch_size=4, pretrain_steps=6, adapt_steps=7,
        finetune_steps=5, noam_warmup=2, d_adapter=4, seed=0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def test_07_adaptation_freezes_backbone_and_generators(tmp_path):
    cfg = _small_pipeline_cfg()
    pre = run_pretrain(cfg, tmp_path)
    ada = run_adapt(cfg, pre, tmp_path, mode="draft")
    before = load_checkpoint(pre).params
    after = load_checkpoint(ada).params
    for name, val in before.items():
        assert np.array_equal(val, after[name]), f"{name} moved during adaptation"
    new = sorted(set(after) - set(before))
    assert new, "adaptation added no adapter parameters"
    assert all("adapter" in n for n in new), f"unexpected new parameters: {new}"
    assert any(after[n].any() for n in new if n.endswith("up.w")), \
        "adapters were never trained"
    print(f"\n[PASS] 7/12 freeze contract: {len(before)} backbone/generator "
          f"tensors bit-identical after {cfg.adapt_steps} adaptation steps; "
          f"only the {len(new)} adapter tensors changed")


def test_08_adapter_parameter_count_and_passthrough():
    D = 64
    for d in (8, 64, 256):
        want = 2 * D * d + d + 3 * D
        ada = ResidualAdapter(np.random.default_rng(d), D, d)
        got = sum(t.data.size for t in ada.named_params().values())
        assert got == want, f"d_ada={d}: built {got} params, expected {want}"

    ada = ResidualAdapter(np.random.default_rng(8), D, 8)
    x = np.random.default_rng(80).normal(size=(2, 5, D)).astype(np.float32)
    out = ada(Tensor(x))
    assert np.array_equal(out.data, x), "zero up-projection is not a passthrough"
    print(f"\n[PASS] 8/12 adapter accounting: counts match 2*D*d + d + 3*D for "
          f"d in (8, 64, 256); zero-init adapter is an exact passthrough")


def test_09_learning_rate_schedules_match_closed_forms():
    worst = 0.0
    for d_model, warmup, factor in ((64, 50, 0.5), (4, 4, 1.0), (512, 4000, 2.0)):
        for step in (1, warmup, 10 * warmup):
            want = factor * d_model ** -0.5 * min(step ** -0.5,
                                                  step * warmup ** -1.5)
            got = noam_lr(step, d_model, warmup, factor)
            worst = max(worst, abs(got - want))
    assert worst <= 1e-12, f"noam schedule off by {worst:.3e}"

    peak = 2e-3
    assert tri_stage_lr(70, peak, 10, 20, 40) == pytest.approx(0.05 * peak, abs=0)
    assert tri_stage_lr(10_000, peak, 10, 20, 40) == 0.05 * peak
    assert tri_stage_lr(5, peak, 10, 20, 40) == pytest.approx(peak / 2, rel=1e-12)
    assert tri_stage_lr(25, peak, 10, 20, 40) == peak
    print(f"\n[PASS] 9/12 schedulers: noam within {worst:.1e} of closed form at "
          f"steps (1, warmup, 10*warmup); tri-stage floor is exactly 0.05*peak")


def test_10_adaptation_orders_error_rates(tmp_path):
    ters = {"draft": [], "no_adapt": [], "scratch": []}
    slowest, t0 = 0.0, time.time()
    for seed, reports in sweep({}, "seed", range(5), tmp_path, tuple(ters)):
        elapsed, t0 = time.time() - t0, time.time()
        slowest = max(slowest, elapsed)
        assert elapsed < 180.0, f"seed {seed} took {elapsed:.0f}s for all three variants"
        for variant, report in reports.items():
            ters[variant].append(report["ter"])
    medians = {variant: statistics.median(v) for variant, v in ters.items()}
    assert medians["draft"] <= medians["no_adapt"] <= medians["scratch"], \
        f"median TER ordering violated: {medians}"
    print(f"\n[PASS] 10/12 end-to-end ordering: median TER draft "
          f"{medians['draft']:.4f} <= no_adapt {medians['no_adapt']:.4f} <= "
          f"scratch {medians['scratch']:.4f} over 5 seeds "
          f"(slowest seed, all three variants, {slowest:.1f}s < 180s)")


def test_11_identical_seeds_reproduce_bits(tmp_path):
    cfg = _small_pipeline_cfg(seed=3, n_train=40, n_target=30, n_eval=16,
                              pretrain_steps=20, adapt_steps=12,
                              finetune_steps=10)
    dirs = (tmp_path / "a", tmp_path / "b")
    reports = [run_pipeline(cfg, d, ("draft",))["draft"] for d in dirs]

    files = ("pretrain.ckpt", "draft/adapt_draft.ckpt", "draft/finetune_full.ckpt",
             "pretrain_metrics.jsonl", "draft/adapt_draft_metrics.jsonl",
             "draft/finetune_full_metrics.jsonl")
    for fname in files:
        a = (dirs[0] / fname).read_bytes()
        b = (dirs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    ra = {k: v for k, v in reports[0].items() if k != "checkpoint"}
    rb = {k: v for k, v in reports[1].items() if k != "checkpoint"}
    assert ra == rb, "evaluation reports differ between identical runs"
    print(f"\n[PASS] 11/12 determinism: {len(files)} checkpoint/metrics files "
          f"byte-identical across repeated runs; reports equal (TER {ra['ter']:.4f})")


def test_12_featurizer_frames_tones_and_roundtrip(tmp_path):
    fz = Featurizer(FeaturizerConfig())
    assert fz.n_frames(16000) == 98
    feats = fz(np.random.default_rng(12).normal(size=16000))
    assert feats.shape == (98, 40)

    t = np.arange(8000) / 16000.0
    for m in (5, 12, 20, 33):
        tone = np.cos(2 * np.pi * fz.centers_hz[m] * t)
        hit = int(np.argmax(fz(tone).mean(axis=0)))
        assert hit == m, f"tone at bin {m} center peaked in bin {hit}"

    path = tmp_path / "utt.feat"
    write_feat(path, feats, 10.0, 25.0)
    loaded, shift_ms, window_ms = read_feat(path)
    assert np.array_equal(loaded, feats) and loaded.dtype == feats.dtype
    assert (shift_ms, window_ms) == (10.0, 25.0)
    print("\n[PASS] 12/12 featurizer: 1s @ 16kHz -> 98 frames; bin-center "
          "tones peak in their own bins; feature file roundtrip is bit-exact")

"""Five self-supervised objectives: exact reductions, sharing schemes,
masking, quantization, and k-means targets."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslasr import engine as E
from sslasr.data import Batch, Utterance
from sslasr.engine import Tape, Tensor
from sslasr.model import Module, build_encoder
from sslasr.objectives import (
    BidirectionalAPC,
    ContrastiveObjective,
    EAPCObjective,
    GumbelQuantizer,
    MaskedClusterObjective,
    MaskedPrediction,
    apc_loss,
    cluster_features,
    group_mean_features,
    gumbel_tau,
    kmeans_assign,
    kmeans_fit,
    reverse_group_blocks,
    sample_mask_spans,
    stack_targets,
    valid_groups,
)
from sslasr.training import PipelineConfig

CFG = PipelineConfig(d_feat=4, d_model=8, n_heads=2, n_blocks=1, d_ffn=16, causal=True)
LAG2 = replace(CFG, apc_shift=2, apc_lags=1, apc_p=1)  # one generator, predicting 2 groups ahead


def shares_storage(a: Module, b: Module) -> bool:
    """Every parameter of `a` is the very tensor `b` holds under that name."""
    mine, theirs = a.named_params(), b.named_params()
    return all(mine[k] is theirs[k] for k in mine)


def batch(rng, b=2, t=16, d=4):
    feats = rng.normal(size=(b, t, d)).astype(np.float32)
    lengths = [t, t - 3][:b]
    return feats, lengths


def raw_lag_terms(obj: EAPCObjective, enc, feats, lengths) -> list:
    """Each lag's unscaled apc_loss value, built outside the objective from
    its generator for that lag."""
    hidden, _ = enc(feats, lengths)
    stacked, valid = stack_targets(feats, lengths)
    g = stacked.shape[1]
    terms = []
    for i, lag in enumerate(obj.lags):
        target = np.zeros_like(stacked)
        target[:, : g - lag] = stacked[:, lag:]
        mask = np.arange(g)[None, :] < np.maximum(valid[:, None] - lag, 0)
        terms.append(apc_loss(obj.children[f"gen{i}"](hidden), target, mask, p=obj.cfg.apc_p).data)
    return terms


def scaled(raw, count: int):
    """An objective's float32 1/count scale applied to its raw sum."""
    return raw * np.float32(1.0 / count)


class TestTargets:
    def test_stack_targets_hand_case(self):
        feats = np.arange(20, dtype=np.float32).reshape(1, 10, 2)
        stacked, valid = stack_targets(feats, [10])
        assert stacked.shape == (1, 3, 8)
        assert np.array_equal(stacked[0, 0], [0, 1, 2, 3, 4, 5, 6, 7])
        assert np.array_equal(stacked[0, 1], [8, 9, 10, 11, 12, 13, 14, 15])
        assert np.array_equal(stacked[0, 2], [16, 17, 18, 19, 0, 0, 0, 0])  # padded partial group
        assert list(valid) == [2]

    def test_valid_groups(self):
        assert list(valid_groups([16, 13, 3])) == [4, 3, 0]

    def test_apc_loss_hand_values(self):
        pred = Tensor(np.array([[[1.0, 2.0], [3.0, 5.0]]], dtype=np.float32))
        target = np.array([[[0.0, 0.0], [1.0, 1.0]]], dtype=np.float32)
        mask = np.array([[True, True]])
        assert apc_loss(pred, target, mask, p=1).data == pytest.approx(1 + 2 + 2 + 4)
        assert apc_loss(pred, target, mask, p=2).data == pytest.approx(1 + 4 + 4 + 16)
        half = np.array([[False, True]])
        assert apc_loss(pred, target, half, p=1).data == pytest.approx(6.0)

    def test_apc_loss_errors(self):
        pred = Tensor(np.zeros((1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="p must be"):
            apc_loss(pred, np.zeros((1, 2, 2)), np.ones((1, 2), dtype=bool), p=3)


class TestFutureRegression:
    def test_single_lag_matches_manual_apc(self):
        rng = np.random.default_rng(0)
        enc = build_encoder(CFG, seed=0)
        obj = EAPCObjective(replace(CFG, apc_shift=2, apc_lags=1, apc_p=1), rng)
        feats, lengths = batch(rng)
        got = obj.loss(enc, Batch(feats, lengths))
        (raw,) = raw_lag_terms(obj, enc, feats, lengths)
        count = int(np.maximum(valid_groups(lengths) - 2, 0).sum()) * 16
        assert got.data == scaled(raw, count)

    def test_multi_lag_sum_matches_independent_single_lags(self):
        rng = np.random.default_rng(1)
        enc = build_encoder(CFG, seed=1)
        multi = EAPCObjective(replace(CFG, apc_shift=2, apc_lags=2, apc_p=2), rng)
        singles = []
        for i, shift in enumerate((2, 3)):
            s = EAPCObjective(replace(CFG, apc_shift=shift, apc_lags=1, apc_p=2),
                              np.random.default_rng(99))
            s.children["gen0"].p["w"].data = multi.children[f"gen{i}"].p["w"].data.copy()
            s.children["gen0"].p["b"].data = multi.children[f"gen{i}"].p["b"].data.copy()
            singles.append(s)
        feats, lengths = batch(rng, t=24)
        total = multi.loss(enc, Batch(feats, lengths))
        parts = [raw_lag_terms(s, enc, feats, lengths)[0] for s in singles]
        valid = valid_groups(lengths)
        count = sum(int(np.maximum(valid - lag, 0).sum()) * 16 for lag in (2, 3))
        assert total.data == scaled(np.float32(parts[0] + parts[1]), count)

    def test_normalization_divides_by_contributing_elements(self):
        rng = np.random.default_rng(2)
        enc = build_encoder(CFG, seed=2)
        obj = EAPCObjective(replace(CFG, apc_shift=1, apc_lags=2, apc_p=1), rng)
        feats, lengths = batch(rng)
        norm = obj.loss(enc, Batch(feats, lengths)).data
        raw = np.float32(sum(raw_lag_terms(obj, enc, feats, lengths)))
        valid = valid_groups(lengths)
        count = sum(int(np.maximum(valid - lag, 0).sum()) * 16 for lag in (1, 2))
        assert norm == scaled(raw, count)

    def test_all_lags_out_of_range_rejected(self):
        rng = np.random.default_rng(3)
        enc = build_encoder(CFG, seed=3)
        obj = EAPCObjective(replace(CFG, apc_shift=9, apc_lags=1, apc_p=1), rng)
        feats, lengths = batch(rng)  # only 4 valid groups, lag 9 impossible
        with pytest.raises(ValueError, match="no valid prediction targets at any lag"):
            obj.loss(enc, Batch(feats, lengths))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            PipelineConfig(apc_shift=0)


class TestReversal:
    def test_reverse_group_blocks_hand_case(self):
        feats = np.arange(15, dtype=np.float32).reshape(1, 15, 1)
        out = reverse_group_blocks(feats, [14])
        # three groups reversed; the partial group (12, 13) and padding (14) stay
        assert out[0, :, 0].tolist() == [8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3, 12, 13, 14]
        assert feats[0, 0, 0] == 0  # input untouched

    def test_double_reverse_is_identity(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(3, 13, 2)).astype(np.float32)
        lengths = [13, 8, 3]
        once = reverse_group_blocks(feats, lengths)
        twice = reverse_group_blocks(once, lengths)
        assert np.array_equal(twice, feats)

    def test_palindromic_groups_are_fixed_points(self):
        rng = np.random.default_rng(5)
        g0 = rng.normal(size=(4, 2)).astype(np.float32)
        g1 = rng.normal(size=(4, 2)).astype(np.float32)
        feats = np.concatenate([g0, g1, g0], axis=0)[None]
        assert np.array_equal(reverse_group_blocks(feats, [12]), feats)


class TestBidirectional:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="setting 'biapc_scheme' must be one of .*, "
                                             "got 'share_everything'"):
            BidirectionalAPC(replace(LAG2, biapc_scheme="share_everything"), seed=0)

    def test_scheme_none_keeps_directions_independent(self):
        pair = BidirectionalAPC(replace(LAG2, biapc_scheme="none"), seed=0)
        assert not shares_storage(pair.rev_obj, pair.fwd_obj)
        names = set(pair.named_params())
        assert any(n.startswith("rev.model.") for n in names)
        assert any(n.startswith("rev.gen.") for n in names)

    def test_share_generator_aliases_only_generators(self):
        pair = BidirectionalAPC(replace(LAG2, biapc_scheme="share_generator"), seed=0)
        assert shares_storage(pair.rev_obj, pair.fwd_obj)
        assert not shares_storage(pair.rev, pair.fwd)
        names = set(pair.named_params())
        assert not any(n.startswith("rev.gen.") for n in names)
        assert any(n.startswith("rev.model.") for n in names)

    def test_share_gen_encoder_aliases_blocks_not_conv(self):
        pair = BidirectionalAPC(replace(LAG2, biapc_scheme="share_gen_encoder"), seed=0)
        f, r = pair.fwd.children, pair.rev.children
        assert shares_storage(r["block0"], f["block0"])
        assert shares_storage(r["final_ln"], f["final_ln"])
        assert not shares_storage(r["conv"], f["conv"])
        assert shares_storage(pair.rev_obj, pair.fwd_obj)

    def test_share_all_aliases_everything(self):
        pair = BidirectionalAPC(replace(LAG2, biapc_scheme="share_all"), seed=0)
        assert shares_storage(pair.rev, pair.fwd)
        assert shares_storage(pair.rev_obj, pair.fwd_obj)
        names = set(pair.named_params())
        assert not any(n.startswith("rev.") for n in names)

    def test_update_through_shared_tensor_is_visible_both_ways(self):
        pair = BidirectionalAPC(replace(LAG2, biapc_scheme="share_generator"), seed=0)
        pair.fwd_obj.children["gen0"].p["b"].data[:] = 7.0
        assert np.all(pair.rev_obj.children["gen0"].p["b"].data == 7.0)

    def test_adapters_follow_host_sharing(self):
        blocks = {"block0", "adapter1", "final_ln"}
        shared_by_scheme = {"none": set(), "share_generator": set(), "share_gen_encoder": blocks,
                            "share_all": blocks | {"conv", "adapter0"}}
        for scheme, shared in shared_by_scheme.items():
            pair = BidirectionalAPC(replace(LAG2, biapc_scheme=scheme), seed=0)
            pair.insert_adapters(4, np.random.default_rng(0))
            f, r = pair.fwd.children, pair.rev.children
            assert set(r) == {"conv", "adapter0"} | blocks
            assert {name for name in r if shares_storage(r[name], f[name])} == shared, scheme
            assert shares_storage(pair.rev_obj, pair.fwd_obj) == (scheme != "none"), scheme

    def test_share_all_loss_doubles_on_palindromic_input(self):
        pair = BidirectionalAPC(replace(CFG, apc_shift=1, apc_lags=1, apc_p=1, biapc_scheme="share_all"),
                                seed=0)
        rng = np.random.default_rng(6)
        g0 = rng.normal(size=(4, 4)).astype(np.float32)
        g1 = rng.normal(size=(4, 4)).astype(np.float32)
        feats = np.concatenate([g0, g1, g0], axis=0)[None]
        total = pair.loss(pair.fwd, Batch(feats, [12]))
        fwd_only = pair.fwd_obj.loss(pair.fwd, Batch(feats, [12]))
        assert total.data == np.float32(2.0) * fwd_only.data

    def test_average_directions_is_idempotent(self):
        pair = BidirectionalAPC(replace(LAG2, biapc_scheme="share_generator"), seed=0)
        f_w = pair.fwd.children["conv"].children["conv1"].p["w"]
        r_w = pair.rev.children["conv"].children["conv1"].p["w"]
        mean = (f_w.data.astype(np.float64) + r_w.data.astype(np.float64)) / 2
        enc = pair.average_directions()
        assert enc is pair.fwd
        assert np.allclose(f_w.data, mean.astype(np.float32), atol=0)
        assert np.array_equal(f_w.data, r_w.data)
        snapshot = f_w.data.copy()
        pair.average_directions()
        assert np.array_equal(f_w.data, snapshot)


class TestSpanMasking:
    def test_minimum_one_span_forced(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 10):
            mask = sample_mask_spans(n, rng, mask_prob=0.0, span_len=3)
            assert mask.shape == (n,)
            assert mask.sum() >= 1

    def test_zero_length(self):
        rng = np.random.default_rng(0)
        assert sample_mask_spans(0, rng, 0.065, 10).shape == (0,)
        # the next utterance's spans do not depend on an empty one before it
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_forced_span_shape(self):
        # exactly one span when nothing fires: a run of span_len (clipped)
        mask = sample_mask_spans(20, np.random.default_rng(3), mask_prob=0.0, span_len=4)
        edges = np.flatnonzero(np.diff(np.concatenate([[0], mask, [0]])))
        assert len(edges) == 2 and 1 <= edges[1] - edges[0] <= 4

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 1000))
    def test_mask_stays_in_bounds_and_is_deterministic(self, n, seed):
        a = sample_mask_spans(n, np.random.default_rng(seed), mask_prob=0.3, span_len=5)
        b = sample_mask_spans(n, np.random.default_rng(seed), mask_prob=0.3, span_len=5)
        assert np.array_equal(a, b)
        assert a.shape == (n,)

    def test_masked_context_respects_lengths(self):
        # 32 frames give 8 groups; 20, 9 and 3 frames hold 5, 2 and 0 complete ones
        enc = build_encoder(CFG, seed=0)
        obj = ContrastiveObjective(replace(CFG, mask_prob=0.5, span_len=3), np.random.default_rng(0))
        feats = np.random.default_rng(1).normal(size=(3, 32, 4)).astype(np.float32)
        _, context, mask, valid = obj.masked_context(enc, Batch(feats, [20, 9, 3]),
                                                     np.random.default_rng(1))
        assert context.shape == (3, 8, 8)
        assert mask.shape == (3, 8)
        assert list(valid) == [5, 2, 0]
        assert mask[0].any() and mask[1].any()
        assert not mask[0, 5:].any()
        assert not mask[1, 2:].any()
        assert not mask[2].any()

    def test_masked_context_puts_mask_emb_in_place(self, monkeypatch):
        enc = build_encoder(CFG, seed=0)
        obj = MaskedClusterObjective(replace(CFG, mask_prob=0.5, span_len=2), np.random.default_rng(0))
        # contextualize as the identity, so the context is the masked latents
        monkeypatch.setattr(enc, "contextualize", lambda z, out_lengths: z)
        feats = np.random.default_rng(2).normal(size=(2, 24, 4)).astype(np.float32)
        latents, masked, mask, _ = obj.masked_context(enc, Batch(feats, [24, 17]),
                                                      np.random.default_rng(3))
        assert mask.any() and (~mask).any()
        assert np.array_equal(masked.data[mask], np.broadcast_to(obj.p["mask_emb"].data, (mask.sum(), 8)))
        assert np.array_equal(masked.data[~mask], latents.data[~mask])

    def test_both_objectives_draw_the_same_mask(self, monkeypatch):
        cfg = replace(CFG, mask_prob=0.4, span_len=2, n_negatives=2, n_codes=4, n_clusters=3)
        enc = build_encoder(cfg, seed=5)
        feats = np.random.default_rng(5).normal(size=(2, 24, 4)).astype(np.float32)
        batch = Batch(feats, [24, 19], utt_ids=("u0", "u1"))
        masks = []
        step = MaskedPrediction.masked_context

        def spy(self, *args):
            out = step(self, *args)
            masks.append(out[2])
            return out

        monkeypatch.setattr(MaskedPrediction, "masked_context", spy)
        contrastive = ContrastiveObjective(cfg, np.random.default_rng(6))
        cluster = MaskedClusterObjective(cfg, np.random.default_rng(7))
        cluster.targets = {"u0": np.zeros(6, dtype=np.int64), "u1": np.ones(4, dtype=np.int64)}
        contrastive.loss(enc, batch, np.random.default_rng(8))
        cluster.loss(enc, batch, np.random.default_rng(8))
        assert len(masks) == 2 and masks[0].any()
        assert np.array_equal(masks[0], masks[1])


class TestQuantizer:
    def test_tau_schedule(self):
        assert gumbel_tau(0) == 2.0
        assert gumbel_tau(500) == pytest.approx(1.25)
        assert gumbel_tau(1000) == 0.5
        assert gumbel_tau(5000) == 0.5
        assert gumbel_tau(-3) == 2.0

    def test_hard_rows_come_from_codebook(self):
        rng = np.random.default_rng(0)
        quant = GumbelQuantizer(rng, d_latent=6, n_codes=5)
        z = Tensor(rng.normal(size=(2, 7, 6)).astype(np.float32))
        quantized, soft = quant(z, np.random.default_rng(1), tau=1.0)
        codes = quant.p["codebook"].data
        picks = soft.data.argmax(axis=-1)
        assert np.array_equal(quantized.data, codes[picks])
        assert np.allclose(soft.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_straight_through_reaches_projection(self):
        rng = np.random.default_rng(2)
        quant = GumbelQuantizer(rng, d_latent=6, n_codes=5)
        z = Tensor(rng.normal(size=(1, 4, 6)).astype(np.float32))
        with Tape() as tape:
            quantized, _ = quant(z, np.random.default_rng(3), tau=1.0)
            loss = E.sum_(quantized)
        E.backward(loss, tape)
        assert np.abs(quant.children["proj"].p["w"].grad).sum() > 0
        assert np.abs(quant.p["codebook"].grad).sum() > 0

    def test_diversity_extremes(self):
        v = 8
        uniform = Tensor(np.full((1, 6, v), 1.0 / v, dtype=np.float32))
        collapsed = np.zeros((1, 6, v), dtype=np.float32)
        collapsed[..., 2] = 1.0
        w = np.ones((1, 6), dtype=np.float32)
        assert GumbelQuantizer.diversity_loss(uniform, w).data == pytest.approx(0.0, abs=1e-5)
        assert GumbelQuantizer.diversity_loss(Tensor(collapsed), w).data == \
            pytest.approx((v - 1) / v, abs=1e-5)

    def test_diversity_needs_weight(self):
        soft = Tensor(np.full((1, 2, 4), 0.25, dtype=np.float32))
        with pytest.raises(ValueError, match="at least one weighted position"):
            GumbelQuantizer.diversity_loss(soft, np.zeros((1, 2), dtype=np.float32))


class TestContrastive:
    def test_loss_runs_and_backprops(self):
        rng = np.random.default_rng(0)
        enc = build_encoder(CFG, seed=0)
        obj = ContrastiveObjective(
            replace(CFG, n_negatives=3, mask_prob=0.6, span_len=2, n_codes=4), rng
        )
        feats = rng.normal(size=(2, 20, 4)).astype(np.float32)
        with Tape() as tape:
            loss = obj.loss(enc, Batch(feats, [20, 17]), np.random.default_rng(1), step=5)
        assert loss.shape == ()
        assert np.isfinite(loss.data)
        E.backward(loss, tape)
        assert np.abs(obj.p["mask_emb"].grad).sum() > 0
        assert np.abs(obj.children["quantizer"].p["codebook"].grad).sum() > 0

    def test_single_code_gives_uniform_logits(self):
        # one codebook entry: every candidate is the positive, so the
        # cross entropy is exactly ln(K+1) and diversity is zero
        rng = np.random.default_rng(1)
        enc = build_encoder(CFG, seed=1)
        k = 3
        obj = ContrastiveObjective(
            replace(CFG, n_negatives=k, mask_prob=0.6, span_len=2, n_codes=1,
                    diversity_weight=0.0), rng
        )
        feats = rng.normal(size=(2, 20, 4)).astype(np.float32)
        loss = obj.loss(enc, Batch(feats, [20, 17]), np.random.default_rng(2))
        assert loss.data == pytest.approx(np.log(k + 1), rel=1e-5)

    def test_no_anchors_raises(self):
        rng = np.random.default_rng(2)
        enc = build_encoder(CFG, seed=2)
        obj = ContrastiveObjective(
            replace(CFG, n_negatives=2, mask_prob=0.0, span_len=1, n_codes=4), rng
        )
        feats = rng.normal(size=(2, 4, 4)).astype(np.float32)
        # one valid group per utterance: a single forced span is never
        # enough for a distractor pool
        with pytest.raises(ValueError, match="no contrastive anchors"):
            obj.loss(enc, Batch(feats, [4, 4]), np.random.default_rng(3))

    def test_deterministic_given_rng(self):
        rng = np.random.default_rng(3)
        enc = build_encoder(CFG, seed=3)
        obj = ContrastiveObjective(
            replace(CFG, n_negatives=3, mask_prob=0.6, span_len=2, n_codes=4), rng
        )
        feats = rng.normal(size=(2, 20, 4)).astype(np.float32)
        a = obj.loss(enc, Batch(feats, [20, 17]), np.random.default_rng(7), step=2)
        b = obj.loss(enc, Batch(feats, [20, 17]), np.random.default_rng(7), step=2)
        assert a.data == b.data


class TestKMeans:
    def _blobs(self, rng, centers, n=40, scale=0.05):
        pts = np.concatenate([c + scale * rng.normal(size=(n, len(c))) for c in centers])
        truth = np.repeat(np.arange(len(centers)), n)
        return pts, truth

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(0)
        pts, truth = self._blobs(rng, [(0, 0), (5, 5), (-5, 5)])
        centers = kmeans_fit(pts, 3, np.random.default_rng(1))
        labels = kmeans_assign(pts, centers)
        # each true blob maps to exactly one distinct fitted center
        mapping = {t: set(labels[truth == t]) for t in range(3)}
        assert all(len(s) == 1 for s in mapping.values())
        assert len(set.union(*mapping.values())) == 3

    def test_fewer_points_than_clusters(self):
        with pytest.raises(ValueError, match="fewer points than clusters: 2 points, 5 clusters"):
            kmeans_fit(np.zeros((2, 3)), 5, np.random.default_rng(0))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 4))
        a = kmeans_fit(pts, 4, np.random.default_rng(9))
        b = kmeans_fit(pts, 4, np.random.default_rng(9))
        assert np.array_equal(a, b)

    @staticmethod
    def _broadcast_fit(x, k, rng, early_exit=False):
        """kmeans_fit's reference: distances from one (n, k, d) broadcast,
        and all 25 Lloyd iterations unless `early_exit`. Returns the centers
        and the number of reseeded clusters."""
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[0]
        centers = np.empty((k, x.shape[1]))
        centers[0] = x[int(rng.integers(n))]
        d2 = ((x - centers[0]) ** 2).sum(axis=1)
        for i in range(1, k):
            probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
            centers[i] = x[int(rng.choice(n, p=probs))]
            d2 = np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1))
        reseeds, prev = 0, None
        for _ in range(25):
            dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = dists.argmin(axis=1)
            if early_exit and prev is not None and np.array_equal(labels, prev):
                break
            prev = labels
            for i in range(k):
                pts = x[labels == i]
                if len(pts) == 0:
                    worst = int(np.argmax(dists[np.arange(n), labels]))
                    centers[i] = x[worst]
                    labels[worst] = i
                    reseeds += 1
                    prev = None
                else:
                    centers[i] = pts.mean(axis=0)
        return centers, reseeds

    @pytest.mark.parametrize("d", [8, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_fit_and_assign_keep_the_broadcast_bits(self, d, seed):
        rng = np.random.default_rng(seed)
        pts, _ = self._blobs(rng, rng.normal(scale=3.0, size=(6, d)), n=50, scale=1.0)
        want, _ = self._broadcast_fit(pts, 16, np.random.default_rng(seed + 100), early_exit=True)
        got = kmeans_fit(pts, 16, np.random.default_rng(seed + 100))
        assert got.tobytes() == want.tobytes()
        queries = rng.normal(scale=3.0, size=(70, d)).astype(np.float32)
        broadcast = ((queries.astype(np.float64)[:, None, :] - got[None, :, :]) ** 2).sum(axis=2)
        assert kmeans_assign(queries, got).tobytes() == broadcast.argmin(axis=1).tobytes()

    @pytest.mark.parametrize("d", [8, 64])
    def test_a_reseeding_fit_keeps_the_broadcast_bits(self, d):
        # three distinct points for four clusters: every Lloyd pass leaves one empty
        pts = np.repeat(np.random.default_rng(d).normal(size=(3, d)), [9, 6, 4], axis=0)
        want, reseeds = self._broadcast_fit(pts, 4, np.random.default_rng(3), early_exit=True)
        assert reseeds > 0
        assert kmeans_fit(pts, 4, np.random.default_rng(3)).tobytes() == want.tobytes()

    def test_working_memory_holds_no_points_by_clusters_by_dims_array(self):
        n, k, d = 4000, 16, 64
        pts = np.random.default_rng(0).normal(size=(n, d))
        tracemalloc.start()
        try:
            kmeans_fit(pts, k, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * d * 8 / 4

    @pytest.mark.parametrize("seed", range(6))
    def test_early_exit_keeps_the_25_iteration_centers(self, seed):
        rng = np.random.default_rng(seed)
        pts, _ = self._blobs(rng, rng.normal(scale=3.0, size=(5, 3)), n=60, scale=1.0)
        want, _ = self._broadcast_fit(pts, 8, np.random.default_rng(seed + 100))
        assert kmeans_fit(pts, 8, np.random.default_rng(seed + 100)).tobytes() == want.tobytes()

    def test_early_exit_after_a_reseed_keeps_the_25_iteration_centers(self):
        # two distinct points for three clusters: once both are centers,
        # seeding picks a duplicate, and Lloyd's first pass leaves it empty
        pts = np.repeat([[0.0, 0.0], [1.0, 2.0]], [7, 5], axis=0)
        want, reseeds = self._broadcast_fit(pts, 3, np.random.default_rng(4))
        assert reseeds > 0
        assert kmeans_fit(pts, 3, np.random.default_rng(4)).tobytes() == want.tobytes()

    def test_group_mean_features(self):
        feats = np.arange(24, dtype=np.float32).reshape(12, 2)
        rows = group_mean_features(feats, length=11)
        assert rows.shape == (2, 2)
        assert np.array_equal(rows, [[3, 4], [11, 12]])


class TestMaskedCluster:
    def _setup(self, seed, alpha=1.0):
        rng = np.random.default_rng(seed)
        enc = build_encoder(CFG, seed=seed)
        obj = MaskedClusterObjective(
            replace(CFG, n_clusters=3, mask_prob=0.5, span_len=2, cluster_alpha=alpha), rng
        )
        feats = rng.normal(size=(2, 16, 4)).astype(np.float32)
        lengths = [16, 13]
        rows = np.concatenate([
            group_mean_features(feats[b], lengths[b]) for b in range(2)
        ])
        centers = kmeans_fit(rows, 3, np.random.default_rng(0))
        obj.targets = {f"u{b}": kmeans_assign(cluster_features(feats[b], lengths[b]), centers)
                       for b in range(2)}
        return enc, obj, Batch(feats, lengths, utt_ids=("u0", "u1"))

    def test_loss_runs_and_backprops(self):
        enc, obj, batch = self._setup(0)
        with Tape() as tape:
            loss = obj.loss(enc, batch, np.random.default_rng(1))
        assert np.isfinite(loss.data)
        E.backward(loss, tape)
        assert np.abs(obj.children["classifier"].p["w"].grad).sum() > 0
        assert np.abs(obj.p["mask_emb"].grad).sum() > 0

    def test_alpha_blends_masked_and_unmasked_terms(self):
        enc, obj, batch = self._setup(1, alpha=1.0)
        rng_mask = lambda: np.random.default_rng(42)
        masked_only = obj.loss(enc, batch, rng_mask()).data
        obj.cfg = replace(obj.cfg, cluster_alpha=0.0)
        unmasked_only = obj.loss(enc, batch, rng_mask()).data
        obj.cfg = replace(obj.cfg, cluster_alpha=0.25)
        blend = obj.loss(enc, batch, rng_mask()).data
        assert blend == pytest.approx(0.25 * masked_only + 0.75 * unmasked_only, rel=1e-5)

    def test_all_labels_missing_raises(self):
        enc, obj, batch = self._setup(2)
        obj.targets = {u: np.full(4, -1, dtype=np.int64) for u in obj.targets}
        with pytest.raises(ValueError, match="no labeled positions"):
            obj.loss(enc, batch, np.random.default_rng(0))

    def test_prepare_labels_every_complete_group(self):
        rng = np.random.default_rng(5)
        corpus = [Utterance(f"u{i}", rng.normal(size=(n, 4)).astype(np.float32), [], "source")
                  for i, n in enumerate((16, 13, 7, 3))]
        obj = MaskedClusterObjective(
            replace(CFG, n_clusters=3, mask_prob=0.065, span_len=10, cluster_alpha=1.0), rng)
        obj.prepare(corpus, np.random.default_rng(6))
        assert set(obj.targets) == {u.utt_id for u in corpus}
        # one assign call for the corpus gives each utterance its own labels
        rows = [cluster_features(u.feats, u.feats.shape[0]) for u in corpus]
        centers = kmeans_fit(np.concatenate(rows), 3, np.random.default_rng(6))
        for u, r in zip(corpus, rows):
            lab = obj.targets[u.utt_id]
            assert lab.shape == (u.feats.shape[0] // 4,)
            assert set(lab) <= {0, 1, 2}
            assert lab.tobytes() == kmeans_assign(r, centers).tobytes()

    def test_unprepared_id_raises_before_any_tape_node(self):
        enc, obj, batch = self._setup(6)
        with Tape() as tape:
            with pytest.raises(RuntimeError, match=r"cluster targets not prepared .*'u9'"):
                obj.loss(enc, batch._replace(utt_ids=("u0", "u9")), np.random.default_rng(0))
        assert tape.nodes == []

    def test_fit_cluster_targets_shapes(self):
        rng = np.random.default_rng(3)
        utts = [rng.normal(size=(16, 4)).astype(np.float32) for _ in range(4)]
        rows = [cluster_features(u, 15) for u in utts]
        assert np.array_equal(rows[0], group_mean_features(utts[0], 15))
        centers = kmeans_fit(np.concatenate(rows), 3, np.random.default_rng(1))
        assert centers.shape == (3, 4)
        labels = kmeans_assign(rows[0], centers)
        assert labels.shape == (3,) and set(labels) <= {0, 1, 2}

    def test_fit_cluster_targets_with_encoder(self):
        rng = np.random.default_rng(4)
        enc = build_encoder(CFG, seed=4)
        utts = [rng.normal(size=(16, 4)).astype(np.float32) for _ in range(3)]
        rows = [cluster_features(u, 15, encoder=enc) for u in utts]
        assert rows[0].shape == (3, 8)  # hidden-state space, d_model wide
        hidden, _ = enc(utts[0][None], [15])
        assert np.array_equal(rows[0], hidden.data[0, :3])
        centers = kmeans_fit(np.concatenate(rows), 2, np.random.default_rng(2))
        assert centers.shape == (2, 8)
        assert kmeans_assign(rows[0], centers).shape == (3,)

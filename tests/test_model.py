"""Encoder backbone: causality, padding invariance, adapters, sharing."""

from dataclasses import replace

import numpy as np
import pytest

from sslasr.engine import Tape, Tensor, attention
from sslasr.model import (
    Encoder,
    Module,
    ResidualAdapter,
    build_encoder,
    sinusoidal_positions,
)
from sslasr.training import PipelineConfig

SMALL = PipelineConfig(d_feat=8, d_model=16, n_heads=2, n_blocks=2, d_ffn=32, causal=True)


def shares_storage(a: Module, b: Module) -> bool:
    """Every parameter of `a` is the very tensor `b` holds under that name."""
    mine, theirs = a.named_params(), b.named_params()
    return all(mine[k] is theirs[k] for k in mine)


def adapter_param_count(d_model: int, d_adapter: int) -> int:
    """LayerNorm (2d) + down (d*a + a) + up (a*d + d)."""
    return 2 * d_model * d_adapter + d_adapter + 3 * d_model


def small_encoder(seed=0, **overrides):
    return build_encoder(replace(SMALL, **overrides), seed)


class TestCausality:
    def test_future_frames_cannot_leak_backward(self):
        enc = small_encoder(causal=True)
        rng = np.random.default_rng(0)
        lengths = [24, 20]
        for trial in range(10):
            feats = rng.normal(size=(2, 24, 8)).astype(np.float32)
            base, out_lens = enc(feats, lengths)
            cut_out = int(rng.integers(1, 5))
            cut_in = 4 * cut_out
            poked = feats.copy()
            poked[:, cut_in:] += rng.normal(size=poked[:, cut_in:].shape).astype(np.float32)
            changed, _ = enc(poked, lengths)
            for b in range(2):
                k = min(cut_out, out_lens[b])
                assert np.array_equal(base.data[b, :k], changed.data[b, :k]), \
                    f"trial {trial}: output before frame {k} changed"

    def test_noncausal_encoder_does_leak(self):
        # witness that the causality check has power
        enc = small_encoder(causal=False)
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(1, 24, 8)).astype(np.float32)
        base, _ = enc(feats, [24])
        poked = feats.copy()
        poked[:, 16:] += 1.0
        changed, _ = enc(poked, [24])
        assert not np.allclose(base.data[0, :2], changed.data[0, :2])


class TestPaddingInvariance:
    @pytest.mark.parametrize("causal", [True, False])
    def test_valid_frames_ignore_padding(self, causal):
        enc = small_encoder(causal=causal)
        rng = np.random.default_rng(2)
        utt = rng.normal(size=(19, 8)).astype(np.float32)
        other = rng.normal(size=(30, 8)).astype(np.float32)

        alone = np.zeros((1, 19, 8), dtype=np.float32)
        alone[0] = utt
        out_alone, lens_alone = enc(alone, [19])

        batch = np.zeros((2, 30, 8), dtype=np.float32)
        batch[0, :19] = utt
        batch[1] = other
        out_batch, lens_batch = enc(batch, [19, 30])

        n = lens_alone[0]
        assert n == lens_batch[0] == 5
        diff = np.abs(out_alone.data[0, :n] - out_batch.data[0, :n]).max()
        assert diff < 1e-6, f"padding leaked into valid frames: {diff:.3e}"

    def test_zero_length_rows_produce_no_nans(self):
        enc = small_encoder(causal=False)
        feats = np.random.default_rng(3).normal(size=(2, 8, 8)).astype(np.float32)
        out, out_lens = enc(feats, [8, 0])
        assert list(out_lens) == [2, 0]
        assert np.isfinite(out.data).all()


class TestShapes:
    def test_out_length_logmel(self):
        enc = small_encoder()
        cases = [(0, 0), (1, 1), (4, 1), (5, 2), (98, 25), (100, 25)]
        for n, want in cases:
            assert enc.out_length(n) == want
        # the encoder applies the same rule to a whole batch of lengths
        lengths = np.array([n for n, _ in cases])
        _, out_lengths = enc.encode_latents(np.zeros((len(cases), 100, 8), np.float32), lengths)
        assert out_lengths.tolist() == [want for _, want in cases]

    def test_rejects_bad_input_rank(self):
        enc = small_encoder()
        with pytest.raises(ValueError, match=r"\(batch, time, dim\)"):
            enc(np.zeros((10, 8), dtype=np.float32), [10])

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="n_heads"):
            small_encoder(d_model=16, n_heads=3)

    def test_attention_mask_semantics(self):
        def allowed(t, lengths):
            # equal scores and one-hot values: output row i holds query i's
            # key weights, nonzero exactly on the keys it may attend
            zero = Tensor(np.zeros((len(lengths), t, t), dtype=np.float32))
            onehot = Tensor(np.broadcast_to(np.eye(t, dtype=np.float32), zero.shape).copy())
            return attention(zero, zero, onehot, lengths, 1, causal=True).data > 0

        mask = allowed(4, [3, 4])
        assert mask[0, 2, 2] and not mask[0, 2, 3]  # causal cut
        assert not mask[0, 3, 3]  # key 3 beyond length 3
        assert mask[1, 3, 3]
        assert np.array_equal(allowed(3, [3])[0], np.tril(np.ones((3, 3), dtype=bool)))


class TestAdapters:
    def test_zero_init_is_bitwise_passthrough(self):
        enc_a = small_encoder(seed=7)
        enc_b = small_encoder(seed=7)
        enc_b.insert_adapters(4, np.random.default_rng(99))
        feats = np.random.default_rng(5).normal(size=(2, 16, 8)).astype(np.float32)
        out_a, _ = enc_a(feats, [16, 12])
        out_b, _ = enc_b(feats, [16, 12])
        assert np.array_equal(out_a.data, out_b.data)

    def test_random_init_changes_outputs(self):
        enc = small_encoder(seed=7)
        feats = np.random.default_rng(5).normal(size=(1, 16, 8)).astype(np.float32)
        before, _ = enc(feats, [16])
        enc.insert_adapters(4, np.random.default_rng(99))
        enc.reinit_adapters(np.random.default_rng(99))
        after, _ = enc(feats, [16])
        assert not np.array_equal(before.data, after.data)

    @pytest.mark.parametrize("d_adapter", [8, 64, 256])
    def test_param_count_formula(self, d_adapter):
        d_model = 64
        ada = ResidualAdapter(np.random.default_rng(0), d_model, d_adapter)
        actual = sum(t.data.size for t in ada.named_params().values())
        assert actual == adapter_param_count(d_model, d_adapter)

    def test_adapter_count_and_names(self):
        enc = small_encoder()
        enc.insert_adapters(4, np.random.default_rng(0))
        tops = {n.split(".")[0] for n in enc.named_params()}
        # one adapter after the conv block plus one per transformer block
        assert tops == {"conv", "block0", "block1", "final_ln", "adapter0", "adapter1", "adapter2"}

    def test_double_insert_rejected(self):
        enc = small_encoder()
        enc.insert_adapters(4, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="already present"):
            enc.insert_adapters(4, np.random.default_rng(0))

    def test_zero_width_rejected(self):
        # d_adapter 0 means "no adapters", so a zero-width insert would leave
        # adapter modules the encoder and its checkpoint do not know about
        enc = small_encoder()
        names = set(enc.named_params())
        with pytest.raises(ValueError, match="adapter width must be positive, got 0"):
            enc.insert_adapters(0, np.random.default_rng(0))
        assert enc.d_adapter == 0 and set(enc.named_params()) == names

    def test_reinit_requires_adapters(self):
        enc = small_encoder()
        with pytest.raises(RuntimeError, match="no adapters"):
            enc.reinit_adapters(np.random.default_rng(0))

    def test_nonlinearity_witness(self):
        # relu between projections: adapter(x) + adapter(-x) != 2x in general
        ada = ResidualAdapter(np.random.default_rng(1), 8, 4, random_init=True)
        x = np.random.default_rng(2).normal(size=(1, 3, 8)).astype(np.float32)
        plus = ada(Tensor(x)).data
        minus = ada(Tensor(-x)).data
        assert not np.allclose(plus + minus, 2 * x, atol=1e-5)


class TestSharingAndSerialization:
    def test_alias_shares_storage(self):
        a = small_encoder(seed=0)
        b = small_encoder(seed=1)
        assert not shares_storage(a, b)
        b.alias_from(a)
        assert shares_storage(b, a)
        name = "block0.attn.wq"
        a.children["block0"].children["attn"].children["wq"].p["w"].data[0, 0] = 123.0
        assert b.named_params()[name + ".w"].data[0, 0] == 123.0

    def test_alias_rejects_structural_mismatch(self):
        a = small_encoder()
        b = small_encoder(n_blocks=1)
        with pytest.raises(ValueError, match="structurally different"):
            b.alias_from(a)

    def test_shared_tensors_listed_once_under_first_name(self):
        root = Module()
        root.children.update(a=small_encoder(seed=0), b=small_encoder(seed=1))
        a, b = root.children["a"], root.children["b"]
        b.children["block0"].alias_from(a.children["block0"])
        names = root.named_params()
        n_block = len(a.children["block0"].named_params())
        assert len(names) == 2 * len(a.named_params()) - n_block
        assert not any(n.startswith("b.block0.") for n in names)
        assert names["a.block0.ln1.g"] is b.children["block0"].children["ln1"].p["g"]
        other = Module()
        other.children.update(a=small_encoder(seed=2), b=small_encoder(seed=3))
        other.children["b"].children["block0"].alias_from(other.children["a"].children["block0"])
        state = {k: t.data.copy() for k, t in names.items()}
        other.load_params(state)
        for k, t in other.named_params().items():
            assert np.array_equal(t.data, state[k])
        assert np.array_equal(other.children["b"].named_params()["block0.ln1.g"].data,
                              state["a.block0.ln1.g"])

    def test_load_params_roundtrip(self):
        a = small_encoder(seed=3)
        b = small_encoder(seed=4)
        state = {k: t.data.copy() for k, t in a.named_params().items()}
        b.load_params(state)
        for k, t in b.named_params().items():
            assert np.array_equal(t.data, state[k])

    def test_load_params_strictness(self):
        enc = small_encoder()
        state = {k: t.data.copy() for k, t in enc.named_params().items()}
        short = dict(state)
        short.pop(next(iter(short)))
        with pytest.raises(ValueError, match="parameter mismatch"):
            enc.load_params(short)
        bad_shape = dict(state)
        bad_shape["final_ln.g"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            enc.load_params(bad_shape)

    def test_build_is_deterministic(self):
        a = small_encoder(seed=11)
        b = small_encoder(seed=11)
        c = small_encoder(seed=12)
        pa, pb, pc = a.named_params(), b.named_params(), c.named_params()
        assert all(np.array_equal(pa[k].data, pb[k].data) for k in pa)
        assert any(not np.array_equal(pa[k].data, pc[k].data) for k in pa)


class TestTapeBudget:
    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_encoder_forward_records_a_fixed_node_count(self, n_blocks):
        # convs and GELUs, positions, per block (LN, q/k/v, attention,
        # out projection, residual, LN, FFN linear-GELU-linear, residual),
        # final LN
        enc = small_encoder(n_blocks=n_blocks)
        feats = np.random.default_rng(4).normal(size=(2, 24, 8)).astype(np.float32)
        with Tape() as tape:
            enc(feats, [24, 17])
        assert len(tape.nodes) == 4 + 1 + 12 * n_blocks + 1


class TestPositions:
    def test_sinusoidal_values(self):
        pe = sinusoidal_positions(5, 6)
        assert pe.shape == (5, 6) and pe.dtype == np.float32
        assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=0)
        assert pe[1, 0] == pytest.approx(np.sin(1.0), rel=1e-6)
        assert pe[2, 1] == pytest.approx(np.cos(2.0), rel=1e-6)
        assert pe[1, 2] == pytest.approx(np.sin(1.0 / 10000.0 ** (2 / 6)), rel=1e-6)

    def test_table_is_memoised_and_read_only(self):
        pe = sinusoidal_positions(9, 4, np.float64)
        assert sinusoidal_positions(9, 4, np.float64) is pe
        assert pe.dtype == np.float64 and not pe.flags.writeable

"""Engine tests: forward oracles, backward semantics, gradcheck, optimizer."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslasr import ctc
from sslasr import engine as T
from sslasr import gradcheck
from sslasr.ctc import ctc_loss_batch
from sslasr.data import make_corpus
from sslasr.gradcheck import finite_diff_gradcheck, gradcheck_battery
from sslasr.model import Encoder, Linear, build_encoder
from sslasr.objectives import GumbelQuantizer
from sslasr.optim import BETA1, BETA2, BLOCK, EPS, Adam, clip_global_norm, noam_lr, tri_stage_lr
from sslasr.engine import Tape, Tensor, backward
from sslasr.training import PipelineConfig, SSLBundle, _train_loop


def t64(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestForwardOracles:
    def test_softmax_known_row(self):
        out = T.softmax(t64([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            out.data, [0.09003057317038046, 0.24472847105479764, 0.6652409557748219], rtol=1e-12
        )

    def test_softmax_rows_sum_to_one_with_mask(self):
        # with every value 1, attention's output is the sum of a row's weights
        rng = np.random.default_rng(3)
        q, k = (t64(rng.normal(size=(2, 3, 4)) * 5.0) for _ in range(2))
        v = np.ones((2, 3, 4))
        out = T.attention(q, k, t64(v), [2, 3], 2, causal=False).data
        np.testing.assert_allclose(out, np.ones((2, 3, 4)), rtol=1e-12)
        v[0, 2] = 1e6  # a masked key's value gets weight exactly 0
        assert T.attention(q, k, t64(v), [2, 3], 2, causal=False).data.tobytes() == out.tobytes()

    def test_layer_norm_two_point_row(self):
        g, b = t64([1.0]), t64([0.0])
        out = T.layer_norm(t64([[1.0, 3.0]]), g, b)
        # mean 2 and variance 1, so the row is (-1, 1) / sqrt(1 + eps), eps = 1e-5
        np.testing.assert_allclose(out.data, np.array([[-1.0, 1.0]]) / math.sqrt(1.0 + 1e-5),
                                   atol=1e-12)

    def test_layer_norm_constant_row_is_zero(self):
        g, b = t64(np.ones(4)), t64(np.zeros(4))
        out = T.layer_norm(t64([[5.0, 5.0, 5.0, 5.0]]), g, b)
        np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_bits_match_the_mean_formula(self, dtype):
        rng = np.random.default_rng(21)
        x = (rng.normal(size=(64, 7, 12)) * 3.0 + 1.0).astype(dtype)
        gamma, beta, g = (rng.normal(size=s).astype(dtype) for s in (12, 12, x.shape))
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        with Tape() as tape:
            out = T.layer_norm(xt, gt, bt)
            backward(T.sum_(T.mul(out, Tensor(g))), tape)
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = (x - mu) * inv
        gxh = g * gamma
        gx = inv * (gxh - gxh.mean(axis=-1, keepdims=True)
                    - xhat * (gxh * xhat).mean(axis=-1, keepdims=True))
        assert out.data.tobytes() == (gamma * xhat + beta).tobytes()
        assert xt.grad.tobytes() == gx.tobytes()

    def test_gelu_values(self):
        out = T.gelu(t64([1.0, -0.5]))
        np.testing.assert_allclose(
            out.data, [0.8411919906082768, -0.15428599017485606], rtol=1e-12
        )

    def test_conv1d_causal_identityish_kernel(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
        w = Tensor(np.ones((2, 1, 1)))
        out = T.conv1d(x, w, Tensor(np.zeros(1)), 1, causal=True)
        np.testing.assert_allclose(out.data.reshape(-1), [1.0, 3.0, 5.0])

    def test_conv1d_output_lengths(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 11, 3)))
        w = Tensor(np.random.default_rng(1).normal(size=(4, 3, 5)))
        b = Tensor(np.zeros(5))
        # ceil(T / stride) frames either way: Encoder.out_length's rule
        for causal in (True, False):
            assert T.conv1d(x, w, b, 2, causal).shape == (2, 6, 5)
            assert T.conv1d(x, w, b, 3, causal).shape == (2, 4, 5)

    def test_conv1d_matches_direct_correlation(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 9, 2))
        w = rng.normal(size=(3, 2, 4))
        out = T.conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(4)), 1, causal=False).data
        # non-causal K=3: one zero frame of padding on each side
        xp = np.pad(x[0], ((1, 1), (0, 0)))
        for t in range(9):
            ref = np.einsum("kc,kcd->d", xp[t : t + 3], w)
            np.testing.assert_allclose(out[0, t], ref, rtol=1e-6)

    def test_gelu_float32_matches_float64_formula(self):
        x = np.linspace(-10.0, 10.0, 20001, dtype=np.float32)
        out = T.gelu(Tensor(x)).data
        x64 = x.astype(np.float64)
        ref = 0.5 * x64 * (1.0 + np.tanh(0.7978845608028654 * (x64 + 0.044715 * x64**3)))
        tol = 8 * np.finfo(np.float32).eps
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=tol, atol=tol * 10.0)

    def test_embedding_lookup(self):
        table = t64(np.arange(12.0).reshape(4, 3))
        out = T.embedding(table, np.array([2, 0, 2]))
        np.testing.assert_allclose(out.data, table.data[[2, 0, 2]])

    def test_cosine_similarity_degenerate_raises(self):
        with pytest.raises(ValueError, match="degenerate similarity input"):
            T.cosine_similarity(t64([0.0, 0.0]), t64([1.0, 2.0]))

    def test_cross_entropy_uniform_logits(self):
        out = T.cross_entropy(t64(np.zeros((2, 4))), np.array([1, 3]))
        np.testing.assert_allclose(out.data, np.log(4.0) * np.ones(2), rtol=1e-12)

    def test_abs_composition(self):
        out = T.abs_(t64([-2.0, 0.0, 1.5]))
        np.testing.assert_allclose(out.data, [2.0, 0.0, 1.5])


def _conv1d_reference(x, w, b, g, stride, causal):
    """Per-tap loop: forward output and the input/weight/bias gradients for upstream g."""
    B, T_in, _ = x.shape
    K = w.shape[0]
    left = K - 1 if causal else (K - 1) // 2
    t_out = -(-T_in // stride)
    xp = np.zeros((B, max(left + T_in, (t_out - 1) * stride + K), x.shape[2]))
    xp[:, left : left + T_in] = x
    out = np.zeros((B, t_out, w.shape[2])) + b
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for t in range(t_out):
        for k in range(K):
            row = t * stride + k
            out[:, t] += xp[:, row] @ w[k]
            gxp[:, row] += g[:, t] @ w[k].T
            gw[k] += xp[:, row].T @ g[:, t]
    return out, gxp[:, left : left + T_in], gw, g.sum(axis=(0, 1))


class TestConv1dReference:
    """The matmul conv1d agrees with a direct per-tap loop, overlapping taps included."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    # "same": the non-causal padding, K-1 zeros split with the smaller half on the left
    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "same"])
    def test_forward_and_gradients(self, causal, stride, dtype):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 11, 3)).astype(dtype)
        w = rng.normal(size=(4, 3, 5)).astype(dtype)  # K=4 > stride: taps overlap
        b = rng.normal(size=5).astype(dtype)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        with Tape() as tape:
            out = T.conv1d(xt, wt, bt, stride, causal)
            g = rng.normal(size=out.shape).astype(dtype)
            backward(T.sum_(T.mul(out, Tensor(g))), tape)
        refs = _conv1d_reference(*(a.astype(np.float64) for a in (x, w, b, g)), stride, causal)
        tol = 64 * np.finfo(dtype).eps
        for name, got, ref in zip(("out", "gx", "gw", "gb"),
                                  (out.data, xt.grad, wt.grad, bt.grad), refs):
            assert got.dtype == dtype and got.shape == ref.shape, name
            np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max(),
                                       err_msg=name)


def _composed_linear(x, w, b, g):
    """x @ w, then + b, as two separate steps: the output and the x, w, b
    gradients for upstream g, in plain NumPy."""
    mm = x @ w
    out = mm + b
    gx = g @ np.swapaxes(w, -1, -2)
    gw = (np.swapaxes(x, -1, -2) @ g).sum(axis=0)
    return out, gx, gw, g.sum(axis=(0, 1))


def _composed_attention(q, k, v, allowed, n_heads, g):
    """The reshape / transpose / matmul / scale / masked softmax / matmul /
    transpose / reshape chain the attention op replaces, step by step in
    plain NumPy, with each op output made contiguous as Tensors hold it:
    the output and the q, k, v gradients for upstream g."""
    B, Tq, D = q.shape
    dh = D // n_heads

    def split(a):
        return np.ascontiguousarray(np.transpose(a.reshape(B, Tq, n_heads, dh), (0, 2, 1, 3)))

    def unsplit(gh):  # transpose's then reshape's backward
        return np.transpose(gh, (0, 2, 1, 3)).reshape(B, Tq, D)

    qh, kh, vh = split(q), split(k), split(v)
    kt = np.ascontiguousarray(np.transpose(kh, (0, 1, 3, 2)))
    scores = qh @ kt
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.dtype)
    x = scores * scale
    mask = np.broadcast_to(allowed, x.shape)
    m = np.max(np.where(mask, x, -np.inf), axis=-1, keepdims=True)
    e = np.exp(np.where(mask, x - m, 0.0)) * mask
    p = e / e.sum(axis=-1, keepdims=True)
    ctx = p @ vh
    out = np.ascontiguousarray(np.transpose(ctx, (0, 2, 1, 3))).reshape(B, Tq, D)
    # backward, node by node from the last
    g_ctx = np.transpose(g.reshape(B, Tq, n_heads, dh), (0, 2, 1, 3))
    g_p = g_ctx @ np.swapaxes(vh, -1, -2)
    g_vh = np.swapaxes(p, -1, -2) @ g_ctx
    g_x = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True))
    g_scores = g_x * scale
    g_qh = g_scores @ np.swapaxes(kt, -1, -2)
    g_kt = np.swapaxes(qh, -1, -2) @ g_scores
    g_kh = np.transpose(g_kt, (0, 1, 3, 2))
    return out, unsplit(g_qh), unsplit(g_kh), unsplit(g_vh)


class TestFusedOps:
    """linear and attention take the bits of the compositions they replace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_matches_matmul_then_add(self, dtype):
        rng = np.random.default_rng(22)
        x, w, b, g = (rng.normal(size=s).astype(dtype) for s in ((2, 7, 5), (5, 6), (6,), (2, 7, 6)))
        ins = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        with Tape() as tape:
            out = T.linear(*ins)
            backward(T.sum_(T.mul(out, Tensor(g))), tape)
        got = (out.data, *(t.grad for t in ins))
        for name, a, ref in zip(("out", "gx", "gw", "gb"), got, _composed_linear(x, w, b, g)):
            assert a.dtype == dtype and a.tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
    def test_attention_matches_the_composed_chain(self, dtype, causal):
        rng = np.random.default_rng(23)
        B, Tq, D, H = 2, 7, 6, 2  # dh = 3: the scale 1/sqrt(3) rounds
        q, k, v, g = (rng.normal(size=(B, Tq, D)).astype(dtype) for _ in range(4))
        # the second utterance is padded after 5 frames; the oracle takes
        # the mask those lengths give as an explicit array
        pattern = np.tri(Tq, dtype=bool) if causal else np.ones((Tq, Tq), dtype=bool)
        allowed = (np.arange(Tq) < np.array([Tq, 5])[:, None, None, None]) & pattern
        ins = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        with Tape() as tape:
            out = T.attention(*ins, [Tq, 5], H, causal)
            backward(T.sum_(T.mul(out, Tensor(g))), tape)
        assert len(tape.nodes) == 3
        got = (out.data, *(t.grad for t in ins))
        refs = _composed_attention(q, k, v, allowed, H, g)
        for name, a, ref in zip(("out", "gq", "gk", "gv"), got, refs):
            assert a.dtype == dtype and a.tobytes() == ref.tobytes(), name

    def test_attention_checks_its_scores(self):
        # overflowing scores reach the output as NaN, which the replay names
        q = t64(np.full((1, 2, 2), 1e200))
        with pytest.raises(FloatingPointError, match="op 'attention'"):
            with np.errstate(over="ignore", invalid="ignore"):
                T.finite_result(lambda: T.attention(q, q, q, [2], 1, causal=False))

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
    def test_attention_ignores_the_keys_a_query_may_not_attend(self, causal):
        rng = np.random.default_rng(24)
        q, k, v = (rng.normal(size=(2, 6, 4)) for _ in range(3))

        def run(values):
            return T.attention(t64(q), t64(k), t64(values), [6, 4], 2, causal).data

        out = run(v)
        for j in (4, 5):  # keys at and past the second utterance's length
            big = v.copy()
            big[1, j] = 1e6
            assert run(big).tobytes() == out.tobytes()
        if causal:  # key j is later than queries 0 .. j-1
            for j in range(1, 6):
                big = v.copy()
                big[:, j] = 1e6
                assert run(big)[:, :j].tobytes() == out[:, :j].tobytes()

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
    def test_zero_length_utterance_attends_its_diagonal(self, causal):
        rng = np.random.default_rng(25)
        q, k, v = (rng.normal(size=(2, 5, 4)).astype(np.float32) for _ in range(3))
        out = T.attention(Tensor(q), Tensor(k), Tensor(v), [5, 0], 2, causal).data
        assert out[1].tobytes() == v[1].tobytes()


class TestBackwardSemantics:
    def test_repeated_backward_exactly_doubles(self):
        """Gradients accumulate across tapes: one backward each on two tapes
        of the same function doubles x.grad exactly."""
        x = t64([1.0, 2.0, 3.0], rg=True)
        grads = []
        for _ in range(2):
            with Tape() as tape:
                backward(T.sum_(T.mul(x, x)), tape)
            grads.append(x.grad.copy())
        np.testing.assert_array_equal(grads[1], 2.0 * grads[0])

    def test_backward_consumes_the_tape(self):
        x = t64([1.0, 2.0, 3.0], rg=True)
        with Tape() as tape:
            loss = T.sum_(T.gelu(T.mul(x, x)))
        n = len(tape.nodes)
        backward(loss, tape)
        assert len(tape.nodes) == n == 3  # the count the benchmark's tracer reads
        assert [node.op for node in tape.nodes] == ["mul", "gelu", "sum"]
        for node in tape.nodes:
            assert node.inputs is None and node.output is None and node.backward_fn is None
        g = x.grad.copy()
        with pytest.raises(ValueError, match="consumed tape"):
            backward(loss, tape)
        assert x.grad.tobytes() == g.tobytes()

    def test_a_tape_without_nodes_is_consumed_too(self):
        x = t64(2.0, rg=True)
        tape = Tape()
        backward(x, tape)
        with pytest.raises(ValueError, match="consumed tape"):
            backward(x, tape)
        assert x.grad == 1.0

    def test_backward_frees_the_forward_arrays_as_it_goes(self):
        """A tiny pretrain step: traced memory inside backward stays within a
        small margin of the memory at the end of the forward pass, since each
        forward array goes as its gradient arrives."""
        cfg = PipelineConfig(vocab_size=5, d_feat=4, proto_len=8, min_tokens=3, max_tokens=4,
                             n_train=8, d_model=16, n_heads=2, n_blocks=2, d_ffn=32,
                             objective="biapc", apc_lags=1, batch_size=4)
        bundle = SSLBundle(cfg, 0)
        utts = make_corpus(cfg, "source", 4, 0)
        bundle.loss(utts, np.random.default_rng(0), 1)  # warm caches off the trace
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = bundle.loss(utts, np.random.default_rng(0), 1)
            forward_end, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            backward(loss, tape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - forward_end < 0.1 * forward_end, (forward_end, peak)

    def test_broadcast_add_reduces_grad(self):
        a = t64(np.ones((2, 3)), rg=True)
        b = t64(np.ones(3), rg=True)
        with Tape() as tape:
            backward(T.sum_(T.add(a, b)), tape)
        np.testing.assert_array_equal(b.grad, 2.0 * np.ones(3))
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_non_scalar_loss_raises(self):
        x = t64([1.0, 2.0], rg=True)
        with Tape() as tape:
            y = T.mul(x, x)
            with pytest.raises(ValueError, match="scalar"):
                backward(y, tape)

    def test_straight_through_forward_hard_backward_soft(self):
        # the quantizer emits its hard code's codebook row, and the gradient
        # reaching its projection is the one the soft mixture of rows gets
        rng = np.random.default_rng(2)
        quant = GumbelQuantizer(rng, d_latent=6, n_codes=5)
        z = Tensor(rng.normal(size=(2, 4, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(2, 4, 6)).astype(np.float32))
        codebook, proj_w = quant.p["codebook"], quant.children["proj"].p["w"]
        grads = []
        for hard in (True, False):
            proj_w.grad = None
            with Tape() as tape:
                quantized, soft = quant(z, np.random.default_rng(3), tau=1.0)
                if hard:
                    np.testing.assert_array_equal(quantized.data, codebook.data[soft.data.argmax(-1)])
                else:
                    quantized = T.linear(soft, codebook, Tensor(np.zeros(6, dtype=np.float32)))
                backward(T.sum_(T.mul(quantized, w)), tape)
            grads.append(proj_w.grad)
        assert np.abs(grads[0]).sum() > 0
        np.testing.assert_array_equal(*grads)

    @pytest.mark.parametrize("op,frozen", [
        ("add", 0), ("add", 1), ("mul", 0), ("mul", 1), ("where", 0), ("where", 1),
        ("linear", 0), ("linear", 1), ("linear", 2),
        ("attention", 0), ("attention", 1), ("attention", 2),
        ("layer_norm", 0), ("layer_norm", 1), ("layer_norm", 2),
        ("conv1d", 0), ("conv1d", 1), ("conv1d", 2),
    ])
    def test_frozen_input_leaves_other_gradients_exact(self, op, frozen):
        rng = np.random.default_rng(18)
        shapes, fn = {
            "add": ([(2, 5, 3), (3,)], T.add),
            "mul": ([(2, 5, 3), (3,)], T.mul),
            "where": ([(2, 5, 3), (3,)],
                      lambda a, b: T.where_mask(a, b, np.arange(5)[:, None] % 2 == 0)),
            "linear": ([(2, 5, 3), (3, 4), (4,)], T.linear),
            "attention": ([(2, 5, 4)] * 3, lambda q, k, v: T.attention(q, k, v, [5, 4], 2, causal=False)),
            "layer_norm": ([(2, 5, 4), (4,), (4,)], T.layer_norm),
            "conv1d": ([(2, 9, 3), (3, 3, 4), (4,)],
                       lambda x, w, b: T.conv1d(x, w, b, 2, causal=True)),
        }[op]
        arrays = [rng.normal(size=s).astype(np.float32) for s in shapes]
        grads = {}
        for skip in (None, frozen):
            ins = [Tensor(a, requires_grad=i != skip) for i, a in enumerate(arrays)]
            with Tape() as tape:
                z = fn(*ins)
                loss = T.sum_(T.mul(z, z))
            # read before backward, which consumes the tape
            op_grads = tape.nodes[0].backward_fn(np.ones_like(z.data))
            backward(loss, tape)
            grads[skip] = [t.grad for t in ins]
        # the op's backward computes nothing for the frozen input
        assert op_grads[frozen] is None
        assert grads[frozen][frozen] is None
        for i, (full, skipped) in enumerate(zip(grads[None], grads[frozen])):
            if i != frozen:
                np.testing.assert_array_equal(skipped, full)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_holds_tanh_alone_and_keeps_the_bits_of_holding_x_squared(self, dtype):
        rng = np.random.default_rng(26)
        x = (rng.normal(size=(8, 1000)) * 3).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        tracemalloc.start()
        try:
            with Tape() as tape:
                T.gelu(Tensor(x, requires_grad=True))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2.5 * x.nbytes  # the output and tanh(u), not x * x too
        # the backward that held x * x from the forward pass
        x2 = x * x
        t = np.tanh(T._GELU_C * (x + T._GELU_K * (x2 * x)))
        du = T._GELU_C * (1.0 + 3.0 * T._GELU_K * x2)
        want = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
        got, = tape.nodes[0].backward_fn(g)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("in_arena", [False, True], ids=["plain", "arena"])
    def test_first_deposit_matches_zeros_like_plus_g_bits(self, in_arena):
        g = np.array([-0.0, 0.0, -1.5], dtype=np.float32)
        t = Tensor(np.ones(3, np.float32), requires_grad=True)
        if in_arena:
            Adam({"t": t})
        with Tape() as tape:
            backward(T.sum_(T.mul(t, Tensor(g))), tape)
        assert t.grad.tobytes() == (np.zeros_like(g) + g).tobytes()  # -0.0 deposits +0.0
        assert (t.grad is t.grad_slot) == in_arena

    def test_op_outputs_are_c_contiguous(self):
        x = t64(np.arange(24.0).reshape(2, 3, 4))
        out = T.slice_axis(x, 2, 0, 4, step=2)
        assert out.data.flags.c_contiguous
        np.testing.assert_array_equal(out.data, x.data[:, :, ::2])
        # attention's head merge is a transpose of its (B, H, T, dh) result
        assert T.attention(x, x, x, [3, 3], 2, causal=False).data.flags.c_contiguous

    def test_grad_dtype_matches_data(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            backward(T.sum_(T.mul(x, x)), tape)
        assert x.grad.dtype == np.float32


class TestVerificationMode:
    """finite_result's result test and its replay's per-op check on one NaN
    in a large array, finite values whose sum overflows, and both infinities."""

    def test_overflow_raises_when_enabled(self):
        with pytest.raises(FloatingPointError, match="non-finite"):
            with np.errstate(over="ignore"):
                T.finite_result(lambda: T.exp(t64([1000.0])))

    def test_single_nan_at_the_end_of_a_large_array_raises(self):
        x = np.zeros(10**6, dtype=np.float32)
        x[-1] = np.nan
        with pytest.raises(FloatingPointError, match="op 'reshape'"):
            T.finite_result(lambda: T.reshape(Tensor(x), (1000, 1000)))

    def test_finite_values_whose_sum_overflows_pass(self):
        x = np.full(4, 3e38, dtype=np.float32)
        out = T.finite_result(lambda: T.reshape(Tensor(x), (2, 2)))
        np.testing.assert_array_equal(out.data.reshape(-1), x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_both_infinities_whose_sum_is_nan_raise(self, dtype):
        x = np.zeros(1000, dtype=dtype)
        x[3], x[-2] = np.inf, -np.inf
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="op 'reshape'"):
            T.finite_result(lambda: T.reshape(Tensor(x), (10, 100)))


class TestAttentionMask:
    """attention's memoised (B, 1, T, T) mask of the keys each query may attend."""

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
    def test_mask_follows_the_padding_rule(self, causal):
        lengths, T_ = (5, 3, 0, 1), 5
        mask = T._attention_mask(lengths, T_, causal)
        assert mask.shape == (4, 1, T_, T_) and mask.dtype == bool
        for b, n in enumerate(lengths):
            for i in range(T_):
                for j in range(T_):
                    want = j < n and (j <= i or not causal) if n > 0 else j == i
                    assert mask[b, 0, i, j] == want, (b, i, j)

    def test_mask_is_read_only_and_shared(self):
        mask = T._attention_mask((2, 1), 3, False)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0, 0, 0] = False
        assert T._attention_mask((2, 1), 3, False) is mask

    def test_attention_passes_lengths_as_plain_ints(self):
        q = t64(np.ones((2, 3, 2)))
        T._attention_mask.cache_clear()
        T.attention(q, q, q, np.array([3, 2]), 1, causal=True)
        T.attention(q, q, q, [3, 2], 1, causal=True)
        info = T._attention_mask.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cache_is_bounded(self):
        maxsize = T._attention_mask.cache_info().maxsize
        assert maxsize is not None
        for n in range(maxsize + 10):
            T._attention_mask((n,), 2, True)
        assert T._attention_mask.cache_info().currsize == maxsize


def f32(data):
    return Tensor(np.asarray(data, dtype=np.float32))


# One call per op name the engine records, each making that op's output
# non-finite; from finite inputs where the op can overflow by itself.
NON_FINITE_OPS = {
    "add": lambda: T.add(f32([3e38]), f32([3e38])),
    "mul": lambda: T.mul(t64([1e200]), t64([1e200])),
    "linear": lambda: T.linear(t64([[1e200]]), t64([[1e200]]), t64([0.0])),
    "attention": lambda: T.attention(t64(np.ones((1, 2, 2))), t64(np.ones((1, 2, 2))),
                                     t64([[[np.nan, 0.0], [0.0, 0.0]]]), [2], 1, causal=False),
    "reshape": lambda: T.reshape(t64([np.nan, 0.0]), (2, 1)),
    "slice": lambda: T.slice_axis(t64([0.0, np.inf]), 0, 1, 2),
    "exp": lambda: T.exp(t64([1000.0])),
    "log": lambda: T.log(t64([0.0])),
    "relu": lambda: T.relu(t64([np.inf])),
    "gelu": lambda: T.gelu(t64([np.nan])),
    "softmax": lambda: T.softmax(t64([0.0, np.inf])),
    "layer_norm": lambda: T.layer_norm(t64([np.inf, 0.0]), t64([1.0, 1.0]), t64([0.0, 0.0])),
    "conv1d": lambda: T.conv1d(t64(np.full((1, 2, 1), 1e200)), t64(np.full((2, 1, 1), 1e200)),
                               t64([0.0]), 1, True),
    "embedding": lambda: T.embedding(t64([[0.0], [np.inf]]), np.array([1])),
    "where": lambda: T.where_mask(t64([np.nan]), t64([0.0]), [True]),
    "sum": lambda: T.sum_(f32([3e38, 3e38])),
    "mean": lambda: T.mean_(t64([1e308, 1e308])),
    "cosine_similarity": lambda: T.cosine_similarity(t64([1e200, 1e200]), t64([1e200, 1e200])),
    "cross_entropy": lambda: T.cross_entropy(t64([[np.nan, 0.0]]), np.array([0])),
    "ctc_loss": lambda: ctc_loss_batch(t64(np.full((1, 3, 3), np.nan)), [3], [[1]]),
}


class TestPerOpFiniteness:
    """Inside finite_result, every recorded op raises on a non-finite output,
    naming itself."""

    def test_the_table_covers_every_recorded_op(self):
        src = inspect.getsource(T) + inspect.getsource(ctc)
        assert set(re.findall(r"_record\(\"(\w+)\"", src)) == set(NON_FINITE_OPS)

    @pytest.mark.parametrize("op", sorted(NON_FINITE_OPS))
    def test_op_names_itself(self, op):
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            T.finite_result(NON_FINITE_OPS[op])
        assert str(exc.value) == f"non-finite values produced by op '{op}'"

    @pytest.mark.parametrize("op", sorted(NON_FINITE_OPS))
    def test_train_loop_names_the_stage_step_and_op(self, op, tmp_path):
        w = Tensor(np.zeros(1), requires_grad=True)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            _train_loop("adapt", PipelineConfig(), [None], lambda batch, rng, step: NON_FINITE_OPS[op](),
                        {"w": w}, {"w": w}, 2, lambda s: 1e-3, tmp_path / "m.jsonl")
        assert str(exc.value) == f"stage 'adapt' step 1: non-finite values produced by op '{op}'"


class TestUncheckedRuns:
    """finite_result tests only the result of a run and replays a non-finite
    one with every op checking its output; an op called outside it checks
    nothing."""

    def test_an_op_called_directly_returns_its_non_finite_output(self):
        with np.errstate(all="ignore"):
            assert T.log(t64([0.0])).data[0] == -np.inf

    def test_an_intermediate_that_misses_the_result_does_not_raise(self):
        def work():
            return T.sum_(T.where_mask(T.log(t64([0.0])), t64([2.0]), [False]))

        with np.errstate(all="ignore"):
            assert T.finite_result(work).data == 2.0

    def test_a_non_finite_result_is_replayed_with_checks_and_off_the_tape(self):
        x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        runs = []
        tape = Tape()

        def work():
            runs.append(T._active_tape())
            return T.sum_(T.mul(T.log(x), t64([2.0, 1.0])))

        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            T.finite_result(work, tape)
        assert str(exc.value) == "non-finite values produced by op 'log'"
        assert runs == [tape, None] and [n.op for n in tape.nodes] == ["log", "mul", "sum"]

    def test_a_finite_result_runs_once_onto_the_tape(self):
        x = Tensor(np.array([0.5, 2.0]), requires_grad=True)
        runs = []
        tape = Tape()
        out = T.finite_result(lambda: runs.append(1) or T.sum_(T.mul(x, x)), tape)
        backward(out, tape)
        assert runs == [1]
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)


class TestGradcheckPrimitives:
    """Every primitive passes central-difference checking in float64."""

    def test_elementwise_and_reductions(self):
        rng = np.random.default_rng(11)
        x = t64(rng.normal(size=(3, 4)) + 3.0)  # positive, away from relu kink
        y = t64(rng.normal(size=(3, 4)))
        w = rng.normal(size=(3, 4))

        def fn(a, b):
            z = T.add(T.mul(a, b), T.exp(T.mul(b, Tensor(np.full((), 0.3)))))
            z = T.add(z, T.log(a))
            z = T.add(z, T.relu(b))
            z = T.add(z, T.gelu(b))
            return T.sum_(T.mul(z, Tensor(w)))

        assert finite_diff_gradcheck(fn, [x, y]) < 1e-6

    def test_matmul_reshape_slice(self):
        rng = np.random.default_rng(12)
        a = t64(rng.normal(size=(2, 3, 4)))
        b = t64(rng.normal(size=(4, 5)))
        w = rng.normal(size=(2, 6))

        def fn(a, b):
            z = T.linear(a, b, Tensor(np.zeros(5)))  # (2,3,5)
            z = T.slice_axis(z, 2, 0, 4, step=2)  # (2,3,2)
            z = T.reshape(z, (2, 6))
            return T.sum_(T.mul(z, Tensor(w)))

        assert finite_diff_gradcheck(fn, [a, b]) < 1e-6

    def test_softmax_layernorm_masked(self):
        # layer-normed projections into attention whose second utterance
        # has a padded key
        rng = np.random.default_rng(13)
        x = t64(rng.normal(size=(2, 5, 4)))
        g = t64(rng.normal(size=4) + 1.0)
        bb = t64(rng.normal(size=4))
        w, b = t64(rng.normal(size=(4, 4))), t64(rng.normal(size=4))
        wo = rng.normal(size=(2, 5, 4))

        def fn(x, g, bb, w, b):
            z = T.layer_norm(x, g, bb)
            z = T.attention(T.linear(z, w, b), z, z, [5, 4], 2, causal=False)
            return T.sum_(T.mul(z, Tensor(wo)))

        assert finite_diff_gradcheck(fn, [x, g, bb, w, b]) < 1e-6

    @pytest.mark.parametrize("causal,stride", [(True, 1), (True, 2), (False, 1), (False, 2)],
                             ids=["causal-1", "causal-2", "same-1", "same-2"])
    def test_conv1d(self, causal, stride):
        rng = np.random.default_rng(14)
        x = t64(rng.normal(size=(2, 8, 3)))
        w = t64(rng.normal(size=(3, 3, 4)))
        b = t64(rng.normal(size=4))
        wt = rng.normal(size=1)

        def fn(x, w, b):
            z = T.conv1d(x, w, b, stride, causal)
            return T.mul(T.mean_(T.mul(z, z)), Tensor(wt[0]))

        assert finite_diff_gradcheck(fn, [x, w, b]) < 1e-6

    def test_embedding_where(self):
        rng = np.random.default_rng(15)
        table = t64(rng.normal(size=(6, 4)))
        other = t64(rng.normal(size=(3, 4)))
        idx = np.array([1, 4, 1])
        mask = np.array([[True], [False], [True]])
        w = rng.normal(size=(3, 4))

        def fn(table, other):
            z = T.embedding(table, idx)
            z = T.where_mask(z, other, mask)
            return T.sum_(T.mul(z, Tensor(w)))

        assert finite_diff_gradcheck(fn, [table, other]) < 1e-6

    def test_cosine_cross_entropy(self):
        rng = np.random.default_rng(16)
        a = t64(rng.normal(size=(3, 5)) + 0.5)
        b = t64(rng.normal(size=(3, 5)) - 0.2)
        logits = t64(rng.normal(size=(4, 3)))
        targets = np.array([0, 2, 1, 1])

        def fn(a, b, logits):
            c = T.cosine_similarity(a, b)
            ce = T.cross_entropy(logits, targets)
            return T.add(T.sum_(c), T.sum_(ce))

        assert finite_diff_gradcheck(fn, [a, b, logits]) < 1e-6

    def test_nondeterministic_function_detected(self):
        state = {"n": 0}

        def fn(x):
            state["n"] += 1
            return T.sum_(T.mul(x, Tensor(np.full((), float(state["n"])))))

        with pytest.raises(RuntimeError, match="nondeterministic"):
            finite_diff_gradcheck(fn, [t64([1.0, 2.0])])

    def test_non_finite_analytic_gradient_fails(self):
        # forward a*a, whose backward writes NaN into element 0
        def nan_square(a):
            def bwd(g):
                grad = 2.0 * a.data * g
                grad.reshape(-1)[0] = np.nan
                return (grad,)

            return T._record("nan_square", (a,), a.data * a.data, bwd)

        x = t64([[0.7, -1.2], [0.4, 2.0]])
        assert finite_diff_gradcheck(lambda a: T.sum_(nan_square(a)), [x]) == math.inf

    def test_non_finite_central_difference_fails(self):
        # finite at the probe point, infinite one step away
        def fn(a):
            return Tensor(np.asarray(1.0 if a.data[0] == 0.5 else np.inf))

        assert finite_diff_gradcheck(fn, [t64([0.5])]) == math.inf

    def test_nan_value_at_the_point_names_the_op(self):
        # the taped analytic pass runs before any central difference
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            gradcheck._analytic_grads(lambda a: T.sum_(T.mul(T.log(a), a)), [t64([1.0, -1.0])])
        assert str(exc.value) == "non-finite values produced by op 'log'"

    def test_probe_across_a_pole_names_the_op(self):
        # log is finite at 3e-6 but NaN at the probe 3e-6 - 1e-5: the op that
        # made it is named, and NaN != NaN is not read as nondeterminism
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            finite_diff_gradcheck(lambda a: T.sum_(T.log(a)), [t64([1.0, 3e-6])])
        assert str(exc.value) == "non-finite values produced by op 'log'"

    def test_non_float64_inputs_rejected_before_fn_runs(self):
        calls = []
        for bad in (1.0, Tensor(np.ones(2, dtype=np.float32))):
            with pytest.raises(TypeError, match="float64 Tensor inputs"):
                finite_diff_gradcheck(lambda x: calls.append(x) or T.sum_(x), [bad])
        assert not calls

    @pytest.mark.parametrize("scale, passes", [(1.0, 1), (1e-4, 9)])
    def test_conditioned_check_tapes_each_draw_once(self, scale, passes, monkeypatch):
        # gradient elements of 1e-4 fail the conditioning test on all eight
        # tries, so the untested ninth draw takes a taped pass of its own
        calls = []
        monkeypatch.setattr(gradcheck, "backward", lambda *a: calls.append(a) or backward(*a))
        w = t64(scale * np.array([1.5, -2.0, 0.7]))
        err = gradcheck._conditioned_check(lambda x: T.sum_(T.mul(x, w)),
                                           [(t64(np.zeros(3)), 0.0, 1.0, -np.inf)],
                                           np.random.default_rng(0))
        assert err < 1e-6 and len(calls) == passes

    def test_draw_refreshes_each_tensor_in_place(self):
        a, b = t64(np.zeros((2, 3))), t64(np.zeros(4))
        arrays = [a.data, b.data]
        out = gradcheck._draw([(a, 0.0, 1.0, 0.0), (b, 1.0, 0.3, -np.inf)], np.random.default_rng(5))
        assert out == [a, b] and all(t.data is arr for t, arr in zip(out, arrays))
        r = np.random.default_rng(5)
        na = r.normal(size=(2, 3))
        assert np.array_equal(a.data, np.maximum(na, 0.0)) and (na < 0).any()
        assert np.array_equal(b.data, 1.0 + 0.3 * r.normal(size=4))

    def test_battery_invokes_every_recorded_op(self, monkeypatch):
        ops = set(re.findall(r'_record\("(\w+)"', inspect.getsource(T)))
        seen = set()
        record = T._record

        def spy(op, *args):
            seen.add(op)
            return record(op, *args)

        monkeypatch.setattr(T, "_record", spy)
        assert gradcheck_battery(0) < 1e-6
        assert {"linear", "attention"} <= ops
        assert ops - seen == set()

    @pytest.mark.parametrize("seed", [1544, 1938])
    def test_battery_keeps_log_operand_positive(self, seed):
        # unfloored, these seeds draw a log operand <= 0
        assert gradcheck_battery(seed) < 1e-6

    def test_battery_weights_stay_clear_of_zero(self):
        # unfloored, this seed draws a weight of 3e-5 that puts a gradient
        # element inside the relative-error floor's blind spot (error 6.6e-6)
        assert gradcheck_battery(1334668087) < 1e-6


class TestHeldEncoders:
    """While one tensor is probed, the oracle reuses an encoder's conv and
    transformer outputs that the tensor cannot change."""

    @staticmethod
    def encoder_and_head():
        cfg = PipelineConfig(d_feat=4, d_model=8, n_heads=2, n_blocks=1, d_ffn=16, causal=True)
        enc = build_encoder(cfg, 0)
        head = Linear(np.random.default_rng(1), 8, 3)
        named = gradcheck._float64_params({"enc": enc, "head": head})
        rng = np.random.default_rng(2)
        named["head.b"].data[...] = rng.normal(size=3)
        feats, lengths = rng.normal(size=(2, 9, 4)), np.array([9, 6])
        w = Tensor(rng.normal(size=(2, 3, 3)))

        def fn(*_):
            hidden, _ = enc(feats, lengths)
            return T.sum_(T.mul(head(hidden), w))

        return enc, named, fn

    @staticmethod
    def assert_released(enc):
        assert "encode_latents" not in vars(enc) and "contextualize" not in vars(enc)

    @pytest.mark.parametrize("name", ["enc.conv.conv1.w", "enc.block0.attn.wq.b", "head.w"])
    def test_same_bits_as_without_reuse(self, name):
        enc, named, fn = self.encoder_and_head()
        t = named[name]
        analytic = gradcheck._analytic_grads(fn, [t])
        plain = gradcheck._check_grads(fn, [t], analytic)
        held = gradcheck._check_grads(fn, [t], analytic, (enc,))
        assert float.hex(held) == float.hex(plain) and held < 1e-6
        self.assert_released(enc)

    def test_released_when_the_check_raises(self):
        enc, named, fn = self.encoder_and_head()
        t = named["head.b"]
        analytic = gradcheck._analytic_grads(fn, [t])
        with pytest.raises(ValueError, match="scalar-valued"):
            gradcheck._check_grads(lambda *a: T.add(fn(*a), Tensor(np.zeros(2))),
                                   [t], analytic, (enc,))
        self.assert_released(enc)

    def test_nan_in_a_held_loop_replays_the_real_encoder(self, monkeypatch):
        enc, named, fn = self.encoder_and_head()
        t = named["head.w"]
        analytic = gradcheck._analytic_grads(fn, [t])
        replayed = []

        def spy(method):
            real = getattr(Encoder, method)

            def run(self, *args):
                if T._replaying:
                    replayed.append(method)
                return real(self, *args)

            return run

        for method in ("encode_latents", "contextualize"):
            monkeypatch.setattr(Encoder, method, spy(method))
        calls = []

        def poisoned(*_):
            calls.append(1)
            if len(calls) == 4:  # the second evaluation of the held loop
                named["head.b"].data[0] = np.nan
            return fn()

        with pytest.raises(FloatingPointError) as exc:
            gradcheck._check_grads(poisoned, [t], analytic, (enc,))
        assert str(exc.value) == "non-finite values produced by op 'linear'"
        assert replayed == ["encode_latents", "contextualize"]
        self.assert_released(enc)

    def test_head_probe_runs_the_conv_block_once_per_loop(self, monkeypatch):
        # a head-only probe of n = 3 elements: the two determinism evaluations
        # and the first held one run both convs, (2 + 2n) x 2 = 16 without reuse
        enc, named, fn = self.encoder_and_head()
        t = named["head.b"]
        analytic = gradcheck._analytic_grads(fn, [t])
        calls, runs = [], []
        conv1d = T.conv1d
        monkeypatch.setattr(T, "conv1d", lambda *a: calls.append(a) or conv1d(*a))
        for encoders in ((enc,), ()):
            calls.clear()
            err = gradcheck._check_grads(fn, [t], analytic, encoders)
            runs.append((len(calls), float.hex(err)))
        assert [n for n, _ in runs] == [6, 16] and runs[0][1] == runs[1][1]


class TestOptim:
    def test_adam_first_step_magnitude(self):
        p = Tensor(np.zeros(1), requires_grad=True, dtype=np.float64)
        opt = Adam({"p": p})
        p.grad = np.ones(1)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [-0.1], atol=1e-8)

    def test_adam_is_scale_invariant_in_the_limit(self):
        # two params with grads of very different scale move by similar amounts
        p1 = Tensor(np.zeros(1), requires_grad=True, dtype=np.float64)
        p2 = Tensor(np.zeros(1), requires_grad=True, dtype=np.float64)
        opt = Adam({"a": p1, "b": p2})
        for _ in range(50):
            p1.grad = np.full(1, 1e-3)
            p2.grad = np.full(1, 1e3)
            opt.step(lr=0.1)
        assert abs(p1.data[0] - p2.data[0]) < 1e-4

    # the second arena spans three update blocks, the last one partial
    @pytest.mark.parametrize("shape", [(3, 4), (2 * BLOCK + 7,)], ids=["one-block", "three-blocks"])
    def test_adam_in_place_update_matches_out_of_place_formula(self, shape):
        rng = np.random.default_rng(19)
        p0 = rng.normal(size=shape).astype(np.float32)
        grads = [rng.normal(size=shape).astype(np.float32) for _ in range(3)]
        p = Tensor(p0, requires_grad=True)
        opt = Adam({"p": p})
        ref, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
        b1, b2, eps = BETA1, BETA2, EPS
        for t, g in enumerate(grads, 1):
            p.grad = g
            opt.step(lr=0.01)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            ref = ref - 0.01 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            np.testing.assert_array_equal(opt.m, m.reshape(-1))
            np.testing.assert_array_equal(opt.v, v.reshape(-1))
            np.testing.assert_array_equal(p.data, ref)

    def test_tensor_without_gradient_keeps_data_and_moments(self):
        rng = np.random.default_rng(5)
        # b straddles the boundary between the first and second update blocks
        a, b, c = (Tensor(rng.normal(size=n).astype(np.float32), requires_grad=True)
                   for n in (BLOCK - 2, 4, 3))
        opt = Adam({"a": a, "b": b, "c": c})
        sb = opt.layout[1][1]
        assert sb.start < BLOCK < sb.stop
        a.grad, b.grad, c.grad = (np.full(t.shape, k, np.float32) for t, k in ((a, 1), (b, -2), (c, 3)))
        opt.step(lr=0.01)
        kept = [x.tobytes() for x in (b.data, opt.m[sb], opt.v[sb])]
        a_before, c_before = a.data.copy(), c.data.copy()
        opt.zero_grad()
        a.grad, c.grad = np.ones(a.shape, np.float32), np.ones(c.shape, np.float32)
        opt.step(lr=0.01)
        assert [x.tobytes() for x in (b.data, opt.m[sb], opt.v[sb])] == kept
        assert not np.any(a.data == a_before) and not np.any(c.data == c_before)

    def test_arena_is_four_rows_and_a_step_allocates_nothing(self):
        def owned_bytes(x, seen):  # every array the optimizer holds, by its base
            if isinstance(x, np.ndarray):
                while x.base is not None:
                    x = x.base
                seen[id(x)] = x.nbytes
            elif isinstance(x, (list, tuple)):
                for y in x:
                    owned_bytes(y, seen)
            return seen

        rng = np.random.default_rng(7)
        params = {f"p{i}": Tensor(rng.normal(size=n).astype(np.float32), requires_grad=True)
                  for i, n in enumerate((BLOCK + 3, 5, 2 * BLOCK))}
        opt = Adam(params)
        n, item = opt.data.size, opt.data.itemsize
        owned = sum(owned_bytes(list(vars(opt).values()), {}).values())
        # data, m, v and grad, plus at most two blocks of scratch
        assert 4 * n * item <= owned <= (4 * n + 2 * BLOCK) * item, (owned, n)
        for p in params.values():
            p.grad = p.grad_slot
            p.grad[...] = 1.0
        tracemalloc.start()
        try:
            opt.step(lr=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < BLOCK * item, peak

    def test_shared_tensor_takes_one_slot(self):
        p = Tensor(np.arange(3.0, dtype=np.float32), requires_grad=True)
        q = Tensor(np.ones(2, np.float32), requires_grad=True)
        opt = Adam({"a": p, "b": q, "a_again": p})
        assert [t for t, _ in opt.layout] == [p, q]
        assert opt.data.size == 5
        np.testing.assert_array_equal(opt.data, [0.0, 1.0, 2.0, 1.0, 1.0])
        assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad_slot, opt.grad)

    def test_gradient_assigned_from_outside_replaces_the_deposit(self):
        p = Tensor(np.ones(3, np.float32), requires_grad=True)
        opt = Adam({"p": p})
        with Tape() as tape:
            backward(T.sum_(T.mul(p, Tensor(np.full(3, 5.0, np.float32)))), tape)
        assert p.grad is p.grad_slot
        p.grad = np.array([1.0, 0.0, -1.0], np.float32)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [0.9, 1.0, 1.1], rtol=1e-6)

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ValueError):
            Adam({"a": Tensor(np.ones(2, np.float32)), "b": Tensor(np.ones(2))})

    def test_clip_global_norm(self):
        p1 = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
        p2 = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
        p1.grad = np.array([3.0, 0.0])
        p2.grad = np.array([0.0, 4.0])
        norm = clip_global_norm({"a": p1, "b": p2}, 5.0)
        assert norm == pytest.approx(5.0)
        norm = clip_global_norm({"a": p1, "b": p2}, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt((p1.grad**2).sum() + (p2.grad**2).sum())
        assert total == pytest.approx(1.0)

    def test_noam_closed_form_point(self):
        assert noam_lr(4, d_model=4, warmup=4, factor=1.0) == pytest.approx(0.25, abs=1e-12)

    def test_tri_stage_boundaries(self):
        peak = 0.002
        assert tri_stage_lr(1, peak, 10, 5, 20) == pytest.approx(peak / 10, abs=1e-15)
        assert tri_stage_lr(10, peak, 10, 5, 20) == pytest.approx(peak, abs=1e-15)
        assert tri_stage_lr(15, peak, 10, 5, 20) == pytest.approx(peak, abs=1e-15)
        assert tri_stage_lr(35, peak, 10, 5, 20) == pytest.approx(0.05 * peak, abs=1e-15)
        assert tri_stage_lr(1000, peak, 10, 5, 20) == pytest.approx(0.05 * peak, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-10, 10))
def test_softmax_shift_invariance(row, shift):
    x = np.array(row, dtype=np.float64)
    p1 = T.softmax(Tensor(x)).data
    p2 = T.softmax(Tensor(x + shift)).data
    np.testing.assert_allclose(p1, p2, rtol=1e-9, atol=1e-12)
    assert p1.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_layer_norm_standardizes(d, rows, seed):
    x = np.random.default_rng(seed).normal(size=(rows, d)) * 3.0 + 1.0
    g = Tensor(np.ones(d, dtype=np.float64))
    b = Tensor(np.zeros(d, dtype=np.float64))
    out = T.layer_norm(Tensor(x), g, b).data
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(rows), atol=1e-8)
    # each row's variance v becomes v / (v + eps), eps = 1e-5
    var = x.var(axis=-1)
    np.testing.assert_allclose(out.var(axis=-1), var / (var + 1e-5), atol=1e-8)

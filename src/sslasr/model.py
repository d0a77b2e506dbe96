"""Transformer encoder over subsampled features, with residual adapters.

Layout: a two-conv subsampling block (total stride 4), sinusoidal positions,
pre-norm transformer blocks, final layer norm. Adapters, when inserted,
sit after the conv block and after every transformer block.

Each Linear is one engine.linear node and each block's attention core,
from the head split to the head merge, one engine.attention node, which
builds its padding and causal mask from the output lengths. A forward
pass without adapters records 4 (convs) + 1 (positions) + 12 per block
+ 1 (final norm) tape nodes.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from . import engine as E
from .engine import Tensor

if TYPE_CHECKING:
    from .training import PipelineConfig


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Module:
    """Tree of named parameter Tensors; children keep insertion order.

    A tensor shared between children (see alias_from) is listed once,
    under the first name that reaches it."""

    def __init__(self):
        self.p: dict[str, Tensor] = {}
        self.children: dict[str, "Module"] = {}

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        out = {prefix + k: t for k, t in self.p.items()}
        for name, child in self.children.items():
            seen = {id(t) for t in out.values()}
            out.update((k, t) for k, t in child.named_params(prefix + name + ".").items()
                       if id(t) not in seen)
        return out

    def load_params(self, flat: dict) -> None:
        """Copy values into existing tensors; names must match exactly."""
        mine = self.named_params()
        if set(mine) != set(flat):
            missing = sorted(set(mine) - set(flat))
            extra = sorted(set(flat) - set(mine))
            raise ValueError(f"checkpoint parameter mismatch: missing={missing[:4]} extra={extra[:4]}")
        for name, t in mine.items():
            arr = np.asarray(flat[name])
            if tuple(arr.shape) != t.shape:
                raise ValueError(f"shape mismatch for '{name}': {arr.shape} vs {t.shape}")
            t.data[...] = arr  # in place: the tensor may be a view into an optimizer's buffer

    def alias_from(self, other: "Module") -> None:
        """Share parameter storage with a structurally identical module."""
        if set(self.p) != set(other.p) or set(self.children) != set(other.children):
            raise ValueError("cannot alias structurally different modules")
        for k in self.p:
            self.p[k] = other.p[k]
        for name in self.children:
            self.children[name].alias_from(other.children[name])


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int):
        super().__init__()
        self.p["w"] = Tensor(xavier_uniform(rng, (d_in, d_out), d_in, d_out), requires_grad=True)
        self.p["b"] = Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return E.linear(x, self.p["w"], self.p["b"])


class LayerNorm(Module):
    def __init__(self, d: int):
        super().__init__()
        self.p["g"] = Tensor(np.ones(d, dtype=np.float32), requires_grad=True)
        self.p["b"] = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return E.layer_norm(x, self.p["g"], self.p["b"])


class Conv1d(Module):
    def __init__(self, rng, kernel: int, c_in: int, c_out: int, stride: int, causal: bool):
        super().__init__()
        self.stride = stride
        self.causal = causal
        self.p["w"] = Tensor(
            xavier_uniform(rng, (kernel, c_in, c_out), kernel * c_in, kernel * c_out),
            requires_grad=True,
        )
        self.p["b"] = Tensor(np.zeros(c_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return E.conv1d(x, self.p["w"], self.p["b"], self.stride, self.causal)


class MultiHeadAttention(Module):
    def __init__(self, rng, d_model: int, n_heads: int, causal: bool):
        super().__init__()
        self.n_heads = n_heads
        self.causal = causal
        self.children["wq"] = Linear(rng, d_model, d_model)
        self.children["wk"] = Linear(rng, d_model, d_model)
        self.children["wv"] = Linear(rng, d_model, d_model)
        self.children["wo"] = Linear(rng, d_model, d_model)

    def __call__(self, x: Tensor, lengths: np.ndarray) -> Tensor:
        c = self.children
        return c["wo"](E.attention(c["wq"](x), c["wk"](x), c["wv"](x), lengths,
                                   self.n_heads, self.causal))


class FeedForward(Module):
    def __init__(self, rng, d_model: int, d_ffn: int):
        super().__init__()
        self.children["lin1"] = Linear(rng, d_model, d_ffn)
        self.children["lin2"] = Linear(rng, d_ffn, d_model)

    def __call__(self, x: Tensor) -> Tensor:
        return self.children["lin2"](E.gelu(self.children["lin1"](x)))


class TransformerBlock(Module):
    """Pre-norm: x + attn(LN(x)), then x + ffn(LN(x))."""

    def __init__(self, rng, d_model: int, n_heads: int, d_ffn: int, causal: bool):
        super().__init__()
        self.children["ln1"] = LayerNorm(d_model)
        self.children["attn"] = MultiHeadAttention(rng, d_model, n_heads, causal)
        self.children["ln2"] = LayerNorm(d_model)
        self.children["ffn"] = FeedForward(rng, d_model, d_ffn)

    def __call__(self, x: Tensor, lengths: np.ndarray) -> Tensor:
        x = E.add(x, self.children["attn"](self.children["ln1"](x), lengths))
        return E.add(x, self.children["ffn"](self.children["ln2"](x)))


class ResidualAdapter(Module):
    """y = x + up(relu(down(LN(x)))); zero up-projection is an exact no-op.

    Parameter count: 2 * d_model * d_adapter + d_adapter + 3 * d_model.
    """

    def __init__(self, rng, d_model: int, d_adapter: int, random_init: bool = False):
        super().__init__()
        self.children["ln"] = LayerNorm(d_model)
        self.children["down"] = Linear(rng, d_model, d_adapter)
        up = Linear(rng, d_adapter, d_model)
        if not random_init:
            up.p["w"].data[...] = 0.0
        self.children["up"] = up

    def __call__(self, x: Tensor) -> Tensor:
        h = E.relu(self.children["down"](self.children["ln"](x)))
        return E.add(x, self.children["up"](h))


class ConvSubsampler(Module):
    """Two kernel-3 stride-2 convs with GELU; total time subsampling of 4."""

    def __init__(self, rng, d_in: int, d_model: int, causal: bool):
        super().__init__()
        self.children["conv1"] = Conv1d(rng, 3, d_in, d_model, 2, causal)
        self.children["conv2"] = Conv1d(rng, 3, d_model, d_model, 2, causal)

    def __call__(self, x: Tensor) -> Tensor:
        return E.gelu(self.children["conv2"](E.gelu(self.children["conv1"](x))))


@functools.lru_cache
def sinusoidal_positions(t: int, d: int, dtype=np.float32) -> np.ndarray:
    """(t, d) sin/cos position table, memoised per (t, d, dtype); read-only."""
    pos = np.arange(t, dtype=np.float64)[:, None]
    i = np.arange(d // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.zeros((t, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    pe = pe.astype(dtype)
    pe.flags.writeable = False
    return pe


class Encoder(Module):
    """Backbone f: features (B, T, d_feat) -> hidden states (B, T', d_model).

    T' = ceil(T / 4); out_length gives each utterance's valid output
    length by the same rule, and those lengths are all the attention
    blocks see of the padding. Built from a PipelineConfig's model settings.
    """

    subsample_factor = 4  # two stride-2 convs

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.children["conv"] = ConvSubsampler(rng, cfg.d_feat, cfg.d_model, cfg.causal)
        for i in range(cfg.n_blocks):
            self.children[f"block{i}"] = TransformerBlock(rng, cfg.d_model, cfg.n_heads, cfg.d_ffn, cfg.causal)
        self.children["final_ln"] = LayerNorm(cfg.d_model)
        self.d_adapter = 0  # adapter width; 0 means no adapters

    # -- adapters ----------------------------------------------------------

    def insert_adapters(self, d_adapter: int, rng: np.random.Generator) -> None:
        """One adapter after the conv block and each transformer block, each an exact passthrough."""
        if self.d_adapter:
            raise RuntimeError("adapters already present")
        if d_adapter < 1:
            raise ValueError(f"adapter width must be positive, got {d_adapter}")
        for i in range(self.cfg.n_blocks + 1):
            self.children[f"adapter{i}"] = ResidualAdapter(rng, self.cfg.d_model, d_adapter)
        self.d_adapter = d_adapter

    def reinit_adapters(self, rng: np.random.Generator) -> None:
        """The one way to randomize adapters: fresh random ones, drawn in insert_adapters' order."""
        if not self.d_adapter:
            raise RuntimeError("no adapters to reinitialize")
        for i in range(self.cfg.n_blocks + 1):
            self.children[f"adapter{i}"] = ResidualAdapter(
                rng, self.cfg.d_model, self.d_adapter, random_init=True
            )

    # -- forward -----------------------------------------------------------

    def out_length(self, n):
        """ceil(n / 4), for an int or elementwise over an array of lengths."""
        return -(-n // self.subsample_factor)

    def encode_latents(self, feats, lengths):
        """Conv block only (no adapter); returns (latents, out_lengths)."""
        x = feats if isinstance(feats, Tensor) else Tensor(np.asarray(feats, dtype=np.float32))
        if x.ndim != 3:
            raise ValueError("encoder expects (batch, time, dim) input")
        z = self.children["conv"](x)
        return z, self.out_length(np.asarray(lengths))

    def contextualize(self, latents: Tensor, out_lengths: np.ndarray) -> Tensor:
        """Conv adapter, positions, transformer blocks (+adapters), final LN."""
        z = latents
        if self.d_adapter:
            z = self.children["adapter0"](z)
        B, T, D = z.shape
        z = E.add(z, Tensor(sinusoidal_positions(T, D, dtype=z.dtype)))
        for i in range(self.cfg.n_blocks):
            z = self.children[f"block{i}"](z, out_lengths)
            if self.d_adapter:
                z = self.children[f"adapter{i + 1}"](z)
        return self.children["final_ln"](z)

    def __call__(self, feats, lengths):
        z, out_lengths = self.encode_latents(feats, lengths)
        return self.contextualize(z, out_lengths), out_lengths


def build_encoder(cfg: PipelineConfig, seed: int) -> Encoder:
    return Encoder(cfg, np.random.default_rng([seed, 0xE0C0DE]))

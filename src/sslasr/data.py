"""Synthetic domain-shifted speech-like corpora.

Utterances are sequences of per-token feature prototypes plus Gaussian
noise. The target domain applies a fixed affine map x -> A x + b in
feature space (A symmetric positive definite with bounded condition
number). proto_seed controls prototypes and the domain transform, so
corpora that share it are drawn from the same underlying task; `seed`
controls utterance sampling.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .io import ManifestEntry, read_feat, read_manifest, write_feat, write_manifest

DOMAINS = ("source", "target")


@dataclass
class CorpusConfig:
    n_utterances: int = 500
    vocab_size: int = 8
    d_feat: int = 8
    proto_len: int = 8          # frames per token prototype
    min_tokens: int = 2
    max_tokens: int = 6
    noise_sigma: float = 0.1
    domain: str = "source"
    seed: int = 0
    proto_seed: int = 7

    def __post_init__(self):
        require_positive(self, ("proto_len", "min_tokens"))
        if self.max_tokens < self.min_tokens:
            raise ValueError(f"setting 'max_tokens' must be >= min_tokens ({self.min_tokens}), "
                             f"got {self.max_tokens}")


def require_positive(cfg, names) -> None:
    """Reject a setting below 1 by name, before it fails deep inside NumPy."""
    for name in names:
        if getattr(cfg, name) < 1:
            raise ValueError(f"setting '{name}' must be >= 1, got {getattr(cfg, name)}")


@dataclass
class Utterance:
    utt_id: str
    feats: np.ndarray  # (T, d_feat) float32
    tokens: list
    domain: str


def token_prototypes(proto_seed: int, vocab_size: int, proto_len: int, d_feat: int) -> np.ndarray:
    rng = np.random.default_rng([proto_seed, 0x9901])
    return rng.normal(size=(vocab_size, proto_len, d_feat)).astype(np.float64)


def domain_transform(proto_seed: int, d_feat: int):
    """Symmetric PD map A = Q diag(u) Q^T with u in [0.8, 1.4], plus offset b.

    Eigenvalue bounds keep cond(A) <= 1.75, well under the required 10.
    The offset scale makes domains framewise linearly separable (>90%)
    while class clouds still overlap enough that adaptation is nontrivial.
    """
    rng = np.random.default_rng([proto_seed, 0x9902])
    q, _ = np.linalg.qr(rng.normal(size=(d_feat, d_feat)))
    eig = rng.uniform(0.8, 1.4, size=d_feat)
    a = q @ np.diag(eig) @ q.T
    b = 1.25 * rng.normal(size=d_feat)
    return a, b


def make_utterance(cfg: CorpusConfig, prototypes: np.ndarray, a: np.ndarray,
                   b: np.ndarray, index: int) -> Utterance:
    rng = np.random.default_rng([cfg.seed, index])
    n_tok = int(rng.integers(cfg.min_tokens, cfg.max_tokens + 1))
    tokens = rng.integers(0, cfg.vocab_size, size=n_tok).tolist()
    feats = np.concatenate([prototypes[t] for t in tokens], axis=0)
    feats = feats + cfg.noise_sigma * rng.normal(size=feats.shape)
    if cfg.domain == "target":
        feats = feats @ a.T + b
    return Utterance(f"{cfg.domain}_{index:05d}", feats.astype(np.float32), tokens, cfg.domain)


def make_corpus(cfg: CorpusConfig) -> list:
    if cfg.domain not in DOMAINS:
        raise ValueError(f"unknown domain '{cfg.domain}'")
    protos = token_prototypes(cfg.proto_seed, cfg.vocab_size, cfg.proto_len, cfg.d_feat)
    a, b = domain_transform(cfg.proto_seed, cfg.d_feat)
    return [make_utterance(cfg, protos, a, b, i) for i in range(cfg.n_utterances)]


# ---------------------------------------------------------------------------
# waveform emit mode
# ---------------------------------------------------------------------------

WAVE_PROTO_LEN = 800  # samples per token at 16 kHz
WAVE_GAIN_RANGE = (0.5, 0.9)
WAVE_DC_OFFSET = 0.05


def waveform_prototypes(proto_seed: int, vocab_size: int) -> np.ndarray:
    rng = np.random.default_rng([proto_seed, 0x9903])
    protos = rng.normal(size=(vocab_size, WAVE_PROTO_LEN))
    return 0.25 * protos / np.abs(protos).max(axis=1, keepdims=True)


def waveform_domain_gain(proto_seed: int) -> float:
    rng = np.random.default_rng([proto_seed, 0x9904])
    return float(rng.uniform(*WAVE_GAIN_RANGE))


def make_waveform(cfg: CorpusConfig, protos: np.ndarray, index: int):
    rng = np.random.default_rng([cfg.seed, index])
    n_tok = int(rng.integers(cfg.min_tokens, cfg.max_tokens + 1))
    tokens = rng.integers(0, cfg.vocab_size, size=n_tok).tolist()
    wav = np.concatenate([protos[t] for t in tokens])
    wav = wav + cfg.noise_sigma * 0.05 * rng.normal(size=wav.shape)
    if cfg.domain == "target":
        wav = waveform_domain_gain(cfg.proto_seed) * wav + WAVE_DC_OFFSET
    return np.clip(wav, -1.0, 1.0), tokens


def write_wav(path, samples: np.ndarray, sample_rate: int = 16000) -> None:
    pcm = np.clip(np.asarray(samples) * 32767.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def read_wav(path):
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError("expected mono 16-bit PCM")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0, rate


# ---------------------------------------------------------------------------
# disk round trip
# ---------------------------------------------------------------------------


def write_corpus(out_dir, cfg: CorpusConfig, emit: str = "features") -> str:
    """Write utterance files plus a manifest.tsv; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    if emit == "features":
        (out / "feats").mkdir(exist_ok=True)
        for utt in make_corpus(cfg):
            rel = f"feats/{utt.utt_id}.feat"
            write_feat(out / rel, utt.feats, shift_ms=0.0, window_ms=0.0)
            entries.append(ManifestEntry(utt.utt_id, rel, " ".join(map(str, utt.tokens)), cfg.domain))
    elif emit == "waveform":
        (out / "wavs").mkdir(exist_ok=True)
        protos = waveform_prototypes(cfg.proto_seed, cfg.vocab_size)
        for i in range(cfg.n_utterances):
            wav, tokens = make_waveform(cfg, protos, i)
            utt_id = f"{cfg.domain}_{i:05d}"
            rel = f"wavs/{utt_id}.wav"
            write_wav(out / rel, wav)
            entries.append(ManifestEntry(utt_id, rel, " ".join(map(str, tokens)), cfg.domain))
    else:
        raise ValueError(f"unknown emit mode '{emit}'")
    manifest = out / "manifest.tsv"
    write_manifest(manifest, entries)
    return str(manifest)


def load_corpus(manifest_path) -> list:
    """Load a feature manifest back into Utterances.

    Audio is featurized on one path, `sslasr featurize`, so a .wav entry
    is rejected rather than featurized here with settings of its own."""
    root = Path(manifest_path).parent
    utts = []
    for e in read_manifest(manifest_path):
        path = root / e.path
        if path.suffix == ".wav":
            raise ValueError(f"{manifest_path}: entry '{e.utt_id}' is audio ('{e.path}'); "
                             f"run `sslasr featurize` on this manifest first")
        if path.suffix != ".feat":
            raise ValueError(f"unknown utterance file type '{path.suffix}'")
        feats, _, _ = read_feat(path)
        tokens = [int(t) for t in e.transcript.split()] if e.transcript.strip() else []
        utts.append(Utterance(e.utt_id, feats, tokens, e.domain))
    return utts


class Batch(NamedTuple):
    """Features (B, T, D) zero-padded past each utterance's length, with
    token lists and utterance ids in batch order."""

    feats: np.ndarray
    lengths: np.ndarray
    tokens: tuple = ()
    utt_ids: tuple = ()


def pad_batch(utts) -> Batch:
    """Zero-pad a list of Utterances to the longest one."""
    lengths = np.array([u.feats.shape[0] for u in utts])
    tmax = int(lengths.max())
    d = utts[0].feats.shape[1]
    feats = np.zeros((len(utts), tmax, d), dtype=np.float32)
    for i, u in enumerate(utts):
        feats[i, : u.feats.shape[0]] = u.feats
    return Batch(feats, lengths, [u.tokens for u in utts], [u.utt_id for u in utts])


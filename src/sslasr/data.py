"""Synthetic domain-shifted speech-like corpora.

Utterances are sequences of per-token feature prototypes plus Gaussian
noise. The target domain applies a fixed affine map x -> A x + b in
feature space (A symmetric positive definite with bounded condition
number). The task comes from a PipelineConfig: its proto_seed controls
prototypes and the domain transform, so corpora that share it are drawn
from the same underlying task. A `seed` argument controls sampling.
"""

from __future__ import annotations

import contextlib
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .io import ManifestEntry, names_the_file, read_feat, read_manifest, write_feat, write_manifest

if TYPE_CHECKING:
    from .training import PipelineConfig

DOMAINS = ("source", "target")
EMITS = ("features", "waveform")


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


def make_utterance(cfg: PipelineConfig, domain: str, seed: int, prototypes: np.ndarray,
                   a: np.ndarray, b: np.ndarray, index: int) -> Utterance:
    rng = np.random.default_rng([seed, index])
    n_tok = int(rng.integers(cfg.min_tokens, cfg.max_tokens + 1))
    tokens = rng.integers(0, cfg.vocab_size, size=n_tok).tolist()
    feats = np.concatenate([prototypes[t] for t in tokens], axis=0)
    feats = feats + cfg.noise_sigma * rng.normal(size=feats.shape)
    if domain == "target":
        feats = feats @ a.T + b
    return Utterance(f"{domain}_{index:05d}", feats.astype(np.float32), tokens, domain)


def make_corpus(cfg: PipelineConfig, domain: str, n: int, seed: int) -> list:
    """`n` utterances of `domain` on cfg's task, sampled with `seed`."""
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain '{domain}'")
    protos = token_prototypes(cfg.proto_seed, cfg.vocab_size, cfg.proto_len, cfg.d_feat)
    a, b = domain_transform(cfg.proto_seed, cfg.d_feat)
    return [make_utterance(cfg, domain, seed, protos, a, b, i) for i in range(n)]


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


def make_waveform(cfg: PipelineConfig, domain: str, seed: int, protos: np.ndarray, index: int):
    rng = np.random.default_rng([seed, index])
    n_tok = int(rng.integers(cfg.min_tokens, cfg.max_tokens + 1))
    tokens = rng.integers(0, cfg.vocab_size, size=n_tok).tolist()
    wav = np.concatenate([protos[t] for t in tokens])
    wav = wav + cfg.noise_sigma * 0.05 * rng.normal(size=wav.shape)
    if domain == "target":
        wav = waveform_domain_gain(cfg.proto_seed) * wav + WAVE_DC_OFFSET
    return np.clip(wav, -1.0, 1.0), tokens


def write_wav(path, samples: np.ndarray, sample_rate: int = 16000) -> None:
    pcm = np.clip(np.asarray(samples) * 32767.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


@names_the_file
def read_wav(path):
    """Samples in [-1, 1] and rate of a mono 16-bit PCM WAV; else a ValueError naming the file."""
    with contextlib.suppress(wave.Error, EOFError):  # a header cut short raises a bare EOFError
        with wave.open(str(path), "rb") as fh:
            if (fh.getnchannels(), fh.getsampwidth()) == (1, 2):
                raw = fh.readframes(fh.getnframes())
                return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0, fh.getframerate()
    raise ValueError("not a mono 16-bit PCM WAV file")


# ---------------------------------------------------------------------------
# disk round trip
# ---------------------------------------------------------------------------


def write_corpus(out_dir, cfg: PipelineConfig, domain: str, n: int, seed: int, emit: str) -> str:
    """Write `n` utterances of `domain`, sampled with `seed`, as feature
    files (emit 'features') or 16 kHz WAVs ('waveform'), plus a
    manifest.tsv; returns the manifest path."""
    if emit not in EMITS:
        raise ValueError(f"unknown emit mode '{emit}'")
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain '{domain}'")
    out = Path(out_dir)
    entries = []
    if emit == "features":
        utts = make_corpus(cfg, domain, n, seed)
        (out / "feats").mkdir(parents=True, exist_ok=True)
        for utt in utts:
            rel = f"feats/{utt.utt_id}.feat"
            write_feat(out / rel, utt.feats, shift_ms=0.0, window_ms=0.0)
            entries.append(ManifestEntry(utt.utt_id, rel, " ".join(map(str, utt.tokens)), domain))
    else:
        (out / "wavs").mkdir(parents=True, exist_ok=True)
        protos = waveform_prototypes(cfg.proto_seed, cfg.vocab_size)
        for i in range(n):
            wav, tokens = make_waveform(cfg, domain, seed, protos, i)
            utt_id = f"{domain}_{i:05d}"
            rel = f"wavs/{utt_id}.wav"
            write_wav(out / rel, wav)
            entries.append(ManifestEntry(utt_id, rel, " ".join(map(str, tokens)), domain))
    manifest = out / "manifest.tsv"
    write_manifest(manifest, entries)
    return str(manifest)


def load_corpus(manifest_path, cfg: PipelineConfig) -> list:
    """The Utterances of a feature manifest, checked for cfg's model in one
    pass, entry by entry: file type, read, width against cfg.d_feat, then
    tokens in [0, cfg.vocab_size). The first fault is a ValueError naming the
    manifest and the utterance; an empty manifest is one too. Audio is
    featurized on one path, `sslasr featurize`, so a .wav entry is rejected."""
    root = Path(manifest_path).parent
    utts = []
    for e in read_manifest(manifest_path):
        utt = f"{manifest_path}: utterance '{e.utt_id}'"
        path = root / e.path
        if path.suffix == ".wav":
            raise ValueError(f"{manifest_path}: entry '{e.utt_id}' is audio ('{e.path}'); "
                             f"run `sslasr featurize` on this manifest first")
        if path.suffix != ".feat":
            raise ValueError(f"{utt} has unknown file type '{path.suffix}' ('{e.path}')")
        try:
            feats, _, _ = read_feat(path)
        except ValueError as exc:
            raise ValueError(f"{utt}: {exc}") from None
        if feats.shape[1] != cfg.d_feat:
            raise ValueError(f"{utt} has feature dim {feats.shape[1]} but config d_feat={cfg.d_feat}")
        try:
            tokens = [int(t) for t in e.transcript.split()]
        except ValueError as exc:
            raise ValueError(f"{utt}: {exc}") from None
        for t in tokens:
            if not 0 <= t < cfg.vocab_size:
                raise ValueError(f"{utt} has token {t} outside the vocabulary [0, {cfg.vocab_size})")
        utts.append(Utterance(e.utt_id, feats, tokens, e.domain))
    if not utts:
        raise ValueError(f"{manifest_path}: no utterances")
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


"""Log-mel filterbank features and SpecAugment-style masking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import Settings, setting

# energies below this are clamped before the log, so silence stays finite
LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FeaturizerConfig(Settings):
    sample_rate: int = setting(16000, lo=1)
    window_ms: float = setting(25.0, above=0)
    shift_ms: float = setting(10.0, above=0)
    n_mels: int = setting(40, lo=1)


def hamming_window(length: int) -> np.ndarray:
    """Symmetric Hamming: 0.54 - 0.46 cos(2 pi n / (L-1)); w[0] = 0.08."""
    if length < 2:
        raise ValueError("window length must be >= 2")
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def mel_filterbank(n_mels: int, nfft: int, sample_rate: int):
    """Triangular mel filters over rfft bins from 0 Hz to Nyquist, each
    rescaled to peak at 1.

    Returns (filters, centers_hz) with filters of shape (n_mels, nfft//2+1).
    """
    mels = np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz = mel_to_hz(mels)
    bin_freqs = np.arange(nfft // 2 + 1) * sample_rate / nfft
    filters = np.zeros((n_mels, bin_freqs.size))
    for i in range(n_mels):
        lo, center, hi = hz[i], hz[i + 1], hz[i + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        peak = tri.max()
        if peak <= 0.0:
            raise ValueError(f"mel filter {i} covers no FFT bin; lower n_mels or raise nfft")
        filters[i] = tri / peak
    return filters, hz[1:-1].copy()


def frame_signal(x: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Slice x into floor((N - win)/hop) + 1 frames of length win."""
    n = x.shape[0]
    if n < win:
        raise ValueError("signal shorter than one window")
    n_frames = (n - win) // hop + 1
    idx = hop * np.arange(n_frames)[:, None] + np.arange(win)[None, :]
    return x[idx]


class Featurizer:
    """Waveform -> log of mel filterbank energies, float32 (frames, n_mels)."""

    def __init__(self, config: FeaturizerConfig | None = None):
        self.config = config or FeaturizerConfig()
        c = self.config
        self.win = int(round(c.sample_rate * c.window_ms / 1000.0))
        self.hop = int(round(c.sample_rate * c.shift_ms / 1000.0))
        if self.hop < 1 or self.win < 2:
            raise ValueError("window/shift too small for the sample rate")
        self.nfft = next_pow2(self.win)
        self.window = hamming_window(self.win)
        self.filters, self.centers_hz = mel_filterbank(c.n_mels, self.nfft, c.sample_rate)

    def __call__(self, waveform: np.ndarray) -> np.ndarray:
        x = np.asarray(waveform, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("featurizer expects a mono 1-D waveform")
        frames = frame_signal(x, self.win, self.hop) * self.window
        spectrum = np.fft.rfft(frames, n=self.nfft, axis=-1)
        power = (spectrum.real**2 + spectrum.imag**2)
        energies = power @ self.filters.T
        logmel = np.log(np.maximum(energies, LOG_FLOOR))
        return logmel.astype(np.float32)

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.win:
            raise ValueError("signal shorter than one window")
        return (n_samples - self.win) // self.hop + 1


def spec_augment(feats: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero two time stripes of up to 10 frames, then two frequency stripes
    of up to 8 bins, of (T, D) feats; returns a masked copy. Each width is
    drawn uniformly from [0, max] and clipped to the feature size."""
    out = np.array(feats, copy=True)
    for view, max_width in ((out, 10), (out, 10), (out.T, 8), (out.T, 8)):
        w = min(int(rng.integers(0, max_width + 1)), len(view))
        if w:
            start = int(rng.integers(0, len(view) - w + 1))
            view[start : start + w] = 0.0
    return out

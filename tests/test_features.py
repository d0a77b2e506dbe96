"""Log-mel featurizer: frozen oracles, an independent DFT reference, and
masking properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslasr.features import (
    LOG_FLOOR,
    Featurizer,
    FeaturizerConfig,
    frame_signal,
    hamming_window,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    next_pow2,
    spec_augment,
)


class TestWindowing:
    def test_hamming_endpoints_and_symmetry(self):
        w = hamming_window(400)
        assert w[0] == pytest.approx(0.08, abs=1e-15)
        assert w[-1] == pytest.approx(0.08, abs=1e-15)
        assert np.allclose(w, w[::-1], atol=0)
        assert w.max() <= 1.0

    def test_hamming_energy_closed_form(self):
        # sum of w^2 for the symmetric window has a closed form because
        # cos and cos^2 sum exactly over N points spanning N-1 periods:
        # sum cos = 1, sum cos^2 = (N+1)/2.
        n = 400
        a, b = 0.54, 0.46
        expected = a * a * n - 2 * a * b + b * b * (n + 1) / 2
        assert np.sum(hamming_window(n) ** 2) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(158.569, abs=5e-4)

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            hamming_window(1)

    def test_frame_count_formula(self):
        for n, win, hop in [(16000, 400, 160), (400, 400, 160), (1000, 256, 128)]:
            frames = frame_signal(np.zeros(n), win, hop)
            assert frames.shape == ((n - win) // hop + 1, win)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter than one window"):
            frame_signal(np.zeros(399), 400, 160)


class TestMelScale:
    def test_htk_reference_point(self):
        # 700 Hz sits exactly one doubling up the HTK curve
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), rel=1e-15)
        assert hz_to_mel(0.0) == 0.0

    def test_roundtrip(self):
        f = np.linspace(0.0, 8000.0, 37)
        assert np.allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12, atol=1e-9)

    def test_next_pow2(self):
        assert [next_pow2(k) for k in (1, 2, 3, 400, 512, 513)] == [1, 2, 4, 512, 512, 1024]

    def test_filters_peak_at_one(self):
        filters, centers = mel_filterbank(40, 512, 16000)
        assert filters.shape == (40, 257)
        assert np.all(filters >= 0.0)
        assert np.allclose(filters.max(axis=1), 1.0, atol=0)
        assert centers.shape == (40,)
        assert np.all(np.diff(centers) > 0)

    def test_empty_filter_rejected(self):
        with pytest.raises(ValueError, match="covers no FFT bin"):
            mel_filterbank(100, 64, 16000)


class TestFeaturizer:
    def test_one_second_gives_98_frames(self):
        fz = Featurizer(FeaturizerConfig())
        assert fz.n_frames(16000) == 98
        feats = fz(np.random.default_rng(0).normal(size=16000))
        assert feats.shape == (98, 40)
        assert feats.dtype == np.float32

    def test_tone_maximizes_its_own_mel_bin(self):
        fz = Featurizer(FeaturizerConfig())
        t = np.arange(8000) / 16000.0
        for m in (5, 12, 20, 33):
            tone = np.cos(2 * np.pi * fz.centers_hz[m] * t)
            feats = fz(tone)
            assert int(np.argmax(feats.mean(axis=0))) == m

    def test_matches_naive_dft_reference(self):
        # independent oracle: explicit O(N^2) DFT and the same mel algebra
        cfg = FeaturizerConfig(n_mels=12)
        fz = Featurizer(cfg)
        rng = np.random.default_rng(3)
        x = rng.normal(size=fz.win + 2 * fz.hop)  # 3 frames

        frames = frame_signal(x, fz.win, fz.hop) * hamming_window(fz.win)
        padded = np.zeros((frames.shape[0], fz.nfft))
        padded[:, : fz.win] = frames
        k = np.arange(fz.nfft // 2 + 1)
        n = np.arange(fz.nfft)
        basis = np.exp(-2j * np.pi * np.outer(k, n) / fz.nfft)
        spectrum = padded @ basis.T
        power = np.abs(spectrum) ** 2
        expected = np.log(np.maximum(power @ fz.filters.T, LOG_FLOOR))

        got = fz(x)
        assert got.shape == expected.shape
        assert np.allclose(got, expected.astype(np.float32), rtol=1e-5, atol=1e-5)

    def test_silence_hits_log_floor(self):
        fz = Featurizer(FeaturizerConfig())
        feats = fz(np.zeros(16000))
        assert np.allclose(feats, np.float32(np.log(1e-10)), atol=0)

    def test_rejects_stereo(self):
        fz = Featurizer(FeaturizerConfig())
        with pytest.raises(ValueError, match="mono"):
            fz(np.zeros((100, 2)))

    def test_custom_rates(self):
        fz = Featurizer(FeaturizerConfig(sample_rate=8000, window_ms=20.0, shift_ms=10.0))
        assert fz.win == 160 and fz.hop == 80 and fz.nfft == 256
        assert fz.n_frames(8000) == 99


class TestSpecAugment:
    def test_masks_and_leaves_original_alone(self):
        rng = np.random.default_rng(0)
        feats = np.ones((50, 20), dtype=np.float32)
        before = feats.copy()
        out = spec_augment(feats, rng)
        assert np.array_equal(feats, before)
        assert out.shape == feats.shape
        masked = out == 0.0
        assert masked.any()
        # stripes only: every masked cell lies in a fully masked row or column
        rows = masked.all(axis=1)
        cols = masked.all(axis=0)
        assert np.array_equal(masked, rows[:, None] | cols[None, :])
        assert rows.sum() <= 2 * 10 and cols.sum() <= 2 * 8

    def test_deterministic_under_seed(self):
        feats = np.ones((40, 16), dtype=np.float32)
        a = spec_augment(feats, np.random.default_rng(7))
        b = spec_augment(feats, np.random.default_rng(7))
        assert np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(420, 4000), hop_ms=st.sampled_from([5.0, 10.0, 12.5]))
def test_frame_count_matches_formula(n, hop_ms):
    fz = Featurizer(FeaturizerConfig(shift_ms=hop_ms))
    feats = fz(np.zeros(n))
    assert feats.shape[0] == (n - fz.win) // fz.hop + 1 == fz.n_frames(n)

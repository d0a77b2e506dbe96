"""Log-mel features from raw audio: framing, mel filters, SpecAugment.

A 25 ms Hamming window slides in 10 ms steps over the waveform; each frame
is mapped through an FFT-bin-normalized mel filterbank and a floor-clipped
log. The same class also reports how many frames any sample count yields.
"""

import numpy as np

from sslasr.features import Featurizer, FeaturizerConfig, spec_augment

fz = Featurizer(FeaturizerConfig())  # 16 kHz, 25 ms / 10 ms, 40 mel bins

print("== frame geometry ==")
for ms in (100, 500, 1000):
    n = int(16000 * ms / 1000)
    print(f"{ms:5d} ms of audio -> {fz.n_frames(n):3d} frames")

print()
print("== pure tones land in their own mel bin ==")
t = np.arange(8000) / 16000.0
for m in (5, 20, 33):
    tone = np.cos(2 * np.pi * fz.centers_hz[m] * t)
    feats = fz(tone)
    hit = int(np.argmax(feats.mean(axis=0)))
    print(f"tone at {fz.centers_hz[m]:7.1f} Hz (center of bin {m:2d}) "
          f"-> loudest bin {hit:2d}")

print()
print("== silence sits exactly on the log floor ==")
quiet = fz(np.zeros(16000))
print(f"all values equal ln(1e-10) = {np.log(1e-10):.4f}: "
      f"{bool((quiet == np.float32(np.log(1e-10))).all())}")

print()
print("== SpecAugment stripes ==")
rng = np.random.default_rng(7)
feats = fz(np.random.default_rng(0).normal(size=16000))
masked = spec_augment(feats, rng)  # two time stripes of <= 10 frames, two mel stripes of <= 8 bins
wiped_rows = int((masked == 0).all(axis=1).sum())
wiped_cols = int((masked == 0).all(axis=0).sum())
print(f"input {feats.shape} -> {wiped_rows} fully zeroed frames, "
      f"{wiped_cols} fully zeroed mel bins")
print(f"original untouched (masking copies): {bool((feats != 0).any())}")

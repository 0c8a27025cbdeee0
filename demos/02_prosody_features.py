"""
Frame energy, pitch tracking and mel band features
==================================================

Runs the acoustic front end over a synthetic two-tone signal: framing,
spectral energy, autocorrelation pitch with voicing decisions, and the
mel filterbank summary used as model input.
"""

import numpy as np

from msfser import (
    AudioBuffer,
    FrameConfig,
    acoustic_frames,
    estimate_f0,
    frame_signal,
    stft_energy,
)

SR = 16000

# One second of audio: 300 ms of silence, then a 150 Hz tone that steps
# up to 250 Hz halfway through.
t1 = np.arange(int(0.35 * SR)) / SR
t2 = np.arange(int(0.35 * SR)) / SR
signal = np.concatenate([
    np.zeros(int(0.30 * SR)),
    0.3 * np.sin(2 * np.pi * 150.0 * t1),
    0.3 * np.sin(2 * np.pi * 250.0 * t2),
])
audio = AudioBuffer(samples=signal, sample_rate=SR)

# 20 ms windows every 5 ms.  Frame i is centred at (i*hop + win/2) / sr.
cfg = FrameConfig(win_ms=20.0, hop_ms=5.0)
frames, times = frame_signal(audio, cfg)
print(f"{frames.shape[0]} frames of {frames.shape[1]} samples")

# Spectral energy is the L2 norm of the one-sided spectrum after the
# hann taper; silence frames sit at exactly zero.
energies = np.array([stft_energy(f) for f in frames])
print(f"energy: silent start {energies[0]:.3f}, "
      f"loudest {energies.max():.3f}")

# The pitch tracker reports voicing plus log-F0 on the voiced frames.
track = estimate_f0(audio, cfg, f0_min=70.0, f0_max=450.0)
for target, lo, hi in [(150.0, 0.35, 0.60), (250.0, 0.70, 0.95)]:
    sel = (track.frame_times > lo) & (track.frame_times < hi) & track.voiced
    got = float(np.exp(track.log_f0[sel]).mean())
    print(f"mean F0 in [{lo:.2f}, {hi:.2f}] s: {got:6.1f} Hz "
          f"(tone at {target:.0f} Hz)")
print(f"voiced fraction: {track.voiced.mean():.2f}")

# The model consumes one row per frame:
#   [log(1+energy), log_f0 (0 when unvoiced), voiced flag, mel bands...]
feats = acoustic_frames(audio, cfg, n_bands=8, f0_min=70.0, f0_max=450.0)
print(f"\nacoustic feature matrix: {feats.shape}")
mid = feats.shape[0] // 2
labels = ["log1p_energy", "log_f0", "voiced"] + [f"mel_{b}" for b in range(8)]
print("one voiced frame:")
for name, value in zip(labels, feats[mid]):
    print(f"  {name:>12} = {value:8.4f}")

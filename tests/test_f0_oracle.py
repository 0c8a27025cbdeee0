"""The batched pitch tracker against a frame-by-frame scalar oracle.

``scalar_estimate_f0`` is the original tracker: one normalized
cross-correlation (three FFTs) and one peak search per frame in a Python
loop.  ``estimate_f0`` groups frames by lag range and runs them through a
vectorised kernel in blocks; its output must be bitwise equal to the
oracle's, tail frames with a short lag range included.
``oracle_acoustic_frames`` likewise frames the signal and takes the FFT a
second time for the mel bands, where the production path reuses one
spectrum.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from msfser.dsp import (
    SILENCE_RMS_FLOOR,
    AudioBuffer,
    FrameConfig,
    ProsodyTrack,
    acoustic_frames,
    estimate_f0,
    frame_signal,
    mel_filterbank,
    read_wav,
)
from msfser.synth import SynthConfig, generate_dataset

PEAK_EQUIV = 0.97


def _taper(n, kind):
    if kind == "rectangular":
        return np.ones(n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _frame_energies(frames, window):
    tapered = frames * _taper(frames.shape[1], window)[None, :]
    spec = np.fft.rfft(tapered, axis=1)
    return np.sqrt(np.sum(np.abs(spec) ** 2, axis=1))


def _nccf(x, start, span, max_lag):
    """Normalized cross-correlation of x[start:start+span] against itself
    shifted by lags 0..max_lag."""
    seg = x[start:start + span + max_lag]
    a = x[start:start + span]
    n = next_fast_len(len(seg) + span, real=True)
    fa = np.fft.rfft(a, n)
    fs = np.fft.rfft(seg, n)
    corr = np.fft.irfft(np.conj(fa) * fs, n)[:max_lag + 1]
    sq = np.concatenate(([0.0], np.cumsum(seg * seg)))
    e0 = sq[span]
    e_tau = sq[span:span + max_lag + 1] - sq[:max_lag + 1]
    denom = np.sqrt(e0 * e_tau)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0, corr / np.maximum(denom, 1e-300), 0.0)
    return out


def _refine_peak(r, lag):
    """Parabolic interpolation around an integer-lag correlation peak."""
    if lag <= 0 or lag >= len(r) - 1:
        return float(lag), float(r[lag])
    rm, r0, rp = r[lag - 1], r[lag], r[lag + 1]
    denom = rm - 2.0 * r0 + rp
    if denom >= 0 or abs(denom) < 1e-30:
        return float(lag), float(r0)
    delta = 0.5 * (rm - rp) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    value = r0 - 0.25 * (rm - rp) * delta
    return lag + delta, float(value)


def scalar_estimate_f0(audio, cfg, f0_min=40.0, f0_max=500.0,
                       voicing_threshold=0.3):
    frames, times = frame_signal(audio, cfg)
    energy = _frame_energies(frames, cfg.window)
    x = audio.samples
    sr = audio.sample_rate
    w = cfg.win_samples(sr)
    h = cfg.hop_samples(sr)
    lag_min = max(2, int(math.floor(sr / f0_max)))
    lag_max = int(math.ceil(sr / f0_min))
    n = len(frames)
    voiced = np.zeros(n, dtype=bool)
    log_f0 = np.zeros(n)
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    for i in range(n):
        if rms[i] <= SILENCE_RMS_FLOOR:
            continue
        start = i * h
        max_lag = min(lag_max, len(x) - start - w)
        if max_lag <= lag_min + 1:
            continue
        seg = x[start:start + w + max_lag]
        seg = seg - seg.mean()
        r = _nccf(seg, 0, w, max_lag)
        window = r[lag_min:max_lag + 1]
        interior = window[1:-1]
        is_peak = (interior > window[:-2]) & (interior >= window[2:])
        peak_lags = np.nonzero(is_peak)[0] + lag_min + 1
        if len(peak_lags) == 0:
            continue
        best = float(np.max(r[peak_lags]))
        if best < voicing_threshold:
            continue
        lag = int(peak_lags[r[peak_lags] >= PEAK_EQUIV * best][0])
        ref_lag, ref_val = _refine_peak(r, lag)
        if ref_val < voicing_threshold or ref_lag <= 0:
            continue
        f0 = sr / ref_lag
        if not (f0_min * 0.9 <= f0 <= f0_max * 1.1):
            continue
        voiced[i] = True
        log_f0[i] = math.log(f0)
    return ProsodyTrack(frame_times=times, log_f0=log_f0, voiced=voiced,
                        energy=energy)


def oracle_acoustic_frames(audio, cfg, n_bands, f0_min, f0_max, track=None):
    """Feature matrix with a second framing and FFT for the mel bands."""
    if track is None:
        track = scalar_estimate_f0(audio, cfg, f0_min=f0_min, f0_max=f0_max)
    frames, _ = frame_signal(audio, cfg)
    tapered = frames * _taper(frames.shape[1], cfg.window)[None, :]
    mag = np.abs(np.fft.rfft(tapered, axis=1))
    fb = mel_filterbank(n_bands, mag.shape[1], audio.sample_rate)
    feats = np.zeros((len(frames), 3 + n_bands))
    feats[:, 0] = np.log1p(track.energy)
    feats[:, 1] = np.where(track.voiced, track.log_f0, 0.0)
    feats[:, 2] = track.voiced.astype(np.float64)
    feats[:, 3:] = np.log1p(mag @ fb.T)
    return feats


def assert_tracks_bitwise_equal(got, want):
    assert got.voiced.tobytes() == want.voiced.tobytes()
    assert got.log_f0.tobytes() == want.log_f0.tobytes()
    assert got.energy.tobytes() == want.energy.tobytes()
    assert got.frame_times.tobytes() == want.frame_times.tobytes()


def lag_ranges(n_samples, sr, cfg, f0_min, f0_max):
    """(max_lag per frame, lag_min, lag_max) as the tracker sees them."""
    w, h = cfg.win_samples(sr), cfg.hop_samples(sr)
    lag_min = max(2, int(math.floor(sr / f0_max)))
    lag_max = int(math.ceil(sr / f0_min))
    starts = h * np.arange((n_samples - w) // h + 1)
    return np.minimum(lag_max, n_samples - starts - w), lag_min, lag_max


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("f0_oracle") / "data"
    generate_dataset(root, SynthConfig(n_utts=12, seed=17))
    return [read_wav(p) for p in sorted((root / "wavs").glob("*.wav"))]


class TestAgainstScalarOracle:
    def test_generated_corpus_bitwise(self, corpus):
        assert len(corpus) == 12
        for audio in corpus:
            for f0_min, f0_max in ((40.0, 500.0), (70.0, 450.0)):
                got = estimate_f0(audio, FrameConfig(), f0_min, f0_max)
                want = scalar_estimate_f0(audio, FrameConfig(), f0_min, f0_max)
                assert_tracks_bitwise_equal(got, want)
                assert got.voiced.any()

    def test_generated_corpus_acoustic_frames_bitwise(self, corpus):
        for audio in corpus[:6]:
            got = acoustic_frames(audio, FrameConfig(), n_bands=8,
                                  f0_min=70.0, f0_max=450.0)
            want = oracle_acoustic_frames(audio, FrameConfig(), 8, 70.0, 450.0)
            assert got.tobytes() == want.tobytes()

    def test_short_lag_range_tail_frames(self):
        # w=320, h=80, lag range 35..229: the last frame has 20 samples of
        # lag room (too few to search), the two before it 100 and 180, and
        # a 200 Hz period (80 samples) fits in both
        sr = 16000
        cfg = FrameConfig()
        n = 320 + 80 * 50 + 20
        t = np.arange(n) / sr
        audio = AudioBuffer(0.3 * np.sin(2 * np.pi * 200.0 * t)
                            + 0.1 * np.sin(4 * np.pi * 200.0 * t), sr)
        max_lags, lag_min, lag_max = lag_ranges(n, sr, cfg, 70.0, 450.0)
        assert list(max_lags[-3:]) == [180, 100, 20]
        assert max_lags[-1] <= lag_min + 1
        got = estimate_f0(audio, cfg, 70.0, 450.0)
        assert_tracks_bitwise_equal(
            got, scalar_estimate_f0(audio, cfg, 70.0, 450.0))
        assert got.voiced[-3] and got.voiced[-2] and not got.voiced[-1]

    def test_spectrum_is_shared_with_energy(self, corpus):
        audio = corpus[0]
        cfg = FrameConfig(window="rectangular")
        track = estimate_f0(audio, cfg)
        frames, _ = frame_signal(audio, cfg)
        assert track.spectrum.shape == (len(frames), frames.shape[1] // 2 + 1)
        assert np.array_equal(track.spectrum, np.abs(np.fft.rfft(frames, axis=1)))
        assert np.array_equal(track.energy,
                              np.sqrt(np.sum(track.spectrum ** 2, axis=1)))


@st.composite
def f0_cases(draw):
    """Signals and settings whose last frame has too little lag room to
    search and whose frames before it have a cut-short lag range."""
    sr = draw(st.sampled_from([8000, 16000, 22050]))
    cfg = FrameConfig(win_ms=draw(st.sampled_from([10.0, 20.0, 32.0])),
                      hop_ms=draw(st.sampled_from([2.5, 5.0, 10.0])),
                      window=draw(st.sampled_from(["hann", "rectangular"])))
    f0_min = draw(st.sampled_from([40.0, 70.0, 100.0]))
    f0_max = draw(st.sampled_from([300.0, 450.0, 500.0]))
    w, h = cfg.win_samples(sr), cfg.hop_samples(sr)
    lag_min = max(2, int(math.floor(sr / f0_max)))
    n = (w + h * draw(st.integers(0, int(0.25 * sr) // h))
         + draw(st.integers(0, lag_min + 1)))

    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pitch = draw(st.floats(f0_min, f0_max))
    t = np.arange(n) / sr
    x = (draw(st.floats(0.01, 0.8)) * np.sin(2 * np.pi * pitch * t)
         + draw(st.floats(0.0, 0.4)) * np.sin(4 * np.pi * pitch * t)
         + draw(st.floats(0.0, 0.3)) * rng.standard_normal(n))
    for kind in ("silent", "noisy"):
        if draw(st.booleans()):
            a = draw(st.integers(0, n))
            b = draw(st.integers(a, n))
            x[a:b] = 0.0 if kind == "silent" else 0.5 * rng.standard_normal(b - a)
    return AudioBuffer(x, sr), cfg, f0_min, f0_max


@settings(max_examples=120, deadline=None)
@given(f0_cases())
def test_batched_features_bitwise_equal_scalar_oracle(case):
    audio, cfg, f0_min, f0_max = case
    max_lags, lag_min, lag_max = lag_ranges(len(audio.samples),
                                            audio.sample_rate, cfg,
                                            f0_min, f0_max)
    assert max_lags[-1] <= lag_min + 1
    got = estimate_f0(audio, cfg, f0_min, f0_max)
    want = scalar_estimate_f0(audio, cfg, f0_min, f0_max)
    assert_tracks_bitwise_equal(got, want)
    feats = acoustic_frames(audio, cfg, n_bands=8, f0_min=f0_min, f0_max=f0_max)
    assert feats.tobytes() == oracle_acoustic_frames(
        audio, cfg, 8, f0_min, f0_max, track=want).tobytes()
    tail = (max_lags > lag_min + 1) & (max_lags < lag_max)
    if tail.any():
        event("frames with a cut-short lag range")
    if (got.voiced & tail).any():
        event("voiced frame with a cut-short lag range")

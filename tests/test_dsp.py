"""Framing, spectral energy, F0 estimation, mel features, WAV I/O.

The STFT energy tests compare against a straight-line O(N^2) DFT written
with scalar math, sharing no code with the implementation under test.
The WAV reader and writer and the FFT length rule are checked against
scipy, which the runtime does not use.
"""

import io
import math
import struct
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.io import wavfile

from msfser import dsp
from msfser.dsp import (
    SILENCE_RMS_FLOOR,
    AudioBuffer,
    FrameConfig,
    ProsodyTrack,
    _fast_len,
    _pick_peaks,
    acoustic_frames,
    estimate_f0,
    frame_signal,
    mel_filterbank,
    prosody_to_csv,
    read_wav,
    stft_energy,
    write_wav,
)
from msfser.errors import BadSetting, SignalTooShort, UnfitSignal
from msfser.synth import SynthConfig, generate_dataset, load_examples

SR = 16000


def tone(freq, dur=1.0, amp=0.3, sr=SR, harmonic=0.5):
    t = np.arange(int(round(dur * sr))) / sr
    return AudioBuffer(
        amp * (np.sin(2 * np.pi * freq * t)
               + harmonic * np.sin(4 * np.pi * freq * t)),
        sr)


def in_fresh_thread(fn, *args):
    """fn(*args) in a new thread, whose dsp work arrays start empty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


def arena_bytes() -> int:
    """Bytes of the calling thread's dsp work arrays."""
    return sum(arena.nbytes for arena in vars(dsp._arenas).values())


def dft_energy_oracle(frame, window):
    """One-sided spectral L2 norm by the textbook O(N^2) definition."""
    n = len(frame)
    if window == "hann":
        w = [0.5 - 0.5 * math.cos(2.0 * math.pi * k / n) for k in range(n)]
    else:
        w = [1.0] * n
    x = [float(frame[k]) * w[k] for k in range(n)]
    total = 0.0
    for k in range(n // 2 + 1):
        re = sum(x[t] * math.cos(2.0 * math.pi * k * t / n) for t in range(n))
        im = -sum(x[t] * math.sin(2.0 * math.pi * k * t / n) for t in range(n))
        total += re * re + im * im
    return math.sqrt(total)


class TestFraming:
    def test_frame_count_matches_loop_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(400, 4000))
            audio = AudioBuffer(rng.standard_normal(n) * 0.1, SR)
            cfg = FrameConfig(win_ms=float(rng.integers(10, 40)),
                              hop_ms=float(rng.integers(2, 10)))
            frames, times = frame_signal(audio, cfg)
            w, h = cfg.win_samples(SR), cfg.hop_samples(SR)
            # count the placements directly
            count = 0
            start = 0
            while start + w <= n:
                count += 1
                start += h
            assert len(frames) == count == (n - w) // h + 1
            assert frames.shape == (count, w)

    def test_frame_contents_and_times(self):
        audio = AudioBuffer(np.arange(100, dtype=np.float64) / 200.0, 1000)
        cfg = FrameConfig(win_ms=20.0, hop_ms=10.0)   # w=20, h=10 samples
        frames, times = frame_signal(audio, cfg)
        assert np.array_equal(frames[0], audio.samples[0:20])
        assert np.array_equal(frames[3], audio.samples[30:50])
        assert times[0] == 10.0 / 1000.0
        assert times[3] == (30 + 10.0) / 1000.0

    def test_frames_are_a_readonly_view_equal_to_a_gather(self):
        audio = AudioBuffer(np.random.default_rng(7).standard_normal(3001), SR)
        for win_ms, hop_ms in ((20.0, 5.0), (25.0, 10.0), (8.0, 8.0)):
            cfg = FrameConfig(win_ms=win_ms, hop_ms=hop_ms)
            frames, _ = frame_signal(audio, cfg)
            w, h = cfg.win_samples(SR), cfg.hop_samples(SR)
            idx = np.arange(w)[None, :] + h * np.arange(len(frames))[:, None]
            assert frames.tobytes() == audio.samples[idx].tobytes()
            assert np.shares_memory(frames, audio.samples)
            assert not frames.flags.writeable

    def test_too_short_signal(self):
        with pytest.raises(SignalTooShort):
            frame_signal(AudioBuffer(np.zeros(100), SR), FrameConfig())
        assert len(frame_signal(AudioBuffer(np.zeros(320), SR),
                                FrameConfig())[0]) == 1
        with pytest.raises(SignalTooShort):
            frame_signal(AudioBuffer(np.zeros(319), SR), FrameConfig())
        # finite, but win_ms * sample_rate overflows to inf
        with pytest.raises(SignalTooShort, match="win_ms"):
            frame_signal(AudioBuffer(np.zeros(100), SR),
                         FrameConfig(win_ms=1e308))

    def test_window_under_two_samples(self):
        audio = AudioBuffer(np.zeros(100), SR)
        for win_ms in (0.01, 0.07):     # 0 and 1 samples at 16 kHz
            with pytest.raises(ValueError, match="win_ms"):
                frame_signal(audio, FrameConfig(win_ms=win_ms, hop_ms=win_ms))

    def test_frame_config_validation(self):
        with pytest.raises(ValueError):
            FrameConfig(win_ms=10.0, hop_ms=20.0)
        for win_ms in (math.inf, math.nan):
            with pytest.raises(ValueError, match="win_ms"):
                FrameConfig(win_ms=win_ms)
        with pytest.raises(ValueError):
            FrameConfig(window="hamming")
        with pytest.raises(BadSetting, match="hop_ms=0.0"):
            FrameConfig(hop_ms=0.0)

    @pytest.mark.parametrize("win_ms, hop_ms, hop", [
        (50.0, 50.0, 800),      # 50 ms is exactly 800 samples at 16 kHz
        (20.0, 0.01, 1),        # 0.16 samples rounds to 0, floored at 1
    ])
    def test_hop_samples(self, win_ms, hop_ms, hop):
        assert FrameConfig(win_ms=win_ms, hop_ms=hop_ms).hop_samples(SR) == hop


class TestStftEnergy:
    def test_impulse_energy_is_sqrt_bins(self):
        # unit impulse: flat magnitude-1 spectrum; 8-point frame has 5
        # one-sided bins -> energy sqrt(5)
        frame = np.zeros(8)
        frame[0] = 1.0
        assert stft_energy(frame, window="rectangular") == math.sqrt(5.0)

    def test_matches_quadratic_dft(self):
        rng = np.random.default_rng(77)
        for window in ("rectangular", "hann"):
            for _ in range(20):
                n = int(rng.integers(8, 80))
                frame = rng.standard_normal(n)
                got = stft_energy(frame, window=window)
                want = dft_energy_oracle(frame, window)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_parseval_bounds_rectangular(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 200))
            frame = rng.standard_normal(n)
            l2 = float(np.linalg.norm(frame))
            e = stft_energy(frame, window="rectangular")
            assert l2 - 1e-9 <= e <= math.sqrt(2.0 * n) * l2 + 1e-9

    def test_scales_linearly(self):
        rng = np.random.default_rng(6)
        frame = rng.standard_normal(64)
        assert stft_energy(4.0 * frame) == pytest.approx(
            4.0 * stft_energy(frame), rel=1e-12)


class TestF0:
    def test_220hz_tone_accuracy(self):
        track = estimate_f0(tone(220.0), FrameConfig())
        voiced = track.voiced
        assert voiced.mean() > 0.9
        hz = np.exp(track.log_f0[voiced])
        assert np.abs(hz - 220.0).max() <= 3.0

    def test_110hz_tone_accuracy(self):
        track = estimate_f0(tone(110.0), FrameConfig())
        hz = np.exp(track.log_f0[track.voiced])
        assert track.voiced.mean() > 0.9
        assert np.abs(hz - 110.0).max() <= 3.0

    def test_subharmonic_not_chosen(self):
        # the 100 Hz octave-down lag correlates as well as the true 200 Hz
        # period; the earliest-equivalent-lag rule must keep 200 Hz
        track = estimate_f0(tone(200.0), FrameConfig())
        hz = np.exp(track.log_f0[track.voiced])
        near_true = np.abs(hz - 200.0) <= 4.0
        assert near_true.mean() >= 0.9

    def test_amplitude_invariance(self):
        # scaling by a power of two is exact in floating point, and the
        # normalized correlation cancels it out entirely
        loud = tone(180.0, amp=0.5)
        quiet = AudioBuffer(loud.samples * 0.25, SR)
        a = estimate_f0(loud, FrameConfig())
        b = estimate_f0(quiet, FrameConfig())
        assert np.array_equal(a.voiced, b.voiced)
        assert np.array_equal(a.log_f0, b.log_f0)
        assert np.allclose(b.energy, 0.25 * a.energy, rtol=1e-12, atol=0)

    def test_silence_unvoiced(self):
        track = estimate_f0(AudioBuffer(np.zeros(SR // 2), SR), FrameConfig())
        assert not track.voiced.any()
        assert np.all(track.energy == 0.0)

    def test_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(42)
        audio = AudioBuffer(0.2 * rng.standard_normal(SR // 2), SR)
        track = estimate_f0(audio, FrameConfig())
        assert track.voiced.mean() < 0.2

    def test_tone_in_silence_voicing_localized(self):
        pad = np.zeros(SR // 4)
        burst = tone(250.0, dur=0.5).samples
        audio = AudioBuffer(np.concatenate([pad, burst, pad]), SR)
        track = estimate_f0(audio, FrameConfig())
        inside = (track.frame_times > 0.30) & (track.frame_times < 0.70)
        outside = track.frame_times < 0.20
        assert track.voiced[inside].mean() > 0.9
        assert not track.voiced[outside].any()

    def test_parameter_validation(self):
        for f0_min, f0_max in ((300.0, 200.0), (0.0, 400.0), (-5.0, 400.0),
                               (float("nan"), 400.0), (70.0, float("inf"))):
            with pytest.raises(ValueError, match="f0_min"):
                estimate_f0(tone(200.0), FrameConfig(), f0_min=f0_min,
                            f0_max=f0_max)
        # the smallest positive f0_min: the lag range stops at the signal end
        assert estimate_f0(tone(200.0), FrameConfig(), f0_min=5e-324).voiced.any()
        with pytest.raises(ValueError):
            estimate_f0(AudioBuffer(np.zeros(4000), 1000), FrameConfig(),
                        f0_max=400.0)

    def test_sample_rate_floor_is_four_samples_per_period(self):
        assert dsp.min_sample_rate(450.0) == 1800.0
        estimate_f0(tone(200.0, sr=1800), FrameConfig())
        with pytest.raises(UnfitSignal, match="sample rate 1799 too low"):
            estimate_f0(tone(200.0, sr=1799), FrameConfig())

    def test_refinement_step_is_clipped_to_half_a_lag(self):
        # the right neighbour equals the peak, so the vertex is half a lag
        # to the right; rounding puts the unclipped step at 0.5 + 1 ulp
        rm, r0 = 0.26148788476467855, 0.6542454457705611
        r = np.array([[1.0, 0.5, rm, r0, r0, 0.2, 0.1]])
        assert 0.5 * (rm - r0) / (rm - 2.0 * r0 + r0) > 0.5
        lag, value, found = _pick_peaks(r, 1)
        assert lag.tolist() == [3.5] and found.tolist() == [True]
        assert value.tolist() == [0.7033401408962964]


def mel_band_centers(n_bands, sample_rate):
    """Center frequency in Hz of each triangular band, from the mel scale."""
    top = 2595.0 * math.log10(1.0 + sample_rate / 2.0 / 700.0)
    mels = np.linspace(0.0, top, n_bands + 2)[1:-1]
    return 700.0 * (10.0 ** (mels / 2595.0) - 1.0)


def mel_band_energies(frame, sample_rate, n_bands, window="hann"):
    """log(1 + band energy) of one frame: taper, FFT, filterbank."""
    n = len(frame)
    taper = (np.ones(n) if window == "rectangular"
             else 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))
    mag = np.abs(np.fft.rfft(np.asarray(frame) * taper))
    return np.log1p(mel_filterbank(n_bands, len(mag), sample_rate) @ mag)


class TestMel:
    def test_filterbank_shape_and_range(self):
        fb = mel_filterbank(8, 161, SR)
        assert fb.shape == (8, 161)
        assert fb.min() >= 0.0
        assert fb.max() <= 1.0 + 1e-12
        assert np.all(fb.sum(axis=1) > 0.0)

    def test_band_centers_increase(self):
        # each triangle peaks at the FFT bin nearest its mel-scale center
        centers = mel_band_centers(8, SR)
        assert np.all(np.diff(centers) > 0.0)
        assert 0.0 < centers[0] < centers[-1] < SR / 2.0
        bin_hz = np.linspace(0.0, SR / 2.0, 161)
        peaks = bin_hz[np.argmax(mel_filterbank(8, 161, SR), axis=1)]
        assert np.all(np.diff(peaks) > 0.0)
        assert np.abs(peaks - centers).max() <= bin_hz[1] / 2.0

    def test_tone_lands_in_nearest_band(self):
        centers = mel_band_centers(8, SR)
        target = 2                        # aim at band 2's center
        audio = tone(centers[target], dur=0.1, harmonic=0.0)
        bands = acoustic_frames(audio, FrameConfig(), n_bands=8)[0, 3:]
        assert bands.shape == (8,)
        assert np.all(bands >= 0.0)
        assert abs(int(np.argmax(bands)) - target) <= 1

    def test_mel_columns_match_per_frame_oracle(self):
        rng = np.random.default_rng(12)
        audio = AudioBuffer(0.2 * rng.standard_normal(SR // 4), SR)
        for window in ("hann", "rectangular"):
            cfg = FrameConfig(window=window)
            feats = acoustic_frames(audio, cfg, n_bands=12)
            frames, _ = frame_signal(audio, cfg)
            want = np.array([mel_band_energies(f, SR, 12, window)
                             for f in frames])
            assert np.allclose(feats[:, 3:], want, rtol=1e-12, atol=0)

    def test_negative_band_count_rejected(self):
        with pytest.raises(ValueError, match="n_bands"):
            acoustic_frames(tone(200.0), FrameConfig(), n_bands=-1)
        assert acoustic_frames(tone(200.0), FrameConfig(), n_bands=0).shape[1] == 3

    def test_acoustic_frames_layout(self):
        audio = tone(200.0, dur=0.3)
        feats = acoustic_frames(audio, FrameConfig(), n_bands=8)
        assert feats.shape == (len(frame_signal(audio, FrameConfig())[0]), 11)
        voiced_col = feats[:, 2]
        assert set(np.unique(voiced_col)) <= {0.0, 1.0}
        # log-F0 column is zeroed exactly where unvoiced
        assert np.all(feats[voiced_col == 0.0, 1] == 0.0)
        assert np.all(feats[voiced_col == 1.0, 1] > 0.0)

    def test_working_set_beyond_the_spectrum_is_bounded(self):
        # a minute of voiced audio: the kept spectrum is 14.7 MiB, and the
        # blocked passes may add a few hundred KiB, not whole-signal copies.
        # A fresh thread's work arrays start empty, so they count here.
        audio, cfg = tone(150.0, dur=60.0), FrameConfig()

        def traced():
            tracemalloc.start()
            try:
                feats = acoustic_frames(audio, cfg)
                return feats, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        feats, peak = in_fresh_thread(traced)
        spectrum = len(feats) * (cfg.win_samples(SR) // 2 + 1) * 8
        assert peak < spectrum + feats.nbytes + 3 * 2**20, peak / 2**20


class TestWorkspace:
    """The module's work arrays serve the later signals of their thread
    until released; nothing they held for one signal may reach the
    features of another, and no two threads share them."""

    def test_load_examples_equals_separate_calls(self, tmp_path):
        root = tmp_path / "data"
        generate_dataset(root, SynthConfig(n_utts=12, seed=5))
        wavs = sorted((root / "wavs").glob("*.wav"))
        cfg = FrameConfig()
        # a long file grows the arenas before shorter ones reuse them; the
        # last frames of the 4.5-s one have lag ranges 180, 100 and 20
        write_wav(wavs[0], tone(130.0, dur=2.5))
        write_wav(wavs[2], AudioBuffer(np.full(SR // 3, 2e-5), SR))
        write_wav(wavs[4], tone(260.0, dur=(320 + 80 * 900 + 20) / SR))
        write_wav(wavs[6], tone(95.0, dur=0.05))
        silent = read_wav(wavs[2])
        rms = np.sqrt(np.mean(frame_signal(silent, cfg)[0] ** 2, axis=1))
        assert np.all(rms <= SILENCE_RMS_FLOOR)

        # the second call re-grows the arrays the first one released
        first, second = in_fresh_thread(
            lambda: [load_examples(root) for _ in range(2)])
        assert {len(ex.frames) for ex in first} >= {497, 901, 7}
        for ex, again in zip(first, second, strict=True):
            audio = read_wav(root / "wavs" / f"{ex.utt_id}.wav")
            alone = in_fresh_thread(acoustic_frames, audio, cfg)
            assert ex.utt_id == again.utt_id
            assert ex.frames.tobytes() == alone.tobytes(), ex.utt_id
            assert again.frames.tobytes() == alone.tobytes(), ex.utt_id

    def test_load_examples_leaves_no_work_arrays(self, tmp_path):
        # a split grows 1,666,048 bytes, which the thread drops once the
        # split is featurised, and also when a WAV cut short (to 28
        # samples) in the middle of the split stops it
        root = tmp_path / "data"
        generate_dataset(root, SynthConfig(n_utts=12, seed=5))

        def featurise():
            try:
                load_examples(root)
            except UnfitSignal as exc:
                return str(exc), arena_bytes()
            return None, arena_bytes()

        assert in_fresh_thread(featurise) == (None, 0)
        wav = root / "wavs" / "utt_0006.wav"
        wav.write_bytes(wav.read_bytes()[:100])
        error, left = in_fresh_thread(featurise)
        assert f"{wav} (utterance 'utt_0006')" in error
        assert "signal has 28 samples" in error
        assert left == 0

    def test_returned_arrays_outlive_the_next_signal(self):
        def run():
            cfg = FrameConfig()
            first = tone(150.0, dur=1.0)
            track = estimate_f0(first, cfg)
            feats = acoustic_frames(first, cfg)
            kept = [track.spectrum, track.energy, track.log_f0, track.voiced,
                    feats]
            before = [a.tobytes() for a in kept]
            rng = np.random.default_rng(3)
            # shorter first, so it lands in the arenas the first signal used
            for other in (AudioBuffer(0.2 * rng.standard_normal(SR // 2), SR),
                          tone(310.0, dur=3.0, amp=0.9)):
                estimate_f0(other, cfg)
                acoustic_frames(other, cfg)
            assert [a.tobytes() for a in kept] == before
            assert acoustic_frames(first, cfg).tobytes() == before[-1]

        in_fresh_thread(run)

    def test_threads_featurising_at_once_get_the_sequential_bytes(self):
        # more threads than cores, switching often
        rng = np.random.default_rng(4)
        signals = [tone(140.0, dur=3.0), tone(230.0, dur=1.5, amp=0.6),
                   AudioBuffer(0.2 * rng.standard_normal(2 * SR), SR)]
        want = [acoustic_frames(a, FrameConfig()).tobytes() for a in signals]
        start = threading.Barrier(len(signals), timeout=60)

        def featurise(audio):
            start.wait()
            return [acoustic_frames(audio, FrameConfig()).tobytes()
                    for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(signals)) as pool:
                got = list(pool.map(featurise, signals, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [[w] * 3 for w in want]

    def test_arenas_hold_one_block_set_however_long_the_signal(self):
        # 460,800 + 461,824 + 461,824 + 281,600 bytes: the 1.59 MiB of the
        # _PITCH_BLOCK comment, at 16 kHz with the default settings
        def totals():
            sizes = [arena_bytes()]
            for dur in (1.0, 60.0):
                acoustic_frames(tone(150.0, dur=dur), FrameConfig())
                sizes.append(arena_bytes())
            return sizes

        assert in_fresh_thread(totals) == [0, 1_666_048, 1_666_048]

    def test_arenas_keep_no_request_above_the_cap(self):
        # a 2**22-sample frame asks 80 MiB of work arrays; its block gets
        # fresh ones, and the thread keeps what default features left
        def run():
            audio = tone(150.0, dur=2.0)
            first = acoustic_frames(audio, FrameConfig())
            sizes = [arena_bytes()]
            stft_energy(np.ones(2**22))
            sizes.append(arena_bytes())
            estimate_f0(audio, FrameConfig(win_ms=400.0))
            largest = max(a.nbytes for a in vars(dsp._arenas).values())
            again = acoustic_frames(audio, FrameConfig())
            return sizes, largest, first.tobytes() == again.tobytes()

        sizes, largest, same = in_fresh_thread(run)
        assert sizes == [1_666_048, 1_666_048]
        assert largest <= dsp._ARENA_MAX
        assert same

    def test_cap_leaves_the_48_khz_front_end_its_arenas(self):
        def run():
            audio = tone(150.0, dur=2.0, sr=48000)
            sizes = []
            for _ in range(2):
                acoustic_frames(audio, FrameConfig())
                sizes.append(arena_bytes())
            return sizes

        assert in_fresh_thread(run) == [4_992_512, 4_992_512]


def wav_chunk(chunk_id: bytes, payload: bytes) -> bytes:
    pad = b"\x00" if len(payload) % 2 else b""
    return chunk_id + struct.pack("<I", len(payload)) + payload + pad


def wav_fmt(tag: int, bits: int, channels: int = 1, sr: int = SR,
            extensible: bool = False) -> bytes:
    align = channels * bits // 8
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels,
                       sr, sr * align, align, bits)
    if extensible:
        # cbSize, valid bits, channel mask, then the sub-format GUID
        # {tag-0000-0010-8000-00AA00389B71}
        body += struct.pack("<HHII", 22, bits, 4, tag)
        body += b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return wav_chunk(b"fmt ", body)


def riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def scipy_read(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        return wavfile.read(path)


class TestFastLen:
    def test_matches_scipy_next_fast_len(self):
        for n in list(range(1, 20001)) + [65537, 99991, 1_000_003]:
            assert _fast_len(n) == next_fast_len(n, real=True), n


class TestWavIO:
    def test_round_trip_quantization(self, tmp_path):
        audio = tone(330.0, dur=0.25, amp=0.6)    # peak 0.9, no clipping
        path = tmp_path / "t.wav"
        write_wav(path, audio)
        back = read_wav(path)
        assert back.sample_rate == SR
        assert len(back.samples) == len(audio.samples)
        # write scales by 32767, read divides by 32768: half-step rounding
        # plus one part in 32768 of bias
        assert np.abs(back.samples - audio.samples).max() <= 1.5 / 32768.0

    def test_write_read_is_idempotent(self, tmp_path):
        audio = tone(330.0, dur=0.1)
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(p1, audio)
        first = read_wav(p1)
        write_wav(p2, first)
        assert p1.read_bytes()[44:] == p2.read_bytes()[44:]

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        wavfile.write(path, SR, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(ValueError):
            read_wav(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        path = tmp_path / "u8.wav"
        wavfile.write(path, SR, np.zeros(100, dtype=np.uint8))
        with pytest.raises(ValueError):
            read_wav(path)

    PCM = np.array([0, 1, -1, 32767, -32768, 1234, -4321], dtype="<i2")
    FLOAT = np.array([0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e-7], dtype="<f4")

    @pytest.mark.parametrize("case", [
        "pcm16", "float32_fact", "ext_pcm16", "ext_float32", "odd_chunk",
        "truncated_pcm16", "truncated_float32"])
    def test_read_matches_scipy(self, tmp_path, case):
        path = tmp_path / f"{case}.wav"
        if case == "pcm16":
            wavfile.write(path, 22050, self.PCM)
        elif case == "float32_fact":
            wavfile.write(path, 8000, self.FLOAT)
            assert b"fact" in path.read_bytes()
        elif case == "ext_pcm16":
            path.write_bytes(riff(wav_fmt(1, 16, extensible=True),
                                  wav_chunk(b"data", self.PCM.tobytes())))
        elif case == "ext_float32":
            path.write_bytes(riff(wav_fmt(3, 32, extensible=True),
                                  wav_chunk(b"data", self.FLOAT.tobytes())))
        elif case == "odd_chunk":
            path.write_bytes(riff(wav_chunk(b"LIST", b"INFOabc"),
                                  wav_fmt(1, 16),
                                  wav_chunk(b"junk", b"x"),
                                  wav_chunk(b"data", self.PCM.tobytes())))
        elif case == "truncated_pcm16":
            # the last sample loses one of its two bytes
            path.write_bytes(riff(wav_fmt(1, 16),
                                  wav_chunk(b"data", self.PCM.tobytes()))[:-5])
        else:
            path.write_bytes(riff(wav_fmt(3, 32),
                                  wav_chunk(b"data", self.FLOAT.tobytes()))[:-6])
        sr, data = scipy_read(path)
        audio = read_wav(path)
        expected = data.astype(np.float64)
        if data.dtype == np.int16:
            expected = expected / 32768.0
        assert audio.sample_rate == sr
        assert 0 < len(audio.samples) == len(data)
        assert audio.samples.tobytes() == expected.tobytes()

    def test_write_matches_scipy_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        audio = AudioBuffer(rng.uniform(-1.2, 1.2, 1001), 22050)
        ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
        write_wav(ours, audio)
        pcm = np.round(np.clip(audio.samples, -1.0, 1.0) * 32767.0)
        wavfile.write(ref, 22050, pcm.astype(np.int16))
        assert ours.read_bytes() == ref.read_bytes()

    # stereo and uint8 files, as scipy writes them, are rejected above
    @pytest.mark.parametrize("blob", [
        riff(wav_fmt(1, 24), wav_chunk(b"data", bytes(9))),
        riff(wav_fmt(3, 64), wav_chunk(b"data", bytes(16))),
        riff(wav_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, SR, 4 * SR, 4, 16)),
             wav_chunk(b"data", bytes(16))),
        riff(wav_fmt(1, 16, channels=2, extensible=True),
             wav_chunk(b"data", bytes(8))),
        b"RIFX" + riff(wav_fmt(1, 16), wav_chunk(b"data", bytes(4)))[4:],
        b"not a wav file at all",
        riff(wav_fmt(1, 16)),
        riff(wav_chunk(b"data", bytes(4)), wav_fmt(1, 16)),
        riff(wav_chunk(b"fmt ", bytes(8)), wav_chunk(b"data", bytes(4))),
        riff(wav_fmt(1, 16, sr=0), wav_chunk(b"data", bytes(4))),
    ], ids=["pcm24", "float64", "pcm16_in_4_bytes", "ext_stereo", "rifx",
            "not_riff", "no_data", "data_before_fmt", "short_fmt", "zero_hz"])
    def test_bad_files_rejected(self, tmp_path, blob):
        path = tmp_path / "bad.wav"
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            read_wav(path)


class TestContainers:
    def test_audio_must_be_mono(self):
        with pytest.raises(ValueError, match="mono"):
            AudioBuffer(np.zeros((100, 2)), SR)

    def test_audio_sample_rate_must_be_positive(self):
        assert AudioBuffer(np.zeros(4), sample_rate=1).sample_rate == 1
        for rate in (0, -8000):
            with pytest.raises(ValueError, match="sample_rate must be positive"):
                AudioBuffer(np.zeros(4), sample_rate=rate)

    @pytest.mark.parametrize("change, message", [
        ({"voiced": np.ones(3, dtype=bool)}, "equal length"),
        ({"spectrum": np.zeros((3, 5))}, "one row per frame"),
        ({"energy": np.array([1.0, -0.5])}, "non-negative"),
        ({"energy": np.array([np.nan, 0.5])}, "non-negative"),
        ({"energy": np.array([1.0, np.inf])}, "non-negative"),
        ({"log_f0": np.array([5.0, np.nan])}, "finite on voiced"),
    ], ids=["lengths", "spectrum_rows", "negative_energy", "nan_energy",
            "inf_energy", "voiced_nan_f0"])
    def test_prosody_track_invariants(self, change, message):
        good = dict(frame_times=np.array([0.01, 0.015]),
                    log_f0=np.array([5.0, 5.5]),
                    voiced=np.array([True, True]),
                    energy=np.array([1.0, 0.5]))
        assert len(ProsodyTrack(**good)) == 2
        with pytest.raises(ValueError, match=message):
            ProsodyTrack(**{**good, **change})


class TestProsodyCsv:
    def test_exact_output(self):
        track = ProsodyTrack(
            frame_times=np.array([0.01, 0.015]),
            log_f0=np.array([math.log(200.0), 0.0]),
            voiced=np.array([True, False]),
            energy=np.array([2.5, 0.125]),
        )
        buf = io.StringIO()
        prosody_to_csv(track, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "time_s,voiced,f0_hz,log_f0,energy"
        f0_back = math.exp(math.log(200.0))   # what the writer reconstructs
        assert lines[1] == (f"0.01,1,{f0_back!r},{math.log(200.0)!r},2.5")
        assert lines[2] == "0.015,0,,,0.125"

    def test_float_fields_round_trip(self):
        rng = np.random.default_rng(3)
        n = 10
        track = ProsodyTrack(
            frame_times=rng.uniform(0, 1, n),
            log_f0=rng.uniform(4, 6, n),
            voiced=np.ones(n, dtype=bool),
            energy=rng.uniform(0, 5, n),
        )
        buf = io.StringIO()
        prosody_to_csv(track, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        got_f0 = np.array([float(r[3]) for r in rows])
        assert np.array_equal(got_f0, track.log_f0)

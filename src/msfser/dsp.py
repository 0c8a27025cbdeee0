"""Frame-level prosodic and spectral features from mono PCM audio.

Everything here is deterministic and amplitude-aware only where it should
be: frame energy scales with the signal, the F0 estimator does not (it
works on normalized autocorrelation).  F0 uses a normalized
cross-correlation search over the candidate lag range (RAPT's NCCF,
Talkin 1995) with parabolic peak refinement; among near-equal correlation
peaks the shortest lag wins, which suppresses subharmonic (octave-down)
picks.

Frames are a read-only strided view of the signal, never a copy.  The
tracker is batched: frames are grouped by their lag range (all but the
last few frames of a signal share the full range) and each group runs
through one vectorised kernel in blocks of at most ``_PITCH_BLOCK`` frames:
:func:`_nccf` correlates, :func:`_pick_peaks` picks the period.  The result
is bitwise equal to a per-frame scalar loop, kept in the test suite as the
oracle.  Each frame's magnitude spectrum is computed once, in blocks of the
same size, and shared by the energy and the mel bands, so the working set
beyond the kept spectrum does not grow with the signal.

Both block loops write their temporaries into work arrays that belong to
this module: one set per thread, allocated by that thread's first
featurisation and reused for its later blocks and signals until
:func:`release_work_arrays` drops them (``synth.load_examples`` does, once
its split is featurised).  Fresh arrays of that size would be returned to
the kernel after each block and faulted in again by the next; a request
above ``_ARENA_MAX`` bytes, which the fixed front end never makes, is not
kept.  WAV I/O uses numpy and the standard library only.
"""

from __future__ import annotations

import csv
import math
import struct
import threading
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (F0_MAX, F0_MIN, N_BANDS, FrameConfig, acoustic_width,
                     at_least)
from .errors import BadSetting, SignalTooShort, UnfitSignal, naming

SILENCE_RMS_FLOOR = 1e-4
VOICING_THRESHOLD = 0.3             # least NCCF peak of a voiced frame

# Peaks within this fraction of the best correlation count as equivalent;
# the earliest such lag is taken as the period.
_PEAK_EQUIV = 0.97

# Frames per block of the spectrum pass and per call of the pitch kernel:
# large enough to amortise the numpy call overhead, small enough that the
# (frames x FFT length) work arrays stay at 1.59 MiB (16 kHz, default
# settings) however long the utterance.  Each thread keeps one set (_take)
# until release_work_arrays, none of its four arrays above _ARENA_MAX
# bytes (the default front end asks at most 1.32 MiB, at 48 kHz); only the
# kept spectrum grows with the utterance.  With the arrays reused, 32, 128
# and 256 were no faster.
_PITCH_BLOCK = 64
_ARENA_MAX = 2 << 20

_arenas = threading.local()     # vars(): this thread's slot -> bytes


def _take(slot: int, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's arena ``slot`` as an uninitialised C-contiguous array.

    No two threads share an arena.  An arena grows to the largest request
    up to ``_ARENA_MAX`` bytes that it has seen and serves every later one
    until :func:`release_work_arrays`; a larger request gets a fresh array,
    dropped with its block, and the slot keeps its arena.  So a kernel
    keeps nothing it took past its own block, and nothing a caller gets
    back from this module lies in an arena.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    arena = vars(_arenas).get(slot)
    if arena is None or arena.nbytes < nbytes:
        arena = np.empty(nbytes, np.uint8)
        if nbytes <= _ARENA_MAX:
            vars(_arenas)[slot] = arena
    return np.ndarray(shape, dtype, arena)


def release_work_arrays() -> None:
    """Drop the calling thread's work arrays; its next featurisation
    allocates them again."""
    vars(_arenas).clear()


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio with samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.ndim != 1:
            raise ValueError("AudioBuffer holds mono audio (1-D samples)")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")


@dataclass(frozen=True)
class ProsodyTrack:
    """Per-frame log-F0 (voiced frames only), voicing flags and energy.

    ``spectrum``, when present, is the (T x W//2+1) one-sided magnitude
    spectrum of each tapered frame; ``energy`` is its row L2 norm.
    """

    frame_times: np.ndarray
    log_f0: np.ndarray     # natural log of Hz; meaningful only where voiced
    voiced: np.ndarray     # bool
    energy: np.ndarray
    spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n = len(self.frame_times)
        if not (len(self.log_f0) == len(self.voiced) == len(self.energy) == n):
            raise ValueError("ProsodyTrack sequences must have equal length")
        if self.spectrum is not None and len(self.spectrum) != n:
            raise ValueError("ProsodyTrack spectrum must have one row per frame")
        if not np.all(np.isfinite(self.energy) & (self.energy >= 0)):
            raise ValueError("energy must be finite and non-negative")
        if n and not np.all(np.isfinite(self.log_f0[self.voiced])):
            raise ValueError("log_f0 must be finite on voiced frames")

    def __len__(self) -> int:
        return len(self.frame_times)


def _taper(n: int, kind: str) -> np.ndarray:
    if kind == "rectangular":
        return np.ones(n)
    # periodic hann, the standard analysis choice
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_signal(audio: AudioBuffer, cfg: FrameConfig):
    """Slice into overlapping frames.

    Returns ``(frames, frame_times)`` where ``frames`` is a (T, W)
    read-only strided view of the samples and ``frame_times[i]`` is the
    center of frame i in seconds.  Raises :class:`UnfitSignal` when the
    window is under 2 samples and :class:`SignalTooShort` when the signal
    is shorter than one window.
    """
    x = audio.samples
    sr = audio.sample_rate
    # compare before rounding: a huge finite win_ms scales to inf samples
    if cfg.win_ms * sr / 1000.0 >= len(x) + 1 or cfg.win_samples(sr) > len(x):
        raise SignalTooShort(f"signal has {len(x)} samples, fewer than "
                             f"win_ms={cfg.win_ms} spans at {sr} Hz")
    w = cfg.win_samples(sr)
    h = cfg.hop_samples(sr)
    if w < 2:
        raise UnfitSignal(f"win_ms={cfg.win_ms} gives a {w}-sample window at "
                          f"{sr} Hz; need at least 2 samples")
    frames = np.lib.stride_tricks.sliding_window_view(x, w)[::h]
    times = (h * np.arange(len(frames)) + w / 2.0) / sr
    return frames, times


def _spectra(frames: np.ndarray, window: str):
    """(mag, energy, rms): each tapered frame's one-sided magnitude spectrum
    (T x W//2+1), its L2 norm and the frame's RMS, ``_PITCH_BLOCK`` rows at
    a time."""
    t, w = frames.shape
    taper = _taper(w, window)
    mag, energy, rms = np.empty((t, w // 2 + 1)), np.empty(t), np.empty(t)
    for b in range(0, t, _PITCH_BLOCK):
        rows, block = slice(b, b + _PITCH_BLOCK), frames[b:b + _PITCH_BLOCK]
        half = (len(block), w // 2 + 1)
        tapered = np.multiply(block, taper, out=_take(1, block.shape))
        spec = np.fft.rfft(tapered, axis=1, out=_take(0, half, np.complex128))
        np.abs(spec, out=mag[rows])
        power = np.square(mag[rows], out=_take(2, half))
        np.sqrt(np.sum(power, axis=1, out=energy[rows]), out=energy[rows])
        squares = np.multiply(block, block, out=tapered)
        np.sqrt(np.mean(squares, axis=1, out=rms[rows]), out=rms[rows])
    return mag, energy, rms


def stft_energy(frame: np.ndarray, window: str = "hann") -> float:
    """L2 norm of the one-sided magnitude spectrum of the tapered frame.

    A one-row view of the batched path :func:`estimate_f0` runs.
    """
    frame = np.asarray(frame, dtype=np.float64)
    return float(_spectra(frame[None, :], window)[1][0])


def _fast_len(n: int) -> int:
    """Smallest 2*3*5-smooth integer >= n, a length the real FFT runs fast."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _nccf(x: np.ndarray, starts: np.ndarray, w: int, max_lag: int,
          n: int) -> np.ndarray:
    """Normalized cross-correlation at lags 0..max_lag, one row per frame.

    Row k correlates the mean-removed segment x[s:s + w + max_lag]
    (s = starts[k]) against its first w samples, through real FFTs of
    length ``n``.  The result lies in arena 0 and is valid until the next
    block.
    """
    k, span, half = len(starts), w + max_lag, (len(starts), n // 2 + 1)
    # rfft runs faster on rows already zero-padded to n than when it pads
    # them itself.  Arena 1 holds the padded segments, then the padded
    # first w samples, then the denominator; arena 3 the running energy;
    # arena 2 the segments' FFT, then the mask; arena 0 the other FFT,
    # then the correlation.
    padded = _take(1, (k, n))
    for row, s in zip(padded, starts.tolist()):
        row[:span] = x[s:s + span]
    padded[:, span:] = 0.0
    seg = padded[:, :span]
    seg -= seg.mean(axis=1, keepdims=True)
    sq = _take(3, (k, span + 1))
    sq[:, 0] = 0.0
    np.cumsum(np.multiply(seg, seg, out=sq[:, 1:]), axis=1, out=sq[:, 1:])

    fs = np.fft.rfft(padded, axis=1, out=_take(2, half, np.complex128))
    padded[:, w:span] = 0.0        # rfft left [span:n] as zeroed above
    fa = np.fft.rfft(padded, axis=1, out=_take(0, half, np.complex128))
    np.multiply(np.conj(fa, out=fa), fs, out=fs)
    corr = np.fft.irfft(fs, n, axis=1, out=_take(0, (k, n)))[:, :max_lag + 1]
    denom = np.subtract(sq[:, w:], sq[:, :max_lag + 1],
                        out=_take(1, corr.shape))
    np.sqrt(np.multiply(sq[:, w:w + 1], denom, out=denom), out=denom)
    live = np.greater(denom, 0, out=_take(2, corr.shape, bool))
    np.divide(corr, np.maximum(denom, 1e-300, out=denom), out=corr, where=live)
    np.copyto(corr, 0.0, where=np.logical_not(live, out=live))
    return corr


def _pick_peaks(r: np.ndarray, lag_min: int):
    """The period of each row of NCCF ``r`` (lags 0..max_lag).

    Returns the refined lag, the refined correlation, and whether an
    interior peak in lag_min..max_lag reached ``VOICING_THRESHOLD``.  Needs
    max_lag > lag_min + 1.  The outputs are fresh arrays.
    """
    # interior local maxima over lags lag_min+1 .. max_lag-1; the earliest
    # peak within _PEAK_EQUIV of the best one is the period
    win = r[:, lag_min:]
    mid = win[:, 1:-1]
    is_peak = (mid > win[:, :-2]) & (mid >= win[:, 2:])
    best = np.where(is_peak, mid, -np.inf).max(axis=1)
    found = is_peak.any(axis=1) & (best >= VOICING_THRESHOLD)
    lag = lag_min + 1 + np.argmax(is_peak & (mid >= _PEAK_EQUIV * best[:, None]),
                                  axis=1)

    # parabolic refinement; lag is never at either end of r
    rows = np.arange(len(r))
    rm, r0, rp = r[rows, lag - 1], r[rows, lag], r[rows, lag + 1]
    curv = rm - 2.0 * r0 + rp
    flat = (curv >= 0) | (np.abs(curv) < 1e-30)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = np.where(flat, 0.0, np.clip(0.5 * (rm - rp) / curv, -0.5, 0.5))
    value = np.where(flat, r0, r0 - 0.25 * (rm - rp) * delta)
    return lag + delta, value, found


def _pitch(x: np.ndarray, sr: int, w: int, h: int, rms: np.ndarray,
           f0_min: float, f0_max: float):
    """(voiced, log_f0) for the frames starting at 0, h, 2h, ...

    Frames above the silence floor whose lag range holds an interior lag
    are grouped by that range and fed to :func:`_nccf` and
    :func:`_pick_peaks` in blocks.
    """
    lag_min = max(2, int(math.floor(sr / f0_max)))
    # no lag reaches past the signal, so a tiny f0_min cannot overflow
    lag_max = int(math.ceil(min(sr / f0_min, len(x))))
    n = len(rms)
    starts = h * np.arange(n)
    max_lags = np.minimum(lag_max, len(x) - starts - w)
    live = np.flatnonzero((rms > SILENCE_RMS_FLOOR) & (max_lags > lag_min + 1))

    ref_lag = np.ones(n)    # unsearched frames stay unfound; 1 keeps sr/lag finite
    ref_val = np.zeros(n)
    found = np.zeros(n, dtype=bool)
    # not np.unique: its masked-array check imports numpy.ma
    for max_lag in sorted(set(max_lags[live].tolist())):
        group = live[max_lags[live] == max_lag]
        fft_len = _fast_len(2 * w + max_lag)
        for b in range(0, len(group), _PITCH_BLOCK):
            idx = group[b:b + _PITCH_BLOCK]
            r = _nccf(x, starts[idx], w, max_lag, fft_len)
            ref_lag[idx], ref_val[idx], found[idx] = _pick_peaks(r, lag_min)

    f0 = sr / ref_lag
    voiced = (found & (ref_val >= VOICING_THRESHOLD)
              & (f0_min * 0.9 <= f0) & (f0 <= f0_max * 1.1))
    log_f0 = np.zeros(n)
    # math.log, not np.log: the two need not agree in the last bit
    log_f0[voiced] = list(map(math.log, f0[voiced]))
    return voiced, log_f0


def min_sample_rate(f0_max: float) -> float:
    """The lowest sample rate at which the pitch tracker resolves f0 up to
    f0_max: four samples per period."""
    return 4 * f0_max


def estimate_f0(audio: AudioBuffer, cfg: FrameConfig,
                f0_min: float = F0_MIN, f0_max: float = F0_MAX
                ) -> ProsodyTrack:
    """Per-frame F0 with voicing decision; energy filled via the STFT norm.

    A frame is voiced when its best normalized-autocorrelation peak in the
    candidate lag range reaches ``VOICING_THRESHOLD`` and the frame RMS is
    above the silence floor.  F0 comes from the chosen lag after parabolic
    refinement; ``log_f0`` is the natural log of Hz.

    Frames are batched by lag range: those with the full range (all but
    the last few) share one FFT length, each tail frame whose range is
    cut short by the end of the signal forms its own group, and every
    group runs through the same vectorised kernel in blocks of at most
    ``_PITCH_BLOCK`` frames.  The output is bitwise equal to running the
    search frame by frame.  The returned track carries the frame spectra.
    The blocks' temporaries go to this module's work arrays: one set per
    thread, reused for its later blocks and signals until
    :func:`release_work_arrays`.
    """
    if not 0 < f0_min < f0_max < math.inf:
        raise BadSetting(f"need finite 0 < f0_min < f0_max, got "
                         f"f0_min={f0_min}, f0_max={f0_max}")
    sr = audio.sample_rate
    if sr < min_sample_rate(f0_max):
        raise UnfitSignal(
            f"sample rate {sr} too low to resolve f0_max={f0_max}")

    frames, times = frame_signal(audio, cfg)
    mag, energy, rms = _spectra(frames, cfg.window)
    voiced, log_f0 = _pitch(audio.samples, sr, cfg.win_samples(sr),
                            cfg.hop_samples(sr), rms, f0_min, f0_max)
    return ProsodyTrack(frame_times=times, log_f0=log_f0, voiced=voiced,
                        energy=energy, spectrum=mag)


# ---------------------------------------------------------------------------
# mel filterbank features
# ---------------------------------------------------------------------------

def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_bands: int, n_fft_bins: int, sample_rate: int) -> np.ndarray:
    """Triangular filters (n_bands x n_fft_bins) over the one-sided spectrum."""
    nyquist = sample_rate / 2.0
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(nyquist), n_bands + 2))
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    bin_hz = np.linspace(0.0, nyquist, n_fft_bins)
    up = (bin_hz - lo) / np.maximum(ctr - lo, 1e-12)
    down = (hi - bin_hz) / np.maximum(hi - ctr, 1e-12)
    return np.maximum(0.0, np.minimum(up, down))


def acoustic_frames(audio: AudioBuffer, cfg: FrameConfig,
                    n_bands: int = N_BANDS,
                    f0_min: float = F0_MIN, f0_max: float = F0_MAX
                    ) -> np.ndarray:
    """Per-frame [log-energy, log-F0-or-0, voiced flag, mel bands].

    Returns a (T, acoustic_width(n_bands)) array; T matches
    :func:`frame_signal`.
    The mel bands reuse the frame spectra of :func:`estimate_f0`, whose
    work arrays belong to this module: one set per thread, reused for its
    later blocks and signals until :func:`release_work_arrays`.
    """
    at_least(0, {"n_bands": n_bands})
    track = estimate_f0(audio, cfg, f0_min=f0_min, f0_max=f0_max)
    mag = track.spectrum
    fb = mel_filterbank(n_bands, mag.shape[1], audio.sample_rate)
    mel = np.log1p(mag @ fb.T)

    feats = np.zeros((len(track), acoustic_width(n_bands)))
    feats[:, 0] = np.log1p(track.energy)
    feats[:, 1] = np.where(track.voiced, track.log_f0, 0.0)
    feats[:, 2] = track.voiced.astype(np.float64)
    feats[:, 3:] = mel
    return feats


# ---------------------------------------------------------------------------
# WAV + CSV interfaces
# ---------------------------------------------------------------------------

_WAV_DTYPES = {(1, 16): np.dtype("<i2"), (3, 32): np.dtype("<f4")}  # (tag, bits)
# bytes 4..15 of a WAVE_FORMAT_EXTENSIBLE (tag 0xFFFE) sub-format GUID
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def read_wav(path) -> AudioBuffer:
    """Read a mono RIFF/WAVE file of PCM16 (format tag 1) or float32 (3).

    Either may sit under WAVE_FORMAT_EXTENSIBLE.  Other chunks (``fact``,
    ``LIST``, odd-sized ones) are skipped, and a data chunk cut short by
    the end of the file yields the whole samples present.  Any other
    layout or sample format raises ValueError.
    """
    blob = Path(path).read_bytes()
    with naming(path, ValueError):
        if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
            raise ValueError("not a RIFF/WAVE file")
        dtype, pos = None, 12
        while pos + 8 <= len(blob):
            chunk_id, size = struct.unpack_from("<4sI", blob, pos)
            body = blob[pos + 8:pos + 8 + size]
            pos += 8 + size + (size & 1)    # chunks are padded to even length
            if chunk_id == b"fmt " and len(body) >= 16:
                tag, channels, sr, _, align, bits = struct.unpack_from(
                    "<HHIIHH", body)
                if tag == 0xFFFE and body[28:40] == _GUID_TAIL:
                    tag = struct.unpack_from("<I", body, 24)[0]
                dtype = _WAV_DTYPES.get((tag, bits))
                if channels != 1 or dtype is None or align != dtype.itemsize:
                    raise ValueError(f"{channels}-channel {bits}-bit WAV of "
                                     f"format {tag:#x}; use mono PCM16 or float32")
            elif chunk_id == b"data":
                if dtype is None:
                    raise ValueError("no usable fmt chunk before the data")
                data = np.frombuffer(body, dtype, len(body) // dtype.itemsize)
                samples = data / 32768.0 if dtype.kind == "i" else data
                return AudioBuffer(samples=samples, sample_rate=sr)
        raise ValueError("WAV file has no data chunk")


def write_wav(path, audio: AudioBuffer) -> None:
    """Write as PCM16 little-endian mono."""
    clipped = np.clip(audio.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype(np.int16)
    with open(path, "wb") as fh, wave.open(fh, "wb") as out:
        out.setparams((1, 2, audio.sample_rate, len(pcm), "NONE", ""))
        out.writeframes(pcm.tobytes())


def prosody_to_csv(track: ProsodyTrack, fh) -> None:
    """Columns: time_s, voiced (0/1), f0_hz (empty when unvoiced), log_f0, energy."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["time_s", "voiced", "f0_hz", "log_f0", "energy"])
    for t, voiced, log_f0, energy in zip(track.frame_times, track.voiced,
                                         track.log_f0, track.energy):
        pitch = [repr(math.exp(log_f0)), repr(float(log_f0))] if voiced else ["", ""]
        writer.writerow([repr(float(t)), int(voiced), *pitch, repr(float(energy))])

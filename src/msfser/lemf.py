"""Word-level emphasis detection from aligned prosody.

Pipeline: frame features are aggregated per aligned word (max log-F0 over
voiced frames, mean frame energy, mean phoneme duration), standardized
per sentence, and fused into an emphasis score

    s(w) = ALPHA * z_pitch(w) + BETA * z_energy(w) + GAMMA * z_duration(w)

with the fixed constant weights (1.0, 1.2, 0.8).  The top-scoring word plus
its two neighbours forms the emphasis segment.
Degenerate sentences are handled by explicit rules rather than NaNs: a
constant feature column z-scores to zeros, a word without voiced frames
takes the sentence-mean pitch (so its pitch z-score is 0), and a word
without aligned phones uses its own length as the duration feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FrameConfig, LemfConfig
from .dsp import AudioBuffer, ProsodyTrack, estimate_f0
from .errors import EmptyInput
from .textgrid import Interval, TextGrid, phones_for_word, word_intervals

ZSCORE_SIGMA_FLOOR = 1e-12
ALPHA, BETA, GAMMA = 1.0, 1.2, 0.8      # pitch, energy, duration weights


@dataclass(frozen=True)
class WordProsody:
    """Raw and standardized prosodic features of one aligned word."""

    word: str
    interval: Interval
    f_pitch: float        # max voiced log-F0; sentence mean when undefined
    f_energy: float
    f_duration: float
    z_pitch: float
    z_energy: float
    z_duration: float
    score: float
    pitch_defined: bool = True


@dataclass(frozen=True)
class LemfResult:
    words: tuple[WordProsody, ...]
    segment: tuple[int, ...]    # word indices, from select_emphasis_indices
    track: ProsodyTrack


def aggregate_word_prosody(track: ProsodyTrack, word: Interval,
                           phones) -> tuple[float | None, float, float]:
    """Raw (f_pitch, f_energy, f_duration) for one word.

    f_pitch is None when the word has no voiced frames; the caller fills
    it with the sentence mean before standardization.
    """
    centers = np.asarray(track.frame_times)
    in_word = (centers >= word.xmin) & (centers < word.xmax)
    voiced_in_word = in_word & track.voiced

    f_pitch = float(np.max(track.log_f0[voiced_in_word])) \
        if np.any(voiced_in_word) else None
    f_energy = float(np.mean(track.energy[in_word])) if np.any(in_word) else 0.0
    if len(phones):
        f_duration = float(np.mean([p.duration for p in phones]))
    else:
        f_duration = word.duration
    return f_pitch, f_energy, f_duration


def zscore_normalize(values) -> np.ndarray:
    """Population z-scores; an (almost) constant sequence maps to zeros."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyInput("cannot z-score an empty sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError("z-score input must be finite")
    if np.all(values == values.flat[0]):
        # exactly constant: residuals are zero by definition, and the
        # computed mean of large identical values carries rounding dust
        return np.zeros_like(values)
    mu = float(np.mean(values))
    sigma = float(np.sqrt(np.mean((values - mu) ** 2)))
    if sigma < ZSCORE_SIGMA_FLOOR:
        return np.zeros_like(values)
    return (values - mu) / sigma


def select_emphasis_indices(scores) -> tuple[int, ...]:
    """Indices of the emphasis segment words, sorted ascending: the argmax
    (earliest on ties) plus its neighbours, extended inward at sentence
    boundaries to keep min(3, N) words.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0:
        raise EmptyInput("no words to select an emphasis segment from")
    if n <= 3:
        return tuple(range(n))
    m = int(np.argmax(scores))
    start = min(max(m - 1, 0), n - 3)
    return (start, start + 1, start + 2)


def analyze_words(track: ProsodyTrack, aligned) -> tuple[WordProsody, ...]:
    """Aggregate, standardize, and score a sentence of aligned words, given
    as (word interval, its phone intervals) pairs."""
    aligned = tuple(aligned)                # read twice, so not an iterator
    raws = [aggregate_word_prosody(track, w, ph) for w, ph in aligned]

    pitches = [r[0] for r in raws]
    defined = [p for p in pitches if p is not None]
    fill = float(np.mean(defined)) if defined else 0.0
    pitch_col = np.array([fill if p is None else p for p in pitches])
    energy_col = np.array([r[1] for r in raws])
    duration_col = np.array([r[2] for r in raws])

    z_pitch = zscore_normalize(pitch_col)
    z_energy = zscore_normalize(energy_col)
    z_duration = zscore_normalize(duration_col)

    scores = ALPHA * z_pitch + BETA * z_energy + GAMMA * z_duration
    return tuple(
        WordProsody(
            word=w.label, interval=w,
            f_pitch=float(pitch_col[i]), f_energy=float(energy_col[i]),
            f_duration=float(duration_col[i]),
            z_pitch=float(z_pitch[i]), z_energy=float(z_energy[i]),
            z_duration=float(z_duration[i]),
            score=float(scores[i]),
            pitch_defined=pitches[i] is not None)
        for i, (w, _) in enumerate(aligned))


def run_lemf(audio: AudioBuffer, tg: TextGrid,
             cfg: LemfConfig = LemfConfig()) -> LemfResult:
    """Full emphasis pipeline for one utterance.

    The grid's words and phones are resolved before the pitch track, so a
    bad tier fails without running the front end.
    """
    words = word_intervals(tg, cfg.word_tier)
    if not words:
        raise EmptyInput(f"tier {cfg.word_tier!r} has no word intervals")
    aligned = [(w, () if cfg.phone_tier is None
                else phones_for_word(tg, cfg.phone_tier, w)) for w in words]
    track = estimate_f0(audio, FrameConfig(), f0_min=cfg.f0_min,
                        f0_max=cfg.f0_max)
    scored = analyze_words(track, aligned)
    segment = select_emphasis_indices([w.score for w in scored])
    return LemfResult(words=scored, segment=segment, track=track)


def words_to_json(utt_id: str, result: LemfResult) -> dict:
    """The per-utterance JSON document emitted by the emphasis command."""
    return {
        "utt_id": utt_id,
        "words": [
            {
                "word": w.word,
                "xmin": w.interval.xmin,
                "xmax": w.interval.xmax,
                "f_pitch": w.f_pitch,
                "f_energy": w.f_energy,
                "f_duration": w.f_duration,
                "z_pitch": w.z_pitch,
                "z_energy": w.z_energy,
                "z_duration": w.z_duration,
                "score": w.score,
            }
            for w in result.words
        ],
        "segment": {
            "mode": "adjacent",
            "indices": list(result.segment),
            "words": [result.words[i].word for i in result.segment],
        },
    }

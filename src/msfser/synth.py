"""Seeded synthetic corpus: tone-burst utterances with known structure.

Each utterance is a row of harmonic tone bursts ("words") separated by
50 ms of silence, written as 16 kHz (``SAMPLE_RATE``, the rate of the
speech corpora it stands in for) mono PCM16 WAV plus an aligned
words/phones TextGrid.  Three latent emotion values (valence, arousal,
dominance) drive the generators along separate routes:

  arousal   -> audio: burst amplitude and base pitch both rise with it
  valence   -> the les and gs vectors (latent times a fixed direction
               plus isotropic noise)
  dominance -> the es vector only

Regression targets are the latents plus small Gaussian noise, so a
model can only recover dominance through the es channel; removing that
channel measurably costs dominance concordance while leaving arousal
alone.  A second generator plants one boosted word (louder, higher,
longer) in an otherwise uniform utterance for emphasis-detection tests.
All randomness flows from one PCG64 seed; outputs are byte-stable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import (CHANNELS, SPLITS, TARGET_NAMES, FrameConfig,
                     LemfConfig, SynthConfig)
from .dsp import (AudioBuffer, acoustic_frames, read_wav,
                  release_work_arrays, write_wav)
from .embeddings import EmbeddingStore, is_utt_id
from .errors import (MalformedRecord, MissingEmbedding, TooFewUtterances,
                     UnfitSignal, naming, read_text, write_json)
from .model import UttExample
from .numcore import seeded_rng
from .textgrid import Interval, TextGrid, Tier, serialize_textgrid

SAMPLE_RATE = 16000                         # Hz, of both generators' audio
SILENCE_GAP_S = 0.05
SYLLABLES = ("ba", "da", "ga", "ka", "ma", "na", "pa", "ta")
MANIFEST_VERSION = "msf-ser-synth-v1"
BASE_F0, BASE_AMP = 160.0, 0.08             # corpus voice at arousal 0
AROUSAL_OCTAVES = 0.4                       # pitch swing at |arousal| = 1
WORDS_MIN, WORDS_MAX = 4, 8                 # words per utterance, inclusive
WORD_DUR_MIN, WORD_DUR_MAX = 0.15, 0.28     # seconds
CHANNEL_NOISE, TARGET_NOISE = 0.05, 0.05


def _tone(n: int, f0: float, amp: float) -> np.ndarray:
    """Two-harmonic burst with raised-cosine attack and release."""
    t = np.arange(n) / SAMPLE_RATE
    wave = np.sin(2.0 * np.pi * f0 * t) + 0.5 * np.sin(4.0 * np.pi * f0 * t)
    ramp = min(int(0.01 * SAMPLE_RATE), max(1, n // 4))
    env = np.ones(n)
    fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[:ramp] = fade
    env[n - ramp:] = fade[::-1]
    return amp * env * wave


def _assemble(words: list[tuple[str, float, float, float]]
              ) -> tuple[AudioBuffer, TextGrid]:
    """Lay out (label, duration_s, f0, amp) bursts with silence gaps.

    Each tier tiles [0, xmax]: the words (or each word's two phones) with
    the silences between and around them labelled "".  Interval times come
    from integer sample counts, so the TextGrid and the waveform agree
    exactly.
    """
    gap = int(round(SILENCE_GAP_S * SAMPLE_RATE))
    pieces = [np.zeros(gap)]
    lead = Interval(0.0, gap / SAMPLE_RATE, "")
    word_iv, phone_iv = [lead], [lead]
    cursor = gap
    for label, dur, f0, amp in words:
        n = int(round(dur * SAMPLE_RATE))
        pieces += [_tone(n, f0, amp), np.zeros(gap)]
        x0, x1 = cursor / SAMPLE_RATE, (cursor + n) / SAMPLE_RATE
        split = (cursor + max(1, int(round(0.4 * n)))) / SAMPLE_RATE
        cursor += n + gap
        silence = Interval(x1, cursor / SAMPLE_RATE, "")
        word_iv += [Interval(x0, x1, label), silence]
        phone_iv += [Interval(x0, split, label[0]),
                     Interval(split, x1, label[1:]), silence]
    xmax = cursor / SAMPLE_RATE
    tg = TextGrid(xmin=0.0, xmax=xmax, tiers=(
        Tier(name=LemfConfig.word_tier, xmin=0.0, xmax=xmax,
             intervals=tuple(word_iv)),
        Tier(name=LemfConfig.phone_tier, xmin=0.0, xmax=xmax,
             intervals=tuple(phone_iv)),
    ))
    return AudioBuffer(samples=np.concatenate(pieces),
                       sample_rate=SAMPLE_RATE), tg


def make_emphasis_case(rng: np.random.Generator, n_words: int | None = None,
                       plant_index: int | None = None
                       ) -> tuple[AudioBuffer, TextGrid, int]:
    """One 16 kHz utterance of near-uniform words with a single boosted word.

    The words sit around 180 Hz and amplitude 0.08; the planted word is
    +6 dB louder, 4 semitones higher, and 1.5x longer than its neighbours.
    """
    if n_words is None:
        n_words = int(rng.integers(5, 10))
    if plant_index is None:
        plant_index = int(rng.integers(0, n_words))
    words = []
    for i in range(n_words):
        label = SYLLABLES[int(rng.integers(0, len(SYLLABLES)))]
        dur = float(rng.uniform(0.16, 0.22))
        f0 = 180.0 * 2.0 ** (rng.uniform(-1.0, 1.0) / 24.0)
        amp = 0.08 * float(rng.uniform(0.9, 1.1))
        if i == plant_index:
            dur *= 1.5
            f0 *= 2.0 ** (4.0 / 12.0)
            amp *= 10.0 ** (6.0 / 20.0)
        words.append((label, dur, f0, amp))
    audio, tg = _assemble(words)
    return audio, tg, plant_index


def synth_utterance(rng: np.random.Generator, latents: np.ndarray
                    ) -> tuple[AudioBuffer, TextGrid]:
    """Audio + alignment whose prosody encodes the arousal latent."""
    _, arousal, _ = latents
    f0 = BASE_F0 * 2.0 ** (AROUSAL_OCTAVES * arousal)
    amp = BASE_AMP * 2.0 ** arousal
    n_words = int(rng.integers(WORDS_MIN, WORDS_MAX + 1))
    words = []
    for _ in range(n_words):
        label = SYLLABLES[int(rng.integers(0, len(SYLLABLES)))]
        dur = float(rng.uniform(WORD_DUR_MIN, WORD_DUR_MAX))
        jitter = 2.0 ** (rng.uniform(-0.08, 0.08))
        words.append((label, dur, f0 * jitter, amp * float(rng.uniform(0.9, 1.1))))
    return _assemble(words)


def _channel_vector(rng: np.random.Generator, direction: np.ndarray,
                    value: float, noise: float) -> np.ndarray:
    dim = len(direction)
    return value * direction + noise * rng.standard_normal(dim) / math.sqrt(dim)


def _split_sizes(n_utts: int) -> dict[str, int]:
    """Utterances per split: 70% train, 15% dev, the rest test."""
    n_train, n_dev = int(round(n_utts * 0.7)), int(round(n_utts * 0.15))
    return dict(zip(SPLITS, (n_train, n_dev, n_utts - n_train - n_dev)))


def generate_dataset(out_dir, cfg: SynthConfig = SynthConfig()) -> dict:
    """Write WAVs, TextGrids, embeddings JSONL, targets CSV, manifest.
    Each split gets the 2 utterances evaluation needs, so n_utts >= 12."""
    sizes = _split_sizes(cfg.n_utts)
    for name, size in sizes.items():
        if size < 2:
            raise TooFewUtterances(
                f"{cfg.n_utts} utterances leave {size} in the {name} split; "
                f"each split needs at least 2, so use 12 or more")
    out = Path(out_dir)
    (out / "wavs").mkdir(parents=True, exist_ok=True)
    (out / "grids").mkdir(parents=True, exist_ok=True)

    rng = seeded_rng(cfg.seed)
    dir_rng = seeded_rng(cfg.seed + 7919)

    def unit(dim):
        vec = dir_rng.standard_normal(dim)
        return vec / np.linalg.norm(vec)

    u_les, u_gs, u_es = unit(cfg.les_dim), unit(cfg.gs_dim), unit(cfg.es_dim)

    # the utterance at each rank of a permutation goes to that rank's split
    ranked = [name for name in SPLITS for _ in range(sizes[name])]
    split_of = dict(zip(rng.permutation(cfg.n_utts).tolist(), ranked))

    store = EmbeddingStore()
    rows = []
    for i in range(cfg.n_utts):
        utt_id = f"utt_{i:04d}"
        latents = rng.uniform(-1.0, 1.0, size=3)
        audio, tg = synth_utterance(rng, latents)
        write_wav(out / "wavs" / f"{utt_id}.wav", audio)
        (out / "grids" / f"{utt_id}.TextGrid").write_text(
            serialize_textgrid(tg), encoding="utf-8")
        v, _, d = latents
        store.put(utt_id, "les", _channel_vector(rng, u_les, v, CHANNEL_NOISE))
        store.put(utt_id, "gs", _channel_vector(rng, u_gs, v, CHANNEL_NOISE))
        store.put(utt_id, "es", _channel_vector(rng, u_es, d, CHANNEL_NOISE))
        target = latents + TARGET_NOISE * rng.standard_normal(3)
        rows.append((utt_id, split_of[i], target))

    store.save_jsonl(out / "embeddings.jsonl")
    with open(out / "targets.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["utt_id", "split", *TARGET_NAMES])
        for utt_id, split, target in rows:
            writer.writerow([utt_id, split] + [repr(float(x)) for x in target])

    manifest = {
        "version": MANIFEST_VERSION,
        "config": asdict(cfg),
        "splits": sizes,
    }
    write_json(manifest, out / "manifest.json", indent=1, sort_keys=True)
    return manifest


def read_targets_csv(path) -> list[dict]:
    """Rows of {utt_id, split, target (3,)} in file order.

    A file that is not UTF-8 or not CSV, or a row with a blank or repeated
    utt_id, a missing column, a split outside SPLITS, or a target that is
    not a finite number raises MalformedRecord.
    """
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    need = {"utt_id", "split", *TARGET_NAMES}
    rows, seen = [], set()
    with naming(path, MalformedRecord):
        try:
            fields = reader.fieldnames
            # each row with the line it ends on
            records = [(reader.line_num, rec) for rec in reader]
        except csv.Error as exc:    # such as a field over the size limit
            # DictReader.line_num counts only the rows it returned
            raise MalformedRecord(f"line {reader.reader.line_num}: {exc}"
                                  ) from None
        if fields is None or not need.issubset(fields):
            raise MalformedRecord(
                f"targets CSV must have columns {sorted(need)}")
        for line, rec in records:
            utt_id = rec["utt_id"]
            if not is_utt_id(utt_id):
                raise MalformedRecord(
                    f"line {line}: 'utt_id' must be a non-empty string")
            if utt_id in seen or any(rec[key] is None for key in need):
                what = "is listed twice" if utt_id in seen else "lacks columns"
                raise MalformedRecord(f"utterance {utt_id!r} {what}")
            seen.add(utt_id)
            if rec["split"] not in SPLITS:
                raise MalformedRecord(
                    f"utterance {utt_id!r} has split {rec['split']!r}, "
                    f"expected one of {SPLITS}")
            try:
                target = np.array([float(rec[key]) for key in TARGET_NAMES])
            except ValueError as exc:
                raise MalformedRecord(f"utterance {utt_id!r} has a target "
                                      f"that is not a number: {exc}") from None
            if not np.all(np.isfinite(target)):
                raise MalformedRecord(f"utterance {utt_id!r} has a non-finite "
                                      f"target {target.tolist()}")
            rows.append(dict(utt_id=utt_id, split=rec["split"], target=target))
    return rows


def load_examples(data_dir, split: str) -> list[UttExample]:
    """Materialize model-ready examples of one split of a generated dataset,
    each WAV featurised by the one front end (config.FEATURES).  Every WAV
    of the split reuses one set of dsp work arrays, which the calling
    thread drops when this returns or raises.

    A split that targets.csv gives fewer than two utterances raises
    TooFewUtterances before any WAV is read (generate_dataset keeps the
    same rule), and an utterance that embeddings.jsonl lacks raises
    MissingEmbedding, each naming that file.  A WAV that the front end
    does not fit (too short for one window, or sampled too slowly) raises
    UnfitSignal naming the WAV and its utterance.
    """
    root = Path(data_dir)
    embeddings = root / "embeddings.jsonl"
    store = EmbeddingStore.load_jsonl(embeddings)
    targets = root / "targets.csv"
    rows = [r for r in read_targets_csv(targets) if r["split"] == split]
    if len(rows) < 2:
        raise TooFewUtterances(
            f"{targets}: split {split!r} has {len(rows)} utterance"
            f"{'' if len(rows) == 1 else 's'}; each split needs at least 2")
    examples = []
    try:
        for rec in rows:
            utt_id = rec["utt_id"]
            wav = root / "wavs" / f"{utt_id}.wav"
            audio = read_wav(wav)
            with naming(f"{wav} (utterance {utt_id!r})", UnfitSignal):
                frames = acoustic_frames(audio, FrameConfig())
            with naming(embeddings, MissingEmbedding):
                les, gs, es = [store.get(utt_id, ch) for ch in CHANNELS]
            examples.append(UttExample(utt_id=utt_id, frames=frames, les=les,
                                       gs=gs, es=es, target=rec["target"]))
    finally:
        release_work_arrays()
    return examples

"""Seeded synthetic corpus: tone-burst utterances with known structure.

Each utterance is a row of harmonic tone bursts ("words") separated by
50 ms of silence, written as PCM16 WAV plus an aligned words/phones
TextGrid.  Three latent emotion values (valence, arousal, dominance)
drive the generators along separate routes:

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
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dsp import AudioBuffer, FrameConfig, acoustic_frames, read_wav, write_wav
from .embeddings import EmbeddingStore
from .errors import MalformedRecord, TooFewUtterances
from .model import UttExample
from .numcore import finite_json, seeded_rng
from .textgrid import Interval, TextGrid, Tier, serialize_textgrid

SILENCE_GAP_S = 0.05
SYLLABLES = ("ba", "da", "ga", "ka", "ma", "na", "pa", "ta")
MANIFEST_VERSION = "msf-ser-synth-v1"
F0_MAX = 450.0          # the default upper pitch bound for featurising a corpus


@dataclass(frozen=True)
class SynthConfig:
    n_utts: int = 160
    sample_rate: int = 16000
    les_dim: int = 16
    gs_dim: int = 16
    es_dim: int = 16
    base_f0: float = 160.0
    base_amp: float = 0.08
    words_min: int = 4
    words_max: int = 8
    word_dur_min: float = 0.15
    word_dur_max: float = 0.28
    arousal_octaves: float = 0.4      # pitch swing at |arousal| = 1
    channel_noise: float = 0.05
    target_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("les_dim", "gs_dim", "es_dim"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.sample_rate >= 4 * F0_MAX:
            # the rule estimate_f0 applies when the corpus is featurised
            raise ValueError(f"sample_rate must be >= {4 * F0_MAX:g} to resolve "
                             f"f0 up to {F0_MAX:g} Hz, got {self.sample_rate}")
        if self.words_min > self.words_max:
            raise ValueError(f"need words_min <= words_max, got "
                             f"{self.words_min} > {self.words_max}")


def _tone(n: int, sample_rate: int, f0: float, amp: float) -> np.ndarray:
    """Two-harmonic burst with raised-cosine attack and release."""
    t = np.arange(n) / sample_rate
    wave = np.sin(2.0 * np.pi * f0 * t) + 0.5 * np.sin(4.0 * np.pi * f0 * t)
    ramp = min(int(0.01 * sample_rate), max(1, n // 4))
    env = np.ones(n)
    fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[:ramp] = fade
    env[n - ramp:] = fade[::-1]
    return amp * env * wave


def _assemble(words: list[tuple[str, float, float, float]],
              sample_rate: int) -> tuple[AudioBuffer, TextGrid]:
    """Lay out (label, duration_s, f0, amp) bursts with silence gaps.

    Interval times come from integer sample counts, so the TextGrid and
    the waveform agree exactly.
    """
    gap = int(round(SILENCE_GAP_S * sample_rate))
    pieces = [np.zeros(gap)]
    word_iv, phone_iv = [], []
    cursor = gap
    for label, dur, f0, amp in words:
        n = int(round(dur * sample_rate))
        pieces.append(_tone(n, sample_rate, f0, amp))
        x0, x1 = cursor / sample_rate, (cursor + n) / sample_rate
        word_iv.append(Interval(x0, x1, label))
        split = cursor + max(1, int(round(0.4 * n)))
        phone_iv.append(Interval(x0, split / sample_rate, label[0]))
        phone_iv.append(Interval(split / sample_rate, x1, label[1:]))
        pieces.append(np.zeros(gap))
        cursor += n + gap
    samples = np.concatenate(pieces)
    xmax = len(samples) / sample_rate

    def with_gaps(iv):
        full, prev = [], 0.0
        for itv in iv:
            if itv.xmin > prev:
                full.append(Interval(prev, itv.xmin, ""))
            full.append(itv)
            prev = itv.xmax
        if prev < xmax:
            full.append(Interval(prev, xmax, ""))
        return tuple(full)

    tg = TextGrid(xmin=0.0, xmax=xmax, tiers=(
        Tier(name="words", xmin=0.0, xmax=xmax, intervals=with_gaps(word_iv)),
        Tier(name="phones", xmin=0.0, xmax=xmax, intervals=with_gaps(phone_iv)),
    ))
    return AudioBuffer(samples=samples, sample_rate=sample_rate), tg


def make_emphasis_case(rng: np.random.Generator, sample_rate: int = 16000,
                       n_words: int | None = None,
                       plant_index: int | None = None,
                       base_f0: float = 180.0, base_amp: float = 0.08
                       ) -> tuple[AudioBuffer, TextGrid, int]:
    """One utterance of near-uniform words with a single boosted word.

    The planted word is +6 dB louder, 4 semitones higher, and 1.5x
    longer than its neighbours.
    """
    if n_words is None:
        n_words = int(rng.integers(5, 10))
    if plant_index is None:
        plant_index = int(rng.integers(0, n_words))
    words = []
    for i in range(n_words):
        label = SYLLABLES[int(rng.integers(0, len(SYLLABLES)))]
        dur = float(rng.uniform(0.16, 0.22))
        f0 = base_f0 * 2.0 ** (rng.uniform(-1.0, 1.0) / 24.0)
        amp = base_amp * float(rng.uniform(0.9, 1.1))
        if i == plant_index:
            dur *= 1.5
            f0 *= 2.0 ** (4.0 / 12.0)
            amp *= 10.0 ** (6.0 / 20.0)
        words.append((label, dur, f0, amp))
    audio, tg = _assemble(words, sample_rate)
    return audio, tg, plant_index


def synth_utterance(rng: np.random.Generator, cfg: SynthConfig,
                    latents: np.ndarray) -> tuple[AudioBuffer, TextGrid]:
    """Audio + alignment whose prosody encodes the arousal latent."""
    _, arousal, _ = latents
    f0 = cfg.base_f0 * 2.0 ** (cfg.arousal_octaves * arousal)
    amp = cfg.base_amp * 2.0 ** arousal
    n_words = int(rng.integers(cfg.words_min, cfg.words_max + 1))
    words = []
    for _ in range(n_words):
        label = SYLLABLES[int(rng.integers(0, len(SYLLABLES)))]
        dur = float(rng.uniform(cfg.word_dur_min, cfg.word_dur_max))
        jitter = 2.0 ** (rng.uniform(-0.08, 0.08))
        words.append((label, dur, f0 * jitter, amp * float(rng.uniform(0.9, 1.1))))
    return _assemble(words, cfg.sample_rate)


def _channel_vector(rng: np.random.Generator, direction: np.ndarray,
                    value: float, noise: float) -> np.ndarray:
    dim = len(direction)
    return value * direction + noise * rng.standard_normal(dim) / math.sqrt(dim)


def generate_dataset(out_dir, cfg: SynthConfig = SynthConfig()) -> dict:
    """Write WAVs, TextGrids, embeddings JSONL, targets CSV, manifest."""
    if cfg.n_utts < 10:
        raise TooFewUtterances(
            f"a useful synthetic set needs >= 10 utterances, got {cfg.n_utts}")
    out = Path(out_dir)
    (out / "wavs").mkdir(parents=True, exist_ok=True)
    (out / "grids").mkdir(parents=True, exist_ok=True)

    rng = seeded_rng(cfg.seed)
    dir_rng = seeded_rng(cfg.seed + 7919)

    def unit(dim):
        vec = dir_rng.standard_normal(dim)
        return vec / np.linalg.norm(vec)

    u_les, u_gs, u_es = unit(cfg.les_dim), unit(cfg.gs_dim), unit(cfg.es_dim)

    order = rng.permutation(cfg.n_utts)
    n_train = int(round(cfg.n_utts * 0.7))
    n_dev = int(round(cfg.n_utts * 0.15))
    split_of = {}
    for rank, idx in enumerate(order):
        split_of[int(idx)] = ("train" if rank < n_train else
                              "dev" if rank < n_train + n_dev else "test")

    store = EmbeddingStore()
    rows = []
    for i in range(cfg.n_utts):
        utt_id = f"utt_{i:04d}"
        latents = rng.uniform(-1.0, 1.0, size=3)
        audio, tg = synth_utterance(rng, cfg, latents)
        write_wav(out / "wavs" / f"{utt_id}.wav", audio)
        (out / "grids" / f"{utt_id}.TextGrid").write_text(
            serialize_textgrid(tg), encoding="utf-8")
        v, _, d = latents
        store.put(utt_id, "les", _channel_vector(rng, u_les, v, cfg.channel_noise))
        store.put(utt_id, "gs", _channel_vector(rng, u_gs, v, cfg.channel_noise))
        store.put(utt_id, "es", _channel_vector(rng, u_es, d, cfg.channel_noise))
        target = latents + cfg.target_noise * rng.standard_normal(3)
        rows.append((utt_id, split_of[i], target))

    store.save_jsonl(out / "embeddings.jsonl")
    with open(out / "targets.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["utt_id", "split", "valence", "arousal", "dominance"])
        for utt_id, split, target in rows:
            writer.writerow([utt_id, split] + [repr(float(x)) for x in target])

    manifest = {
        "version": MANIFEST_VERSION,
        "config": asdict(cfg),
        "splits": {name: sum(1 for _, s, _ in rows if s == name)
                   for name in ("train", "dev", "test")},
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(finite_json(manifest, manifest_path, indent=1,
                                         sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def read_targets_csv(path) -> list[dict]:
    """Rows of {utt_id, split, target (3,)} in file order.

    A row with a missing column, a repeated utt_id, or a non-finite
    valence, arousal or dominance raises MalformedRecord.
    """
    rows, seen = [], set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"utt_id", "split", "valence", "arousal", "dominance"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise MalformedRecord(
                f"{path}: targets CSV must have columns {sorted(need)}")
        for rec in reader:
            utt_id = rec["utt_id"]
            if utt_id in seen or any(rec[key] is None for key in need):
                what = "is listed twice" if utt_id in seen else "lacks columns"
                raise MalformedRecord(f"{path}: utterance {utt_id!r} {what}")
            seen.add(utt_id)
            target = np.array([float(rec["valence"]), float(rec["arousal"]),
                               float(rec["dominance"])])
            if not np.all(np.isfinite(target)):
                raise MalformedRecord(f"{path}: utterance {utt_id!r} has a "
                                      f"non-finite target {target.tolist()}")
            rows.append({"utt_id": utt_id, "split": rec["split"],
                         "target": target})
    return rows


def load_examples(data_dir, split: str | None = None,
                  frame_cfg: FrameConfig = FrameConfig(),
                  n_bands: int = 8, f0_min: float = 70.0,
                  f0_max: float = F0_MAX) -> list[UttExample]:
    """Materialize model-ready examples from a generated dataset directory."""
    root = Path(data_dir)
    store = EmbeddingStore.load_jsonl(root / "embeddings.jsonl")
    rows = read_targets_csv(root / "targets.csv")
    if split is not None:
        rows = [r for r in rows if r["split"] == split]
    if not rows:
        raise TooFewUtterances(
            f"no utterances in {data_dir!s} for split {split!r}")
    examples = []
    for rec in rows:
        utt_id = rec["utt_id"]
        audio = read_wav(root / "wavs" / f"{utt_id}.wav")
        frames = acoustic_frames(audio, frame_cfg, n_bands=n_bands,
                                 f0_min=f0_min, f0_max=f0_max)
        examples.append(UttExample(
            utt_id=utt_id, frames=frames,
            les=store.get(utt_id, "les"), gs=store.get(utt_id, "gs"),
            es=store.get(utt_id, "es"), target=rec["target"]))
    return examples

"""Every setting's one home: shared constants, the data rules that more
than one module applies, and the config dataclasses.

Pure Python, no numpy, so the command line can read its flag defaults
without loading the modules that do the work.  Each class is re-exported
by the module that uses it (``msfser.dsp.FrameConfig``,
``msfser.model.ModelConfig``, ...), so those import paths keep working.
A value out of range raises :class:`~msfser.errors.BadSetting` naming
the setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BadSetting

F0_MIN, F0_MAX = 70.0, 450.0        # pitch search range in Hz
N_BANDS = 8                         # mel bands per acoustic frame
EXPERT_NAMES = ("A", "B", "C")
CHANNELS = ("les", "gs", "es")      # the text-embedding channels
TARGET_NAMES = ("valence", "arousal", "dominance")  # the regression targets
SPLITS = ("train", "dev", "test")   # the corpus splits targets.csv names


def acoustic_width(n_bands: int) -> int:
    """Columns of an acoustic frame: log-energy, log-F0-or-0 and the voiced
    flag, then the mel bands."""
    return 3 + n_bands


def min_sample_rate(f0_max: float) -> float:
    """The lowest sample rate at which the pitch tracker resolves f0 up to
    f0_max: four samples per period."""
    return 4 * f0_max


@dataclass(frozen=True)
class FrameConfig:
    win_ms: float = 20.0
    hop_ms: float = 5.0
    window: str = "hann"

    def __post_init__(self):
        if not 0 < self.hop_ms <= self.win_ms < math.inf:
            raise BadSetting(f"need finite 0 < hop_ms <= win_ms, got "
                             f"hop_ms={self.hop_ms}, win_ms={self.win_ms}",
                             "hop_ms", "win_ms")
        if self.window not in ("hann", "rectangular"):
            raise BadSetting(f"unknown window {self.window!r}", "window")

    def win_samples(self, sample_rate: int) -> int:
        return int(round(self.win_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return max(1, int(round(self.hop_ms * sample_rate / 1000.0)))


@dataclass(frozen=True)
class LemfConfig:
    frame: FrameConfig = field(default_factory=FrameConfig)
    mode: str = "adjacent"          # "adjacent" | "topk"
    top_k: int = 3
    word_tier: str = "words"
    phone_tier: str | None = "phones"
    f0_min: float = F0_MIN
    f0_max: float = F0_MAX


@dataclass(frozen=True)
class SynthConfig:
    n_utts: int = 160
    sample_rate: int = 16000
    les_dim: int = 16
    gs_dim: int = 16
    es_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("les_dim", "gs_dim", "es_dim"):
            if not getattr(self, name) >= 1:
                raise BadSetting(
                    f"{name} must be >= 1, got {getattr(self, name)}", name)
        lowest = min_sample_rate(F0_MAX)
        if not self.sample_rate >= lowest:
            raise BadSetting(f"sample_rate must be >= {lowest:g} to resolve "
                             f"f0 up to {F0_MAX:g} Hz, got {self.sample_rate}",
                             "sample_rate")


@dataclass(frozen=True)
class ModelConfig:
    acoustic_dim: int
    les_dim: int
    gs_dim: int
    es_dim: int
    d_model: int = 32
    att_dim: int = 32
    film_hidden: int = 32
    expert_hidden: int = 32
    experts: tuple[str, ...] = EXPERT_NAMES
    dropout: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not self.experts or any(e not in EXPERT_NAMES for e in self.experts):
            raise BadSetting(
                f"experts must be a non-empty subset of {EXPERT_NAMES}, "
                f"got {self.experts}", "experts")
        if len(set(self.experts)) != len(self.experts):
            raise BadSetting(f"duplicate experts in {self.experts}", "experts")
        for name in ("acoustic_dim", "les_dim", "gs_dim", "es_dim", "d_model",
                     "att_dim", "film_hidden", "expert_hidden"):
            if not getattr(self, name) >= 1:
                raise BadSetting(
                    f"{name} must be >= 1, got {getattr(self, name)}", name)
        if not 0.0 <= self.dropout < 1.0:
            raise BadSetting(f"dropout must be in [0, 1), got {self.dropout}",
                             "dropout")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["experts"] = tuple(d.get("experts", EXPERT_NAMES))
        return cls(**d)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    accum_steps: int = 4
    lr: float = 1e-5
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise BadSetting(f"epochs must be >= 1, got {self.epochs}",
                             "epochs")
        if self.batch_size < 2:
            # a micro-batch needs two utterances for the concordance loss
            raise BadSetting(
                f"batch_size must be >= 2, got {self.batch_size}", "batch_size")
        if self.accum_steps < 1:
            raise BadSetting(
                f"accum_steps must be >= 1, got {self.accum_steps}",
                "accum_steps")
        if not 0 < self.lr < math.inf:
            raise BadSetting(f"lr must be finite and > 0, got {self.lr}", "lr")
        if not 0 <= self.weight_decay < math.inf:
            raise BadSetting(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}",
                "weight_decay")

"""Every setting's one home: shared constants, the data rules that more
than one module applies (a rule of one module, such as dsp's sample-rate
floor, lives there), the config dataclasses and FEATURES.

Pure Python, no numpy, so the command line can read its flag defaults
without loading the modules that do the work.  Each class is re-exported
by the module that uses it (``msfser.dsp.FrameConfig``,
``msfser.model.ModelConfig``, ...), so those import paths keep working.
A value out of range raises :class:`~msfser.errors.BadSetting` naming
the setting; :func:`from_dict` reads a config class back from JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import BadSetting, MalformedRecord

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


def at_least(low, settings: dict, *names) -> None:
    """Each named setting (every one if none is named) is >= low; NaN is not."""
    for name in names or settings:
        value = settings[name]
        if not value >= low:
            raise BadSetting(f"{name} must be >= {low}, got {value}")


def check_dropout(rate: float) -> None:
    """A dropout rate lies in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise BadSetting(f"dropout must be in [0, 1), got {rate}")


@dataclass(frozen=True)
class FrameConfig:
    win_ms: float = 20.0
    hop_ms: float = 5.0
    window: str = "hann"

    def __post_init__(self):
        if not 0 < self.hop_ms <= self.win_ms < math.inf:
            raise BadSetting(f"need finite 0 < hop_ms <= win_ms, got "
                             f"hop_ms={self.hop_ms}, win_ms={self.win_ms}")
        if self.window not in ("hann", "rectangular"):
            raise BadSetting(f"unknown window {self.window!r}")

    def win_samples(self, sample_rate: int) -> int:
        return int(round(self.win_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return max(1, int(round(self.hop_ms * sample_rate / 1000.0)))


# the one front end of every command, as train_config.json records it
FEATURES = {"win_ms": FrameConfig.win_ms, "hop_ms": FrameConfig.hop_ms,
            "n_bands": N_BANDS, "f0_min": F0_MIN, "f0_max": F0_MAX}


@dataclass(frozen=True)
class LemfConfig:
    word_tier: str = "words"            # the tiers synth writes
    phone_tier: str | None = "phones"
    f0_min: float = F0_MIN
    f0_max: float = F0_MAX


@dataclass(frozen=True)
class SynthConfig:
    n_utts: int = 160
    les_dim: int = 16
    gs_dim: int = 16
    es_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        at_least(1, vars(self), "les_dim", "gs_dim", "es_dim")
        at_least(0, vars(self), "seed")


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
                f"got {self.experts}")
        if len(set(self.experts)) != len(self.experts):
            raise BadSetting(f"duplicate experts in {self.experts}")
        at_least(1, vars(self), "acoustic_dim", "les_dim", "gs_dim", "es_dim",
                 "d_model", "att_dim", "film_hidden", "expert_hidden")
        at_least(0, vars(self), "seed")
        check_dropout(self.dropout)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    accum_steps: int = 4
    lr: float = 1e-5
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        at_least(1, vars(self), "epochs")
        # a micro-batch needs two utterances for the concordance loss
        at_least(2, vars(self), "batch_size")
        at_least(1, vars(self), "accum_steps")
        at_least(0, vars(self), "seed")
        if not 0 < self.lr < math.inf:
            raise BadSetting(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise BadSetting(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")


# The JSON value types a field of each annotation takes, the last being
# what a command-line string converts to; a bool is none of them.
FIELD_TYPES = {"int": (int,), "float": (int, float),
               "tuple[str, ...]": (list, tuple)}


def from_dict(cls, obj, section: str):
    """The config class cls from a JSON object that holds exactly its
    fields, each of a type FIELD_TYPES gives its annotation, or else
    MalformedRecord naming section; cls checks the ranges."""
    kinds = {f.name: FIELD_TYPES[f.type] for f in fields(cls)}
    if not (isinstance(obj, dict) and set(obj) == set(kinds)
            and all(type(obj[name]) in kinds[name] for name in kinds)):
        raise MalformedRecord(f"'{section}' must hold exactly " + ", ".join(
            f"{name}: {' or '.join(t.__name__ for t in types)}"
            for name, types in kinds.items()))
    return cls(**{k: tuple(v) if type(v) is list else v for k, v in obj.items()})

"""Output checks.  Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path


def process_problems(returncode: int, stderr: str) -> list[str]:
    """A call fails on a non-zero exit or a traceback on stderr."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def same_digests(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """C8: a repeat with the same seed writes byte-identical artifacts."""
    return [f"{name} differs from the first repeat (C8)"
            for name in sorted(first) if again.get(name) != first[name]]


def ccc_floor(value: float, floor: float | None, what: str) -> list[str]:
    if not math.isfinite(value):
        return [f"{what} is not finite: {value}"]
    if floor is not None and value < floor:
        return [f"{what} {value:.4f} < {floor}"]
    return []


def c6_bounds(full, ablated, size, enforce_arousal: bool) -> list[str]:
    """C6 on the ablation pair: (valence, arousal, dominance) CCC of each model.

    The arousal bound is a property of the C6 corpus (seed 0).  On other
    corpus seeds the shift is reported by the caller but not enforced; see
    README.md for the measured excursions.
    """
    problems = ccc_floor(sum(full) / 3.0, size.ccc_floor, "full-model ccc_avg")
    if size.dominance_drop is not None and full[2] - ablated[2] < size.dominance_drop:
        problems.append(f"dominance drop {full[2] - ablated[2]:.4f} "
                        f"< {size.dominance_drop}")
    shift = abs(full[1] - ablated[1])
    if enforce_arousal and size.arousal_shift is not None \
            and shift >= size.arousal_shift:
        problems.append(f"arousal shift {shift:.4f} >= {size.arousal_shift}")
    return problems


def emphasis_doc(doc: dict, words: list[str]) -> list[str]:
    """The emphasis JSON names the grid's words, in order, each with a score."""
    got = [w.get("word") for w in doc.get("words", [])]
    if got != words:
        return [f"words {got} != grid words {words}"]
    if not all(isinstance(w.get("score"), float) and math.isfinite(w["score"])
               for w in doc["words"]):
        return ["a word has no finite score"]
    return []


def hit_rate(hits: int, calls: int, floor: float | None) -> list[str]:
    """C4: the planted word ranks first in at least `floor` of the calls."""
    if floor is not None and hits < floor * calls:
        return [f"top-1 hit rate {hits}/{calls} < {floor}"]
    return []


def trace_counts(layer: dict[str, float], workload: str,
                 expected: dict[str, int]) -> list[str]:
    """Spans fire where the workload exercises them, and nowhere else.

    A wrapper missing from an import site shows up here as 0 calls
    instead of a silent 0 s.
    """
    problems = []
    for name in MUST_CALL[workload]:
        if layer[f"{name}.calls"] <= 0:
            problems.append(f"{name} recorded no calls on {workload}")
    for name in MUST_NOT_CALL[workload]:
        if layer[f"{name}.calls"] != 0:
            problems.append(f"{name} recorded {layer[f'{name}.calls']} calls "
                            f"on {workload}, which must bypass it")
    for key, want in expected.items():
        if layer[key] != want:
            problems.append(f"{key} = {layer[key]}, expected {want}")
    for key, value in layer.items():
        if key.endswith(".errors") and value:
            problems.append(f"{value} exceptions escaped {key[:-7]} spans")
    return problems


_MODEL = ("model.forward", "model.backward", "model.attentive_pool",
          "model.gated_fuse", "model.film_modulate", "model.moe_combine",
          "model.train_model", "model.evaluate", "numcore.ccc_loss",
          "numcore.layer_norm_fwd", "numcore.adamw_step")
_FEATURES = ("dsp.estimate_f0", "dsp.acoustic_frames", "dsp.frame_signal",
             "dsp.mel_filterbank", "dsp.read_wav", "synth.load_examples",
             "embeddings.load_jsonl")
_SYNTH = ("synth.generate_dataset", "dsp.write_wav", "textgrid.serialize_textgrid",
          "embeddings.save_jsonl")

MUST_CALL = {
    "pipeline": _SYNTH + _FEATURES + _MODEL + ("numcore.save_checkpoint",
                                               "numcore.load_checkpoint"),
    "emphasis": ("textgrid.read_textgrid_file", "dsp.read_wav",
                 "dsp.estimate_f0", "dsp.frame_signal", "lemf.run_lemf"),
    "train": _SYNTH + _FEATURES + _MODEL,
}
MUST_NOT_CALL = {
    "pipeline": ("lemf.run_lemf", "textgrid.read_textgrid_file"),
    "emphasis": _MODEL + _SYNTH + ("dsp.acoustic_frames", "dsp.mel_filterbank",
                                   "synth.load_examples", "embeddings.load_jsonl",
                                   "numcore.save_checkpoint",
                                   "numcore.load_checkpoint"),
    "train": ("lemf.run_lemf", "textgrid.read_textgrid_file",
              "numcore.save_checkpoint", "numcore.load_checkpoint"),
}

"""Spans around msfser's public functions, installed from outside the package.

The tracer replaces a function at every binding site it has among the
loaded ``msfser`` modules (``estimate_f0`` is bound in both ``msfser.dsp``
and ``msfser.lemf``, ``read_wav`` in ``msfser.cli`` and ``msfser.synth``,
...), so a call through any import path is recorded.  Methods are wrapped
on their class.  Spans stay in memory as [name, start, end, parent index,
run id, raised] and are written out once, when the workload ends.

A span's self time is its duration minus the time its direct children
cover; single-threaded code nests children inside their parent, so the
subtraction is exact.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) -> span "<layer>.<function>"
FUNCTIONS = (
    ("msfser.textgrid", "read_textgrid_file"),
    ("msfser.textgrid", "serialize_textgrid"),
    ("msfser.dsp", "estimate_f0"),
    ("msfser.dsp", "acoustic_frames"),
    ("msfser.dsp", "frame_signal"),
    ("msfser.dsp", "mel_filterbank"),
    ("msfser.dsp", "read_wav"),
    ("msfser.dsp", "write_wav"),
    ("msfser.lemf", "run_lemf"),
    ("msfser.synth", "generate_dataset"),
    ("msfser.synth", "load_examples"),
    ("msfser.model", "attentive_pool"),
    ("msfser.model", "gated_fuse"),
    ("msfser.model", "film_modulate"),
    ("msfser.model", "moe_combine"),
    ("msfser.model", "train_model"),
    ("msfser.model", "evaluate"),
    ("msfser.numcore", "ccc_loss"),
    ("msfser.numcore", "layer_norm_fwd"),
    ("msfser.numcore", "save_checkpoint"),
    ("msfser.numcore", "load_checkpoint"),
)

# (module, class, attribute, span name)
METHODS = (
    ("msfser.embeddings", "EmbeddingStore", "save_jsonl", "embeddings.save_jsonl"),
    ("msfser.embeddings", "EmbeddingStore", "load_jsonl", "embeddings.load_jsonl"),
    ("msfser.model", "MsfSerModel", "forward", "model.forward"),
    ("msfser.model", "MsfSerModel", "backward", "model.backward"),
    ("msfser.numcore", "AdamW", "step", "numcore.adamw_step"),
)

LAYERS = ("textgrid", "dsp", "lemf", "embeddings", "synth", "model", "numcore")


def span_names() -> list[str]:
    return ([f"{mod.split('.')[-1]}.{attr}" for mod, attr in FUNCTIONS]
            + [name for *_, name in METHODS])


def _count_track(counters: Counter, track) -> None:
    counters["dsp.frames"] += len(track)
    counters["dsp.voiced_frames"] += int(track.voiced.sum())


def _count_words(counters: Counter, result) -> None:
    counters["lemf.words"] += len(result.words)


OBSERVERS = {"dsp.estimate_f0": _count_track, "lemf.run_lemf": _count_words}


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.sites: dict[str, list[str]] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.run_id, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counters, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its binding sites."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), attr)
            name = f"{mod_name.split('.')[-1]}.{attr}"
            wrapper = self._wrap(name, orig)
            sites = []
            for loaded_name, module in sorted(sys.modules.items()):
                if loaded_name != "msfser" and not loaded_name.startswith("msfser."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, orig, wrapper)
                        sites.append(f"{loaded_name}.{key}")
            self.sites[name] = sites
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patch(cls, attr, raw, wrapped)
            self.sites[name] = [f"{mod_name}.{cls_name}.{attr}"]

    def _patch(self, owner, attr, orig, value) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ results

    def summary(self, traced_wall: float) -> dict[str, float]:
        """Per-span self time and calls, layer error counts, coverage."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        errors = defaultdict(int)
        top_level = 0.0
        for i, (name, start, end, parent, _, raised) in enumerate(self.spans):
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            out[f"{name}.calls"] += 1
            if raised:
                errors[name.split(".")[0]] += 1
            if parent < 0:
                top_level += end - start
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors[layer]
        frames = self.counters["dsp.frames"]
        voiced = self.counters["dsp.voiced_frames"]
        f0_time = sum(end - start for name, start, end, *_ in self.spans
                      if name == "dsp.estimate_f0")
        out["dsp.frames"] = frames
        out["dsp.voiced_frames"] = voiced
        out["dsp.voiced_ratio"] = voiced / frames if frames else 0.0
        out["dsp.frames_per_s"] = frames / f0_time if f0_time > 0 else 0.0
        out["lemf.words"] = self.counters["lemf.words"]
        out["trace.coverage"] = top_level / traced_wall if traced_wall > 0 else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "run_id",
                                   "raised"],
                       "spans": self.spans}, fh)

"""Utterance-level text embeddings and their JSONL interchange format.

The model reads three text channels (les: emphasized-segment text, gs:
full transcript, es: extended description), one vector per utterance and
channel.  Real deployments take them from large encoder models; ``synth``
writes them from its corpus latents.  Either way they flow through
:class:`EmbeddingStore`, one JSON object per line:

    {"id": "utt_0001", "channel": "gs", "vector": [0.12, -0.3, ...]}
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import CHANNELS
from .errors import (DimMismatch, DuplicateKey, MalformedRecord,
                     MissingEmbedding, finite_json, json_object, naming,
                     read_text, split_lines)


def is_utt_id(value) -> bool:
    """An utterance id is a non-empty string (whitespace included): the
    store keys its vectors by one, and targets.csv lists one per row."""
    return isinstance(value, str) and value != ""


def _parse_record(line: str) -> tuple[str, str, list[float]]:
    """(id, channel, vector) of one JSONL line; put() checks the values."""
    # every number as a float, so an integer too large for float64
    # reads as infinity, which put() rejects
    obj = json_object(line, parse_int=float)
    for key in ("id", "channel", "vector"):
        if key not in obj:
            raise MalformedRecord(f"missing key {key!r}")
    utt_id, channel, vector = obj["id"], obj["channel"], obj["vector"]
    if not isinstance(vector, list) or not all(type(v) is float for v in vector):
        raise MalformedRecord("'vector' must be a list of numbers")
    return utt_id, channel, vector


class EmbeddingStore:
    """In-memory map (utterance id, channel) -> vector with JSONL I/O.

    Vectors within one channel must share a dimension; the pair key is
    write-once.
    """

    def __init__(self):
        self._vectors: dict[tuple[str, str], np.ndarray] = {}
        self._dims: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._vectors)

    def put(self, utt_id: str, channel: str, vector) -> None:
        if not is_utt_id(utt_id):
            raise MalformedRecord("'id' must be a non-empty string")
        if channel not in CHANNELS:
            raise MalformedRecord(
                f"unknown channel {channel!r}, expected one of {CHANNELS}")
        arr = np.asarray(vector, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise MalformedRecord("vector must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise MalformedRecord("vector contains non-finite values")
        key = (utt_id, channel)
        if key in self._vectors:
            raise DuplicateKey(
                f"embedding for id {utt_id!r} channel {channel!r} already stored")
        want = self._dims.get(channel)
        if want is not None and arr.size != want:
            raise DimMismatch(
                f"channel {channel!r} holds {want}-dim vectors, got {arr.size} "
                f"for id {utt_id!r}")
        self._dims.setdefault(channel, arr.size)
        self._vectors[key] = arr.copy()

    def get(self, utt_id: str, channel: str) -> np.ndarray:
        key = (utt_id, channel)
        if key not in self._vectors:
            raise MissingEmbedding(
                f"no {channel!r} embedding for utterance {utt_id!r}")
        return self._vectors[key].copy()

    def save_jsonl(self, path) -> None:
        lines = []
        for (utt_id, channel) in sorted(self._vectors):
            vec = self._vectors[(utt_id, channel)]
            lines.append(finite_json(
                {"id": utt_id, "channel": channel, "vector": vec.tolist()},
                path, separators=(",", ":")))
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                              encoding="utf-8")

    @classmethod
    def load_jsonl(cls, path) -> "EmbeddingStore":
        """Read a :meth:`save_jsonl` file; every error names the file."""
        store = cls()
        for lineno, line in enumerate(split_lines(read_text(path)), start=1):
            if not line.strip():
                continue
            with naming(f"{path}: line {lineno}", MalformedRecord,
                        DuplicateKey, DimMismatch):
                store.put(*_parse_record(line))
        return store

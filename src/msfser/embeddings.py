"""Utterance-level text embeddings and their JSONL interchange format.

Real deployments plug in large encoder models for the three text channels
(les: emphasized-segment text, gs: full transcript, es: extended
description).  This module provides the storage layer those vectors flow
through, plus a deterministic toy provider so the whole pipeline can run
hermetically: each token is hashed to a seed, the seed drives a PCG64
generator that emits a signed vector, and the bag of token vectors is
L2-normalized.  Same text, same dim, same channel: bitwise-identical
output on any platform or process.

Interchange is one JSON object per line:

    {"id": "utt_0001", "channel": "gs", "vector": [0.12, -0.3, ...]}
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DimMismatch, DuplicateKey, MalformedRecord, MissingEmbedding
from .numcore import finite_json

CHANNELS = ("les", "gs", "es")


def hash_token(token: str, channel: str = "") -> int:
    """Stable 64-bit hash, independent of process and platform.

    The channel participates as a salt so the same token embeds
    differently per channel.
    """
    payload = channel.encode("utf-8") + b"\x00" + token.encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def toy_embedding(text: str, dim: int, channel: str = "gs") -> np.ndarray:
    """Deterministic bag-of-tokens vector, unit norm (zero if no tokens)."""
    if dim <= 0:
        raise ValueError(f"embedding dim must be positive, got {dim}")
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}, expected one of {CHANNELS}")
    acc = np.zeros(dim, dtype=np.float64)
    for token in text.lower().split():
        rng = np.random.Generator(np.random.PCG64(hash_token(token, channel)))
        acc += rng.standard_normal(dim)
    norm = float(np.linalg.norm(acc))
    if norm > 0.0:
        acc /= norm
    return acc


def _parse_record(obj, lineno: int) -> tuple[str, str, np.ndarray]:
    if not isinstance(obj, dict):
        raise MalformedRecord(f"line {lineno}: expected a JSON object")
    for key in ("id", "channel", "vector"):
        if key not in obj:
            raise MalformedRecord(f"line {lineno}: missing key {key!r}")
    utt_id, channel, vector = obj["id"], obj["channel"], obj["vector"]
    if not isinstance(utt_id, str) or not utt_id:
        raise MalformedRecord(f"line {lineno}: 'id' must be a non-empty string")
    if channel not in CHANNELS:
        raise MalformedRecord(
            f"line {lineno}: unknown channel {channel!r}, expected one of {CHANNELS}")
    if not isinstance(vector, list) or not vector or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in vector):
        raise MalformedRecord(
            f"line {lineno}: 'vector' must be a non-empty list of numbers")
    arr = np.asarray(vector, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise MalformedRecord(f"line {lineno}: 'vector' contains non-finite values")
    return utt_id, channel, arr


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
        store = cls()
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"line {lineno}: invalid JSON: {exc}") from exc
            utt_id, channel, arr = _parse_record(obj, lineno)
            try:
                store.put(utt_id, channel, arr)
            except (DuplicateKey, DimMismatch) as exc:
                raise type(exc)(f"line {lineno}: {exc}") from exc
        return store

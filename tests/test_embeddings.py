"""Toy embedding determinism and the JSONL store contract."""

import json

import numpy as np
import pytest

from msfser.embeddings import CHANNELS, EmbeddingStore, hash_token, toy_embedding
from msfser.errors import (
    DimMismatch,
    DuplicateKey,
    MalformedRecord,
    MissingEmbedding,
    NumericalFailure,
)


class TestHashToken:
    def test_stable_across_calls(self):
        assert hash_token("hello", "gs") == hash_token("hello", "gs")

    def test_known_value_is_frozen(self):
        # pins the blake2b-based scheme; must hold on every platform
        assert hash_token("hello", "gs") == 7867214748320148553

    def test_channel_salts_the_hash(self):
        assert hash_token("hello", "gs") != hash_token("hello", "les")
        assert hash_token("hello", "gs") != hash_token("hello", "es")

    def test_no_separator_collision(self):
        # (channel, token) pairs that concatenate equally must not collide
        assert hash_token("ab", "c") != hash_token("b", "ca")

    def test_fits_in_64_bits(self):
        for tok in ("", "x", "long token with spaces", "日本語"):
            assert 0 <= hash_token(tok, "es") < 2 ** 64


class TestToyEmbedding:
    def test_deterministic(self):
        a = toy_embedding("the quick brown fox", 12, "gs")
        b = toy_embedding("the quick brown fox", 12, "gs")
        assert np.array_equal(a, b)

    def test_frozen_first_component(self):
        v = toy_embedding("hello world", 8, "gs")
        assert v[0] == 0.12900506298050762

    def test_unit_norm(self):
        for text in ("one", "two words here", "a b c d e f"):
            v = toy_embedding(text, 16, "les")
            assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-12

    def test_empty_text_is_zero_vector(self):
        assert np.array_equal(toy_embedding("", 8, "gs"), np.zeros(8))
        assert np.array_equal(toy_embedding("   ", 8, "gs"), np.zeros(8))

    def test_channels_differ(self):
        vs = [toy_embedding("same text", 8, ch) for ch in CHANNELS]
        assert not np.array_equal(vs[0], vs[1])
        assert not np.array_equal(vs[1], vs[2])

    def test_case_and_order_insensitive_bag(self):
        a = toy_embedding("Alpha beta", 8, "gs")
        b = toy_embedding("beta ALPHA", 8, "gs")
        assert np.allclose(a, b, atol=1e-15)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            toy_embedding("x", 0, "gs")
        with pytest.raises(ValueError):
            toy_embedding("x", 8, "bogus")


class TestStore:
    def test_put_get(self):
        store = EmbeddingStore()
        store.put("u1", "gs", [1.0, 2.0])
        got = store.get("u1", "gs")
        assert np.array_equal(got, [1.0, 2.0])
        got[0] = 99.0                       # returned array is a copy
        assert store.get("u1", "gs")[0] == 1.0

    def test_missing_raises(self):
        store = EmbeddingStore()
        store.put("u1", "gs", [1.0])
        with pytest.raises(MissingEmbedding):
            store.get("u1", "es")
        with pytest.raises(MissingEmbedding):
            store.get("u2", "gs")

    def test_duplicate_key(self):
        store = EmbeddingStore()
        store.put("u1", "gs", [1.0])
        with pytest.raises(DuplicateKey):
            store.put("u1", "gs", [2.0])

    def test_dim_consistency_per_channel(self):
        store = EmbeddingStore()
        store.put("u1", "gs", [1.0, 2.0])
        store.put("u1", "les", [1.0, 2.0, 3.0])   # other channel: fine
        with pytest.raises(DimMismatch):
            store.put("u2", "gs", [1.0, 2.0, 3.0])
        store.put("u2", "gs", [3.0, 4.0])
        store.put("u2", "les", [4.0, 5.0, 6.0])
        assert len(store.get("u2", "gs")) == 2
        assert len(store.get("u2", "les")) == 3
        assert len(store) == 4

    def test_validation_on_put(self):
        store = EmbeddingStore()
        with pytest.raises(MalformedRecord):
            store.put("u1", "bogus", [1.0])
        with pytest.raises(MalformedRecord):
            store.put("u1", "gs", [])
        with pytest.raises(MalformedRecord):
            store.put("u1", "gs", [float("nan")])

    def test_ids_sorted_unique(self):
        store = EmbeddingStore()
        store.put("b", "gs", [1.0])
        store.put("a", "gs", [2.0])
        store.put("a", "es", [3.0])
        assert len(store) == 3
        assert store.get("a", "es")[0] == 3.0
        assert store.get("a", "gs")[0] == 2.0
        assert store.get("b", "gs")[0] == 1.0
        for key in (("c", "gs"), ("b", "es")):
            with pytest.raises(MissingEmbedding):
                store.get(*key)


class TestJsonl:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(9)
        store = EmbeddingStore()
        for i in range(5):
            for ch in CHANNELS:
                store.put(f"u{i}", ch, rng.standard_normal(6))
        path = tmp_path / "emb.jsonl"
        store.save_jsonl(path)
        back = EmbeddingStore.load_jsonl(path)
        assert len(back) == len(store)
        for i in range(5):
            for ch in CHANNELS:
                assert np.array_equal(back.get(f"u{i}", ch),
                                      store.get(f"u{i}", ch))
        # a second save is byte-identical
        path2 = tmp_path / "emb2.jsonl"
        back.save_jsonl(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_record_shape_on_disk(self, tmp_path):
        store = EmbeddingStore()
        store.put("u1", "gs", [0.5, -1.5])
        path = tmp_path / "one.jsonl"
        store.save_jsonl(path)
        rec = json.loads(path.read_text().strip())
        assert rec == {"id": "u1", "channel": "gs", "vector": [0.5, -1.5]}

    def test_nonfinite_vector_is_not_written(self, tmp_path):
        store = EmbeddingStore()
        store.put("u1", "gs", [0.5, -1.5])
        store._vectors[("u1", "gs")][1] = np.inf      # put() refuses it
        path = tmp_path / "bad.jsonl"
        with pytest.raises(NumericalFailure, match="bad.jsonl"):
            store.save_jsonl(path)
        assert not path.exists()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('\n{"id":"u1","channel":"gs","vector":[1.0]}\n\n')
        assert len(EmbeddingStore.load_jsonl(path)) == 1

    @pytest.mark.parametrize("line", [
        "not json",
        '["id","channel","vector"]',
        '{"channel":"gs","vector":[1.0]}',
        '{"id":"u1","vector":[1.0]}',
        '{"id":"u1","channel":"gs"}',
        '{"id":"u1","channel":"semantic","vector":[1.0]}',
        '{"id":"","channel":"gs","vector":[1.0]}',
        '{"id":"u1","channel":"gs","vector":[]}',
        '{"id":"u1","channel":"gs","vector":["a"]}',
        '{"id":"u1","channel":"gs","vector":[true]}',
        '{"id":"u1","channel":"gs","vector":[NaN]}',
        '{"id":"u1","channel":"gs","vector":1.0}',
    ])
    def test_malformed_lines(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(MalformedRecord) as exc:
            EmbeddingStore.load_jsonl(path)
        assert "line 1" in str(exc.value)

    def test_duplicate_line_reports_lineno(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"id":"u1","channel":"gs","vector":[1.0]}\n'
                        '{"id":"u1","channel":"gs","vector":[2.0]}\n')
        with pytest.raises(DuplicateKey) as exc:
            EmbeddingStore.load_jsonl(path)
        assert "line 2" in str(exc.value)

    def test_dim_conflict_reports_lineno(self, tmp_path):
        path = tmp_path / "dim.jsonl"
        path.write_text('{"id":"u1","channel":"gs","vector":[1.0]}\n'
                        '{"id":"u2","channel":"gs","vector":[1.0,2.0]}\n')
        with pytest.raises(DimMismatch) as exc:
            EmbeddingStore.load_jsonl(path)
        assert "line 2" in str(exc.value)

    def test_empty_file_loads_empty_store(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(EmbeddingStore.load_jsonl(path)) == 0

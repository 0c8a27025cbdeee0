"""The embedding store contract and its JSONL format."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msfser.embeddings import CHANNELS, EmbeddingStore
from msfser.errors import (
    DimMismatch,
    DuplicateKey,
    MalformedRecord,
    MissingEmbedding,
    NumericalFailure,
)


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
        with pytest.raises(MalformedRecord, match="'id' must be a non-empty"):
            store.put("", "gs", [1.0])
        assert len(store) == 0

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
        assert f"{path}: line 1: " in str(exc.value)

    @pytest.mark.parametrize("raw", [
        b'{"id":"u1","channel":"gs","vector":[1' + b"0" * 400 + b"]}\n",
        b'{"id":"u1","channel":"gs","vector":[1.0]}\n\xff\n',
    ], ids=["integer_beyond_float64", "not_utf8"])
    def test_malformed_bytes(self, tmp_path, raw):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(raw)
        with pytest.raises(MalformedRecord) as exc:
            EmbeddingStore.load_jsonl(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_duplicate_line_reports_lineno(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"id":"u1","channel":"gs","vector":[1.0]}\n'
                        '{"id":"u1","channel":"gs","vector":[2.0]}\n')
        with pytest.raises(DuplicateKey) as exc:
            EmbeddingStore.load_jsonl(path)
        assert f"{path}: line 2: " in str(exc.value)

    def test_dim_conflict_reports_lineno(self, tmp_path):
        path = tmp_path / "dim.jsonl"
        path.write_text('{"id":"u1","channel":"gs","vector":[1.0]}\n'
                        '{"id":"u2","channel":"gs","vector":[1.0,2.0]}\n')
        with pytest.raises(DimMismatch) as exc:
            EmbeddingStore.load_jsonl(path)
        assert f"{path}: line 2: " in str(exc.value)

    def test_lines_end_only_at_newlines(self, tmp_path):
        # str.splitlines would also end a line at U+2028 and \x85, which
        # JSON allows raw in a string; line numbers count \r and \r\n
        path = tmp_path / "e.jsonl"
        odd = "u\u2028\x85"
        path.write_bytes((f'{{"id":"{odd}","channel":"gs","vector":[1.0]}}\r'
                          '{"id":"u1","channel":"gs","vector":[1.0]}\r\n'
                          '{"id":"u1","channel":"gs","vector":[2.0]}\n'
                          ).encode("utf-8"))
        with pytest.raises(DuplicateKey, match=f"{path}: line 3: "):
            EmbeddingStore.load_jsonl(path)
        path.write_bytes(path.read_bytes().rsplit(b"\r\n", 1)[0])
        assert EmbeddingStore.load_jsonl(path).get(odd, "gs").tolist() == [1.0]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(utt_id=st.text(st.characters(blacklist_categories=())
                          | st.sampled_from(" \t\n\r\x0c\x85\u2028"),
                          min_size=1, max_size=12),
           channel=st.sampled_from(CHANNELS),
           vector=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=6))
    def test_what_put_accepts_round_trips(self, tmp_path, utt_id, channel,
                                          vector):
        store = EmbeddingStore()
        store.put(utt_id, channel, vector)
        path = tmp_path / "e.jsonl"
        store.save_jsonl(path)
        back = EmbeddingStore.load_jsonl(path)
        assert len(back) == 1
        assert back.get(utt_id, channel).tobytes() == np.asarray(
            vector, dtype=np.float64).tobytes()

    def test_empty_file_loads_empty_store(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(EmbeddingStore.load_jsonl(path)) == 0

"""Synthetic corpus generator: determinism, alignment, and the planted
structure that training is later expected to recover."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from msfser.dsp import read_wav
from msfser.embeddings import EmbeddingStore
from msfser.errors import MalformedRecord, NumericalFailure, TooFewUtterances
from msfser.numcore import ccc, seeded_rng
from msfser.synth import (
    SILENCE_GAP_S,
    SynthConfig,
    generate_dataset,
    load_examples,
    make_emphasis_case,
    read_targets_csv,
    synth_utterance,
)
from msfser.textgrid import (
    parse_textgrid,
    read_textgrid_file,
    validate_textgrid,
    word_intervals,
)

CFG = SynthConfig(n_utts=40, les_dim=6, gs_dim=6, es_dim=6, seed=0)


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_dataset(root, CFG)
    return root, manifest


def all_files(root):
    return sorted(p.relative_to(root) for p in Path(root).rglob("*")
                  if p.is_file())


class TestGeneration:
    def test_layout(self, corpus):
        root, manifest = corpus
        assert (root / "manifest.json").is_file()
        assert (root / "targets.csv").is_file()
        assert (root / "embeddings.jsonl").is_file()
        assert len(list((root / "wavs").glob("*.wav"))) == CFG.n_utts
        assert len(list((root / "grids").glob("*.TextGrid"))) == CFG.n_utts
        assert manifest["version"] == "msf-ser-synth-v1"

    def test_split_sizes(self, corpus):
        _, manifest = corpus
        splits = manifest["splits"]
        assert splits == {"train": 28, "dev": 6, "test": 6}
        assert sum(splits.values()) == CFG.n_utts

    def test_manifest_round_trips_config(self, corpus):
        root, manifest = corpus
        on_disk = json.loads((root / "manifest.json").read_text())
        assert on_disk == manifest
        assert on_disk["config"] == asdict(CFG)

    def test_bitwise_deterministic(self, tmp_path):
        cfg = SynthConfig(n_utts=12, les_dim=4, gs_dim=4, es_dim=4, seed=5)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(a, cfg)
        generate_dataset(b, cfg)
        rel = all_files(a)
        assert rel == all_files(b) and len(rel) == 2 * 12 + 3
        for r in rel:
            assert (a / r).read_bytes() == (b / r).read_bytes(), r

    def test_seed_changes_output(self, tmp_path):
        cfg1 = SynthConfig(n_utts=12, les_dim=4, gs_dim=4, es_dim=4, seed=5)
        cfg2 = SynthConfig(n_utts=12, les_dim=4, gs_dim=4, es_dim=4, seed=6)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(a, cfg1)
        generate_dataset(b, cfg2)
        assert (a / "targets.csv").read_bytes() != (b / "targets.csv").read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("sample_rate", 0), ("sample_rate", -8000), ("sample_rate", 1799),
        ("les_dim", 0),
        ("gs_dim", -1), ("es_dim", 0), ("words_min", 9),
    ])
    def test_config_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**{field: value})

    def test_lowest_resolvable_sample_rate_loads(self, tmp_path):
        generate_dataset(tmp_path, SynthConfig(n_utts=10, sample_rate=1800,
                                               les_dim=2, gs_dim=2, es_dim=2))
        assert load_examples(tmp_path, split="test")

    def test_nonfinite_manifest_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr("msfser.synth.MANIFEST_VERSION", float("nan"))
        with pytest.raises(NumericalFailure, match="manifest.json"):
            generate_dataset(tmp_path, SynthConfig(n_utts=10, les_dim=2,
                                                   gs_dim=2, es_dim=2))
        assert not (tmp_path / "manifest.json").exists()

    def test_too_few_utterances(self, tmp_path):
        with pytest.raises(TooFewUtterances):
            generate_dataset(tmp_path / "x", SynthConfig(n_utts=5))


class TestAlignment:
    def test_grids_parse_and_validate(self, corpus):
        root, _ = corpus
        for path in sorted((root / "grids").glob("*.TextGrid"))[:8]:
            tg = read_textgrid_file(path)
            validate_textgrid(tg)
            assert [t.name for t in tg.tiers] == ["words", "phones"]

    def test_boundaries_sit_on_integer_samples(self, corpus):
        root, _ = corpus
        tg = read_textgrid_file(root / "grids" / "utt_0000.TextGrid")
        for tier in tg.tiers:
            for iv in tier.intervals:
                for x in (iv.xmin, iv.xmax):
                    assert abs(x * CFG.sample_rate - round(x * CFG.sample_rate)) <= 1e-6

    def test_words_carry_energy_and_gaps_are_silent(self, corpus):
        root, _ = corpus
        audio = read_wav(root / "wavs" / "utt_0003.wav")
        tg = read_textgrid_file(root / "grids" / "utt_0003.TextGrid")
        sr = audio.sample_rate
        words = word_intervals(tg, "words")
        assert len(words) >= CFG.words_min
        for iv in words:
            seg = audio.samples[int(round(iv.xmin * sr)):int(round(iv.xmax * sr))]
            assert np.sqrt((seg ** 2).mean()) > 1e-3
        gap = audio.samples[:int(round(SILENCE_GAP_S * sr))]
        assert np.abs(gap).max() == 0.0

    def test_phones_partition_each_word(self, corpus):
        root, _ = corpus
        tg = read_textgrid_file(root / "grids" / "utt_0001.TextGrid")
        phones = [iv for iv in tg.tier("phones").intervals if iv.label]
        for word in word_intervals(tg, "words"):
            inside = [p for p in phones
                      if word.xmin <= p.center < word.xmax]
            assert len(inside) == 2
            assert inside[0].xmin == word.xmin
            assert inside[-1].xmax == word.xmax
            assert inside[0].xmax == inside[1].xmin


class TestPlantedStructure:
    def test_arousal_scales_amplitude(self):
        cfg = SynthConfig(les_dim=4, gs_dim=4, es_dim=4)
        low, _ = synth_utterance(seeded_rng(1), cfg, np.array([0.0, -1.0, 0.0]))
        high, _ = synth_utterance(seeded_rng(1), cfg, np.array([0.0, 1.0, 0.0]))
        ratio = np.abs(high.samples).max() / np.abs(low.samples).max()
        assert ratio > 2.5       # nominal 4x, minus per-word jitter

    def test_emphasis_case_boosts_the_planted_word(self):
        audio, tg, plant = make_emphasis_case(seeded_rng(3))
        words = word_intervals(tg, "words")
        sr = audio.sample_rate

        def rms(iv):
            seg = audio.samples[int(round(iv.xmin * sr)):int(round(iv.xmax * sr))]
            return float(np.sqrt((seg ** 2).mean()))

        durs = [iv.duration for iv in words]
        others = [i for i in range(len(words)) if i != plant]
        assert durs[plant] > 0.23
        assert max(durs[i] for i in others) < 0.23
        loudness = [rms(iv) for iv in words]
        assert loudness[plant] > 1.4 * max(loudness[i] for i in others)

    def test_emphasis_case_respects_requested_index(self):
        _, tg, plant = make_emphasis_case(seeded_rng(4), n_words=6,
                                          plant_index=2)
        assert plant == 2
        assert len(word_intervals(tg, "words")) == 6

    def test_dominance_lives_only_in_the_es_channel(self, corpus):
        root, _ = corpus
        store = EmbeddingStore.load_jsonl(root / "embeddings.jsonl")
        rows = read_targets_csv(root / "targets.csv")
        dom = np.array([r["target"][2] for r in rows])
        es = np.stack([store.get(r["utt_id"], "es") for r in rows])
        lg = np.hstack([np.stack([store.get(r["utt_id"], c) for r in rows])
                        for c in ("les", "gs")])

        def held_out_ccc(feats):
            design = np.hstack([feats, np.ones((len(feats), 1))])
            coef, *_ = np.linalg.lstsq(design[:28], dom[:28], rcond=None)
            return ccc(design[28:] @ coef, dom[28:])

        assert held_out_ccc(es) > 0.85
        assert held_out_ccc(lg) < 0.5

    def test_valence_recoverable_from_semantic_channels(self, corpus):
        root, _ = corpus
        store = EmbeddingStore.load_jsonl(root / "embeddings.jsonl")
        rows = read_targets_csv(root / "targets.csv")
        val = np.array([r["target"][0] for r in rows])
        les = np.stack([store.get(r["utt_id"], "les") for r in rows])
        design = np.hstack([les, np.ones((len(les), 1))])
        coef, *_ = np.linalg.lstsq(design[:28], val[:28], rcond=None)
        assert ccc(design[28:] @ coef, val[28:]) > 0.85


class TestLoading:
    def test_targets_csv_round_trip(self, corpus):
        root, _ = corpus
        rows = read_targets_csv(root / "targets.csv")
        assert len(rows) == CFG.n_utts
        assert rows[0]["utt_id"] == "utt_0000"
        splits = {r["split"] for r in rows}
        assert splits == {"train", "dev", "test"}
        for r in rows:
            assert r["target"].shape == (3,)
            assert np.all(np.isfinite(r["target"]))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_target_rejected(self, tmp_path, value):
        path = tmp_path / "targets.csv"
        path.write_text("utt_id,split,valence,arousal,dominance\n"
                        "u0,train,0.1,0.2,0.3\n"
                        f"u1,train,0.1,{value},0.3\n")
        with pytest.raises(MalformedRecord, match="'u1'"):
            read_targets_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("utt_id,split,valence,arousal,dominance\n"
                        "u0,train,0.1,0.2,0.3\n"
                        "u1,train,0.1\n")
        with pytest.raises(MalformedRecord, match="targets.csv.*'u1'"):
            read_targets_csv(path)

    def test_repeated_utterance_rejected(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("utt_id,split,valence,arousal,dominance\n"
                        "u0,train,0.1,0.2,0.3\n"
                        "u1,dev,0.1,0.2,0.3\n"
                        "u0,test,0.4,0.5,0.6\n")
        with pytest.raises(MalformedRecord, match="targets.csv.*'u0'"):
            read_targets_csv(path)

    def test_load_examples_split_filtering(self, corpus):
        root, manifest = corpus
        test_set = load_examples(root, split="test")
        assert len(test_set) == manifest["splits"]["test"]
        ex = test_set[0]
        assert ex.frames.ndim == 2 and ex.frames.shape[1] == 3 + 8
        assert ex.les.shape == (6,) and ex.es.shape == (6,)
        assert ex.target.shape == (3,)

    def test_load_examples_unknown_split(self, corpus):
        root, _ = corpus
        with pytest.raises(TooFewUtterances):
            load_examples(root, split="nope")

    def test_embeddings_cover_every_utterance(self, corpus):
        root, _ = corpus
        store = EmbeddingStore.load_jsonl(root / "embeddings.jsonl")
        assert len(store) == 3 * CFG.n_utts
        for rec in read_targets_csv(root / "targets.csv"):
            for channel in ("les", "gs", "es"):
                assert store.get(rec["utt_id"], channel).ndim == 1

    def test_serialized_grid_reparses_equal(self, corpus):
        root, _ = corpus
        text = (root / "grids" / "utt_0002.TextGrid").read_text("utf-8")
        tg = parse_textgrid(text)
        assert tg.tier("words").kind == "interval"

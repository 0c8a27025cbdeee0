"""Synthetic corpus generator: determinism, alignment, and the planted
structure that training is later expected to recover."""

import json
import shutil
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import rewrite_wavs_at_lowest_rate
from msfser.config import FrameConfig
from msfser.dsp import estimate_f0, read_wav
from msfser.embeddings import EmbeddingStore
from msfser.errors import MalformedRecord, NumericalFailure, TooFewUtterances
from msfser.numcore import ccc, seeded_rng
from msfser.synth import (
    AROUSAL_OCTAVES,
    SAMPLE_RATE,
    SILENCE_GAP_S,
    WORDS_MIN,
    SynthConfig,
    _split_sizes,
    _tone,
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
        root, manifest = corpus
        splits = manifest["splits"]
        assert splits == {"train": 28, "dev": 6, "test": 6}
        assert sum(splits.values()) == CFG.n_utts
        rows = read_targets_csv(root / "targets.csv")
        assert {name: sum(r["split"] == name for r in rows)
                for name in splits} == splits

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
        ("les_dim", 0), ("gs_dim", -1), ("es_dim", 0),
    ])
    def test_config_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("value", [-8000, 0, 16000])
    def test_sample_rate_is_not_a_setting(self, value):
        # every signal is generated at SAMPLE_RATE; the config cannot set it
        with pytest.raises(TypeError, match="sample_rate"):
            SynthConfig(sample_rate=value)

    def test_one_dimensional_channels_are_accepted(self):
        SynthConfig(les_dim=1, gs_dim=1, es_dim=1)

    def test_lowest_resolvable_sample_rate_loads(self, tmp_path):
        generate_dataset(tmp_path, SynthConfig(n_utts=12, les_dim=2, gs_dim=2,
                                               es_dim=2))
        rewrite_wavs_at_lowest_rate(tmp_path)
        assert read_wav(tmp_path / "wavs" / "utt_0000.wav").sample_rate == 1800
        assert load_examples(tmp_path, split="test")

    def test_one_sample_rate(self, corpus):
        # every corpus WAV and planted-word case is at SAMPLE_RATE, and the
        # manifest records exactly SynthConfig's fields
        root, _ = corpus
        assert SAMPLE_RATE == 16000
        for path in sorted((root / "wavs").glob("*.wav")):
            assert read_wav(path).sample_rate == SAMPLE_RATE, path
        for seed in range(5):
            audio, _, _ = make_emphasis_case(seeded_rng(seed))
            assert audio.sample_rate == SAMPLE_RATE
        on_disk = json.loads((root / "manifest.json").read_text())
        assert set(on_disk["config"]) == {f.name for f in fields(SynthConfig)}

    def test_nonfinite_manifest_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr("msfser.synth.MANIFEST_VERSION", float("nan"))
        with pytest.raises(NumericalFailure, match="manifest.json"):
            generate_dataset(tmp_path, SynthConfig(n_utts=12, les_dim=2,
                                                   gs_dim=2, es_dim=2))
        assert not (tmp_path / "manifest.json").exists()

    def test_too_few_utterances(self, tmp_path):
        with pytest.raises(TooFewUtterances):
            generate_dataset(tmp_path / "x", SynthConfig(n_utts=5))

    @pytest.mark.parametrize("n", [10, 11])
    def test_a_test_split_of_one_is_refused_before_writing(self, tmp_path, n):
        # 70% and 15% round to 7 + 2 and 8 + 2, leaving test one utterance,
        # which eval cannot score
        with pytest.raises(TooFewUtterances, match="1 in the test split"):
            generate_dataset(tmp_path / "x", SynthConfig(n_utts=n))
        assert not (tmp_path / "x").exists()

    def test_every_split_gets_two_from_12_up(self):
        for n in range(12, 201):
            sizes = _split_sizes(n)
            assert list(sizes) == ["train", "dev", "test"]
            assert sum(sizes.values()) == n and min(sizes.values()) >= 2, n


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
                    assert abs(x * SAMPLE_RATE - round(x * SAMPLE_RATE)) <= 1e-6

    def test_words_carry_energy_and_gaps_are_silent(self, corpus):
        root, _ = corpus
        audio = read_wav(root / "wavs" / "utt_0003.wav")
        tg = read_textgrid_file(root / "grids" / "utt_0003.TextGrid")
        sr = audio.sample_rate
        words = word_intervals(tg, "words")
        assert len(words) >= WORDS_MIN
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

    def test_every_tier_tiles_the_file(self, corpus):
        root, _ = corpus
        for path in sorted((root / "grids").glob("*.TextGrid")):
            tg = read_textgrid_file(path)
            for tier in tg.tiers:
                ivs = tier.intervals
                assert (ivs[0].xmin, ivs[0].xmax, ivs[0].label) \
                    == (0.0, SILENCE_GAP_S, "")
                assert all(a.xmax == b.xmin for a, b in zip(ivs, ivs[1:]))
                assert ivs[-1].xmax == tier.xmax == tg.xmax

    @pytest.mark.parametrize("n, ramp", [(40, 10), (4, 1)])
    def test_short_burst_ramps_over_a_quarter(self, n, ramp):
        f0, amp = 200.0, 0.5
        t = np.arange(1, n) / SAMPLE_RATE   # the carrier is 0 at sample 0
        carrier = np.sin(2.0 * np.pi * f0 * t) + 0.5 * np.sin(4.0 * np.pi * f0 * t)
        envelope = _tone(n, f0, amp)[1:] / (amp * carrier)
        ramped = [k < ramp or k >= n - ramp for k in range(1, n)]
        assert (np.abs(envelope - 1.0) > 1e-9).tolist() == ramped


def median_f0(audio, iv=None):
    """Median f0 in Hz over the voiced frames, or those inside iv."""
    track = estimate_f0(audio, FrameConfig())
    keep = track.voiced.copy()
    if iv is not None:
        keep &= (track.frame_times >= iv.xmin) & (track.frame_times < iv.xmax)
    return float(np.exp(np.median(track.log_f0[keep])))


class TestPlantedStructure:
    def test_arousal_scales_amplitude(self):
        low, _ = synth_utterance(seeded_rng(1), np.array([0.0, -1.0, 0.0]))
        high, _ = synth_utterance(seeded_rng(1), np.array([0.0, 1.0, 0.0]))
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

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_word_is_the_documented_boost(self, seed):
        # the same seed with the plant moved: word 2 draws the same burst
        # in both cases, and is boosted only in the first
        measured = []
        for plant in (2, 4):
            audio, tg, _ = make_emphasis_case(seeded_rng(seed), n_words=6,
                                              plant_index=plant)
            iv = word_intervals(tg, "words")[2]
            sr = audio.sample_rate
            seg = audio.samples[int(round(iv.xmin * sr)):int(round(iv.xmax * sr))]
            measured.append((median_f0(audio, iv), np.abs(seg).max(),
                             iv.duration * sr))
        (f0, peak, n), (base_f0, base_peak, base_n) = measured
        assert f0 / base_f0 == pytest.approx(2.0 ** (4.0 / 12.0), abs=1e-5)
        assert peak / base_peak == pytest.approx(10.0 ** (6.0 / 20.0), abs=1e-4)
        # 1.5x longer, up to each burst's rounding to whole samples
        assert abs(n - 1.5 * base_n) <= 0.5 + 1.5 * 0.5 + 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_arousal_raises_pitch_by_the_documented_octaves(self, seed):
        high, low = (synth_utterance(seeded_rng(seed),
                                     np.array([0.0, arousal, 0.0]))[0]
                     for arousal in (0.8, -0.8))
        ratio = median_f0(high) / median_f0(low)
        assert ratio == pytest.approx(2.0 ** (1.6 * AROUSAL_OCTAVES), rel=5e-3)

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

    def test_non_numeric_target_rejected(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("utt_id,split,valence,arousal,dominance\n"
                        "u0,train,0.1,0.2,0.3\n"
                        "u1,train,0.1,x0.2,0.3\n")
        with pytest.raises(MalformedRecord,
                           match="targets.csv: utterance 'u1' .*not a number"):
            read_targets_csv(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_bytes(b"utt_id,split,valence,arousal,dominance\n"
                         b"u0,tr\xe1in,0.1,0.2,0.3\n")
        with pytest.raises(MalformedRecord,
                           match="targets.csv: not valid UTF-8"):
            read_targets_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("utt_id,split,valence,arousal,dominance\n"
                        "u0,train,0.1,0.2,0.3\n"
                        "u1,train,0.1\n")
        with pytest.raises(MalformedRecord, match="targets.csv.*'u1'"):
            read_targets_csv(path)

    @pytest.mark.parametrize("text", [
        "",
        "utt_id,split,valence,arousal\nu0,train,0.1,0.2\nu1,dev,0.1,0.2\n",
    ], ids=["empty", "no-dominance"])
    def test_header_without_every_column_rejected(self, tmp_path, text):
        path = tmp_path / "targets.csv"
        path.write_text(text)
        with pytest.raises(MalformedRecord, match=(
                r"targets.csv: targets CSV must have columns \['arousal', "
                r"'dominance', 'split', 'utt_id', 'valence'\]")):
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

    def test_load_examples_refuses_a_split_of_one_before_reading_wavs(
            self, corpus, tmp_path):
        # no WAV is copied, so reading one would raise FileNotFoundError
        root = corpus[0]
        shutil.copy(root / "embeddings.jsonl", tmp_path)
        rows = read_targets_csv(root / "targets.csv")
        dev = [r["utt_id"] for r in rows if r["split"] == "dev"]
        lines = (root / "targets.csv").read_text().splitlines(keepends=True)
        (tmp_path / "targets.csv").write_text("".join(
            line for line in lines if not line.startswith(
                tuple(f"{u}," for u in dev[1:]))))
        with pytest.raises(TooFewUtterances, match=(
                r"targets\.csv: split 'dev' has 1 utterance; "
                r"each split needs at least 2$")):
            load_examples(tmp_path, split="dev")

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

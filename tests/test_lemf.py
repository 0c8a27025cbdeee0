"""Word-level prosody aggregation, z-scoring, emphasis scoring/selection,
and the extended-description template kept in demo 03."""

import contextlib
import importlib.util
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfser.dsp import AudioBuffer, FrameConfig, ProsodyTrack, frame_signal
from msfser.errors import EmptyInput
from msfser.lemf import (
    ALPHA,
    BETA,
    GAMMA,
    LemfConfig,
    aggregate_word_prosody,
    analyze_words,
    run_lemf,
    select_emphasis_indices,
    words_to_json,
    zscore_normalize,
)
from msfser.numcore import seeded_rng
from msfser.synth import make_emphasis_case
from msfser.textgrid import Interval, word_intervals

DEMO_03 = Path(__file__).resolve().parents[1] / "demos" / "03_emphasis_detection.py"


def track_from(times, log_f0, voiced, energy):
    return ProsodyTrack(frame_times=np.asarray(times, dtype=np.float64),
                        log_f0=np.asarray(log_f0, dtype=np.float64),
                        voiced=np.asarray(voiced, dtype=bool),
                        energy=np.asarray(energy, dtype=np.float64))


class TestZscore:
    def test_one_two_three(self):
        z = zscore_normalize([1.0, 2.0, 3.0])
        expected = math.sqrt(1.5)          # 1.224744871391589...
        assert abs(z[0] + expected) <= 1e-12
        assert abs(z[1]) <= 1e-12
        assert abs(z[2] - expected) <= 1e-12

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            vals = rng.uniform(-10, 10, size=int(rng.integers(2, 12)))
            z = zscore_normalize(vals)
            mu = sum(vals) / len(vals)
            sigma = math.sqrt(sum((v - mu) ** 2 for v in vals) / len(vals))
            want = [(v - mu) / sigma for v in vals]
            assert np.abs(z - want).max() <= 1e-10

    def test_constant_input_maps_to_zeros(self):
        assert np.array_equal(zscore_normalize([4.2, 4.2, 4.2]), np.zeros(3))
        # the computed mean of 1e6 + 0.1 carries rounding dust: sigma comes
        # out near 1.2e-10, above the floor, and would scale it up to 1.0
        assert np.array_equal(zscore_normalize([1e6 + 0.1] * 7), np.zeros(7))

    def test_spread_under_the_sigma_floor_maps_to_zeros(self):
        # not constant, but sigma = 2**-53 is below ZSCORE_SIGMA_FLOOR
        assert np.array_equal(zscore_normalize([1.0, 1.0 + 2**-52]), np.zeros(2))

    def test_single_value_is_zero(self):
        assert np.array_equal(zscore_normalize([7.0]), np.zeros(1))

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            zscore_normalize([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            zscore_normalize([1.0, float("nan")])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20))
    def test_population_moments(self, vals):
        z = zscore_normalize(vals)
        arr = np.asarray(vals)
        sigma = float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))
        if len(set(vals)) == 1 or sigma < 1e-12:
            # constant sequences and the degeneracy floor both map to zeros
            assert np.array_equal(z, np.zeros(len(vals)))
        else:
            assert abs(float(np.mean(z))) <= 1e-7
            assert abs(float(np.mean(z * z)) - 1.0) <= 1e-7


class TestAggregation:
    # frames every 10 ms centred from 5 ms; one word spans [0.00, 0.03)
    def test_pitch_is_max_over_voiced_frames_in_word(self):
        track = track_from([0.005, 0.015, 0.025, 0.035],
                           [5.0, 5.5, 9.9, 6.0],
                           [True, True, False, True],
                           [1.0, 2.0, 3.0, 4.0])
        word = Interval(0.0, 0.03, "w")
        f_pitch, f_energy, f_duration = aggregate_word_prosody(track, word, ())
        assert f_pitch == 5.5              # frame 3 is unvoiced, frame 4 outside
        assert f_energy == (1.0 + 2.0 + 3.0) / 3.0
        assert f_duration == pytest.approx(0.03)

    def test_no_voiced_frames_gives_none(self):
        track = track_from([0.005], [0.0], [False], [1.0])
        f_pitch, _, _ = aggregate_word_prosody(track, Interval(0.0, 0.01, "w"), ())
        assert f_pitch is None

    def test_duration_from_phones(self):
        track = track_from([0.005], [5.0], [True], [1.0])
        phones = (Interval(0.0, 0.004, "p"), Interval(0.004, 0.01, "a"))
        _, _, f_dur = aggregate_word_prosody(track, Interval(0.0, 0.01, "w"),
                                             phones)
        assert f_dur == pytest.approx((0.004 + 0.006) / 2.0)

    def test_word_boundary_is_half_open(self):
        track = track_from([0.01, 0.02], [5.0, 99.0], [True, True], [1.0, 7.0])
        word = Interval(0.0, 0.02, "w")    # frame at exactly 0.02 excluded
        f_pitch, f_energy, _ = aggregate_word_prosody(track, word, ())
        assert f_pitch == 5.0
        assert f_energy == 1.0

    def test_frame_centred_on_a_boundary_belongs_to_the_later_word(self):
        # at the default framing and 16 kHz, frame i is centred on
        # (80 i + 160) / 16000 s, so frame 8 sits exactly on 0.05 s
        _, times = frame_signal(AudioBuffer(np.zeros(1920), 16000),
                                FrameConfig())
        assert times[8] == 0.05
        energy = np.arange(len(times), dtype=np.float64)
        track = track_from(times, np.zeros(len(times)),
                           np.zeros(len(times), dtype=bool), energy)
        _, before, _ = aggregate_word_prosody(track, Interval(0.0, 0.05, "a"), ())
        _, after, _ = aggregate_word_prosody(track, Interval(0.05, 0.1, "b"), ())
        assert before == np.mean(energy[:8])        # frames 0-7
        assert after == np.mean(energy[8:18])       # frames 8-17


class TestScoring:
    def test_default_weights(self):
        assert (ALPHA, BETA, GAMMA) == (1.0, 1.2, 0.8)

    def test_score_formula(self):
        track = track_from([0.01, 0.03, 0.05], [5.0, 5.5, 4.0],
                           [True, True, True], [1.0, 3.0, 2.0])
        words = (Interval(0.00, 0.02, "a"), Interval(0.02, 0.04, "b"),
                 Interval(0.04, 0.10, "c"))
        out = analyze_words(track, [(w, ()) for w in words])
        assert len({w.z_duration for w in out}) == 2   # durations differ
        for w in out:
            assert w.score == pytest.approx(
                1.0 * w.z_pitch + 1.2 * w.z_energy + 0.8 * w.z_duration,
                abs=1e-12)

    def test_analyze_words_matches_hand_computation(self):
        times = [0.01, 0.03, 0.05, 0.07, 0.09, 0.11]
        track = track_from(times,
                           [5.0, 5.2, 0.0, 5.8, 0.0, 0.0],
                           [True, True, False, True, False, False],
                           [1.0, 1.5, 0.5, 3.0, 3.5, 0.2])
        words = (Interval(0.00, 0.04, "aa"), Interval(0.04, 0.08, "bb"),
                 Interval(0.08, 0.12, "cc"))
        phones = [(Interval(0.00, 0.02, "a"), Interval(0.02, 0.04, "a")),
                  (Interval(0.04, 0.08, "b"),),
                  (Interval(0.08, 0.12, "c"),)]
        out = analyze_words(track, zip(words, phones))

        # word cc has no voiced frames -> pitch filled with mean(5.2, 5.8)
        fill = (5.2 + 5.8) / 2.0
        raw_pitch = [5.2, 5.8, fill]
        raw_energy = [(1.0 + 1.5) / 2, (0.5 + 3.0) / 2, (3.5 + 0.2) / 2]
        raw_dur = [0.02, 0.04, 0.04]

        def z(vals):
            mu = sum(vals) / len(vals)
            sd = math.sqrt(sum((v - mu) ** 2 for v in vals) / len(vals))
            return [(v - mu) / sd for v in vals]

        zp, ze, zd = z(raw_pitch), z(raw_energy), z(raw_dur)
        for i, w in enumerate(out):
            assert w.f_pitch == pytest.approx(raw_pitch[i], abs=1e-12)
            assert w.f_energy == pytest.approx(raw_energy[i], abs=1e-12)
            assert w.f_duration == pytest.approx(raw_dur[i], abs=1e-12)
            assert w.z_pitch == pytest.approx(zp[i], abs=1e-9)
            assert w.z_energy == pytest.approx(ze[i], abs=1e-9)
            assert w.z_duration == pytest.approx(zd[i], abs=1e-9)
            want = 1.0 * zp[i] + 1.2 * ze[i] + 0.8 * zd[i]
            assert w.score == pytest.approx(want, abs=1e-9)
        assert out[2].pitch_defined is False
        # the filled word sits exactly at the column mean
        assert abs(out[2].z_pitch) <= 1e-9


class TestSegmentSelection:
    def test_interior_argmax_takes_neighbours(self):
        assert select_emphasis_indices([0, 1, 5, 2, 0]) == (1, 2, 3)

    def test_left_boundary_extends_right(self):
        assert select_emphasis_indices([9, 1, 0, 0]) == (0, 1, 2)

    def test_right_boundary_extends_left(self):
        assert select_emphasis_indices([0, 0, 1, 9]) == (1, 2, 3)

    def test_short_sentences_take_everything(self):
        assert select_emphasis_indices([3.0]) == (0,)
        assert select_emphasis_indices([1.0, 2.0]) == (0, 1)
        assert select_emphasis_indices([1.0, 2.0, 0.5]) == (0, 1, 2)

    def test_tie_breaks_to_earliest(self):
        assert select_emphasis_indices([0, 7, 3, 7, 0]) == (0, 1, 2)

    def test_empty_scores(self):
        with pytest.raises(EmptyInput):
            select_emphasis_indices([])


class TestDescription:
    """The ES template lives in demo 03, its only caller; load it as a module."""

    @pytest.fixture(scope="class")
    def demo(self):
        spec = importlib.util.spec_from_file_location("demo_03", DEMO_03)
        module = importlib.util.module_from_spec(spec)
        with contextlib.redirect_stdout(io.StringIO()):
            spec.loader.exec_module(module)
        return module

    def test_all_fields(self, demo):
        info = demo.ExtendedInfo(
            gender="female",
            free_label="annoyed frustration",
            constrained_label="angry",
            scenario="a customer service call",
            explanation="The rising pitch and clipped word endings suggest "
                        "mounting irritation",
            paralinguistics="fast speech with sharp energy bursts",
        )
        assert demo.assemble_extended_description(info) == (
            "This is a female speaker, expressing annoyed frustration "
            "(categorized as angry), in a customer service call. "
            "The rising pitch and clipped word endings suggest mounting "
            "irritation. "
            "The speech is characterized by fast speech with sharp energy "
            "bursts.")

    def test_missing_gender_collapses(self, demo):
        info = demo.ExtendedInfo(free_label="joy", constrained_label="happy")
        assert demo.assemble_extended_description(info) == \
            "This is a speaker, expressing joy (categorized as happy)."

    def test_constrained_only(self, demo):
        info = demo.ExtendedInfo(constrained_label="neutral")
        assert demo.assemble_extended_description(info) == \
            "This is a speaker, categorized as neutral."

    def test_paralinguistics_only(self, demo):
        info = demo.ExtendedInfo(paralinguistics="breathy phonation")
        assert demo.assemble_extended_description(info) == \
            "The speech is characterized by breathy phonation."

    def test_all_empty_gives_empty(self, demo):
        assert demo.assemble_extended_description(demo.ExtendedInfo()) == ""

    def test_deterministic(self, demo):
        info = demo.ExtendedInfo(gender="male", scenario="a lecture")
        assert demo.assemble_extended_description(info) == \
            demo.assemble_extended_description(info)


class TestEndToEnd:
    def test_planted_word_wins(self):
        rng = seeded_rng(123)
        audio, tg, plant = make_emphasis_case(rng)
        res = run_lemf(audio, tg, LemfConfig(f0_min=70.0, f0_max=450.0))
        top = int(np.argmax([w.score for w in res.words]))
        assert top == plant
        assert plant in res.segment

    def test_single_word_utterance(self):
        rng = seeded_rng(5)
        audio, tg, _ = make_emphasis_case(rng, n_words=1, plant_index=0)
        res = run_lemf(audio, tg, LemfConfig(f0_min=70.0, f0_max=450.0))
        assert len(res.words) == 1
        assert res.segment == (0,)
        # single word: every z-score degenerates to zero
        assert res.words[0].score == 0.0

    def test_phone_tier_optional(self):
        rng = seeded_rng(6)
        audio, tg, plant = make_emphasis_case(rng)
        cfg = LemfConfig(f0_min=70.0, f0_max=450.0, phone_tier=None)
        res = run_lemf(audio, tg, cfg)
        top = int(np.argmax([w.score for w in res.words]))
        assert top == plant

    def test_json_document_schema(self):
        rng = seeded_rng(7)
        audio, tg, _ = make_emphasis_case(rng, n_words=4)
        res = run_lemf(audio, tg, LemfConfig(f0_min=70.0, f0_max=450.0))
        doc = words_to_json("utt_x", res)
        assert doc["utt_id"] == "utt_x"
        assert len(doc["words"]) == 4
        for rec in doc["words"]:
            assert set(rec) == {"word", "xmin", "xmax", "f_pitch", "f_energy",
                                "f_duration", "z_pitch", "z_energy",
                                "z_duration", "score"}
        assert set(doc["segment"]) == {"mode", "indices", "words"}
        assert doc["segment"]["indices"] == list(res.segment)

    def test_json_segment_words_at_indices(self):
        for n_words, seed in ((1, 8), (2, 9), (7, 10)):
            audio, tg, _ = make_emphasis_case(seeded_rng(seed), n_words=n_words)
            res = run_lemf(audio, tg, LemfConfig(f0_min=70.0, f0_max=450.0))
            assert res.segment == select_emphasis_indices(
                [w.score for w in res.words])
            seg = words_to_json("utt_x", res)["segment"]
            labels = [w.label for w in word_intervals(tg, "words")]
            start = seg["indices"][0]
            assert seg["indices"] == list(range(start, start + min(3, n_words)))
            assert seg["words"] == [labels[i] for i in seg["indices"]]

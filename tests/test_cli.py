"""Command-line interface, exercised in-process through main(argv)."""

import ast
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rewrite_wavs_at_lowest_rate
from msfser.cli import build_parser, main
from msfser.config import FEATURES
from msfser.dsp import (
    F0_MAX,
    F0_MIN,
    N_BANDS,
    AudioBuffer,
    FrameConfig,
    acoustic_frames,
    estimate_f0,
    read_wav,
    write_wav,
)
from msfser.errors import BadSetting
from msfser.lemf import LemfConfig
from msfser.model import ModelConfig, TrainConfig
from msfser.numcore import load_checkpoint, seeded_rng
from msfser.synth import (
    SynthConfig,
    make_emphasis_case,
    read_targets_csv,
)
from msfser.textgrid import Interval, read_textgrid_file, serialize_textgrid

GOOD_GRID = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 1
        intervals: size = 1
        intervals [1]:
            xmin = 0
            xmax = 1
            text = "hi"
"""

# JSON nested deeper than the parser recurses
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.fixture(scope="session")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    code = main(["synth", "--out", str(root), "--n", "12", "--seed", "0",
                 "--les-dim", "4", "--gs-dim", "4", "--es-dim", "4"])
    assert code == 0
    return root


@pytest.fixture(scope="session")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["train", "--data", str(dataset), "--out", str(out),
                 "--epochs", "2", "--batch-size", "8", "--accum-steps", "1",
                 "--lr", "1e-3", "--d-model", "4", "--dropout", "0.2",
                 "--seed", "0", "--quiet"])
    assert code == 0
    return out


@pytest.fixture()
def emphasis_files(tmp_path):
    audio, tg, plant = make_emphasis_case(seeded_rng(11), n_words=6)
    wav = tmp_path / "utt.wav"
    grid = tmp_path / "utt.TextGrid"
    write_wav(wav, audio)
    grid.write_text(serialize_textgrid(tg), encoding="utf-8")
    return wav, grid, plant


class TestTextgridCheck:
    def test_ok_file(self, tmp_path, capsys):
        path = tmp_path / "g.TextGrid"
        path.write_text(GOOD_GRID, encoding="utf-8")
        assert main(["textgrid-check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "1 tiers" in out

    def test_bad_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.TextGrid"
        path.write_text("not a textgrid at all\n", encoding="utf-8")
        assert main(["textgrid-check", str(path)]) == 2
        assert "MalformedHeader" in capsys.readouterr().out

    def test_mixed_files_reports_each(self, tmp_path, capsys):
        good = tmp_path / "good.TextGrid"
        good.write_text(GOOD_GRID, encoding="utf-8")
        missing = tmp_path / "missing.TextGrid"
        assert main(["textgrid-check", str(good), str(missing)]) == 2
        out = capsys.readouterr().out
        assert "OK" in out and "FileNotFoundError" in out

    def test_count_longer_than_int_takes_is_malformed(self, tmp_path, capsys):
        # int() refuses more than 4,300 digits with a ValueError
        bad = tmp_path / "bad.TextGrid"
        bad.write_text(GOOD_GRID.replace("intervals: size = 1",
                                         "intervals: size = " + "1" * 5000),
                       encoding="utf-8")
        good = tmp_path / "good.TextGrid"
        good.write_text(GOOD_GRID, encoding="utf-8")
        assert main(["textgrid-check", str(bad), str(good)]) == 2
        out = capsys.readouterr().out
        assert "MalformedBody" in out and "OK" in out


# A WAV the analysis settings cannot take, and the start of the message
UNFIT_WAV = [("cut", "signal has 28 samples, "),
             ("resample", "sample rate 1000 too low to resolve f0_max=450.0")]


def unfit(wav, how):
    """Cut wav to 100 bytes, or relabel its samples as 1000 Hz audio."""
    if how == "cut":
        wav.write_bytes(wav.read_bytes()[:100])
    else:
        write_wav(wav, AudioBuffer(read_wav(wav).samples, 1000))


@pytest.fixture
def no_pitch_track(monkeypatch):
    """Fail any pitch track run_lemf starts: a bad tier must stop it first."""
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_f0 ran before the tiers were read")
    monkeypatch.setattr("msfser.lemf.estimate_f0", refuse)


class TestEmphasis:
    def test_json_csv_svg_outputs(self, emphasis_files, tmp_path, capsys):
        wav, grid, plant = emphasis_files
        out = tmp_path / "emph.json"
        csv_path = tmp_path / "track.csv"
        svg_path = tmp_path / "scores.svg"
        code = main(["emphasis", "--wav", str(wav), "--grid", str(grid),
                     "--out", str(out), "--csv", str(csv_path),
                     "--svg", str(svg_path)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["utt_id"] == "utt"
        assert len(doc["words"]) == 6
        assert plant in doc["segment"]["indices"]
        assert {"word", "score", "z_pitch"} <= set(doc["words"][0])
        header = csv_path.read_text().splitlines()[0]
        assert header == "time_s,voiced,f0_hz,log_f0,energy"
        assert svg_path.read_text().startswith("<svg")

    def test_stdout_by_default(self, emphasis_files, capsys):
        wav, grid, _ = emphasis_files
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segment"]["mode"] == "adjacent"

    def test_svg_of_labels_that_xml_reserves_parses(self, emphasis_files,
                                                   tmp_path):
        wav, grid, _ = emphasis_files
        tg = read_textgrid_file(grid)
        names = iter(["R&D", "a<b", "c>d"])
        words = tg.tier("words")
        relabelled = dataclasses.replace(words, intervals=tuple(
            dataclasses.replace(iv, label=next(names, iv.label))
            if iv.label else iv for iv in words.intervals))
        grid.write_text(serialize_textgrid(dataclasses.replace(
            tg, tiers=(relabelled, tg.tier("phones")))), encoding="utf-8")
        svg = tmp_path / "scores.svg"
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid),
                     "--out", str(tmp_path / "doc.json"),
                     "--svg", str(svg)]) == 0
        texts = [el.text for el in ET.parse(svg).iter(
            "{http://www.w3.org/2000/svg}text")]
        assert {"R&D", "a<b", "c>d"} <= set(texts)

    @pytest.mark.parametrize("n_words, plant", [(7, 4), (2, 1)])
    def test_svg_darkens_exactly_the_segment(self, tmp_path, n_words, plant):
        audio, tg, _ = make_emphasis_case(seeded_rng(12), n_words=n_words,
                                          plant_index=plant)
        wav, grid = tmp_path / "utt.wav", tmp_path / "utt.TextGrid"
        write_wav(wav, audio)
        grid.write_text(serialize_textgrid(tg), encoding="utf-8")
        out, svg = tmp_path / "doc.json", tmp_path / "scores.svg"
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid),
                     "--out", str(out), "--svg", str(svg)]) == 0
        indices = json.loads(out.read_text())["segment"]["indices"]
        assert plant in indices and len(indices) == min(3, n_words)
        fills = [el.get("fill") for el in ET.parse(svg).iter(
            "{http://www.w3.org/2000/svg}rect")][1:]    # after the background
        assert fills == ["#1f4e79" if i in indices else "#8fb4d9"
                         for i in range(n_words)]

    def test_missing_wav_exits_2(self, emphasis_files, capsys):
        _, grid, _ = emphasis_files
        assert main(["emphasis", "--wav", "/nonexistent.wav",
                     "--grid", str(grid)]) == 2

    @pytest.mark.parametrize("damage", [
        "bad_number", "utf16", "not_utf8", "after_quote", "past_tier_end"])
    def test_grid_errors_name_the_file_once(self, emphasis_files, capsys,
                                            damage):
        wav, grid, _ = emphasis_files
        text = grid.read_text(encoding="utf-8")
        grid.write_bytes({
            "bad_number": text.replace("xmin = ", "xmin = zz", 1).encode(),
            "utf16": text.encode("utf-16"),
            "not_utf8": text.replace('"words"', '"w\xe1rds"').encode("latin-1"),
            "after_quote": text.replace('text = ""', 'text = "a" b', 1).encode(),
            # the words tier ends before its later intervals do
            "past_tier_end": re.sub(r"xmax = \S+(\n +intervals:)",
                                    r"xmax = 0.5\1", text, count=1).encode(),
        }[damage])
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid}: ") and "Traceback" not in err
        # textgrid-check starts its report with the path, and only there
        assert main(["textgrid-check", str(grid)]) == 2
        out = capsys.readouterr().out
        kind = ("MalformedHeader" if damage in ("utf16", "not_utf8")
                else "NonMonotoneIntervals" if damage == "past_tier_end"
                else "MalformedBody")
        assert out.startswith(f"{grid}: {kind}: ")
        assert out.count(str(grid)) == 1

    @pytest.mark.parametrize("flag", ["--word-tier", "--phone-tier"])
    def test_missing_tier_names_the_grid_once(self, emphasis_files, capsys,
                                              no_pitch_track, flag):
        wav, grid, _ = emphasis_files
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid),
                     flag, "nope"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {grid}: no tier named 'nope' "
                       "(have: ['words', 'phones'])\n")

    @pytest.mark.parametrize("how", [how for how, _ in UNFIT_WAV])
    def test_bad_tier_is_reported_before_an_unfit_wav(self, emphasis_files,
                                                      capsys, how):
        wav, grid, _ = emphasis_files
        unfit(wav, how)
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid),
                     "--word-tier", "nope"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {grid}: no tier named 'nope'")

    def test_grid_without_words_names_the_grid(self, emphasis_files, capsys,
                                               no_pitch_track):
        wav, grid, _ = emphasis_files
        tg = read_textgrid_file(grid)
        silent = dataclasses.replace(tg.tier("words"), intervals=(
            Interval(tg.xmin, tg.xmax, "sil"),))
        grid.write_text(serialize_textgrid(dataclasses.replace(
            tg, tiers=(silent, tg.tier("phones")))), encoding="utf-8")
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid)]) == 2
        assert capsys.readouterr().err == (
            f"error: {grid}: tier 'words' has no word intervals\n")

    @pytest.mark.parametrize("how, message", UNFIT_WAV)
    def test_unfit_wav_names_the_file(self, emphasis_files, capsys, how,
                                      message):
        wav, grid, _ = emphasis_files
        unfit(wav, how)
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {wav}: {message}")

    def test_nonfinite_wav_sample_names_the_file(self, emphasis_files, capsys):
        wav, grid, _ = emphasis_files
        samples = np.array([0.0, np.nan, 0.0], dtype="<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data"
                + struct.pack("<I", len(samples)) + samples)
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {wav}: samples contain non-finite values\n"

    def test_unsupported_wav_exits_2(self, emphasis_files, capsys):
        wav, grid, _ = emphasis_files
        # rewrite the fmt chunk as 24-bit PCM: bytes 32..35 are
        # block align and bits per sample
        blob = bytearray(wav.read_bytes())
        blob[32:36] = struct.pack("<HH", 3, 24)
        wav.write_bytes(bytes(blob))
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "24-bit" in err
        assert "Traceback" not in err


class TestSynth:
    def test_writes_dataset_and_manifest(self, dataset, capsys):
        assert (dataset / "manifest.json").is_file()
        assert (dataset / "wavs").is_dir() and (dataset / "grids").is_dir()
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert sum(manifest["splits"].values()) == 12

    def test_seed_defaults_to_config(self, tmp_path, monkeypatch, capsys):
        # --seed is the only way to set it; the environment is not read
        monkeypatch.setenv("MSFSER_SEED", "7")
        a = tmp_path / "a"
        assert main(["synth", "--out", str(a), "--n", "12",
                     "--les-dim", "4", "--gs-dim", "4", "--es-dim", "4"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["config"]["seed"] == SynthConfig.seed == 0

    def test_seed_flags_read_config_defaults(self, monkeypatch):
        monkeypatch.setattr(SynthConfig, "seed", 5)
        monkeypatch.setattr(TrainConfig, "seed", 6)
        commands = build_parser().commands
        assert commands["synth"].get_default("seed") == 5
        assert commands["train"].get_default("seed") == 6

    @pytest.mark.parametrize("flag, value", [
        ("--les-dim", "0"), ("--es-dim", "-2"), ("--seed", "-1"),
    ])
    def test_bad_setting_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        code = main(["synth", "--out", str(out), "--n", "12", flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("value", ["0", "100", "8000"])
    def test_sample_rate_flag_is_refused(self, tmp_path, capsys, value):
        # every corpus is written at synth.SAMPLE_RATE; no option sets it
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(out), "--n", "12",
                  "--sample-rate", value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"unrecognized arguments: --sample-rate {value}" in err
        assert "Traceback" not in err and not out.exists()


# checkpoint data that numpy reads as one number, but that is no flat
# list of numbers
BAD_DATA = {"text_blob_data": "0.3", "nested_data": [[0.5]],
            "bool_data": [True], "digit_text_data": ["2"]}
# the damage to train_config.json's features, each one key or value
FEATURE_SPOILS = ("no_features_key", "text_feature", "huge_win_ms",
                  "zero_hop_ms", "f0_max_above_nyquist", "n_bands_mismatch",
                  "float_n_bands", "bool_feature", "extra_feature_key",
                  "window_key", "other_f0_min")


class TestTrainEval:
    def test_training_artifacts(self, trained, dataset):
        assert (trained / "checkpoint.json").is_file()
        assert (trained / "history.json").is_file()
        cfg = json.loads((trained / "train_config.json").read_text())
        assert set(cfg) == {"model", "train", "features"}
        assert cfg["train"]["epochs"] == 2
        # the one front end, as earlier builds recorded their defaults; the
        # text pins each value's type too
        assert json.dumps(cfg["features"], sort_keys=True) == (
            '{"f0_max": 450.0, "f0_min": 70.0, "hop_ms": 5.0, '
            '"n_bands": 8, "win_ms": 20.0}')
        params = load_checkpoint(trained / "checkpoint.json")
        assert "enc.w" in params
        history = json.loads((trained / "history.json").read_text())
        assert [row["epoch"] for row in history] == [1, 2]

    def test_train_stdout_summary(self, dataset, tmp_path, capsys):
        out = tmp_path / "run2"
        svg = tmp_path / "hist.svg"
        code = main(["train", "--data", str(dataset), "--out", str(out),
                     "--epochs", "1", "--batch-size", "8",
                     "--accum-steps", "1", "--lr", "1e-3", "--d-model", "4",
                     "--experts", "A", "--seed", "1", "--quiet",
                     "--svg", str(svg)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["epochs"] == 1 and summary["n_params"] > 0
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("track_dev", [False, True])
    def test_train_logs_each_epoch_to_stderr(self, dataset, tmp_path, capsys,
                                             track_dev):
        out = tmp_path / "run"
        code = main(["train", "--data", str(dataset), "--out", str(out),
                     "--epochs", "2", "--batch-size", "8",
                     "--accum-steps", "1", "--lr", "1e-3", "--d-model", "4"]
                    + ["--track-dev"] * track_dev)
        assert code == 0
        history = json.loads((out / "history.json").read_text())
        assert len(history) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"epoch {row['epoch']:4d}  loss {row['train_loss']:.4f}"
            + (f"  dev_ccc {row['dev_ccc_avg']:+.4f}" if track_dev else "")
            for row in history]

    def test_eval_report(self, trained, dataset, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["eval", "--data", str(dataset), "--model", str(trained),
                     "--split", "test", "--out", str(out)])
        assert code == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(out.read_text())
        assert stdout_doc == file_doc
        assert {"ccc_v", "ccc_a", "ccc_d", "ccc_avg", "n_utterances",
                "config_hash"} == set(file_doc)
        assert file_doc["n_utterances"] == 2

    def test_eval_missing_model_dir_exits_2(self, dataset, capsys):
        assert main(["eval", "--data", str(dataset),
                     "--model", "/nonexistent-model"]) == 2

    @staticmethod
    def _spoil_checkpoint(blob, how):
        name = sorted(blob["params"])[0]
        if how == "no_cols":
            del blob["params"][name]["cols"]
        elif how == "text_data":
            blob["params"][name]["data"][0] = "x"
        elif how == "nan_data":
            blob["params"][name]["data"][0] = float("nan")
        elif how == "float_rows":
            blob["params"][name]["rows"] = 1.5
        elif how == "params_list":
            blob["params"] = [1]
        elif how == "huge_int_data":
            blob["params"][name]["data"][0] = 10 ** 400
        elif how == "renamed_param":
            blob["params"]["x" + name] = blob["params"].pop(name)
        elif how in BAD_DATA:               # gate.b is 1 x 1
            blob["params"]["gate.b"]["data"] = BAD_DATA[how]
        return blob

    @staticmethod
    def _spoil_run_config(blob, how):
        if how == "no_model_keys":
            blob["model"] = {}
        elif how == "unknown_model_key":
            blob["model"]["width"] = 3
        elif how == "text_d_model":
            blob["model"]["d_model"] = "x"
        elif how == "no_features_key":
            del blob["features"]["n_bands"]
        elif how == "text_feature":
            blob["features"]["win_ms"] = "20"
        elif how == "huge_win_ms":
            blob["features"]["win_ms"] = 1e308
        elif how == "zero_hop_ms":
            blob["features"]["hop_ms"] = 0.0
        elif how == "f0_max_above_nyquist":
            blob["features"]["f0_max"] = 9000.0
        elif how == "zero_d_model":
            blob["model"]["d_model"] = 0
        elif how == "wider_d_model":
            blob["model"]["d_model"] += 1
        elif how == "n_bands_mismatch":
            blob["features"]["n_bands"] += 1
        elif how == "float_n_bands":
            blob["features"]["n_bands"] = 8.0
        elif how == "bool_feature":
            blob["features"]["f0_min"] = True
        elif how == "extra_feature_key":
            blob["features"]["window"] = 1
        elif how == "window_key":           # the taper the front end uses
            blob["features"]["window"] = "hann"
        elif how == "other_f0_min":         # an older build's --f0-min 60
            blob["features"]["f0_min"] = 60.0
        elif how == "wider_acoustic_dim":
            blob["model"]["acoustic_dim"] += 1
        elif how == "float_d_model":        # the same width as a float
            blob["model"]["d_model"] = float(blob["model"]["d_model"])
        elif how == "bool_d_model":
            blob["model"]["d_model"] = True
        elif how == "float_att_dim":
            blob["model"]["att_dim"] += 0.5
        elif how == "float_acoustic_dim":
            model = blob["model"]
            model["acoustic_dim"] = float(model["acoustic_dim"])
        elif how == "bool_les_dim":
            blob["model"]["les_dim"] = True
        elif how == "float_seed":
            blob["model"]["seed"] = 1.5
        elif how == "bool_dropout":
            blob["model"]["dropout"] = False
        elif how == "nan_lr":
            blob["train"]["lr"] = float("nan")
        elif how == "unknown_train_key":
            blob["train"]["no_such_field"] = [1, 2]
        elif how == "missing_train_key":
            del blob["train"]["weight_decay"]
        elif how == "text_epochs":
            blob["train"]["epochs"] = "many"
        elif how == "float_epochs":         # the same count as a float
            blob["train"]["epochs"] = float(blob["train"]["epochs"])
        elif how == "bool_seed":
            blob["train"]["seed"] = False
        return blob

    @pytest.mark.parametrize("target, how, code", [
        ("checkpoint.json", "[1]", 2),
        ("checkpoint.json", "{nope", 2),
        ("checkpoint.json", "no_cols", 2),
        ("checkpoint.json", "text_data", 2),
        ("checkpoint.json", "nan_data", 2),
        ("checkpoint.json", "float_rows", 2),
        ("checkpoint.json", "params_list", 2),
        ("checkpoint.json", '{"version": "msf-ser-ckpt-v1"}', 2),
        ("checkpoint.json", None, 2),
        ("checkpoint.json", "huge_int_data", 2),
        ("checkpoint.json", "not_utf8", 2),
        ("checkpoint.json", "renamed_param", 3),
        ("checkpoint.json", "deep", 2),
        ("checkpoint.json", "text_blob_data", 2),
        ("checkpoint.json", "nested_data", 2),
        ("checkpoint.json", "bool_data", 2),
        ("checkpoint.json", "digit_text_data", 2),
        ("train_config.json", "[1]", 2),
        ("train_config.json", '{"model": {}}', 2),
        ("train_config.json", "{nope", 2),
        ("train_config.json", "no_model_keys", 2),
        ("train_config.json", "unknown_model_key", 2),
        ("train_config.json", "text_d_model", 2),
        ("train_config.json", "no_features_key", 2),
        ("train_config.json", "text_feature", 2),
        ("train_config.json", "huge_win_ms", 2),
        ("train_config.json", "zero_hop_ms", 2),
        ("train_config.json", "f0_max_above_nyquist", 2),
        ("train_config.json", "zero_d_model", 2),
        ("train_config.json", "wider_d_model", 3),
        ("train_config.json", "n_bands_mismatch", 2),
        ("train_config.json", "float_n_bands", 2),
        ("train_config.json", "bool_feature", 2),
        ("train_config.json", "extra_feature_key", 2),
        ("train_config.json", "window_key", 2),
        ("train_config.json", "other_f0_min", 2),
        ("train_config.json", "wider_acoustic_dim", 2),
        ("train_config.json", "float_d_model", 2),
        ("train_config.json", "bool_d_model", 2),
        ("train_config.json", "float_att_dim", 2),
        ("train_config.json", "float_acoustic_dim", 2),
        ("train_config.json", "bool_les_dim", 2),
        ("train_config.json", "float_seed", 2),
        ("train_config.json", "bool_dropout", 2),
        ("train_config.json", "nan_lr", 2),
        ("train_config.json", "unknown_train_key", 2),
        ("train_config.json", "missing_train_key", 2),
        ("train_config.json", "text_epochs", 2),
        ("train_config.json", "float_epochs", 2),
        ("train_config.json", "bool_seed", 2),
        ("train_config.json", "deep", 2),
        ("embeddings.jsonl", "bad_line_3", 2),
    ])
    def test_eval_corrupt_model_exits_cleanly(self, trained, dataset, tmp_path,
                                              capsys, monkeypatch, target, how,
                                              code):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        data, path = dataset, model / target
        if how is None:
            path.unlink()
        elif how == "deep":
            path.write_text(DEEP_JSON)
        elif how.startswith(("[", "{")):
            path.write_text(how)
        elif how == "not_utf8":
            path.write_bytes(b"\xff" + path.read_bytes())
        elif how == "bad_line_3":
            data = shutil.copytree(dataset, tmp_path / "data")
            path = data / target
            lines = path.read_text().splitlines()
            lines[2] = "{nope"
            path.write_text("\n".join(lines) + "\n")
        else:
            spoil = (self._spoil_checkpoint if target == "checkpoint.json"
                     else self._spoil_run_config)
            path.write_text(json.dumps(spoil(json.loads(path.read_text()), how)))
        if how == "n_bands_mismatch":
            # the contradiction is found before the split is featurised
            monkeypatch.setattr("msfser.synth.load_examples", None)
        assert main(["eval", "--data", str(data),
                     "--model", str(model)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err
        if how in FEATURE_SPOILS:
            assert f"{path}: 'features' must be {FEATURES}" in err
        if how == "wider_acoustic_dim":
            assert f"{path}: model acoustic_dim 12 does not fit" in err
        if how in BAD_DATA:
            assert "'gate.b': 'data' must be a list of numbers" in err
        # the same defect reads the same in every JSON input
        if how == "bad_line_3":             # "{nope" on line 3
            assert f"{path}: line 3: not valid JSON: " in err
        if how == "{nope":
            assert f"{path}: not valid JSON: " in err
        if how == "deep":
            assert f"{path}: not valid JSON: nested too deeply" in err
        if how == "[1]":
            assert f"{path}: expected a JSON object" in err

    def test_eval_on_corpus_of_other_embedding_sizes_exits_2(
            self, trained, tmp_path, capsys):
        # the model was trained on 4-dim les, gs and es vectors
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--n", "12", "--seed", "0",
                     "--les-dim", "4", "--gs-dim", "4", "--es-dim", "6"]) == 0
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert main(["eval", "--data", str(data), "--model", str(trained),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {data / 'embeddings.jsonl'} does not fit "
            f"{trained / 'train_config.json'}: es vectors have 6 dims, "
            f"the model takes 4\n")
        assert not out.exists()

    @pytest.mark.parametrize("target, line, message", [
        pytest.param("embeddings.jsonl", DEEP_JSON,
                     "not valid JSON: nested too deeply", id="deep-json"),
        pytest.param("targets.csv", 'utt_0099,train,"' + "x" * 140_000,
                     "field larger than field limit (131072)",
                     id="oversized-csv-field"),
    ])
    def test_line_past_a_parser_limit_names_the_file_and_line(
            self, dataset, tmp_path, capsys, target, line, message):
        data = shutil.copytree(dataset, tmp_path / "data")
        path = data / target
        lines = path.read_text().splitlines()
        lines[2] = line
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("row, utt_id", [
        ("utt_0099,train,0.1", "'utt_0099'"),            # short row
        ("utt_0000,dev,0.1,0.2,0.3", "'utt_0000'"),      # repeated id
    ])
    def test_malformed_target_row_exits_2(self, dataset, tmp_path, capsys,
                                          row, utt_id):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        with open(data / "targets.csv", "a") as fh:
            fh.write(row + "\n")
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "targets.csv" in err
        assert utt_id in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("row, named", [
        (b"utt_0099,train,0.1,x0.2,0.3", b"'utt_0099'"),   # not a number
        (b"utt_0099,train,0.1,0.2,0.3\xe1", b"UTF-8"),      # not UTF-8
    ])
    def test_unreadable_target_row_exits_2(self, dataset, tmp_path, capsys,
                                           row, named):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        with open(data / "targets.csv", "ab") as fh:
            fh.write(row + b"\n")
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {data / 'targets.csv'}: ")
        assert named.decode() in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("how, message", UNFIT_WAV)
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unfit_wav_names_the_file_and_utterance(self, dataset, trained,
                                                    tmp_path, capsys, command,
                                                    how, message):
        data = shutil.copytree(dataset, tmp_path / "data")
        split = {"train": "train", "eval": "test"}[command]
        utt_id = next(r["utt_id"] for r in read_targets_csv(
            data / "targets.csv") if r["split"] == split)
        wav = data / "wavs" / f"{utt_id}.wav"
        unfit(wav, how)
        out = tmp_path / "run"
        argv = {"train": ["train", "--data", str(data), "--out", str(out),
                          "--quiet"],
                "eval": ["eval", "--data", str(data), "--model", str(trained),
                         "--out", str(out / "report.json")]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {wav} (utterance {utt_id!r}): "
                              f"{message}")
        assert not out.exists()

    @pytest.mark.parametrize("target", ["targets.csv", "embeddings.jsonl"])
    def test_corpus_short_of_utterances_names_the_file(self, dataset, tmp_path,
                                                       capsys, target):
        data = shutil.copytree(dataset, tmp_path / "data")
        rows = read_targets_csv(data / "targets.csv")
        utt_id = next(r["utt_id"] for r in rows if r["split"] == "dev")
        path = data / target
        lines = path.read_text().splitlines()
        if target == "targets.csv":         # one dev utterance is too few
            drop = [f"{r['utt_id']}," for r in rows
                    if r["split"] == "dev" and r["utt_id"] != utt_id]
            message = "split 'dev' has 1 utterance; each split needs at least 2"
        else:
            drop = [f'{{"id":"{utt_id}","channel":"gs",']
            message = f"no 'gs' embedding for utterance {utt_id!r}"
        path.write_text("\n".join(line for line in lines
                                  if not line.startswith(tuple(drop))) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--batch-size", "8", "--track-dev",
                     "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "", "utt_id,split,valence,arousal\nutt_0000,test,0.1,0.2\n",
    ], ids=["empty", "no-dominance"])
    def test_eval_targets_header_names_the_file(self, dataset, trained,
                                                tmp_path, capsys, text):
        data = shutil.copytree(dataset, tmp_path / "data")
        path = data / "targets.csv"
        path.write_text(text)
        out = tmp_path / "report.json"
        assert main(["eval", "--data", str(data), "--model", str(trained),
                     "--out", str(out)]) == 2
        # one line naming the file, so no Traceback
        assert capsys.readouterr().err == (
            f"error: {path}: targets CSV must have columns "
            f"['arousal', 'dominance', 'split', 'utt_id', 'valence']\n")
        assert not out.exists()

    def test_nonfinite_target_exits_2(self, dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        lines = (data / "targets.csv").read_text().splitlines()
        head, first = lines[0].split(","), lines[1].split(",")
        first[head.index("arousal")] = "nan"
        lines[1] = ",".join(first)
        (data / "targets.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "non-finite" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("column, value, message", [
        ("utt_id", "", "line 3: 'utt_id' must be a non-empty string"),
        ("split", "trian", "utterance {utt_id!r} has split 'trian', "
                           "expected one of ('train', 'dev', 'test')"),
    ], ids=["blank-id", "unknown-split"])
    def test_bad_targets_row_names_the_file(self, dataset, tmp_path, capsys,
                                            column, value, message):
        data = shutil.copytree(dataset, tmp_path / "data")
        path = data / "targets.csv"
        lines = path.read_text().splitlines()
        head, row = lines[0].split(","), lines[2].split(",")
        utt_id = row[head.index("utt_id")]
        row[head.index(column)] = value
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {message.format(utt_id=utt_id)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"),
        ("--epochs", "-3"),
        ("--batch-size", "1"),
        ("--batch-size", "0"),
        ("--accum-steps", "0"),
        ("--lr", "0"),
        ("--lr", "-1e-3"),
        ("--lr", "nan"),
        ("--weight-decay", "-1e-4"),
        ("--d-model", "0"),
        ("--d-model", "-3"),
        ("--dropout", "1.5"),
        ("--lr", "inf"),
        ("--weight-decay", "inf"),
        ("--experts", "5"),
    ])
    def test_bad_train_setting_exits_2(self, dataset, tmp_path, capsys,
                                       flag, value):
        out = tmp_path / "run"
        code = main(["train", "--data", str(dataset), "--out", str(out),
                     "--quiet", f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_model_settings_checked_before_featurising(
            self, dataset, tmp_path, capsys, monkeypatch):
        def no_features(*args, **kwargs):
            raise AssertionError("featurised before checking the settings")
        monkeypatch.setattr("msfser.synth.load_examples", no_features)
        code = main(["train", "--data", str(dataset), "--out",
                     str(tmp_path / "run"), "--quiet", "--experts", "5"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "experts" in err


class TestNonFiniteArtifacts:
    """A NaN bound for a JSON artifact fails with exit 3 naming the file."""

    @pytest.mark.parametrize("command, patch, value, target", [
        ("eval", "eval_report", {"ccc_avg": float("nan")}, "report.json"),
        ("train", "train_model", [{"epoch": 1, "train_loss": float("inf")}],
         "history.json"),
        ("emphasis", "words_to_json", {"words": [float("-inf")]}, "doc.json"),
    ])
    def test_exits_3_and_names_the_file(self, dataset, trained, emphasis_files,
                                        tmp_path, monkeypatch, capsys,
                                        command, patch, value, target):
        home = {"eval": "model", "train": "model", "emphasis": "lemf"}[command]
        monkeypatch.setattr(f"msfser.{home}.{patch}", lambda *a, **k: value)
        wav, grid, _ = emphasis_files
        out = tmp_path / "out"
        argv = {
            "eval": ["eval", "--data", str(dataset), "--model", str(trained),
                     "--out", str(tmp_path / "report.json")],
            "train": ["train", "--data", str(dataset), "--out", str(out),
                      "--epochs", "1", "--batch-size", "8", "--d-model", "4",
                      "--experts", "A", "--quiet"],
            "emphasis": ["emphasis", "--wav", str(wav), "--grid", str(grid),
                         "--out", str(tmp_path / "doc.json")],
        }[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and target in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / target).exists()
        assert not (out / target).exists()


class TestOutOfMemory:
    @pytest.mark.parametrize("command, patch", [
        ("synth", "generate_dataset"),
        ("emphasis", "run_lemf"),
    ])
    def test_memory_error_exits_3(self, emphasis_files, tmp_path, monkeypatch,
                                  capsys, command, patch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()
        home = {"synth": "synth", "emphasis": "lemf"}[command]
        monkeypatch.setattr(f"msfser.{home}.{patch}", out_of_memory)
        wav, grid, _ = emphasis_files
        argv = {"synth": ["synth", "--out", str(tmp_path / "data")],
                "emphasis": ["emphasis", "--wav", str(wav),
                             "--grid", str(grid)]}[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "error: MemoryError\n"


class TestFloatingPointTrouble:
    @pytest.mark.parametrize("op", [
        lambda: np.full(2, 1e308) * 10.0,
        lambda: np.zeros(2) / 0.0,
        lambda: np.log(np.zeros(2)),
    ], ids=["overflow", "invalid", "divide"])
    def test_exits_3_without_a_warning(self, emphasis_files, monkeypatch,
                                       capsys, op):
        monkeypatch.setattr("msfser.lemf.run_lemf", lambda *a, **k: op())
        wav, grid, _ = emphasis_files
        assert main(["emphasis", "--wav", str(wav), "--grid", str(grid)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "encountered" in err
        assert "Warning" not in err

    def test_train_overflow_exits_3(self, dataset, tmp_path, capsys):
        # a step this large overflows the loss; nothing is monkeypatched
        argv = ["train", "--data", str(dataset), "--out", str(tmp_path / "run"),
                "--epochs", "2", "--batch-size", "8", "--accum-steps", "1",
                "--d-model", "4", "--lr", "1e300", "--quiet"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflow encountered" in err
        src = Path(__import__("msfser").__file__).resolve().parents[1]
        result = subprocess.run([sys.executable, "-m", "msfser.cli", *argv],
                                cwd=src, capture_output=True, text=True)
        assert result.returncode == 3
        assert result.stderr.startswith("error: ")
        assert "overflow encountered" in result.stderr
        assert "Warning" not in result.stderr


# Edge-case numbers for the exit-code contract.  Count and size flags get
# only small values: large ones really allocate memory or loop.
FLOATS = (0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 1e-300)
COUNTS = (-1, 0, 1, 2)
FLAGS = {
    "emphasis": {},
    "synth": {"--n": COUNTS, "--les-dim": COUNTS, "--gs-dim": COUNTS,
              "--es-dim": COUNTS, "--seed": COUNTS},
    "train": {"--lr": FLOATS, "--weight-decay": FLOATS, "--dropout": FLOATS,
              "--epochs": COUNTS, "--batch-size": COUNTS,
              "--accum-steps": COUNTS, "--d-model": COUNTS, "--seed": COUNTS},
    "eval": {},
    "textgrid-check": {},
}
# eval takes its settings from train_config.json, edited per case; every
# edit of features is refused, since no value drawn here is FEATURES' own
RUN_CONFIG = {
    "features": {"win_ms": FLOATS, "hop_ms": FLOATS, "f0_min": FLOATS,
                 "f0_max": FLOATS, "n_bands": COUNTS},
    "model": {"d_model": COUNTS, "att_dim": COUNTS, "film_hidden": COUNTS,
              "expert_hidden": COUNTS, "acoustic_dim": COUNTS,
              "les_dim": COUNTS, "dropout": FLOATS},
    "train": {"epochs": COUNTS, "batch_size": COUNTS, "accum_steps": COUNTS,
              "seed": COUNTS, "lr": FLOATS, "weight_decay": FLOATS},
}
# train's settings; a case's own flags come after them, so they win
TRAIN_FLAGS = ("--epochs", "1", "--batch-size", "8", "--accum-steps", "1",
               "--d-model", "2", "--quiet")
NON_FINITE = re.compile(r"\b(NaN|Infinity|nan|inf)\b")
# The input files whose bytes each command's cases damage.  textgrid-check
# reads one to six damaged copies of the grid; the others damage at most
# one of their files.  Paths are relative to the case's directory; train
# reads a train-split WAV, and eval reads a test-split WAV.
DAMAGEABLE = {
    "emphasis": ("utt.TextGrid", "utt.wav"),
    "train": ("data/embeddings.jsonl", "data/targets.csv",
              "data/wavs/utt_0000.wav"),
    "eval": ("model/checkpoint.json", "model/train_config.json",
             "data/wavs/utt_0001.wav"),
    "textgrid-check": ("utt.TextGrid",),
}
# A damaged file that names other files may fail as the file it points at
POINTS_AT = {"targets.csv": "wavs"}
# Byte-level damage: (how, offset, byte).  The offset wraps around the
# file length, and a negative one counts from the end.  It is sampled, not
# drawn as an integer, so that it does not cluster at the start of a file.
DAMAGE = st.tuples(st.sampled_from(("truncate", "flip", "insert")),
                   st.sampled_from(range(-(1 << 12), 1 << 12)),
                   st.integers(1, 255))


def damage(data: bytes, how: str, offset: int, byte: int) -> bytes:
    at = offset % (len(data) + (how != "flip"))
    if how == "truncate":
        return data[:at]
    if how == "flip":
        return data[:at] + bytes([data[at] ^ byte]) + data[at + 1:]
    return data[:at] + bytes([byte]) + data[at:]


@st.composite
def cli_cases(draw):
    """(command, flags, run-config edits, switch, file damage).  At most
    two settings take an edge value, so each can get past the checks of
    the others."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    pools = dict(FLAGS[command])
    if command == "eval":
        pools = {(section, key): pool for section, keys in RUN_CONFIG.items()
                 for key, pool in keys.items()}
    names = draw(st.lists(st.sampled_from(sorted(pools)), max_size=2,
                          unique=True)) if pools else []
    picked = {name: draw(st.sampled_from(pools[name])) for name in names}
    switch = draw(st.booleans())
    damaged = []
    if command in DAMAGEABLE:
        several = command == "textgrid-check"
        damaged = draw(st.lists(
            st.tuples(st.sampled_from(DAMAGEABLE[command]), DAMAGE),
            min_size=int(several), max_size=6 if several else 1))
    if command == "eval":
        return command, {}, picked, switch, damaged
    return command, picked, {}, switch, damaged


@pytest.fixture(scope="session")
def contract_inputs(tmp_path_factory):
    """One emphasis case and a 12-utterance corpus rewritten at the lowest
    sample rate with a 1-epoch model trained on it."""
    root = tmp_path_factory.mktemp("contract-inputs")
    audio, tg, _ = make_emphasis_case(seeded_rng(5), n_words=5)
    write_wav(root / "utt.wav", audio)
    (root / "utt.TextGrid").write_text(serialize_textgrid(tg), encoding="utf-8")
    data, model = root / "data", str(root / "model")
    assert main(["synth", "--out", str(data), "--n", "12", "--seed", "0",
                 "--les-dim", "2", "--gs-dim", "2", "--es-dim", "2"]) == 0
    rewrite_wavs_at_lowest_rate(data)
    splits = {r["utt_id"]: r["split"]
              for r in read_targets_csv(data / "targets.csv")}
    assert (splits["utt_0000"], splits["utt_0001"]) == ("train", "test")
    assert main(["train", "--data", str(data), "--out", model,
                 *TRAIN_FLAGS]) == 0
    return root


class TestExitCodeContract:
    @settings(derandomize=True, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=cli_cases())
    def test_exit_code_contract(self, contract_inputs, tmp_path_factory, case):
        """Exit 0, 2 or 3; a failure says error:, nothing prints a
        traceback or a warning, and no output file holds a non-finite
        number.  A failure that damage to a file caused names that file.
        eval refuses a run config whose settings the config classes
        refuse, or whose features are not the front end's."""
        command, flags, edits, switch, damaged = case
        inp = contract_inputs
        refused = None
        root = tmp_path_factory.mktemp("contract")
        out = root / "out"
        out.mkdir()
        data = inp / "data"
        if command == "emphasis":
            for name in DAMAGEABLE[command]:
                shutil.copy(inp / name, root)
        if command in ("train", "eval") and damaged:
            data = shutil.copytree(data, root / "data")
        if command == "eval":
            model = shutil.copytree(inp / "model", root / "model")
            cfg_path = model / "train_config.json"
            blob = json.loads(cfg_path.read_text())
            for (section, key), value in edits.items():
                blob[section][key] = value
            cfg_path.write_text(json.dumps(blob))
            if blob["features"] != FEATURES:
                refused = "features"
            try:            # a setting the config classes refuse
                TrainConfig(**blob["train"])
                ModelConfig(**{**blob["model"],
                               "experts": tuple(blob["model"]["experts"])})
            except BadSetting as exc:
                refused = exc
        paths, intact = [], {}
        for k, (name, how) in enumerate(damaged):
            if command == "textgrid-check":         # a copy per damage
                paths.append(root / f"utt{k}.TextGrid")
                blob = (inp / name).read_bytes()
            else:
                paths.append(root / name)
                blob = intact[paths[-1]] = paths[-1].read_bytes()
            paths[-1].write_bytes(damage(blob, *how))

        if command == "emphasis":
            argv = ["emphasis", "--wav", root / "utt.wav",
                    "--grid", root / "utt.TextGrid", "--out", out / "doc.json",
                    "--csv", out / "track.csv", "--svg", out / "scores.svg"]
            argv += ["--phone-tier", ""] if switch else []
        elif command == "synth":
            argv = ["synth", "--out", out / "data", "--n", "12",
                    "--les-dim", "2", "--gs-dim", "2", "--es-dim", "2"]
        elif command == "train":
            argv = ["train", "--data", data, "--out", out / "run",
                    "--svg", out / "hist.svg", *TRAIN_FLAGS]
            argv += ["--track-dev"] if switch else []
        elif command == "eval":
            argv = ["eval", "--data", data, "--model", root / "model",
                    "--out", out / "report.json"]
        else:
            argv = ["textgrid-check", *paths]
            argv += [inp / "utt.wav"] if switch else []
        argv = [str(a) for a in argv] + [f"{k}={v}" for k, v in flags.items()]

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:       # argparse usage errors
                    code = exc.code
            return code, stdout.getvalue(), stderr.getvalue()

        code, stdout, err = run()
        assert code in (0, 2, 3), (argv, damaged, code, err)
        if refused is not None and (
                "model/train_config.json" not in dict(damaged)):
            assert code == 2, (edits, refused, code, err)
        if command == "textgrid-check":             # it reports per file
            assert all(f"{path}: " in stdout for path in argv[1:]), (
                argv, stdout)
        elif code:
            assert "error: " in err, (argv, damaged, err)
        if code:
            # two blocks that each name the file would name it twice
            report = stdout if command == "textgrid-check" else err
            assert all(report.count(str(path)) <= 1 for path in paths), (
                argv, damaged, report)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
        for path in out.rglob("*"):
            if path.is_file() and path.suffix != ".wav":
                text = path.read_text(encoding="utf-8")
                assert not NON_FINITE.search(text), (argv, path)
        if code and intact:
            # the damage caused the failure when the intact file passes
            (path, blob), = intact.items()
            path.write_bytes(blob)
            if run()[0] == 0:
                pointee = POINTS_AT.get(path.name)
                names = [path] + ([path.parent / pointee] if pointee else [])
                assert any(str(name) in err for name in names), (
                    argv, damaged, err)


# One small run of every command, each a process of its own.  Paths are
# relative to the run's directory, so the two runs name the same files.
CROSS_PROCESS_RUN = (
    ["synth", "--out", "data", "--n", "24", "--seed", "3",
     "--les-dim", "6", "--gs-dim", "6", "--es-dim", "6"],
    # C8's train flags
    ["train", "--data", "data", "--out", "run", "--epochs", "4",
     "--batch-size", "8", "--accum-steps", "1", "--lr", "1e-3",
     "--d-model", "6", "--dropout", "0.3", "--seed", "3", "--quiet",
     "--svg", "history.svg"],
    ["eval", "--data", "data", "--model", "run", "--split", "test",
     "--out", "report.json"],
    ["emphasis", "--wav", "data/wavs/utt_0000.wav",
     "--grid", "data/grids/utt_0000.TextGrid", "--out", "emphasis.json",
     "--csv", "track.csv", "--svg", "scores.svg"],
    ["textgrid-check"] + [f"data/grids/utt_{i:04d}.TextGrid" for i in range(24)],
)


class TestCrossProcessDeterminism:
    def test_every_artifact_and_stdout_is_byte_stable(self, tmp_path):
        """Two runs in fresh processes, in different directories and under
        different hash seeds, write the same bytes to every file and to
        stdout."""
        src = Path(__import__("msfser").__file__).resolve().parents[1]
        runs = []
        for hash_seed in ("1", "2"):
            cwd = tmp_path / f"seed{hash_seed}"
            cwd.mkdir()
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
            stdouts = [subprocess.run(
                [sys.executable, "-m", "msfser.cli", *argv], cwd=cwd, env=env,
                capture_output=True, check=True).stdout
                for argv in CROSS_PROCESS_RUN]
            files = {str(path.relative_to(cwd)):
                     hashlib.sha256(path.read_bytes()).hexdigest()
                     for path in sorted(cwd.rglob("*")) if path.is_file()}
            runs.append((stdouts, files))
        (stdouts, files), again = runs
        # 24 WAVs and grids, 3 corpus tables, 3 run files, 5 other outputs
        assert len(files) == 2 * 24 + 3 + 3 + 5
        assert b'"out": "run"' in stdouts[1]
        assert (stdouts, files) == again


class TestRuntime:
    @staticmethod
    def loaded_after(statement, *argv, package="msfser"):
        """The modules of package a fresh interpreter holds after statement."""
        src = Path(__import__("msfser").__file__).resolve().parents[1]
        # the list goes on a line of its own, after anything statement prints
        code = (f"import sys\n{statement}\nprint('\\n' + ' '.join(sorted("
                f"m for m in sys.modules if m.split('.')[0] == {package!r})))")
        result = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                                cwd=src, capture_output=True, text=True,
                                check=True)
        return result.stdout.splitlines()[-1].split()

    @pytest.fixture(scope="class")
    def computing_loads(self, dataset, trained, tmp_path_factory):
        """The numpy modules a fresh process holds after each command that
        computes, by command."""
        tmp = tmp_path_factory.mktemp("computing")
        audio, tg, _ = make_emphasis_case(seeded_rng(11), n_words=6)
        write_wav(tmp / "utt.wav", audio)
        (tmp / "utt.TextGrid").write_text(serialize_textgrid(tg),
                                          encoding="utf-8")
        run = "from msfser.cli import main\nassert main(sys.argv[1:]) == 0"
        return {argv[0]: self.loaded_after(run, *argv, package="numpy")
                for argv in (
                    ["emphasis", "--wav", tmp / "utt.wav",
                     "--grid", tmp / "utt.TextGrid", "--out", tmp / "doc.json"],
                    ["synth", "--out", tmp / "data", "--n", "12"],
                    ["train", "--data", dataset, "--out", tmp / "run",
                     "--epochs", "1", "--batch-size", "8", "--d-model", "4",
                     "--quiet"],
                    ["eval", "--data", dataset, "--model", trained,
                     "--out", tmp / "report.json"])}

    def test_bare_import_loads_no_submodule(self):
        assert self.loaded_after("import msfser") == ["msfser"]

    def test_cli_import_loads_only_config_and_errors(self):
        assert self.loaded_after("import msfser.cli") == [
            "msfser", "msfser.cli", "msfser.config", "msfser.errors"]

    def test_emphasis_loads_no_training_stack(self, emphasis_files, tmp_path):
        wav, grid, _ = emphasis_files
        loaded = self.loaded_after(
            "from msfser.cli import main\nassert main(sys.argv[1:]) == 0",
            "emphasis", "--wav", wav, "--grid", grid,
            "--out", tmp_path / "doc.json")
        assert "msfser.lemf" in loaded
        assert not {"msfser.model", "msfser.synth", "msfser.embeddings",
                    "msfser.numcore"} & set(loaded)

    def test_commands_load_no_masked_arrays(self, computing_loads):
        # numpy.ma adds about 1.2 MiB to each process; np.unique's
        # masked-array check is what imported it
        for command, loaded in computing_loads.items():
            assert "numpy.ma" not in loaded, command

    @pytest.mark.parametrize("argv, code", [
        ("--version", 0),
        ("--help", 0),
        ("train --help", 0),
        ("train --data d", 2),                          # --out is missing
        # an option no parser has
        ("--config {tmp}/bad.json textgrid-check {tmp}/ok.TextGrid", 2),
        ("textgrid-check {tmp}/ok.TextGrid", 0),
    ])
    def test_commands_that_compute_nothing_load_no_numpy(self, tmp_path, argv,
                                                         code):
        (tmp_path / "ok.TextGrid").write_text(GOOD_GRID, encoding="utf-8")
        run = ("from msfser.cli import main\n"
               "try:\n    code = main(sys.argv[1:])\n"
               "except SystemExit as exc:\n    code = exc.code\n"
               f"assert code == {code}, code")
        argv = argv.format(tmp=tmp_path).split()
        assert self.loaded_after(run, *argv, package="numpy") == []

    def test_commands_that_compute_load_numpy(self, computing_loads):
        assert set(computing_loads) == {"emphasis", "synth", "train", "eval"}
        for command, loaded in computing_loads.items():
            assert "numpy" in loaded, command

    def test_eval_and_emphasis_draw_nothing(self, computing_loads):
        # numpy.random and the extension modules it pulls in add about
        # 6 MiB; eval builds its model from the checkpoint, not a draw
        for command in ("eval", "emphasis"):
            assert "numpy.random" not in computing_loads[command], command
        assert "numpy.random" in computing_loads["train"]

    def test_every_export_is_its_home_modules_object(self):
        check = """
import importlib
import msfser
homes = {name: "msfser." + module for name, module in msfser._EXPORTS.items()}
assert set(msfser.__all__) == set(homes) | {"__version__"}
for name, home in homes.items():
    obj = getattr(msfser, name)
    assert obj is getattr(importlib.import_module(home), name), name
    assert not callable(obj) or obj.__module__ == home, name
"""
        assert "msfser.model" in self.loaded_after(check)

    def test_import_loads_no_scipy(self):
        src = Path(__import__("msfser").__file__).resolve().parents[1]
        code = ("import msfser.cli, sys; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], cwd=src,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_numpy_is_the_only_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__import__("msfser").__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
        assert any(d.startswith("scipy") for d in
                   project["optional-dependencies"]["test"])

    def test_sources_parse_as_python_3_10(self):
        # pyproject.toml promises Python >= 3.10; this checks the grammar
        # only, not calls into 3.11-only library functions
        root = Path(__file__).resolve().parents[1]
        paths = [path for top in ("src", "tests", "demos")
                 for path in sorted((root / top).rglob("*.py"))]
        assert len(paths) > 20
        for path in paths:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv, message", [
        # argparse alone reports "invalid choice: 'x.json'" here
        ("--config x.json train --data d --out o",
         "unrecognized arguments: --config\n"),
        ("--bogus emphasis --wav w --grid g", "unrecognized arguments: --bogus\n"),
        ("x.json train", "invalid choice: 'x.json'"),
        ("emphasis --wav w --grid g --mode topk",
         "unrecognized arguments: --mode topk\n"),
        # no option sets the front end
        ("train --data d --out o --f0-min 60",
         "unrecognized arguments: --f0-min 60\n"),
        ("emphasis --wav w --grid g --win-ms 25",
         "unrecognized arguments: --win-ms 25\n"),
    ])
    def test_usage_error_names_the_unknown_word(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv.split())
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_docs_list_the_parsers_subcommands(self):
        # README's usage block and the cli docstring name every subcommand
        # the parser has, and no other
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        usage = readme.split("## Command line", 1)[1].split("```")[1]
        in_readme = sorted(re.findall(r"^msfser (\S+)", usage, re.MULTILINE))
        block = inspect.getmodule(main).__doc__.split(
            "Subcommands:\n\n", 1)[1].split("\n\n", 1)[0]
        in_docstring = sorted(line.split()[0] for line in block.splitlines())
        commands = build_parser().commands
        assert in_readme == in_docstring == sorted(commands)

    def test_one_default_per_setting(self, trained, monkeypatch):
        fields = {f.name for f in dataclasses.fields(SynthConfig)}
        assert fields == {"n_utts", "les_dim", "gs_dim", "es_dim", "seed"}
        for fn in (estimate_f0, acoustic_frames):
            params = inspect.signature(fn).parameters
            assert (params["f0_min"].default,
                    params["f0_max"].default) == (F0_MIN, F0_MAX), fn
        assert (LemfConfig().f0_min, LemfConfig().f0_max) == (F0_MIN, F0_MAX)
        assert inspect.signature(acoustic_frames).parameters[
            "n_bands"].default == N_BANDS
        # FEATURES is made of the shared constants, and train_config.json
        # records it
        assert FEATURES == {
            "win_ms": FrameConfig.win_ms, "hop_ms": FrameConfig.hop_ms,
            "n_bands": N_BANDS, "f0_min": F0_MIN, "f0_max": F0_MAX}
        run_cfg = json.loads((trained / "train_config.json").read_text())
        assert run_cfg["features"] == FEATURES

        # the flags named after a config field: option string, dest, type
        commands = build_parser().commands
        field_flags = {
            "synth": {"les_dim": int, "gs_dim": int, "es_dim": int,
                      "seed": int},
            "train": {"epochs": int, "batch_size": int, "accum_steps": int,
                      "lr": float, "weight_decay": float, "seed": int},
        }
        for command, flags in field_flags.items():
            actions = commands[command]._option_string_actions
            for name, kind in flags.items():
                action = actions["--" + name.replace("_", "-")]
                assert (action.dest, action.type) == (name, kind), name
        # no option sets the front end
        for command in ("emphasis", "train"):
            actions = commands[command]._option_string_actions
            for name in FEATURES:
                assert "--" + name.replace("_", "-") not in actions, name
        assert "--n-utts" not in commands["synth"]._option_string_actions
        n = commands["synth"]._option_string_actions["--n"]
        assert (n.dest, n.type) == ("n", int)

        # every other flag default is read from the config field it sets
        homes = [
            (SynthConfig, ("synth",),
             {"n": "n_utts", "les_dim": "les_dim", "gs_dim": "gs_dim",
              "es_dim": "es_dim"}),
            (TrainConfig, ("train",),
             {name: name for name in ("epochs", "batch_size", "accum_steps",
                                      "lr", "weight_decay")}),
            (ModelConfig, ("train",),
             {"d_model": "d_model", "dropout": "dropout",
              "experts": "experts"}),
            (LemfConfig, ("emphasis",),
             {"word_tier": "word_tier", "phone_tier": "phone_tier"}),
        ]
        for config, _, fields in homes:
            for name in fields.values():
                monkeypatch.setattr(config, name, f"{config.__name__}.{name}")
        monkeypatch.setattr(ModelConfig, "experts", ("X", "Y"))
        commands = build_parser().commands
        for config, names, fields in homes:
            for dest, name in fields.items():
                want = ("XY" if name == "experts"
                        else f"{config.__name__}.{name}")
                for command in names:
                    assert commands[command].get_default(dest) == want, dest

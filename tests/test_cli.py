"""Command-line interface, exercised in-process through main(argv)."""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msfser.cli import build_parser, main
from msfser.dsp import (
    F0_MAX,
    F0_MIN,
    N_BANDS,
    FrameConfig,
    acoustic_frames,
    estimate_f0,
    write_wav,
)
from msfser.embeddings import EmbeddingStore, toy_embedding
from msfser.lemf import LemfConfig
from msfser.model import ModelConfig, TrainConfig
from msfser.numcore import load_checkpoint, seeded_rng
from msfser.synth import SynthConfig, load_examples, make_emphasis_case
from msfser.textgrid import serialize_textgrid

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

    def test_topk_mode_flag(self, emphasis_files, capsys):
        wav, grid, _ = emphasis_files
        code = main(["emphasis", "--wav", str(wav), "--grid", str(grid),
                     "--mode", "topk", "--k", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segment"]["mode"] == "topk"
        assert len(doc["segment"]["indices"]) == 2

    @pytest.mark.parametrize("flags, field", [
        (["--win-ms", "0.01", "--hop-ms", "0.01"], "win_ms"),
        (["--f0-min", "0"], "f0_min"),
        (["--f0-min", "-5"], "f0_min"),
        (["--f0-max", "inf"], "f0_max"),
        (["--mode", "topk", "--k", "0"], "k=0"),
        (["--mode", "topk", "--k", "-2"], "k=-2"),
        (["--win-ms", "inf"], "win_ms"),
        (["--win-ms", "1e308"], "win_ms"),
    ])
    def test_bad_setting_exits_2(self, emphasis_files, tmp_path, capsys,
                                 flags, field):
        wav, grid, _ = emphasis_files
        out = tmp_path / "emph.json"
        code = main(["emphasis", "--wav", str(wav), "--grid", str(grid),
                     "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err and not out.exists()

    def test_missing_wav_exits_2(self, emphasis_files, capsys):
        _, grid, _ = emphasis_files
        assert main(["emphasis", "--wav", "/nonexistent.wav",
                     "--grid", str(grid)]) == 2

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

    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MSFSER_SEED", "7")
        a = tmp_path / "a"
        assert main(["synth", "--out", str(a), "--n", "10",
                     "--les-dim", "4", "--gs-dim", "4", "--es-dim", "4"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["config"]["seed"] == 7

    def test_invalid_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MSFSER_SEED", "banana")
        assert main(["synth", "--out", str(tmp_path / "x"), "--n", "10"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--sample-rate", "0"), ("--les-dim", "0"), ("--es-dim", "-2"),
        ("--sample-rate", "100"),
    ])
    def test_bad_setting_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        code = main(["synth", "--out", str(out), "--n", "10", flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
        assert "Traceback" not in err and not out.exists()


class TestTrainEval:
    def test_training_artifacts(self, trained, dataset):
        assert (trained / "checkpoint.json").is_file()
        assert (trained / "history.json").is_file()
        cfg = json.loads((trained / "train_config.json").read_text())
        assert set(cfg) == {"model", "train", "features"}
        assert cfg["train"]["epochs"] == 2
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
        elif how == "n_bands_mismatch":
            blob["features"]["n_bands"] += 1
        return blob

    @pytest.mark.parametrize("target, how, code", [
        ("checkpoint.json", "[1]", 3),
        ("checkpoint.json", "{nope", 3),
        ("checkpoint.json", "no_cols", 3),
        ("checkpoint.json", "text_data", 3),
        ("checkpoint.json", "nan_data", 3),
        ("checkpoint.json", "float_rows", 3),
        ("checkpoint.json", "params_list", 3),
        ("checkpoint.json", None, 2),
        ("train_config.json", "[1]", 2),
        ("train_config.json", '{"model": {}}', 2),
        ("train_config.json", "{nope", 2),
        ("train_config.json", "no_model_keys", 2),
        ("train_config.json", "unknown_model_key", 2),
        ("train_config.json", "text_d_model", 2),
        ("train_config.json", "no_features_key", 2),
        ("train_config.json", "text_feature", 2),
        ("train_config.json", "huge_win_ms", 2),
        ("train_config.json", "n_bands_mismatch", 2),
    ])
    def test_eval_corrupt_model_exits_cleanly(self, trained, dataset, tmp_path,
                                              capsys, monkeypatch, target, how,
                                              code):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        path = model / target
        if how is None:
            path.unlink()
        elif how.startswith(("[", "{")):
            path.write_text(how)
        else:
            spoil = (self._spoil_checkpoint if target == "checkpoint.json"
                     else self._spoil_run_config)
            path.write_text(json.dumps(spoil(json.loads(path.read_text()), how)))
        if how == "n_bands_mismatch":
            # the contradiction is found before the split is featurised
            monkeypatch.setattr("msfser.cli.load_examples", None)
        assert main(["eval", "--data", str(dataset),
                     "--model", str(model)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if how == "huge_win_ms":
            assert "win_ms=1e+308" in err
        if how == "n_bands_mismatch":
            assert "train_config.json" in err and "n_bands" in err

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
        ("--n-bands", "-1"),
        ("--win-ms", "inf"),
        ("--win-ms", "1e308"),
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
        monkeypatch.setattr("msfser.cli._load_split", no_features)
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
        monkeypatch.setattr(f"msfser.cli.{patch}", lambda *a, **k: value)
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
        monkeypatch.setattr(f"msfser.cli.{patch}", out_of_memory)
        wav, grid, _ = emphasis_files
        argv = {"synth": ["synth", "--out", str(tmp_path / "data")],
                "emphasis": ["emphasis", "--wav", str(wav),
                             "--grid", str(grid)]}[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "error: MemoryError\n"


class TestEmbed:
    def write_tsv(self, path, rows):
        path.write_text("".join(f"{i}\t{t}\n" for i, t in rows),
                        encoding="utf-8")

    def test_tsv_to_jsonl(self, tmp_path, capsys):
        tsv = tmp_path / "in.tsv"
        self.write_tsv(tsv, [("u1", "hello world"), ("u2", "quiet words")])
        out = tmp_path / "emb.jsonl"
        code = main(["embed", "--input", str(tsv), "--out", str(out),
                     "--channel", "les", "--dim", "8"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["written"] == 2
        store = EmbeddingStore.load_jsonl(out)
        assert np.array_equal(store.get("u1", "les"),
                              toy_embedding("hello world", 8, "les"))

    def test_deterministic_bytes(self, tmp_path):
        tsv = tmp_path / "in.tsv"
        self.write_tsv(tsv, [("u1", "a b"), ("u2", "c")])
        o1, o2 = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
        for o in (o1, o2):
            assert main(["embed", "--input", str(tsv), "--out", str(o),
                         "--dim", "4"]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_append_second_channel(self, tmp_path):
        tsv = tmp_path / "in.tsv"
        self.write_tsv(tsv, [("u1", "text")])
        out = tmp_path / "emb.jsonl"
        assert main(["embed", "--input", str(tsv), "--out", str(out),
                     "--channel", "les", "--dim", "4"]) == 0
        assert main(["embed", "--input", str(tsv), "--out", str(out),
                     "--channel", "gs", "--dim", "4", "--append"]) == 0
        store = EmbeddingStore.load_jsonl(out)
        assert np.array_equal(store.get("u1", "les"),
                              toy_embedding("text", 4, "les"))
        assert np.array_equal(store.get("u1", "gs"),
                              toy_embedding("text", 4, "gs"))

    def test_duplicate_without_append_is_error(self, tmp_path, capsys):
        tsv = tmp_path / "in.tsv"
        self.write_tsv(tsv, [("u1", "text")])
        out = tmp_path / "emb.jsonl"
        assert main(["embed", "--input", str(tsv), "--out", str(out),
                     "--channel", "les", "--dim", "4"]) == 0
        code = main(["embed", "--input", str(tsv), "--out", str(out),
                     "--channel", "les", "--dim", "4", "--append"])
        assert code == 2

    def test_malformed_tsv_exits_2(self, tmp_path, capsys):
        tsv = tmp_path / "in.tsv"
        tsv.write_text("no-tab-here\n", encoding="utf-8")
        assert main(["embed", "--input", str(tsv),
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_bad_dim_exits_2_on_empty_input(self, tmp_path, capsys, dim):
        tsv, out = tmp_path / "in.tsv", tmp_path / "o.jsonl"
        tsv.write_text("", encoding="utf-8")
        assert main(["embed", "--input", str(tsv), "--out", str(out),
                     f"--dim={dim}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dim" in err
        assert not out.exists()


class TestConfigFile:
    def test_config_sets_defaults(self, emphasis_files, tmp_path, capsys):
        wav, grid, _ = emphasis_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "topk", "k": 2}))
        code = main(["--config", str(cfg), "emphasis",
                     "--wav", str(wav), "--grid", str(grid)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segment"]["mode"] == "topk"
        assert len(doc["segment"]["indices"]) == 2

    def test_explicit_flag_beats_config(self, emphasis_files, tmp_path,
                                        capsys):
        wav, grid, _ = emphasis_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "topk", "k": 2}))
        code = main(["--config", str(cfg), "emphasis", "--wav", str(wav),
                     "--grid", str(grid), "--mode", "adjacent"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segment"]["mode"] == "adjacent"

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--config", str(tmp_path / "missing.json"),
                  "textgrid-check", "x"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "missing.json" in stderr and "Traceback" not in stderr

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "textgrid-check", "x"])
        assert err.value.code == 2

    @pytest.mark.parametrize("blob", [
        {"epochz": 3},
        {"epochs": 3, "func": "x"},
        {"seed": 1, "help": True},
    ])
    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path,
                                               capsys, blob):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blob))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "train", "--data", str(dataset),
                  "--out", str(out), "--quiet"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        bad = sorted(set(blob) - {"epochs", "seed"})
        assert f"unknown keys {', '.join(bad)}" in stderr
        assert "Traceback" not in stderr and not out.exists()

    def test_key_of_another_subcommand_is_accepted(self, dataset, tmp_path,
                                                   capsys):
        # seed is shared by synth and train; mode belongs to emphasis only
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4, "mode": "topk", "epochs": 1,
                                   "batch-size": 8, "d_model": 4}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "train", "--data", str(dataset),
                     "--out", str(out), "--quiet"]) == 0
        run_cfg = json.loads((out / "train_config.json").read_text())
        assert run_cfg["train"]["seed"] == 4
        assert run_cfg["train"]["epochs"] == 1
        assert run_cfg["train"]["batch_size"] == 8


    @pytest.mark.parametrize("blob", [
        {"epochs": 2.5},
        {"epochs": True},
        {"epochs": "two"},
        {"experts": 5},
        {"lr": [1e-3]},
        {"seed": None},
        {"quiet": "yes"},
        {"quiet": 1},
        {"track_dev": {}},
    ])
    def test_bad_config_value_exits_2(self, dataset, tmp_path, capsys, blob):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(blob))
        out = tmp_path / "run"
        try:
            code = main(["--config", str(cfg), "train", "--data", str(dataset),
                         "--out", str(out), "--quiet"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        stderr = capsys.readouterr().err
        assert "error: " in stderr and "Traceback" not in stderr
        assert not out.exists()

    def test_config_values_convert_like_flags(self, dataset, tmp_path,
                                              capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "lr": 0.002, "quiet": True,
                                   "batch_size": "8", "d_model": 4}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "train", "--data", str(dataset),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        train = json.loads((out / "train_config.json").read_text())["train"]
        assert (train["epochs"], train["lr"], train["batch_size"]) == (1, 0.002, 8)


# Edge-case numbers for the exit-code contract.  Count and size flags get
# only small values: large ones really allocate memory or loop.
FLOATS = (0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 1e-300)
COUNTS = (-1, 0, 1, 2)
FLAGS = {
    "emphasis": {"--win-ms": FLOATS, "--hop-ms": FLOATS, "--f0-min": FLOATS,
                 "--f0-max": FLOATS, "--k": COUNTS},
    "synth": {"--n": COUNTS, "--les-dim": COUNTS, "--gs-dim": COUNTS,
              "--es-dim": COUNTS},
    "train": {"--lr": FLOATS, "--weight-decay": FLOATS, "--dropout": FLOATS,
              "--win-ms": FLOATS, "--hop-ms": FLOATS, "--f0-min": FLOATS,
              "--f0-max": FLOATS, "--epochs": COUNTS, "--batch-size": COUNTS,
              "--accum-steps": COUNTS, "--d-model": COUNTS,
              "--n-bands": COUNTS},
    "eval": {},
    "embed": {"--dim": COUNTS},
    "textgrid-check": {},
}
# eval takes its settings from train_config.json, edited per case
RUN_CONFIG = {
    "features": {"win_ms": FLOATS, "hop_ms": FLOATS, "f0_min": FLOATS,
                 "f0_max": FLOATS, "n_bands": COUNTS},
    "model": {"d_model": COUNTS, "att_dim": COUNTS, "film_hidden": COUNTS,
              "expert_hidden": COUNTS, "acoustic_dim": COUNTS,
              "les_dim": COUNTS, "dropout": FLOATS},
}
NON_FINITE = re.compile(r"\b(NaN|Infinity|nan|inf)\b")
# Byte-level damage to the input TextGrid: (how, offset, byte).  The
# offset wraps around the file length; it is sampled, not drawn as an
# integer, so that it does not cluster in the header.
GRID_DAMAGE = st.tuples(st.sampled_from(("truncate", "flip", "insert")),
                        st.sampled_from(range(1 << 12)), st.integers(1, 255))


def damage(data: bytes, how: str, offset: int, byte: int) -> bytes:
    at = offset % (len(data) + (how != "flip"))
    if how == "truncate":
        return data[:at]
    if how == "flip":
        return data[:at] + bytes([data[at] ^ byte]) + data[at + 1:]
    return data[:at] + bytes([byte]) + data[at:]


@st.composite
def cli_cases(draw):
    """(command, flags, run-config edits, switch, grid damage).  At most
    two settings take an edge value, so each can get past the checks of
    the others.  textgrid-check reads one to six damaged grids, emphasis
    none or one."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    pools = dict(FLAGS[command])
    if command == "eval":
        pools = {(section, key): pool for section, keys in RUN_CONFIG.items()
                 for key, pool in keys.items()}
    names = draw(st.lists(st.sampled_from(sorted(pools)), max_size=2,
                          unique=True)) if pools else []
    picked = {name: draw(st.sampled_from(pools[name])) for name in names}
    switch = draw(st.booleans())
    grids = []
    if command == "textgrid-check":
        grids = draw(st.lists(GRID_DAMAGE, min_size=1, max_size=6))
    elif command == "emphasis":
        grids = draw(st.lists(GRID_DAMAGE, max_size=1))
    if command == "eval":
        return command, {}, picked, switch, grids
    return command, picked, {}, switch, grids


@pytest.fixture(scope="session")
def contract_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract-inputs")
    audio, tg, _ = make_emphasis_case(seeded_rng(5), n_words=5)
    write_wav(root / "utt.wav", audio)
    (root / "utt.TextGrid").write_text(serialize_textgrid(tg), encoding="utf-8")
    (root / "empty.tsv").write_text("", encoding="utf-8")
    (root / "two.tsv").write_text("u1\thello there\nu2\tquiet\n",
                                  encoding="utf-8")
    return root


class TestExitCodeContract:
    @settings(derandomize=True, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=cli_cases())
    def test_exit_code_contract(self, dataset, trained, contract_inputs,
                                tmp_path_factory, case):
        """Exit 0, 2 or 3; a failure says error:, nothing prints a
        traceback or a warning, and no output file holds a non-finite
        number."""
        command, flags, edits, switch, grid_damage = case
        inp = contract_inputs
        root = tmp_path_factory.mktemp("contract")
        out = root / "out"
        out.mkdir()
        grids = []
        for k, how in enumerate(grid_damage):
            grids.append(root / f"utt{k}.TextGrid")
            grids[-1].write_bytes(damage((inp / "utt.TextGrid").read_bytes(),
                                         *how))
        grids = grids or [inp / "utt.TextGrid"]
        if command == "emphasis":
            argv = ["emphasis", "--wav", inp / "utt.wav",
                    "--grid", grids[0], "--out", out / "doc.json",
                    "--csv", out / "track.csv", "--svg", out / "scores.svg"]
            argv += ["--mode", "topk"] if switch else []
        elif command == "synth":
            argv = ["synth", "--out", out / "data", "--n", "10",
                    "--les-dim", "2", "--gs-dim", "2", "--es-dim", "2"]
        elif command == "train":
            argv = ["train", "--data", dataset, "--out", out / "run",
                    "--epochs", "1", "--batch-size", "8", "--accum-steps", "1",
                    "--d-model", "2", "--quiet", "--svg", out / "hist.svg"]
            argv += ["--track-dev"] if switch else []
        elif command == "eval":
            model = shutil.copytree(trained, root / "model")
            cfg_path = model / "train_config.json"
            blob = json.loads(cfg_path.read_text())
            for (section, key), value in edits.items():
                blob[section][key] = value
            cfg_path.write_text(json.dumps(blob))
            argv = ["eval", "--data", dataset, "--model", model,
                    "--out", out / "report.json"]
        elif command == "embed":
            argv = ["embed", "--input",
                    inp / ("two.tsv" if switch else "empty.tsv"),
                    "--out", out / "emb.jsonl"]
        else:
            argv = ["textgrid-check", *grids]
            argv += [inp / "utt.wav"] if switch else []
        argv = [str(a) for a in argv] + [f"{k}={v}" for k, v in flags.items()]

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:       # argparse usage errors
                code = exc.code
        err = stderr.getvalue()
        assert code in (0, 2, 3), (argv, code, err)
        if command == "textgrid-check":             # it reports per file
            assert all(f"{path}: " in stdout.getvalue()
                       for path in argv[1:]), (argv, stdout.getvalue())
        elif code:
            assert "error: " in err, (argv, err)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
        for path in out.rglob("*"):
            if path.is_file() and path.suffix != ".wav":
                text = path.read_text(encoding="utf-8")
                assert not NON_FINITE.search(text), (argv, path)


class TestRuntime:
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


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_one_default_per_setting(self, monkeypatch):
        fields = {f.name for f in dataclasses.fields(SynthConfig)}
        assert fields == {"n_utts", "sample_rate", "les_dim", "gs_dim",
                          "es_dim", "seed"}
        for fn in (estimate_f0, acoustic_frames, load_examples):
            params = inspect.signature(fn).parameters
            assert (params["f0_min"].default,
                    params["f0_max"].default) == (F0_MIN, F0_MAX), fn
        assert (LemfConfig().f0_min, LemfConfig().f0_max) == (F0_MIN, F0_MAX)
        for fn in (acoustic_frames, load_examples):
            assert inspect.signature(fn).parameters["n_bands"].default == N_BANDS
        _, commands = build_parser()
        for name in ("emphasis", "train"):
            parser = commands[name]
            assert (parser.get_default("f0_min"),
                    parser.get_default("f0_max")) == (F0_MIN, F0_MAX)
        assert commands["train"].get_default("n_bands") == N_BANDS

        # every other flag default is read from the config field it sets
        homes = [
            (FrameConfig, ("emphasis", "train"),
             {"win_ms": "win_ms", "hop_ms": "hop_ms"}),
            (SynthConfig, ("synth",),
             {"n": "n_utts", "sample_rate": "sample_rate",
              "les_dim": "les_dim", "gs_dim": "gs_dim", "es_dim": "es_dim"}),
            (TrainConfig, ("train",),
             {name: name for name in ("epochs", "batch_size", "accum_steps",
                                      "lr", "weight_decay")}),
            (ModelConfig, ("train",),
             {"d_model": "d_model", "dropout": "dropout",
              "experts": "experts"}),
            (LemfConfig, ("emphasis",),
             {"mode": "mode", "k": "top_k", "word_tier": "word_tier",
              "phone_tier": "phone_tier"}),
        ]
        for config, _, fields in homes:
            for name in fields.values():
                monkeypatch.setattr(config, name, f"{config.__name__}.{name}")
        monkeypatch.setattr(ModelConfig, "experts", ("X", "Y"))
        _, commands = build_parser()
        for config, names, fields in homes:
            for dest, name in fields.items():
                want = ("XY" if name == "experts"
                        else f"{config.__name__}.{name}")
                for command in names:
                    assert commands[command].get_default(dest) == want, dest

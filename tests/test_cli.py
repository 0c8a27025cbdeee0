"""Command-line interface, exercised in-process through main(argv)."""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msfser.cli import main
from msfser.dsp import write_wav
from msfser.embeddings import EmbeddingStore, toy_embedding
from msfser.numcore import load_checkpoint, seeded_rng
from msfser.synth import make_emphasis_case
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
    ])
    def test_eval_corrupt_model_exits_cleanly(self, trained, dataset, tmp_path,
                                              capsys, target, how, code):
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
        assert main(["eval", "--data", str(dataset),
                     "--model", str(model)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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

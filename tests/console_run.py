"""Run every msfser command as its own process, outside the checkout.

    python tests/console_run.py msfser
    PYTHONPATH=$PWD/src python tests/console_run.py python3 -m msfser.cli

The arguments are the command prefix to run: the installed entry point,
or the module on a source tree.  Each check spawns the prefix in one
temporary directory and reads the child's peak RSS from ``os.wait4``.
Every child must exit with the code its check expects, print no
traceback and peak at no more than 64 MiB, which work arrays kept without
bound would exceed.  The script prints one line per check; on a failure
it names the check, prints the last child's stderr and exits 1.

On Linux a child's ``ru_maxrss`` counts the RSS its parent had when it
spawned the child.  So this script imports only the standard library,
refuses to start in a process that holds numpy, and is run as a process
of its own, never imported.
"""

import csv
import json
import math
import os
import shutil
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

PEAK_RSS_MIB = 64


class CheckFailed(Exception):
    pass


def expect(holds, finding):
    if not holds:
        raise CheckFailed(finding)


class Console:
    """Spawns the command prefix in the working directory, and keeps the
    last child's stderr and every child's peak RSS for the current check."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.stderr = ""
        self.peaks = []

    def __call__(self, *argv, code=0):
        with tempfile.TemporaryFile() as err:
            redirect = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                        (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            pid = os.posix_spawnp(self.prefix[0], [*self.prefix, *argv],
                                  os.environ, file_actions=redirect)
            _, status, usage = os.wait4(pid, 0)
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")
        exit_code = os.waitstatus_to_exitcode(status)
        mib = usage.ru_maxrss / 1024
        self.peaks.append(mib)
        command = " ".join(["msfser", *argv])
        expect(exit_code == code,
               f"{command}: exit {exit_code}, expected {code}")
        expect("Traceback" not in self.stderr,
               f"{command}: printed a traceback")
        expect(mib <= PEAK_RSS_MIB,
               f"{command}: peak RSS {mib:.1f} MiB, above {PEAK_RSS_MIB} MiB")
        return self.stderr


def version(msfser):
    """--version exits 0"""
    msfser("--version")


def help_texts(msfser):
    """each subcommand renders its --help"""
    # argparse formats a subcommand's help text only when --help asks for it
    for command in ("emphasis", "synth", "train", "eval", "textgrid-check"):
        msfser(command, "--help")


def synth(msfser):
    """synth writes a 12-utterance corpus"""
    # 12 is the floor: the fewest that leave each split two
    msfser("synth", "--out", "data", "--n", "12")


def train(msfser):
    """train fits one epoch on it"""
    msfser("train", "--data", "data", "--out", "run", "--epochs", "1",
           "--batch-size", "8", "--d-model", "4", "--quiet")


def evaluate(msfser):
    """eval scores the trained run"""
    msfser("eval", "--data", "data", "--model", "run")


def emphasis(msfser):
    """emphasis writes its JSON, prosody CSV and SVG"""
    msfser("emphasis", "--wav", "data/wavs/utt_0000.wav",
           "--grid", "data/grids/utt_0000.TextGrid", "--out", "emphasis.json",
           "--csv", "track.csv", "--svg", "scores.svg")
    try:
        ET.parse("scores.svg")
    except ET.ParseError as exc:
        raise CheckFailed(f"scores.svg: {exc}") from None
    # the prosody track: five fields a row, both voicings, and pitch
    # fields that are empty exactly where a frame is unvoiced
    with open("track.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    expect(rows[0] == ["time_s", "voiced", "f0_hz", "log_f0", "energy"],
           f"track.csv: header {rows[0]}")
    expect(all(len(row) == 5 for row in rows),
           "track.csv: a row without five fields")
    expect({row[1] for row in rows[1:]} == {"0", "1"},
           "track.csv: voiced is not both 0 and 1")
    for _, voiced, f0, log_f0, _ in rows[1:]:
        if voiced == "1":
            expect(float(f0) == math.exp(float(log_f0)),
                   f"track.csv: voiced f0 {f0} is not exp(log_f0 {log_f0})")
        else:
            expect(f0 == log_f0 == "",
                   f"track.csv: unvoiced pitch fields {(f0, log_f0)}")
    # the segment is min(3, N) consecutive words, labelled from the word list
    with open("emphasis.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    words, segment = doc["words"], doc["segment"]
    i = segment["indices"]
    expect(i == list(range(i[0], i[0] + min(3, len(words)))),
           f"emphasis.json: segment indices {i}")
    expect(segment["words"] == [words[k]["word"] for k in i],
           f"emphasis.json: segment words {segment['words']} at {i}")


def no_phones(msfser):
    """with no phone tier, each word's duration feature is its own length"""
    msfser("emphasis", "--wav", "data/wavs/utt_0000.wav",
           "--grid", "data/grids/utt_0000.TextGrid", "--phone-tier", "",
           "--out", "nophones.json")
    with open("nophones.json", encoding="utf-8") as fh:
        words = json.load(fh)["words"]
    expect(words and all(w["f_duration"] == w["xmax"] - w["xmin"]
                         for w in words),
           "nophones.json: a duration feature is not its word's length")


def textgrid_check(msfser):
    """textgrid-check passes the corpus grids"""
    grids = sorted(Path("data/grids").glob("*.TextGrid"))
    msfser("textgrid-check", *map(str, grids))


def damaged_checkpoint(msfser):
    """a damaged checkpoint exits 2 with a one-line error"""
    shutil.copytree("run", "bad")
    Path("bad/checkpoint.json").write_text("[1]\n")
    err = msfser("eval", "--data", "data", "--model", "bad", code=2)
    expect("expected a JSON object" in err,
           "eval: no 'expected a JSON object'")
    expect(err.count("\n") == 1, "eval: the error is not one line")


def small_corpus(msfser):
    """11 utterances would leave the test split one; nothing is written"""
    err = msfser("synth", "--out", "small", "--n", "11", code=2)
    expect("test split" in err, "synth: no 'test split'")
    expect(not Path("small").exists(), "synth: wrote small/")


def front_end_option(msfser):
    """no option sets the front end"""
    err = msfser("train", "--data", "data", "--out", "r2", "--f0-min", "60",
                 code=2)
    expect("unrecognized arguments" in err,
           "train: no 'unrecognized arguments'")


def sample_rate_option(msfser):
    """every corpus is written at 16 kHz: no option sets the rate"""
    err = msfser("synth", "--out", "s2", "--n", "12", "--sample-rate", "8000",
                 code=2)
    expect("unrecognized arguments" in err,
           "synth: no 'unrecognized arguments'")
    expect(not Path("s2").exists(), "synth: wrote s2/")


def dev_split_of_one(msfser):
    """a dev split of one is refused before featurising; nothing is written"""
    shutil.copytree("data/wavs", "short/wavs")
    shutil.copy("data/embeddings.jsonl", "short")
    with open("data/targets.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    dev = [row for row in rows if row[1] == "dev"]
    with open("short/targets.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            row for row in rows if row not in dev[1:])
    err = msfser("train", "--data", "short", "--out", "r3", "--epochs", "1",
                 "--batch-size", "8", "--d-model", "4", "--track-dev",
                 "--quiet", code=2)
    expect("split 'dev'" in err, "train: no \"split 'dev'\"")
    expect(not Path("r3").exists(), "train: wrote r3/")


# in order: each check reads what the ones before it wrote
CHECKS = (version, help_texts, synth, train, evaluate, emphasis, no_phones,
          textgrid_check, damaged_checkpoint, small_corpus, front_end_option,
          sample_rate_option, dev_split_of_one)


def main(prefix):
    if not prefix:
        sys.exit("usage: console_run.py COMMAND [ARG...]")
    if "numpy" in sys.modules:
        sys.exit("console_run.py: numpy is loaded here, and a child's peak "
                 "RSS would count it; run the script as its own process")
    msfser = Console(prefix)
    with tempfile.TemporaryDirectory(prefix="msfser-console-") as work:
        os.chdir(work)
        for check in CHECKS:
            msfser.stderr, msfser.peaks = "", []
            try:
                check(msfser)
            except (CheckFailed, OSError, LookupError, ValueError) as exc:
                print(f"FAIL  {check.__doc__}: {exc}", flush=True)
                sys.stdout.write(msfser.stderr)
                return 1
            print(f"ok    {check.__doc__:<70} "
                  f"peak RSS {max(msfser.peaks):5.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

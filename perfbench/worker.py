"""One workload in a fresh, single-threaded process; started by run.py.

Usage (normally through run.py):
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --work DIR --out RESULT.json --spans SPANS.json [--size full|smoke]
        [--tamper checkpoint|plant]

Set-up is timed on each of its repeats (see spec.Size).  With --trace 0
the timed loop repeats the workload's unit of work, closed loop with one
client, until --seconds have passed and the size's minimum sample count is
reached.  With --trace 1 the worker runs the same steps in-process, first
untraced and then with tracer.Tracer installed, and reports per-layer
figures.  The result is written as JSON to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import spec
from tracer import Tracer

# The timed loop stops starting work after this long, whatever the minimum
# sample count says, so that a run always ends inside the driver's limit.
TIMED_CAP_S = 120.0
MSFSER_MAIN = "import sys; from msfser.cli import main; sys.exit(main())"
C6_TRAIN = ["--batch-size", "16", "--accum-steps", "2", "--lr", "1e-2",
            "--weight-decay", "1e-4", "--d-model", "16", "--quiet"]


@dataclass
class Call:
    seconds: float
    problems: list[str]
    stdout: str


@dataclass
class Unit:
    """One timed operation: a pipeline pass, an emphasis call, an ablation pair."""
    seconds: float
    problems: list[str]
    info: dict = field(default_factory=dict)


class Context:
    def __init__(self, args):
        self.seed = args.seed
        self.size = spec.SIZES[args.size]
        self.tamper = args.tamper
        self.work = Path(args.work)
        self.spans_path = Path(args.spans)
        self.env = dict(os.environ)
        self.maxrss_kb = 0

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def spawn(self, argv, cmd=None) -> Call:
        """Run one process to exit; time it spawn to exit and keep its peak RSS."""
        cmd = cmd or [sys.executable, "-c", MSFSER_MAIN, *map(str, argv)]
        out_path, err_path = self.work / "call.out", self.work / "call.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return Call(seconds, checks.process_problems(proc.returncode, stderr),
                    out_path.read_text(encoding="utf-8", errors="replace"))


def in_process(argv) -> tuple[list[str], str]:
    """msfser.cli.main in this process: (problems, captured stdout)."""
    from msfser.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return ([f"exit code {code}"] if code != 0 else []), out.getvalue()


# ------------------------------------------------------------- pipeline

class Pipeline:
    """synth -> train -> eval as three msfser processes (the README sequence)."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.first_digests = None

    def min_units(self) -> int:
        return spec.MIN_PASSES

    def run_checks(self, units) -> list[list[str]]:
        return []

    def summarize(self, units, elapsed):
        return ({"wall_s": statistics.median(u.seconds for u in units),
                 "ccc_avg": statistics.median(u.info.get("ccc_avg", math.nan)
                                              for u in units),
                 "peak_rss_mb": self.ctx.maxrss_kb / 1024.0},
                {"units": len(units)})

    def setup(self) -> list[str]:
        # Nothing to generate: synth is part of the measured pass.  One
        # process start compiles .pyc files and fills the page cache.
        self.ctx.fresh_dir("pipeline")
        return self.ctx.spawn(["--version"]).problems

    def _steps(self, root: Path):
        ctx = self.ctx
        data, run = root / "data", root / "run"
        return [
            ("synth", ["synth", "--out", data, "--n", ctx.size.corpus_utts,
                       "--seed", ctx.seed]),
            ("train", ["train", "--data", data, "--out", run,
                       "--epochs", ctx.size.epochs, "--seed", ctx.seed, *C6_TRAIN]),
            ("eval", ["eval", "--data", data, "--model", run, "--split", "test",
                      "--out", root / "report.json"]),
        ]

    def _outputs(self, root: Path, index: int) -> tuple[list[str], dict]:
        ckpt, report_path = root / "run" / "checkpoint.json", root / "report.json"
        if self.ctx.tamper == "checkpoint" and index > 0:
            blob = bytearray(ckpt.read_bytes())
            blob[len(blob) // 2] ^= 0x01
            ckpt.write_bytes(bytes(blob))
        report = json.loads(report_path.read_text(encoding="utf-8"))
        digests = {"checkpoint.json": checks.digest(ckpt),
                   "report.json": checks.digest(report_path)}
        problems = checks.ccc_floor(report["ccc_avg"], self.ctx.size.ccc_floor,
                                    "eval ccc_avg")
        if self.first_digests is None:
            self.first_digests = digests
        else:
            problems += checks.same_digests(self.first_digests, digests)
        return problems, {"ccc_avg": report["ccc_avg"], "digests": digests}

    def unit(self, index: int) -> Unit:
        root = self.ctx.fresh_dir(f"pipeline/pass{index}")
        times, problems = {}, []
        start = perf_counter()
        for name, argv in self._steps(root):
            call = self.ctx.spawn(argv)
            times[name] = call.seconds
            problems += [f"{name}: {p}" for p in call.problems]
            if problems:
                break
        seconds = perf_counter() - start
        info = {"process_s": times}
        if not problems:
            more, extra = self._outputs(root, index)
            problems += more
            info.update(extra)
        shutil.rmtree(root)
        return Unit(seconds, problems, info)

    def traced(self, tracer: Tracer) -> dict:
        ref = self.unit(0)
        layer = {"cli.synth_s": ref.info["process_s"].get("synth", 0.0),
                 "cli.train_s": ref.info["process_s"].get("train", 0.0),
                 "cli.eval_s": ref.info["process_s"].get("eval", 0.0)}
        problems = list(ref.problems)
        walls = []
        for label in ("untraced", "traced"):
            root = self.ctx.fresh_dir(f"pipeline/{label}")
            if label == "traced":
                tracer.install()
            start = perf_counter()
            for name, argv in self._steps(root):
                tracer.run_id = name
                problems += [f"in-process {name}: {p}" for p in in_process(argv)[0]]
            walls.append(perf_counter() - start)
            tracer.uninstall()
            if not problems:
                more, _ = self._outputs(root, 1)
                problems += [f"{label} in-process: {p}" for p in more]
                manifest = json.loads((root / "data" / "manifest.json").read_text())
            shutil.rmtree(root)
        if problems:
            return {"walls": walls, "layer": layer, "expected": {},
                    "problems": problems}
        # train featurises the train split and eval the test split
        n_feat = manifest["splits"]["train"] + manifest["splits"]["test"]
        expected = {"dsp.estimate_f0.calls": n_feat,
                    "dsp.acoustic_frames.calls": n_feat,
                    "dsp.write_wav.calls": self.ctx.size.corpus_utts,
                    "model.train_model.calls": 1}
        return {"walls": walls, "layer": layer, "expected": expected,
                "problems": problems}


# ------------------------------------------------------------- emphasis

class Emphasis:
    """Sequential `msfser emphasis` processes over seeded planted-word cases."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cases = []
        self.hits = 0

    def min_units(self) -> int:
        return self.ctx.size.min_calls

    def run_checks(self, units) -> list[list[str]]:
        return [checks.hit_rate(self.hits, len(units), spec.HIT_RATE_FLOOR)]

    def summarize(self, units, elapsed):
        ms = [u.seconds * 1000.0 for u in units]
        p90, beyond = spec.tail_percentile(ms, 90)
        # wall_s: the timed wall scaled to one pass over the cases
        return ({"wall_s": elapsed * len(self.cases) / len(units),
                 "call_ms_p50": statistics.median(ms), "call_ms_p90": p90,
                 "top1_hit_rate": self.hits / len(units),
                 "peak_rss_mb": self.ctx.maxrss_kb / 1024.0},
                {"calls": len(units), "calls_beyond_p90": beyond})

    def setup(self) -> list[str]:
        from msfser import make_emphasis_case, seeded_rng, serialize_textgrid, write_wav
        root = self.ctx.fresh_dir("emphasis")
        self.cases = []
        for i in range(self.ctx.size.emphasis_cases):
            audio, grid, planted = make_emphasis_case(
                seeded_rng(1000 * self.ctx.seed + i))
            wav, tg = root / f"case{i:02d}.wav", root / f"case{i:02d}.TextGrid"
            write_wav(wav, audio)
            tg.write_text(serialize_textgrid(grid), encoding="utf-8")
            words = [iv.label for iv in grid.tier("words").intervals if iv.label]
            if self.ctx.tamper == "plant":
                planted = (planted + 1) % len(words)
            self.cases.append((wav, tg, planted, words))
        return self._call(0).problems

    def _argv(self, index: int) -> list:
        wav, tg, _, _ = self.cases[index % len(self.cases)]
        return ["emphasis", "--wav", wav, "--grid", tg]

    def _judge(self, index: int, stdout: str) -> tuple[list[str], bool]:
        _, _, planted, words = self.cases[index % len(self.cases)]
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"emphasis output is not JSON: {exc}"], False
        problems = checks.emphasis_doc(doc, words)
        if problems:
            return problems, False
        scores = [w["score"] for w in doc["words"]]
        return [], scores.index(max(scores)) == planted

    def _call(self, index: int) -> Unit:
        call = self.ctx.spawn(self._argv(index))
        problems, hit = call.problems, False
        if not problems:
            problems, hit = self._judge(index, call.stdout)
        return Unit(call.seconds, problems, {"hit": hit})

    def unit(self, index: int) -> Unit:
        done = self._call(index)
        self.hits += done.info["hit"]
        return done

    def traced(self, tracer: Tracer) -> dict:
        problems, walls = [], []
        n = len(self.cases)
        for label in ("untraced", "traced"):
            if label == "traced":
                tracer.install()
            hits = 0
            start = perf_counter()
            for i in range(n):
                tracer.run_id = f"call{i}"
                more, stdout = in_process(self._argv(i))
                hit = False
                if not more:
                    more, hit = self._judge(i, stdout)
                problems += [f"{label} call {i}: {p}" for p in more]
                hits += hit
            walls.append(perf_counter() - start)
            tracer.uninstall()
            problems += checks.hit_rate(hits, n, spec.HIT_RATE_FLOOR)
        expected = {f"{name}.calls": n for name in (
            "lemf.run_lemf", "textgrid.read_textgrid_file", "dsp.read_wav",
            "dsp.estimate_f0")}
        return {"walls": walls, "layer": {}, "expected": expected,
                "problems": problems}


# ---------------------------------------------------------------- train

class Train:
    """The C6 ablation pair as library calls on features made during set-up."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.first = None

    def min_units(self) -> int:
        return spec.MIN_PAIRS

    def run_checks(self, units) -> list[list[str]]:
        return []

    def summarize(self, units, elapsed):
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return ({"wall_s": statistics.median(u.seconds for u in units),
                 "ccc_avg": statistics.median(u.info["ccc_avg"] for u in units),
                 "peak_rss_mb": peak_kb / 1024.0},
                {"units": len(units),
                 "arousal_shift": [u.info["arousal_shift"] for u in units]})

    def setup(self) -> list[str]:
        from msfser import SynthConfig, generate_dataset, load_examples
        root = self.ctx.fresh_dir("train")
        generate_dataset(root, SynthConfig(n_utts=self.ctx.size.corpus_utts,
                                           seed=self.ctx.seed))
        self.train_set = load_examples(root, split="train")
        self.test_set = load_examples(root, split="test")
        # First-touch of the model code paths, on a few utterances.
        self._fit(("A", "B", "C"), epochs=1, examples=self.train_set[:8])
        return []

    def _fit(self, experts, epochs=None, examples=None):
        from msfser import (ModelConfig, MsfSerModel, TrainConfig, evaluate,
                            train_model)
        first = self.train_set[0]
        model = MsfSerModel(ModelConfig(
            acoustic_dim=first.frames.shape[1], les_dim=len(first.les),
            gs_dim=len(first.gs), es_dim=len(first.es), d_model=16,
            att_dim=16, film_hidden=16, expert_hidden=16, experts=experts,
            dropout=0.5, seed=self.ctx.seed))
        train_model(model, examples or self.train_set, TrainConfig(
            epochs=epochs or self.ctx.size.epochs, batch_size=16,
            accum_steps=2, lr=1e-2, weight_decay=1e-4, seed=self.ctx.seed))
        ccc = [float(c) for c in evaluate(model, self.test_set)["ccc"]]
        return ccc, model

    def _pair(self):
        full, model = self._fit(("A", "B", "C"))
        ablated, _ = self._fit(("A", "B"))
        params = {k: v.tolist() for k, v in model.params_dict().items()}
        fingerprint = {"ccc": full + ablated,
                       "params": json.dumps(params, sort_keys=True)}
        return full, ablated, fingerprint

    def _judge(self, full, ablated, fingerprint) -> tuple[list[str], dict]:
        problems = checks.c6_bounds(full, ablated, self.ctx.size,
                                    enforce_arousal=self.ctx.seed == 0)
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            problems.append("ablation pair differs from the first repeat")
        info = {"ccc_avg": sum(full) / 3.0, "ccc_full": full,
                "ccc_ablated": ablated,
                "dominance_drop": full[2] - ablated[2],
                "arousal_shift": abs(full[1] - ablated[1])}
        return problems, info

    def unit(self, index: int) -> Unit:
        start = perf_counter()
        full, ablated, fingerprint = self._pair()
        seconds = perf_counter() - start
        problems, info = self._judge(full, ablated, fingerprint)
        return Unit(seconds, problems, info)

    def traced(self, tracer: Tracer) -> dict:
        problems, walls = [], []
        for label in ("untraced", "traced"):
            if label == "traced":
                tracer.install()
            start = perf_counter()
            tracer.run_id = "setup"
            problems += self.setup()
            tracer.run_id = "pair"
            more, _ = self._judge(*self._pair())
            walls.append(perf_counter() - start)
            tracer.uninstall()
            problems += [f"{label}: {p}" for p in more]
        n_feat = len(self.train_set) + len(self.test_set)
        expected = {"dsp.estimate_f0.calls": n_feat,
                    "dsp.acoustic_frames.calls": n_feat,
                    "model.train_model.calls": 3,
                    "model.evaluate.calls": 3}
        return {"walls": walls, "layer": {}, "expected": expected,
                "problems": problems}


WORKLOAD_CLASSES = {"pipeline": Pipeline, "emphasis": Emphasis, "train": Train}


# ----------------------------------------------------------------- runs

def timed_run(wl, seconds: float) -> dict:
    """Repeat the unit of work, closed loop; then the run-level checks."""
    units: list[Unit] = []
    start = perf_counter()
    while True:
        units.append(wl.unit(len(units)))
        elapsed = perf_counter() - start
        if elapsed >= TIMED_CAP_S or (elapsed >= seconds
                                      and len(units) >= wl.min_units()):
            break
    run_checks = wl.run_checks(units)
    if len(units) < wl.min_units():
        run_checks.append([f"only {len(units)} of {wl.min_units()} operations "
                           f"fit in the {TIMED_CAP_S:.0f} s cap"])
    metrics, samples = wl.summarize(units, elapsed)
    samples["op_seconds"] = [u.seconds for u in units]
    failed = [u for u in units if u.problems] + [c for c in run_checks if c]
    return {"attempted": len(units) + len(run_checks), "failed": len(failed),
            "problems": [f"op {i}: {p}" for i, u in enumerate(units)
                         for p in u.problems] + [p for c in run_checks for p in c],
            "metrics": metrics, "samples": samples}


def median_spawn_ms(ctx: Context, code: str, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        call = ctx.spawn([], cmd=[sys.executable, "-c", code])
        if call.problems:
            raise RuntimeError(f"python -c {code!r}: {call.problems}")
        times.append(call.seconds * 1000.0)
    return statistics.median(times)


def traced_run(wl, ctx: Context) -> dict:
    tracer = Tracer()
    result = wl.traced(tracer)
    untraced, traced = result["walls"]
    layer = tracer.summary(traced)
    layer.update({"cli.synth_s": 0.0, "cli.train_s": 0.0, "cli.eval_s": 0.0})
    layer.update(result["layer"])
    floor = median_spawn_ms(ctx, "pass")
    layer["cli.interp_start_ms"] = floor
    layer["cli.import_ms"] = median_spawn_ms(ctx, "import msfser.cli") - floor
    layer["trace.overhead_s"] = traced - untraced
    problems = result["problems"] + checks.trace_counts(
        layer, type(wl).__name__.lower(), result["expected"])
    tracer.write_spans(ctx.spans_path)
    return {"attempted": 1, "failed": 1 if problems else 0, "problems": problems,
            "metrics": layer,
            "samples": {"untraced_s": untraced, "traced_s": traced,
                        "spans": len(tracer.spans), "spans_file": str(ctx.spans_path),
                        "sites": tracer.sites}}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu, "seed": seed,
            "threads": {v: os.environ.get(v) for v in spec.THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(spec.SIZES), default="full")
    parser.add_argument("--tamper", choices=("checkpoint", "plant"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    unpinned = [v for v in spec.THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        sys.stderr.write(f"worker: {', '.join(unpinned)} must be 1\n")
        return 2
    import msfser
    src = spec.ROOT / "src"
    if Path(msfser.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"worker: msfser imported from {msfser.__file__}, "
                         f"not from {src}\n")
        return 2

    ctx = Context(args)
    wl = WORKLOAD_CLASSES[args.workload](ctx)
    setup_times, problems = [], []
    # A traced run sets up once, as a warm-up for its untraced/traced pair.
    # Otherwise cheap set-ups repeat more often, so their median is steady.
    repeats, min_s = (1, 0.0) if args.trace else (spec.SETUP_REPEATS,
                                                  ctx.size.setup_min_s)
    while len(setup_times) < repeats or (sum(setup_times) < min_s
                                         and len(setup_times) < 10):
        start = perf_counter()
        problems += wl.setup()
        setup_times.append(perf_counter() - start)
    if args.trace:
        result = traced_run(wl, ctx)
    else:
        result = timed_run(wl, args.seconds)
        result["metrics"]["setup_s"] = statistics.median(setup_times)
    if problems:
        result["problems"] = [f"setup: {p}" for p in problems] + result["problems"]
        result["failed"] += 1
        result["attempted"] += 1
    result["samples"]["setup_s"] = setup_times
    result["env"] = environment(args.seed)
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

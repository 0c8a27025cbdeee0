"""msfser benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload pipeline|emphasis|train --seed N \
        --seconds S --trace 0|1 [--results FILE]

The run pins OMP/OpenBLAS/MKL to one thread (and refuses another value),
starts perfbench/worker.py in a fresh process group against ./src, waits
for it, prints every metric by name with its unit, writes a results file
(default .perfbench/results/) and prints as its last stdout line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Exit code 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import spec

RUN_LIMIT_S = 170.0
SHOWN_SAMPLES = ("calls", "calls_beyond_p90", "units", "spans", "setup_s")


def fail(message: str, code: int = 2) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return code


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_worker(cmd: list[str], env: dict, deadline: float) -> int | None:
    """Run the worker in its own process group; kill the group on overrun."""
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    finally:
        # Reap anything the worker left behind in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="msfser benchmark, one run")
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(spec.SIZES), default="full",
                        help="smoke: tiny inputs, no quality floors (selftest)")
    parser.add_argument("--tamper", choices=("checkpoint", "plant"),
                        help="corrupt an output so its check must fire (selftest)")
    parser.add_argument("--results", help="results file to write")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    root = spec.ROOT
    src = root / "src"
    if not (src / "msfser" / "cli.py").is_file():
        return fail(f"no msfser sources under {src}; run from a full checkout")
    try:
        contract = spec.load_contract()
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    for var in spec.THREAD_VARS:
        if os.environ.get(var, "1") != "1":
            return fail(f"{var}={os.environ[var]}: the benchmark runs single-"
                        "threaded; unset it or set it to 1")
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in spec.THREAD_VARS})

    tag = f"{args.workload}_seed{args.seed}_{'trace' if args.trace else 'e2e'}"
    state = root / ".perfbench"
    work = state / "work" / f"{tag}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work.parent / f"{tag}_{os.getpid()}.json"
    results_path = Path(args.results) if args.results else \
        state / "results" / f"BENCH_{tag}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(spec.BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work", str(work), "--out", str(out),
           "--spans", str(results_path.with_suffix(".spans.json"))]
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    try:
        code = run_worker(cmd, env, started + RUN_LIMIT_S)
        if code is None:
            return fail(f"worker overran {RUN_LIMIT_S:.0f} s and was killed", 3)
        if code != 0 or not out.is_file():
            return fail(f"worker exited with code {code}", 3)
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        out.unlink(missing_ok=True)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    if not args.trace:
        units.update({m.name: m.unit for m in spec.WORKLOAD_METRICS
                      if args.workload in m.workloads})
    values = result["metrics"]
    values["fail_ratio"] = result["failed"] / result["attempted"]
    problems = list(result["problems"])
    missing = sorted(set(units) - set(values))
    problems += [f"metric {name} was not measured" for name in missing]
    problems += [f"metric {name} is not finite" for name in units
                 if name in values and not math.isfinite(values[name])]
    correct = not problems and result["failed"] == 0

    env_info = dict(result["env"], git_sha=git_sha(root),
                    src_sha256=src_digest(src))
    print(f"msfser benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env_info.items()
                                if k != "threads"))
    for name, unit in units.items():
        if name in values:
            print(f"  {name:40s} {values[name]:>14.6g} {unit}")
    shown = {k: v for k, v in result["samples"].items() if k in SHOWN_SAMPLES}
    print(f"  samples: {json.dumps(shown)}")
    for problem in problems:
        print(f"  FAILED: {problem}")

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "env": env_info, "correct": correct,
              "attempted": result["attempted"], "failed": result["failed"],
              "problems": problems,
              "metrics": {n: {"value": values[n], "unit": u}
                          for n, u in units.items() if n in values},
              "samples": result["samples"]}
    results_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"  results: {results_path}")

    driver = [m["name"] for m in contract[section]]
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": values[n] if math.isfinite(values.get(n, math.nan))
                            else None, "unit": units[n]} for n in driver}}
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

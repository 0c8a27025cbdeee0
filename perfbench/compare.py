"""Compare two commits with the benchmark, pair by pair.

Usage, from the root of a git checkout:
    python3 perfbench/compare.py BASE CHANGE [--pairs 10] [--seed 1]
        [--recheck-seed 2] [--workloads pipeline,emphasis,train]

BASE and CHANGE are git revisions.  Both sides are extracted under
.perfbench/compare/ and get this tree's perfbench/ and BENCHMARK.json, so
they run identical benchmark code with identical settings.  Each pair runs
both sides once, alternating which goes first.

Per workload and end-to-end metric the report gives each side's median and
quartiles and one verdict:
  win         the change is better in >= 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the base's
              interquartile range; with --recheck-seed it must win there too
  regression  the change's median is worse than the base's by more than the
              metric's bound
  unresolved  a side's spread (IQR / median) is wider than the bound and not
              every change run beats every base run
  same        none of the above

A run that fails a check, exits non-zero or writes no results is listed
as a failed run and its pair is left out; any failed run makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import spec


def git(*args, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(spec.ROOT), *args], check=True,
                          capture_output=True, **kw)


def materialize(rev: str, dest: Path) -> str:
    """Extract `rev` into dest with this tree's benchmark; returns its label."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    label = git("rev-parse", "--short", rev, text=True).stdout.strip()
    archive = git("archive", "--format=tar", rev).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(spec.BENCH_DIR, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(spec.ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return label


def run_once(tree: Path, workload: str, seed: int, seconds: int,
             results: Path) -> tuple[dict | None, list[str]]:
    """One run.py run: (its results or None, its problems)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--results", str(results)]
    results.unlink(missing_ok=True)
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if not results.is_file():
        return None, [f"exit code {done.returncode}, no results: "
                      f"{done.stderr.strip()[-2000:]}"]
    res = json.loads(results.read_text(encoding="utf-8"))
    problems = list(res["problems"])
    if (done.returncode != 0 or not res["correct"]) and not problems:
        problems.append(f"exit code {done.returncode}, correct={res['correct']}")
    return (None if problems else res), problems


def better(metric: spec.Metric, a: float, b: float) -> bool:
    """True when a is strictly better than b."""
    return a < b if metric.better == "lower" else a > b


def verdict(metric: spec.Metric, base: list[float], change: list[float]) -> dict:
    bq1, bmed, bq3 = spec.quartiles(base)
    cq1, cmed, cq3 = spec.quartiles(change)
    wins = sum(better(metric, c, b) for b, c in zip(base, change))
    all_better = all(better(metric, c, b) for b in base for c in change)
    worse_by = (cmed - bmed) if metric.better == "lower" else (bmed - cmed)
    bound = metric.bound or 0.0
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if better(metric, cmed, bmed) and wins >= 0.9 * len(base) \
            and abs(cmed - bmed) > bq3 - bq1:
        result = "win"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound * abs(bmed):
        result = "regression"
    else:
        result = "same"
    return {"base": [bq1, bmed, bq3], "change": [cq1, cmed, cq3],
            "wins": wins, "pairs": len(base), "spread": spread,
            "verdict": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two commits")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--recheck-seed", type=int,
                        help="a second seed, not used while writing the change")
    parser.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if set(workloads) - set(spec.WORKLOADS):
        parser.error(f"unknown workload in {args.workloads!r}")
    if args.pairs < 10:
        parser.error("a claim needs at least 10 pairs")

    state = spec.ROOT / ".perfbench" / "compare"
    sides = {"base": state / "base", "change": state / "change"}
    labels = {side: materialize(rev, sides[side])
              for side, rev in (("base", args.base), ("change", args.change))}
    seconds = spec.load_contract()["run_seconds"]
    metrics = spec.end_to_end_metrics()
    seeds = [args.seed] + ([args.recheck_seed] if args.recheck_seed is not None else [])

    rows, failed_runs = [], []
    for seed in seeds:
        for workload in workloads:
            values = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {}
                for side in order:
                    res, problems = run_once(sides[side], workload, seed, seconds,
                                             state / f"{side}_{workload}.json")
                    if res is None:
                        failed_runs.append((side, workload, seed, i, problems))
                    else:
                        pair[side] = {k: v["value"]
                                      for k, v in res["metrics"].items()}
                if len(pair) == 2:
                    for side in pair:
                        values[side].append(pair[side])
                print(f"  seed {seed} {workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
            for metric in metrics:
                if workload not in metric.workloads or not values["base"]:
                    continue
                row = verdict(metric, [v[metric.name] for v in values["base"]],
                              [v[metric.name] for v in values["change"]])
                row.update(seed=seed, workload=workload, metric=metric.name,
                           unit=metric.unit, bound=metric.bound)
                rows.append(row)

    # A win must hold on every seed run.
    for row in rows:
        if row["verdict"] == "win" and any(
                other["verdict"] != "win" for other in rows
                if other["workload"] == row["workload"]
                and other["metric"] == row["metric"]):
            row["verdict"] = "win (not on every seed)"

    print(f"base {labels['base']}  change {labels['change']}  pairs {args.pairs}  "
          f"seeds {seeds}")
    print(f"{'workload':9s} {'seed':>4s} {'metric':14s} {'unit':6s} "
          f"{'base median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
          f"{'wins':>6s}  verdict")
    for r in rows:
        fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{r['workload']:9s} {r['seed']:4d} {r['metric']:14s} {r['unit']:6s} "
              f"{fmt(r['base']):>30s} {fmt(r['change']):>30s} "
              f"{r['wins']:>3d}/{r['pairs']:<2d}  {r['verdict']}")
    for side, workload, seed, i, problems in failed_runs:
        print(f"FAILED run: {side} {workload} seed {seed} pair {i}: {problems}")
    report = {"base": labels["base"], "change": labels["change"],
              "pairs": args.pairs, "seeds": seeds, "rows": rows,
              "failed_runs": failed_runs}
    (state / "report.json").write_text(json.dumps(report, indent=1) + "\n",
                                       encoding="utf-8")
    bad = failed_runs or any(r["verdict"] == "regression" for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

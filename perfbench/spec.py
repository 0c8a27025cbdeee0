"""What the benchmark measures: workload sizes, metric tables and statistics.

Everything that run.py, worker.py, compare.py and selftest.py must agree
on lives here, so the name, unit and bound of a metric are written once.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("pipeline", "emphasis", "train")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


# Shared by every size.
MIN_PASSES = 2                # pipeline passes per run (the C8 check needs 2)
MIN_PAIRS = 2                 # train ablation pairs per run
SETUP_REPEATS = 2             # set-up is timed at least this often
HIT_RATE_FLOOR = 0.95         # C4: the planted word scores highest


@dataclass(frozen=True)
class Size:
    """Input sizes and output thresholds of one benchmark size."""

    corpus_utts: int          # msfser synth --n, the C6 corpus is 160
    epochs: int               # training epochs, C6 uses 60
    emphasis_cases: int       # distinct WAV + TextGrid pairs cycled over
    min_calls: int            # emphasis calls per run (p90 needs 100)
    setup_min_s: float        # set-up repeats until this long is spent; median reported
    ccc_floor: float | None   # None: the quality floors are not applied
    dominance_drop: float | None
    arousal_shift: float | None


FULL = Size(corpus_utts=160, epochs=60, emphasis_cases=30, min_calls=100,
            setup_min_s=3.0, ccc_floor=0.85, dominance_drop=0.1,
            arousal_shift=0.05)

# The smoke size only proves the plumbing: every metric is emitted and the
# checks fire.  Two epochs cannot reach the C6 floors, so those are off; the
# C4 hit rate holds on any case count and stays on.
SMOKE = Size(corpus_utts=20, epochs=2, emphasis_cases=3, min_calls=12,
             setup_min_s=0.0, ccc_floor=None, dominance_drop=None,
             arousal_shift=None)

SIZES = {"full": FULL, "smoke": SMOKE}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str               # "lower" or "higher"
    bound: float | None       # tolerated worsening, as a share of the base median
    workloads: tuple[str, ...]


def load_contract() -> dict:
    """BENCHMARK.json: the metrics every workload reports to the driver."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end_metrics() -> list[Metric]:
    """Driver metrics from BENCHMARK.json plus the workload-specific ones.

    BENCHMARK.json may only list metrics that every workload reports, so
    the figures that exist on one or two workloads are declared here with
    their own bounds; run.py prints them and compare.py judges them.
    """
    contract = [Metric(m["name"], m["unit"], m["better"], m["bound"], WORKLOADS)
                for m in load_contract()["end_to_end"]]
    return contract + WORKLOAD_METRICS


WORKLOAD_METRICS = [
    Metric("call_ms_p50", "ms", "lower", 0.25, ("emphasis",)),
    Metric("call_ms_p90", "ms", "lower", 0.25, ("emphasis",)),
    Metric("top1_hit_rate", "ratio", "higher", 0.02, ("emphasis",)),
    Metric("ccc_avg", "CCC", "higher", 0.01, ("pipeline", "train")),
    Metric("fail_ratio", "ratio", "lower", 0.0, WORKLOADS),
]


def per_layer_names() -> list[str]:
    return [m["name"] for m in load_contract()["per_layer"]]


# ------------------------------------------------------------- statistics

def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), the same cut points as statistics.quantiles(n=4)."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def tail_percentile(values, pct: float) -> tuple[float, int]:
    """The pct-th percentile (nearest rank) and how many samples lie beyond it."""
    vals = sorted(values)
    rank = max(1, -(-len(vals) * pct // 100))      # ceil, 1-based
    rank = int(rank)
    return vals[rank - 1], len(vals) - rank

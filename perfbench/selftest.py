"""Self-test of the benchmark, at the tiny smoke size (about a minute).

Usage, from the root of a checkout:
    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed and matches the tracer's span
list, that every workload emits every metric with its unit (untraced and
traced), that the output checks fire on tampered outputs (a flipped
checkpoint byte, a wrong planted index), that the run refuses more than one
BLAS/OpenMP thread and a directory without sources, that the tracer patches
every binding site and restores it, and the statistics used by compare.py.
Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import traceback

import compare
import spec
import tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCRATCH = spec.ROOT / ".perfbench" / "selftest"


def run_bench(*args, cwd=spec.ROOT, env=None) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1",
           *args]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, env=env)
    return done.returncode, done.stdout.strip().splitlines()


def result_line(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc.keys()
    return doc


def test_contract():
    c = spec.load_contract()
    assert set(c) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert [w["name"] for w in c["workloads"]] == list(spec.WORKLOADS)
    names = [m["name"] for m in c["end_to_end"] + c["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    for m in c["end_to_end"] + c["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in c["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in c["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in c["end_to_end"])
    spans = {f"{n}.{k}" for n in tracer.span_names() for k in ("self_s", "calls")}
    assert spans <= set(spec.per_layer_names()), spans - set(spec.per_layer_names())


def test_workload_metrics():
    contract = spec.load_contract()
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            code, lines = run_bench("--workload", workload, "--seed", "3",
                                    "--trace", str(trace), "--size", "smoke")
            doc = result_line(lines)
            assert code == 0 and doc["correct"], (workload, trace, lines[-12:])
            want = contract["per_layer" if trace else "end_to_end"]
            assert list(doc["metrics"]) == [m["name"] for m in want]
            for m in want:
                got = doc["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert isinstance(got["value"], (int, float)), (m, got)
            if not trace:
                extra = [m for m in spec.WORKLOAD_METRICS if workload in m.workloads]
                for m in extra:
                    assert any(line.split()[:1] == [m.name]
                               and line.split()[-1] == m.unit
                               for line in lines), (workload, m.name)


def test_tampered_outputs_fail():
    for workload, tamper, needle in (("pipeline", "checkpoint", "C8"),
                                     ("emphasis", "plant", "hit rate")):
        code, lines = run_bench("--workload", workload, "--seed", "3",
                                "--trace", "0", "--size", "smoke",
                                "--tamper", tamper)
        doc = result_line(lines)
        assert code != 0 and not doc["correct"] and doc["failed"] >= 1, lines[-6:]
        assert any(needle in line for line in lines if "FAILED" in line), lines


def test_refusals():
    env = dict(os.environ, OMP_NUM_THREADS="2")
    code, lines = run_bench("--workload", "train", "--seed", "1", "--trace", "0",
                            "--size", "smoke", env=env)
    assert code != 0 and not lines, lines
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(spec.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(spec.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = run_bench("--workload", "pipeline", "--seed", "1", "--trace",
                            "0", cwd=bare)
    assert code != 0 and not lines, lines
    shutil.rmtree(bare)


def test_binding_sites():
    sys.path.insert(0, str(spec.ROOT / "src"))
    import msfser.cli
    import msfser.dsp
    import msfser.lemf
    import msfser.model
    orig = msfser.lemf.estimate_f0
    t = tracer.Tracer()
    t.install()
    try:
        for span, site in (("dsp.estimate_f0", "msfser.lemf.estimate_f0"),
                           ("dsp.estimate_f0", "msfser.dsp.estimate_f0"),
                           ("dsp.read_wav", "msfser.cli.read_wav"),
                           ("dsp.acoustic_frames", "msfser.synth.acoustic_frames"),
                           ("dsp.write_wav", "msfser.synth.write_wav"),
                           ("lemf.run_lemf", "msfser.cli.run_lemf"),
                           ("numcore.load_checkpoint", "msfser.cli.load_checkpoint"),
                           ("synth.load_examples", "msfser.cli.load_examples"),
                           ("numcore.ccc_loss", "msfser.model.ccc_loss"),
                           ("numcore.layer_norm_fwd", "msfser.model.layer_norm_fwd")):
            assert site in t.sites[span], (span, t.sites[span])
        assert msfser.lemf.estimate_f0 is not orig
    finally:
        t.uninstall()
    assert msfser.lemf.estimate_f0 is orig and msfser.dsp.estimate_f0 is orig
    assert "forward" in vars(msfser.model.MsfSerModel)


def test_statistics():
    values = [float(v) for v in range(1, 101)]
    p90, beyond = spec.tail_percentile(values, 90)
    assert (p90, beyond) == (90.0, 10)
    assert spec.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    lower = spec.Metric("wall_s", "s", "lower", 0.1, spec.WORKLOADS)
    base = [10.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(lower, base, [v - 1.0 for v in base])["verdict"] == "win"
    assert compare.verdict(lower, base, [v + 2.0 for v in base])["verdict"] == "regression"
    assert compare.verdict(lower, base, list(base))["verdict"] == "same"
    noisy = [10.0 * (1 + 0.5 * (i % 2)) for i in range(10)]
    assert compare.verdict(lower, noisy, noisy[::-1])["verdict"] == "unresolved"


def main() -> int:
    tests = [test_contract, test_statistics, test_binding_sites, test_refusals,
             test_tampered_outputs_fail, test_workload_metrics]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok    {test.__name__}")
        except Exception:
            failed += 1
            print(f"FAIL  {test.__name__}\n{traceback.format_exc()}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

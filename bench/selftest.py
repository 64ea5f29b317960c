"""Smoke-sized self-test of the benchmark.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (default: all in BENCHMARK.json) it runs bench/run.py
for one second untraced and twice traced with the same seed, and checks:

- BENCHMARK.json names the workloads and metrics run.py defines;
- the last output line is the result object, with every declared metric
  present under its unit and a correct, failure-free run;
- the counters of the two traced runs are exactly equal (every per-layer
  metric that is not a time);
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise.  Takes about two minutes,
mostly the set-up of stability-p2.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SEED = 3
TIMED_METRICS = {"trace.overhead_ratio"}


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(res)}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        raise AssertionError(f"incorrect run: {res['attempted']} attempted, {res['failed']} failed")
    return res


def check_metrics(res, declared):
    got = res["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise AssertionError(f"metrics differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AssertionError(f"{name}: {got[name]} (expected unit {unit})")


def counters(res, declared):
    return {m["name"]: res["metrics"][m["name"]]["value"] for m in declared if m["unit"] != "s" and m["name"] not in TIMED_METRICS}


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, msg):
        if not cond:
            failures.append(msg)
            print(f"FAIL {msg}")

    declared_e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(declared_e2e == [tuple(m) for m in run.END_TO_END], "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect(declared_layer == [tuple(m) for m in run.PER_LAYER], "BENCHMARK.json per_layer differs from run.PER_LAYER")
    names = [w["name"] for w in spec["workloads"]]
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    expect(sorted(names) == sorted(workloads.WORKLOADS), "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in argv or names:
        args = ["--workload", name, "--seed", str(SEED), "--seconds", "1"]
        try:
            plain = result_of(bench(args + ["--trace", "0"]))
            check_metrics(plain, spec["end_to_end"])
            first = result_of(bench(args + ["--trace", "1"]))
            second = result_of(bench(args + ["--trace", "1"]))
            check_metrics(first, spec["per_layer"])
            a, b = counters(first, spec["per_layer"]), counters(second, spec["per_layer"])
            differ = sorted(k for k in a if a[k] != b[k])
            expect(not differ, f"{name}: traced counters differ between runs: {differ}")
            print(f"ok   {name}: {plain['attempted']} items untraced, {len(a)} counters equal over two traced runs")
        except (AssertionError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            expect(False, f"{name}: {exc}")

    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = bench(["--workload", names[0], "--seed", str(SEED), "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "a checkout without src/ must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

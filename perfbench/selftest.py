"""Self-test of the benchmark at tiny sizes; it takes well under a minute.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the metrics run.py prints; that every
workload, untraced and traced, prints every named metric and a valid last
line; that a second seed runs; that a recorded reference is met exactly and a
perturbed one makes the correctness gate fail; and that a copy of the
benchmark without the library exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (sibling module; importing it starts nothing)
from workloads import WORKLOADS  # noqa: E402

WORK = os.path.join(HERE, "work", f"selftest-{os.getpid()}")
TEXT_METRICS = ("wall_s", "estimates_per_s", "setup_wall_s", "calib_s",
                "solve_p50_ms", "solve_max_ms", "variance_p50_ms", "variance_max_ms",
                "probs_ms", "failed_frac", "result_rel_dev")
failures = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, *extra, script=os.path.join(HERE, "run.py"), cwd=ROOT):
    argv = [sys.executable, script, "--workload", workload, "--seed", str(seed),
            "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, lines, result


def check_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        cfg = json.load(fh)
    check([w["name"] for w in cfg["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the workloads")
    check([(m["name"], m["unit"], m["better"]) for m in cfg["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in cfg["per_layer"]] == list(run.PER_LAYER),
          "BENCHMARK.json per_layer matches run.PER_LAYER")


def check_runs():
    for name in WORKLOADS:
        for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc, lines, result = bench(name, 1, trace)
            what = f"{name} trace={trace}"
            check(proc.returncode == 0 and result is not None and result["correct"], f"{what} runs and is correct")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["attempted"] >= 1 and result["failed"] == 0, f"{what} last line has the four keys")
            check(list(result["metrics"]) == [m for m, _, _ in expected]
                  and all(result["metrics"][m]["unit"] == u for m, u, _ in expected)
                  and all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                  f"{what} prints every metric with its unit")
            printed = {ln.split()[1] for ln in lines if ln.startswith(("metric ", "layer "))}
            missing = (set(TEXT_METRICS) | {m for m, _, _ in expected}) - printed
            check(not missing, f"{what} lists every metric by name (missing {sorted(missing)})")
        proc, _, result = bench(name, 2, 0)
        check(proc.returncode == 0 and result is not None and result["correct"], f"{name} runs on a second seed")


def check_reference_gate():
    ref = os.path.join(WORK, "reference.json")
    for name in WORKLOADS:
        proc, _, result = bench(name, 3, 0, "--reference", ref, "--record")
        check(proc.returncode == 0 and result["correct"], f"{name} records a reference")
        proc, lines, result = bench(name, 3, 0, "--reference", ref)
        dev = [ln.split()[2] for ln in lines if ln.startswith("metric result_rel_dev")]
        check(proc.returncode == 0 and result["correct"] and dev == ["0"], f"{name} meets its reference exactly")
    with open(ref) as fh:
        db = json.load(fh)
    for name in WORKLOADS:
        values = db["scales"]["tiny"][name]["3"]
        floats = [k for k in sorted(values) if values[k] != 0 and not k.endswith(("replicates", "failures"))]
        key = floats[len(floats) // 2]
        values[key] *= 1.0 + 1e-3
        with open(ref, "w") as fh:
            json.dump(db, fh)
        proc, lines, result = bench(name, 3, 0, "--reference", ref)
        flagged = any(ln.startswith("check FAILED: result_rel_dev") for ln in lines)
        check(proc.returncode != 0 and result is not None and not result["correct"] and flagged,
              f"{name} fails the gate when reference value {key} is perturbed")


def check_without_library():
    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, lines, result = bench("cli_large", 1, 0, script=os.path.join(bare, "perfbench", "run.py"), cwd=bare)
    check(proc.returncode != 0 and result is None and not lines,
          "without the library it exits non-zero and prints no result")


def main() -> int:
    os.makedirs(WORK)
    try:
        check_config()
        check_runs()
        check_reference_gate()
        check_without_library()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run perfbench as alternating parent/change pairs and write BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --workloads cli_large replicate_t1 \
        --pairs 10 --label my_change

PARENT and CHANGE are each a git ref of this repository or a directory
holding a source tree. Each side is exported once into its own temporary
directory: a ref by `git archive`, a directory by a copy without caches,
`.git` and perfbench's work and result files. So a side never runs from the
working tree, and a change made while the pairs run cannot reach either side.

For each workload, in the order given, the two-thread matmul control is read,
then seeds first-seed .. first-seed + pairs - 1 run as pairs: the parent
first on odd seeds and the change first on even seeds, each run
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in
its side's export. Then the control is read again. Every run's end-to-end
metrics (the JSON line run.py prints last) and each command's median scaled
latency (from the result file run.py writes) are kept with its seed. The
file records, per workload and side, the median, quartiles and runs of each
metric and the per-command medians, and for the change against the parent the
relative median, the pairs the change won and the parent's IQR, in the
format of the earlier BENCH_*.json files. Standard library only; numpy is
needed only by perfbench and by the control, which run in child processes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Two threads' throughput of 600 x 600 products over one thread's, per round,
# at OPENBLAS_NUM_THREADS=1: about 2 when both CPUs are free, 1 when one is.
CONTROL = """
import json, sys, threading, time
import numpy as np
a = np.random.default_rng(0).standard_normal((600, 600))
def work():
    for _ in range(20):
        a @ a
ratios = []
for _ in range(int(sys.argv[1])):
    t = time.perf_counter(); work(); one = time.perf_counter() - t
    threads = [threading.Thread(target=work) for _ in range(2)]
    t = time.perf_counter()
    for th in threads: th.start()
    for th in threads: th.join()
    ratios.append(round(2 * one / (time.perf_counter() - t), 3))
print(json.dumps(ratios))
"""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git ref or directory of the parent tree")
    ap.add_argument("change", help="git ref or directory of the changed tree")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seconds", type=float, default=30.0, help="run.py --seconds (default 30)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="run.py --scale; tiny is for a self-test, with one control round")
    ap.add_argument("--what", default="", help="one line on what the change does")
    ap.add_argument("--out-dir", default=ROOT, help="where BENCH_<label>.json goes (default: repo root)")
    return ap.parse_args(argv)


def _skip(directory, names):
    """Names copytree leaves out of a directory side: VCS state, caches and perfbench output."""
    skipped = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    if os.path.basename(directory) == "perfbench":
        skipped |= {"work", "results"}
    return [name for name in names if name in skipped]


def _export(spec, dest) -> dict:
    """Export side `spec` (a directory or a git ref of ROOT) into dest; return its provenance."""
    if os.path.isdir(spec):
        shutil.copytree(spec, dest, ignore=_skip)
        commit = subprocess.run(["git", "-C", spec, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(["git", "-C", spec, "status", "--porcelain"], capture_output=True, text=True)
        tracked = commit.returncode == 0
        return {"spec": os.path.basename(os.path.abspath(spec)), "kind": "directory",
                "commit": commit.stdout.strip() if tracked else None,
                "uncommitted_changes": bool(status.stdout.strip()) if tracked else None}
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{spec}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return {"spec": spec, "kind": "git ref", "commit": commit}


def _control(rounds) -> list:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", CONTROL, str(rounds)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def _run(tree, workload, seed, args) -> dict:
    """One perfbench run in `tree`: its end-to-end metrics, check outcome and per-command medians.

    A command's median is over the run's untraced passes, of its scaled
    latency, as run.py sums them into wall_norm_s.
    """
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"error: {workload} seed {seed} in {tree} printed no result "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    written = [ln.split(" written to ", 1)[1] for ln in lines if ln.startswith("# result written to ")]
    with open(os.path.join(tree, written[-1])) as fh:
        result = json.load(fh)
    untraced = [p for p in result["passes"] if not p["traced"]]
    labels = dict.fromkeys(label for p in untraced for label in p["scaled"])
    commands = {label: round(1e3 * statistics.median(p["scaled"][label] for p in untraced
                                                     if label in p["scaled"]), 3)
                for label in labels}
    return {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "result_rel_dev": result["workload_metrics"].get("result_rel_dev"),
        "source_sha256": result["provenance"]["source_sha256"],
        "commands_ms": commands,
    }


def _summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in values]}


def _workload_record(log, seeds, better) -> dict:
    """One workload's statistics per side, its pairs compared by seed, and every run.

    log[side] lists that side's runs in seed order, so run j of each side is
    pair j.
    """
    record = {"pairs": len(seeds), "seeds": seeds}
    for side, runs in log.items():
        assert [r["seed"] for r in runs] == seeds
        record[side] = {name: _summary([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
    versus = record["change_vs_parent"] = {}
    for name, parent in record["parent"].items():
        change = record["change"][name]
        lower = better[name] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent["runs"], change["runs"]))
        versus[name] = {"median_rel": round(change["median"] / parent["median"] - 1.0, 4),
                        "change_better_pairs": won, "parent_iqr": round(parent["q3"] - parent["q1"], 6)}
    commands = record["commands_ms"] = {
        side: {label: round(statistics.median(r["commands_ms"][label] for r in runs), 3)
               for label in runs[0]["commands_ms"]}
        for side, runs in log.items()
    }
    commands["change_vs_parent"] = {label: round(commands["change"][label] / ms - 1.0, 4)
                                    for label, ms in commands["parent"].items()}
    record["runs"] = sorted((dict(r, side=side) for side, runs in log.items() for r in runs),
                            key=lambda r: r["position"])
    return record


def main(argv=None) -> int:
    args = _parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    rounds = 1 if args.scale == "tiny" else 5
    out = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0"
                   + ("" if args.scale == "full" else f" --scale {args.scale}"),
        "tool": f"python3 tools/bench_pairs.py PARENT CHANGE --workloads {' '.join(args.workloads)} "
                f"--pairs {args.pairs} --label {args.label} --seconds {args.seconds:g} "
                f"--first-seed {args.first_seed} --scale {args.scale}",
        "host": f"{os.cpu_count()}-CPU {os.uname().machine}, Python {sys.version.split()[0]}",
        "order": (f"parent and change alternate per seed, parent first on odd seeds and change first "
                  f"on even seeds; seeds {seeds[0]}-{seeds[-1]} per workload, workloads in the order "
                  f"{', '.join(args.workloads)}, each side run from its own export of its tree"),
        "sides": {},
        "matmul_control": {"what": f"two-thread 600 x 600 matmul control (OPENBLAS_NUM_THREADS=1): two "
                                   f"threads' throughput over one thread's, {rounds} rounds of 20 products, "
                                   f"read just before and just after each workload's set"},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = os.path.join(tmp, side)
            out["sides"][side] = _export(getattr(args, side), trees[side])
        for workload in args.workloads:
            out["matmul_control"][f"{workload}_before"] = _control(rounds)
            log = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    run = _run(trees[side], workload, seed, args)
                    run["position"] = sum(map(len, log.values()))
                    log[side].append(run)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(run['metrics'])} correct={run['correct']}", flush=True)
            out["matmul_control"][f"{workload}_after"] = _control(rounds)
            out["workloads"][workload] = _workload_record(log, seeds, better)
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"written {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

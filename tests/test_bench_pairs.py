"""tools/bench_pairs.py pairs parent and change runs of the benchmark by seed."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tree_copy(dest):
    """The library and the benchmark of this checkout, as a directory side."""
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "work", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return str(dest)


def test_one_tiny_pair_of_directory_copies(tmp_path):
    """Two copies of one tree, one pair at --scale tiny: the file holds both runs with their
    seed, in alternating order, and every metric pair and command median comes from the runs
    of that one seed."""
    parent, change = tree_copy(tmp_path / "parent"), tree_copy(tmp_path / "change")
    argv = [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"), parent, change,
            "--workloads", "cli_large", "--pairs", "1", "--first-seed", "2", "--label", "selftest",
            "--seconds", "0.3", "--scale", "tiny", "--out-dir", str(tmp_path)]
    subprocess.run(argv, capture_output=True, text=True, check=True,
                   env={**os.environ, "TMPDIR": str(tmp_path)})
    with open(tmp_path / "BENCH_selftest.json") as fh:
        out = json.load(fh)
    assert [out["sides"][side]["kind"] for side in ("parent", "change")] == ["directory"] * 2
    assert len(out["matmul_control"]["cli_large_before"]) == len(out["matmul_control"]["cli_large_after"]) == 1
    record = out["workloads"]["cli_large"]
    assert record["pairs"] == 1 and record["seeds"] == [2]
    runs = record["runs"]
    # seed 2 is even, so the change runs first
    assert [(r["position"], r["seed"], r["side"]) for r in runs] == [(0, 2, "change"), (1, 2, "parent")]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    assert runs[0]["source_sha256"] == runs[1]["source_sha256"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["end_to_end"]]
    for r in runs:
        side = record[r["side"]]
        assert list(side) == metrics
        for name in metrics:
            assert side[name]["runs"] == [round(r["metrics"][name], 6)]
            assert side[name]["median"] == side[name]["q1"] == side[name]["q3"] == side[name]["runs"][0]
        assert record["commands_ms"][r["side"]] == r["commands_ms"]
    assert set(runs[0]["commands_ms"]) == {
        *(f"solve-{m}" for m in ("ols", "unif", "lev", "slev", "opt")), "probs-opt",
        *(f"variance-{m}" for m in ("unif", "lev", "opt"))}
    for name in metrics:
        versus = record["change_vs_parent"][name]
        parent_value, change_value = record["parent"][name]["median"], record["change"][name]["median"]
        assert versus["median_rel"] == round(change_value / parent_value - 1.0, 4)
        assert versus["change_better_pairs"] in (0, 1) and versus["parent_iqr"] == 0.0

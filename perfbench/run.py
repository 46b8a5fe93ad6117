"""tlsq benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload replicate_t1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from ./src.
Set-up generates the workload's inputs from --seed, writes them, fills the
file cache and runs a tiny warm-up pass of the same commands; it runs five
times before the measured phase and the median is reported. The measured
phase runs the workload's tlsq commands in-process through `tlsq.cli.main`,
one after another, repeating the whole pass until --seconds have elapsed (at
least one pass; an untraced pass after the first stops at the deadline).

Times are scaled to a reference host speed. After every set-up and every
command a fixed kernel, the calibration slice, is timed; a step's time
is multiplied by CALIB_REF_S over the mean of the slices on either side of
it. On a shared host the speed a process gets drifts by 20% and more over
minutes, while the ratio of a step to its neighbouring slices stays within a
few percent. Raw times are printed and stored as well.

--trace 0 reports the end-to-end metrics of untraced passes. --trace 1
alternates untraced and traced passes and reports per-layer metrics from the
traced ones (see spans.py); their difference is the tracing overhead.

Every pass's outputs are checked (workloads.py). The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it list every metric by name and unit. A full result with provenance
goes to perfbench/results/. The exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

# Relative deviation from the recorded reference above which a run is wrong.
REL_DEV_BOUND = 1e-6
# Set-ups before the measured phase; the median is reported.
SETUP_REPEATS = 5
# Scaled times read as seconds on a host where one calibration slice takes
# this long (about its median on a 2-vCPU Xeon VM), per kernel.
CALIB_REF_S = {"interp": 0.12, "lapack_2t": 0.12, "array": 0.16}

# (name, unit, better) of the end-to-end metrics in the JSON line; each is
# defined on every workload and never zero. Times are scaled (see above).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_norm_s", "s", "lower"),
    ("estimates_per_norm_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics of a traced run: (name, unit, better). Values are per
# traced pass. A layer a workload does not reach reads 0.
PER_LAYER = (
    ("solver.solve_subsampled.self_s", "s", "lower"),
    ("solver.solve_subsampled.calls", "count", "lower"),
    ("solver.solve_subsampled.failed", "count", "lower"),
    ("solver.objective.self_s", "s", "lower"),
    ("solver.objective.calls", "count", "lower"),
    ("solver.objective.calls_in_solve", "count", "lower"),
    ("solver.solve_ols.self_s", "s", "lower"),
    ("solver.solve_ols.calls", "count", "lower"),
    ("solver.validate_design.self_s", "s", "lower"),
    ("solver.validate_design.calls", "count", "lower"),
    ("experiments.driver.self_s", "s", "lower"),
    ("experiments.gen_design.self_s", "s", "lower"),
    ("experiments.gen_response.self_s", "s", "lower"),
    ("experiments.compute_metrics.self_s", "s", "lower"),
    ("experiments.write_report.self_s", "s", "lower"),
    ("tensor.thin_t_svd.self_s", "s", "lower"),
    ("tensor.thin_t_svd.calls", "count", "lower"),
    ("tensor.read_tensor.self_s", "s", "lower"),
    ("tensor.read_tensor.bytes", "bytes", "lower"),
    ("tensor.write_tensor.self_s", "s", "lower"),
    ("tensor.from_fourier.self_s", "s", "lower"),
    ("tensor.t_product.self_s", "s", "lower"),
    ("tensor.bcirc.self_s", "s", "lower"),
    ("sampling.build_distribution.self_s", "s", "lower"),
    ("sampling.build_distribution.calls", "count", "lower"),
    ("sampling.draw_plan.self_s", "s", "lower"),
    ("sampling.draw_plan.calls", "count", "lower"),
    ("sampling.unique_row_ratio", "ratio", "higher"),
    ("stats.variance_report.self_s", "s", "lower"),
    ("stats.conditional_variance.self_s", "s", "lower"),
    ("stats.unconditional_variance.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the self-test; references are per scale")
    ap.add_argument("--reference", default=REFERENCE, help="reference values file")
    ap.add_argument("--record", action="store_true",
                    help="store this run's outputs as the reference for its seed")
    return ap.parse_args(argv)


def _import_tlsq():
    """Import tlsq from ./src of this checkout, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "tlsq", "__init__.py")):
        sys.exit(f"error: {SRC}/tlsq not found; run from a tlsq source checkout")
    sys.path.insert(0, SRC)
    import tlsq
    import tlsq.cli

    if os.path.dirname(os.path.abspath(tlsq.__file__)) != os.path.join(SRC, "tlsq"):
        sys.exit(f"error: imported tlsq from {tlsq.__file__}, not from {SRC}")
    return tlsq


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _provenance(tlsq, np, args, workload):
    digest = hashlib.sha256()
    src = os.path.join(SRC, "tlsq")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "tlsq": tlsq.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "machine": f"{os.uname().sysname} {os.uname().release} {os.uname().machine}",
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "TLSQ_THREADS")},
    }


class Calibration:
    """A fixed kernel, timed between the measured steps.

    There are three, each like the work of the workloads that use it:
    "interp" is a pure-Python loop and many small numpy factorizations, where
    the interpreter dominates, as in the replicate grid; "lapack_2t" is
    least-squares solves of a 1500 x 60 matrix on two threads at once, as in
    the matrix baseline on the replicate pool; "array" is FFTs, an SVD and a
    copy over a 26 MB array, where memory bandwidth dominates, as in
    cli_large. Their inputs are fixed and they do not call tlsq, so their
    time tracks only the speed the host gives this process.
    """

    def __init__(self, np, kind):
        rng = np.random.default_rng(0)
        self.np = np
        self.kind = kind
        self.ref_s = CALIB_REF_S[kind]
        if kind == "interp":
            self.small = rng.standard_normal((300, 10))
            self.rhs = rng.standard_normal(300)
        elif kind == "lapack_2t":
            self.tall = rng.standard_normal((1500, 60))
            self.rhs = rng.standard_normal(1500)
        else:
            self.large = rng.standard_normal((20000, 20, 8))
        self.times = []

    def _interp(self):
        np = self.np
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        for _ in range(600):
            acc += float(np.linalg.lstsq(self.small, self.rhs, rcond=None)[0][0])
            acc += float(np.fft.rfft(self.small, axis=0)[0, 0].real)
        return acc

    def _lapack_2t(self):
        np = self.np
        acc = [0.0, 0.0]

        def solve(i):
            for _ in range(30):
                acc[i] += float(np.linalg.lstsq(self.tall, self.rhs, rcond=None)[0][0])

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return sum(acc)

    def _array(self):
        np = self.np
        spectrum = np.fft.rfft(self.large, axis=2)
        acc = float(np.linalg.svd(spectrum[:, :, 1], full_matrices=False)[1][0])
        return acc + float(self.large.copy(order="F")[0, 0, 0])

    def run(self) -> float:
        """Time one slice, record it and return its time."""
        start = time.perf_counter()
        acc = {"interp": self._interp, "lapack_2t": self._lapack_2t, "array": self._array}[self.kind]()
        elapsed = time.perf_counter() - start
        if not math.isfinite(acc):
            raise RuntimeError("calibration kernel gave a non-finite result")
        self.times.append(elapsed)
        return elapsed

    def scale(self, raw, before, after):
        """`raw` at the reference speed, from the slices before and after it."""
        ref = after if before is None else 0.5 * (before + after)
        return raw * self.ref_s / ref


def _run_pass(cli, commands, calib=None, stop_at=None):
    """Run the commands in order, with a calibration slice after each.

    Stops after a command once the clock passes `stop_at`. Returns
    (latencies, scaled latencies, stdout texts, failures), keyed by label,
    for the commands that ran; without `calib` nothing is scaled.
    """
    latencies, scaled, texts, failures = {}, {}, {}, []
    gc.collect()
    for label, argv in commands:
        before = calib.times[-1] if calib and calib.times else None
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # an escaped exception fails the command, as a crash would
                traceback.print_exc()
                rc = -1
        latencies[label] = time.perf_counter() - t
        if calib:
            scaled[label] = calib.scale(latencies[label], before, calib.run())
        texts[label] = out.getvalue()
        if rc != 0:
            failures.append(f"{label} exited {rc}: {err.getvalue().strip()}")
        if stop_at is not None and time.perf_counter() >= stop_at:
            break
    return latencies, scaled, texts, failures


def _rel_dev(values, reference):
    """Largest elementwise relative deviation of `values` from `reference`."""
    worst, where = 0.0, None
    for key in sorted(set(values) | set(reference)):
        a, b = values.get(key), reference.get(key)
        if a is None or b is None:
            dev = math.inf
        elif math.isnan(a) or math.isnan(b):
            dev = 0.0 if math.isnan(a) and math.isnan(b) else math.inf
        else:
            dev = abs(a - b) / max(abs(b), 1e-300)
        if dev > worst:
            worst, where = dev, key
    return worst, where


def _load_reference(path):
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {"scales": {}}


def _latency_stats(passes, prefix):
    vals = [t * 1e3 for p in passes for label, t in p["latencies"].items() if label.startswith(prefix)]
    if not vals:
        return None, None, 0
    return _median(vals), max(vals), len(vals)


def _set_up(wl, cli, start):
    """Write the inputs, fill the file cache and run a tiny warm-up pass.

    Returns the time since `start`; the first set-up starts before the import
    of tlsq and numpy and so carries it.
    """
    wl.setup()
    warm = type(wl)("tiny", os.path.join(wl.workdir, "warmup"), wl.seed)
    warm.setup()
    _, _, _, failures = _run_pass(cli, warm.commands())
    if failures:
        sys.exit("error: warm-up failed: " + "; ".join(failures))
    return time.perf_counter() - start


def _measure(wl, cli, seconds, trace, tracer, calib):
    """Repeat passes for `seconds` (alternating traced ones when `trace`).

    An untraced pass after the first stops at the deadline; the outputs of
    its commands are checked together with those of the last complete pass.
    Returns (passes, problems, outputs, values, attempted, failed, elapsed)
    where outputs and values come from the last pass whose commands succeeded.
    """
    commands = wl.commands()
    passes = []  # {"traced", "complete", "latencies", "scaled", "estimates"} per pass
    problems, outputs, values, full_texts = [], None, None, None
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        traced = trace and sum(p["traced"] for p in passes) < len(passes) / 2
        stop_at = t0 + seconds if passes and not traced else None
        if traced:
            tracer.install()
        try:
            latencies, scaled, texts, failures = _run_pass(cli, commands, calib, stop_at)
        finally:
            tracer.uninstall()
        complete = len(texts) == len(commands)
        record = {"traced": traced, "complete": complete, "latencies": latencies,
                  "scaled": scaled, "estimates": None}
        passes.append(record)
        attempted += len(texts)
        failed += len(failures)
        problems += failures
        if not failures and (complete or full_texts is not None):
            try:
                pass_outputs = wl.collect(texts if complete else {**full_texts, **texts})
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
                pass_outputs = None
            if pass_outputs is not None:
                outputs = pass_outputs
                if complete:
                    full_texts = texts
                    counts = wl.counts(outputs)
                    record["estimates"] = counts["estimates"]
                    attempted += counts["sketches"]
                    failed += counts["failed_sketches"]
                pass_values = wl.values(outputs)
                if values is not None and _rel_dev(pass_values, values)[0] > REL_DEV_BOUND:
                    problems.append("outputs differ between passes over the same inputs")
                values = pass_values
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and (not trace or any(p["traced"] for p in passes)):
            return passes, problems, outputs, values, attempted, failed, elapsed


def main(argv=None) -> int:
    args = _parse_args(argv)
    t_import = time.perf_counter()
    # Single-threaded BLAS, fixed before numpy loads; replicate threads come
    # from TLSQ_THREADS alone, so no workload uses more than two threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    tlsq = _import_tlsq()
    import numpy as np

    from spans import Tracer, summarize
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    os.environ["TLSQ_THREADS"] = str(cls.threads)
    cli = sys.modules["tlsq.cli"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("" if args.scale == "full" else f"-{args.scale}")
    workdir = os.path.join(HERE, "work", f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "warmup"))
    try:
        wl = cls(args.scale, workdir, args.seed)
        provenance = _provenance(tlsq, np, args, wl)
        calib = Calibration(np, wl.calibration)
        setup_raw, setup_scaled = [], []
        for rep in range(SETUP_REPEATS):
            before = calib.times[-1] if calib.times else None
            setup_raw.append(_set_up(wl, cli, time.perf_counter() if rep else t_import))
            setup_scaled.append(calib.scale(setup_raw[-1], before, calib.run()))
        tracer = Tracer()
        passes, problems, outputs, values, attempted, failed, elapsed = _measure(
            wl, cli, args.seconds, bool(args.trace), tracer, calib
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if outputs is not None:
            problems += wl.check(outputs, wl.oracle())

        ref_db = _load_reference(args.reference)
        ref_scale = ref_db["scales"].setdefault(args.scale, {})
        reference = ref_scale.get(args.workload, {}).get(str(args.seed))
        rel_dev = rel_where = None
        recorded = args.record and values is not None and not problems
        if recorded:
            ref_scale.setdefault(args.workload, {})[str(args.seed)] = values
            with open(args.reference, "w") as fh:
                json.dump(ref_db, fh, indent=0, sort_keys=True)
                fh.write("\n")
        elif reference is not None and values is not None:
            rel_dev, rel_where = _rel_dev(values, reference)
            if rel_dev > REL_DEV_BOUND:
                problems.append(f"result_rel_dev {rel_dev:.3g} at {rel_where} exceeds {REL_DEV_BOUND:g}")

        untraced = [p for p in passes if not p["traced"]]
        labels = [label for label, _ in wl.commands()]

        def pass_time(key):
            """One pass: the sum over its commands of each one's median untraced time."""
            return sum(_median([p[key][label] for p in untraced if label in p[key]]) for label in labels)

        wall_norm, wall_raw = pass_time("scaled"), pass_time("latencies")
        estimates = _median([p["estimates"] for p in untraced if p["estimates"] is not None])
        e2e = {
            "setup_s": _median(setup_scaled),
            "wall_norm_s": wall_norm,
            "estimates_per_norm_s": estimates / wall_norm,
            "peak_rss_mb": peak_rss_mb,
        }
        samples = f"{len(untraced)} passes ({sum(p['complete'] for p in untraced)} complete)"
        # Raw times, and metrics of one workload only; printed and stored, not in the JSON line.
        extra = {
            "wall_s": (wall_raw, "s", f"as wall_norm_s, unscaled; {samples}"),
            "estimates_per_s": (estimates / wall_raw, "1/s", "as estimates_per_norm_s, unscaled"),
            "setup_wall_s": (_median(setup_raw), "s", f"median of {len(setup_raw)} unscaled set-ups"),
            "calib_s": (_median(calib.times), "s", f"median of {len(calib.times)} calibration slices"),
        }
        for name, prefix in (("solve", "solve-"), ("variance", "variance-")):
            p50, worst, count = _latency_stats(untraced, prefix)
            extra[f"{name}_p50_ms"] = (p50, "ms", f"median of {count} commands")
            extra[f"{name}_max_ms"] = (worst, "ms", f"max of {count} commands")
        probs, _, count = _latency_stats(untraced, "probs-")
        extra["probs_ms"] = (probs, "ms", f"median of {count} commands")
        extra["failed_frac"] = (failed / attempted, "ratio", f"{failed} of {attempted} commands and sketches")
        extra["result_rel_dev"] = (
            rel_dev, "ratio",
            "recorded as the reference" if recorded else
            f"no reference for seed {args.seed}" if rel_dev is None else
            f"against seed {args.seed}'s reference" + (f", largest at {rel_where}" if rel_where else ""),
        )

        layers = None
        if args.trace:
            summary = summarize(tracer.spans, threading.get_ident())
            layers = _per_layer(summary, [sum(p["latencies"].values()) for p in passes if p["traced"]], wall_raw)

        print(f"# workload {args.workload} seed {args.seed} scale {args.scale}: "
              f"{len(untraced)} untraced and {len(passes) - len(untraced)} traced passes in {elapsed:.1f} s")
        print(f"# {json.dumps(provenance, sort_keys=True)}")
        notes = {"setup_s": f"median of {len(setup_scaled)} set-ups, scaled",
                 "wall_norm_s": f"sum over commands of the median scaled latency; {samples}",
                 "estimates_per_norm_s": "estimates of one pass over wall_norm_s", "peak_rss_mb": "whole process"}
        units = {name: unit for name, unit, _ in END_TO_END}
        for name, value in e2e.items():
            print(f"metric {name:<24} {value:>14.6g} {units[name]:<6} {notes[name]}")
        for name, (value, unit, note) in extra.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"metric {name:<24} {shown:>14} {unit:<6} {note}")
        if layers is not None:
            for name, unit, _ in PER_LAYER:
                print(f"layer  {name:<36} {layers[name]:>14.6g} {unit}")
        for problem in problems:
            print(f"check FAILED: {problem}")
        correct = not problems
        print(f"check {'passed' if correct else 'FAILED'}: {len(problems)} problems")

        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        result_path = os.path.join(HERE, "results", f"{tag}.json")
        with open(result_path, "w") as fh:
            json.dump(
                {
                    "provenance": provenance,
                    "correct": correct,
                    "problems": problems,
                    "attempted": attempted,
                    "failed": failed,
                    "end_to_end": e2e,
                    "workload_metrics": {k: v[0] for k, v in extra.items()},
                    "per_layer": layers,
                    "setup_s": {"raw": setup_raw, "scaled": setup_scaled},
                    "calibration_s": calib.times,
                    "calibration": {"kind": calib.kind, "ref_s": calib.ref_s},
                    "passes": passes,
                    "patched": tracer.patched,
                },
                fh,
                indent=1,
            )
        if args.trace:
            tracer.write(os.path.join(HERE, "results", f"{tag}.spans.jsonl.gz"))
        print(f"# result written to {os.path.relpath(result_path, ROOT)}")

        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER} \
            if args.trace else {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _per_layer(summary, traced_walls, untraced_wall):
    """Per-layer metrics per traced pass, keyed as in PER_LAYER."""
    n = len(traced_walls)
    layers = summary["layers"]
    drawn = layers.get("sampling.draw_plan", {}).get("extra") or (0, 0)
    read = layers.get("tensor.read_tensor", {}).get("extra") or (0,)
    traced_wall = _median(traced_walls)
    special = {
        "solver.objective.calls_in_solve":
            summary["calls_under"].get(("solver.objective", "solver.solve_subsampled"), 0) / n,
        "tensor.read_tensor.bytes": read[0] / n,
        "sampling.unique_row_ratio": drawn[0] / drawn[1] if drawn[1] else 0.0,
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": summary["self_sum_s"] / n,
        # Harness time in the command timings not covered by main-thread spans.
        "trace.unaccounted_s": (sum(traced_walls) - summary["main_self_sum_s"]) / n,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        out[name] = special[name] if name in special else layers.get(layer, {}).get(field, 0) / n
    return out


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs made from a seed, the commands, and checks.

Inputs are generated here with numpy, not with tlsq, so that a change to the
library's own generators cannot change what the benchmark feeds it. Every
workload is a list of `tlsq` CLI commands run one after another (one client,
closed loop). The checks hold for any seed: they compare the outputs with
identities of the estimator and with an independent numpy oracle. The
recorded references in reference.json add an exact-value gate for the seeds
they cover.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct

import numpy as np

# Relative tolerance of every oracle and identity check. Loose enough for the
# last-ulp changes of a batched or re-ordered factorization, tight enough to
# catch a wrong formula or a wrong row.
CHECK_RTOL = 1e-8

REPORT_COLUMNS = ("smrfv", "smre", "ssb", "sv", "smse")

# Sizes per scale. "full" is what the benchmark measures; "tiny" is the
# warm-up pass before timing and the self-test. An experiment pass is 25
# replicates (about a second), so that each pass is timed against a
# calibration slice run right next to it (see run.py).
SIZES = {
    "replicate_t1": {
        "full": dict(n=1000, p=10, l=6, replicates=25, taus=(150, 300, 600)),
        "tiny": dict(n=200, p=5, l=4, replicates=4, taus=(60, 120)),
    },
    "compare_mls_2t": {
        "full": dict(n=1000, p=10, l=6, replicates=25, taus=(300,)),
        "tiny": dict(n=200, p=5, l=4, replicates=4, taus=(60,)),
    },
    "cli_large": {
        "full": dict(n=20000, p=20, l=16, tau=400),
        "tiny": dict(n=300, p=6, l=4, tau=60),
    },
}

_TT_HEADER = "<4sIQQQ"


def write_tt(x: np.ndarray, path) -> None:
    """Write the .tt layout: magic, u32 version 1, n/p/l u64, float64 column-major."""
    n, p, l = x.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(_TT_HEADER, b"TTEN", 1, n, p, l))
        fh.write(np.asarray(x, dtype="<f8").ravel(order="F").tobytes())


def read_tt(path) -> np.ndarray:
    with open(path, "rb") as fh:
        payload = fh.read()
    magic, version, n, p, l = struct.unpack_from(_TT_HEADER, payload)
    if magic != b"TTEN" or version != 1:
        raise ValueError(f"{path}: not a version-1 .tt file")
    data = np.frombuffer(payload, dtype="<f8", offset=struct.calcsize(_TT_HEADER))
    return data.reshape((n, p, l), order="F")


def t3_design(rng, n, p, l) -> np.ndarray:
    """Rows i.i.d. multivariate t with 3 degrees of freedom, scale 2 * 0.5^|i-j|."""
    idx = np.arange(p)
    chol = np.linalg.cholesky(2.0 * 0.5 ** np.abs(idx[:, None] - idx[None, :]))
    z = np.einsum("npk,qp->nqk", rng.standard_normal((n, p, l)), chol)
    return z / np.sqrt(rng.chisquare(3.0, size=(n, l)) / 3.0)[:, None, :]


def coefficients(p, l) -> np.ndarray:
    """The pattern (1, 1, 0.1, ..., 0.1, 1, 1) in every frontal slice."""
    v = np.concatenate([[1.0, 1.0], np.full(p - 4, 0.1), [1.0, 1.0]])
    return np.repeat(v[:, None, None], l, axis=2)


def _half_spectrum_weights(l) -> np.ndarray:
    """Parseval weights of the rfft slices: 1 for self-conjugate ones, else 2."""
    w = np.full(l // 2 + 1, 2.0)
    w[0] = 1.0
    if l % 2 == 0:
        w[-1] = 1.0
    return w


def t_product(x, b) -> np.ndarray:
    l = x.shape[2]
    zh = np.einsum("ipk,pjk->ijk", np.fft.rfft(x, axis=2), np.fft.rfft(b, axis=2))
    return np.fft.irfft(zh, n=l, axis=2)


def _rel_close(a, b, rtol=CHECK_RTOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.abs(b).max(initial=0.0)), 1e-300)
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


class Workload:
    """One workload: `setup` writes inputs, `commands` lists the CLI calls."""

    name = ""
    threads = 1
    # Calibration kernel whose speed tracks this workload's (run.Calibration).
    calibration = "interp"

    def __init__(self, scale: str, workdir: str, seed: int):
        self.scale = scale
        self.size = SIZES[self.name][scale]
        self.workdir = workdir
        self.seed = int(seed)

    def path(self, name) -> str:
        return os.path.join(self.workdir, name)

    def oracle(self):
        """Reference results computed independently of tlsq, or None."""
        return None


class ExperimentWorkload(Workload):
    """A replicated grid run through `tlsq experiment` or `tlsq compare-mls`."""

    command = ""
    design = ""
    methods: tuple[str, ...] = ()

    def setup(self) -> None:
        s = self.size
        lines = [
            f"n={s['n']}",
            f"p={s['p']}",
            f"l={s['l']}",
            f"design={self.design}",
            "sigma2=9",
            f"replicates={s['replicates']}",
            "taus=" + ",".join(map(str, s["taus"])),
            "methods=" + ",".join(self.methods),
            "mode=unconditional",
            "timing=0",
            f"seed={self.seed}",
        ]
        with open(self.path("config.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def commands(self):
        return [
            (self.command, [self.command, "--config", self.path("config.txt"), "--out", self.path("report.csv")])
        ]

    def expected_cells(self):
        raise NotImplementedError

    def collect(self, results) -> dict:
        """Read the report into {(method, tau): row}; `results` is unused here."""
        with open(self.path("report.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {(r["method"], int(r["tau"])): r for r in rows}

    def counts(self, outputs) -> dict:
        sketches = sum(int(r["replicates"]) + int(r["failures"]) for r in outputs.values())
        failed = sum(int(r["failures"]) for r in outputs.values())
        return {"estimates": sketches - failed, "sketches": sketches, "failed_sketches": failed}

    def values(self, outputs) -> dict:
        """Flat {key: value} of the outputs compared with the recorded reference.

        mean_ms is excluded: it is NaN with timing=0 and a wall time in compare-mls.
        """
        out = {}
        for (method, tau), row in sorted(outputs.items()):
            for col in REPORT_COLUMNS + ("replicates", "failures"):
                out[f"report.{method}.{tau}.{col}"] = float(row[col])
        return out

    def check(self, outputs, oracle) -> list[str]:
        problems = []
        cells = set(outputs)
        expected = set(self.expected_cells())
        if cells != expected:
            return [f"report cells {sorted(cells)} != expected {sorted(expected)}"]
        for (method, tau), row in sorted(outputs.items()):
            where = f"{method} tau={tau}"
            if int(row["replicates"]) + int(row["failures"]) != self.size["replicates"]:
                problems.append(f"{where}: replicates + failures != {self.size['replicates']}")
            vals = {c: float(row[c]) for c in REPORT_COLUMNS}
            if not all(math.isfinite(v) and v >= 0.0 for v in vals.values()):
                problems.append(f"{where}: metrics not finite and nonnegative: {vals}")
                continue
            # Bias-variance identity: mean ||b - b0||^2 = ||mean b - b0||^2 + mean ||b - mean b||^2.
            if not _rel_close(vals["ssb"] + vals["sv"], vals["smse"]):
                problems.append(f"{where}: smse {vals['smse']} != ssb + sv {vals['ssb'] + vals['sv']}")
        return problems


class ReplicateT1(ExperimentWorkload):
    """The paper's heavy-tail grid: 300 subsampled solves per pass, mostly in `solver`."""

    name = "replicate_t1"
    command = "experiment"
    design = "t1"
    methods = ("unif", "lev", "slev", "opt")

    def expected_cells(self):
        return [(m, t) for m in self.methods for t in self.size["taus"]]


class CompareMls2T(ExperimentWorkload):
    """Tensor solver vs the flattened matrix baseline on two replicate threads.

    The experiments driver dominates, and this is the only workload where the
    replicate thread pool pays off.
    """

    name = "compare_mls_2t"
    threads = 2
    calibration = "lapack_2t"
    command = "compare-mls"
    design = "mn"
    methods = ("unif", "lev")

    def expected_cells(self):
        cells = []
        for kind in self.methods:
            for tau in self.size["taus"]:
                cells += [(f"stls-{kind}", tau), (f"smls-{kind}-tau", tau), (f"smls-{kind}-ltau", tau)]
        return cells


class CliLarge(Workload):
    """One large t3 design solved, sampled and diagnosed by nine separate commands.

    Each command re-reads the 51 MB file and rebuilds its distribution, so
    file I/O, the t-SVD and stats dominate and the replicate driver is bypassed.
    """

    name = "cli_large"
    calibration = "array"
    solve_methods = ("ols", "unif", "lev", "slev", "opt")
    variance_methods = ("unif", "lev", "opt")
    sigma2 = 9.0

    def setup(self) -> None:
        s = self.size
        rng = np.random.default_rng([self.seed, 0])
        x = t3_design(rng, s["n"], s["p"], s["l"])
        noise = rng.normal(0.0, math.sqrt(self.sigma2), size=(s["n"], 1, s["l"]))
        y = t_product(x, coefficients(s["p"], s["l"])) + noise
        write_tt(x, self.path("x.tt"))
        write_tt(y, self.path("y.tt"))
        # File-cache fill: the first timed command should not pay for a cold read.
        for name in ("x.tt", "y.tt"):
            with open(self.path(name), "rb") as fh:
                while fh.read(1 << 24):
                    pass

    def plan_seed(self, index) -> int:
        return self.seed * 16 + index

    def commands(self):
        x, y = self.path("x.tt"), self.path("y.tt")
        tau = str(self.size["tau"])
        cmds = []
        for i, m in enumerate(self.solve_methods):
            argv = ["solve", "--design", x, "--response", y, "--method", m, "--out", self.path(f"b_{m}.tt")]
            if m != "ols":
                argv += ["--tau", tau, "--seed", str(self.plan_seed(i))]
            cmds.append((f"solve-{m}", argv))
        cmds.append(("probs-opt", ["probs", "--design", x, "--method", "opt"]))
        for m in self.variance_methods:
            cmds.append(
                (f"variance-{m}", ["variance", "--design", x, "--response", y, "--method", m,
                                   "--tau", tau, "--sigma2", repr(self.sigma2)])
            )
        return cmds

    def collect(self, results) -> dict:
        """Parse stdout of each command; `results` maps label -> stdout text."""
        out = {}
        for m in self.solve_methods:
            rec = results[f"solve-{m}"].strip().split(",")
            b = read_tt(self.path(f"b_{m}.tt"))
            out[f"solve-{m}"] = {"objective": float(rec[2]), "b": np.array(b)}
        rows = list(csv.reader(io.StringIO(results["probs-opt"])))
        if rows[0] != ["index", "prob"]:
            raise ValueError(f"unexpected probs header {rows[0]}")
        out["probs-opt"] = np.array([float(r[1]) for r in rows[1:]])
        for m in self.variance_methods:
            lines = results[f"variance-{m}"].strip().splitlines()
            rec = dict(zip(lines[0].split(","), lines[1].split(",")))
            out[f"variance-{m}"] = {
                "trace_conditional": float(rec["trace_conditional_fo"]),
                "trace_unconditional": float(rec["trace_unconditional_fo"]),
            }
        return out

    def counts(self, outputs) -> dict:
        return {"estimates": len(self.solve_methods) - 1, "sketches": 0, "failed_sketches": 0}

    def values(self, outputs) -> dict:
        out = {}
        for m in self.solve_methods:
            rec = outputs[f"solve-{m}"]
            out[f"solve.{m}.objective"] = rec["objective"]
            out[f"solve.{m}.b_sum"] = float(rec["b"].sum())
            out[f"solve.{m}.b_sumsq"] = float((rec["b"] ** 2).sum())
        probs = outputs["probs-opt"]
        out["probs.opt.sumsq"] = float((probs**2).sum())
        out["probs.opt.max"] = float(probs.max())
        step = max(1, probs.size // 64)
        for i in range(0, probs.size, step):
            out[f"probs.opt.p{i}"] = float(probs[i])
        for m in self.variance_methods:
            for key, val in outputs[f"variance-{m}"].items():
                out[f"variance.{m}.{key}"] = val
        return out

    def oracle(self) -> dict:
        """Exact solution, optimal probabilities and OLS variance trace from numpy."""
        x, y = read_tt(self.path("x.tt")), read_tt(self.path("y.tt"))
        n, p, l = x.shape
        w = _half_spectrum_weights(l)
        xh, yh = np.fft.rfft(x, axis=2), np.fft.rfft(y, axis=2)
        bh = np.empty((p, 1, xh.shape[2]), dtype=complex)
        radicand = np.zeros(n)
        gram_trace = 0.0
        objective = 0.0
        for k in range(xh.shape[2]):
            u, s, vt = np.linalg.svd(xh[:, :, k], full_matrices=False)
            bh[:, :, k] = vt.conj().T @ ((u.conj().T @ yh[:, :, k]) / s[:, None])
            resid = yh[:, :, k] - xh[:, :, k] @ bh[:, :, k]
            objective += w[k] * float((np.abs(resid) ** 2).sum()) / l
            row_u = (np.abs(u) ** 2).sum(axis=1)
            row_x = (np.abs(xh[:, :, k]) ** 2).sum(axis=1)
            radicand += w[k] * (1.0 - row_u) * row_x / l
            gram_trace += w[k] * float((1.0 / s**2).sum()) / l
        weights = np.sqrt(np.maximum(radicand, 0.0))
        return {
            "b_ols": np.fft.irfft(bh, n=l, axis=2),
            "objective_ols": objective,
            "probs_opt": weights / weights.sum(),
            "ols_variance_trace": self.sigma2 * gram_trace,
        }

    def check(self, outputs, oracle) -> list[str]:
        problems = []
        ols = outputs["solve-ols"]
        if not _rel_close(ols["objective"], oracle["objective_ols"]):
            problems.append(f"ols objective {ols['objective']} != oracle {oracle['objective_ols']}")
        if not _rel_close(ols["b"], oracle["b_ols"]):
            problems.append("ols solution differs from the oracle")
        for m in self.solve_methods[1:]:
            obj = outputs[f"solve-{m}"]["objective"]
            # The exact solution minimises the objective.
            if not obj >= ols["objective"] * (1.0 - CHECK_RTOL):
                problems.append(f"{m} objective {obj} below the exact minimum {ols['objective']}")
        probs = outputs["probs-opt"]
        if probs.shape != (self.size["n"],) or (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
            problems.append("opt probabilities are not a distribution over the n rows")
        elif not _rel_close(probs, oracle["probs_opt"]):
            problems.append("opt probabilities differ from the oracle")
        for m in self.variance_methods:
            rec = outputs[f"variance-{m}"]
            if not rec["trace_conditional"] > 0.0:
                problems.append(f"{m} conditional trace {rec['trace_conditional']} not positive")
            # Unconditional = OLS covariance + a positive semidefinite sampling penalty.
            if not rec["trace_unconditional"] >= oracle["ols_variance_trace"] * (1.0 - CHECK_RTOL):
                problems.append(
                    f"{m} unconditional trace {rec['trace_unconditional']} below the OLS "
                    f"variance trace {oracle['ols_variance_trace']}"
                )
        return problems


WORKLOADS = {w.name: w for w in (ReplicateT1, CompareMls2T, CliLarge)}

"""Synthetic benchmark harness for the subsampled tensor least-squares solvers.

Designs are drawn with i.i.d. rows per frontal slice from a multivariate
normal (mean one, AR-style covariance 2 * 0.5^|i-j|) or from multivariate t
families with 3 or 1 degrees of freedom sharing the same scale matrix; the
t families produce increasingly nonuniform leverage scores. Responses follow
the linear model with Gaussian noise around a fixed coefficient pattern.

Replicates are embarrassingly parallel and every random stream is derived
from the master seed plus structural indices, so reports are byte-identical
for any thread count. Two replicate modes exist: "conditional" fixes the
response and re-randomizes only the sampling plans; "unconditional" redraws
the noise each replicate as well.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .sampling import (
    SamplingDistribution,
    _draw_compressed,
    _require_seed,
    leverage_probs,
    optimal_probs,
    shrinked_leverage_probs,
    uniform_probs,
)
from .solver import TlsProblem, _as_design, _exact_solutions, _factor_sketches
from .solver import _finish_sketches, _on_design, _r_objectives, _solve_factored, _tall_r
from .tensor import _to_half, as_tensor

DESIGN_KINDS = ("mn", "t3", "t1")
METHOD_KINDS = ("unif", "lev", "slev", "opt")
# The methods the flattened matrix baseline runs (smls and compare-mls).
MATRIX_KINDS = ("unif", "lev")
SMLS_MODES = ("off", "same_tau", "l_times_tau")
REPLICATE_MODES = ("unconditional", "conditional")

# Stream labels for deriving independent RNG states from the master seed.
_STREAM_DESIGN = 0
_STREAM_RESPONSE = 1
_STREAM_PLAN = 2
_STREAM_SMLS = 3

# The replicates run in ceil(R / _REPLICATE_CHUNK) near-equal chunks, one
# pool task each, so at most that many threads work at once. A chunk fits its
# responses on one design by one factorization of [X | Y], factors each
# tensor cell as one batch of one plan per replicate, in a TSQR buffer that
# solver._tall_r sizes for that batch and frees, and finishes all its tensor
# cells' R factors in one stack. The chunk bounds the memory its problems and
# stacks take; it returns numbers only, so a worker holds one chunk's
# problems at a time. It depends on R alone, so reports do not depend on the
# thread count.
_REPLICATE_CHUNK = 8

# A chunk's matrix cells of one sketch size are factored as one batch through a
# real TSQR buffer of this many rows, or 2 (p*l + 1) if more (solver._tall_r).
# Each step refactors the R it carries in its top p*l + 1 rows, so a taller
# buffer takes fewer steps but holds more, B (p*l + 1) floats a row. At desk
# size (p*l + 1 = 61, B = 14) 384 rows make 5 steps of an l*tau batch where
# 256 made 8, and a 2.6 MB buffer where 256 held 1.75 MB: compare_mls_2t ran
# 5.8% faster for 1.8 MB more peak RSS (BENCH_carried_r.json); a prototype at
# 512 rows read 6.5% faster for 3.6 MB more.
_MATRIX_BLOCK_ROWS = 384

_EPS = np.finfo(np.float64).eps
# An exact solution whose objective is at most this multiple of
# eps^2 * ||Y||_F^2 fits the response perfectly (see compute_metrics).
_PERFECT_FIT_FACTOR = 1e4


class ConfigError(ValueError):
    """A config file has an unknown key or an invalid value."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark configuration; see the module docstring for semantics."""

    seed: int
    n: int = 1000
    p: int = 10
    l: int = 6
    design: str = "mn"
    sigma2: float = 9.0
    replicates: int = 200
    taus: tuple[int, ...] = (150, 300, 600)
    methods: tuple[str, ...] = METHOD_KINDS
    alpha: float = 0.9
    smls: str = "off"
    mode: str = "unconditional"
    redraw_design: bool = False
    # Wall-clock timing makes the mean_ms column non-reproducible, so reports
    # are byte-identical functions of (config, seed) only when it stays off.
    timing: bool = False

    def __post_init__(self):
        for name in ("seed", "n", "p", "l", "replicates"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        object.__setattr__(self, "taus", tuple(_integral("taus", t) for t in self.taus))
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        choices = {"design": DESIGN_KINDS, "smls": SMLS_MODES, "mode": REPLICATE_MODES}
        for name, allowed in choices.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        if self.p < 4:
            raise ConfigError(f"the coefficient pattern needs p >= 4, got p={self.p}")
        if self.n < self.p:
            raise ConfigError(f"the design must have n >= p, got n={self.n} and p={self.p}")
        if self.l < 1:
            raise ConfigError(f"the tubes need l >= 1, got l={self.l}")
        if not 0.0 <= self.sigma2 < math.inf:
            raise ConfigError(f"sigma2 must be finite and nonnegative, got {self.sigma2}")
        if self.replicates < 2:
            raise ConfigError("replicates must be at least 2")
        if not self.taus:
            raise ConfigError("at least one tau is required")
        if any(t < self.p for t in self.taus):
            raise ConfigError(f"every tau must be >= p={self.p}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        bad = [m for m in self.methods if m not in METHOD_KINDS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; choose from {METHOD_KINDS}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "methods", tuple(self.methods))
        for name, values in (("methods", self.methods), ("taus", self.taus)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"{name} lists {value!r} more than once")


def _integral(name: str, value) -> int:
    """`value` as an int; a float is accepted only when it is integral, such as 20.0."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass
class MetricsRow:
    """Aggregate metrics for one (method, tau) cell of a report."""

    method: str
    tau: int
    smrfv: float
    smre: float
    ssb: float
    sv: float
    smse: float
    mean_ms: float
    replicates: int
    failures: int


REPORT_HEADER = tuple(f.name for f in fields(MetricsRow))
# Each report column's format spec, by its declared type: 17 significant
# digits for a float column, so a numpy scalar prints like a Python float.
_REPORT_SPECS = {f.name: ".17g" if f.type == "float" else "" for f in fields(MetricsRow)}


def _rng(master_seed, *key) -> np.random.Generator:
    """np.random.default_rng(np.random.SeedSequence([master_seed, *key])), bit for bit.

    SeedSequence coerces a list of ints to each value's little-endian 32-bit
    words, one zero word for 0, and hashes those. The words are built here
    and handed over as one uint32 array, which skips numpy's coercion of the
    list, half the cost of a stream; a negative value raises OverflowError.
    """
    words = []
    for value in map(int, (master_seed, *key)):
        while value > 0xFFFFFFFF:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
        words.append(value)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, np.uint32))))


def covariance_matrix(p: int) -> np.ndarray:
    """The benchmark row covariance: entry (i, j) is 2 * 0.5^|i-j|."""
    idx = np.arange(p)
    return 2.0 * 0.5 ** np.abs(idx[:, None] - idx[None, :])


def gen_design(kind: str, n: int, p: int, l: int, seed) -> np.ndarray:
    """Draw a design whose n*l rows are i.i.d. from the chosen family.

    "mn" is normal with mean one; "t3" and "t1" are multivariate t with 3 and
    1 degrees of freedom (location zero), built as a correlated normal draw
    divided by an independent sqrt(chi2_nu / nu) per row. A seed is required.
    """
    _require_seed("gen_design", seed)
    if kind not in DESIGN_KINDS:
        raise ValueError(f"unknown design kind {kind!r}")
    if p < 2:
        raise ValueError("designs need p >= 2")
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(covariance_matrix(p))
    z = np.einsum("npk,qp->nqk", rng.standard_normal((n, p, l)), chol)
    if kind == "mn":
        return z + 1.0
    nu = 3.0 if kind == "t3" else 1.0
    denom = np.sqrt(rng.chisquare(nu, size=(n, l)) / nu)
    return z / denom[:, None, :]


def true_coefficients(p: int, l: int) -> np.ndarray:
    """The ground-truth tensor: every frontal slice is (1, 1, 0.1...0.1, 1, 1)."""
    if p < 4:
        raise ValueError("the coefficient pattern needs p >= 4")
    v = np.concatenate([[1.0, 1.0], np.full(p - 4, 0.1), [1.0, 1.0]])
    return np.repeat(v[:, None, None], l, axis=2)


def gen_response(x, seed, sigma2: float = 9.0) -> tuple[np.ndarray, np.ndarray]:
    """Response under the linear model: Y = X * B0 + noise, noise i.i.d. N(0, sigma2).

    Every tube of B0 is constant, v_j at each position, so the signal has a
    closed form: row i of X * B0 is sum_j v_j sum_k x_ij(k) at every position.
    A seed is required.
    """
    _require_seed("gen_response", seed)
    x = as_tensor(x, "design")
    _, p, l = x.shape
    if not 0.0 <= sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and nonnegative, got {sigma2}")
    return _add_noise(_signal(x), seed, sigma2), true_coefficients(p, l)


def _signal(x) -> np.ndarray:
    """X * B0 in closed form (see gen_response), shared by gen_response and the replicate driver."""
    _, p, l = x.shape
    v = true_coefficients(p, 1)[:, 0, 0]
    return np.repeat((x.sum(axis=2) @ v)[:, None, None], l, axis=2)


def _add_noise(signal, seed, sigma2: float) -> np.ndarray:
    """`signal` plus i.i.d. N(0, sigma2) entries drawn from `seed`; `signal` itself at sigma2 = 0."""
    if sigma2 == 0:
        return signal
    rng = np.random.default_rng(seed)
    return signal + rng.normal(0.0, math.sqrt(sigma2), size=signal.shape)


def compute_metrics(
    estimates,
    exact,
    truth,
    energies,
    *,
    objectives,
    exact_objectives,
    method: str = "",
    tau: int = 0,
    wall_times=(),
    failures: int = 0,
) -> MetricsRow:
    """Aggregate one cell's replicate estimates into the five metrics.

    Entry j of every sequence belongs to replicate j: `estimates[j]` and
    `exact[j]` are its estimate and exact solution, `energies[j]` its
    response energy ||Y||_F^2, and `objectives[j]` and `exact_objectives[j]`
    the residual objectives of the two on its problem. The solutions stack
    to (R, p, 1, l) arrays, and `truth` is (p, 1, l). With fewer than two
    estimates the metrics are NaN and the row keeps its counts. When an
    exact solution fits its data perfectly the relative function value is
    undefined and SMRFV is NaN. A fit counts as perfect when its objective
    is at most _PERFECT_FIT_FACTOR * eps^2 * ||Y||_F^2, i.e. its residual
    norm is at most 100 * eps * ||Y||_F: the rounding noise a consistent
    system leaves, which is not an exact zero. The replicate driver calls
    this once per cell.
    """
    truth = as_tensor(truth, "truth")
    stack, ols, f_est, f_ols, y_energy = (
        np.asarray(a, dtype=np.float64)
        for a in (estimates, exact, objectives, exact_objectives, energies)
    )
    count = len(stack)
    if stack.shape != (count, *truth.shape) or ols.shape != stack.shape:
        raise ValueError(f"estimates {stack.shape} and exact {ols.shape} must stack to (R, p, 1, l)")
    if any(a.shape != (count,) for a in (f_est, f_ols, y_energy)):
        raise ValueError(f"energies and objectives must have one entry per estimate ({count})")
    if not all(np.isfinite(a).all() for a in (stack, ols, f_est, f_ols)):
        raise ValueError("estimates, exact solutions and objectives must be finite")
    mean_ms = float(np.mean(wall_times)) if len(wall_times) else math.nan
    row = MetricsRow(method, int(tau), *[math.nan] * 5, mean_ms, count, int(failures))
    if count < 2:
        return row
    if not (f_ols <= _PERFECT_FIT_FACTOR * _EPS**2 * y_energy).any():
        row.smrfv = float((np.abs(f_est - f_ols) / f_ols).mean())
    denom = (ols**2).sum(axis=(1, 2, 3))
    rel_e = np.full(count, np.nan)
    np.divide(((stack - ols) ** 2).sum(axis=(1, 2, 3)), denom, out=rel_e, where=denom != 0)
    row.smre = float(rel_e.mean())
    mean_est = stack.mean(axis=0)
    row.ssb = float(((mean_est - truth) ** 2).sum())
    row.sv = float(((stack - mean_est) ** 2).sum(axis=(1, 2, 3)).mean())
    row.smse = float(((stack - truth) ** 2).sum(axis=(1, 2, 3)).mean())
    return row


def build_distribution(x, method: str, alpha: float = 0.9) -> SamplingDistribution:
    """Construct one of the four named distributions for a TlsProblem or a design tensor.

    A problem's _Design is reused; a design tensor is validated and factored
    once, also for the uniform distribution, so every method rejects a
    design that TlsProblem would reject.
    """
    if method == "unif":
        return uniform_probs(_as_design(x).shape[0])
    if method == "lev":
        return leverage_probs(x)
    if method == "slev":
        return shrinked_leverage_probs(x, alpha)
    if method == "opt":
        return optimal_probs(x)
    raise ValueError(f"unknown method {method!r}")


def _cell_distribution(prob: TlsProblem, kind: str, matrix: bool, alpha: float):
    """Distribution `kind` of a report cell: over the problem's n rows, or its n*l matrix rows.

    A tensor cell's is build_distribution's. A matrix cell samples the rows
    of the problem's flattened block-circulant system, unif or lev
    (MATRIX_KINDS). The unitary DFT block-diagonalises bcirc(X) (Kilmer &
    Martin 2011), so row (r, i) of bcirc(X) has the tensor's slice-averaged
    leverage h_i in every block row r: `lev` tiles the problem's leverage l
    times, with no SVD of the embedding.
    """
    if not matrix:
        return build_distribution(prob, kind, alpha)
    n, _, l = prob.shape
    if kind == "unif":
        return uniform_probs(n * l)
    lev = leverage_probs(prob)
    return replace(lev, probs=np.tile(lev.probs / l, l), leverage=np.tile(lev.leverage, l))


def _solve_matrix_sketches(problems, plans):
    """Solve the matrix-baseline sketches of cell batches of one size, plan j on problems[j].

    `plans` holds the batches' plans compressed over the n*l rows, as
    _draw_compressed returns them (taus, picked, scale), and their plans
    are taken in order, so `problems` holds one entry per plan of them all.
    A plan's unique rows are rows (r, i) = divmod(row, n) of the problem's
    bcirc(X), gathered from its design's view of them (bcirc_rows), and of
    its unfolded response, gathered as response[i, :, r], each scaled by
    its scale. The baseline's l = 1 system [A | y] is solved as a tensor sketch
    is, from its R factor. All plans are factored together by the solver's
    sequential TSQR (_tall_r) through one real buffer (B, 1, p*l + 1, H),
    H = max(_MATRIX_BLOCK_ROWS, 2 (p*l + 1)) rows, or fewer for a shorter
    batch; each step keeps the previous R in place in the top p*l + 1 rows
    and gathers the plans' next rows below it, and a plan with fewer rows
    than a step is zero-filled. R is copied out once and the buffer freed
    before the solve. _solve_factored then checks the rank at the
    cutoff eps * max(tau, p*l), lstsq's default on the uncompressed tau-row
    sketch, and solves. Returns _solve_sketches' stacks (ok, bs, objectives,
    errors), where a plan loses its rank when its sketch's rank is below
    p*l. The solutions are spatial, so the kept ones are transformed forward
    once, together (_to_half), and one _r_objectives call reads their
    objectives.
    """
    n, p, l = problems[0].shape
    drawn = [(pk, sc) for _, picked, scale in plans for pk, sc in zip(picked, scale)]

    def gather(m, start, stop):
        for j, (pb, (picked, scale)) in enumerate(zip(problems, drawn)):
            (block_row, i), w = np.divmod(picked[start:stop], n), scale[start:stop]
            np.multiply(pb._design.bcirc_rows[i, block_row].T, w, out=m[j, 0, : w.size, :-1].T)
            np.multiply(pb.response[i, 0, block_row], w, out=m[j, 0, : w.size, -1])
            m[j, 0, w.size :] = 0.0

    total = max(plan[1].shape[1] for plan in plans)
    r = _tall_r(gather, (len(problems), 1, p * l + 1), total, _MATRIX_BLOCK_ROWS, dtype=float)
    taus = np.concatenate([plan[0] for plan in plans])
    ok, sol, errors = _solve_factored(r, p * l, taus, 1)
    bs = sol.reshape(-1, l, p, 1).transpose(0, 2, 3, 1)  # fold each solution
    bhalf = _to_half(bs.reshape(-1, 1, l)).reshape(l // 2 + 1, -1, p, 1).swapaxes(0, 1)
    kept = [pb for pb, keep in zip(problems, ok) if keep]
    return ok, bs, _r_objectives(kept, bhalf), errors


def _map_chunks(worker, chunks):
    """[worker(chunk) for chunk in chunks], run on a pool of TLSQ_THREADS threads (default 1)."""
    raw = os.environ.get("TLSQ_THREADS", "").strip() or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"TLSQ_THREADS must be a positive integer, got {raw!r}")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, chunks))


@dataclass
class _ReplicateState:
    prob: TlsProblem  # carries the response of its design's first replicate (_prepare_state)
    signal: np.ndarray  # X * B0 of the design, which every replicate's response adds noise to
    dists: dict  # (kind, matrix) -> _cell_distribution, for every cell


def _aggregate(parts, cells, truth) -> list[MetricsRow]:
    """One MetricsRow per cell from the chunks' outputs, sorted by method and tau.

    Each part is one chunk's (response energies ||Y||_F^2, exact solutions,
    exact objectives, batches), in replicate order, where batches[c] is cell
    c's (ok, bs, objectives, wall times): the stacks its solver returned and
    each replicate's share of the chunk's wall time. A part holds numbers
    only, no problem, so a finished chunk's problems are freed at once. A
    cell's stacks are concatenated over the chunks, its plans that lost
    rank are counted as failures and masked out, and one compute_metrics
    call aggregates the rest.
    """
    energies, exact, exact_objectives = map(np.concatenate, zip(*(part[:3] for part in parts)))
    rows = []
    for c, cell in enumerate(cells):
        ok, bs, objectives, wall_times = map(np.concatenate, zip(*(part[3][c] for part in parts)))
        rows.append(compute_metrics(bs, exact[ok], truth, energies[ok], objectives=objectives,
                                    exact_objectives=exact_objectives[ok], method=cell.label,
                                    tau=cell.tau, wall_times=wall_times, failures=(~ok).sum()))
    return sorted(rows, key=lambda r: (r.method, r.tau))


@dataclass(frozen=True)
class _Cell:
    """One report cell: per replicate b, `draws` rows from distribution `kind`.

    The plan's random stream is (seed, stream, b, *index). A matrix cell is
    solved on the flattened block-circulant system, its rows read from the
    design (_Design.bcirc_rows), every other cell by the tensor solver.
    """

    label: str
    tau: int
    kind: str
    draws: int
    stream: int
    index: tuple[int, int]
    matrix: bool = False


def _run_cells(cfg: ExperimentConfig, cells) -> list[MetricsRow]:
    """Run every cell in every replicate and aggregate one MetricsRow per cell.

    The cells are the run's only description: each design state builds the
    distributions they name (_prepare_state). The design is drawn once and
    shared, or per replicate under `redraw_design`. The pool maps
    near-equal chunks of the replicates (_REPLICATE_CHUNK), so at most
    ceil(R / 8) tasks run at once. A chunk takes its replicates' problems,
    each redrawn design's own problem or the shared design's
    _replicate_problems, and reads their exact solutions and objectives in
    one _exact_solutions call. It draws each cell's plans, one per
    replicate and each from its own stream key, in one _draw_compressed
    call, which sorts each plan's uniforms and so draws it already
    compressed to its unique rows, with no sort of the (plan, row) keys.
    The tensor cells run first. Once their plans are drawn, each tensor
    cell factors its plans as one batch (_factor_sketches) by the solver's
    sequential TSQR, in place in a buffer that _tall_r sizes for that batch
    and frees on return; their R factors make the chunk's one stack. The
    plans are dropped, and one _finish_sketches call solves the whole
    stack; its stacks (ok, bs, objectives, errors) are split back per cell.
    Then the matrix cells of each sketch size (`draws`) draw their plans
    cell by cell and solve them as one batch by _solve_matrix_sketches. A
    tau's unif and lev baselines are one batch, so each of its QR calls
    factors twice a cell's plans. With `timing` on, a cell's wall time in a
    replicate is an equal share of its draw and of its solve, where a
    tensor cell's solve is its factorization and an equal share of the
    chunk's finish, and a matrix cell's an equal share of its batch's
    solve; otherwise it is NaN.
    A chunk returns numbers only: its problems' response energies, their
    exact solutions and objectives, and each cell's stacks, which _aggregate
    concatenates into the rows. So a worker holds at most one chunk's
    problems.
    """
    clock = time.perf_counter if cfg.timing else lambda: math.nan
    base = None if cfg.redraw_design else _prepare_state(cfg, cells, _STREAM_DESIGN)
    tensor, matrix = ([c for c, cell in enumerate(cells) if cell.matrix == m] for m in (False, True))

    def worker(chunk):
        if base is None:
            states = [_prepare_state(cfg, cells, _STREAM_DESIGN, b) for b in chunk]
            problems = [state.prob for state in states]
        else:
            states = [base] * len(chunk)
            problems = _replicate_problems(cfg, base, chunk)

        def draw(cell):
            rngs = [_rng(cfg.seed, cell.stream, b, *cell.index) for b in chunk]
            dists = [s.dists[cell.kind, cell.matrix] for s in states]
            system_rows = cfg.n * cfg.l if cell.matrix else cfg.n
            return _draw_compressed(dists, cell.draws, rngs, system_rows, cfg.p)

        def timed(c, step, *args):  # step(*args), its wall time added to cell c's
            start = clock()
            out = step(*args)
            seconds[c] += clock() - start
            return out

        def settle(group, start, ok, bs, objectives, _):  # a joint batch's stacks, split per cell
            share = (clock() - start) / len(group)
            oks = ok.reshape(len(group), size)
            cuts = np.cumsum(oks.sum(axis=1))[:-1]
            for c, *batch in zip(group, oks, np.split(bs, cuts), np.split(objectives, cuts)):
                batches[c], seconds[c] = batch, seconds[c] + share

        size, batches, seconds = len(chunk), [None] * len(cells), [0.0] * len(cells)
        plans = [timed(c, draw, cells[c]) for c in tensor]
        r = np.concatenate([timed(c, _factor_sketches, problems, *plan[1:])
                            for c, plan in zip(tensor, plans)])
        taus = np.concatenate([plan[0] for plan in plans])
        del plans  # the matrix cells run without them
        # Arguments are evaluated in order, so each clock() reads before its solve.
        settle(tensor, clock(), *_finish_sketches(problems * len(tensor), r, taus))
        for draws in dict.fromkeys(cells[c].draws for c in matrix):  # one batch per sketch size
            group = [c for c in matrix if cells[c].draws == draws]
            plans = [timed(c, draw, cells[c]) for c in group]
            settle(group, clock(), *_solve_matrix_sketches(problems * len(group), plans))
        energies = [float(np.vdot(pb.response, pb.response)) for pb in problems]
        out = [(*batch[:3], np.full(size, t * 1e3 / size)) for batch, t in zip(batches, seconds)]
        return (energies, *_exact_solutions(problems), out)

    chunks = np.array_split(np.arange(cfg.replicates), -(-cfg.replicates // _REPLICATE_CHUNK))
    return _aggregate(_map_chunks(worker, chunks), cells, true_coefficients(cfg.p, cfg.l))


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    """Run the replicate grid and aggregate one MetricsRow per (method, tau).

    The design is drawn once per configuration (or per replicate when
    `redraw_design` is set). Replicate b derives every random stream from
    (seed, stream, b, ...), so results do not depend on scheduling. Sketches
    that lose rank are counted in `failures` and excluded from the
    aggregates for their cell; a cell left with fewer than two estimates is
    reported with NaN metrics and its counts. With `timing` off (the
    default) the mean_ms column is NaN and the whole report is a pure
    function of the config. At n = p every row has leverage one in every DFT
    slice, so opt is undefined for every design and ConfigError is raised
    before any work starts.
    """
    if "opt" in cfg.methods and cfg.n == cfg.p:
        raise ConfigError("opt is undefined at n = p: every row has leverage one in every DFT slice")
    cells = [
        _Cell(method, tau, method, tau, _STREAM_PLAN, (mi, ti))
        for mi, method in enumerate(cfg.methods)
        for ti, tau in enumerate(cfg.taus)
    ]
    if cfg.smls != "off":
        factor = cfg.l if cfg.smls == "l_times_tau" else 1
        cells += [
            _Cell(f"smls-{kind}", tau, kind, factor * tau, _STREAM_SMLS, (ki, ti), matrix=True)
            for ki, kind in enumerate(sorted({m for m in cfg.methods if m in MATRIX_KINDS}))
            for ti, tau in enumerate(cfg.taus)
        ]
    return _run_cells(cfg, cells)


def _prepare_state(cfg: ExperimentConfig, cells, stream, *key) -> _ReplicateState:
    """The design drawn from stream (seed, stream, *key), its problem and the cells' distributions.

    Key (b,) draws replicate b's own design under redraw_design, key () the
    shared one. The problem carries the response that the design's first
    replicate reads: replicate b's, or replicate 0's on the shared design,
    whose key is _response_key(cfg, 0). It builds exactly the distributions
    the cells name, one per (kind, matrix), and, when some cell is a matrix
    cell, the design's view of the rows of bcirc(X) (_Design.bcirc_rows) on
    the calling thread. So no two replicate threads build a shared design's
    view, and it is not built in a replicate thread's heap, where it raised
    the peak RSS of a two-thread compare-mls run by about 3.5 MB.
    """
    x = gen_design(cfg.design, cfg.n, cfg.p, cfg.l, _rng(cfg.seed, stream, *key))
    signal = _signal(x)
    prob = TlsProblem(x, _response(cfg, signal, _response_key(cfg, *(key or (0,)))))
    named = dict.fromkeys((cell.kind, cell.matrix) for cell in cells)
    dists = {k: _cell_distribution(prob, *k, cfg.alpha) for k in named}
    if any(cell.matrix for cell in cells):
        prob._design.bcirc_rows  # cached by the design
    return _ReplicateState(prob=prob, signal=signal, dists=dists)


def _response_key(cfg: ExperimentConfig, b) -> tuple:
    """Noise stream key of replicate b: (b,), or () in conditional mode, which shares one response."""
    return () if cfg.mode == "conditional" else (b,)


def _response(cfg: ExperimentConfig, signal, key) -> np.ndarray:
    """`signal` plus noise from stream (seed, response, *key): gen_response's draw on its design."""
    return _add_noise(signal, _rng(cfg.seed, _STREAM_RESPONSE, *key), cfg.sigma2)


def _replicate_problems(cfg: ExperimentConfig, state: _ReplicateState, replicates) -> list:
    """The problem of each listed replicate on the state's design.

    Replicates that share a response key share one problem. The state's
    problem serves replicate 0's key; the responses of the other keys are
    drawn around the state's signal and fitted by one _on_design
    factorization.
    """
    keys, own = [_response_key(cfg, b) for b in replicates], _response_key(cfg, 0)
    fresh = list(dict.fromkeys(k for k in keys if k != own))
    built = {own: state.prob}
    if fresh:
        responses = [_response(cfg, state.signal, k) for k in fresh]
        built.update(zip(fresh, _on_design(state.prob._design, responses)))
    return [built[k] for k in keys]


def run_mls_comparison(cfg: ExperimentConfig) -> list[MetricsRow]:
    """Three-way comparison: tensor solver at tau vs matrix baseline at tau and l*tau.

    Methods named stls-<kind>, smls-<kind>-tau, and smls-<kind>-ltau, where
    kind ranges over the uniform/leverage entries of cfg.methods. All rows
    are keyed by the grid tau; the -ltau rows used l*tau matrix samples.
    The cells name every distribution the run builds, so the config's smls
    is ignored; so is its timing: every cell is timed. The design is
    shared, or redrawn per replicate under `redraw_design`.
    """
    kinds = [m for m in cfg.methods if m in MATRIX_KINDS]
    if not kinds:
        raise ConfigError("the matrix comparison needs unif or lev among the methods")
    cells = []
    for ki, kind in enumerate(kinds):
        for ti, tau in enumerate(cfg.taus):
            cells += [
                _Cell(f"stls-{kind}", tau, kind, tau, _STREAM_PLAN, (ki, ti)),
                _Cell(f"smls-{kind}-tau", tau, kind, tau, _STREAM_SMLS, (ki, ti), True),
                _Cell(f"smls-{kind}-ltau", tau, kind, cfg.l * tau, _STREAM_SMLS + 1, (ki, ti), True),
            ]
    return _run_cells(replace(cfg, timing=True), cells)


def write_report(rows, path) -> None:
    """Write rows as CSV, method lexical then tau ascending, 17 significant digits."""
    ordered = sorted(rows, key=lambda r: (r.method, r.tau))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for r in ordered:
            writer.writerow(format(getattr(r, name), spec) for name, spec in _REPORT_SPECS.items())


def read_report(path) -> list[MetricsRow]:
    """Parse a report written by write_report; floats round-trip exactly.

    Each column is parsed by its MetricsRow field type. An empty file, a
    foreign header, or a row with a missing or an extra column, raises
    ValueError.
    """
    parsers = [_PARSERS[f.type] for f in fields(MetricsRow)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != REPORT_HEADER:
            raise ValueError(f"unexpected report header {header}")
        return [MetricsRow(*(f(v) for f, v in zip(parsers, row, strict=True))) for row in reader]


def _parse_flag(s: str) -> bool:
    if s not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {s!r}")
    return s == "1"


# One parser per declared field type, for config values and report columns.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_flag,
    "tuple[int, ...]": lambda s: tuple(int(v) for v in s.split(",") if v.strip()),
    "tuple[str, ...]": lambda s: tuple(v.strip() for v in s.split(",") if v.strip()),
}
_CONFIG_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config_file(path) -> ExperimentConfig:
    """Parse a flat key=value UTF-8 config file; '#' starts a comment, seed is mandatory.

    A leading byte-order mark, as some editors write one, is skipped.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    if "seed" not in values:
        raise ConfigError(f"{path}: a seed is required; randomness is never wall-clock seeded")
    return ExperimentConfig(**values)

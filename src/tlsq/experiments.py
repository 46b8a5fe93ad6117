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

from .errors import SketchRankDeficient
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
from .solver import _finish_sketches, _on_design, _r_objectives
from .tensor import _rank_cutoff, _to_half, as_tensor, fold

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
# tensor cell as one batch of one plan per replicate from one reused sketch
# workspace and finishes all its tensor cells' R factors in one stack. The
# chunk bounds the memory its problems and stacks take; it returns numbers
# only, so a worker holds one chunk's problems at a time. It depends on R
# alone, so reports do not depend on the thread count.
_REPLICATE_CHUNK = 8

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
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, key)]))


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
    b0 = np.zeros((p, 1, l))
    b0[:, 0, :] = v[:, None]
    return b0


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


def _bcirc_rows(x) -> np.ndarray:
    """The rows of bcirc(x) as a read-only (n, l, p*l) view: entry [i, r] is row r*n + i.

    Row (r, i) of bcirc(x) is x[i, :, (r - c) % l] over the block columns c,
    which is one contiguous p*l window of row i of the tube-reversed design
    laid out twice, tube position before column. So the view reads 2*n*p*l
    floats, not the embedding's n*p*l^2.
    """
    n, p, l = x.shape
    doubled = np.concatenate([x.transpose(0, 2, 1)[:, ::-1]] * 2, axis=1).reshape(n, 2 * l * p)
    return np.lib.stride_tricks.sliding_window_view(doubled, p * l, axis=1)[:, : l * p : p][:, ::-1]


def _solve_matrix_sketches(views, problems, taus, picked, scale, unique):
    """Solve one matrix-baseline sketch per plan, plan j on the flattened system of problems[j].

    The plans come compressed over the n*l rows, as _compress returns them:
    plan j's unique rows picked[j, :unique[j]] are rows (r, i) =
    divmod(row, n) of the problem's bcirc(X), gathered from views[j], its
    _bcirc_rows, and of its unfolded response, gathered as
    response[i, :, r], each scaled by its scale. Each plan is solved by one
    lstsq with the cutoff eps * max(tau, p*l): lstsq's default cutoff on
    the uncompressed tau-row sketch. Returns
    _solve_sketches' stacks (ok, bs, objectives, errors), where a plan
    loses its rank when its sketch's rank is below p*l. lstsq's
    coefficients are spatial, so the kept ones are transformed forward
    once, together (_to_half), and one _r_objectives call reads their
    objectives.
    """
    n, p, l = problems[0].shape
    rconds = _rank_cutoff(taus, p * l)
    bs, errors = np.empty((len(problems), p, 1, l)), [None] * len(problems)
    for j, (view, prob, rcond) in enumerate(zip(views, problems, rconds)):
        (r, i), w = np.divmod(picked[j, : unique[j]], n), scale[j, : unique[j], None]
        sol, _, rank, _ = np.linalg.lstsq(view[i, r] * w, prob.response[i, :, r] * w, rcond=rcond)
        bs[j] = fold(sol, p, l)
        if rank < p * l:
            errors[j] = SketchRankDeficient(f"matrix sketch has rank {rank} < {p * l}")
    ok = np.array([error is None for error in errors])
    bhalf = _to_half(bs[ok].reshape(-1, 1, l)).reshape(l // 2 + 1, -1, p, 1).swapaxes(0, 1)
    kept = [pb for pb, keep in zip(problems, ok) if keep]
    return ok, bs[ok], _r_objectives(kept, bhalf), errors


def _max_workers() -> int:
    raw = os.environ.get("TLSQ_THREADS", "").strip() or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"TLSQ_THREADS must be a positive integer, got {raw!r}")
    return workers


def _map_chunks(worker, chunks):
    workers = _max_workers()
    if workers == 1:
        return [worker(chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, chunks))


@dataclass
class _ReplicateState:
    prob: TlsProblem  # carries the response of its design's first replicate (_prepare_state)
    dists: dict  # (kind, matrix) -> _cell_distribution, for every cell
    rows: np.ndarray | None  # _bcirc_rows of the design when some cell is a matrix cell


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
    design (_bcirc_rows), every other cell by the tensor solver.
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
    The tensor cells run first. Once their plans are drawn, the chunk takes
    one flat complex workspace sized for the tallest of their batches, and
    each tensor cell factors its plans as one batch (_factor_sketches) from
    a (B, l//2 + 1, p + 1, rows) view of it, column-major per slice, into
    the chunk's one stack of R factors. The workspace is dropped, and one
    _finish_sketches call solves the whole stack; its stacks (ok, bs,
    objectives, errors) are split back per cell. Then each matrix cell
    solves its plans as one batch by _solve_matrix_sketches, so the
    workspace is never held beside the baseline's sketches. With `timing`
    on, a cell's wall time in a replicate is an equal share of its batch's
    draw and solve, where a tensor cell's solve is its factorization and an
    equal share of the chunk's finish; otherwise it is NaN. A chunk returns
    numbers only: its problems' response energies, their exact solutions
    and objectives, and each cell's stacks, which _aggregate concatenates
    into the rows. So a worker holds at most one chunk's problems.
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

        size, batches, seconds = len(chunk), [None] * len(cells), [0.0] * len(cells)
        r = np.empty((len(tensor), size, cfg.l // 2 + 1, cfg.p + 1, cfg.p + 1), dtype=np.complex128)
        plans = [timed(c, draw, cells[c]) for c in tensor]
        work = np.empty(r[0, 0, ..., 0].size * max(plan[1].size for plan in plans), np.complex128)
        for k, (c, plan) in enumerate(zip(tensor, plans)):
            r[k] = timed(c, _factor_sketches, problems, *plan[:3], work)[1]
        taus, r = np.concatenate([plan[0] for plan in plans]), r.reshape(-1, *r.shape[2:])
        del work, plans  # the matrix cells run without them
        start = clock()  # every run has a tensor cell
        ok, bs, objectives, _ = _finish_sketches(problems * len(tensor), r, taus)
        share = (clock() - start) / len(tensor)
        oks = ok.reshape(len(tensor), size)
        cuts = np.cumsum(oks.sum(axis=1))[:-1]
        for c, *batch in zip(tensor, oks, np.split(bs, cuts), np.split(objectives, cuts)):
            batches[c], seconds[c] = batch, seconds[c] + share
        for c in matrix:
            plan = timed(c, draw, cells[c])
            batches[c] = timed(c, _solve_matrix_sketches, [s.rows for s in states], problems, *plan)
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
    the cells name, one per (kind, matrix), and the design's _bcirc_rows
    only when some cell is a matrix cell.
    """
    x = gen_design(cfg.design, cfg.n, cfg.p, cfg.l, _rng(cfg.seed, stream, *key))
    prob = TlsProblem(x, _response(cfg, _signal(x), _response_key(cfg, *(key or (0,)))))
    named = dict.fromkeys((cell.kind, cell.matrix) for cell in cells)
    dists = {k: _cell_distribution(prob, *k, cfg.alpha) for k in named}
    rows = _bcirc_rows(x) if any(cell.matrix for cell in cells) else None
    return _ReplicateState(prob=prob, dists=dists, rows=rows)


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
    drawn and fitted by one _on_design factorization.
    """
    keys, own = [_response_key(cfg, b) for b in replicates], _response_key(cfg, 0)
    fresh = list(dict.fromkeys(k for k in keys if k != own))
    built = {own: state.prob}
    if fresh:
        signal = _signal(state.prob.design)
        responses = [_response(cfg, signal, k) for k in fresh]
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

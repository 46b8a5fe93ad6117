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
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SketchRankDeficient
from .sampling import (
    SamplingDistribution,
    draw_plan,
    leverage_probs,
    optimal_probs,
    shrinked_leverage_probs,
    uniform_probs,
)
from .solver import TlsProblem, _exact_solutions, _on_design, _solve_sketches, objective
from .solver import validate_design
from .tensor import BCIRC_MAX_ENTRIES, as_tensor, bcirc, fold, unfold

DESIGN_KINDS = ("mn", "t3", "t1")
METHOD_KINDS = ("unif", "lev", "slev", "opt")
SMLS_MODES = ("off", "same_tau", "l_times_tau")
REPLICATE_MODES = ("unconditional", "conditional")

REPORT_HEADER = (
    "method",
    "tau",
    "smrfv",
    "smre",
    "ssb",
    "sv",
    "smse",
    "mean_ms",
    "replicates",
    "failures",
)

# Stream labels for deriving independent RNG states from the master seed.
_STREAM_DESIGN = 0
_STREAM_RESPONSE = 1
_STREAM_PLAN = 2
_STREAM_SMLS = 3

# The replicates run in ceil(R / _REPLICATE_CHUNK) near-equal chunks, one
# pool task each, so at most that many threads work at once. A chunk fits its
# responses on one design by one factorization of [X | Y] and solves each
# tensor cell as one batch of one plan per replicate. The chunk bounds those
# stacks: on the t1 replicate grid (25 replicates) one stack of all responses
# raised the peak RSS by 8%, chunks of 8 by 2%. It depends on R alone, so
# reports do not depend on the thread count.
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
        if self.design not in DESIGN_KINDS:
            raise ConfigError(f"design must be one of {DESIGN_KINDS}, got {self.design!r}")
        if self.smls not in SMLS_MODES:
            raise ConfigError(f"smls must be one of {SMLS_MODES}, got {self.smls!r}")
        if self.mode not in REPLICATE_MODES:
            raise ConfigError(f"mode must be one of {REPLICATE_MODES}, got {self.mode!r}")
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
        entries = self.n * self.l * self.p * self.l
        baseline = self.smls != "off" and any(m in ("unif", "lev") for m in self.methods)
        if baseline and entries > BCIRC_MAX_ENTRIES:
            raise ConfigError(
                f"the matrix baseline at n={self.n}, p={self.p}, l={self.l} needs a block-circulant"
                f" embedding of n*l*p*l = {entries} entries, over the limit of {BCIRC_MAX_ENTRIES}"
            )
        object.__setattr__(self, "taus", tuple(int(t) for t in self.taus))
        object.__setattr__(self, "methods", tuple(self.methods))


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
    smrfv_undefined: bool = field(default=False, compare=False)


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
    divided by an independent sqrt(chi2_nu / nu) per row.
    """
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
    """
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


def _as_list(value, count, what):
    if isinstance(value, (list, tuple)):
        if len(value) != count:
            raise ValueError(f"{what}: expected {count} entries, got {len(value)}")
        return list(value)
    return [value] * count


def compute_metrics(
    estimates,
    reference_ols,
    reference_truth,
    prob,
    *,
    method: str = "",
    tau: int = 0,
    wall_times=(),
    failures: int = 0,
    objectives=None,
    ols_objectives=None,
) -> MetricsRow:
    """Aggregate one cell's replicate estimates into the five metrics.

    `reference_ols`, `prob` and `ols_objectives` may be single objects
    (fixed-response mode) or per-replicate sequences aligned with
    `estimates`. `objectives` and `ols_objectives` are the residual
    objectives of the estimates and of the exact solutions; when given they
    are used as they are, otherwise they are computed. When the exact
    solution fits the data perfectly the relative function value is
    undefined and reported as NaN with `smrfv_undefined` set. A fit counts as
    perfect when its objective is at most _PERFECT_FIT_FACTOR * eps^2 *
    ||Y||_F^2, i.e. its residual norm is at most 100 * eps * ||Y||_F: the
    rounding noise a consistent system leaves, which is not an exact zero.
    """
    ests = [as_tensor(b, "estimate") for b in estimates]
    count = len(ests)
    if count < 2:
        raise ValueError("need at least two estimates to aggregate")
    ols_list = [as_tensor(b, "reference") for b in _as_list(reference_ols, count, "reference_ols")]
    prob_list = _as_list(prob, count, "prob")
    truth = as_tensor(reference_truth, "truth")
    if objectives is None:
        objectives = [objective(pb, b) for pb, b in zip(prob_list, ests)]
    if ols_objectives is None:
        ols_objectives = [objective(pb, b) for pb, b in zip(prob_list, ols_list)]
    f_est = np.asarray(_as_list(objectives, count, "objectives"), dtype=np.float64)
    f_ols = np.asarray(_as_list(ols_objectives, count, "ols_objectives"), dtype=np.float64)
    y_energy = np.array([float(np.vdot(pb.response, pb.response)) for pb in prob_list])
    undefined = bool((f_ols <= _PERFECT_FIT_FACTOR * _EPS**2 * y_energy).any())

    stack = np.stack(ests)
    ols = np.stack(ols_list)
    denom = (ols**2).sum(axis=(1, 2, 3))
    rel_e = np.full(count, np.nan)
    np.divide(((stack - ols) ** 2).sum(axis=(1, 2, 3)), denom, out=rel_e, where=denom != 0)
    mean_est = stack.mean(axis=0)
    ssb = float(((mean_est - truth) ** 2).sum())
    sv = float(((stack - mean_est) ** 2).sum(axis=(1, 2, 3)).mean())
    smse = float(((stack - truth) ** 2).sum(axis=(1, 2, 3)).mean())
    wall = np.asarray(list(wall_times), dtype=np.float64)
    return MetricsRow(
        method=method,
        tau=int(tau),
        smrfv=float("nan") if undefined else float((np.abs(f_est - f_ols) / f_ols).mean()),
        smre=float(rel_e.mean()),
        ssb=ssb,
        sv=sv,
        smse=smse,
        mean_ms=float(wall.mean()) if wall.size else float("nan"),
        replicates=count,
        failures=int(failures),
        smrfv_undefined=undefined,
    )


def build_distribution(x, method: str, alpha: float = 0.9) -> SamplingDistribution:
    """Construct one of the four named distributions for a TlsProblem or a design tensor.

    A problem's cached factorization is reused; a design tensor is validated
    and factored once, also for the uniform distribution, so every method
    rejects a design that TlsProblem would reject.
    """
    if method == "unif":
        design = x if isinstance(x, TlsProblem) else validate_design(x)[0]
        return uniform_probs(design.shape[0])
    if method == "lev":
        return leverage_probs(x)
    if method == "slev":
        return shrinked_leverage_probs(x, alpha)
    if method == "opt":
        return optimal_probs(x)
    raise ValueError(f"unknown method {method!r}")


def _matrix_distribution(prob: TlsProblem, kind: str) -> SamplingDistribution:
    """Row distribution over the n*l rows of the problem's flattened block-circulant system.

    The unitary DFT block-diagonalises bcirc(X) (Kilmer & Martin 2011), so row
    (r, i) of bcirc(X) has the tensor's slice-averaged leverage h_i in every
    block row r: `lev` tiles the problem's leverage l times, with no SVD of
    the embedding.
    """
    n, _, l = prob.shape
    if kind == "unif":
        return uniform_probs(n * l)
    if kind == "lev":
        lev = leverage_probs(prob)
        return replace(lev, probs=np.tile(lev.probs / l, l), leverage=np.tile(lev.leverage, l))
    raise ValueError(f"matrix baseline supports unif or lev, got {kind!r}")


def _solve_matrix_subsample(a, rhs, plan, p, l) -> np.ndarray:
    scaled = a[plan.indices] * plan.weights[:, None]
    target = rhs[plan.indices] * plan.weights[:, None]
    sol, _, rank, _ = np.linalg.lstsq(scaled, target, rcond=None)
    if rank < p * l:
        raise SketchRankDeficient(
            f"matrix sketch has rank {rank} < {p * l}", slice_index=None
        )
    return fold(sol, p, l)


def _max_workers() -> int:
    raw = os.environ.get("TLSQ_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"TLSQ_THREADS must be an integer, got {raw!r}") from None


def _map_chunks(worker, chunks):
    workers = _max_workers()
    if workers == 1:
        return [worker(chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, chunks))


@dataclass
class _ReplicateState:
    prob: TlsProblem  # carries the response of stream key `key` (_response_key)
    key: tuple
    dists: dict
    smls: tuple | None  # (a, {kind: dist}) when the baseline is on


def _aggregate(results, truth) -> list[MetricsRow]:
    """Collapse per-replicate cell outputs into sorted MetricsRow records."""
    rows = []
    cell_keys = sorted({key for _, _, cells in results for key in cells})
    for method, tau in cell_keys:
        ests, objs, ols_refs, ols_objs, probs, walls = [], [], [], [], [], []
        failures = 0
        for prob_b, (ols_b, ols_obj), cells in results:
            est, wall = cells[(method, tau)]
            walls.append(wall)
            if est is None:
                failures += 1
                continue
            ests.append(est[0])
            objs.append(est[1])
            ols_refs.append(ols_b)
            ols_objs.append(ols_obj)
            probs.append(prob_b)
        if len(ests) < 2:
            rows.append(_starved_row(method, tau, len(ests), failures, walls))
            continue
        rows.append(
            compute_metrics(
                ests,
                ols_refs,
                truth,
                probs,
                method=method,
                tau=tau,
                wall_times=walls,
                failures=failures,
                objectives=objs,
                ols_objectives=ols_objs,
            )
        )
    rows.sort(key=lambda r: (r.method, r.tau))
    return rows


def _starved_row(method, tau, replicates, failures, walls) -> MetricsRow:
    """A cell with fewer than two successful sketches: its counts, with NaN metrics."""
    nan = float("nan")
    return MetricsRow(
        method=method,
        tau=int(tau),
        smrfv=nan,
        smre=nan,
        ssb=nan,
        sv=nan,
        smse=nan,
        mean_ms=float(np.mean(walls)),
        replicates=replicates,
        failures=failures,
        smrfv_undefined=True,
    )


@dataclass(frozen=True)
class _Cell:
    """One report cell: per replicate b, `draws` rows from distribution `kind`.

    The plan's random stream is (seed, stream, b, *index). A matrix cell is
    solved on the flattened block-circulant system, every other cell by the
    tensor solver.
    """

    label: str
    tau: int
    kind: str
    draws: int
    stream: int
    index: tuple[int, int]
    matrix: bool = False


def _run_cells(cfg: ExperimentConfig, base, cells, timed: bool) -> list[MetricsRow]:
    """Run every cell in every replicate and aggregate one MetricsRow per cell.

    `base` is the shared design state, or None to draw one per replicate.
    The pool maps near-equal chunks of the replicates (_REPLICATE_CHUNK), so
    at most ceil(R / 8) tasks run at once. A chunk builds its replicates'
    problems (_replicate_problems), solves each tensor cell as one batch of
    one plan per replicate, every plan on its own stream key, and then runs
    the matrix cells replicate by replicate.
    When `timed`, a tensor cell's wall time is its plan draw plus an equal
    share of its cell batch, a matrix cell's its draw and solve; otherwise
    it is NaN.
    """
    clock = time.perf_counter if timed else lambda: math.nan
    tensor_cells = [cell for cell in cells if not cell.matrix]
    matrix_cells = [cell for cell in cells if cell.matrix]

    def draw(state, cell, b):
        dists = state.smls[1] if cell.matrix else state.dists
        return draw_plan(dists[cell.kind], cell.draws, _rng(cfg.seed, cell.stream, b, *cell.index))

    def worker(chunk):
        if base is None:
            states = [_prepare_state(cfg, _STREAM_DESIGN, b) for b in chunk]
            fitted = [_replicate_problems(cfg, state, [b])[0] for state, b in zip(states, chunk)]
        else:
            states = [base] * len(chunk)
            fitted = _replicate_problems(cfg, base, chunk)
        problems = [prob_b for prob_b, _ in fitted]
        outs = [{} for _ in chunk]
        for cell in tensor_cells:
            plans, walls = [], []
            for state, b in zip(states, chunk):
                start = clock()
                plans.append(draw(state, cell, b))
                walls.append((clock() - start) * 1e3)
            start = clock()
            fits = _solve_sketches(problems, plans)
            share = (clock() - start) * 1e3 / len(chunk)
            for out, fit, wall in zip(outs, fits, walls):
                est = None if isinstance(fit, SketchRankDeficient) else fit
                out[(cell.label, cell.tau)] = (est, wall + share)
        for state, b, prob_b, out in zip(states, chunk, problems, outs):
            rhs = unfold(prob_b.response)
            for cell in matrix_cells:
                start = clock()
                plan = draw(state, cell, b)
                try:
                    est = _solve_matrix_subsample(state.smls[0], rhs, plan, cfg.p, cfg.l)
                except SketchRankDeficient:
                    est = None
                out[(cell.label, cell.tau)] = (_fit_matrix(prob_b, est), (clock() - start) * 1e3)
        return [(prob_b, ols_b, out) for (prob_b, ols_b), out in zip(fitted, outs)]

    chunks = np.array_split(np.arange(cfg.replicates), -(-cfg.replicates // _REPLICATE_CHUNK))
    results = [result for part in _map_chunks(worker, chunks) for result in part]
    return _aggregate(results, true_coefficients(cfg.p, cfg.l))


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    """Run the replicate grid and aggregate one MetricsRow per (method, tau).

    The design is drawn once per configuration (or per replicate when
    `redraw_design` is set). Replicate b derives every random stream from
    (seed, stream, b, ...), so results do not depend on scheduling. Sketches
    that lose rank are counted in `failures` and excluded from the
    aggregates for their cell; a cell left with fewer than two estimates is
    reported with NaN metrics and its counts. With `timing` off (the
    default) the mean_ms column is NaN and the whole report is a pure
    function of the config.
    """
    cells = [
        _Cell(method, tau, method, tau, _STREAM_PLAN, (mi, ti))
        for mi, method in enumerate(cfg.methods)
        for ti, tau in enumerate(cfg.taus)
    ]
    if cfg.smls != "off":
        factor = cfg.l if cfg.smls == "l_times_tau" else 1
        cells += [
            _Cell(f"smls-{kind}", tau, kind, factor * tau, _STREAM_SMLS, (ki, ti), matrix=True)
            for ki, kind in enumerate(sorted({m for m in cfg.methods if m in ("unif", "lev")}))
            for ti, tau in enumerate(cfg.taus)
        ]
    base = None if cfg.redraw_design else _prepare_state(cfg, _STREAM_DESIGN)
    return _run_cells(cfg, base, cells, cfg.timing)


def _prepare_state(cfg: ExperimentConfig, stream, *key) -> _ReplicateState:
    """The design drawn from stream (seed, stream, *key), its problem and distributions.

    Key (b,) draws replicate b's own design under redraw_design, key () the
    shared one. The problem carries the response that the design's first
    replicate reads: replicate b's, or replicate 0's on the shared design.
    """
    x = gen_design(cfg.design, cfg.n, cfg.p, cfg.l, _rng(cfg.seed, stream, *key))
    response_key = _response_key(cfg, *(key or (0,)))
    prob = TlsProblem(x, _response(cfg, _signal(x), response_key))
    dists = {m: build_distribution(prob, m, cfg.alpha) for m in cfg.methods}
    kinds = [m for m in cfg.methods if m in ("unif", "lev")] if cfg.smls != "off" else []
    smls = (bcirc(x), {k: _matrix_distribution(prob, k) for k in kinds}) if kinds else None
    return _ReplicateState(prob=prob, key=response_key, dists=dists, smls=smls)


def _response_key(cfg: ExperimentConfig, b) -> tuple:
    """Noise stream key of replicate b: (b,), or () in conditional mode, which shares one response."""
    return () if cfg.mode == "conditional" else (b,)


def _response(cfg: ExperimentConfig, signal, key) -> np.ndarray:
    """`signal` plus noise from stream (seed, response, *key): gen_response's draw on its design."""
    return _add_noise(signal, _rng(cfg.seed, _STREAM_RESPONSE, *key), cfg.sigma2)


def _replicate_problems(cfg: ExperimentConfig, state: _ReplicateState, replicates) -> list:
    """(problem, exact (b, objective)) of each listed replicate on the state's design.

    Replicates that share a response key share one problem. The state's
    problem serves its own key; the responses of the other keys are drawn
    and fitted by one _on_design factorization. The exact solutions are read
    from the problems' fits.
    """
    keys = [_response_key(cfg, b) for b in replicates]
    fresh = list(dict.fromkeys(k for k in keys if k != state.key))
    built = {state.key: state.prob}
    if fresh:
        signal = _signal(state.prob.design)
        built.update(zip(fresh, _on_design(state.prob, [_response(cfg, signal, k) for k in fresh])))
    probs = [built[k] for k in keys]
    bs, objectives = _exact_solutions(probs)
    return [(pb, (coef, float(f))) for pb, coef, f in zip(probs, bs, objectives)]


def _fit_matrix(prob: TlsProblem, b):
    """(b, objective) of a matrix-baseline estimate, or None for a lost-rank sketch."""
    return None if b is None else (b, objective(prob, b))


def run_mls_comparison(cfg: ExperimentConfig) -> list[MetricsRow]:
    """Three-way comparison: tensor solver at tau vs matrix baseline at tau and l*tau.

    Methods named stls-<kind>, smls-<kind>-tau, and smls-<kind>-ltau, where
    kind ranges over the uniform/leverage entries of cfg.methods. All rows
    are keyed by the grid tau; the -ltau rows used l*tau matrix samples.
    """
    kinds = [m for m in cfg.methods if m in ("unif", "lev")]
    if not kinds:
        raise ConfigError("the matrix comparison needs unif or lev among the methods")
    # The replaced config checks the baseline's size before anything is drawn.
    base_cfg = replace(cfg, smls="same_tau", methods=tuple(kinds))
    cells = []
    for ki, kind in enumerate(kinds):
        for ti, tau in enumerate(cfg.taus):
            cells += [
                _Cell(f"stls-{kind}", tau, kind, tau, _STREAM_PLAN, (ki, ti)),
                _Cell(f"smls-{kind}-tau", tau, kind, tau, _STREAM_SMLS, (ki, ti), True),
                _Cell(f"smls-{kind}-ltau", tau, kind, cfg.l * tau, _STREAM_SMLS + 1, (ki, ti), True),
            ]
    state = _prepare_state(base_cfg, _STREAM_DESIGN)
    return _run_cells(cfg, state, cells, timed=True)


def write_report(rows, path) -> None:
    """Write rows as CSV, method lexical then tau ascending, 17 significant digits."""
    ordered = sorted(rows, key=lambda r: (r.method, r.tau))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for r in ordered:
            writer.writerow(
                [
                    r.method,
                    r.tau,
                    f"{r.smrfv:.17g}",
                    f"{r.smre:.17g}",
                    f"{r.ssb:.17g}",
                    f"{r.sv:.17g}",
                    f"{r.smse:.17g}",
                    f"{r.mean_ms:.17g}",
                    r.replicates,
                    r.failures,
                ]
            )


def read_report(path) -> list[MetricsRow]:
    """Parse a report written by write_report; floats round-trip exactly."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != REPORT_HEADER:
            raise ValueError(f"unexpected report header {header}")
        for rec in reader:
            rows.append(
                MetricsRow(
                    method=rec[0],
                    tau=int(rec[1]),
                    smrfv=float(rec[2]),
                    smre=float(rec[3]),
                    ssb=float(rec[4]),
                    sv=float(rec[5]),
                    smse=float(rec[6]),
                    mean_ms=float(rec[7]),
                    replicates=int(rec[8]),
                    failures=int(rec[9]),
                    smrfv_undefined=math.isnan(float(rec[2])),
                )
            )
    return rows


def _parse_flag(s: str) -> bool:
    if s not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {s!r}")
    return s == "1"


_CONFIG_PARSERS = {
    "n": int,
    "p": int,
    "l": int,
    "design": str,
    "sigma2": float,
    "replicates": int,
    "taus": lambda s: tuple(int(v) for v in s.split(",") if v.strip()),
    "methods": lambda s: tuple(v.strip() for v in s.split(",") if v.strip()),
    "alpha": float,
    "seed": int,
    "smls": str,
    "mode": str,
    "redraw_design": _parse_flag,
    "timing": _parse_flag,
}


def parse_config_file(path) -> ExperimentConfig:
    """Parse a flat key=value config file; '#' starts a comment, seed is mandatory."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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

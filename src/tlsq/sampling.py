"""Row sampling probability distributions and with-replacement sampling plans.

Four distributions are supported: uniform, leverage score, shrinked leverage
(a convex mix of the first two), and the variance-optimal distribution that
minimizes the trace of the subsampling term of the estimator's unconditional
variance. A drawn plan stores row indices plus the 1/sqrt(tau*pi) rescaling
weights, which is all a solver needs; the sampling and rescaling operators
are never materialized as dense tubal matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistribution
from .solver import _as_design, _compress_sorted, _plan_keys
from .tensor import _parseval_weights, _row_energy

PROB_SUM_TOL = 1e-12

# Relative floor below which an optimal-distribution radicand is treated as an
# exact zero; the hat-matrix complement rounds to +-eps at leverage one.
_RADICAND_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Row sampling probabilities over the n horizontal slices of a design.

    `leverage` carries the raw leverage scores h_i when the distribution was
    derived from them, for diagnostics.
    """

    kind: str
    probs: np.ndarray
    alpha: float | None = None
    leverage: np.ndarray | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError(f"probabilities must be a nonempty vector, got {probs.shape}")
        if (probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        if self.kind in ("unif", "slev") and not (probs > 0).all():
            raise ValueError(f"{self.kind} probabilities must be strictly positive")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.probs.size

    @functools.cached_property
    def _inverse_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(support, cum): the positive-probability rows and their cumulative sums, cum[-1] = 1."""
        support = np.flatnonzero(self.probs > 0)
        cum = np.cumsum(self.probs[support])
        cum[-1] = 1.0  # cumsum may land an ulp under 1
        return support, cum


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """tau i.i.d. with-replacement row draws and their rescaling weights."""

    tau: int
    indices: np.ndarray
    weights: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if indices.shape != (self.tau,) or weights.shape != (self.tau,):
            raise ValueError("indices and weights must both have length tau")
        if not np.isfinite(weights).all() or (weights <= 0).any():
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", weights)


def uniform_probs(n: int) -> SamplingDistribution:
    """Equal probability 1/n for every row."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return SamplingDistribution(kind="unif", probs=np.full(n, 1.0 / n))


def leverage_probs(design) -> SamplingDistribution:
    """Probabilities proportional to the row leverage scores h_i.

    h_i is the slice-averaged squared norm of row i of X F, the design times
    its Gram factors (the left singular factor); the scores sum to p, so
    pi_i = h_i / p. `design` is a TlsProblem, whose factorization is reused,
    or a design tensor, which is validated and factored once. The scores
    are the design's own, computed once per design.
    """
    design = _as_design(design)
    leverage = design.leverage
    return SamplingDistribution(kind="lev", probs=leverage / design.shape[1], leverage=leverage)


def shrinked_leverage_probs(design, alpha: float) -> SamplingDistribution:
    """Convex mix alpha * leverage + (1 - alpha) * uniform, strictly positive."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    lev = leverage_probs(design)
    probs = alpha * lev.probs + (1.0 - alpha) / lev.n
    return SamplingDistribution(kind="slev", probs=probs, alpha=alpha, leverage=lev.leverage)


def optimal_probs(design) -> SamplingDistribution:
    """Distribution minimizing the trace of the variance sandwich middle factor.

    pi_i is proportional to sqrt of the slice-averaged product of the
    hat-matrix complement and the squared row norm in the DFT domain. The
    radicand is mathematically nonnegative but can round negative at leverage
    one, so it is clamped at zero; rows whose radicand is zero in every slice
    get probability zero. When every row degenerates this way (the design
    interpolates any response exactly) DegenerateDistribution is raised and
    the caller must fall back to another distribution. Takes a TlsProblem or
    a design tensor, as leverage_probs does.
    """
    design = _as_design(design)
    numerators, energy = _sandwich_numerators(design)
    weights = np.sqrt(np.where(numerators > _RADICAND_REL_TOL * energy, numerators, 0.0))
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateDistribution(
            "all rows have unit leverage in every DFT slice; "
            "the optimal distribution is undefined"
        )
    return SamplingDistribution(kind="opt", probs=weights / total, leverage=design.leverage)


def _sandwich_numerators(design):
    """Means over all l slices of (1 - h_i(k)) * ||x_i(k)||^2 and of ||x_i(k)||^2, (n,) each.

    The first is the sandwich middle trace's numerator, whose square root
    optimal_probs follows; h_i(k) are the leverage rows of the _Design. The
    row energies of the column-major half stack are taken a block of rows
    at a time (_row_energy), so at most one block is copied.
    """
    l = design.shape[2]
    w = _parseval_weights(l) / l
    row_x = _row_energy(design.half)
    return w @ ((1.0 - design.leverage_rows) * row_x), w @ row_x


def coherence(design) -> float:
    """mu coherence of a design: (n*l/p) * max_i h_i, from its leverage scores h_i.

    h_i is the squared norm of row i of the thin t-SVD factor U, summed over
    its columns and tube entries, so this is the coherence of U, at least l.
    Takes a TlsProblem or a design tensor, as leverage_probs does, and reads
    the leverage the design holds.
    """
    design = _as_design(design)
    n, p, l = design.shape
    return float(n * l / p * design.leverage.max())


def draw_plan(dist: SamplingDistribution, tau: int, seed) -> SamplingPlan:
    """Draw tau i.i.d. rows with replacement, deterministically from `seed`.

    The batch of one of _draw_plans, on the Generator np.random.default_rng
    makes of `seed`. A seed is required: a plan is never drawn from
    operating-system entropy.
    """
    _require_seed("draw_plan", seed)
    (indices,), (weights,) = _draw_plans([dist], tau, [np.random.default_rng(seed)])
    return SamplingPlan(tau=tau, indices=indices, weights=weights, seed=seed)


def _require_seed(name: str, seed) -> None:
    """Refuse a None seed: every random path is drawn from an explicit seed."""
    if seed is None:
        raise ValueError(f"{name} needs a seed; None would draw from OS entropy")


def _draw_plans(dists, tau: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Indices and weights, (B, tau) each, of one plan per Generator, plan j from dists[j].

    Row j of the uniforms is rngs[j].random(tau) (_uniforms), so a plan
    depends on its own Generator alone, and the draws keep the order of the
    uniforms (_rows_and_weights). draw_plan is a batch of one.
    """
    return _rows_and_weights(dists, tau, _uniforms(tau, rngs))


def _draw_compressed(dists, tau: int, rngs, n: int, p: int):
    """The plans of _draw_plans, drawn already compressed: _compress's (taus, picked, scale).

    Each plan's uniforms are sorted before they are mapped to rows, so its
    rows come out ascending with the same multiset of draws, and its unique
    rows are the runs of equal rows (_compress_sorted). The outputs equal
    _compress(*_draw_plans(dists, tau, rngs), n, p) bit for bit, with the
    same checks, but need no sort of the (plan, row) keys. The replicate
    driver draws every cell batch this way.
    """
    uniforms = np.sort(_uniforms(tau, rngs), axis=1)
    indices, weights = (a.ravel() for a in _rows_and_weights(dists, tau, uniforms))
    taus = np.full(len(rngs), tau)
    return _compress_sorted(taus, _plan_keys(taus, indices, weights, n, p), weights, n, p)


def _uniforms(tau: int, rngs) -> np.ndarray:
    """(B, tau) uniforms on [0, 1), row j being rngs[j].random(tau)."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    uniforms = np.empty((len(rngs), tau))
    for row, rng in zip(uniforms, rngs):
        rng.random(out=row)
    return uniforms


def _rows_and_weights(dists, tau: int, uniforms) -> tuple[np.ndarray, np.ndarray]:
    """Row j of `uniforms` mapped to rows of dists[j], and the draws' weights, (B, tau) each.

    The uniforms are mapped by inverse-CDF binary search over each
    distribution's positive-probability rows (cached on the distribution),
    so a zero-probability row can never be selected: one searchsorted per
    distinct distribution, one in all for a batch on a shared design.
    Weight t is 1/sqrt(tau * pi_{i_t}).
    """
    indices, probs = np.empty(uniforms.shape, dtype=np.intp), np.empty(uniforms.shape)
    for dist in {id(d): d for d in dists}.values():
        rows = [j for j, d in enumerate(dists) if d is dist]
        support, cum = dist._inverse_cdf
        indices[rows] = support[np.searchsorted(cum, uniforms[rows], side="right")]
        probs[rows] = dist.probs[indices[rows]]
    return indices, 1.0 / np.sqrt(tau * probs)


def write_distribution_csv(dist: SamplingDistribution, fh) -> None:
    """Write (index, prob) rows as CSV; indices are 1-based, probabilities 17 digits."""
    fh.write("index,prob\n")
    fh.write("".join([f"{i},{prob:.17g}\n" for i, prob in enumerate(dist.probs.tolist(), start=1)]))

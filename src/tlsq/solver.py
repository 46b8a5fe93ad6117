"""Exact and row-subsampled tensor least squares.

The overdetermined problem min_B ||Y - X * B||_F^2 decouples into one complex
matrix least-squares problem per DFT slice. A problem keeps only the first
l//2 + 1 slices, as slice-major stacks; the rest follow by conjugate symmetry.
All slices are solved at once by one batched factorization. The subsampled
solver gathers and rescales rows of the already-transformed slices: the
sampling and rescaling operators act on the first frontal slice only, so row
selection commutes with the tube DFT.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, RankDeficient, SketchRankDeficient
from .tensor import _from_half, _parseval_weights, _row_energy, _to_half
from .tensor import as_tensor, default_rank_tol

if TYPE_CHECKING:  # sampling builds on problems, so it imports this module
    from .sampling import SamplingPlan


def validate_design(design):
    """Check n >= p and column rank p in every DFT slice, factoring the design once.

    Takes an R-only QR of the half-spectrum (l//2 + 1, n, p) slice stack and
    the SVD R = U S V^H of each p x p triangle. Returns (design, design_half,
    gram_factors): the Gram factors F = V S^-1, an (l//2 + 1, p, p) stack,
    give each slice's Gram inverse F F^H and leverage rows ||x_i F||^2.
    Raises RankDeficient when any slice is short of rank p, naming the slice.
    """
    x = as_tensor(design, "design")
    n, p, l = x.shape
    if n < p:
        raise DimensionMismatch(f"design must have n >= p, got {x.shape}")
    xhalf = _to_half(x)
    _, _, s, vh = _qr_svd(xhalf, p)
    tol = default_rank_tol((n, p), float(s.max(initial=0.0)))
    smallest = s[:, p - 1]
    if (smallest <= tol).any():
        k_bad = int(np.argmin(smallest)) + 1
        raise RankDeficient(f"design does not have rank {p} in DFT slice {k_bad} of {l}")
    return x, xhalf, vh.conj().mT / s[:, None, :]


class TlsProblem:
    """A validated overdetermined tensor least-squares instance.

    Requires n >= p and column rank p in every DFT slice of the design, so
    the normal-equations inverse exists. The design's half-spectrum slice
    stack (l//2 + 1, n, p) and its Gram factors are computed once and shared
    across responses; the response is held as an (l//2 + 1, n, 1) stack.
    """

    def __init__(self, design, response):
        self.design, self.design_half, self.gram_factors = validate_design(design)
        self._set_response(response)

    def _set_response(self, response):
        y = as_tensor(response, "response")
        n, p, l = self.design.shape
        if y.shape != (n, 1, l):
            raise DimensionMismatch(
                f"response shape {y.shape} does not match design {self.design.shape}; "
                f"expected ({n}, 1, {l})"
            )
        self.response = y
        self.response_half = _to_half(y)

    def with_response(self, response) -> "TlsProblem":
        """Same design (validation, DFT and factors reused), different response."""
        other = copy.copy(self)
        other._set_response(response)
        return other

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.design.shape

    @functools.cached_property
    def leverage_rows(self) -> np.ndarray:
        """Slice leverage rows ||x_i F||^2, (l//2 + 1, n) real, computed on first use.

        Only the row energies are kept, not the (l//2 + 1, n, p) product X F.
        """
        return _leverage_rows(self.design_half, self.gram_factors)


def _leverage_rows(xhalf, f) -> np.ndarray:
    """Row energies of X F per slice, each slice rescaled to its exact trace p.

    S^-1 amplifies rounding, so the rows of X F are orthonormal only to about
    eps * kappa: at kappa = 2e7 a slice's rows sum to p only to 1e-10, while
    each row stays accurate to a few 1e-10. Restoring the trace keeps the
    probabilities built on the rows summing to one.
    """
    rows = _row_energy(xhalf @ f)
    rows *= xhalf.shape[2] / rows.sum(axis=1, keepdims=True)
    return rows


def _design_factors(design):
    """(design, design_half, gram_factors, leverage_rows) of a problem or a design tensor.

    A TlsProblem's factorization is reused; a design tensor is validated and
    factored here.
    """
    if isinstance(design, TlsProblem):
        return design.design, design.design_half, design.gram_factors, design.leverage_rows
    x, xhalf, f = validate_design(design)
    return x, xhalf, f, _leverage_rows(xhalf, f)


@dataclass(frozen=True, eq=False)
class TlsSolution:
    """A solver output: the coefficient tensor, its objective value, and how it was made."""

    b: np.ndarray
    objective: float
    method: str
    plan: SamplingPlan | None = None


def objective(prob: TlsProblem, b) -> float:
    """Residual objective ||Y - X * B||_F^2, evaluated on the half spectrum.

    By Parseval the spatial squared norm is the slice-summed norm over l,
    where each slice that is not self-conjugate stands for itself and its
    mirror.
    """
    b = as_tensor(b, "solution")
    n, p, l = prob.shape
    if b.shape != (p, 1, l):
        raise DimensionMismatch(f"solution shape {b.shape}; expected ({p}, 1, {l})")
    resid = prob.response_half - prob.design_half @ _to_half(b)
    return float(_parseval_weights(l) @ _row_energy(resid).sum(axis=1)) / l


def _qr_svd(m, p):
    """R-only QR of every slice of the stack `m`, then the SVD of R's leading p x p block.

    Returns (r, u, s, vh). The SVD acts on p x p triangles, so the tall
    slices are factored once and normal equations are never formed.
    """
    r = np.linalg.qr(m, mode="r")
    u, s, vh = np.linalg.svd(r[:, :p, :p])
    return r, u, s, vh


def _solve_stack(prob: TlsProblem, m, method: str, plan=None) -> TlsSolution:
    """Solve every slice of the weighted [A | y] stack `m` and transform back.

    A slice whose singular values fall to lstsq's default cutoff
    eps * max(rows, p) * s_max has lost rank: SketchRankDeficient names the
    first such slice, 1-based.
    """
    n, p, l = prob.shape
    r, u, s, vh = _qr_svd(m, p)
    tol = np.finfo(np.float64).eps * max(m.shape[1], p) * s[:, 0]
    short = s[:, p - 1] <= tol
    if short.any():
        k = int(np.argmax(short))
        rank = int(np.count_nonzero(s[k] > tol[k]))
        raise SketchRankDeficient(
            f"sketched design has rank {rank} < {p} in DFT slice {k + 1} of {l}",
            slice_index=k + 1,
        )
    bhalf = vh.conj().mT @ ((u.conj().mT @ r[:, :p, p:]) / s[:, :, None])
    b = _from_half(bhalf, l)
    return TlsSolution(b=b, objective=objective(prob, b), method=method, plan=plan)


def solve_ols(prob: TlsProblem) -> TlsSolution:
    """Exact least-squares solution from one batched factorization of every slice."""
    m = np.concatenate((prob.design_half, prob.response_half), axis=2)
    return _solve_stack(prob, m, "ols")


def solve_subsampled(prob: TlsProblem, plan: SamplingPlan) -> TlsSolution:
    """Weighted least squares on the rows named by `plan`.

    Row t of the sketch is row plan.indices[t] of the data scaled by
    plan.weights[t]. The slices are solved from an R-only QR of the sketched
    [A | y] stack and an SVD of each triangle rather than explicit normal
    equations; forming the inverse would square the slice condition numbers.
    """
    n, p, l = prob.shape
    if plan.tau < p:
        raise ValueError(f"plan has tau={plan.tau} < p={p}")
    if plan.indices.min() < 0 or plan.indices.max() >= n:
        raise ValueError("plan indices fall outside the design's rows")
    m = np.concatenate(
        (
            np.take(prob.design_half, plan.indices, axis=1),
            np.take(prob.response_half, plan.indices, axis=1),
        ),
        axis=2,
    )
    m *= plan.weights[:, None]
    return _solve_stack(prob, m, "subsampled", plan)


def tau_lower_bound(p: int, l: int, beta: float, eps: float) -> int:
    """Sample size above which the residual guarantee holds with probability 0.7.

    Computes ceil(440 * p^2 * l^2 / (beta * eps)). The constant is loose by
    orders of magnitude compared with practical sample sizes; treat this as a
    reference value, not an operating requirement.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if p < 1 or l < 1:
        raise ValueError("p and l must be at least 1")
    return math.ceil(440.0 * p * p * l * l / (beta * eps))

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

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, RankDeficient, SketchRankDeficient
from .tensor import _QR_BLOCK_ROWS, _from_half, _parseval_weights, _row_energy, _to_half
from .tensor import as_tensor, default_rank_tol

if TYPE_CHECKING:  # sampling builds on problems, so it imports this module
    from .sampling import SamplingPlan


def validate_design(design) -> _Design:
    """Check n >= p and column rank p in every DFT slice, factoring the design once.

    The one entry point for a bare design tensor. Takes an R-only QR of the
    half-spectrum (l//2 + 1, n, p) slice stack and the SVD R = U S V^H of
    each p x p triangle, and returns the design's _Design. Raises
    RankDeficient when any slice is short of rank p, naming the slice. A
    TlsProblem builds its _Design from its own factor of [X | y] instead,
    which gives the same check and factors from its leading p columns.
    """
    x = _check_design(design)
    xhalf = _to_half(x)
    return _Design(x, xhalf, *_factor(xhalf, p=x.shape[1], l=x.shape[2]))


def _check_design(design) -> np.ndarray:
    x = as_tensor(design, "design")
    if x.shape[0] < x.shape[1]:
        raise DimensionMismatch(f"design must have n >= p, got {x.shape}")
    return x


def _check_responses(responses, shape) -> list:
    n, p, l = shape
    ys = [as_tensor(y, "response") for y in responses]
    for y in ys:
        if y.shape != (n, 1, l):
            raise DimensionMismatch(
                f"response shape {y.shape} does not match design {shape}; "
                f"expected ({n}, 1, {l})"
            )
    return ys


def _factor(*stacks, p: int, l: int):
    """R-only TSQR of half stacks side by side, [X | responses], and the design's rank check.

    The first p columns are the design's. R's leading p x p block R11 is the
    design's own R factor; the SVD R11 = U S V^H gives the check of every
    slice against rank p and F = V S^-1. Returns (r, gram_factors); with
    responses, R11^-1 R12 is their exact fit. A single stack, such as a
    joint [X | y] stack, is factored a block of rows at a time as it stands.
    """
    n = stacks[0].shape[1]
    r = _tsqr_r(_row_blocks(*stacks))
    _, s, vh = np.linalg.svd(r[..., :p, :p])
    tol = default_rank_tol((n, p), float(s.max(initial=0.0)))
    smallest = s[:, p - 1]
    if (smallest <= tol).any():
        k_bad = int(np.argmin(smallest)) + 1
        raise RankDeficient(f"design does not have rank {p} in DFT slice {k_bad} of {l}")
    return r, vh.conj().mT / s[:, None, :]


@dataclass(frozen=True, eq=False)
class _Design:
    """A validated design and its slice factors, built once and shared by reference.

    `tensor` is the (n, p, l) design and `half` its (l//2 + 1, n, p) half
    stack, a view of the joint [X | y] stack when a TlsProblem built it.
    `r11` is the design's R factor in each slice and `f` its Gram factors
    F = V S^-1, from the SVD R11 = U S V^H: U = X F has orthonormal columns
    in each slice, and F F^H is the Gram inverse. Every problem on the
    design holds this one object, and the solver, sampling and stats read
    it. The leverage rows and scores are computed on first use, once per
    design.
    """

    tensor: np.ndarray
    half: np.ndarray
    r11: np.ndarray
    f: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.tensor.shape

    def orthonormal_blocks(self, rows: int):
        """(start, U[:, start : start + rows]) for each block of rows of U = X F.

        U is formed a block at a time, so it is never held whole.
        """
        for start in range(0, self.half.shape[1], rows):
            yield start, self.half[:, start : start + rows] @ self.f

    @functools.cached_property
    def leverage_rows(self) -> np.ndarray:
        """Slice leverage rows ||u_i||^2, (l//2 + 1, n), each slice rescaled to its exact trace p.

        S^-1 amplifies rounding, so the rows of U are orthonormal only to about
        eps * kappa: at kappa = 2e7 a slice's rows sum to p only to 1e-10, while
        each row stays accurate to a few 1e-10. Restoring the trace keeps the
        probabilities built on the rows summing to one. Only the row energies
        are kept, not U.
        """
        blocks = self.orthonormal_blocks(_QR_BLOCK_ROWS)
        rows = np.concatenate([_row_energy(u) for _, u in blocks], axis=1)
        rows *= self.shape[1] / rows.sum(axis=1, keepdims=True)
        return rows

    @functools.cached_property
    def leverage(self) -> np.ndarray:
        """Leverage scores h_i, (n,): the leverage rows averaged over all l slices; read-only."""
        l = self.shape[2]
        leverage = (_parseval_weights(l) / l) @ self.leverage_rows
        leverage.flags.writeable = False  # distributions hand it out
        return leverage


class TlsProblem:
    """A validated overdetermined tensor least-squares instance, fitted when it is built.

    Requires n >= p and column rank p in every DFT slice of the design, so
    the normal-equations inverse exists. The constructor transforms the
    design and the response into one joint (l//2 + 1, n, p + 1) half stack
    and factors it once, an R-only TSQR of its row blocks as they stand.
    The leading block gives the rank check, R11 and the Gram factors: with
    the design and its half stack, a view of the joint stack, they make the
    problem's _Design. with_response and _on_design hand that same object
    to every new problem on the design. A problem keeps of its own only its
    response and the response's half stack, its exact fit R11^-1 R12, which
    solve_ols and the conditional variance read, and rho, the exact fit's
    residual energy per slice, from the trailing block. Every objective is
    read from R11, rho and the fit, so neither the design nor its rows are
    touched again.
    """

    def __init__(self, design, response):
        x = _check_design(design)
        (y,) = _check_responses([response], x.shape)
        p = x.shape[1]
        joint = _to_half(x, y)
        r, f = _factor(joint, p=p, l=x.shape[2])
        _fitted(_Design(x, joint[..., :p], r[..., :p, :p], f), [y], [joint[..., p:]], r, [self])

    def with_response(self, response) -> "TlsProblem":
        """Same design (validation, DFT and factors reused), different response, fitted at once."""
        return _on_design(self._design, [response])[0]

    @property
    def design(self) -> np.ndarray:
        return self._design.tensor

    @property
    def shape(self) -> tuple[int, int, int]:
        return self._design.shape


def _as_design(design) -> _Design:
    """The _Design of a TlsProblem, or of a design tensor, which validate_design factors.

    The boundary of every function that takes either; a _Design is returned
    as it is.
    """
    if isinstance(design, TlsProblem):
        return design._design
    return design if isinstance(design, _Design) else validate_design(design)


@dataclass(frozen=True, eq=False)
class TlsSolution:
    """A solver output: the coefficient tensor, its objective value, and how it was made."""

    b: np.ndarray
    objective: float
    method: str
    plan: SamplingPlan | None = None


def objective(prob: TlsProblem, b) -> float:
    """Residual objective ||Y - X * B||_F^2, read from the problem's factor of [X | y].

    By Parseval the spatial squared norm is the slice-summed norm over l,
    where each slice that is not self-conjugate stands for itself and its
    mirror; see _r_objectives for how each slice's norm is read from R. The
    spatial `b` is transformed once (_to_half). A solver's objective is read
    from the half spectrum of its own solve instead, so it agrees with this
    value to rounding, not bit for bit.
    """
    b = as_tensor(b, "solution")
    n, p, l = prob.shape
    if b.shape != (p, 1, l):
        raise DimensionMismatch(f"solution shape {b.shape}; expected ({p}, 1, {l})")
    return float(_r_objectives([prob], _to_half(b)[None])[0])


def _r_objectives(problems, bhalf) -> np.ndarray:
    """sum_k w_k (rho_k + ||R11_k (b_k - bols_k)||^2) / l of solution j on problems[j].

    [X | y] = Q [[R11, R12], [0, R22]] gives ||y - X b||^2 = ||R22||^2 +
    ||R11 b - R12||^2 in each slice, and R12 = R11 bols, so the objective
    needs no row of the design. Its rounding error is the factorization's
    backward error, about eps ||[X | y]|| per slice, not that of a residual
    over the rows. Near the exact fit the relative error grows to about eps
    times the slice condition number, not its square as with an exact fit
    taken from the normal equations R11^H R11. `bhalf` holds the solutions'
    half spectra, (len(problems), l//2 + 1, p, 1), as the triangular solves
    leave them, so no solution is transformed here. An empty batch has no
    objectives.
    """
    if not problems:
        return np.zeros(0)
    r11, ols_half, rho = (
        np.stack(a) for a in zip(*[(pb._design.r11, pb._ols_half, pb._rho) for pb in problems])
    )
    l = problems[0].shape[2]
    d = r11 @ (bhalf - ols_half)
    excess = (d.real**2 + d.imag**2).sum(axis=(-2, -1))
    return (rho + excess) @ _parseval_weights(l) / l


def _row_blocks(*stacks):
    """Row blocks of the column-wise concatenation of `stacks`, _QR_BLOCK_ROWS rows each.

    Only one block is gathered at a time, so the whole concatenation is
    never held.
    """
    for start in range(0, stacks[0].shape[-2], _QR_BLOCK_ROWS):
        part = [s[..., start : start + _QR_BLOCK_ROWS, :] for s in stacks]
        yield part[0] if len(part) == 1 else np.concatenate(part, axis=-1)


def _tsqr_r(blocks):
    """R-only QR of a stack given as row blocks (TSQR).

    Each block is factored on its own and the stacked R factors once more,
    which gives the R of the whole stack; a stack of one block is factored
    once. So the tall slices are factored once and normal equations are
    never formed.
    """
    rs = [np.linalg.qr(block, mode="r") for block in blocks]
    return rs[0] if len(rs) == 1 else np.linalg.qr(np.concatenate(rs, axis=-2), mode="r")


def _solve_factored(r, p: int, rows, l: int):
    """Rank-check a batch of factored [A | Y] stacks and solve the well-posed ones.

    `r` (B, l//2 + 1, m, p + k) holds the R factors; `rows[j]` is the number
    of rows stack j stands for. A slice whose singular values fall to
    lstsq's default cutoff eps * max(rows, p) * s_max has lost rank. One
    solve with R11 and [R12 | I] gives the solutions R11^-1 R12 and R11^-1.
    If ||R11||_F ||R11^-1||_F eps max(rows, p) <= 1/2 in every slice of
    every stack, each slice passes the cutoff by a factor of 2, since the
    2-norm condition number is at most that Frobenius product, and no SVD
    is taken. Otherwise (a singular pivot, a non-finite or a larger bound)
    the singular values of every R11 decide, and the stacks of full rank
    are solved again. Returns (ok, bhalf, errors): `ok` masks the stacks of
    full rank, `bhalf` holds their half-spectrum solutions,
    (count(ok), l//2 + 1, p, k), and `errors` has one entry per stack, a
    SketchRankDeficient naming the first short slice (1-based) of a stack
    that lost rank and None otherwise. The sketch solvers keep this mask
    and error list in the batch they return.
    """
    cutoff = np.finfo(np.float64).eps * np.maximum(np.asarray(rows), p)
    r11 = r[..., :p, :p]
    eye = np.broadcast_to(np.eye(p, dtype=r.dtype), r11.shape)
    try:
        sol = np.linalg.solve(r11, np.concatenate([r[..., :p, p:], eye], axis=-1))
    except np.linalg.LinAlgError:
        pass  # a zero pivot: the singular values decide
    else:
        bound = np.linalg.norm(r11, axis=(-2, -1)) * np.linalg.norm(sol[..., -p:], axis=(-2, -1))
        if (bound * cutoff[:, None] <= 0.5).all():
            return np.ones(len(cutoff), dtype=bool), sol[..., :-p], [None] * len(cutoff)
    s = np.linalg.svd(r11, compute_uv=False)
    tol = cutoff[:, None] * s[..., 0]
    short = s[..., p - 1] <= tol
    ok = ~short.any(axis=1)
    errors = [None] * len(ok)
    for k in np.flatnonzero(~ok):
        j = int(np.argmax(short[k]))
        rank = int(np.count_nonzero(s[k, j] > tol[k, j]))
        errors[k] = SketchRankDeficient(
            f"sketched design has rank {rank} < {p} in DFT slice {j + 1} of {l}",
            slice_index=j + 1,
        )
    return ok, _back_substitute(r[ok], p), errors


def _back_substitute(r, p: int) -> np.ndarray:
    """R11^-1 R12 of a stack of R factors of [A | Y], where A has p columns."""
    # R11 is upper triangular, so LU with partial pivoting swaps no rows and
    # this is a back substitution.
    return np.linalg.solve(r[..., :p, :p], r[..., :p, p:])


def _on_design(design: _Design, responses) -> list:
    """Problems on `design`, one per response, each holding that same _Design.

    One R-only TSQR (_factor) of [X | Y_1 ... Y_k], the design's half stack
    and the responses' side by side a block of rows at a time, checks the
    design again and fits every response (_fitted). Its R11 and Gram factors
    are dropped for the design's own.
    """
    ys = _check_responses(responses, design.shape)
    halves = [_to_half(y) for y in ys]
    _, p, l = design.shape
    return _fitted(design, ys, halves, _factor(design.half, *halves, p=p, l=l)[0])


def _fitted(design: _Design, ys, halves, r, probs=None) -> list:
    """Problems on `design`, response j being ys[j] with half stack halves[j].

    `r` is the R factor of [X | Y_1 ... Y_k]. Column j of R12 and of the
    trailing triangle R22 belong to response j: its fit is R11^-1 R12[:, j]
    and its residual energy per slice, rho, the squared norm of R22[:, j].
    New problems are made unless `probs` names the ones to fill, as the
    constructor does with itself.
    """
    p = design.shape[1]
    fits = np.moveaxis(_back_substitute(r, p), -1, 0)[..., None]
    rhos = _row_energy(r[..., p:, p:].mT).T
    probs = probs or [object.__new__(TlsProblem) for _ in ys]
    for pb, y, half, fit, rho in zip(probs, ys, halves, fits, rhos):
        pb._design, pb.response, pb.response_half, pb._ols_half, pb._rho = design, y, half, fit, rho
    return probs


def _exact_solutions(problems):
    """Exact solutions (k, p, 1, l) of the problems and their objectives (k,), read from their fits.

    Solution j solves problems[j]. One inverse transform (_from_half, which
    checks each solution's imaginary residue) gives the solutions, and one
    _r_objectives call reads their objectives from the same half spectra:
    each objective is exactly the weighted sum of its rho.
    """
    bhalf = np.stack([pb._ols_half for pb in problems])
    return _from_half(bhalf, problems[0].shape[2]), _r_objectives(problems, bhalf)


def solve_ols(prob: TlsProblem) -> TlsSolution:
    """Exact least-squares solution, from the fit the problem's [X | y] factor gives."""
    (b,), (f,) = _exact_solutions([prob])
    return TlsSolution(b=b, objective=float(f), method="ols")


def _compress(indices, weights, n: int, p: int):
    """Each plan reduced to its unique rows, each scaled by sqrt of its summed squared weight.

    Plan j draws rows indices[j] of an n-row system with weights weights[j],
    one entry per draw; a (B, tau) array holds a batch of plans of one size.
    Every plan needs tau >= p draws. With-replacement draws enter a
    least-squares sketch only through S^T S, the summed squared weight of
    each drawn row, so the compressed sketch is exact for any plan, also for
    a row drawn with different weights. Returns (taus, picked, scale,
    unique): plan j's unique rows and their scales are the first unique[j]
    entries of picked[j] and scale[j], (B, rows) each, and zeros pad them
    to rows = max(unique.max(), p).
    """
    taus = np.array([len(row) for row in indices])
    if len(weights) != taus.size or any(len(w) != t for w, t in zip(weights, taus)):
        raise ValueError("indices and weights must both have length tau")
    weights = np.concatenate(weights)
    if not np.isfinite(weights).all() or (weights <= 0).any():
        raise ValueError("weights must be positive and finite")
    if (taus < p).any():
        raise ValueError(f"plan has tau={taus[taus < p][0]} < p={p}")
    indices = np.concatenate(indices)
    if indices.min() < 0 or indices.max() >= n:
        raise ValueError("plan indices fall outside the design's rows")
    count = taus.size
    # Sorted (plan, row) keys: memory in proportion to the draws, not to B * n.
    keys, inverse = np.unique(np.repeat(np.arange(count) * n, taus) + indices, return_inverse=True)
    owner, rows = np.divmod(keys, n)
    unique = np.bincount(owner, minlength=count)
    slot = np.arange(owner.size) - np.repeat(np.cumsum(unique) - unique, unique)
    picked = np.zeros((count, max(int(unique.max()), p)), dtype=np.intp)
    scale = np.zeros(picked.shape)
    picked[owner, slot] = rows
    scale[owner, slot] = np.sqrt(np.bincount(inverse, weights=weights**2))
    return taus, picked, scale, unique


def _solve_sketches(problems, indices, weights):
    """Solve the sketches of several plans in one batch, plan j on problems[j].

    Plan j draws rows indices[j] with weights weights[j] (see _compress).
    The checks of a SamplingPlan and of the design's size run once for the
    whole batch. Every plan is compressed to its unique rows (_compress),
    padded with zero rows (which leave R unchanged) to a common height of at
    least p, stacked as (B, l//2 + 1, rows, p + 1) and factored by one
    R-only QR; _solve_factored checks the rank and solves every triangle in
    one batch. Each plan gathers its rows from its own problem. Returns the
    stacks (ok, bs, objectives, errors): `ok` masks the plans that kept
    their rank, `bs` (count(ok), p, 1, l) and `objectives` (count(ok),) are
    theirs, made by one inverse transform (_from_half) and one
    _r_objectives call from the solve's half spectra, and `errors` holds
    each plan's SketchRankDeficient or None. The rank cutoff counts a
    plan's tau draws, not its unique rows. Padding costs rows, so a batch
    should hold plans of similar height, as the replicate driver's batches
    of one cell do.
    """
    n, p, l = problems[0].shape
    taus, picked, scale, _ = _compress(indices, weights, n, p)
    m = np.empty((l // 2 + 1, *picked.shape, p + 1), dtype=np.complex128)
    for j, pb in enumerate(problems):
        m[:, j, :, :p] = pb._design.half[:, picked[j]]
        m[:, j, :, p] = pb.response_half[:, picked[j], 0]
    m *= scale[:, :, None]
    ok, bhalf, errors = _solve_factored(_tsqr_r(_row_blocks(m.swapaxes(0, 1))), p, taus, l)
    kept = [pb for pb, keep in zip(problems, ok) if keep]
    return ok, _from_half(bhalf, l), _r_objectives(kept, bhalf), errors


def solve_subsampled(prob: TlsProblem, plan: SamplingPlan) -> TlsSolution:
    """Weighted least squares on the rows named by `plan`.

    Row t of the sketch is row plan.indices[t] of the data scaled by
    plan.weights[t]. The plan is solved as a batch of one by
    _solve_sketches: from an R-only QR of its compressed [A | y] stack and
    a solve with each triangle, never from the normal equations, which
    would square the slice condition numbers. The objective is read from
    the solution's half spectrum, as the solve leaves it, so it matches
    objective(prob, sol.b) to rounding, not bit for bit.
    """
    ok, bs, objectives, errors = _solve_sketches([prob], [plan.indices], [plan.weights])
    if not ok[0]:
        raise errors[0]
    return TlsSolution(b=bs[0], objective=float(objectives[0]), method="subsampled", plan=plan)


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

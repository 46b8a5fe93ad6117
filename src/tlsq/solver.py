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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

try:  # numpy's private QR kernel and error handler, which _qr_r runs in place
    from numpy.linalg._linalg import _raise_linalgerror_qr, _umath_linalg
except ImportError:  # a numpy that renamed them: _qr_r falls back to np.linalg.qr
    _umath_linalg = None

from .errors import DimensionMismatch, RankDeficient, SketchRankDeficient
from .tensor import _QR_BLOCK_ROWS, _from_half, _parseval_weights, _row_energy, _to_half
from .tensor import _bcirc_rows, _rank_cutoff, as_tensor, default_rank_tol

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
    return _checked_design(x, _to_half(x))[0]


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


def _checked_design(x, joint) -> tuple[_Design, np.ndarray]:
    """The _Design of design x and the R factor r of `joint`, whose leading p columns are x's.

    `joint` is the half stack of x, or of [X | y] as the TlsProblem
    constructor builds it, and _joint_r factors copies of its rows, so the
    kept stack is not overwritten. The leading p x p block R11 of r is the
    design's own R factor. The SVD R11 = U S V^H of each slice checks it
    against rank p and gives the Gram factors F = V S^-1. Only
    validate_design and the constructor run this check: every problem on an
    existing _Design reuses it.
    """
    n, p, l = x.shape
    r = _joint_r(joint)
    r11 = r[..., :p, :p]
    _, s, vh = np.linalg.svd(r11)
    tol = default_rank_tol((n, p), float(s.max(initial=0.0)))
    smallest = s[:, p - 1]
    if (smallest <= tol).any():
        k_bad = int(np.argmin(smallest)) + 1
        raise RankDeficient(f"design does not have rank {p} in DFT slice {k_bad} of {l}")
    return _Design(x, joint[..., :p], r11, vh.conj().mT / s[:, None, :]), r


@dataclass(frozen=True, eq=False)
class _Design:
    """A validated design and its slice factors, built once and shared by reference.

    `tensor` is the (n, p, l) design and `half` its (l//2 + 1, n, p) half
    stack, a view of the joint [X | y] stack when a TlsProblem built it.
    `r11` is the design's R factor in each slice and `f` its Gram factors
    F = V S^-1, from the SVD R11 = U S V^H: U = X F has orthonormal columns
    in each slice, and F F^H is the Gram inverse. Every problem on the
    design holds this one object, and the solver, sampling and stats read
    it. The leverage rows, the Gram rows, the leverage scores and the
    matrix baseline's view of the rows of bcirc(X) are computed on first
    use, once per design.
    """

    tensor: np.ndarray
    half: np.ndarray
    r11: np.ndarray
    f: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.tensor.shape

    def orthonormal_blocks(self, read):
        """read(start, U[:, start : start + _QR_BLOCK_ROWS]) for each block of U = X F, lazily.

        U is formed a block of _QR_BLOCK_ROWS rows at a time, and each block
        is dropped once `read` returns, before the next is formed, so U is
        never held whole and no two blocks are held at once.
        """
        starts = range(0, self.half.shape[1], _QR_BLOCK_ROWS)
        return (read(i, self.half[:, i : i + _QR_BLOCK_ROWS] @ self.f) for i in starts)

    @functools.cached_property
    def _u_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(leverage_rows, gram_rows), from one block pass over U = X F.

        Each block gives its rows of both, read from its interleaved float
        view: the Gram rows weight each entry by the squared column norm
        ||F e_j||^2 = 1 / s_j^2 of its column. Both are written into their
        (l//2 + 1, n) arrays as the pass goes, so only they and one block are
        held.
        """
        weights = np.repeat(_row_energy(self.f.mT), 2, axis=-1)
        energies, grams = np.empty((2, *self.half.shape[:2]))

        def read(start, u):
            part, rows = u.view(np.float64), slice(start, start + u.shape[1])
            energies[:, rows] = _row_energy(part)
            grams[:, rows] = np.einsum("hij,hij,hj->hi", part, part, weights)

        list(self.orthonormal_blocks(read))
        energies *= self.shape[1] / energies.sum(axis=1, keepdims=True)
        return energies, grams

    # Slice leverage rows ||u_i||^2, (l//2 + 1, n), each slice rescaled to its
    # exact trace p. S^-1 amplifies rounding, so the rows of U are orthonormal
    # only to about eps * kappa: at kappa = 2e7 a slice's rows sum to p only to
    # 1e-10, while each row stays accurate to a few 1e-10. Restoring the trace
    # keeps the probabilities built on the rows summing to one. Only the row
    # energies are kept, not U.
    leverage_rows = property(lambda self: self._u_rows[0])

    # Row terms g_i = ||x_i G||^2 of the Gram inverse G = F F^H, (l//2 + 1, n).
    # x_i G = u_i F^H and F^H F = S^-2, so g_i = sum_j |u_ij|^2 / s_j^2: the
    # trace of G X^H diag(m) X G is sum_i m_i g_i, read from the rows of U, so
    # no condition number is squared. Not rescaled.
    gram_rows = property(lambda self: self._u_rows[1])

    @functools.cached_property
    def bcirc_rows(self) -> np.ndarray:
        """The rows of bcirc(X), the matrix baseline's design, as _bcirc_rows' view; read-only."""
        return _bcirc_rows(self.tensor)

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
    and factors it once, by an R-only TSQR of copies of its rows (_joint_r).
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
        joint = _to_half(x, y)
        checked, r = _checked_design(x, joint)
        _fitted(checked, [y], [joint[..., x.shape[1] :]], r, [self])

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
    leave them, so no solution is transformed here. Each distinct design's
    R11 is broadcast over the solutions on it, so no copy of it is stacked
    per solution. An empty batch has no objectives.
    """
    if not problems:
        return np.zeros(0)
    ols_half, rho = (np.stack(a) for a in zip(*[(pb._ols_half, pb._rho) for pb in problems]))
    l = problems[0].shape[2]
    diff, excess = bhalf - ols_half, np.empty(rho.shape)
    for design in {id(pb._design): pb._design for pb in problems}.values():
        on = [j for j, pb in enumerate(problems) if pb._design is design]
        d = design.r11 @ diff[on]
        excess[on] = (d.real**2 + d.imag**2).sum(axis=(-2, -1))
    return (rho + excess) @ _parseval_weights(l) / l


def _joint_r(*stacks) -> np.ndarray:
    """R factor of the half stacks `stacks` side by side, [X | Y_1 ... Y_k], by one _tall_r.

    Each step copies the next rows of every stack into the TSQR buffer by
    one concatenate, so the stacks, which problems keep, are only read, and
    their concatenation is never held whole.
    """

    def gather(m, start, stop):
        np.concatenate([s[..., start:stop, :].mT for s in stacks], axis=-2, out=m.mT)

    *slices, n, _ = stacks[0].shape
    return _tall_r(gather, (*slices, sum(s.shape[-1] for s in stacks)), n, _QR_BLOCK_ROWS)


def _tall_r(gather, shape, total, step, dtype=np.complex128) -> np.ndarray:
    """R factors (*batch, cols, cols) of a batch of tall stacks of `total` rows, by sequential TSQR.

    `shape` is (*batch, cols). The stacks are factored through one buffer
    of h = min(max(total, cols), max(step, 2 cols)) rows, column-major per
    stack (Demmel, Grigori, Hoemmen & Langou 2012). The first step gathers
    h rows; each later step keeps the previous R where _qr_r leaves it, in
    the top cols rows, and gathers the next h - cols rows below it, and the
    last step factors only the rows it holds. gather(m, start, stop) writes
    rows start:stop of every stack into m, a (*batch, stop - start, cols)
    column-major view of the buffer, zero-filling those of a stack that ends
    sooner; zero rows leave R unchanged. Rows past `total` are zero-filled
    up to cols, so every R is square. Each step factors the whole batch in
    place by one _qr_r call, so a stack of at most h rows is factored once
    and normal equations are never formed. The buffer, of exactly
    prod(shape) * h entries of `dtype`, is the routine's own: no caller
    sizes it, and it is freed on return. R is copied out of it once, after
    the last step, so the routine holds its buffer and, at the end, one R.
    """
    *batch, cols = shape
    height = min(max(total, cols), max(step, 2 * cols))
    buffer = np.empty((*batch, cols, height), dtype)
    buffer[..., total:] = 0.0  # the rows past the stacks' end, when they are shorter than cols
    top = start = 0
    while start < total:
        rows = min(total - start, height - top)
        gather(buffer[..., top : top + rows].mT, start, start + rows)
        _qr_r(buffer[..., : max(top + rows, cols)].mT)
        top, start = cols, start + rows
    return buffer[..., :cols].mT.copy()


def _qr_r(a) -> np.ndarray:
    """np.linalg.qr(a, mode="r") of a complex128 or float64 stack, bit for bit, factored in place.

    np.linalg.qr copies its input and runs numpy's own kernel on the copy;
    here the kernel overwrites `a` with its Householder form, in any layout,
    so only a stack that nothing reads afterwards may be passed. R is left
    in a's top rows, and returned as that view: the reflectors below its
    diagonal are overwritten with +0.0, as np.triu writes, so a step
    allocates no R. Under the errstate np.linalg.qr sets, with its own
    handler, LAPACK's error code raises LinAlgError and no floating-point
    warning is shown. Where numpy lacks the private kernel or handler,
    np.linalg.qr's R is written into a's top rows instead: the same bits and
    view, at the cost of numpy's copy, and the rows below R keep a's entries.
    """
    r = a[..., : min(a.shape[-2:]), :]
    if _umath_linalg is None:
        r[...] = np.linalg.qr(a, mode="r")
    else:
        with np.errstate(all="ignore", invalid="call", call=_raise_linalgerror_qr):
            _umath_linalg.qr_r_raw(a, signature="d->d" if a.dtype == np.float64 else "D->D")
        np.copyto(r, 0.0, where=np.tri(*r.shape[-2:], -1, dtype=bool))
    return r


def _solve_factored(r, p: int, rows, l: int):
    """Rank-check a batch of factored [A | Y] stacks and solve the well-posed ones.

    `r` (B, l//2 + 1, m, p + k) holds the R factors, complex, or real for
    the matrix baseline's l = 1 system; `rows[j]` is the number of rows
    stack j stands for. A slice whose singular values fall to lstsq's
    default cutoff eps * max(rows, p) * s_max has lost rank. One solve
    with R11 and [R12 | I] gives the solutions R11^-1 R12 and R11^-1.
    A stack with ||R11||_F ||R11^-1||_F eps max(rows, p) <= 1/2 in every
    slice passes the cutoff by a factor of 2 in each, since the 2-norm
    condition number is at most that Frobenius product, and keeps that
    solution. Only the stacks this screen rejects (a zero pivot, a
    non-finite or a larger bound) have their singular values taken, and
    those of full rank are solved again. So one short plan costs the SVD of
    its own stack, not of the batch. Returns (ok, bhalf, errors): `ok`
    masks the stacks of full rank, `bhalf` holds their half-spectrum
    solutions, (count(ok), l//2 + 1, p, k), and `errors` has one entry per
    stack, a SketchRankDeficient naming the first short slice (1-based) of
    a stack that lost rank, out of l, and None otherwise. The sketch
    solvers keep this mask and error list in the batch they return.
    """
    cutoff = _rank_cutoff(rows, p)
    r11 = r[..., :p, :p]
    # R11 is upper triangular, so LU swaps no rows and fails exactly on a zero
    # diagonal entry; such a stack solves with I in its place and is rejected.
    singular = (np.diagonal(r11, axis1=-2, axis2=-1) == 0).any(axis=(1, 2))
    eye = np.eye(p, dtype=r.dtype)
    safe = np.where(singular[:, None, None, None], eye, r11) if singular.any() else r11
    rhs = np.concatenate([r[..., :p, p:], np.broadcast_to(eye, r11.shape)], axis=-1)
    sol = np.linalg.solve(safe, rhs)
    bound = np.linalg.norm(r11, axis=(-2, -1)) * np.linalg.norm(sol[..., -p:], axis=(-2, -1))
    ok = (bound * cutoff[:, None] <= 0.5).all(axis=1) & ~singular
    bhalf, errors, rejected = sol[..., :-p], [None] * len(ok), np.flatnonzero(~ok)
    if rejected.size:
        s = np.linalg.svd(r11[rejected], compute_uv=False)
        tol = cutoff[rejected, None] * s[..., 0]
        short = s[..., p - 1] <= tol
        for k, short_k, s_k, tol_k in zip(rejected, short, s, tol):
            if short_k.any():
                j = int(np.argmax(short_k))
                rank = int(np.count_nonzero(s_k[j] > tol_k[j]))
                text = f"sketched design has rank {rank} < {p} in DFT slice {j + 1} of {l}"
                errors[k] = SketchRankDeficient(text, slice_index=j + 1)
        rescued = rejected[~short.any(axis=1)]
        ok[rescued] = True
        bhalf[rescued] = _back_substitute(r[rescued], p)
    return ok, bhalf[ok], errors


def _back_substitute(r, p: int) -> np.ndarray:
    """R11^-1 R12 of a stack of R factors of [A | Y], where A has p columns."""
    # R11 is upper triangular, so LU with partial pivoting swaps no rows and
    # this is a back substitution.
    return np.linalg.solve(r[..., :p, :p], r[..., :p, p:])


def _on_design(design: _Design, responses) -> list:
    """Problems on `design`, one per response, each holding that same _Design.

    One _to_half call transforms the responses into one (l//2 + 1, n, k)
    stack, and each problem keeps its column as a view. One R-only TSQR of
    [X | Y_1 ... Y_k], the design's half stack and that stack side by side
    (_joint_r), fits every response (_fitted). The design is already
    validated, so its rank is not checked again.
    """
    ys = _check_responses(responses, design.shape)
    stack = _to_half(*ys)
    return _fitted(design, ys, np.split(stack, len(ys), axis=-1), _joint_r(design.half, stack))


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
    a row drawn with different weights. The plans' (plan, row) keys are put
    in order by a stable sort, which keeps each row's draws in input order,
    and read as runs (_compress_sorted). Returns (taus, picked, scale):
    plan j's unique rows and their scales lead picked[j] and scale[j], (B,
    rows) each, and zeros pad them to rows = max(unique rows of any plan,
    p), so plan j's unique rows are its positive scales.
    """
    taus = np.array([len(row) for row in indices])
    if len(weights) != taus.size or any(len(w) != t for w, t in zip(weights, taus)):
        raise ValueError("indices and weights must both have length tau")
    weights = np.concatenate(weights)
    keys = _plan_keys(taus, np.concatenate(indices), weights, n, p)
    order = np.argsort(keys, kind="stable")
    return _compress_sorted(taus, keys[order], weights[order], n, p)


def _plan_keys(taus, indices, weights, n: int, p: int) -> np.ndarray:
    """The flat keys plan * n + row of a batch's draws, once the draws pass the batch's checks.

    `indices` and `weights` are the plans' draws laid end to end, taus[j]
    of them for plan j. Weights must be positive and finite, as a
    SamplingPlan's are, every plan needs tau >= p and every row must fall
    in the n-row system.
    """
    if not np.isfinite(weights).all() or (weights <= 0).any():
        raise ValueError("weights must be positive and finite")
    if (taus < p).any():
        raise ValueError(f"plan has tau={taus[taus < p][0]} < p={p}")
    if indices.min() < 0 or indices.max() >= n:
        raise ValueError("plan indices fall outside the design's rows")
    return np.repeat(np.arange(taus.size) * n, taus) + indices


def _compress_sorted(taus, keys, weights, n: int, p: int):
    """_compress's (taus, picked, scale) of a batch given by its sorted draws.

    `keys` holds every draw's key plan * n + row in ascending order, and
    weights[t] is draw t's weight. A plan's unique rows are its runs of
    equal keys, and a run's scale is the square root of its squared
    weights summed in the order given. So a stable sort of the keys, which
    keeps each row's draws in input order, gives the sums of a bincount
    over the unsorted draws bit for bit. Memory grows with the draws, not
    with B * n.
    """
    count = taus.size
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    owner, rows = np.divmod(keys[first], n)
    unique = np.bincount(owner, minlength=count)
    slot = np.arange(owner.size) - np.repeat(np.cumsum(unique) - unique, unique)
    picked = np.zeros((count, max(int(unique.max()), p)), dtype=np.intp)
    scale = np.zeros(picked.shape)
    picked[owner, slot] = rows
    scale[owner, slot] = np.sqrt(np.bincount(np.cumsum(first) - 1, weights=weights**2))
    return taus, picked, scale


def _solve_sketches(problems, indices, weights):
    """Solve the sketches of several plans in one batch, plan j on problems[j].

    Plan j draws rows indices[j] with weights weights[j]. The batch is
    compressed (_compress), factored (_factor_sketches) and finished
    (_finish_sketches) in a row, so it returns the stacks (ok, bs,
    objectives, errors): `ok` masks the plans that kept their rank, `bs`
    (count(ok), p, 1, l) and `objectives` (count(ok),) are theirs, and
    `errors` holds each plan's SketchRankDeficient or None. The replicate
    driver calls the two halves itself, so that one finish serves the
    factors of a chunk's batches.
    """
    n, p, _ = problems[0].shape
    taus, picked, scale = _compress(indices, weights, n, p)
    return _finish_sketches(problems, _factor_sketches(problems, picked, scale), taus)


def _factor_sketches(problems, picked, scale) -> np.ndarray:
    """The R factors (B, l//2 + 1, p + 1, p + 1) of a batch's sketches, by one _tall_r.

    The plans come compressed, as _compress returns them (picked, scale):
    plan j's unique rows picked[j], scaled by scale[j], padded with
    zero rows (which leave R unchanged) to a common height of at least p.
    Each step gathers the next rows of every plan from its own problem,
    scaled on the way, into the TSQR buffer, column-major per slice, as
    the half stacks are, so the gather reads and writes in one order and
    LAPACK's layout reads it contiguously. A batch up to _QR_BLOCK_ROWS
    rows tall is gathered and factored in one step. _tall_r sizes that
    buffer for the batch by its own height rule and frees it on return,
    so a batch holds it only while it is factored, and nothing else sizes
    it. A batch of height p is zero-filled to p + 1 rows, so that the
    factors of batches of any height stack. Padding costs rows, so a batch
    should hold plans of similar height, as the replicate driver's batches
    of one cell do.
    """
    _, p, l = problems[0].shape

    def gather(m, start, stop):
        for j, pb in enumerate(problems):
            rows, w = picked[j, start:stop], scale[j, start:stop]
            np.multiply(pb._design.half.mT[..., rows], w, out=m[j].mT[:, :p])
            np.multiply(pb.response_half.mT[:, 0, rows], w, out=m[j, ..., p])

    shape = (len(problems), l // 2 + 1, p + 1)
    return _tall_r(gather, shape, picked.shape[1], _QR_BLOCK_ROWS)


def _finish_sketches(problems, r, taus):
    """Rank-check and solve factored sketches, plan j on problems[j], in one batch.

    `r` stacks the plans' R factors as _factor_sketches leaves them, from
    one batch or several, and taus[j] counts plan j's draws, which the rank
    cutoff counts, not its unique rows. _solve_factored checks the rank and
    solves every triangle; one inverse transform (_from_half) and one
    _r_objectives call make the kept plans' solutions and objectives from
    the solve's half spectra. Returns _solve_sketches' stacks (ok, bs,
    objectives, errors).
    """
    _, p, l = problems[0].shape
    ok, bhalf, errors = _solve_factored(r, p, taus, l)
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


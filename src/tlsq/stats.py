"""Closed-form first-order variance diagnostics for the subsampled estimator.

Both formulas here come from linearizing the estimator in the random sampling
weights around their mean; the Taylor remainder is deliberately dropped and
its size is validated by the Monte-Carlo acceptance checks instead. The
conditional form fixes the observed response and captures the sampling
randomness only; the unconditional form also integrates over the model
noise, whose variance sigma^2 must be supplied.

sigma^2 is the variance of one noise tube: the noise tensor e (n, 1, l)
satisfies E[e * e^T] = sigma^2 I under the t-product. Noise with i.i.d.
N(0, s^2) entries, as experiments.gen_response draws it, has tube variance
l * s^2, so pass sigma2 = l * s^2 for it.

Each result is a T-symmetric, T-positive-semidefinite p-by-p tubal matrix;
its tubal trace (the mean of the DFT-slice traces) equals the total variance
of the vectorized estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroProbabilityRow
from .sampling import SamplingDistribution, _sandwich_numerators
from .tensor import _from_half, _row_energy, as_tensor
from .solver import TlsProblem, _as_design

# Rows whose numerator is this far below the caller's reference scale are
# treated as exact zeros when paired with a zero sampling probability.
_ZERO_ROW_TOL = 1e-10

# The sandwich cores U^H diag(m) U are summed over blocks of this many rows,
# so neither U = X F nor its weighted rows are held for the whole design.
_CORE_BLOCK_ROWS = 512


@dataclass(frozen=True, eq=False)
class VarianceReport:
    """First-order variance terms for one distribution at one sample size.

    `conditional` is the sampling-only covariance given the response;
    `unconditional` additionally integrates over model noise and is only
    present when sigma2 was supplied. Traces are tubal traces.
    """

    kind: str
    tau: int
    conditional: np.ndarray | None = None
    unconditional: np.ndarray | None = None
    trace_conditional: float | None = None
    trace_unconditional: float | None = None
    sigma2: float | None = None


def trace_t(a) -> float:
    """Tubal trace: the mean of the traces of the DFT slices.

    For a real tubal matrix it equals the trace of the first frontal slice,
    which is what is read, so no transform is taken.
    """
    a = as_tensor(a, "square tubal matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"trace needs a square tubal matrix, got {a.shape}")
    return float(np.trace(a[:, :, 0]))


def _sandwich(design, middle) -> np.ndarray:
    """Assemble F (U^H diag(middle_k) U) F^H per slice, U = X F, and transform back.

    `design` is a _Design and `middle` a real (l//2 + 1, n) array of
    nonnegative row weights per slice, so every slice of the result is
    Hermitian positive semidefinite. This is G X^H diag(middle_k) X G with
    the Gram inverse G = F F^H, but its core is formed from the rows of U,
    whose columns are orthonormal, and F is applied last, so the rounding
    error grows like eps times the slice condition number, not its square.
    U is formed a block of rows at a time. A batch of middles
    (k, l//2 + 1, n) gives a batch of k tensors: every core comes from one
    stacked matmul per block of rows, (diag(m) U)^H U, with one conjugate
    of the weighted rows.
    """
    core = 0
    for start, u in design.orthonormal_blocks(_CORE_BLOCK_ROWS):
        weighted = middle[..., start : start + _CORE_BLOCK_ROWS, None] * u
        core = core + np.conjugate(weighted, out=weighted).mT @ u
    f = design.f
    return _from_half(f @ core @ f.conj().mT, design.shape[2])


def _row_weights(numerators, probs, what: str, scale: float) -> np.ndarray:
    """Divide per-row numerators (slices x rows) by probabilities, policing zero-probability rows.

    A zero-probability row is only legal when its numerator is zero to
    rounding, at most _ZERO_ROW_TOL * `scale`; then the row contributes
    nothing. `scale` is the size the numerators take on this data, which
    the caller knows, so the check does not depend on the data's units.
    Otherwise the first-order formulas are meaningless and
    ZeroProbabilityRow is raised.
    """
    zero = probs <= 0.0
    if zero.any():
        live = np.abs(numerators[:, zero]).max(axis=0) > _ZERO_ROW_TOL * scale
        if live.any():
            i = int(np.flatnonzero(zero)[np.argmax(live)]) + 1
            raise ZeroProbabilityRow(
                f"row {i} has zero sampling probability but a nonzero {what}"
            )
    out = np.zeros_like(numerators)
    np.divide(numerators, probs, out=out, where=~zero)
    return out


def conditional_variance(prob: TlsProblem, dist: SamplingDistribution, tau: int) -> np.ndarray:
    """Sampling-conditional covariance of the subsampled estimator, first order.

    The residual of the exact solution enters through its per-row energy;
    each row is inflated by 1/(tau * pi_i). Under the uniform and leverage
    distributions the formula collapses to the n/tau and (p/tau)/h_i forms.
    The exact solution is the problem's own, R11^-1 R12 of the [X | y]
    factor made with the problem, so no tall factorization is run here.
    """
    return _sandwich(prob._design, _conditional_middle(prob, dist, tau))


def _conditional_middle(prob: TlsProblem, dist: SamplingDistribution, tau: int) -> np.ndarray:
    """Row weights (l//2 + 1, n) of the conditional sandwich: residual energy / (tau * pi_i)."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    energy = _row_energy(prob.response_half - prob._design.half @ prob._ols_half)
    scale = float(np.abs(prob.response_half).max() ** 2)
    return _row_weights(energy, dist.probs, "residual", scale) / tau


def ols_variance(design, sigma2: float) -> np.ndarray:
    """Covariance of the exact estimator under i.i.d. noise: sigma^2 (X^T * X)^-1.

    `sigma2` is the tube variance, E[e * e^T] = sigma2 I; for i.i.d.
    N(0, s^2) entries pass l * s^2 (see the module docstring). The Gram
    inverse is F F^H, from the design's Gram factors.
    """
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    design = _as_design(design)
    return _from_half(sigma2 * (design.f @ design.f.conj().mT), design.shape[2])


def unconditional_variance(
    design, dist: SamplingDistribution, tau: int, sigma2: float
) -> np.ndarray:
    """Noise-integrated covariance of the subsampled estimator, first order.

    Sum of the exact estimator's covariance and a sampling penalty that
    scales with sigma^2/tau and inflates each row's hat-matrix complement by
    1/pi_i. Accepts a design tensor or a TlsProblem (the response is unused).
    Under the uniform and leverage distributions the penalty collapses to the
    n/tau and (p/tau)/h_i forms, as in the conditional form. `sigma2` is the
    tube variance, E[e * e^T] = sigma2 I; for i.i.d. N(0, s^2) entries pass
    l * s^2 (see the module docstring).
    """
    design = _as_design(design)
    middle = _unconditional_middle(design, dist, tau, sigma2)
    return ols_variance(design, sigma2) + _sandwich(design, middle)


def _unconditional_middle(design, dist: SamplingDistribution, tau: int, sigma2: float):
    """Row weights (l//2 + 1, n) of the noise sandwich: sigma2 (1 - h_i(k)) / (tau * pi_i)."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    complement = 1.0 - design.leverage_rows
    return _row_weights(complement, dist.probs, "hat-matrix complement", 1.0) * (sigma2 / tau)


def sandwich_middle_trace(design, probs) -> float:
    """Tubal trace of the middle factor of the unconditional sandwich.

    This is sum_i (1/pi_i) * mean_k complement_i(k) * ||row_i(k)||^2, the
    quantity the optimal distribution provably minimizes over the simplex.
    Rows with zero probability must have a zero numerator.
    """
    design = _as_design(design)
    probs = np.asarray(probs, dtype=np.float64)
    n = design.shape[0]
    if probs.shape != (n,):
        raise DimensionMismatch(f"probabilities shape {probs.shape}; expected ({n},)")
    numerators, row_energy = _sandwich_numerators(design)
    weighted = _row_weights(numerators[None, :], probs, "sandwich numerator", row_energy.max())
    return float(weighted.sum())


def variance_report(
    prob: TlsProblem,
    dist: SamplingDistribution,
    tau: int,
    sigma2: float | None = None,
) -> VarianceReport:
    """Bundle the conditional and (when sigma2 is given) unconditional terms.

    `sigma2` is the tube variance, E[e * e^T] = sigma2 I; for i.i.d.
    N(0, s^2) entries pass l * s^2 (see the module docstring). The terms
    share the design, so their sandwich cores come from one stacked pass
    over its rows, also when only the conditional term is asked for.
    """
    design = prob._design
    middles = [_conditional_middle(prob, dist, tau)]
    if sigma2 is not None:
        middles.append(_unconditional_middle(design, dist, tau, sigma2))
    cond, *penalty = _sandwich(design, np.stack(middles))
    uncond = None if sigma2 is None else ols_variance(design, sigma2) + penalty[0]
    return VarianceReport(
        kind=dist.kind,
        tau=tau,
        conditional=cond,
        unconditional=uncond,
        trace_conditional=trace_t(cond),
        trace_unconditional=None if uncond is None else trace_t(uncond),
        sigma2=sigma2,
    )


def estimator_spread(estimates) -> float:
    """Mean squared Frobenius distance of estimates from their sample mean.

    Matches the tubal trace of the empirical covariance, so it is directly
    comparable with trace_t of the closed-form variance terms.
    """
    stack = np.stack([as_tensor(b, "estimate") for b in estimates])
    if stack.shape[0] < 2:
        raise ValueError("need at least two estimates")
    centered = stack - stack.mean(axis=0)
    return float((centered**2).sum() / stack.shape[0])

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
from .solver import TlsProblem, _design_factors

# Rows whose numerator is this far (relative) below the largest are treated
# as exact zeros when paired with a zero sampling probability.
_ZERO_ROW_TOL = 1e-10

# The sandwich cores X^H diag(m) X are summed over blocks of this many rows,
# so the weighted rows are never held for the whole design.
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


def _gram_inverses(f) -> np.ndarray:
    """Inverse of the slice Gram matrices, F F^H = V S^-2 V^H, as an (l//2 + 1, p, p) stack.

    `f` holds the Gram factors F = V S^-1 of a design validated to full
    slice rank (TlsProblem.gram_factors), so this is a true inverse and the
    slice condition numbers are never squared.
    """
    return f @ f.conj().mT


def _sandwich(xhalf, g, middle, l: int) -> np.ndarray:
    """Assemble G * X^H diag(middle_k) X * G per slice and transform back.

    `middle` is a real (l//2 + 1, n) array of nonnegative row weights per
    slice, so every slice of the result is Hermitian positive semidefinite.
    A batch of middles (k, l//2 + 1, n) gives a batch of k tensors: every
    core comes from one stacked matmul per block of rows, (diag(m) X)^H X,
    with one conjugate of the weighted rows.
    """
    core = 0
    for start in range(0, xhalf.shape[1], _CORE_BLOCK_ROWS):
        rows = xhalf[:, start : start + _CORE_BLOCK_ROWS]
        weighted = middle[..., start : start + _CORE_BLOCK_ROWS, None] * rows
        core = core + np.conjugate(weighted, out=weighted).mT @ rows
    return _from_half(g @ core @ g, l)


def _row_weights(numerators, probs, what: str) -> np.ndarray:
    """Divide per-row numerators (slices x rows) by probabilities, policing zero-probability rows.

    A zero-probability row is only legal when its numerator is zero to
    rounding; then the row contributes nothing. Otherwise the first-order
    formulas are meaningless and ZeroProbabilityRow is raised.
    """
    scale = float(np.abs(numerators).max(initial=0.0))
    zero = probs <= 0.0
    if zero.any():
        live = np.abs(numerators[:, zero]).max(axis=0) > _ZERO_ROW_TOL * max(1.0, scale)
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
    g = _gram_inverses(prob.gram_factors)
    return _sandwich(prob.design_half, g, _conditional_middle(prob, dist, tau), prob.shape[2])


def _conditional_middle(prob: TlsProblem, dist: SamplingDistribution, tau: int) -> np.ndarray:
    """Row weights (l//2 + 1, n) of the conditional sandwich: residual energy / (tau * pi_i)."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    energy = _row_energy(prob.response_half - prob.design_half @ prob._ols_half)
    return _row_weights(energy, dist.probs, "residual") / tau


def ols_variance(design, sigma2: float) -> np.ndarray:
    """Covariance of the exact estimator under i.i.d. noise: sigma^2 (X^T * X)^-1.

    `sigma2` is the tube variance, E[e * e^T] = sigma2 I; for i.i.d.
    N(0, s^2) entries pass l * s^2 (see the module docstring).
    """
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    x, _, f, _ = _design_factors(design)
    return _from_half(sigma2 * _gram_inverses(f), x.shape[2])


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
    x, xhalf, f, rows = _design_factors(design)
    l = x.shape[2]
    g = _gram_inverses(f)
    middle = _unconditional_middle(rows, dist, tau, sigma2)
    return _from_half(sigma2 * g, l) + _sandwich(xhalf, g, middle, l)


def _unconditional_middle(rows, dist: SamplingDistribution, tau: int, sigma2: float):
    """Row weights (l//2 + 1, n) of the noise sandwich: sigma2 (1 - h_i(k)) / (tau * pi_i)."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    return _row_weights(1.0 - rows, dist.probs, "hat-matrix complement") * (sigma2 / tau)


def sandwich_middle_trace(design, probs) -> float:
    """Tubal trace of the middle factor of the unconditional sandwich.

    This is sum_i (1/pi_i) * mean_k complement_i(k) * ||row_i(k)||^2, the
    quantity the optimal distribution provably minimizes over the simplex.
    Rows with zero probability must have a zero numerator.
    """
    x, xhalf, _, rows = _design_factors(design)
    probs = np.asarray(probs, dtype=np.float64)
    n, p, l = x.shape
    if probs.shape != (n,):
        raise DimensionMismatch(f"probabilities shape {probs.shape}; expected ({n},)")
    numerators = _sandwich_numerators(xhalf, rows, l)[0]
    weighted = _row_weights(numerators[None, :], probs, "sandwich numerator")
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
    l = prob.shape[2]
    g = _gram_inverses(prob.gram_factors)
    middles = [_conditional_middle(prob, dist, tau)]
    if sigma2 is not None:
        middles.append(_unconditional_middle(prob.leverage_rows, dist, tau, sigma2))
    cond, *penalty = _sandwich(prob.design_half, g, np.stack(middles), l)
    uncond = None if sigma2 is None else _from_half(sigma2 * g, l) + penalty[0]
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

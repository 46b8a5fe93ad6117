"""End-to-end oracle equivalence suites runnable from the CLI.

Each suite compares the DFT-domain fast paths against brute-force
block-circulant references on small random instances with fixed seeds, and
prints one "name: passed/total" line per suite.
"""

from __future__ import annotations

import numpy as np

from .sampling import (
    draw_plan,
    leverage_probs,
    optimal_probs,
    shrinked_leverage_probs,
    uniform_probs,
)
from .solver import TlsProblem, solve_ols, solve_subsampled
from .tensor import (
    bcirc,
    bcirc_product,
    fold,
    fro_norm,
    t_pinv,
    t_product,
    t_transpose,
    thin_t_svd,
    unfold,
)

_SEED = 20240517


def _rand_dims(rng, max_side=6, max_tubes=8):
    """(n, p, l), drawn in that order, n and p in 1..max_side and l in 1..max_tubes."""
    return tuple(int(rng.integers(1, top + 1)) for top in (max_side, max_side, max_tubes))


def _case_t_product(rng) -> bool:
    n, p, l = _rand_dims(rng)
    r = int(rng.integers(1, 7))
    x = rng.standard_normal((n, p, l))
    y = rng.standard_normal((p, r, l))
    return np.abs(t_product(x, y) - bcirc_product(x, y)).max() <= 1e-10


def _case_transpose(rng) -> bool:
    n, p, l = _rand_dims(rng)
    x = rng.standard_normal((n, p, l))
    ok = np.array_equal(t_transpose(t_transpose(x)), x)
    ok &= np.abs(bcirc(t_transpose(x)) - bcirc(x).T).max() == 0.0
    xh = np.fft.fft(x, axis=2)
    parseval = abs((np.abs(xh) ** 2).sum() / l - fro_norm(x) ** 2)
    ok &= parseval <= 1e-10 * max(1.0, fro_norm(x) ** 2)
    return ok


def _case_tsvd(rng) -> bool:
    n, p, l = _rand_dims(rng)
    x = rng.standard_normal((n, p, l))
    svd = thin_t_svd(x)
    recon = t_product(t_product(svd.u, svd.s), t_transpose(svd.v))
    ok = fro_norm(recon - x) <= 1e-8 * max(1.0, fro_norm(x))
    mine = np.sort(svd.slice_singular_values.ravel())
    dense = np.linalg.svd(bcirc(x), compute_uv=False)[: mine.size]  # descending
    ok &= np.abs(mine - dense[::-1]).max() <= 1e-8 * max(1.0, dense.max(initial=0.0))
    return ok


def _case_pinv(rng) -> bool:
    n, p, l = _rand_dims(rng)
    x = rng.standard_normal((n, p, l))
    y = t_pinv(x)
    ok = True
    for a, b in ((x, y), (y, x)):  # the Penrose conditions a b a = a and (a b)^T = a b
        ab = t_product(a, b)
        ok &= np.abs(t_product(ab, a) - a).max() <= 1e-8
        ok &= np.abs(t_transpose(ab) - ab).max() <= 1e-8
    return ok


def _case_solver(rng) -> bool:
    n, p, l = 40, 3, 4
    x = rng.standard_normal((n, p, l))
    y = rng.standard_normal((n, 1, l))
    prob = TlsProblem(x, y)
    sol = solve_ols(prob)
    dense = np.linalg.lstsq(bcirc(x), unfold(y), rcond=None)[0]
    ok = np.abs(sol.b - fold(dense, p, l)).max() <= 1e-8 * max(1.0, np.abs(dense).max())
    plan = draw_plan(uniform_probs(n), 4 * p, seed=int(rng.integers(2**32)))
    fast = solve_subsampled(prob, plan)
    sketch_x = x[plan.indices] * plan.weights[:, None, None]
    sketch_y = y[plan.indices] * plan.weights[:, None, None]
    spatial = solve_ols(TlsProblem(sketch_x, sketch_y))
    ok &= np.abs(fast.b - spatial.b).max() <= 1e-10 * max(1.0, np.abs(fast.b).max())
    return ok


def _case_distributions(rng) -> bool:
    n, p, l = 25, 3, 4
    x = rng.standard_normal((n, p, l))
    lev = leverage_probs(x)
    ok = abs(lev.leverage.sum() - p) <= 1e-10
    for dist in (uniform_probs(n), lev, shrinked_leverage_probs(x, 0.9), optimal_probs(x)):
        ok &= abs(dist.probs.sum() - 1.0) <= 1e-12
    return ok


# (name, one random case, number of cases); each suite draws its cases from
# its own generator seeded with _SEED.
SUITES = (
    ("t-product vs block-circulant", _case_t_product, 20),
    ("transpose and Parseval", _case_transpose, 20),
    ("thin tubal SVD", _case_tsvd, 10),
    ("pseudoinverse identities", _case_pinv, 10),
    ("solver equivalence", _case_solver, 5),
    ("sampling distributions", _case_distributions, 5),
)


def run(out) -> bool:
    """Run every suite; print per-suite pass counts to `out`; True when all pass."""
    all_ok = True
    for name, case, cases in SUITES:
        rng = np.random.default_rng(_SEED)
        passed = sum(bool(case(rng)) for _ in range(cases))
        print(f"{name}: {passed}/{cases} passed", file=out)
        all_ok &= passed == cases
    return all_ok

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
    n = int(rng.integers(1, max_side + 1))
    p = int(rng.integers(1, max_side + 1))
    l = int(rng.integers(1, max_tubes + 1))
    return n, p, l


def _suite_t_product(rng, cases=20):
    passed = 0
    for _ in range(cases):
        n, p, l = _rand_dims(rng)
        r = int(rng.integers(1, 7))
        x = rng.standard_normal((n, p, l))
        y = rng.standard_normal((p, r, l))
        if np.abs(t_product(x, y) - bcirc_product(x, y)).max() <= 1e-10:
            passed += 1
    return passed, cases


def _suite_transpose(rng, cases=20):
    passed = 0
    for _ in range(cases):
        n, p, l = _rand_dims(rng)
        x = rng.standard_normal((n, p, l))
        ok = np.array_equal(t_transpose(t_transpose(x)), x)
        ok &= np.abs(bcirc(t_transpose(x)) - bcirc(x).T).max() == 0.0
        xh = np.fft.fft(x, axis=2)
        parseval = abs((np.abs(xh) ** 2).sum() / l - fro_norm(x) ** 2)
        ok &= parseval <= 1e-10 * max(1.0, fro_norm(x) ** 2)
        passed += bool(ok)
    return passed, cases


def _suite_tsvd(rng, cases=10):
    passed = 0
    for _ in range(cases):
        n, p, l = _rand_dims(rng)
        x = rng.standard_normal((n, p, l))
        svd = thin_t_svd(x)
        recon = t_product(t_product(svd.u, svd.s), t_transpose(svd.v))
        ok = fro_norm(recon - x) <= 1e-8 * max(1.0, fro_norm(x))
        dense = np.linalg.svd(bcirc(x), compute_uv=False)
        mine = np.sort(svd.slice_singular_values.ravel())[::-1]
        dense = dense[: mine.size]
        ok &= np.abs(np.sort(mine) - np.sort(dense)).max() <= 1e-8 * max(1.0, dense.max(initial=0.0))
        passed += bool(ok)
    return passed, cases


def _suite_pinv(rng, cases=10):
    passed = 0
    for _ in range(cases):
        n, p, l = _rand_dims(rng)
        x = rng.standard_normal((n, p, l))
        y = t_pinv(x)
        ok = np.abs(t_product(t_product(x, y), x) - x).max() <= 1e-8
        ok &= np.abs(t_product(t_product(y, x), y) - y).max() <= 1e-8
        xy = t_product(x, y)
        yx = t_product(y, x)
        ok &= np.abs(t_transpose(xy) - xy).max() <= 1e-8
        ok &= np.abs(t_transpose(yx) - yx).max() <= 1e-8
        passed += bool(ok)
    return passed, cases


def _suite_solver(rng, cases=5):
    passed = 0
    for _ in range(cases):
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
        passed += bool(ok)
    return passed, cases


def _suite_distributions(rng, cases=5):
    passed = 0
    for _ in range(cases):
        n, p, l = 25, 3, 4
        x = rng.standard_normal((n, p, l))
        lev = leverage_probs(x)
        ok = abs(lev.leverage.sum() - p) <= 1e-10
        for dist in (uniform_probs(n), lev, shrinked_leverage_probs(x, 0.9), optimal_probs(x)):
            ok &= abs(dist.probs.sum() - 1.0) <= 1e-12
        passed += bool(ok)
    return passed, cases


SUITES = (
    ("t-product vs block-circulant", _suite_t_product),
    ("transpose and Parseval", _suite_transpose),
    ("thin tubal SVD", _suite_tsvd),
    ("pseudoinverse identities", _suite_pinv),
    ("solver equivalence", _suite_solver),
    ("sampling distributions", _suite_distributions),
)


def run(out=None) -> bool:
    """Run every suite; print per-suite pass counts; True when all pass."""
    import sys

    out = out or sys.stdout
    all_ok = True
    for name, suite in SUITES:
        rng = np.random.default_rng(_SEED)
        passed, total = suite(rng)
        print(f"{name}: {passed}/{total} passed", file=out)
        all_ok &= passed == total
    return all_ok

"""Solver equivalence against dense flattened least squares and path identities."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tlsq
from tlsq import experiments, sampling, solver, tensor
from tlsq.errors import DegenerateDistribution, DimensionMismatch, RankDeficient, SketchRankDeficient
from tlsq.tensor import _from_half, _to_half


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def make_problem(n=40, p=3, l=4, seed=0, sigma=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p, l))
    y = rng.standard_normal((n, 1, l)) * sigma
    return tlsq.TlsProblem(x, y)


def all_rows_plan(n):
    """Every row once with unit weight: the sketch is the whole problem."""
    return tlsq.SamplingPlan(tau=n, indices=np.arange(n), weights=np.ones(n))


class TestProblemValidation:
    def test_requires_overdetermined(self):
        with pytest.raises(DimensionMismatch):
            tlsq.TlsProblem(rand((2, 3, 2), 0), rand((2, 1, 2), 1))

    def test_requires_matching_response(self):
        with pytest.raises(DimensionMismatch, match="response"):
            tlsq.TlsProblem(rand((6, 2, 3), 2), rand((6, 1, 2), 3))

    def test_rejects_slice_rank_deficiency(self):
        x = np.repeat(rand((8, 2, 1), 4), 3, axis=2)
        with pytest.raises(RankDeficient, match="slice"):
            tlsq.TlsProblem(x, rand((8, 1, 3), 5))

    def test_with_response_shares_design_state(self):
        prob = make_problem(seed=6)
        other = prob.with_response(rand((40, 1, 4), 7))
        assert other._design.half is prob._design.half
        assert not np.array_equal(other.response, prob.response)

    def test_with_response_shares_gram_factors_and_leverage(self):
        prob = make_problem(seed=6)
        rows = prob._design.leverage_rows
        other = prob.with_response(rand((40, 1, 4), 7))
        assert other._design.f is prob._design.f
        assert other._design.leverage_rows is rows is prob._design.leverage_rows

    def test_gram_factors_invert_slice_grams(self):
        design = make_problem(seed=8)._design
        xh, f = design.half, design.f
        assert f.shape == (3, 3, 3)
        gram = xh.conj().mT @ xh
        eye = np.broadcast_to(np.eye(3), gram.shape)
        assert np.abs(gram @ (f @ f.conj().mT) - eye).max() <= 1e-12
        assert design.leverage_rows.shape == (3, 40)
        assert np.abs(design.leverage_rows.sum(axis=1) - 3.0).max() <= 1e-12


class TestObjective:
    def test_consistent_system_zero(self):
        x = rand((20, 3, 4), 8)
        b0 = rand((3, 1, 4), 9)
        prob = tlsq.TlsProblem(x, tlsq.t_product(x, b0))
        assert tlsq.objective(prob, b0) <= 1e-18 * tlsq.fro_norm(x) ** 2

    def test_zero_solution_gives_response_norm(self):
        prob = make_problem(seed=10)
        assert abs(
            tlsq.objective(prob, np.zeros((3, 1, 4))) - tlsq.fro_norm(prob.response) ** 2
        ) <= 1e-10

    def test_hand_example(self):
        x = np.array([[1.0], [1.0]]).reshape(2, 1, 1)
        y = np.array([[0.0], [2.0]]).reshape(2, 1, 1)
        prob = tlsq.TlsProblem(x, y)
        assert abs(tlsq.objective(prob, np.ones((1, 1, 1))) - 2.0) <= 1e-12

    def test_shape_mismatch(self):
        prob = make_problem(seed=11)
        with pytest.raises(DimensionMismatch):
            tlsq.objective(prob, np.zeros((4, 1, 4)))

    def test_matches_spatial_recomputation(self):
        prob = make_problem(seed=12)
        b = rand((3, 1, 4), 13)
        spatial = tlsq.fro_norm(prob.response - tlsq.t_product(prob.design, b)) ** 2
        assert abs(tlsq.objective(prob, b) - spatial) <= 1e-10 * max(1.0, spatial)


class TestSolveOls:
    def test_recovers_exact_coefficients(self):
        x = rand((30, 3, 4), 14)
        b0 = rand((3, 1, 4), 15)
        prob = tlsq.TlsProblem(x, tlsq.t_product(x, b0))
        sol = tlsq.solve_ols(prob)
        assert np.abs(sol.b - b0).max() <= 1e-10
        assert sol.objective <= 1e-16

    def test_single_tube_matches_dense_least_squares(self):
        prob = make_problem(n=25, p=3, l=1, seed=16)
        sol = tlsq.solve_ols(prob)
        dense = np.linalg.lstsq(prob.design[:, :, 0], prob.response[:, :, 0], rcond=None)[0]
        assert np.abs(sol.b[:, :, 0] - dense).max() <= 1e-10

    def test_matches_flattened_system(self):
        prob = make_problem(seed=17)
        sol = tlsq.solve_ols(prob)
        dense = np.linalg.lstsq(
            tlsq.bcirc(prob.design), tlsq.unfold(prob.response), rcond=None
        )[0]
        assert np.abs(sol.b - tlsq.fold(dense, 3, 4)).max() <= 1e-10

    def test_normal_equation_residual(self):
        prob = make_problem(n=60, p=4, l=3, seed=18)
        sol = tlsq.solve_ols(prob)
        xt = tlsq.t_transpose(prob.design)
        resid = tlsq.t_product(xt, prob.response - tlsq.t_product(prob.design, sol.b))
        bound = 1e-8 * tlsq.fro_norm(xt) * tlsq.fro_norm(prob.response)
        assert tlsq.fro_norm(resid) <= bound

    def test_local_optimality(self):
        prob = make_problem(seed=19)
        sol = tlsq.solve_ols(prob)
        rng = np.random.default_rng(20)
        for _ in range(100):
            delta = rng.standard_normal(sol.b.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert tlsq.objective(prob, sol.b + delta) >= sol.objective

    def test_objective_field_consistent(self):
        prob = make_problem(seed=21)
        sol = tlsq.solve_ols(prob)
        recomputed = tlsq.fro_norm(prob.response - tlsq.t_product(prob.design, sol.b)) ** 2
        assert abs(sol.objective - recomputed) <= 1e-8 * max(1.0, recomputed)


class TestSolveSubsampled:
    def test_all_rows_plan_reproduces_exact_solution(self):
        prob = make_problem(seed=22)
        exact = tlsq.solve_ols(prob)
        full = tlsq.solve_subsampled(prob, all_rows_plan(40))
        assert np.array_equal(full.b, exact.b)

    def test_unit_weights_from_uniform_probabilities(self):
        n = 16
        probs = tlsq.uniform_probs(n)
        plan = tlsq.SamplingPlan(
            tau=n, indices=np.arange(n), weights=1.0 / np.sqrt(n * probs.probs), seed=None
        )
        assert (plan.weights == 1.0).all()
        prob = make_problem(n=n, p=3, l=2, seed=23)
        assert np.array_equal(
            tlsq.solve_subsampled(prob, plan).b, tlsq.solve_ols(prob).b
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_fourier_and_spatial_paths_agree(self, seed):
        prob = make_problem(n=50, p=3, l=4, seed=seed)
        plan = tlsq.draw_plan(tlsq.leverage_probs(prob.design), 25, seed=100 + seed)
        fast = tlsq.solve_subsampled(prob, plan)
        w = plan.weights[:, None, None]
        sketch = tlsq.TlsProblem(
            prob.design[plan.indices] * w, prob.response[plan.indices] * w
        )
        spatial = tlsq.solve_ols(sketch)
        scale = max(1.0, np.abs(fast.b).max())
        assert np.abs(fast.b - spatial.b).max() <= 1e-10 * scale

    def test_monte_carlo_mean_near_exact_solution(self):
        n, p, l = 300, 4, 3
        x = tlsq.gen_design("mn", n, p, l, seed=41)
        y, _ = tlsq.gen_response(x, seed=42, sigma2=1.0)
        prob = tlsq.TlsProblem(x, y)
        exact = tlsq.solve_ols(prob).b
        dist = tlsq.leverage_probs(x)
        acc = np.zeros_like(exact)
        trials = 2000
        for i in range(trials):
            acc += tlsq.solve_subsampled(prob, tlsq.draw_plan(dist, 10 * p, seed=i)).b
        rel = tlsq.fro_norm(acc / trials - exact) / tlsq.fro_norm(exact)
        assert rel <= 0.02

    def test_rank_deficient_sketch_reports_slice(self):
        prob = make_problem(seed=24)
        plan = tlsq.SamplingPlan(
            tau=5, indices=np.zeros(5, dtype=int), weights=np.ones(5), seed=None
        )
        with pytest.raises(SketchRankDeficient) as err:
            tlsq.solve_subsampled(prob, plan)
        assert err.value.slice_index == 1

    def test_rank_loss_in_second_slice_only_reports_it(self):
        # Constant tubes have no energy outside DFT slice 1, so a sketch of
        # only those rows keeps rank in slice 1 and loses it in slice 2.
        x = rand((20, 2, 3), 40)
        x[:5] = rand((5, 2, 1), 41)
        prob = tlsq.TlsProblem(x, rand((20, 1, 3), 42))
        plan = tlsq.SamplingPlan(tau=5, indices=np.arange(5), weights=np.ones(5), seed=None)
        with pytest.raises(SketchRankDeficient) as err:
            tlsq.solve_subsampled(prob, plan)
        assert err.value.slice_index == 2
        assert "slice 2 of 3" in str(err.value)

    def test_tau_below_p_rejected(self):
        prob = make_problem(seed=25)
        plan = tlsq.SamplingPlan(tau=2, indices=np.array([0, 1]), weights=np.ones(2), seed=None)
        with pytest.raises(ValueError, match="tau"):
            tlsq.solve_subsampled(prob, plan)

    def test_out_of_range_indices_rejected(self):
        prob = make_problem(seed=26)
        plan = tlsq.SamplingPlan(
            tau=5, indices=np.array([0, 1, 2, 3, 99]), weights=np.ones(5), seed=None
        )
        with pytest.raises(ValueError, match="indices"):
            tlsq.solve_subsampled(prob, plan)

    def test_solution_metadata(self):
        prob = make_problem(seed=27)
        plan = tlsq.draw_plan(tlsq.uniform_probs(40), 20, seed=28)
        sol = tlsq.solve_subsampled(prob, plan)
        assert sol.method == "subsampled"
        assert sol.plan is plan
        recomputed = tlsq.fro_norm(prob.response - tlsq.t_product(prob.design, sol.b)) ** 2
        assert abs(sol.objective - recomputed) <= 1e-8 * max(1.0, recomputed)


def flattened_lstsq(x, y):
    """Block-circulant oracle: the dense least-squares solution and the system's condition."""
    a = tlsq.bcirc(x)
    sol = np.linalg.lstsq(a, tlsq.unfold(y), rcond=None)[0]
    return tlsq.fold(sol, x.shape[1], x.shape[2]), np.linalg.cond(a)


def assert_objective_is_the_residual(prob, sol):
    """sol.objective is the dense bcirc residual of sol.b, and objective(prob, sol.b) to rounding.

    The solver reads the objective from its solution's half spectrum and
    objective transforms the spatial sol.b again, so the two agree to rounding.
    An exact fit with n = p leaves only rounding, hence the floor.
    """
    x, y = prob.design, prob.response
    dense = float(((tlsq.bcirc(x) @ tlsq.unfold(sol.b) - tlsq.unfold(y)) ** 2).sum())
    assert abs(sol.objective - dense) <= 1e-10 * max(1.0, dense)
    again = tlsq.objective(prob, sol.b)
    assert abs(sol.objective - again) <= 1e-12 * again + 1e-24 * (y**2).sum()


edge_shapes = dict(
    p=st.integers(1, 4),
    extra_rows=st.integers(0, 4),
    l=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


class TestEdgeShapesAgainstOracle:
    """Property checks on l = 1, l = 2, odd and even l, n = p and tau = p."""

    @settings(max_examples=60, deadline=None)
    @given(**edge_shapes)
    @example(p=3, extra_rows=0, l=1, seed=0)
    @example(p=2, extra_rows=3, l=2, seed=1)
    @example(p=4, extra_rows=0, l=6, seed=2)
    def test_solve_ols(self, p, extra_rows, l, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((p + extra_rows, p, l))
        y = rng.standard_normal((p + extra_rows, 1, l))
        dense, kappa = flattened_lstsq(x, y)
        assume(kappa < 1e3)
        prob = tlsq.TlsProblem(x, y)
        sol = tlsq.solve_ols(prob)
        assert np.abs(sol.b - dense).max() <= 1e-9 * max(1.0, np.abs(dense).max())
        assert_objective_is_the_residual(prob, sol)

    @settings(max_examples=60, deadline=None)
    @given(**edge_shapes, extra_tau=st.integers(0, 4))
    @example(p=3, extra_rows=2, l=1, seed=3, extra_tau=0)
    @example(p=2, extra_rows=0, l=2, seed=4, extra_tau=0)
    @example(p=3, extra_rows=4, l=5, seed=5, extra_tau=0)
    def test_solve_subsampled(self, p, extra_rows, l, seed, extra_tau):
        n = p + extra_rows
        tau = p + min(extra_tau, extra_rows)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p, l))
        y = rng.standard_normal((n, 1, l))
        plan = tlsq.SamplingPlan(
            tau=tau, indices=rng.permutation(n)[:tau], weights=rng.uniform(0.5, 2.0, tau)
        )
        w = plan.weights[:, None, None]
        dense, kappa = flattened_lstsq(x[plan.indices] * w, y[plan.indices] * w)
        assume(kappa < 1e3)
        prob = tlsq.TlsProblem(x, y)
        sol = tlsq.solve_subsampled(prob, plan)
        assert np.abs(sol.b - dense).max() <= 1e-9 * max(1.0, np.abs(dense).max())
        assert_objective_is_the_residual(prob, sol)

    @settings(max_examples=60, deadline=None)
    @given(**edge_shapes)
    @example(p=1, extra_rows=0, l=1, seed=6)
    @example(p=2, extra_rows=1, l=2, seed=7)
    def test_objective(self, p, extra_rows, l, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((p + extra_rows, p, l))
        y = rng.standard_normal((p + extra_rows, 1, l))
        b = rng.standard_normal((p, 1, l))
        assume(np.linalg.cond(tlsq.bcirc(x)) < 1e6)
        expected = float(((tlsq.bcirc(x) @ tlsq.unfold(b) - tlsq.unfold(y)) ** 2).sum())
        got = tlsq.objective(tlsq.TlsProblem(x, y), b)
        assert abs(got - expected) <= 1e-10 * max(1.0, expected)


class TestObjectiveFromR:
    """objective reads ||Y - X * B||_F^2 from the factor of [X | y], never from the rows."""

    @settings(max_examples=60, deadline=None)
    @given(**edge_shapes, ill=st.booleans())
    @example(p=1, extra_rows=0, l=1, seed=8, ill=False)
    @example(p=3, extra_rows=0, l=2, seed=9, ill=False)
    @example(p=2, extra_rows=3, l=5, seed=10, ill=False)
    @example(p=4, extra_rows=1, l=6, seed=11, ill=False)
    @example(p=1, extra_rows=0, l=3, seed=12, ill=True)
    @example(p=1, extra_rows=0, l=4, seed=13, ill=True)
    def test_matches_bcirc_residual(
        self, ill_conditioned_half_design, p, extra_rows, l, seed, ill
    ):
        """Random designs on the edge shapes, or the kappa = 2e7 design of the stats tests."""
        rng = np.random.default_rng(seed)
        if ill:
            half = ill_conditioned_half_design(30, 3, l, np.array([2e7, 4e3, 1.0]), seed)[0]
            x = _from_half(half, l)
        else:
            x = rng.standard_normal((p + extra_rows, p, l))
        n, p, _ = x.shape
        y = rng.standard_normal((n, 1, l))
        b = rng.standard_normal((p, 1, l))
        expected = float(((tlsq.bcirc(x) @ tlsq.unfold(b) - tlsq.unfold(y)) ** 2).sum())
        prob = tlsq.TlsProblem(x, y)
        for pb in (prob, prob.with_response(y)):
            assert abs(tlsq.objective(pb, b) - expected) <= 1e-10 * expected

    def test_near_exact_fit_on_ill_conditioned_design(self, ill_conditioned_half_design):
        """Near the exact fit the objective's error stays near eps times the condition number.

        It is 4.1e-11 at worst here; an exact fit taken from the normal
        equations R11^H R11 reads up to 1.5e-8 and fails on 9 of the 40 seeds.
        """
        n, p, l = 30, 3, 4
        for seed in range(40):
            rng = np.random.default_rng(seed)
            half = ill_conditioned_half_design(n, p, l, np.array([2e7, 4e3, 1.0]), seed)[0]
            x = _from_half(half, l)
            y = rng.standard_normal((n, 1, l))
            prob = tlsq.TlsProblem(x, y)
            b = tlsq.solve_ols(prob).b + 1e-5 * rng.standard_normal((p, 1, l))
            exact = tlsq.bcirc(x).astype(np.longdouble) @ tlsq.unfold(b).astype(np.longdouble)
            expected = float(((exact - tlsq.unfold(y).astype(np.longdouble)) ** 2).sum())
            assert abs(tlsq.objective(prob, b) - expected) <= 1e-9 * expected, seed


def uncompressed_short_slice(x, plan):
    """First rank-deficient DFT slice of the uncompressed sketch, 1-based, or None.

    Slice k counts as short when its p-th singular value is at most
    eps * max(tau, p) * its largest, the rule solve_subsampled applies.
    """
    p = x.shape[1]
    s = np.linalg.svd(_to_half(x[plan.indices] * plan.weights[:, None, None]), compute_uv=False)
    if s.shape[1] < p:
        return 1
    short = s[:, p - 1] <= np.finfo(np.float64).eps * max(plan.tau, p) * s[:, 0]
    return int(np.argmax(short)) + 1 if short.any() else None


def repeated_plan(rng, n, unique, repeats):
    """A plan over `unique` distinct rows, `repeats` of them drawn again, each draw its own weight."""
    rows = rng.permutation(n)[:unique]
    indices = rng.permutation(np.concatenate([rows, rng.choice(rows, repeats)]))
    return tlsq.SamplingPlan(
        tau=indices.size, indices=indices, weights=rng.uniform(0.5, 2.0, indices.size)
    )


def unique_compress(indices, weights, n, p):
    """Oracle for _compress: np.unique of the (plan, row) keys, and each key's squared weights
    summed by a bincount over its inverse, in the order of the draws."""
    taus = np.array([len(row) for row in indices])
    count = taus.size
    keys, inverse = np.unique(np.repeat(np.arange(count) * n, taus) + np.concatenate(indices),
                              return_inverse=True)
    owner, rows = np.divmod(keys, n)
    unique = np.bincount(owner, minlength=count)
    slot = np.arange(owner.size) - np.repeat(np.cumsum(unique) - unique, unique)
    picked = np.zeros((count, max(int(unique.max()), p)), dtype=np.intp)
    scale = np.zeros(picked.shape)
    picked[owner, slot] = rows
    scale[owner, slot] = np.sqrt(np.bincount(inverse, weights=np.concatenate(weights) ** 2))
    return taus, picked, scale, unique


class TestDuplicateCompression:
    """A plan is solved on its unique rows, each scaled by its summed squared weight."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12),
        p=st.integers(1, 4),
        plans=st.lists(st.tuples(st.integers(0, 200), st.integers(1, 12)), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, p=1, plans=[(3, 1)], seed=0)
    @example(n=12, p=4, plans=[(0, 12), (200, 1), (5, 2), (0, 3)], seed=1)
    @example(n=5, p=3, plans=[(150, 2), (90, 5)], seed=2)
    def test_stable_sort_matches_unique_oracle(self, n, p, plans, seed):
        """Ragged plans of tau = p + extra draws from pools of `pool` rows; the weights span six
        decades, so each run's sum depends on the order of its draws."""
        rng = np.random.default_rng(seed)
        indices = [rng.choice(rng.permutation(n)[:pool], p + extra) for extra, pool in plans]
        weights = [10.0 ** rng.uniform(-3.0, 3.0, idx.size) for idx in indices]
        got, want = solver._compress(indices, weights, n, p), unique_compress(indices, weights, n, p)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**edge_shapes, repeats=st.integers(1, 8))
    @example(p=3, extra_rows=2, l=1, seed=8, repeats=4)
    @example(p=2, extra_rows=1, l=2, seed=9, repeats=3)
    @example(p=3, extra_rows=4, l=5, seed=10, repeats=6)
    @example(p=4, extra_rows=3, l=6, seed=11, repeats=8)
    def test_repeated_draws_match_oracle(self, p, extra_rows, l, seed, repeats):
        n = p + extra_rows
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p, l))
        y = rng.standard_normal((n, 1, l))
        plan = repeated_plan(rng, n, p + int(rng.integers(0, extra_rows + 1)), repeats)
        w = plan.weights[:, None, None]
        dense, kappa = flattened_lstsq(x[plan.indices] * w, y[plan.indices] * w)
        assume(kappa < 1e3)
        prob = tlsq.TlsProblem(x, y)
        sol = tlsq.solve_subsampled(prob, plan)
        assert np.abs(sol.b - dense).max() <= 1e-9 * max(1.0, np.abs(dense).max())
        assert_objective_is_the_residual(prob, sol)

    @pytest.mark.parametrize("l", [1, 2, 5, 6])
    def test_fewer_than_p_unique_rows_fails_like_uncompressed(self, l):
        rng = np.random.default_rng(50 + l)
        prob = make_problem(n=30, p=4, l=l, seed=l)
        plan = repeated_plan(rng, 30, 3, 9)
        expected = uncompressed_short_slice(prob.design, plan)
        assert expected is not None
        with pytest.raises(SketchRankDeficient) as err:
            tlsq.solve_subsampled(prob, plan)
        assert err.value.slice_index == expected

    def test_repeated_constant_tubes_fail_in_second_slice(self):
        x = rand((20, 2, 3), 40)
        x[:5] = rand((5, 2, 1), 41)
        prob = tlsq.TlsProblem(x, rand((20, 1, 3), 42))
        indices = np.array([0, 1, 2, 3, 4, 0, 2, 2])
        plan = tlsq.SamplingPlan(tau=8, indices=indices, weights=np.linspace(0.5, 2.0, 8))
        assert uncompressed_short_slice(x, plan) == 2
        with pytest.raises(SketchRankDeficient) as err:
            tlsq.solve_subsampled(prob, plan)
        assert err.value.slice_index == 2

    def test_batch_matches_single_solves(self):
        rng = np.random.default_rng(60)
        prob = make_problem(n=40, p=3, l=4, seed=61)
        plans = [repeated_plan(rng, 40, u, r) for u, r in ((20, 5), (3, 12), (2, 13), (9, 6))]
        ok, bs, objectives, errors = solver._solve_sketches(
            [prob] * len(plans), [plan.indices for plan in plans], [plan.weights for plan in plans]
        )
        assert len(bs) == len(objectives) == np.count_nonzero(ok)
        kept = iter(zip(bs, objectives))
        for plan, keep, error in zip(plans, ok, errors):
            assert keep == (error is None)
            try:
                single = tlsq.solve_subsampled(prob, plan)
            except SketchRankDeficient as err:
                assert isinstance(error, SketchRankDeficient)
                assert error.slice_index == err.slice_index and str(error) == str(err)
                continue
            b, obj = next(kept)
            assert np.abs(b - single.b).max() <= 1e-12 * max(1.0, np.abs(single.b).max())
            assert abs(obj - single.objective) <= 1e-12 * single.objective
        assert isinstance(errors[2], SketchRankDeficient)
        assert not isinstance(errors[0], SketchRankDeficient)


def svd_rank_rule(r, p, rows, l):
    """The rank rule without the screen: the singular values of every R11 against lstsq's cutoff.

    Returns the mask of full-rank stacks and, per stack, None or the
    (message, slice_index) of its SketchRankDeficient.
    """
    s = np.linalg.svd(r[..., :p, :p], compute_uv=False)
    tol = np.finfo(np.float64).eps * np.maximum(np.asarray(rows), p)[:, None] * s[..., 0]
    short = s[..., p - 1] <= tol
    fits = []
    for k in range(len(rows)):
        if not short[k].any():
            fits.append(None)
            continue
        j = int(np.argmax(short[k]))
        rank = int(np.count_nonzero(s[k, j] > tol[k, j]))
        fits.append((f"sketched design has rank {rank} < {p} in DFT slice {j + 1} of {l}", j + 1))
    return ~short.any(axis=1), fits


class TestRankScreen:
    """The Frobenius screen decides as the singular values would, and skips them when it can."""

    @settings(max_examples=120, deadline=None)
    @given(
        p=st.integers(1, 4),
        l=st.sampled_from([1, 2, 5, 6]),
        seed=st.integers(0, 2**32 - 1),
        plans=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(-17.0, -9.0)),
            min_size=1,
            max_size=4,
        ),
    )
    @example(p=3, l=1, seed=1, plans=[(0, 0, -17.0), (2, 3, -10.0)])
    @example(p=4, l=6, seed=2, plans=[(0, 0, -14.5), (3, 3, -14.0), (1, 0, -15.0)])
    @example(p=2, l=5, seed=3, plans=[(3, 3, -15.5), (3, 3, -15.0), (3, 3, -14.5)])
    @example(p=4, l=2, seed=4, plans=[(0, 0, -9.0)])
    def test_matches_svd_rule(self, p, l, seed, plans):
        """Sketches of n = p + extra_rows rows drawn tau = p + extra_tau times from a design whose
        columns are shrunk by 10^log_delta along a random direction, so the batch sits near the
        cutoff and mixes short plans (fewer than p distinct rows) with full ones."""
        rng = np.random.default_rng(seed)
        taus = [p + extra_tau for _, extra_tau, _ in plans]
        m = np.zeros((len(plans), l // 2 + 1, max(taus), p + 1), dtype=complex)
        for j, (extra_rows, _, log_delta) in enumerate(plans):
            n = p + extra_rows
            x = rng.standard_normal((n, p + 1, l))
            v = rng.standard_normal(p)
            v /= np.linalg.norm(v)
            shrink = np.eye(p) - (1.0 - 10.0**log_delta) * np.outer(v, v)
            x[:, :p] = np.einsum("ipk,pq->iqk", x[:, :p], shrink)
            w = rng.uniform(0.5, 2.0, (taus[j], 1, 1))
            m[j, :, : taus[j]] = _to_half(x[rng.integers(0, n, taus[j])] * w)
        r = solver._tsqr_r([m])
        ok, bhalf, fits = solver._solve_factored(r, p, taus, l)
        expected_ok, expected_fits = svd_rank_rule(r, p, taus, l)
        assert np.array_equal(ok, expected_ok)
        assert [None if f is None else (str(f), f.slice_index) for f in fits] == expected_fits
        assert np.array_equal(bhalf, solver._back_substitute(r[ok], p))

    @staticmethod
    def count_svd(monkeypatch):
        calls = []

        def counting(*args, _original=np.linalg.svd, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def test_svd_only_for_a_short_plan(self, monkeypatch):
        """A desk-sized t1 leverage batch passes the screen; a plan of 9 distinct rows sends the
        batch to the singular values, and the other plans keep their solutions bit for bit."""
        x = tlsq.gen_design("t1", 1000, 10, 6, seed=5)
        prob = tlsq.TlsProblem(x, tlsq.gen_response(x, seed=6)[0])
        dist = tlsq.leverage_probs(prob)
        rngs = [np.random.default_rng(s) for s in range(8)]
        indices, weights = sampling._draw_plans([dist] * 8, 300, rngs)
        calls = self.count_svd(monkeypatch)
        _, bs, objectives, errors = solver._solve_sketches([prob] * 8, indices, weights)
        assert calls == []
        assert not any(isinstance(error, SketchRankDeficient) for error in errors)
        indices[3] = np.resize(indices[3, :9], 300)
        ok, rebs, reobjectives, reerrors = solver._solve_sketches([prob] * 8, indices, weights)
        assert len(calls) == 1
        assert isinstance(reerrors[3], SketchRankDeficient)
        # the kept plans are 0, 1, 2, 4, 5, 6 and 7, in that order
        assert ok.tolist() == [True] * 3 + [False] + [True] * 4
        for k, j in enumerate((0, 1, 2, 4, 5, 6, 7)):
            assert np.array_equal(rebs[k], bs[j]) and reobjectives[k] == objectives[j]


class TestOneFinishForSeveralBatches:
    """One _finish_sketches call over several factored batches acts as each batch's own solve."""

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(1, 4),
        l=st.sampled_from([1, 2, 5, 6]),
        extra_rows=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        cells=st.lists(st.tuples(st.integers(0, 12), st.booleans()), min_size=2, max_size=4),
    )
    @example(p=3, l=5, extra_rows=0, seed=0, cells=[(0, False), (0, True), (9, False)])
    @example(p=4, l=2, extra_rows=0, seed=1, cells=[(0, True), (0, False)])
    @example(p=2, l=6, extra_rows=3, seed=2, cells=[(5, True), (0, False), (12, True)])
    @example(p=4, l=1, extra_rows=2, seed=3, cells=[(1, False), (7, False)])
    def test_matches_each_batch_solve(self, p, l, extra_rows, seed, cells):
        """Cells of tau = p + extra_tau draws on n = p + extra_rows rows, three plans each, one on
        each of three designs. A cell may hold a short plan (fewer than p distinct rows) in the
        middle. Every plan's mask, error, solution and objective bits match its cell's own
        _solve_sketches call, and the singular values are taken of the short plans' stacks only."""
        rng = np.random.default_rng(seed)
        n = p + extra_rows
        problems = [make_problem(n=n, p=p, l=l, seed=int(s)) for s in rng.integers(0, 2**31, 3)]
        batches, short = [], []
        for extra_tau, has_short in cells:
            tau = p + extra_tau
            indices = [rng.permutation(np.resize(rng.permutation(n), tau)) for _ in problems]
            if has_short and p > 1:
                indices[1] = rng.integers(0, p - 1, tau)
            short += [False, has_short and p > 1, False]
            batches.append((indices, [rng.uniform(0.5, 2.0, tau) for _ in problems]))
        factored = [solver._factor_sketches(problems, *solver._compress(*batch, n, p)[:3])
                    for batch in batches]
        for _, r in factored:
            assert r.shape == (3, l // 2 + 1, p + 1, p + 1)
        svd_stacks = []

        def counting(a, *args, _original=np.linalg.svd, **kwargs):
            svd_stacks.append(len(a))
            return _original(a, *args, **kwargs)

        with mock.patch.object(np.linalg, "svd", counting):
            ok, bs, objectives, errors = solver._finish_sketches(
                problems * len(cells),
                np.concatenate([r for _, r in factored]),
                np.concatenate([taus for taus, _ in factored]),
            )
        assert svd_stacks == ([sum(short)] if any(short) else [])
        own = [solver._solve_sketches(problems, *batch) for batch in batches]
        assert np.array_equal(ok, np.concatenate([o[0] for o in own]))
        assert ok.tolist() == [not s for s in short]
        assert np.array_equal(bs, np.concatenate([o[1] for o in own]))
        assert np.array_equal(objectives, np.concatenate([o[2] for o in own]))
        want = [e for o in own for e in o[3]]
        for error, expected, is_short in zip(errors, want, short):
            assert isinstance(error, SketchRankDeficient) == is_short
            if is_short:
                assert (str(error), error.slice_index) == (str(expected), expected.slice_index)
            else:
                assert expected is None


class TestSketchWorkspace:
    """_factor_sketches into a reused workspace gives the bits of its own fresh stack, and of a
    row-major stack scaled after the gather."""

    @staticmethod
    def row_major_r(problems, picked, scale, block):
        """R of the stack as the parent built it: row-major, scaled after the gather, and every
        block of `block` rows factored by one stacked QR."""
        _, p, l = problems[0].shape
        m = np.empty((l // 2 + 1, *picked.shape, p + 1), dtype=np.complex128)
        for j, pb in enumerate(problems):
            m[:, j, :, :p] = pb._design.half[:, picked[j]]
            m[:, j, :, p] = pb.response_half[:, picked[j], 0]
        m *= scale[:, :, None]
        m = m.swapaxes(0, 1)
        rs = [np.linalg.qr(m[..., s : s + block, :], mode="r") for s in range(0, m.shape[-2], block)]
        return rs[0] if len(rs) == 1 else np.linalg.qr(np.concatenate(rs, axis=-2), mode="r")

    @settings(max_examples=60, deadline=None)
    @given(**edge_shapes, extra_taus=st.lists(st.integers(0, 12), min_size=2, max_size=5),
           block=st.integers(1, 8))
    @example(p=3, extra_rows=0, l=1, seed=0, extra_taus=[0, 4, 0], block=8)
    @example(p=2, extra_rows=3, l=2, seed=1, extra_taus=[5, 12, 0], block=2)
    @example(p=4, extra_rows=2, l=5, seed=2, extra_taus=[1, 9, 3], block=3)
    @example(p=1, extra_rows=4, l=6, seed=3, extra_taus=[12, 0], block=1)
    def test_reused_workspace_matches_fresh_stack(self, p, extra_rows, l, seed, extra_taus, block):
        """Batches of tau = p + extra_tau draws on n = p + extra_rows rows, three plans each on
        three designs, run in order of rising and then falling tau through one workspace that
        starts as NaN, and factored in row blocks of `block` rows. A tau = p batch of repeated
        rows is padded with zero rows to height p and gets a zero last row of R."""
        rng = np.random.default_rng(seed)
        n = p + extra_rows
        problems = [make_problem(n=n, p=p, l=l, seed=int(s)) for s in rng.integers(0, 2**31, 3)]
        half = len(extra_taus) // 2
        taus = sorted(p + t for t in extra_taus[:half]) + sorted(
            (p + t for t in extra_taus[half:]), reverse=True)
        batches = []
        for tau in taus:
            indices = [rng.integers(0, n, tau) for _ in problems]
            batches.append(solver._compress(
                indices, [rng.uniform(0.5, 2.0, tau) for _ in problems], n, p)[:3])
        heights = [batch[1].shape[1] for batch in batches]
        work = np.full(3 * (l // 2 + 1) * (p + 1) * max(heights), np.nan, dtype=np.complex128)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_QR_BLOCK_ROWS", block)
            for batch in batches:
                taus_fresh, fresh = solver._factor_sketches(problems, *batch)
                taus_reused, reused = solver._factor_sketches(problems, *batch, work)
                assert np.array_equal(taus_reused, taus_fresh)
                assert np.array_equal(reused, fresh)
                assert reused.shape == (3, l // 2 + 1, p + 1, p + 1)
                want = self.row_major_r(problems, *batch[1:], block)
                assert np.array_equal(reused[..., : want.shape[-2], :], want)
                assert not reused[..., want.shape[-2] :, :].any()


class TestOneSpectrumPerSolution:
    """A batch keeps its solutions in the half spectrum until they leave the solver."""

    @pytest.mark.parametrize("l", [1, 2, 5, 6])
    def test_batch_runs_one_inverse_and_no_forward_dft(self, monkeypatch, l):
        """Solutions come from one irfft and their objectives from the same half spectra."""
        prob = make_problem(n=50, p=3, l=l, seed=80)
        problems = solver._on_design(prob._design, [rand((50, 1, l), 81 + j) for j in range(8)])
        rng = np.random.default_rng(82)
        indices, weights = rng.integers(0, 50, size=(8, 20)), rng.uniform(0.5, 2.0, (8, 20))
        counts = {"rfft": 0, "irfft": 0}
        for name in counts:
            def counting(*args, _original=getattr(np.fft, name), _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        ok, _, _, errors = solver._solve_sketches(problems, indices, weights)
        assert ok.all() and not any(isinstance(error, SketchRankDeficient) for error in errors)
        assert counts == {"rfft": 0, "irfft": 1}
        counts.update(rfft=0, irfft=0)
        solver._exact_solutions(problems)
        assert counts == {"rfft": 0, "irfft": 1}


class TestBlockedQr:
    """Stacks taller than _QR_BLOCK_ROWS are factored block by block (TSQR)."""

    @pytest.mark.parametrize("block", [1, 4, 9, 16])
    def test_multi_block_matches_one_shot(self, monkeypatch, block):
        x, y = rand((37, 3, 5), 70), rand((37, 1, 5), 71)
        one_prob = tlsq.TlsProblem(x, y)
        one = tlsq.solve_ols(one_prob)
        m = np.concatenate((one_prob._design.half, one_prob.response_half), axis=2)
        r_one = solver._tsqr_r([m])
        monkeypatch.setattr(solver, "_QR_BLOCK_ROWS", block)
        prob = tlsq.TlsProblem(x, y)
        r = solver._tsqr_r(solver._row_blocks(prob._design.half, prob.response_half))
        gram_one = r_one.conj().mT @ r_one
        assert np.abs(r.conj().mT @ r - gram_one).max() <= 1e-13 * np.abs(gram_one).max()
        f, f_one = prob._design.f, one_prob._design.f
        assert np.abs(f @ f.conj().mT - f_one @ f_one.conj().mT).max() <= 1e-12
        blocked = tlsq.solve_ols(prob)
        assert np.abs(blocked.b - one.b).max() <= 1e-12 * max(1.0, np.abs(one.b).max())
        assert abs(blocked.objective - one.objective) <= 1e-12 * one.objective
        full = tlsq.solve_subsampled(prob, all_rows_plan(37))
        assert np.abs(full.b - one.b).max() <= 1e-12 * max(1.0, np.abs(one.b).max())

    def test_blocked_validation_finds_rank_deficient_slice(self, monkeypatch):
        monkeypatch.setattr(solver, "_QR_BLOCK_ROWS", 3)
        x = np.repeat(rand((8, 2, 1), 4), 3, axis=2)
        with pytest.raises(RankDeficient, match="slice"):
            tlsq.TlsProblem(x, rand((8, 1, 3), 5))


class TestProblemFromFile:
    """A problem built from written-and-read .tt files equals the in-memory one bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.integers(1, 4),
        extra=st.integers(0, 20),
        l=st.integers(1, 8),
        block=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    @example(p=3, extra=0, l=1, block=2, seed=0)
    @example(p=2, extra=19, l=2, block=4, seed=1)
    @example(p=4, extra=13, l=7, block=5, seed=2)
    def test_read_problem_is_bit_equal(self, p, extra, l, block, seed):
        n = p + extra
        x, y, b = rand((n, p, l), seed), rand((n, 1, l), seed + 1), rand((p, 1, l), seed + 2)
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "_QR_BLOCK_ROWS", block)
            mp.setattr(solver, "_QR_BLOCK_ROWS", block)
            xp, yp = os.path.join(d, "x.tt"), os.path.join(d, "y.tt")
            tlsq.write_tensor(x, xp)
            tlsq.write_tensor(y, yp)
            read = tlsq.TlsProblem(tlsq.read_tensor(xp), tlsq.read_tensor(yp))
            memory = tlsq.TlsProblem(x, y)
        assert read._design.r11.tobytes() == memory._design.r11.tobytes()
        for name in ("_ols_half", "_rho"):
            assert getattr(read, name).tobytes() == getattr(memory, name).tobytes()
        assert tlsq.objective(read, b) == tlsq.objective(memory, b)


class TestWholeFitAcrossLayouts:
    """A fit is the same bits on read_tensor's F-order view, a C-order copy and a strided view.

    Property checks on l = 1, l = 2, odd and even l, n = p and tau = p, with
    row blocks small enough that the TSQR and the row energies are taken a
    block at a time. The conditional residual is one product on the half
    stack, which _to_half lays out the same way for every input layout.
    """

    @settings(max_examples=40, deadline=None)
    @given(**edge_shapes, extra_tau=st.integers(0, 4), block=st.integers(1, 5))
    @example(p=3, extra_rows=0, l=1, seed=0, extra_tau=0, block=2)
    @example(p=2, extra_rows=3, l=2, seed=1, extra_tau=0, block=1)
    @example(p=4, extra_rows=4, l=5, seed=2, extra_tau=3, block=3)
    @example(p=3, extra_rows=2, l=6, seed=3, extra_tau=1, block=5)
    def test_fit_is_bit_equal(self, p, extra_rows, l, seed, extra_tau, block):
        n = p + extra_rows
        rng = np.random.default_rng(seed)
        x, y, ys = rng.standard_normal((n, p, l)), rng.standard_normal((n, 1, l)), list(rand((3, n, 1, l), seed))
        padded = np.zeros((2 * n, p + 1, 2 * l))
        padded[::2, 1:, ::2] = x
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_QR_BLOCK_ROWS", block)
            path = os.path.join(d, "x.tt")
            tlsq.write_tensor(x, path)
            layouts = (tlsq.read_tensor(path), np.ascontiguousarray(x), padded[::2, 1:, ::2])
            fits = [self.fit(tlsq.TlsProblem(design, y), ys, p + extra_tau, seed) for design in layouts]
        assert fits[0] == fits[1] == fits[2]

    @staticmethod
    def fit(prob, ys, tau, seed) -> list:
        """The bytes of every fit result on `prob`, or the error that stopped it."""

        def outcome(f):
            try:
                return f()
            except (DegenerateDistribution, SketchRankDeficient) as exc:
                return repr(exc)

        ols, lev = tlsq.solve_ols(prob), tlsq.leverage_probs(prob)
        report = tlsq.variance_report(prob, lev, tau, sigma2=2.0)
        plan = tlsq.draw_plan(tlsq.uniform_probs(prob.shape[0]), tau, seed)
        return [
            ols.b.tobytes(), ols.objective, lev.leverage.tobytes(), lev.probs.tobytes(),
            outcome(lambda: tlsq.optimal_probs(prob).probs.tobytes()),
            report.trace_conditional, report.trace_unconditional,
            outcome(lambda: tlsq.solve_subsampled(prob, plan).b.tobytes()),
            [(pb._ols_half.tobytes(), pb._rho.tobytes()) for pb in solver._on_design(prob._design, ys)],
        ]


class TestMultiResponseFit:
    """_on_design: one factorization of [X | Y_1 ... Y_k] fits every column."""

    @staticmethod
    def assert_columns_match_solve_ols(x, ys, refs):
        prob = tlsq.TlsProblem(x, ys[0])
        bs, objectives = solver._exact_solutions(solver._on_design(prob._design, ys))
        assert bs.shape == (len(ys), x.shape[1], 1, x.shape[2])
        for y, b, obj, ref in zip(ys, bs, objectives, refs):
            assert np.abs(b - ref.b).max() <= 1e-12 * np.abs(ref.b).max()
            # n = p leaves only rounding in the objective, so it gets a floor.
            assert abs(obj - ref.objective) <= 1e-12 * ref.objective + 1e-24 * (y**2).sum()

    @staticmethod
    def draw(n, p, l, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p, l))
        return x, [rng.standard_normal((n, 1, l)) * 10.0**j for j in range(k)]

    @pytest.mark.parametrize(
        "n, p, l", [(12, 3, 1), (12, 3, 2), (15, 4, 5), (15, 4, 6), (4, 4, 3), (5, 5, 4)]
    )
    def test_each_column_matches_its_own_solve_ols(self, n, p, l):
        x, ys = self.draw(n, p, l, 5, seed=90 + n + p + l)
        refs = [tlsq.solve_ols(tlsq.TlsProblem(x, y)) for y in ys]
        self.assert_columns_match_solve_ols(x, ys, refs)

    @pytest.mark.parametrize("block", [1, 4, 9])
    def test_blocked_path(self, monkeypatch, block):
        x, ys = self.draw(37, 3, 5, 4, seed=95)
        refs = [tlsq.solve_ols(tlsq.TlsProblem(x, y)) for y in ys]
        monkeypatch.setattr(solver, "_QR_BLOCK_ROWS", block)
        self.assert_columns_match_solve_ols(x, ys, refs)

    def test_slice_rank_deficient_design_is_rejected_at_validation(self, monkeypatch):
        """The design's rank is checked where its _Design is built, by validate_design or a
        TlsProblem; _on_design fits on a validated _Design and takes no SVD."""
        x = np.repeat(rand((8, 2, 1), 96), 3, axis=2)  # every slice but the first is zero
        with pytest.raises(RankDeficient, match="slice 2 of 3"):
            solver.validate_design(x)
        with pytest.raises(RankDeficient, match="slice 2 of 3"):
            tlsq.TlsProblem(x, rand((8, 1, 3), 97))
        prob = tlsq.TlsProblem(rand((8, 2, 3), 99), rand((8, 1, 3), 97))

        def no_svd(*args, **kwargs):
            raise AssertionError("_on_design took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        ys = [rand((8, 1, 3), s) for s in (97, 98)]
        bs, _ = solver._exact_solutions(solver._on_design(prob._design, ys))
        for y, b in zip(ys, bs):
            ref = tlsq.solve_ols(prob.with_response(y)).b
            assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()


class TestBornFitted:
    """A problem holds its exact fit from the moment it is built: reading it factors nothing."""

    @staticmethod
    def count_factorizations(monkeypatch):
        calls = []

        def counting(*args, _original=solver._tsqr_r, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, "_tsqr_r", counting)
        return calls

    @pytest.mark.parametrize("build", ["constructor", "with_response", "on_design"])
    def test_reads_factor_nothing(self, monkeypatch, build):
        x, y1, y2 = rand((30, 3, 5), 120), rand((30, 1, 5), 121), rand((30, 1, 5), 122)
        prob = tlsq.TlsProblem(x, y1)
        if build == "with_response":
            prob = prob.with_response(y2)
        elif build == "on_design":
            prob = solver._on_design(prob._design, [y1, y2])[1]
        calls = self.count_factorizations(monkeypatch)
        tlsq.solve_ols(prob)
        tlsq.objective(prob, rand((3, 1, 5), 123))
        tlsq.conditional_variance(prob, tlsq.uniform_probs(30), 12)
        assert calls == []

    def test_one_factorization_builds_every_response(self, monkeypatch):
        prob = make_problem(seed=124)
        calls = self.count_factorizations(monkeypatch)
        probs = solver._on_design(prob._design, [rand((40, 1, 4), s) for s in (125, 126, 127)])
        assert len(probs) == 3 and len(calls) == 1
        prob.with_response(rand((40, 1, 4), 128))
        assert len(calls) == 2


class TestWithResponseFit:
    """A with_response copy never reads the [X | y] fit of the response it was copied from."""

    @staticmethod
    def assert_same_fit(got, want):
        assert np.abs(got.b - want.b).max() <= 1e-12 * np.abs(want.b).max()
        assert abs(got.objective - want.objective) <= 1e-12 * want.objective

    def test_direct_problem(self):
        x, y1, y2 = rand((30, 3, 5), 110), rand((30, 1, 5), 111), rand((30, 1, 5), 112)
        prob = tlsq.TlsProblem(x, y1)
        first = tlsq.solve_ols(prob)
        other = prob.with_response(y2)
        fresh = tlsq.TlsProblem(x, y2)
        self.assert_same_fit(tlsq.solve_ols(other), tlsq.solve_ols(fresh))
        dist = tlsq.uniform_probs(30)
        cond, want = (tlsq.conditional_variance(q, dist, 12) for q in (other, fresh))
        assert np.abs(cond - want).max() <= 1e-12 * np.abs(want).max()
        # the copy's own fit does not leak back either
        again = tlsq.solve_ols(prob)
        assert np.array_equal(again.b, first.b) and again.objective == first.objective

    def test_copy_carries_only_design_state(self):
        x, y1, y2 = rand((30, 3, 5), 113), rand((30, 1, 5), 114), rand((30, 1, 5), 115)
        prob = tlsq.TlsProblem(x, y1)
        prob._design.leverage_rows
        prob.fitted_elsewhere = object()  # stands for any other state of the source
        other = prob.with_response(y2)
        assert not hasattr(other, "fitted_elsewhere")
        assert other._design is prob._design
        assert set(vars(other)) == {"_design", "response", "response_half", "_ols_half", "_rho"}

    @pytest.mark.parametrize("mode", ["unconditional", "conditional"])
    def test_replicate_problems(self, mode):
        ex = experiments
        cfg = tlsq.ExperimentConfig(seed=36, n=50, p=4, l=4, design="t3", replicates=3,
                                    taus=(20,), mode=mode)
        state = ex._prepare_state(cfg, [], ex._STREAM_DESIGN)
        for prob_b in ex._replicate_problems(cfg, state, range(cfg.replicates)):
            fresh = tlsq.TlsProblem(state.prob.design, prob_b.response)
            self.assert_same_fit(tlsq.solve_ols(prob_b), tlsq.solve_ols(fresh))


class TestSharedDesign:
    """Every problem on a design holds its one _Design, and the design state is computed once."""

    def test_one_design_by_identity(self):
        prob = make_problem(seed=130)
        copy = prob.with_response(rand((40, 1, 4), 131))
        fitted = solver._on_design(prob._design, [rand((40, 1, 4), s) for s in (132, 133)])
        again = fitted[0].with_response(rand((40, 1, 4), 134))
        for other in (copy, *fitted, again):
            assert other._design is prob._design
            assert other.design is prob.design

    def test_one_leverage_computation_per_design(self, monkeypatch):
        """Copies made before the first read share the leverage: X F is formed once."""
        products = []

        def counting(design, rows, _original=solver._Design.orthonormal_blocks):
            for block in _original(design, rows):
                products.append(rows)
                yield block

        monkeypatch.setattr(solver._Design, "orthonormal_blocks", counting)
        prob = make_problem(seed=135)
        copies = [prob.with_response(rand((40, 1, 4), 136)),
                  *solver._on_design(prob._design, [rand((40, 1, 4), 137)])]
        for q in (*copies, prob):
            for method in ("lev", "slev", "opt"):
                experiments.build_distribution(q, method)
            tlsq.sandwich_middle_trace(q, np.full(40, 1 / 40))
        assert len(products) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(1, 4),
        extra=st.one_of(st.just(0), st.integers(1, 20)),
        l=st.sampled_from([1, 2, 5, 6]),
        seed=st.integers(0, 2**16),
    )
    @example(p=3, extra=0, l=6, seed=0)
    @example(p=1, extra=0, l=1, seed=1)
    @example(p=4, extra=17, l=5, seed=2)
    @example(p=2, extra=9, l=2, seed=3)
    def test_problem_and_tensor_agree(self, p, extra, l, seed):
        """Sampling and stats read the same design state from a problem and from its tensor."""
        n = p + extra
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p, l))
        x[:p, :, 0] += 4.0 * np.sqrt(l * p) * np.eye(p)  # every slice keeps a dominant block
        prob = tlsq.TlsProblem(x, rng.standard_normal((n, 1, l)))
        dist = tlsq.uniform_probs(n)

        def close(got, want, scale):
            assert np.abs(np.asarray(got) - np.asarray(want)).max() <= 1e-12 * scale

        lev = [tlsq.leverage_probs(d).probs for d in (prob, x)]
        close(*lev, lev[1].max())
        ols = [tlsq.ols_variance(d, 1.5) for d in (prob, x)]
        close(*ols, np.abs(ols[1]).max())
        unc = [tlsq.unconditional_variance(d, dist, n, 1.5) for d in (prob, x)]
        close(*unc, np.abs(unc[1]).max())
        trace = [tlsq.sandwich_middle_trace(d, dist.probs) for d in (prob, x)]
        close(*trace, n * (x**2).sum())
        if extra:
            opt = [tlsq.optimal_probs(d).probs for d in (prob, x)]
            close(*opt, opt[1].max())
        else:  # n = p: every row has leverage one
            for d in (prob, x):
                with pytest.raises(tlsq.DegenerateDistribution):
                    tlsq.optimal_probs(d)


class TestTauLowerBound:
    def test_unit_case(self):
        assert tlsq.tau_lower_bound(1, 1, 1.0, 1.0) == 440

    def test_quadratic_growth_case(self):
        assert tlsq.tau_lower_bound(10, 10, 1.0, 1.0) == 4_400_000

    def test_inverse_proportionality_in_beta(self):
        assert tlsq.tau_lower_bound(3, 2, 0.5, 1.0) == 2 * tlsq.tau_lower_bound(3, 2, 1.0, 1.0)

    def test_domain_errors(self):
        for beta, eps in ((0.0, 1.0), (1.5, 1.0), (1.0, 0.0), (1.0, 2.0), (-1.0, 0.5)):
            with pytest.raises(ValueError):
                tlsq.tau_lower_bound(2, 2, beta, eps)

    @pytest.mark.parametrize("p, l", [(0, 2), (2, 0)], ids=["p0", "l0"])
    def test_shape_domain_errors(self, p, l):
        with pytest.raises(ValueError, match="p and l must be at least 1"):
            tlsq.tau_lower_bound(p, l, 1.0, 1.0)

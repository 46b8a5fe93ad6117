"""Sampling distributions against per-slice hat-matrix oracles and draw statistics."""

import csv
import io

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tlsq
from tlsq import experiments as ex
from tlsq import sampling, solver
from tlsq.errors import DegenerateDistribution, RankDeficient
from tlsq.sampling import write_distribution_csv


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def slice_hat_leverage(x):
    """Oracle: per-slice hat-matrix diagonals averaged over the tube DFT."""
    xh = np.fft.fft(x, axis=2)
    n, p, l = x.shape
    h = np.zeros(n)
    for k in range(l):
        a = xh[:, :, k]
        hat = a @ np.linalg.inv(a.conj().T @ a) @ a.conj().T
        h += np.diag(hat).real
    return h / l


def equal_leverage_design(n=4, p=2, l=3):
    """Rows share leverage and norm in every DFT slice: scaled orthogonal columns."""
    had = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
    ) / 2.0
    q = had[:, :p]
    tube = np.array([2.0, 0.5, 0.25])[:l]
    return q[:, :, None] * tube[None, None, :]


class TestUniform:
    def test_quarter_probabilities(self):
        assert np.array_equal(tlsq.uniform_probs(4).probs, np.full(4, 0.25))

    def test_sums_near_one_up_to_large_n(self):
        # entries are the correctly rounded 1/n, so the sum can sit a few ulp
        # off one; it always lands well inside the 1e-12 contract
        for n in (3, 6, 49, 1000, 10**5, 10**6):
            assert abs(tlsq.uniform_probs(n).probs.sum() - 1.0) <= 4e-15

    def test_matches_shrinkage_limit(self):
        x = rand((12, 3, 2), 0)
        lev = tlsq.leverage_probs(x).probs
        n = 12
        for alpha in (1e-9, 1e-12):
            mixed = alpha * lev + (1 - alpha) / n
            assert np.abs(mixed - tlsq.uniform_probs(n).probs).max() <= 2 * alpha


class TestLeverage:
    def test_partially_orthogonal_design(self):
        u = tlsq.thin_t_svd(rand((10, 3, 4), 1)).u
        dist = tlsq.leverage_probs(u)
        rows = (u**2).sum(axis=(1, 2))
        assert np.abs(dist.probs - rows / 3).max() <= 1e-10

    def test_identity_design_is_uniform(self):
        dist = tlsq.leverage_probs(tlsq.identity(5, 3))
        assert np.abs(dist.probs - 0.2).max() <= 1e-12

    def test_scores_sum_to_p_and_match_hat_oracle(self):
        x = rand((20, 3, 4), 2)
        dist = tlsq.leverage_probs(x)
        assert abs(dist.leverage.sum() - 3.0) <= 1e-10
        assert np.abs(dist.leverage - slice_hat_leverage(x)).max() <= 1e-10

    def test_rank_deficient_slice_rejected(self):
        x = np.repeat(rand((8, 2, 1), 3), 3, axis=2)  # only slice 0 of the DFT is nonzero
        with pytest.raises(RankDeficient):
            tlsq.leverage_probs(x)

    def test_error_bound_premise_met_with_equality(self):
        x = rand((15, 3, 2), 4)
        dist = tlsq.leverage_probs(x)
        assert np.abs(dist.probs - dist.leverage / 3).max() == 0.0


class TestShrinkedLeverage:
    def test_uniform_leverage_stays_uniform(self):
        x = equal_leverage_design()
        dist = tlsq.shrinked_leverage_probs(x, 0.9)
        assert np.abs(dist.probs - 0.25).max() <= 1e-12

    def test_lower_bound(self):
        x = rand((30, 3, 4), 5)
        for alpha in (0.1, 0.5, 0.9):
            dist = tlsq.shrinked_leverage_probs(x, alpha)
            assert dist.probs.min() >= (1 - alpha) / 30 - 1e-15

    def test_spot_check_single_index(self):
        x = rand((10, 2, 2), 6)
        h = slice_hat_leverage(x)
        dist = tlsq.shrinked_leverage_probs(x, 0.7)
        expected = 0.7 * h[3] / 2 + 0.3 / 10
        assert abs(dist.probs[3] - expected) <= 1e-10

    def test_alpha_domain(self):
        x = rand((8, 2, 2), 7)
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                tlsq.shrinked_leverage_probs(x, alpha)

    def test_coherence_premise_bound(self):
        x = rand((25, 3, 3), 8)
        dist = tlsq.shrinked_leverage_probs(x, 0.9)
        u = tlsq.thin_t_svd(x).u
        mu = tlsq.coherence(u)
        bound = (0.9 + 0.1 * 3 / mu) * dist.leverage / 3
        assert (dist.probs >= bound - 1e-12).all()


class TestOptimal:
    def test_square_design_degenerates(self):
        x = rand((4, 4, 3), 9) + 2.0 * tlsq.identity(4, 3)
        with pytest.raises(DegenerateDistribution):
            tlsq.optimal_probs(x)

    def test_constant_radicand_gives_uniform(self):
        dist = tlsq.optimal_probs(equal_leverage_design())
        assert np.abs(dist.probs - 0.25).max() <= 1e-10

    def test_nonnegative_normalized(self):
        x = rand((30, 3, 4), 10)
        dist = tlsq.optimal_probs(x)
        assert (dist.probs >= 0).all()
        assert abs(dist.probs.sum() - 1.0) <= 1e-12

    def test_beats_random_simplex_on_middle_trace(self):
        from tlsq.stats import sandwich_middle_trace

        rng = np.random.default_rng(11)
        x = rng.standard_normal((30, 3, 4))
        best = sandwich_middle_trace(x, tlsq.optimal_probs(x).probs)
        for _ in range(100):
            other = sandwich_middle_trace(x, rng.dirichlet(np.ones(30)))
            assert best <= other + 1e-9 * abs(other)


class TestCoherence:
    def test_identity_single_tube(self):
        assert abs(tlsq.coherence(tlsq.identity(3, 1)) - 1.0) <= 1e-12

    def test_incoherent_rows_attain_lower_bound(self):
        had = np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
        ) / 2.0
        u = np.zeros((4, 2, 3))
        u[:, :, 0] = had[:, :2]
        assert abs(tlsq.coherence(u) - 3.0) <= 1e-12

    def test_matches_direct_row_maximum(self):
        u = tlsq.thin_t_svd(rand((20, 2, 3), 12)).u
        direct = 20 * 3 / 2 * (u**2).sum(axis=(1, 2)).max()
        assert abs(tlsq.coherence(u) - direct) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(1, 4),
        extra_rows=st.sampled_from([0, 1, 7]),
        l=st.sampled_from([1, 2, 5, 6]),
        problem=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=3, extra_rows=0, l=1, problem=False, seed=0)
    @example(p=2, extra_rows=7, l=2, problem=True, seed=1)
    @example(p=4, extra_rows=1, l=5, problem=True, seed=2)
    @example(p=1, extra_rows=7, l=6, problem=False, seed=3)
    def test_equals_coherence_of_t_svd_factor(self, p, extra_rows, l, problem, seed):
        """coherence(x) = coherence(U) = n*l/p * max_i sum_jk u_ijk^2 for x's thin t-SVD factor U.

        x is given bare or as a TlsProblem on it, and U, an orthonormal
        design, is given bare. The leverage of x is accurate to about eps
        times its slice condition number, so ill-conditioned draws are left
        out. At n = p every row has leverage one and the coherence is l.
        """
        rng = np.random.default_rng(seed)
        n = p + extra_rows
        x = rng.standard_normal((n, p, l))
        assume(np.linalg.cond(np.fft.fft(x, axis=2).transpose(2, 0, 1)).max() < 1e3)
        u = tlsq.thin_t_svd(x).u
        direct = n * l / p * (u**2).sum(axis=(1, 2)).max()
        given_x = tlsq.TlsProblem(x, rng.standard_normal((n, 1, l))) if problem else x
        for mu in (tlsq.coherence(given_x), tlsq.coherence(u)):
            assert abs(mu - direct) <= 1e-12 * direct
        if n == p:
            assert abs(direct - l) <= 1e-12 * l


class TestDrawPlan:
    def test_point_mass(self):
        probs = np.zeros(6)
        probs[3] = 1.0
        dist = tlsq.SamplingDistribution(kind="custom", probs=probs)
        plan = tlsq.draw_plan(dist, 5, seed=0)
        assert (plan.indices == 3).all()
        assert np.abs(plan.weights - 1 / np.sqrt(5)).max() <= 1e-15

    def test_uniform_frequencies(self):
        dist = tlsq.uniform_probs(10)
        plan = tlsq.draw_plan(dist, 100_000, seed=123)
        freqs = np.bincount(plan.indices, minlength=10) / plan.tau
        assert np.abs(freqs - 0.1).max() <= 0.003

    def test_law_of_large_numbers_general(self):
        rng = np.random.default_rng(14)
        probs = rng.dirichlet(np.ones(8))
        dist = tlsq.SamplingDistribution(kind="custom", probs=probs)
        plan = tlsq.draw_plan(dist, 100_000, seed=15)
        freqs = np.bincount(plan.indices, minlength=8) / plan.tau
        assert np.abs(freqs - probs).max() <= 0.01

    def test_determinism(self):
        dist = tlsq.uniform_probs(20)
        a = tlsq.draw_plan(dist, 50, seed=7)
        b = tlsq.draw_plan(dist, 50, seed=7)
        c = tlsq.draw_plan(dist, 50, seed=8)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.indices, c.indices)

    def test_zero_probability_rows_never_drawn(self):
        probs = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        dist = tlsq.SamplingDistribution(kind="custom", probs=probs)
        plan = tlsq.draw_plan(dist, 10_000, seed=16)
        assert set(np.unique(plan.indices)) <= {1, 3}

    def test_weights_definition(self):
        x = rand((12, 2, 2), 17)
        dist = tlsq.leverage_probs(x)
        plan = tlsq.draw_plan(dist, 40, seed=18)
        expected = 1.0 / np.sqrt(40 * dist.probs[plan.indices])
        assert np.array_equal(plan.weights, expected)

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            tlsq.draw_plan(tlsq.uniform_probs(3), 0, seed=0)

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            tlsq.draw_plan(tlsq.uniform_probs(3), 2, seed=None)

    def test_all_rows_plan(self):
        plan = tlsq.SamplingPlan(tau=7, indices=range(7), weights=[1] * 7)
        assert plan.indices.dtype == np.int64 and np.array_equal(plan.indices, np.arange(7))
        assert plan.weights.dtype == np.float64 and (plan.weights == 1.0).all()


def zero_row_opt_design(n=12, p=3, l=4, seed=19):
    """Rows 0 and 1 alone carry the last two columns, so their leverage is one in every slice."""
    x = rand((n, p, l), seed)
    x[2:, p - 2 :] = 0.0
    return x


class TestBatchDraw:
    """_draw_plans gives every plan exactly what draw_plan gives it on the same stream."""

    @staticmethod
    def assert_rows_match(dists, tau, stream):
        """Row j of the batch against draw_plan(dists[j], tau, stream(j)), stream(j) a Generator."""
        indices, weights = sampling._draw_plans(dists, tau, [stream(j) for j in range(len(dists))])
        assert indices.shape == weights.shape == (len(dists), tau)
        for j, (dist, row_i, row_w) in enumerate(zip(dists, indices, weights)):
            plan = tlsq.draw_plan(dist, tau, stream(j))
            assert np.array_equal(row_i, plan.indices) and np.array_equal(row_w, plan.weights)

    @pytest.mark.parametrize("redraw", [False, True])
    @pytest.mark.parametrize("mode", ex.REPLICATE_MODES)
    def test_driver_grid(self, redraw, mode):
        cfg = ex.ExperimentConfig(seed=29, n=40, p=4, l=3, design="t1", replicates=5, taus=(4, 9),
                                  mode=mode, redraw_design=redraw)
        cells = [ex._Cell(method, tau, method, tau, ex._STREAM_PLAN, (mi, ti))
                 for mi, method in enumerate(cfg.methods) for ti, tau in enumerate(cfg.taus)]
        states = [ex._prepare_state(cfg, cells, ex._STREAM_DESIGN, *((b,) if redraw else ()))
                  for b in range(cfg.replicates)]
        for cell in cells:
            dists = [state.dists[cell.kind, cell.matrix] for state in states]
            self.assert_rows_match(
                dists, cell.draws, lambda b: ex._rng(cfg.seed, cell.stream, b, *cell.index)
            )

    @pytest.mark.parametrize("tau", [1, 2, 40])
    def test_zero_probability_rows_and_short_plans(self, tau):
        opt = tlsq.optimal_probs(zero_row_opt_design())
        assert (opt.probs[:2] == 0).all() and (opt.probs[2:] > 0).all()
        lev = tlsq.leverage_probs(zero_row_opt_design())
        self.assert_rows_match([opt, lev, opt, lev], tau, lambda j: np.random.default_rng(30 + j))
        rngs = [np.random.default_rng(s) for s in (34, 35, 36)]
        indices, _ = sampling._draw_plans([opt] * 3, tau, rngs)
        assert (indices >= 2).all()

    def test_tau_domain(self):
        with pytest.raises(ValueError, match="tau must be at least 1"):
            sampling._draw_plans([tlsq.uniform_probs(3)], 0, [np.random.default_rng(0)])

    @staticmethod
    def plan_error(build):
        with pytest.raises(ValueError) as err:
            build()
        return str(err.value)

    @pytest.mark.parametrize("fault", ["zero_weight", "nan_weight", "out_of_range", "short_tau",
                                       "lengths"])
    def test_batch_rejects_what_a_plan_rejects(self, fault):
        x = rand((30, 3, 4), 37)
        prob = tlsq.TlsProblem(x, rand((30, 1, 4), 38))
        tau = 2 if fault == "short_tau" else 12
        rngs = [np.random.default_rng(s) for s in (39, 40, 41)]
        indices, weights = sampling._draw_plans([tlsq.leverage_probs(prob)] * 3, tau, rngs)
        if fault == "zero_weight":
            weights[1, 5] = 0.0
        elif fault == "nan_weight":
            weights[2, 0] = np.nan
        elif fault == "out_of_range":
            indices[0, 3] = 30
        elif fault == "lengths":
            weights = weights[:, 1:]
        bad = {"zero_weight": 1, "nan_weight": 2}.get(fault, 0)
        expected = self.plan_error(lambda: tlsq.solve_subsampled(
            prob, tlsq.SamplingPlan(tau=tau, indices=indices[bad], weights=weights[bad])))
        with pytest.raises(ValueError) as err:
            solver._solve_sketches([prob] * 3, indices, weights)
        assert str(err.value) == expected


class TestCompressedDraw:
    """_draw_compressed is _compress(*_draw_plans(...)) bit for bit in all four outputs."""

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.integers(1, 4),
        l=st.sampled_from([1, 2, 5, 6]),
        extra_rows=st.integers(0, 8),
        extra_tau=st.sampled_from([0, 1, 5, 40, 300]),
        matrix=st.booleans(),
        plans=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(["unif", "lev", "slev", "opt", "point"])),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    # l = 1 and tau = p, with zero-probability rows and a plan of one unique row
    @example(p=1, l=1, extra_rows=0, extra_tau=0, matrix=False,
             plans=[(2, "opt"), (0, "point"), (1, "lev"), (2, "opt")], seed=0)
    @example(p=4, l=6, extra_rows=8, extra_tau=300, matrix=True,
             plans=[(0, "lev"), (1, "unif"), (2, "point"), (0, "lev")], seed=1)
    @example(p=3, l=5, extra_rows=2, extra_tau=40, matrix=False,
             plans=[(0, "slev"), (2, "opt"), (0, "slev"), (1, "unif"), (2, "opt")], seed=2)
    def test_matches_compressed_draw_order(self, p, l, extra_rows, extra_tau, matrix, plans, seed):
        """Plan j draws tau = p + extra_tau rows from a distribution on one of three designs of
        n = p + 3 + extra_rows rows, as a batch on a redrawn design does: two random ones and
        zero_row_opt_design, whose opt distribution has zero-probability rows. A point mass
        makes a plan of one unique row. A matrix cell draws unif or lev over the n*l rows of
        the flattened system, as _cell_distribution builds them."""
        n = p + 3 + extra_rows
        designs = [rand((n, p, l), seed), rand((n, p, l), seed + 1),
                   zero_row_opt_design(n, 3, l, seed + 2)]
        rows = n * l if matrix else n
        built = {}
        for k, kind in plans:
            if (k, kind) in built:
                continue
            if kind == "point":
                probs = np.zeros(rows)
                probs[np.random.default_rng(seed + k).integers(rows)] = 1.0
                built[k, kind] = tlsq.SamplingDistribution(kind="custom", probs=probs)
            elif matrix:
                prob = tlsq.TlsProblem(designs[k], np.zeros((n, 1, l)))
                built[k, kind] = ex._cell_distribution(prob, kind, True, 0.9)
            else:
                built[k, kind] = ex.build_distribution(designs[k], kind)
        dists = [built[plan] for plan in plans]
        if (2, "opt") in built and not matrix:
            assert (built[2, "opt"].probs[:2] == 0).all()
        tau = p + extra_tau

        def streams():
            return [np.random.default_rng([seed, j]) for j in range(len(plans))]

        got = sampling._draw_compressed(dists, tau, streams(), rows, p)
        want = solver._compress(*sampling._draw_plans(dists, tau, streams()), rows, p)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        one_row = [j for j, (_, kind) in enumerate(plans) if kind == "point"]
        assert (got[3][one_row] == 1).all()

    @pytest.mark.parametrize("fault", ["out_of_range", "short_tau", "tau_domain"])
    def test_rejects_what_compress_rejects(self, fault):
        dist = tlsq.uniform_probs(30)
        n, tau = {"out_of_range": (20, 12), "short_tau": (30, 2), "tau_domain": (30, 0)}[fault]

        def streams():
            return [np.random.default_rng(s) for s in (42, 43)]

        with pytest.raises(ValueError) as want:
            solver._compress(*sampling._draw_plans([dist] * 2, tau, streams()), n, 3)
        with pytest.raises(ValueError) as got:
            sampling._draw_compressed([dist] * 2, tau, streams(), n, 3)
        assert str(got.value) == str(want.value)


class TestProblemInput:
    @pytest.mark.parametrize("method", ["unif", "lev", "slev", "opt"])
    def test_problem_and_design_give_identical_distributions(self, method):
        x = tlsq.gen_design("t3", 60, 4, 5, seed=9)
        prob = tlsq.TlsProblem(x, rand((60, 1, 5), 10))
        build = tlsq.experiments.build_distribution
        from_prob, from_design = build(prob, method, 0.7), build(prob.design, method, 0.7)
        assert np.array_equal(from_prob.probs, from_design.probs)
        if method != "unif":
            assert np.array_equal(from_prob.leverage, from_design.leverage)


class TestDistributionValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tlsq.SamplingDistribution(kind="custom", probs=np.array([1.5, -0.5]))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            tlsq.SamplingDistribution(kind="custom", probs=np.array([0.5, 0.4]))

    def test_uniform_kind_requires_positivity(self):
        with pytest.raises(ValueError, match="positive"):
            tlsq.SamplingDistribution(kind="unif", probs=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("probs", [np.zeros(0), np.full((2, 2), 0.25)], ids=["empty", "2-d"])
    def test_probabilities_must_be_a_nonempty_vector(self, probs):
        with pytest.raises(ValueError, match="nonempty vector"):
            tlsq.SamplingDistribution(kind="custom", probs=probs)

    def test_uniform_needs_a_row(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            tlsq.uniform_probs(0)


class TestCsv:
    def test_distribution_round_trip(self):
        dist = tlsq.leverage_probs(rand((9, 2, 2), 19))
        buf = io.StringIO()
        write_distribution_csv(dist, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "index,prob"
        parsed = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.array_equal(parsed, dist.probs)

    def test_distribution_matches_csv_writer_bytes(self):
        dist = tlsq.SamplingDistribution(kind="opt", probs=np.array([0.0, 1e-300, 1.0, 0.0]))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["index", "prob"])
        for i, prob in enumerate(dist.probs, start=1):
            writer.writerow([i, f"{prob:.17g}"])
        buf = io.StringIO()
        write_distribution_csv(dist, buf)
        assert buf.getvalue() == expected.getvalue()

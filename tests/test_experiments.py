"""Data generators, metric definitions, harness determinism, and report I/O."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tlsq
from tlsq import experiments, sampling, solver
from tlsq.errors import SketchRankDeficient
from tlsq.experiments import (
    ConfigError,
    ExperimentConfig,
    MetricsRow,
    compute_metrics,
    covariance_matrix,
    gen_design,
    gen_response,
    parse_config_file,
    read_report,
    run_experiment,
    run_mls_comparison,
    true_coefficients,
    write_report,
)


class TestGenerators:
    def test_covariance_entries(self):
        sigma = covariance_matrix(4)
        for i in range(4):
            for j in range(4):
                assert sigma[i, j] == 2.0 * 0.5 ** abs(i - j)

    def test_normal_rows_center_on_ones(self):
        n = 5000
        x = gen_design("mn", n, 10, 2, seed=0)
        bound = 5 * np.sqrt(2.0 / n)
        assert np.abs(x.mean(axis=(0, 2)) - 1.0).max() <= bound

    def test_normal_sample_covariance(self):
        n = 5000
        x = gen_design("mn", n, 10, 2, seed=1)
        rows = x.transpose(0, 2, 1).reshape(-1, 10)
        emp = np.cov(rows.T)
        target = covariance_matrix(10)
        assert np.abs(emp - target).max() <= 0.1 * target.max()

    def test_heavy_tails_produce_nonuniform_leverage(self):
        x = gen_design("t1", 1000, 6, 4, seed=2)
        h = tlsq.leverage_probs(x).leverage
        assert h.max() >= 10 * np.median(h)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_design("cauchy", 10, 4, 2, seed=0)

    def test_design_needs_two_columns(self):
        with pytest.raises(ValueError, match="p >= 2"):
            gen_design("mn", 10, 1, 2, seed=0)

    def test_unknown_distribution_method(self):
        with pytest.raises(ValueError, match="unknown method 'cauchy'"):
            experiments.build_distribution(gen_design("mn", 10, 4, 2, seed=0), "cauchy")

    def test_coefficient_pattern(self):
        b0 = true_coefficients(10, 3)
        expected = np.array([1, 1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 1, 1])
        for k in range(3):
            assert np.array_equal(b0[:, 0, k], expected)

    def test_noiseless_response_recovers_truth(self):
        x = gen_design("mn", 60, 4, 3, seed=3)
        y, b0 = gen_response(x, seed=4, sigma2=0.0)
        prob = tlsq.TlsProblem(x, y)
        assert tlsq.objective(prob, b0) <= 1e-16
        assert np.abs(tlsq.solve_ols(prob).b - b0).max() <= 1e-8

    def test_noise_variance(self):
        x = gen_design("mn", 10000, 4, 5, seed=5)
        y, b0 = gen_response(x, seed=6, sigma2=9.0)
        noise = y - tlsq.t_product(x, b0)
        assert abs(noise.var() - 9.0) <= 0.45

    def test_response_needs_wide_enough_design(self):
        with pytest.raises(ValueError, match="p >= 4"):
            gen_response(gen_design("mn", 10, 3, 2, seed=7), seed=8)

    def test_design_needs_a_seed(self):
        with pytest.raises(ValueError, match="gen_design needs a seed"):
            gen_design("mn", 10, 4, 2, seed=None)

    def test_response_needs_a_seed(self):
        with pytest.raises(ValueError, match="gen_response needs a seed"):
            gen_response(gen_design("mn", 10, 4, 2, seed=7), None)


def energies(problems):
    """Each problem's response energy ||Y||_F^2, as compute_metrics takes it."""
    return [float(np.vdot(pb.response, pb.response)) for pb in problems]


def metrics(ests, exact, truth, problems, **kwargs):
    """compute_metrics on aligned per-replicate lists, objectives read on each replicate's problem."""
    return compute_metrics(
        ests,
        exact,
        truth,
        energies(problems),
        objectives=[tlsq.objective(pb, b) for pb, b in zip(problems, ests)],
        exact_objectives=[tlsq.objective(pb, b) for pb, b in zip(problems, exact)],
        **kwargs,
    )


class TestComputeMetrics:
    def test_estimates_at_truth(self):
        x = gen_design("mn", 30, 4, 2, seed=9)
        y, b0 = gen_response(x, seed=10)
        prob = tlsq.TlsProblem(x, y)
        ols = tlsq.solve_ols(prob).b
        row = metrics([b0, b0, b0], [ols] * 3, b0, [prob] * 3)
        assert row.ssb == 0.0 and row.sv == 0.0 and row.smse == 0.0

    def test_estimates_at_exact_solution(self):
        x = gen_design("mn", 30, 4, 2, seed=11)
        y, b0 = gen_response(x, seed=12)
        prob = tlsq.TlsProblem(x, y)
        ols = tlsq.solve_ols(prob).b
        row = metrics([ols, ols], [ols] * 2, b0, [prob] * 2)
        assert row.smrfv == 0.0 and row.smre == 0.0

    def test_hand_example(self):
        x = np.ones((3, 1, 1))
        y = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        prob = tlsq.TlsProblem(x, y)
        ols = tlsq.solve_ols(prob).b
        truth = np.zeros((1, 1, 1))
        b1 = np.full((1, 1, 1), 1.0)
        b2 = np.full((1, 1, 1), 3.0)
        row = metrics([b1, b2], [ols] * 2, truth, [prob] * 2)
        assert row.ssb == pytest.approx(4.0, abs=1e-12)
        assert row.sv == pytest.approx(1.0, abs=1e-12)
        assert row.smse == pytest.approx(5.0, abs=1e-12)

    def test_bias_variance_identity(self):
        rng = np.random.default_rng(13)
        x = gen_design("mn", 30, 4, 2, seed=14)
        y, b0 = gen_response(x, seed=15)
        prob = tlsq.TlsProblem(x, y)
        ols = tlsq.solve_ols(prob).b
        ests = [ols + 0.3 * rng.standard_normal(ols.shape) for _ in range(25)]
        row = metrics(ests, [ols] * 25, b0, [prob] * 25)
        assert abs(row.smse - (row.ssb + row.sv)) <= 1e-8 * max(1.0, row.smse)

    def test_consistent_system_flags_undefined_smrfv(self):
        x = gen_design("mn", 30, 4, 2, seed=16)
        y, b0 = gen_response(x, seed=17, sigma2=0.0)
        prob = tlsq.TlsProblem(x, y)
        row = metrics([b0, b0], [b0, b0], b0, [prob] * 2)
        assert np.isnan(row.smrfv)

    def test_fewer_than_two_estimates_give_nan_row(self):
        x = gen_design("mn", 30, 4, 2, seed=18)
        y, b0 = gen_response(x, seed=19)
        prob = tlsq.TlsProblem(x, y)
        row = metrics([b0], [b0], b0, [prob], method="lev", tau=12, failures=3,
                      wall_times=[1.0, 2.0, 3.0, 4.0])
        assert (row.method, row.tau, row.replicates, row.failures, row.mean_ms) == (
            "lev", 12, 1, 3, 2.5)
        assert all(math.isnan(v) for v in (row.smrfv, row.smre, row.ssb, row.sv, row.smse))

    def test_per_replicate_references(self):
        x = gen_design("mn", 30, 4, 2, seed=20)
        probs, ols_refs, ests = [], [], []
        base = tlsq.TlsProblem(x, gen_response(x, seed=21)[0])
        for b in range(3):
            y, b0 = gen_response(x, seed=22 + b)
            pb = base.with_response(y)
            sol = tlsq.solve_ols(pb).b
            probs.append(pb)
            ols_refs.append(sol)
            ests.append(sol)
        row = metrics(ests, ols_refs, b0, probs)
        assert row.smrfv == 0.0 and row.smre == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(0, 6),
        p=st.integers(1, 4),
        extra_rows=st.sampled_from([0, 1, 9]),
        l=st.sampled_from([1, 2, 5, 6]),
        consistent=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(count=3, p=3, extra_rows=9, l=5, consistent=True, seed=0)
    @example(count=3, p=3, extra_rows=9, l=6, consistent=False, seed=1)
    @example(count=4, p=2, extra_rows=0, l=2, consistent=False, seed=2)
    @example(count=1, p=4, extra_rows=1, l=1, consistent=False, seed=3)
    def test_matches_direct_formulas(self, count, p, extra_rows, l, consistent, seed):
        """Every metric against its numpy formula on aligned stacks; n = p systems are consistent.

        Replicate j has its own response on one design, noisy or X * B_j,
        and its estimate is the exact solution plus unit noise.
        """
        rng = np.random.default_rng(seed)
        n = p + extra_rows
        x = rng.standard_normal((n, p, l))
        base = tlsq.TlsProblem(x, rng.standard_normal((n, 1, l)))
        problems = [
            base.with_response(tlsq.t_product(x, rng.standard_normal((p, 1, l))) if consistent
                               else rng.standard_normal((n, 1, l)))
            for _ in range(count)
        ]
        sols = [tlsq.solve_ols(pb) for pb in problems]
        exact = np.reshape([sol.b for sol in sols], (count, p, 1, l))
        f_exact = np.array([sol.objective for sol in sols])
        ests = exact + rng.standard_normal(exact.shape)
        f = np.array([tlsq.objective(pb, b) for pb, b in zip(problems, ests)])
        truth = rng.standard_normal((p, 1, l))
        row = compute_metrics(ests, exact, truth, energies(problems), objectives=f,
                              exact_objectives=f_exact, method="m", tau=7, failures=2)
        assert (row.method, row.tau, row.replicates, row.failures) == ("m", 7, count, 2)
        got = np.array([row.smrfv, row.smre, row.ssb, row.sv, row.smse])
        if count < 2:
            assert np.isnan(got).all()
        else:
            def energy(a):
                return (a**2).sum(axis=(1, 2, 3))

            mean = ests.mean(axis=0)
            y_energy = np.array([(pb.response**2).sum() for pb in problems])
            perfect = (f_exact <= 1e4 * np.finfo(float).eps ** 2 * y_energy).any()
            if not consistent and extra_rows:
                assert not perfect
            smrfv = np.nan if perfect else (np.abs(f - f_exact) / f_exact).mean()
            want = np.array([smrfv, (energy(ests - exact) / energy(exact)).mean(),
                             ((mean - truth) ** 2).sum(), energy(ests - mean).mean(),
                             energy(ests - truth).mean()])
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True)
            assert abs(row.smse - (row.ssb + row.sv)) <= 1e-12 * row.smse
        extra = np.zeros((1, p, 1, l))
        aligned = dict(objectives=f, exact_objectives=f_exact)
        ys = energies(problems)
        for args, kwargs in [
            ((ests, np.concatenate([exact, extra]), truth, ys), aligned),
            ((ests, exact, truth, energies([*problems, base])), aligned),
            ((ests, exact, truth, ys), dict(aligned, objectives=np.append(f, 1.0))),
            ((ests, exact, truth, ys), dict(aligned, exact_objectives=np.append(f_exact, 0))),
        ]:
            with pytest.raises(ValueError, match="per estimate|stack"):
                compute_metrics(*args, **kwargs)
        if count:
            bad = ests.copy()
            bad[-1, 0, 0, 0] = np.nan
            with pytest.raises(ValueError, match="finite"):
                compute_metrics(bad, exact, truth, ys, **aligned)
            with pytest.raises(ValueError, match="finite"):
                compute_metrics(ests, exact, truth, ys,
                                **dict(aligned, exact_objectives=np.full(count, np.inf)))


class TestClosedFormSignal:
    """The driver's closed-form signal is the t-product X * B0."""

    @pytest.mark.parametrize("design", ["mn", "t3", "t1"])
    @pytest.mark.parametrize("l", [1, 2, 5, 6])
    def test_matches_t_product(self, design, l):
        x = gen_design(design, 50, 5, l, seed=40 + l)
        want = tlsq.t_product(x, true_coefficients(5, l))
        got = experiments._signal(x)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestRunExperiment:
    def test_repeat_runs_identical(self):
        cfg = ExperimentConfig(seed=3, n=120, p=4, l=3, design="mn", replicates=8,
                               taus=(12,), methods=("unif", "lev"), mode="unconditional")
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [(r.method, r.tau, r.smse, r.sv, r.ssb) for r in a] == [
            (r.method, r.tau, r.smse, r.sv, r.ssb) for r in b
        ]

    def test_conditional_mode_fixed_response(self):
        cfg = ExperimentConfig(seed=4, n=120, p=4, l=3, design="mn", replicates=6,
                               taus=(20,), methods=("unif",), mode="conditional")
        rows = run_experiment(cfg)
        assert rows[0].replicates == 6

    def test_failures_counted_and_excluded(self):
        cfg = ExperimentConfig(seed=2, n=50, p=4, l=2, design="mn", replicates=15,
                               taus=(4,), methods=("unif",), mode="conditional")
        row = run_experiment(cfg)[0]
        assert row.failures == 2
        assert row.replicates == 13

    def test_smls_rows_present(self):
        cfg = ExperimentConfig(seed=5, n=80, p=4, l=2, design="mn", replicates=4,
                               taus=(16,), methods=("unif", "slev"), smls="same_tau",
                               mode="conditional")
        rows = run_experiment(cfg)
        methods = {r.method for r in rows}
        assert methods == {"unif", "slev", "smls-unif"}

    def test_timing_off_by_default(self):
        cfg = ExperimentConfig(seed=6, n=80, p=4, l=2, design="mn", replicates=3,
                               taus=(12,), methods=("unif",), mode="conditional")
        assert np.isnan(run_experiment(cfg)[0].mean_ms)

    def test_timing_opt_in(self):
        cfg = ExperimentConfig(seed=6, n=80, p=4, l=2, design="mn", replicates=3,
                               taus=(12,), methods=("unif",), mode="conditional", timing=True)
        assert run_experiment(cfg)[0].mean_ms > 0.0

    def test_timing_fills_every_cell(self):
        """Tensor cells, whose finish is shared per chunk, and matrix cells alike are timed."""
        cfg = ExperimentConfig(seed=6, n=80, p=4, l=3, design="t3", replicates=11,
                               taus=(12, 24), methods=("unif", "lev", "slev"),
                               smls="same_tau", timing=True)
        rows = run_experiment(cfg)
        assert {r.method for r in rows} == {"unif", "lev", "slev", "smls-unif", "smls-lev"}
        for r in rows:
            assert math.isfinite(r.mean_ms) and r.mean_ms > 0.0, r

    def test_redraw_design_changes_results(self):
        """Both report commands honour redraw_design: every row of either report moves."""
        base = dict(seed=7, n=80, p=4, l=2, design="mn", replicates=4,
                    taus=(16,), methods=("unif",), mode="unconditional")
        for run in (run_experiment, run_mls_comparison):
            fixed = run(ExperimentConfig(**base))
            redrawn = run(ExperimentConfig(**base, redraw_design=True))
            assert [r.method for r in fixed] == [r.method for r in redrawn]
            assert all(a.smse != b.smse for a, b in zip(fixed, redrawn)), run.__name__

    def test_bias_variance_identity_on_every_row(self):
        cfg = ExperimentConfig(seed=8, n=150, p=4, l=3, design="t3", replicates=25,
                               taus=(12, 24), methods=("unif", "lev", "opt"),
                               mode="unconditional")
        for row in run_experiment(cfg):
            assert abs(row.smse - (row.ssb + row.sv)) <= 1e-8 * max(1.0, row.smse)
            assert min(row.smrfv, row.smre, row.ssb, row.sv, row.smse) >= 0.0


def matrix_oracle(a, rhs, plan, p, l):
    """The baseline estimate of `plan`: lstsq on its uncompressed tau-row weighted sketch.

    None when the sketch has rank below p*l under lstsq's default cutoff.
    """
    sketch = a[plan.indices] * plan.weights[:, None]
    target = rhs[plan.indices] * plan.weights[:, None]
    sol, _, rank, _ = np.linalg.lstsq(sketch, target, rcond=None)
    return tlsq.fold(sol, p, l) if rank == p * l else None


def per_cell_loop(cfg, compare=False):
    """Reference reports from one solve per cell, on the same stream keys.

    Replicate b's design is gen_design's draw from (seed, design stream), or
    from (seed, design stream, b) under redraw_design, in both modes. Its
    response is gen_response's draw from (seed, response stream, b), or
    from (seed, response stream) if conditional, and its exact fit is its
    own solve_ols. It draws the plan of tensor cell (i, j) from (seed, plan
    stream, b, i, j), i indexing the methods (the unif/lev kinds in compare
    mode) and j the taus, from build_distribution on the design, and solves
    it by solve_subsampled. Matrix cells use the baseline streams, draw
    from a distribution over the rows of the design's own bcirc(X), uniform
    or its leverage (leverage_probs of the embedding as an l = 1 tensor),
    and solve by matrix_oracle. Each cell's row is one compute_metrics call
    on the replicates whose sketch kept its rank.
    """
    ex = experiments
    kinds = [m for m in cfg.methods if m in ("unif", "lev")]

    def design(*key):
        x = gen_design(cfg.design, cfg.n, cfg.p, cfg.l, ex._rng(cfg.seed, ex._STREAM_DESIGN, *key))
        a = tlsq.bcirc(x)
        dists = {m: ex.build_distribution(x, m, cfg.alpha) for m in cfg.methods}
        matrix = {"unif": tlsq.uniform_probs(len(a)), "lev": tlsq.leverage_probs(a[:, :, None])}
        return x, a, dists, matrix

    base = None if cfg.redraw_design else design()
    cells = {}  # (label, tau) -> [(fit or None, problem, exact solve) per replicate]

    def replicate(b):
        x, a, dists, matrix_dists = base if base is not None else design(b)
        key = () if cfg.mode == "conditional" else (b,)
        y, _ = gen_response(x, ex._rng(cfg.seed, ex._STREAM_RESPONSE, *key), cfg.sigma2)
        prob_b = tlsq.TlsProblem(x, y)
        ols = tlsq.solve_ols(prob_b)
        rhs = tlsq.unfold(prob_b.response)

        def tensor_cell(label, tau, kind, index):
            plan = tlsq.draw_plan(dists[kind], tau, ex._rng(cfg.seed, ex._STREAM_PLAN, b, *index))
            try:
                sol = tlsq.solve_subsampled(prob_b, plan)
                fit = (sol.b, sol.objective)
            except SketchRankDeficient:
                fit = None
            cells.setdefault((label, tau), []).append((fit, prob_b, ols))

        def matrix_cell(label, tau, kind, draws, stream, index):
            plan = tlsq.draw_plan(matrix_dists[kind], draws, ex._rng(cfg.seed, stream, b, *index))
            est = matrix_oracle(a, rhs, plan, cfg.p, cfg.l)
            fit = None if est is None else (est, tlsq.objective(prob_b, est))
            cells.setdefault((label, tau), []).append((fit, prob_b, ols))

        for i, method in enumerate(kinds if compare else cfg.methods):
            for j, tau in enumerate(cfg.taus):
                if compare:
                    tensor_cell(f"stls-{method}", tau, method, (i, j))
                    matrix_cell(f"smls-{method}-tau", tau, method, tau, ex._STREAM_SMLS, (i, j))
                    matrix_cell(f"smls-{method}-ltau", tau, method, cfg.l * tau,
                                ex._STREAM_SMLS + 1, (i, j))
                else:
                    tensor_cell(method, tau, method, (i, j))
        if not compare and cfg.smls != "off":
            factor = cfg.l if cfg.smls == "l_times_tau" else 1
            for i, kind in enumerate(sorted(kinds)):
                for j, tau in enumerate(cfg.taus):
                    matrix_cell(f"smls-{kind}", tau, kind, factor * tau, ex._STREAM_SMLS, (i, j))

    for b in range(cfg.replicates):
        replicate(b)
    truth = true_coefficients(cfg.p, cfg.l)
    rows = []
    for (label, tau), entries in cells.items():
        kept = [(fit, pb, ols) for fit, pb, ols in entries if fit is not None]
        rows.append(compute_metrics(
            np.reshape([fit[0] for fit, _, _ in kept], (len(kept), *truth.shape)),
            np.reshape([ols.b for _, _, ols in kept], (len(kept), *truth.shape)),
            truth,
            energies([pb for _, pb, _ in kept]),
            objectives=[fit[1] for fit, _, _ in kept],
            exact_objectives=[ols.objective for _, _, ols in kept],
            method=label,
            tau=tau,
            failures=len(entries) - len(kept),
        ))
    return sorted(rows, key=lambda r: (r.method, r.tau))


def assert_reports_match(rows, expected, rtol=1e-12):
    assert [(r.method, r.tau) for r in rows] == [(r.method, r.tau) for r in expected]
    for got, want in zip(rows, expected):
        assert (got.replicates, got.failures) == (want.replicates, want.failures), got.method
        for name in ("smrfv", "smre", "ssb", "sv", "smse"):
            a, b = getattr(got, name), getattr(want, name)
            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= rtol * abs(b), (
                got.method, got.tau, name, a, b)


class TestBatchedReplicateLoop:
    """Batched solves report what one solve_subsampled call per cell reports."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(mode="unconditional"),
            dict(mode="conditional"),
            dict(mode="unconditional", smls="same_tau", design="mn"),
            dict(mode="conditional", smls="l_times_tau", redraw_design=True),
            dict(mode="unconditional", redraw_design=True),
            dict(mode="unconditional", replicates=2 * experiments._REPLICATE_CHUNK + 3),
            # chunks of 7, 6 and 6 replicates, each cell batch mixing designs
            dict(mode="unconditional", redraw_design=True, replicates=19),
            dict(mode="conditional", replicates=19),
            # the starved config: batches mix designs and rank-deficient plans
            dict(n=12, p=10, l=2, design="mn", replicates=19, taus=(10, 12), redraw_design=True),
        ],
    )
    def test_experiment_matches_per_cell_loop(self, overrides):
        cfg = ExperimentConfig(**{**dict(seed=31, n=150, p=4, l=3, design="t3", replicates=6,
                                         taus=(8, 30), methods=("unif", "lev", "slev", "opt")),
                                  **overrides})
        assert_reports_match(run_experiment(cfg), per_cell_loop(cfg))

    @pytest.mark.parametrize(
        "mode, redraw",
        [
            pytest.param("unconditional", False, id="unconditional"),
            pytest.param("conditional", False, id="conditional"),
            pytest.param("unconditional", True, id="unconditional-redraw"),
        ],
    )
    def test_comparison_matches_per_cell_loop(self, mode, redraw):
        cfg = ExperimentConfig(seed=32, n=100, p=4, l=4, design="mn", replicates=5,
                               taus=(12, 25), methods=("lev", "unif"), mode=mode,
                               redraw_design=redraw)
        assert_reports_match(run_mls_comparison(cfg), per_cell_loop(cfg, compare=True))

    def test_replicate_responses_are_gen_response_draws(self):
        ex = experiments
        for mode in ex.REPLICATE_MODES:
            cfg = ExperimentConfig(seed=34, n=60, p=4, l=5, design="t3",
                                   replicates=ex._REPLICATE_CHUNK + 3, taus=(20,), mode=mode)
            state = ex._prepare_state(cfg, [], ex._STREAM_DESIGN)
            problems = ex._replicate_problems(cfg, state, range(cfg.replicates))
            assert len(problems) == cfg.replicates
            fitted = zip(problems, *solver._exact_solutions(problems))
            for b, (prob_b, ols_b, ols_obj) in enumerate(fitted):
                key = () if mode == "conditional" else (b,)
                y, _ = gen_response(state.prob.design,
                                    ex._rng(cfg.seed, ex._STREAM_RESPONSE, *key), cfg.sigma2)
                assert np.array_equal(prob_b.response, y)
                exact = tlsq.solve_ols(state.prob.with_response(y))
                assert np.abs(ols_b - exact.b).max() <= 1e-12 * np.abs(exact.b).max()
                assert abs(ols_obj - exact.objective) <= 1e-12 * exact.objective

    @pytest.mark.parametrize("redraw", [False, True])
    @pytest.mark.parametrize("mode", experiments.REPLICATE_MODES)
    def test_shared_response_drawn_only_when_read(self, monkeypatch, redraw, mode):
        """The driver draws only responses that a replicate reads, without the public helpers.

        Each design's problem carries its first replicate's response and the
        others are drawn by _replicate_problems, from the closed-form signal,
        so gen_response, t_product and solve_ols are never called. Each is
        watched as a driver attribute even where the driver does not import
        it, so an import brought back is caught.
        """
        calls = []
        for name in ("gen_response", "t_product", "solve_ols"):
            def counting(*args, _original=getattr(tlsq, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counting, raising=False)
        cfg = ExperimentConfig(seed=35, n=60, p=4, l=3, design="t3", replicates=3,
                               taus=(12,), mode=mode, redraw_design=redraw)
        run_experiment(cfg)
        assert calls == []

    @pytest.mark.parametrize("compare", [False, True])
    def test_one_compute_metrics_call_per_cell(self, monkeypatch, compare):
        """The driver aggregates each cell by one call of the module's compute_metrics.

        Over two chunks of replicates, every report row is one call, looked
        up as the module attribute, so a wrapper installed there (as
        perfbench's tracer installs one) sees all of the aggregation.
        """
        calls = []

        def counting(*args, _original=experiments.compute_metrics, **kwargs):
            row = _original(*args, **kwargs)
            calls.append((row.method, row.tau))
            return row

        monkeypatch.setattr(experiments, "compute_metrics", counting)
        cfg = ExperimentConfig(seed=36, n=60, p=4, l=3, design="t3", taus=(12, 20),
                               replicates=experiments._REPLICATE_CHUNK + 3,
                               methods=("unif", "lev"), smls="same_tau")
        rows = (run_mls_comparison if compare else run_experiment)(cfg)
        assert len(rows) == (12 if compare else 8)
        assert sorted(calls) == [(r.method, r.tau) for r in rows]

    @pytest.mark.parametrize(
        "compare, redraw",
        [
            pytest.param(False, False, id="False"),
            pytest.param(False, True, id="True"),
            pytest.param(True, True, id="compare-mls-True"),
        ],
    )
    @pytest.mark.parametrize("mode", experiments.REPLICATE_MODES)
    def test_factorizations_per_run(self, monkeypatch, compare, redraw, mode):
        """One factorization builds a design's problem; one solves a tensor cell's batch.

        A shared design's problem carries replicate 0's response, and each
        chunk fits the responses it does not yet hold by one more
        factorization; in conditional mode that one response serves every
        chunk. Under redraw_design every replicate's design is factored once,
        with its response, while each cell batch still spans the chunk; so
        also in compare-mls. The matrix cells of each sketch size are one
        factor batch per chunk: the unif and lev baselines of a tau, and in
        compare-mls those of l * tau as well. Exact solutions and objectives
        factor nothing.
        """
        calls = []

        def counting(original):
            def wrapped(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)

            return wrapped

        # Every tall factorization, a fit or a tensor or matrix sketch batch, is one _tall_r call.
        tall_r = counting(solver._tall_r)
        for module in (solver, experiments):
            monkeypatch.setattr(module, "_tall_r", tall_r)
        cfg = ExperimentConfig(seed=37, n=150, p=4, l=3, design="t3", replicates=19,
                               taus=(8, 30), smls="same_tau", mode=mode, redraw_design=redraw)
        rows = (run_mls_comparison if compare else run_experiment)(cfg)
        chunks = math.ceil(cfg.replicates / experiments._REPLICATE_CHUNK)
        if compare:  # one tensor and two matrix cells per unif/lev kind and tau
            cells, sizes = 2 * len(cfg.taus), 2 * len(cfg.taus)
            assert len(rows) == 3 * cells
        else:
            cells, sizes = len(cfg.methods) * len(cfg.taus), len(cfg.taus)
            assert len(rows) == cells + 2 * len(cfg.taus)
        if redraw:
            expected = cfg.replicates + chunks * cells
        elif mode == "conditional":
            expected = 1 + chunks * cells
        else:
            expected = 1 + chunks * (1 + cells)
        assert len(calls) == expected + chunks * sizes

    def test_shared_design_is_not_checked_again(self, monkeypatch):
        """A shared design's replicate problems are fitted with no SVD: its rank was checked when
        its first problem was built, and _on_design reuses its factors."""
        inside, svds, fits = [], [], []

        def on_design(*args, _original=solver._on_design):
            inside.append(1)
            try:
                return _original(*args)
            finally:
                fits.append(inside.pop())

        def svd(*args, _original=np.linalg.svd, **kwargs):
            svds.append(bool(inside))
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiments, "_on_design", on_design)
        monkeypatch.setattr(np.linalg, "svd", svd)
        cfg = ExperimentConfig(seed=39, n=60, p=4, l=3, design="t3", replicates=19, taus=(12,),
                               methods=("lev",))
        run_experiment(cfg)
        assert len(fits) == 3  # one per chunk past replicate 0's own problem
        assert svds.count(True) == 0 and svds.count(False) == 1  # the design's own check

    @pytest.mark.parametrize("compare", [False, True])
    def test_matrix_cells_run_as_batches(self, monkeypatch, compare):
        """A chunk's matrix cells of one sketch size are factored as one batch, with no lstsq.

        Every cell, tensor or matrix, makes one _draw_compressed call per
        chunk, and the driver never calls draw_plan or _draw_plans, which
        draw in draw order. Both are watched as driver attributes even where
        the driver does not import them, so an import brought back is
        caught. The unif and lev baselines of each sketch size make one
        factor batch per chunk, of both cells' plans.
        """
        calls = {"lstsq": 0, "_draw_compressed": 0, "_draw_plans": 0, "draw_plan": 0}
        batches = []

        def solve(views, problems, plans, _original=experiments._solve_matrix_sketches):
            batches.append(len(problems))
            return _original(views, problems, plans)

        def counting(name, original):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
        monkeypatch.setattr(experiments, "_solve_matrix_sketches", solve)
        monkeypatch.setattr(experiments, "_draw_compressed",
                            counting("_draw_compressed", sampling._draw_compressed))
        monkeypatch.setattr(experiments, "_draw_plans",
                            counting("_draw_plans", sampling._draw_plans), raising=False)
        for module in (tlsq, sampling, experiments):
            monkeypatch.setattr(module, "draw_plan", counting("draw_plan", sampling.draw_plan),
                                raising=False)
        cfg = ExperimentConfig(seed=36, n=100, p=4, l=4, design="t3", replicates=19,
                               taus=(12, 25), methods=("unif", "lev", "slev"),
                               smls="l_times_tau", redraw_design=not compare)
        rows = run_mls_comparison(cfg) if compare else run_experiment(cfg)
        matrix = sum(r.method.startswith("smls") for r in rows)
        chunks = np.array_split(np.arange(cfg.replicates), 3)
        assert len(chunks) == math.ceil(cfg.replicates / experiments._REPLICATE_CHUNK)
        assert matrix == (8 if compare else 4)
        assert calls == {"lstsq": 0, "_draw_compressed": len(chunks) * len(rows),
                         "_draw_plans": 0, "draw_plan": 0}
        sizes = matrix // 2  # the sketch sizes: each tau, and l * tau in compare-mls
        assert sorted(batches) == sorted([2 * len(chunk) for chunk in chunks] * sizes)

    def test_starved_config_counts_the_same_failures(self):
        cfg = ExperimentConfig(seed=33, n=12, p=10, l=2, design="mn", replicates=10,
                               taus=(10,), smls="same_tau")
        rows = run_experiment(cfg)
        assert_reports_match(rows, per_cell_loop(cfg))
        assert sum(r.failures for r in rows) > 0

    def test_chunks_return_numbers_and_memory_stays_flat(self, monkeypatch):
        """A redrawn-design run's traced peak memory does not grow with R.

        Each chunk hands _aggregate numbers, not its problems, so a worker
        holds at most one chunk's designs and problems at a time: 64
        replicates peak no higher than 16 do, give or take a quarter.
        """
        held = []

        def inspecting(parts, *args, _original=experiments._aggregate):
            def walk(value):
                if isinstance(value, (tuple, list)):
                    return any(walk(v) for v in value)
                return isinstance(value, (tlsq.TlsProblem, solver._Design))

            held.extend(walk(part) for part in parts)
            return _original(parts, *args)

        monkeypatch.setattr(experiments, "_aggregate", inspecting)
        peaks = {}
        for replicates in (16, 64):
            cfg = ExperimentConfig(seed=38, n=400, p=4, l=4, design="t3", replicates=replicates,
                                   taus=(20,), methods=("unif", "lev"), redraw_design=True)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks[replicates] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert held and not any(held)
        assert peaks[64] <= 1.25 * peaks[16], peaks

    def test_driver_allocates_no_sketch_buffer(self, monkeypatch):
        """While a tensor batch taller than _QR_BLOCK_ROWS is factored, the replicate driver
        holds no block of its own above 64 KB: the TSQR buffer is _tall_r's alone.

        Two unif plans of tau = 20000 draws on n = 5000 rows keep about 4900 unique rows each.
        A driver-sized workspace for their full height, 2 plans * 2 slices * 5 columns * 4900
        rows of complex, is about 1.6 MB. The designs and responses are drawn by the generators,
        outside _run_cells, so they are not counted.
        """
        lines, first = inspect.getsourcelines(experiments._run_cells)
        driver = range(first, first + len(lines))
        heights, largest = [], []

        def inspecting(gather, shape, total, *args, _original=solver._tall_r):
            traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, experiments.__file__)]).traces
            heights.append(total)
            largest.append(max([t.size for t in traces if t.traceback[0].lineno in driver],
                               default=0))
            return _original(gather, shape, total, *args)

        monkeypatch.setattr(solver, "_tall_r", inspecting)
        cfg = ExperimentConfig(seed=39, n=5000, p=4, l=2, design="t1", replicates=2,
                               taus=(20000,), methods=("unif",))
        tracemalloc.start()
        try:
            run_experiment(cfg)
        finally:
            tracemalloc.stop()
        assert max(heights) > solver._QR_BLOCK_ROWS, heights
        assert max(largest) <= 64 * 1024, largest


class TestSmlsBaseline:
    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(1, 4),
        extra_rows=st.integers(0, 4),
        l=st.integers(1, 7),
        from_file=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=3, extra_rows=2, l=1, from_file=False, seed=0)
    @example(p=2, extra_rows=3, l=2, from_file=True, seed=1)
    @example(p=4, extra_rows=0, l=5, from_file=False, seed=2)
    @example(p=3, extra_rows=0, l=6, from_file=True, seed=3)
    def test_bcirc_rows_are_the_embedding_rows(self, tmp_path_factory, p, extra_rows, l,
                                               from_file, seed):
        """Entry [i, r] of _bcirc_rows(X) is row r*n + i of bcirc(X), and y[i, :, r] of unfold(y).

        The design is a C-order array or read_tensor's F-order view.
        """
        n = p + extra_rows
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((n, p, l)), rng.standard_normal((n, 1, l))
        if from_file:
            path = tmp_path_factory.mktemp("rows")
            tlsq.write_tensor(x, path / "x.tt")
            tlsq.write_tensor(y, path / "y.tt")
            x, y = tlsq.read_tensor(path / "x.tt"), tlsq.read_tensor(path / "y.tt")
        view = experiments._bcirc_rows(x)
        assert view.shape == (n, l, p * l) and not view.flags.writeable
        r, i = np.divmod(np.arange(n * l), n)
        assert np.array_equal(view[i, r], tlsq.bcirc(x))
        assert np.array_equal(y[i, :, r], tlsq.unfold(y))

    def test_all_rows_equals_exact_solution(self):
        x = gen_design("mn", 40, 4, 3, seed=8)
        y, _ = gen_response(x, seed=9)
        prob = tlsq.TlsProblem(x, y)
        a = tlsq.bcirc(x)
        dense = np.linalg.lstsq(a, tlsq.unfold(y), rcond=None)[0]
        rows = np.arange(a.shape[0])
        _, (folded,), _, _ = experiments._solve_matrix_sketches(
            [experiments._bcirc_rows(x)], [prob],
            [solver._compress(rows[None], np.ones((1, rows.size)), rows.size, 4)])
        exact = tlsq.solve_ols(prob).b
        assert np.abs(folded - tlsq.fold(dense, 4, 3)).max() <= 1e-12
        assert np.abs(folded - exact).max() <= 1e-10 * max(1.0, np.abs(exact).max())

    @settings(max_examples=60, deadline=None)
    @given(
        design=st.sampled_from(["mn", "t1"]),
        p=st.integers(2, 5),
        extra_rows=st.integers(0, 6),
        l=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(design="mn", p=3, extra_rows=4, l=1, seed=0)
    @example(design="t1", p=4, extra_rows=5, l=2, seed=1)
    @example(design="mn", p=2, extra_rows=3, l=5, seed=2)
    @example(design="t1", p=3, extra_rows=6, l=6, seed=3)
    @example(design="mn", p=4, extra_rows=0, l=7, seed=4)
    def test_leverage_is_the_dense_embedding_leverage(self, design, p, extra_rows, l, seed):
        """The lev baseline distribution is the thin-SVD row leverage of bcirc(X)."""
        n = p + extra_rows
        x = gen_design(design, n, p, l, seed=seed)
        a = tlsq.bcirc(x)
        # Both sides are accurate to about eps * kappa.
        assume(np.linalg.cond(a) < 1e4)
        h = (np.linalg.svd(a, full_matrices=False)[0] ** 2).sum(axis=1)
        prob = tlsq.TlsProblem(x, np.zeros((n, 1, l)))
        dist = experiments._cell_distribution(prob, "lev", True, 0.9)
        assert np.abs(dist.leverage - h).max() <= 1e-12
        assert np.abs(dist.probs - h / h.sum()).max() <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.integers(2, 4),
        l=st.integers(1, 4),
        extra_rows=st.integers(0, 6),
        plans=st.integers(1, 4),
        excess=st.integers(-4, 12),
        pool=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 256]),
    )
    # every draw from one row, each with its own weight
    @example(p=2, l=1, extra_rows=0, plans=3, excess=2, pool=1, seed=0, block=256)
    # starved: plan 2 of 4 has fewer unique rows than p*l
    @example(p=3, l=3, extra_rows=4, plans=4, excess=6, pool=30, seed=0, block=256)
    # tau < p*l: every plan loses rank
    @example(p=4, l=2, extra_rows=1, plans=4, excess=-4, pool=30, seed=2, block=256)
    # tau = p*l exactly
    @example(p=3, l=2, extra_rows=3, plans=3, excess=0, pool=30, seed=3, block=1)
    # l = 1: the baseline is the tensor problem itself, in steps of 2 (p + 1) rows
    @example(p=3, l=1, extra_rows=6, plans=2, excess=12, pool=30, seed=4, block=1)
    # n = p: a square design
    @example(p=2, l=4, extra_rows=0, plans=3, excess=1, pool=30, seed=5, block=256)
    def test_batch_matches_uncompressed_lstsq(self, p, l, extra_rows, plans, excess, pool, seed,
                                              block):
        """Each plan's batch solution and rank loss are those of lstsq on its uncompressed sketch.

        Plans draw from a pool of `pool` rows of bcirc(X), so small pools
        repeat rows, each draw with its own weight, and leave some plans
        with fewer unique rows than p*l. A `block` of 1 makes the TSQR's
        steps 2 (p*l + 1) rows tall, so a plan with more unique rows than
        that is factored over several steps.
        """
        n = p + extra_rows
        rng = np.random.default_rng(seed)
        x = gen_design("mn", n, p, l, seed=rng)
        y = rng.standard_normal((n, 1, l))
        prob = tlsq.TlsProblem(x, y)
        a, rhs = tlsq.bcirc(x), tlsq.unfold(y)
        tau = max(p, p * l + excess)
        candidates = rng.choice(n * l, size=min(pool, n * l), replace=False)
        indices = rng.choice(candidates, size=(plans, tau))
        weights = rng.uniform(0.5, 2.0, size=(plans, tau))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_MATRIX_BLOCK_ROWS", block)
            ok, bs, objectives, errors = experiments._solve_matrix_sketches(
                [experiments._bcirc_rows(x)] * plans, [prob] * plans,
                [solver._compress(indices, weights, n * l, p)])
        assert len(bs) == len(objectives) == np.count_nonzero(ok)
        kept = iter(zip(bs, objectives))
        for keep, error, idx, w in zip(ok, errors, indices, weights):
            want = matrix_oracle(a, rhs, tlsq.SamplingPlan(tau=tau, indices=idx, weights=w), p, l)
            assert isinstance(error, SketchRankDeficient) == (want is None), (idx, w)
            assert keep == (error is None)
            if want is not None:
                b, objective = next(kept)
                assert np.abs(b - want).max() <= 1e-10 * np.abs(want).max()
                # lstsq's coefficients take the same forward DFT as objective's argument.
                assert objective == tlsq.objective(prob, b)

    @pytest.mark.parametrize("redraw", [False, True])
    def test_comparison_is_thread_invariant(self, monkeypatch, redraw):
        """compare-mls reports are the same at TLSQ_THREADS 1, 2 and 8 in every column but mean_ms.

        Three chunks of replicates run the tensor cells and the matrix cells at tau and l * tau,
        on a shared design and on one drawn per replicate. A chunk's matrix cells of one sketch
        size are one factor batch and no batch spans chunks, so the thread count moves no bit,
        also of the failure counts at tau = p * l.
        """
        cfg = ExperimentConfig(seed=41, n=120, p=4, l=3, design="t3", replicates=19,
                               taus=(12, 30), methods=("unif", "lev"), redraw_design=redraw)
        reports = []
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("TLSQ_THREADS", threads)
            rows = run_mls_comparison(cfg)
            reports.append([repr(vars(r) | {"mean_ms": None}) for r in rows])
        assert len(reports[0]) == 12 and any("smls" in row for row in reports[0])
        assert reports[0] == reports[1] == reports[2]

    def test_comparison_rows(self):
        cfg = ExperimentConfig(seed=13, n=100, p=4, l=3, design="mn", replicates=4,
                               taus=(20,), methods=("unif", "lev"), mode="conditional")
        rows = run_mls_comparison(cfg)
        labels = {r.method for r in rows}
        assert labels == {
            "stls-unif", "stls-lev",
            "smls-unif-tau", "smls-lev-tau",
            "smls-unif-ltau", "smls-lev-ltau",
        }
        for r in rows:
            assert r.mean_ms > 0.0


class TestReportIo:
    def make_rows(self):
        cfg = ExperimentConfig(seed=14, n=80, p=4, l=2, design="t3", replicates=4,
                               taus=(8, 16), methods=("lev", "unif"), mode="conditional")
        return run_experiment(cfg)

    def test_round_trip_bit_exact(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "report.csv"
        write_report(rows, path)
        back = read_report(path)
        for a, b in zip(rows, back):
            assert a.method == b.method and a.tau == b.tau
            for fieldname in ("smrfv", "smre", "ssb", "sv", "smse"):
                x, y = getattr(a, fieldname), getattr(b, fieldname)
                assert (np.isnan(x) and np.isnan(y)) or x == y
            assert a.replicates == b.replicates and a.failures == b.failures

    def test_header_only_for_empty_grid(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report([], path)
        assert path.read_text() == "method,tau,smrfv,smre,ssb,sv,smse,mean_ms,replicates,failures\n"

    def test_golden_bytes(self, tmp_path):
        # Floats that shortest repr would shorten, a NaN, a signed zero, a
        # subnormal and numpy scalars, each in its declared column format.
        rows = [
            MetricsRow("unif", np.int64(300), 0.1, np.float32(0.1), 1 / 3, 1e-300,
                       np.float64(2.5e10), math.nan, np.int64(25), 0),
            MetricsRow("lev", 150, 0.3, -0.0, 1e16, 5e-324, np.float32(3.0), 12.5, 24,
                       np.int64(1)),
        ]
        path = tmp_path / "golden.csv"
        write_report(rows, path)
        assert path.read_bytes() == (
            b"method,tau,smrfv,smre,ssb,sv,smse,mean_ms,replicates,failures\n"
            b"lev,150,0.29999999999999999,-0,10000000000000000,4.9406564584124654e-324,"
            b"3,12.5,24,1\n"
            b"unif,300,0.10000000000000001,0.10000000149011612,0.33333333333333331,1e-300,"
            b"25000000000,nan,25,0\n"
        )

    def test_single_cell_two_lines(self, tmp_path):
        rows = self.make_rows()[:1]
        path = tmp_path / "one.csv"
        write_report(rows, path)
        assert len(path.read_text().strip().splitlines()) == 2

    @pytest.mark.parametrize(
        "lines",
        [
            pytest.param(["method,tau,smrfv"], id="foreign-header"),
            pytest.param(["unif,300,1,2,3,4,5,nan,25"], id="missing-column"),
            pytest.param(["unif,300,1,2,3,4,5,nan,25,0,7"], id="extra-column"),
            pytest.param([], id="empty-file"),
        ],
    )
    def test_malformed_report_raises(self, tmp_path, lines):
        path = tmp_path / "bad.csv"
        header = ",".join(experiments.REPORT_HEADER)
        body = lines if not lines or lines[0].startswith("method,") else [header, *lines]
        path.write_text("".join(f"{line}\n" for line in body))
        with pytest.raises(ValueError):
            read_report(path)

    def test_rows_sorted_deterministically(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "sorted.csv"
        write_report(list(reversed(rows)), path)
        back = read_report(path)
        keys = [(r.method, r.tau) for r in back]
        assert keys == sorted(keys)


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# benchmark settings\n"
            "n=200\np=5\nl=4\ndesign=t3\nsigma2=4.0\nreplicates=12\n"
            "taus=10,20,40\nmethods=unif,opt\nalpha=0.8\nseed=99\n"
            "smls=off\nmode=conditional\nredraw_design=0\ntiming=1\n"
        )
        cfg = parse_config_file(path)
        assert cfg == ExperimentConfig(
            seed=99, n=200, p=5, l=4, design="t3", sigma2=4.0, replicates=12,
            taus=(10, 20, 40), methods=("unif", "opt"), alpha=0.8,
            smls="off", mode="conditional", redraw_design=False, timing=True,
        )

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("seed=1\nbogus=2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "noseed.txt"
        path.write_text("n=100\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("seed=1\nseed=2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=0, replicates=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=0, taus=(5,))  # below p
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=0, methods=("bogus",))
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=0, design="exp")
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=0, alpha=1.0)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            ExperimentConfig(seed=-1)

    @pytest.mark.parametrize(
        "overrides, named",
        [(dict(methods=("unif", "unif")), "methods lists 'unif'"),
         (dict(methods=("lev", "unif", "lev")), "methods lists 'lev'"),
         (dict(taus=(20, 20)), "taus lists 20"),
         (dict(taus=(20, 40, 20.0)), "taus lists 20")],
    )
    def test_duplicate_methods_or_taus_rejected(self, overrides, named):
        # A repeated entry would share one report row, keyed by (method, tau).
        with pytest.raises(ConfigError, match=named):
            ExperimentConfig(**{**dict(seed=3, n=60, p=4, l=3), **overrides})

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 3.5), ("n", 60.5), ("p", 4.2), ("l", 2.5), ("replicates", 3.5),
         ("taus", (20.7,)), ("taus", (20, 40.5)), ("n", float("nan")), ("seed", "3")],
    )
    def test_fractional_integer_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ExperimentConfig(**{**dict(seed=3, n=60, p=4, l=3, taus=(20,)), field: value})

    def test_integral_floats_accepted(self):
        cfg = ExperimentConfig(seed=3.0, n=60.0, p=4.0, l=3.0, replicates=4.0, taus=(20.0, 40))
        assert cfg == ExperimentConfig(seed=3, n=60, p=4, l=3, replicates=4, taus=(20, 40))
        ints = (cfg.seed, cfg.n, cfg.p, cfg.l, cfg.replicates, *cfg.taus)
        assert all(type(v) is int for v in ints)

    def test_coefficient_pattern_needs_p_at_least_4(self):
        with pytest.raises(ConfigError, match="p >= 4"):
            ExperimentConfig(seed=0, p=3, taus=(10,))

    def test_baseline_has_no_size_limit(self):
        """The baseline reads its rows from X, so no embedding size bounds a config."""
        cfg = ExperimentConfig(seed=1, n=2000, p=20, l=16, taus=(400,), methods=("unif", "lev"),
                               smls="same_tau")
        assert cfg.n * cfg.l * cfg.p * cfg.l > tlsq.tensor.BCIRC_MAX_ENTRIES

    def test_design_must_be_overdetermined(self):
        with pytest.raises(ConfigError, match="n >= p"):
            ExperimentConfig(seed=0, n=8, p=10)

    @pytest.mark.parametrize("line", ["redraw_design=5", "timing=2", "timing=true"])
    def test_flags_accept_only_0_or_1(self, tmp_path, line):
        path = tmp_path / "flag.txt"
        path.write_text(f"seed=1\n{line}\n")
        with pytest.raises(ConfigError, match="0 or 1"):
            parse_config_file(path)

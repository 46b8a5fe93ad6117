"""Variance formulas against a spatial-domain tubal-algebra oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlsq
from tlsq.errors import DimensionMismatch, ZeroProbabilityRow
from tlsq.stats import (
    conditional_variance,
    estimator_spread,
    ols_variance,
    sandwich_middle_trace,
    trace_t,
    unconditional_variance,
    variance_report,
)


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def make_problem(n=50, p=3, l=3, seed=0):
    x = rand((n, p, l), seed)
    y = rand((n, 1, l), seed + 1)
    return tlsq.TlsProblem(x, y)


def unit_tube_diag(values, l):
    """f-diagonal tubal matrix whose tube (i, i) is values[i] times the unit tube."""
    v = np.zeros((len(values), 1, l))
    v[:, 0, 0] = values
    return tlsq.f_diag(v)


def conditional_oracle(prob, probs, tau):
    """Spatial-domain evaluation of the sampling-conditional covariance."""
    x = prob.design
    n, p, l = x.shape
    xt = tlsq.t_transpose(x)
    gram_inv = tlsq.t_pinv(tlsq.t_product(xt, x))
    resid = prob.response - tlsq.t_product(x, tlsq.solve_ols(prob).b)
    e_diag = tlsq.f_diag(resid)
    weights = unit_tube_diag(1.0 / (tau * probs), l)
    a = tlsq.t_product(tlsq.t_product(gram_inv, xt), e_diag)
    return tlsq.t_product(
        tlsq.t_product(a, weights), tlsq.t_transpose(a)
    )


def hat_complement_tubes(x):
    """Tubes 1 - x_i * (X^T X)^{-1} * x_i^T as an (n, 1, l) tensor."""
    n, p, l = x.shape
    gram_inv = tlsq.t_pinv(tlsq.t_product(tlsq.t_transpose(x), x))
    out = np.zeros((n, 1, l))
    out[:, 0, 0] = 1.0
    for i in range(n):
        row = x[i : i + 1, :, :]
        hat = tlsq.t_product(tlsq.t_product(row, gram_inv), tlsq.t_transpose(row))
        out[i : i + 1, 0, :] -= hat[0, 0, :]
    return out


def unconditional_oracle(x, probs, tau, sigma2):
    """Spatial-domain evaluation of the noise-integrated covariance."""
    n, p, l = x.shape
    xt = tlsq.t_transpose(x)
    gram_inv = tlsq.t_pinv(tlsq.t_product(xt, x))
    comp = hat_complement_tubes(x)
    middle = tlsq.f_diag(comp / probs[:, None, None])
    a = tlsq.t_product(gram_inv, xt)
    sandwich = tlsq.t_product(tlsq.t_product(a, middle), tlsq.t_transpose(a))
    return sigma2 * gram_inv + (sigma2 / tau) * sandwich


class TestTrace:
    def test_identity(self):
        assert abs(trace_t(tlsq.identity(5, 3)) - 5.0) <= 1e-12

    def test_equals_first_slice_trace(self):
        a = rand((4, 4, 5), 2)
        assert abs(trace_t(a) - np.trace(a[:, :, 0])) <= 1e-12

    def test_block_circulant_cross_check(self):
        a = rand((3, 3, 4), 3)
        assert abs(np.trace(tlsq.bcirc(a)) - 4 * np.trace(a[:, :, 0])) <= 1e-10

    def test_requires_square(self):
        with pytest.raises(DimensionMismatch):
            trace_t(rand((3, 2, 2), 4))


class TestConditionalVariance:
    def test_consistent_system_vanishes(self):
        x = rand((20, 3, 2), 5)
        b0 = rand((3, 1, 2), 6)
        prob = tlsq.TlsProblem(x, tlsq.t_product(x, b0))
        out = conditional_variance(prob, tlsq.uniform_probs(20), tau=10)
        assert np.abs(out).max() <= 1e-16

    @pytest.mark.parametrize("kind", ["unif", "lev", "slev", "opt"])
    def test_matches_spatial_oracle(self, kind):
        prob = make_problem(seed=7)
        dist = tlsq.experiments.build_distribution(prob.design, kind, 0.8)
        out = conditional_variance(prob, dist, tau=25)
        oracle = conditional_oracle(prob, dist.probs, 25)
        assert np.abs(out - oracle).max() <= 1e-10 * max(1.0, np.abs(oracle).max())

    def test_symmetry_and_positive_semidefiniteness(self):
        prob = make_problem(seed=8)
        out = conditional_variance(prob, tlsq.leverage_probs(prob.design), tau=30)
        assert np.abs(tlsq.t_transpose(out) - out).max() <= 1e-8
        blocks = np.fft.fft(out, axis=2)
        for k in range(out.shape[2]):
            herm = (blocks[:, :, k] + blocks[:, :, k].conj().T) / 2
            assert np.linalg.eigvalsh(herm).min() >= -1e-8

    def test_halved_by_doubling_tau(self):
        prob = make_problem(seed=9)
        dist = tlsq.uniform_probs(50)
        assert np.array_equal(
            conditional_variance(prob, dist, tau=40),
            conditional_variance(prob, dist, tau=20) / 2,
        )

    def test_zero_probability_with_residual_rejected(self):
        prob = make_problem(seed=10)
        probs = np.zeros(50)
        probs[: 49] = 1.0 / 49
        probs[-1] = 1.0 - probs[:49].sum()
        probs[0] = probs[0] + probs[-1]
        probs[-1] = 0.0
        dist = tlsq.SamplingDistribution(kind="custom", probs=probs / probs.sum())
        with pytest.raises(ZeroProbabilityRow):
            conditional_variance(prob, dist, tau=20)


class TestSpecializedForms:
    def test_uniform_conditional_form(self):
        prob = make_problem(n=40, p=3, l=3, seed=11)
        n, tau = 40, 30
        general = conditional_variance(prob, tlsq.uniform_probs(n), tau)
        x = prob.design
        xt = tlsq.t_transpose(x)
        gram_inv = tlsq.t_pinv(tlsq.t_product(xt, x))
        resid = prob.response - tlsq.t_product(x, tlsq.solve_ols(prob).b)
        e_diag = tlsq.f_diag(resid)
        a = tlsq.t_product(tlsq.t_product(gram_inv, xt), e_diag)
        specialized = (n / tau) * tlsq.t_product(a, tlsq.t_transpose(a))
        assert np.abs(general - specialized).max() <= 1e-10 * max(1.0, np.abs(general).max())

    def test_leverage_conditional_form(self):
        prob = make_problem(n=40, p=3, l=3, seed=12)
        tau = 30
        dist = tlsq.leverage_probs(prob.design)
        general = conditional_variance(prob, dist, tau)
        x = prob.design
        xt = tlsq.t_transpose(x)
        gram_inv = tlsq.t_pinv(tlsq.t_product(xt, x))
        resid = prob.response - tlsq.t_product(x, tlsq.solve_ols(prob).b)
        e_diag = tlsq.f_diag(resid)
        inv_scores = unit_tube_diag(1.0 / dist.leverage, 3)
        a = tlsq.t_product(tlsq.t_product(gram_inv, xt), e_diag)
        specialized = (3 / tau) * tlsq.t_product(
            tlsq.t_product(a, inv_scores), tlsq.t_transpose(a)
        )
        assert np.abs(general - specialized).max() <= 1e-10 * max(1.0, np.abs(general).max())

    def test_uniform_unconditional_form(self):
        x = rand((35, 3, 3), 13)
        n, tau, sigma2 = 35, 25, 2.0
        general = unconditional_variance(x, tlsq.uniform_probs(n), tau, sigma2)
        xt = tlsq.t_transpose(x)
        gram_inv = tlsq.t_pinv(tlsq.t_product(xt, x))
        middle = tlsq.f_diag(hat_complement_tubes(x))
        a = tlsq.t_product(gram_inv, xt)
        specialized = sigma2 * gram_inv + (n * sigma2 / tau) * tlsq.t_product(
            tlsq.t_product(a, middle), tlsq.t_transpose(a)
        )
        assert np.abs(general - specialized).max() <= 1e-10 * max(1.0, np.abs(general).max())

    def test_leverage_unconditional_form(self):
        x = rand((35, 3, 3), 14)
        tau, sigma2 = 25, 2.0
        dist = tlsq.leverage_probs(x)
        general = unconditional_variance(x, dist, tau, sigma2)
        xt = tlsq.t_transpose(x)
        gram_inv = tlsq.t_pinv(tlsq.t_product(xt, x))
        comp = hat_complement_tubes(x) / dist.leverage[:, None, None]
        a = tlsq.t_product(gram_inv, xt)
        specialized = sigma2 * gram_inv + (3 * sigma2 / tau) * tlsq.t_product(
            tlsq.t_product(a, tlsq.f_diag(comp)), tlsq.t_transpose(a)
        )
        assert np.abs(general - specialized).max() <= 1e-10 * max(1.0, np.abs(general).max())


class TestUnconditionalVariance:
    def test_square_design_reduces_to_exact_covariance(self):
        x = rand((4, 4, 3), 15) + 2.0 * tlsq.identity(4, 3)
        out = unconditional_variance(x, tlsq.uniform_probs(4), tau=12, sigma2=1.5)
        base = ols_variance(x, 1.5)
        assert np.abs(out - base).max() <= 1e-10 * max(1.0, np.abs(base).max())

    @pytest.mark.parametrize("kind", ["unif", "lev", "slev", "opt"])
    def test_matches_spatial_oracle(self, kind):
        x = rand((30, 3, 3), 16)
        dist = tlsq.experiments.build_distribution(x, kind, 0.8)
        if (dist.probs == 0).any():
            pytest.skip("oracle would divide by zero")
        out = unconditional_variance(x, dist, tau=20, sigma2=1.3)
        oracle = unconditional_oracle(x, dist.probs, 20, 1.3)
        assert np.abs(out - oracle).max() <= 1e-9 * max(1.0, np.abs(oracle).max())

    def test_penalty_scales_exactly_with_inverse_tau(self):
        x = rand((30, 3, 3), 17)
        dist = tlsq.uniform_probs(30)
        base = ols_variance(x, 1.5)
        p1 = unconditional_variance(x, dist, tau=50, sigma2=1.5) - base
        p2 = unconditional_variance(x, dist, tau=100, sigma2=1.5) - base
        assert np.abs(p2 - p1 / 2).max() <= 1e-14 * max(1.0, np.abs(p1).max())

    def test_trace_exceeds_exact_estimator_variance(self):
        x = rand((30, 3, 3), 18)
        out = unconditional_variance(x, tlsq.uniform_probs(30), tau=20, sigma2=1.0)
        assert trace_t(out) > trace_t(ols_variance(x, 1.0))

    def test_hat_complement_components_within_unit_interval(self):
        from tlsq.solver import validate_design

        x = rand((40, 3, 4), 19)
        comp = 1.0 - validate_design(x).leverage_rows
        assert comp.min() >= -1e-10
        assert comp.max() <= 1.0 + 1e-10

    def test_optimal_beats_uniform_and_leverage(self):
        for seed in range(5):
            x = rand((30, 3, 4), 20 + seed)
            t_opt = trace_t(unconditional_variance(x, tlsq.optimal_probs(x), 30, 1.0))
            t_unif = trace_t(unconditional_variance(x, tlsq.uniform_probs(30), 30, 1.0))
            t_lev = trace_t(unconditional_variance(x, tlsq.leverage_probs(x), 30, 1.0))
            assert t_opt <= min(t_unif, t_lev) + 1e-12

    def test_sigma2_domain(self):
        x = rand((10, 2, 2), 26)
        with pytest.raises(ValueError):
            unconditional_variance(x, tlsq.uniform_probs(10), 5, 0.0)

    @pytest.mark.parametrize("form", ["conditional", "unconditional"])
    def test_tau_must_be_positive(self, form):
        prob, dist = make_problem(n=10, p=2, l=2, seed=37), tlsq.uniform_probs(10)
        calls = {
            "conditional": lambda: conditional_variance(prob, dist, 0),
            "unconditional": lambda: unconditional_variance(prob, dist, 0, 1.0),
        }
        with pytest.raises(ValueError, match="tau must be at least 1"):
            calls[form]()

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "call", ["gen_response", "ols_variance", "unconditional_variance", "variance_report"]
    )
    def test_non_finite_sigma2_rejected(self, call, sigma2):
        x = tlsq.experiments.gen_design("mn", 10, 4, 2, seed=0)
        dist = tlsq.uniform_probs(10)
        calls = {
            "gen_response": lambda: tlsq.experiments.gen_response(x, 1, sigma2),
            "ols_variance": lambda: ols_variance(x, sigma2),
            "unconditional_variance": lambda: unconditional_variance(x, dist, 5, sigma2),
            "variance_report": lambda: variance_report(
                tlsq.TlsProblem(x, rand((10, 1, 2), 2)), dist, 5, sigma2
            ),
        }
        with pytest.raises(ValueError, match="sigma2 must be .*finite"):
            calls[call]()

    def test_gram_inverse_matches_svd_route(self):
        x = rand((25, 3, 3), 27)
        direct = ols_variance(x, 1.0)
        svd = tlsq.thin_t_svd(x)
        sinv2 = tlsq.t_pinv(tlsq.t_product(svd.s, svd.s))
        via_svd = tlsq.t_product(tlsq.t_product(svd.v, sinv2), tlsq.t_transpose(svd.v))
        assert np.abs(direct - via_svd).max() <= 1e-9 * max(1.0, np.abs(direct).max())


class TestSpecializationIdentities:
    """The general middle weights against the n/tau and (p/tau)/h_i forms.

    Both sides go through the same sandwich assembly, so a wrong weight, not
    a different rounding path, is what a failure shows. TestSpecializedForms
    checks the same forms against the spatial-domain oracle.
    """

    tau, sigma2 = 30, 2.0

    def problem(self, design):
        x = tlsq.gen_design("t3", 60, 4, 5, seed=40) if design == "t3" else rand((60, 4, 5), 41)
        return tlsq.TlsProblem(x, rand((60, 1, 5), 42))

    def special_middle(self, prob, kind, row_terms):
        n, p, l = prob.shape
        if kind == "unif":
            return (n / self.tau) * row_terms
        return (p / self.tau) * row_terms / tlsq.leverage_probs(prob).leverage

    def check(self, general, special):
        scale = max(1.0, float(np.abs(general).max()))
        assert np.abs(general - special).max() <= 1e-10 * scale

    @pytest.mark.parametrize("design", ["random", "t3"])
    @pytest.mark.parametrize("kind", ["unif", "lev"])
    def test_conditional(self, design, kind):
        from tlsq.stats import _sandwich
        from tlsq.tensor import _row_energy, _to_half

        prob = self.problem(design)
        dist = tlsq.experiments.build_distribution(prob, kind)
        general = conditional_variance(prob, dist, self.tau)
        xh = prob._design.half
        energy = _row_energy(prob.response_half - xh @ _to_half(tlsq.solve_ols(prob).b))
        special = _sandwich(prob._design, self.special_middle(prob, kind, energy))
        self.check(general, special)

    @pytest.mark.parametrize("design", ["random", "t3"])
    @pytest.mark.parametrize("kind", ["unif", "lev"])
    def test_unconditional(self, design, kind):
        from tlsq.stats import _sandwich

        prob = self.problem(design)
        dist = tlsq.experiments.build_distribution(prob, kind)
        general = unconditional_variance(prob, dist, self.tau, self.sigma2)
        comp = self.sigma2 * (1.0 - prob._design.leverage_rows)
        special = ols_variance(prob, self.sigma2) + _sandwich(
            prob._design, self.special_middle(prob, kind, comp)
        )
        self.check(general, special)


class TestIllConditionedDesign:
    """kappa = 2e7 per slice: inverting the Gram matrix would square it to 4e14."""

    @pytest.fixture(autouse=True)
    def design(self, ill_conditioned_half_design):
        from tlsq.tensor import _from_half

        self.l = 4
        self.svals = np.array([2e7, 4e3, 1.0])
        half, self.u, self.v = ill_conditioned_half_design(30, 3, self.l, self.svals, seed=35)
        self.x = _from_half(half, self.l)

    def test_gram_inverse_matches_known_svd(self):
        from tlsq.solver import validate_design

        f = validate_design(self.x).f
        g = f @ f.conj().mT
        exact = (self.v / self.svals**2) @ self.v.conj().mT
        for k in range(g.shape[0]):
            scale = np.abs(exact[k]).max()
            assert np.abs(g[k] - exact[k]).max() <= 1e-6 * scale

    def test_hat_complements_match_known_svd(self):
        from tlsq.solver import validate_design

        comp = 1.0 - validate_design(self.x).leverage_rows
        exact = 1.0 - (np.abs(self.u) ** 2).sum(axis=2)
        assert np.abs(comp - exact).max() <= 1e-6

    def exact_scores(self):
        """Exact leverage scores and optimal weights from the known slice SVDs."""
        from tlsq.tensor import _parseval_weights

        w = _parseval_weights(self.l) / self.l
        rows_u = (np.abs(self.u) ** 2).sum(axis=2)
        rows_x = (np.abs(self.u) ** 2 * self.svals**2).sum(axis=2)
        return w @ rows_u, np.sqrt(w @ ((1.0 - rows_u) * rows_x))

    def test_leverage_probs_match_known_svd(self):
        leverage, _ = self.exact_scores()
        dist = tlsq.leverage_probs(self.x)
        exact = leverage / 3
        assert np.abs(dist.probs - exact).max() <= 1e-6 * exact.max()
        assert np.abs(dist.leverage - leverage).max() <= 1e-6 * leverage.max()

    def test_optimal_probs_match_known_svd(self):
        _, weights = self.exact_scores()
        exact = weights / weights.sum()
        got = tlsq.optimal_probs(self.x).probs
        assert np.abs(got - exact).max() <= 1e-6 * exact.max()

    def test_unconditional_variance_matches_known_svd(self):
        """The sandwich core is formed from U = X F, so its error grows like kappa, not kappa^2."""
        from tlsq.tensor import _from_half

        n, tau, sigma2 = 30, 20, 1.0
        got = unconditional_variance(self.x, tlsq.uniform_probs(n), tau, sigma2)
        f = self.v / self.svals  # V S^-1
        middle = sigma2 * (1.0 - (np.abs(self.u) ** 2).sum(axis=2)) * n / tau
        core = (self.u.conj().mT * middle[:, None, :]) @ self.u
        penalty = _from_half(f @ core @ f.conj().mT, self.l)
        exact = _from_half(sigma2 * f @ f.conj().mT, self.l) + penalty
        assert np.abs(got - exact).max() <= 1e-6 * np.abs(exact).max()
        got_penalty = got - ols_variance(self.x, sigma2)
        assert np.abs(got_penalty - penalty).max() <= 1e-6 * np.abs(penalty).max()
        assert abs(trace_t(got) - trace_t(exact)) <= 1e-6 * trace_t(exact)


class TestZeroProbabilityPolicy:
    def leverage_one_design(self, n=12, l=3):
        # last row is the only support of column 2, so its leverage is one in
        # every DFT slice and both formulas assign it zero weight
        tube = np.array([1.0, 0.4, 0.2])[:l]
        x = np.zeros((n, 2, l))
        x[: n - 1, 0, :] = rand((n - 1, 1, 1), 28)[:, 0, :] * tube
        x[n - 1, 1, :] = tube
        return x

    def test_optimal_zero_probability_row_tolerated(self):
        x = self.leverage_one_design()
        dist = tlsq.optimal_probs(x)
        assert dist.probs[-1] == 0.0
        out = unconditional_variance(x, dist, tau=10, sigma2=1.0)
        assert np.isfinite(out).all()

    def test_unconditional_zero_probability_with_weight_rejected(self):
        x = rand((12, 2, 2), 29)
        probs = np.zeros(12)
        probs[:6] = 1.0 / 6
        dist = tlsq.SamplingDistribution(kind="custom", probs=probs)
        with pytest.raises(ZeroProbabilityRow):
            unconditional_variance(x, dist, tau=10, sigma2=1.0)


    @staticmethod
    def zero_row_problem(scale, consistent=False):
        """n=30, p=3, l=4 data times `scale`; design row 8 is zero, so lev and opt skip it."""
        x = rand((30, 3, 4), 32)
        x[7] = 0.0
        y = tlsq.t_product(x, rand((3, 1, 4), 33)) if consistent else rand((30, 1, 4), 34)
        return tlsq.TlsProblem(x * scale, y * scale)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    def test_residual_on_zero_probability_row_rejected_at_any_scale(self, scale):
        prob = self.zero_row_problem(scale)
        dist = tlsq.leverage_probs(prob)
        assert dist.probs[7] == 0.0
        with pytest.raises(ZeroProbabilityRow, match="row 8 .* residual"):
            conditional_variance(prob, dist, tau=12)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    def test_sandwich_numerator_on_zero_probability_row_rejected_at_any_scale(self, scale):
        probs = np.full(30, 1.0 / 29)
        probs[7] = 0.0
        with pytest.raises(ZeroProbabilityRow, match="row 8 .* sandwich numerator"):
            sandwich_middle_trace(rand((30, 3, 4), 35) * scale, probs)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    @pytest.mark.parametrize("method", ["unif", "lev", "opt"])
    def test_consistent_system_tolerated_at_any_scale(self, scale, method):
        prob = self.zero_row_problem(scale, consistent=True)
        dist = {"unif": tlsq.uniform_probs(30), "lev": tlsq.leverage_probs(prob),
                "opt": tlsq.optimal_probs(prob)}[method]
        assert abs(trace_t(conditional_variance(prob, dist, tau=12))) <= 1e-20


class TestMiddleTrace:
    def test_probabilities_must_match_the_rows(self):
        with pytest.raises(DimensionMismatch, match=r"shape \(9,\); expected \(10,\)"):
            sandwich_middle_trace(rand((10, 2, 2), 38), np.full(9, 1 / 9))

    def test_matches_direct_summation(self):
        x = rand((20, 3, 3), 30)
        probs = tlsq.leverage_probs(x).probs
        xh = np.fft.fft(x, axis=2)
        total = 0.0
        for k in range(3):
            a = xh[:, :, k]
            hat = np.diag(a @ np.linalg.inv(a.conj().T @ a) @ a.conj().T).real
            total += ((1 - hat) * (np.abs(a) ** 2).sum(axis=1) / probs).sum()
        assert abs(sandwich_middle_trace(x, probs) - total / 3) <= 1e-8 * abs(total / 3)

    def test_optimal_attains_minimum_over_simplex(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((25, 3, 3))
        best = sandwich_middle_trace(x, tlsq.optimal_probs(x).probs)
        for _ in range(200):
            assert best <= sandwich_middle_trace(x, rng.dirichlet(np.ones(25))) + 1e-10


class TestReportAndSpread:
    def test_report_bundles_both_terms(self):
        prob = make_problem(seed=32)
        dist = tlsq.uniform_probs(50)
        report = variance_report(prob, dist, tau=20, sigma2=2.0)
        assert report.kind == "unif" and report.tau == 20
        assert report.trace_conditional == trace_t(report.conditional)
        assert report.trace_unconditional == trace_t(report.unconditional)
        partial = variance_report(prob, dist, tau=20)
        assert partial.unconditional is None and partial.trace_unconditional is None

    def test_spread_needs_two_estimates(self):
        with pytest.raises(ValueError, match="at least two estimates"):
            estimator_spread([rand((3, 1, 2), 36)])

    def test_spread_matches_trace_of_empirical_covariance(self):
        rng = np.random.default_rng(33)
        draws = [rng.standard_normal((3, 1, 2)) for _ in range(40)]
        stack = np.stack([d.ravel() for d in draws])
        cov = np.cov(stack.T, bias=True)
        assert abs(estimator_spread(draws) - np.trace(cov)) <= 1e-10


class TestReportOnEdgeShapes:
    """variance_report against the spatial oracles on l = 1, l = 2, odd and even l, n = p to p + 6.

    tau is 1 or p, and opt runs only where it is defined (n > p). The oracles
    form X^T * X and invert it, so their rounding error grows like eps times
    the squared condition number of the design's worst DFT slice; the
    tolerance is 1e-12 times that square, relative to the oracle's largest
    entry (at least one), and p times that for a trace.
    """

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 4), extra_rows=st.integers(0, 6), l=st.integers(1, 6),
           tau_is_p=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(p=3, extra_rows=0, l=1, tau_is_p=True, seed=0)
    @example(p=2, extra_rows=6, l=2, tau_is_p=False, seed=1)
    @example(p=4, extra_rows=1, l=5, tau_is_p=True, seed=2)
    @example(p=1, extra_rows=3, l=6, tau_is_p=False, seed=3)
    @example(p=2, extra_rows=0, l=4, tau_is_p=False, seed=4)
    def test_matches_oracles(self, p, extra_rows, l, tau_is_p, seed):
        n, tau, sigma2 = p + extra_rows, p if tau_is_p else 1, 2.0
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((n, p, l)), rng.standard_normal((n, 1, l))
        kappa = np.linalg.cond(np.fft.fft(x, axis=2).transpose(2, 0, 1)).max()
        prob = tlsq.TlsProblem(x, y)
        for kind in ("unif", "lev", "slev", "opt")[: 4 if n > p else 3]:
            dist = tlsq.experiments.build_distribution(prob, kind, 0.8)
            report = variance_report(prob, dist, tau, sigma2)
            pairs = [
                (report.conditional, report.trace_conditional,
                 conditional_oracle(prob, dist.probs, tau)),
                (report.unconditional, report.trace_unconditional,
                 unconditional_oracle(x, dist.probs, tau, sigma2)),
            ]
            for got, trace, oracle in pairs:
                tol = 1e-12 * kappa**2 * max(1.0, np.abs(oracle).max())
                assert np.abs(got - oracle).max() <= tol, kind
                assert abs(trace - trace_t(oracle)) <= p * tol, kind


class TestUnconditionalMonteCarlo:
    """The noise-integrated form against draws with fresh noise and a fresh plan each.

    The design, sample size and 0.15 tolerance are those of acceptance
    criterion 6 (conditional form, uniform distribution); here the
    distributions are leverage and optimal. The closed forms treat sigma2 as
    the variance of a noise tube, E[e * e^T] = sigma2 times the identity
    tube, while gen_response draws every entry N(0, sigma2), which makes
    E[e * e^T] = l * sigma2 times the identity tube. Against such noise the
    forms are low by a factor of l, so the draws are compared with l times
    the form; at l = 1 the two conventions coincide.
    """

    @pytest.mark.parametrize("kind, l", [("lev", 3), ("opt", 3), ("lev", 1)])
    def test_matches_monte_carlo(self, kind, l):
        n, p, tau, sigma2, draws = 500, 4, 200, 9.0, 2000
        x = tlsq.gen_design("mn", n, p, l, seed=601)
        signal = tlsq.t_product(x, tlsq.experiments.true_coefficients(p, l))
        prob = tlsq.TlsProblem(x, signal)
        dist = tlsq.experiments.build_distribution(prob, kind)
        formula = l * trace_t(unconditional_variance(prob, dist, tau, sigma2))
        rng = np.random.default_rng(603)
        estimates = []
        for i in range(draws):
            noisy = prob.with_response(signal + rng.normal(0.0, np.sqrt(sigma2), (n, 1, l)))
            estimates.append(tlsq.solve_subsampled(noisy, tlsq.draw_plan(dist, tau, seed=i)).b)
        empirical = estimator_spread(estimates)
        rel = abs(empirical - formula) / formula
        assert rel <= 0.15, f"{kind}: l * formula {formula:.4g}, empirical {empirical:.4g}, rel {rel:.3f}"

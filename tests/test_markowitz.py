import dataclasses
import sys
from fractions import Fraction

import numpy as np
import pytest
import support
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicfund import build_group, build_market, errors, markowitz, mimicking, sampling

# Hand-derived constants for the textbook market, confirmed against the
# independent KKT oracles below before being frozen.
GMVP = np.array([11 / 14, 3 / 14])
MU_GMV = 0.085
V_GMV = 54 / 4375
TILT = np.array([-1.5625, 1.5625])
SLOPE = 0.109375

TEXTBOOK_CTX = markowitz.context(
    build_market((0.07, 0.14), ((0.0144, 0.0048), (0.0048, 0.04)))
)


class TestContext:
    def test_has_only_the_frontier_constants(self, textbook_ctx):
        names = [field.name for field in dataclasses.fields(textbook_ctx)]
        assert names == ["gmvp", "tilt", "mu_gmv", "v_gmv", "slope"]

    def test_textbook_values_match_oracle_then_frozen(self, textbook_market, textbook_ctx):
        oracle_gmvp = support.qp_gmvp(textbook_market.sigma)
        np.testing.assert_allclose(textbook_ctx.gmvp, oracle_gmvp, rtol=1e-12)
        np.testing.assert_allclose(textbook_ctx.gmvp, GMVP, rtol=1e-12)
        assert textbook_ctx.mu_gmv == pytest.approx(MU_GMV, abs=1e-12)
        assert textbook_ctx.v_gmv == pytest.approx(V_GMV, rel=1e-12)
        np.testing.assert_allclose(textbook_ctx.tilt, TILT, rtol=1e-12)
        assert textbook_ctx.slope == pytest.approx(SLOPE, rel=1e-12)

    def test_identity_covariance_gives_uniform_gmvp(self):
        ctx = markowitz.context(build_market((0.1, 0.2, 0.3), np.eye(3)))
        np.testing.assert_allclose(ctx.gmvp, np.full(3, 1 / 3), rtol=1e-14)
        assert ctx.v_gmv == pytest.approx(1 / 3, rel=1e-14)

    def test_equal_means_annihilated(self):
        rng = np.random.default_rng(5)
        market = build_market(np.full(4, 0.03), sampling.random_market(rng, 4).sigma)
        ctx = markowitz.context(market)
        np.testing.assert_allclose(ctx.tilt, 0.0, atol=1e-14)
        assert ctx.slope == pytest.approx(0.0, abs=1e-14)

    def test_invariants_on_random_markets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            market = sampling.random_market(rng, int(rng.integers(2, 11)))
            ctx = markowitz.context(market)
            assert abs(ctx.gmvp.sum() - 1.0) <= 1e-12
            assert ctx.v_gmv > 0
            assert abs(ctx.tilt.sum()) <= 1e-10 * np.max(np.abs(ctx.tilt))
            assert ctx.slope >= 0
            assert ctx.slope == pytest.approx(market.mu @ ctx.tilt, rel=1e-12)

    def test_matches_exact_rational_arithmetic(self):
        # the slope is a sum of squares, not a difference of two quadratic forms
        rng = np.random.default_rng(3)
        for _ in range(200):
            market = sampling.random_market(rng, int(rng.integers(2, 7)))
            ctx = markowitz.context(market)
            gmvp, tilt, slope = support.frontier_exact(market.mu.tolist(), market.sigma.tolist())
            tilt_scale = max(abs(t) for t in tilt)
            for got, exact in zip(ctx.gmvp.tolist(), gmvp):
                assert abs(Fraction(got) - exact) <= Fraction(1, 10**13)
            for got, exact in zip(ctx.tilt.tolist(), tilt):
                assert abs(Fraction(got) - exact) <= Fraction(1, 10**11) * tilt_scale
            assert abs(Fraction(ctx.slope) - slope) <= Fraction(1, 10**12) * slope

    def test_nearly_equal_means_keep_the_tilt_accurate(self):
        # mu - mu_gmv 1 cancels to eps; the tilt is L^-T of the slope's own
        # whitened vector, so its error grows no faster than 1 / eps
        rng = np.random.default_rng(7)
        for eps in (1e-2, 1e-5, 1e-8):
            for _ in range(60):
                k = int(rng.integers(2, 7))
                sigma = sampling.random_market(rng, k).sigma
                market = build_market(0.05 + eps * rng.standard_normal(k), sigma)
                tilt = markowitz.context(market).tilt
                _, exact, _ = support.frontier_exact(market.mu.tolist(), market.sigma.tolist())
                bound = Fraction(1e-13) / Fraction(eps) * max(abs(t) for t in exact)
                for got, want in zip(tilt.tolist(), exact):
                    assert abs(Fraction(got) - want) <= bound

    def test_ill_conditioned_covariance(self):
        # positive definite with condition number 1e12: the factor-based
        # solve must still give a unit-sum GMVP and a zero-sum tilt
        rng = np.random.default_rng(17)
        for k in (2, 5, 10):
            basis, _ = np.linalg.qr(rng.standard_normal((k, k)))
            eigenvalues = 0.04 * np.logspace(-12, 0, k)
            sigma = basis @ np.diag(eigenvalues) @ basis.T
            market = build_market(rng.normal(0.05, 0.02, k), (sigma + sigma.T) / 2)
            assert np.linalg.cond(market.sigma) == pytest.approx(1e12, rel=1e-2)
            ctx = markowitz.context(market)
            assert abs(ctx.gmvp.sum() - 1.0) <= 1e-12
            assert abs(ctx.tilt.sum()) <= 1e-12 * np.max(np.abs(ctx.tilt))
            assert ctx.slope >= 0

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-500, 500))
    def test_solve_is_scale_free(self, seed, j):
        # (mu, sigma) -> 4^j (mu, sigma) leaves the optimum unchanged, and
        # powers of 4 have exact square roots, so W keeps its bits; a failure
        # must be typed as numerical, never as invalid input
        market, group = sampling.random_instance(np.random.default_rng(seed), 10, 10)
        reference = mimicking.solve(markowitz.context(market), group).w_star.weights
        scale = 4.0**j
        scaled = build_market(scale * market.mu, scale * market.sigma)
        try:
            weights = mimicking.solve(markowitz.context(scaled), group).w_star.weights
        except errors.NumericalError:
            return
        assert np.array_equal(weights, reference)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-500, 500))
    def test_solve_is_free_of_the_preference_scale(self, seed, j):
        # (alpha, phi, sigma) -> (4^j alpha, 4^j phi, 4^-j sigma) scales tilt
        # by 4^j and c by 4^-j, each exactly, so W keeps its bits; the fund
        # variance scales by 4^-j and stays far inside the float range here,
        # so solve returns at every j
        market, group = sampling.random_instance(np.random.default_rng(seed), 10, 10)
        reference = mimicking.solve(markowitz.context(market), group).w_star.weights
        scale = 4.0**j
        scaled_market = build_market(market.mu, market.sigma / scale)
        scaled_group = build_group(scale * group.alpha, group.beta, scale * group.phi)
        weights = mimicking.solve(markowitz.context(scaled_market), scaled_group).w_star.weights
        assert np.array_equal(weights, reference)

    def test_fund_variance_overflows_only_with_its_value(self):
        # at j = -300 tau is about 3.3e179, whose square overflows, while the
        # fund variance is about 1.9e178; it is formed as t * (t * slope)
        market, group = sampling.random_instance(np.random.default_rng(5), 10, 10)
        reference = mimicking.solve(markowitz.context(market), group)
        for j in range(-300, -250):
            scale = 4.0**j
            scaled_market = build_market(market.mu, market.sigma / scale)
            scaled_group = build_group(scale * group.alpha, group.beta, scale * group.phi)
            solution = mimicking.solve(markowitz.context(scaled_market), scaled_group)
            assert np.array_equal(solution.w_star.weights, reference.w_star.weights)
            assert solution.point.variance == pytest.approx(
                reference.point.variance / scale, rel=1e-12
            )


class TestIndividualWeights:
    def test_textbook_alpha_two(self, textbook_market, textbook_ctx):
        weights, point = markowitz.frontier(textbook_ctx, 0.5)
        oracle = support.qp_individual(textbook_market.mu, textbook_market.sigma, 2.0)
        np.testing.assert_allclose(weights, oracle, atol=1e-12)
        np.testing.assert_allclose(weights, GMVP + 0.5 * TILT, rtol=1e-12)
        assert point.mean == pytest.approx(MU_GMV + SLOPE / 2, rel=1e-12)
        assert point.variance == pytest.approx(V_GMV + SLOPE / 4, rel=1e-12)

    def test_matches_kkt_oracle_on_random_markets(self):
        from mimicfund import oracle

        rng = np.random.default_rng(23)
        for _ in range(100):
            market = sampling.random_market(rng, int(rng.integers(2, 11)))
            ctx = markowitz.context(market)
            alpha = float(rng.uniform(0.1, 20))
            weights, _ = markowitz.frontier(ctx, 1.0 / alpha)
            reference = support.qp_individual(market.mu, market.sigma, alpha)
            assert support.rel_entry_err(weights, reference) <= 1e-10
            # the stacked KKT path degenerates to the same single-investor QP
            stacked, _, _ = oracle.solve_kkt_system(
                market.mu, market.sigma, np.array([[alpha]]), np.array([1.0])
            )
            assert support.rel_entry_err(weights, stacked[:, 0]) <= 1e-10
            assert abs(weights.sum() - 1.0) <= 1e-12

    def test_infinite_risk_aversion_limit_is_gmvp(self, textbook_ctx):
        weights, _ = markowitz.frontier(textbook_ctx, 1.0 / 1e12)
        np.testing.assert_allclose(weights, textbook_ctx.gmvp, atol=1e-11)

    def test_equal_means_selects_gmvp_for_all(self):
        market = build_market(np.full(3, 0.05), ((0.02, 0.001, 0.0), (0.001, 0.03, 0.002), (0.0, 0.002, 0.05)))
        ctx = markowitz.context(market)
        for alpha in (0.5, 2.0, 50.0):
            weights, _ = markowitz.frontier(ctx, 1.0 / alpha)
            np.testing.assert_allclose(weights, ctx.gmvp, atol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(1e-3, 1e5),
        factor=st.floats(1.0001, 100.0),
    )
    def test_frontier_is_monotone_in_risk_aversion(self, alpha, factor):
        ctx = TEXTBOOK_CTX
        _, low = markowitz.frontier(ctx, 1.0 / alpha)
        _, high = markowitz.frontier(ctx, 1.0 / (alpha * factor))
        assert high.variance <= low.variance + 1e-15
        assert high.mean <= low.mean + 1e-15
        assert low.variance >= ctx.v_gmv - 1e-12
        assert low.mean >= ctx.mu_gmv - 1e-12


class TestFundAggregate:
    def test_textbook_harmonic_aggregation(self, textbook_market, textbook_ctx, base_group):
        weights, alpha_f, _ = markowitz.fund_aggregate(textbook_ctx, base_group)
        assert alpha_f == pytest.approx(8 / 3, rel=1e-12)
        assert not weights.flags.writeable
        stacked = support.classical_stacked(
            textbook_market.mu,
            textbook_market.sigma,
            base_group.alpha,
            base_group.beta,
        )
        np.testing.assert_allclose(weights, stacked @ base_group.beta, atol=1e-12)

    def test_weights_are_wealth_weighted_individual_optima(self, textbook_ctx):
        rng = np.random.default_rng(3)
        for _ in range(25):
            group = sampling.random_group(rng, int(rng.integers(2, 9)))
            weights, _, _ = markowitz.fund_aggregate(textbook_ctx, group)
            averaged = sum(
                b * markowitz.frontier(textbook_ctx, 1.0 / a)[0]
                for a, b in zip(group.alpha, group.beta)
            )
            np.testing.assert_allclose(weights, averaged, atol=1e-12)

    def test_equal_risk_aversions_pass_through(self, textbook_ctx):
        group = build_group((3.0, 3.0, 3.0), (0.2, 0.5, 0.3), (0.0, 0.0, 0.0))
        _, alpha_f, _ = markowitz.fund_aggregate(textbook_ctx, group)
        assert alpha_f == pytest.approx(3.0, rel=1e-14)

    def test_optimal_utility_at_tau_cl_is_the_classical_sum(self, textbook_market, textbook_ctx):
        # the optimum's utility depends on tau alone: at tau_cl it is the
        # wealth-weighted sum of the individual penalty-free optima's utilities
        rng = np.random.default_rng(4)
        mu, sigma = textbook_market.mu, textbook_market.sigma
        for _ in range(25):
            group = sampling.random_group(rng, int(rng.integers(2, 9)))
            tau_cl = markowitz._classical_tau(group.alpha, group.beta).item()
            got = markowitz._optimal_utility(textbook_ctx, tau_cl, float(group.beta @ group.alpha))
            expected = sum(
                b * support.mv_utility(mu, sigma, markowitz.frontier(textbook_ctx, 1.0 / a)[0], a)
                for a, b in zip(group.alpha, group.beta)
            )
            assert got == pytest.approx(expected, rel=1e-12)

    def test_largest_alpha_is_numerical(self, textbook_ctx):
        # tau_cl rounds to 2^-1024, so alpha_f = 1 / tau_cl would be inf
        group = build_group((sys.float_info.max,) * 2, (0.5, 0.5), (0.0, 0.0))
        message = "fund scalar tau_cl is 5.562684646268003e-309; it or its inverse"
        with pytest.raises(errors.NumericalBreakdown, match=message):
            markowitz.fund_aggregate(textbook_ctx, group)

    def test_dominant_investor_limit(self, textbook_ctx):
        eps = 1e-9
        group = build_group((2.0, 4.0), (1.0 - eps, eps), (0.0, 0.0))
        _, alpha_f, _ = markowitz.fund_aggregate(textbook_ctx, group)
        assert alpha_f == pytest.approx(2.0, rel=1e-8)


class TestMvUtility:
    def test_gmvp_utility_is_definitional(self, textbook_market, textbook_ctx):
        got = support.mv_utility(textbook_market.mu, textbook_market.sigma, textbook_ctx.gmvp, 2.0)
        assert got == pytest.approx(MU_GMV - V_GMV, rel=1e-12)

    def test_textbook_half_half(self, textbook_market):
        # w'sigma w = 0.25 * (0.0144 + 2*0.0048 + 0.04) = 0.016
        got = support.mv_utility(textbook_market.mu, textbook_market.sigma, np.array([0.5, 0.5]), 2.0)
        assert got == pytest.approx(0.105 - 0.016, rel=1e-12)

    def test_closed_form_maximizes_over_unit_sum_vectors(self, textbook_market, textbook_ctx):
        mu, sigma = textbook_market.mu, textbook_market.sigma
        rng = np.random.default_rng(17)
        for alpha in (0.5, 2.0, 10.0):
            best_w, _ = markowitz.frontier(textbook_ctx, 1.0 / alpha)
            best = support.mv_utility(mu, sigma, best_w, alpha)
            for _ in range(50):
                bump = rng.standard_normal(2)
                bump -= bump.sum() / 2  # stay on the unit-sum hyperplane
                other = best_w + bump
                assert support.mv_utility(mu, sigma, other, alpha) <= best + 1e-12

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import support

from mimicfund import build_group, build_market, errors, markowitz, mimicking, oracle, sampling
from mimicfund.model import PortfolioMatrix

TEXTBOOK_A = np.array([[1.75, -0.75], [-0.75, 2.75]])


def dense(mm, beta):
    """Dense ``(a, a_phi)`` of a structured mimicking matrix."""
    return support.dense_mimicking(mm.d, mm.u, beta)


class TestMimickingMatrix:
    def test_textbook_matrix(self, base_group):
        mm = mimicking.mimicking_matrix(base_group)
        a, a_phi = dense(mm, base_group.beta)
        np.testing.assert_allclose(a, TEXTBOOK_A, rtol=1e-14)
        np.testing.assert_allclose(a_phi, TEXTBOOK_A, rtol=1e-14)
        # u = (beta'phi - 2 phi) beta with beta'phi = 3
        np.testing.assert_allclose(mm.u, [-1.5, -1.5], rtol=1e-14)

    def test_matches_entrywise_construction(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = sampling.random_group(rng, int(rng.integers(2, 9)))
            mm = mimicking.mimicking_matrix(g)
            reference = oracle.entrywise_mimicking_matrix(g.alpha, g.beta, g.phi)
            np.testing.assert_allclose(dense(mm, g.beta)[0], reference, rtol=1e-12, atol=1e-15)

    def test_zero_penalty_reduces_to_diagonal(self):
        g = build_group((2.0, 4.0, 8.0), (0.5, 0.25, 0.25), (0.0, 0.0, 0.0))
        mm = mimicking.mimicking_matrix(g)
        np.testing.assert_allclose(dense(mm, g.beta)[0], np.diag(g.alpha * g.beta), atol=1e-15)
        assert not mm.u.any()

    def test_equal_penalty_closed_form(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = build_group(
                rng.uniform(0.1, 20, n), rng.dirichlet(np.ones(n)), np.full(n, rng.uniform(0, 20))
            )
            phi = g.phi[0]
            expected = np.diag((g.alpha + phi) * g.beta) - phi * np.outer(g.beta, g.beta)
            a, _ = dense(mimicking.mimicking_matrix(g), g.beta)
            np.testing.assert_allclose(a, expected, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(a, a.T, atol=1e-15)

    def test_symmetrized_matrix_is_positive_definite(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            g = sampling.random_group(rng, int(rng.integers(2, 51)), alpha_low=1e-3)
            mm = mimicking.mimicking_matrix(g)  # raises if the certificate fails
            assert np.min(np.linalg.eigvalsh(dense(mm, g.beta)[1])) > 0


def max_rel(got, expected):
    """Largest deviation relative to the largest reference entry."""
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


class TestStructuredOperator:
    def test_inverse_beta_matches_dense(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            g = sampling.random_group(rng, n, alpha_low=1e-3)
            mm = mimicking.mimicking_matrix(g)
            c = mm.inverse_beta()
            assert c.shape == (n,)
            assert max_rel(c, np.linalg.solve(dense(mm, g.beta)[1], g.beta)) <= 1e-12
            assert float(g.beta @ c) == pytest.approx(4.0 * mm.s_bb / mm.delta, rel=1e-12)

    def test_penalized_utility_matches_dense_trace(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            market = sampling.random_market(rng, int(rng.integers(2, 9)))
            g = sampling.random_group(rng, int(rng.integers(2, 40)))
            w = support.unit_sum_columns(rng, market.k, g.n)
            _, a_phi = dense(mimicking.mimicking_matrix(g), g.beta)
            dense_value = float(
                g.beta @ (w.T @ market.mu) - 0.5 * np.sum(a_phi * (w.T @ market.sigma @ w))
            )
            got = mimicking.penalized_utility(market, g, w)
            assert abs(got - dense_value) <= 1e-12 * max(1.0, abs(dense_value))

    def test_certificate_sign_matches_eigenvalues(self):
        # phi < 0 lies outside the valid domain and is the only way to make
        # a_phi indefinite; alpha + phi > 0 keeps the diagonal positive, where
        # the certificate is exact
        rng = np.random.default_rng(36)
        indefinite = 0
        for _ in range(2000):
            n = int(rng.integers(2, 12))
            alpha = rng.uniform(0.1, 20, n)
            beta = rng.dirichlet(np.ones(n))
            phi = alpha * np.maximum(rng.uniform(-1, 1, n) * rng.uniform(0, 3), -0.95)
            a = oracle.entrywise_mimicking_matrix(alpha, beta, phi)
            positive = np.min(np.linalg.eigvalsh((a + a.T) / 2)) > 0
            group = SimpleNamespace(alpha=alpha, beta=beta, phi=phi)
            if positive:
                mm = mimicking.mimicking_matrix(group)
                assert mm.delta > 0
                assert np.min(np.linalg.eigvalsh(dense(mm, beta)[1])) > 0
            else:
                indefinite += 1
                with pytest.raises(errors.NumericalBreakdown):
                    mimicking.mimicking_matrix(group)
        assert indefinite >= 100

    def test_single_group_arrays_are_read_only(self, base_group):
        mm = mimicking.mimicking_matrix(base_group)
        for arr in (mm.d, mm.u, mm.d_inv_beta, mm.d_inv_u):
            assert not arr.flags.writeable

    def test_stack_rows_match_single_groups(self, textbook_ctx):
        # one group is a stack of one: every field of a stack row equals the
        # group alone bit for bit, and solve reads tau = beta'c through the
        # same reduction as the study
        rng = np.random.default_rng(37)
        for _ in range(50):
            m, n = int(rng.integers(1, 8)), int(rng.integers(2, 200))
            alpha = rng.uniform(0.1, 20, (m, n))
            beta = rng.dirichlet(np.ones(n), m)
            phi = rng.uniform(0, 20, (m, n))
            stack, c, tau = mimicking._optimum(alpha, beta, phi)
            assert isinstance(stack, mimicking.MimickingMatrix)
            for i in range(m):
                group = build_group(alpha[i], beta[i], phi[i])
                single = mimicking.mimicking_matrix(group)
                for name in mimicking.MimickingMatrix._fields:
                    got, want = getattr(stack, name)[i], getattr(single, name)
                    assert got.shape == want.shape, name
                    assert got.tobytes() == want.tobytes(), name
                assert mimicking.solve(textbook_ctx, group).alpha_star_f == 1.0 / tau[i].item()
                # a stack row does not depend on the other rows
                one = mimicking._woodbury(alpha[i : i + 1], beta[i : i + 1], phi[i : i + 1])
                for name in mimicking.MimickingMatrix._fields:
                    assert getattr(one, name)[0].tobytes() == getattr(stack, name)[i].tobytes()


class TestSolve:
    def test_textbook_aggregate_risk_aversion(self, textbook_ctx, base_group):
        solution = mimicking.solve(textbook_ctx, base_group)
        assert solution.alpha_star_f == pytest.approx(17 / 6, rel=1e-12)
        tau = 1.0 / solution.alpha_star_f
        assert solution.point.mean == pytest.approx(0.085 + tau * 0.109375, rel=1e-12)
        assert solution.point.variance == pytest.approx(
            54 / 4375 + tau * tau * 0.109375, rel=1e-12
        )

    def test_solution_invariants(self, textbook_ctx):
        rng = np.random.default_rng(41)
        for _ in range(50):
            g = sampling.random_group(rng, int(rng.integers(2, 12)))
            s = mimicking.solve(textbook_ctx, g)
            w = s.w_star.weights
            assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-10
            np.testing.assert_allclose(s.fund_weights, w @ g.beta, atol=1e-12)
            assert s.alpha_star_f > 0

    def test_equal_preferences_recover_classical_fund(self, textbook_ctx):
        g = build_group((3.0, 3.0, 3.0, 3.0), (0.1, 0.2, 0.3, 0.4), (5.0, 5.0, 5.0, 5.0))
        s = mimicking.solve(textbook_ctx, g)
        base, alpha_f, _ = markowitz.fund_aggregate(textbook_ctx, g)
        assert alpha_f == pytest.approx(3.0)
        for i in range(g.n):
            np.testing.assert_allclose(s.w_star.weights[:, i], base, atol=1e-12)

    def test_equal_means_pin_everyone_to_gmvp(self):
        market = build_market(np.full(3, 0.08), ((0.02, 0.001, 0.0), (0.001, 0.03, 0.002), (0.0, 0.002, 0.05)))
        ctx = markowitz.context(market)
        g = build_group((1.0, 2.0, 3.0), (0.3, 0.3, 0.4), (0.0, 1.0, 9.0))
        s = mimicking.solve(ctx, g)
        for i in range(g.n):
            np.testing.assert_allclose(s.w_star.weights[:, i], ctx.gmvp, atol=1e-13)

    def test_columns_lie_on_the_frontier_tilt_line(self, textbook_ctx):
        # mimicking only moves the aggregate risk aversion: every column is
        # gmvp plus a scalar multiple of the frontier tilt
        rng = np.random.default_rng(43)
        tilt_unit = textbook_ctx.tilt / np.linalg.norm(textbook_ctx.tilt)
        for _ in range(20):
            g = sampling.random_group(rng, int(rng.integers(2, 9)))
            s = mimicking.solve(textbook_ctx, g)
            for i in range(g.n):
                residual = s.w_star.weights[:, i] - textbook_ctx.gmvp
                residual = residual - (residual @ tilt_unit) * tilt_unit
                assert np.max(np.abs(residual)) <= 1e-12

    def test_optimum_beats_feasible_perturbations(self, textbook_market, textbook_ctx):
        rng = np.random.default_rng(44)
        g = sampling.random_group(rng, 5)
        s = mimicking.solve(textbook_ctx, g)
        for _ in range(50):
            bump = rng.standard_normal(s.w_star.weights.shape) * 0.1
            bump -= bump.sum(axis=0) / s.w_star.k  # keep columns feasible
            perturbed = s.w_star.weights + bump
            value = mimicking.penalized_utility(textbook_market, g, perturbed)
            assert value < s.eu_star
        # no-op perturbation changes nothing
        assert mimicking.penalized_utility(textbook_market, g, s.w_star) == pytest.approx(
            s.eu_star, rel=1e-15
        )

    def test_rounding_failures_are_numerical(self, textbook_ctx):
        # two valid groups: delta cancels to -256 although a_phi is positive
        # definite, and a column of W sums to 1 + 3.5e-10; neither is an
        # input error
        cancelled = build_group(
            (1.3863072561283194e-4, 25.442767887553956), (0.5, 0.5),
            (0.5369271349060832, 2419877411.616322),
        )
        a = oracle.entrywise_mimicking_matrix(cancelled.alpha, cancelled.beta, cancelled.phi)
        assert np.min(np.linalg.eigvalsh((a + a.T) / 2)) > 0
        for call in (mimicking.mimicking_matrix, mimicking.asymptotic_alpha):
            with pytest.raises(errors.NumericalBreakdown):
                call(cancelled)
        off_sum = build_group(
            (6.39188298965864e-6, 2.036259105597082e-6), (0.5, 0.5),
            (526555.6052483491, 1048.9066279687663),
        )
        for group in (cancelled, off_sum):
            with pytest.raises(errors.NumericalBreakdown):
                mimicking.solve(textbook_ctx, group)

    def test_first_order_conditions_at_large_n(self):
        # 10^5 investors: a dense a_phi would take 80 GB, so passing shows
        # that neither solve nor penalized_utility forms an n x n array
        rng = np.random.default_rng(45)
        market = sampling.random_market(rng, 20)
        g = sampling.random_group(rng, 100_000)
        s = mimicking.solve(markowitz.context(market), g)
        spread, sum_off = support.mimicking_foc_residuals(
            market.mu, market.sigma, g.alpha, g.beta, g.phi, s.w_star.weights
        )
        assert spread <= 1e-10
        assert sum_off <= 1e-10
        assert 1.0 / s.alpha_star_f == pytest.approx(
            mimicking.asymptotic_alpha(g).exact_inverse, rel=1e-12
        )

    def test_first_order_conditions_with_wealth_over_12_decades(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            raw = 10.0 ** rng.uniform(-12, 0, n)
            raw[0], raw[-1] = 1e-12, 1.0
            g = build_group(
                rng.uniform(0.1, 20, n), raw / raw.sum(), rng.uniform(0, 20, n)
            )
            market = sampling.random_market(rng, int(rng.integers(2, 11)))
            s = mimicking.solve(markowitz.context(market), g)
            spread, sum_off = support.mimicking_foc_residuals(
                market.mu, market.sigma, g.alpha, g.beta, g.phi, s.w_star.weights
            )
            assert spread <= 1e-10
            assert sum_off <= 1e-10
        # the first-order check notices a wrong column
        w = s.w_star.weights.copy()
        big = int(np.argmax(g.beta))
        w[:, big] += 1e-6 * (s.w_star.weights[:, big] - markowitz.context(market).gmvp)
        assert support.mimicking_foc_residuals(
            market.mu, market.sigma, g.alpha, g.beta, g.phi, w
        )[0] > 1e-10


class TestPenalizedUtility:
    def test_zero_penalty_equals_weighted_plain_utilities(self, textbook_market):
        rng = np.random.default_rng(51)
        g = build_group((2.0, 4.0, 6.0), (0.5, 0.3, 0.2), (0.0, 0.0, 0.0))
        w = support.unit_sum_columns(rng, textbook_market.k, g.n)
        got = mimicking.penalized_utility(textbook_market, g, w)
        expected = sum(
            b * support.mv_utility(textbook_market.mu, textbook_market.sigma, w[:, i], a)
            for i, (a, b) in enumerate(zip(g.alpha, g.beta))
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_identical_columns_kill_the_penalty(self, textbook_market, base_group):
        common = np.array([0.3, 0.7])
        w = np.column_stack([common, common])
        got = mimicking.penalized_utility(textbook_market, base_group, w)
        expected = sum(
            b * support.mv_utility(textbook_market.mu, textbook_market.sigma, common, a)
            for a, b in zip(base_group.alpha, base_group.beta)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_trace_form_matches_direct_sum(self):
        # the definitional cross-check: the trace evaluation must reproduce
        # the wealth-weighted sum of individual penalized objectives
        rng = np.random.default_rng(52)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            market = sampling.random_market(rng, k)
            g = sampling.random_group(rng, n)
            w = support.unit_sum_columns(rng, k, n)
            got = mimicking.penalized_utility(market, g, w)
            expected = support.penalized_direct(
                market.mu, market.sigma, g.alpha, g.beta, g.phi, w
            )
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(got), abs(expected))

    def test_rejects_bad_matrices(self, textbook_market, base_group):
        with pytest.raises(errors.ConstraintViolated):
            mimicking.penalized_utility(
                textbook_market, base_group, np.array([[0.5, 0.5], [0.4, 0.5]])
            )
        with pytest.raises(errors.DimensionMismatch):
            mimicking.penalized_utility(
                textbook_market,
                base_group,
                PortfolioMatrix(np.full((3, 2), 1 / 3)),
            )


    def test_solution_weights_are_read_only_and_reproduce_eu_star(self):
        # eu_star comes from tau alone, not from the trace form at w_star; it
        # must agree with both the trace form and the exact utility at w_star
        rng = np.random.default_rng(39)
        for _ in range(25):
            market, group = sampling.random_instance(rng)
            sol = mimicking.solve(markowitz.context(market), group)
            assert not sol.w_star.weights.flags.writeable
            got = mimicking.penalized_utility(market, group, sol.w_star)
            assert got == pytest.approx(sol.eu_star, rel=1e-13)
            exact = support.penalized_exact(
                market.mu, market.sigma, group.alpha, group.beta, group.phi, sol.w_star.weights
            )
            assert abs(Fraction(sol.eu_star) - exact) / max(1, abs(exact)) <= 1e-13
            arr = np.array(sol.w_star.weights)
            before = arr.copy()
            assert mimicking.penalized_utility(market, group, arr) == got
            assert arr.flags.writeable
            assert np.array_equal(arr, before)


class TestEqualWealthMatrix:
    def test_textbook_scaled_matrix(self):
        g = build_group((2.0, 4.0), (0.5, 0.5), (3.0, 3.0))
        scaled = support.equal_wealth_matrix(g.alpha, g.phi)
        np.testing.assert_allclose(scaled, [[7.0, -3.0], [-3.0, 11.0]], rtol=1e-14)
        np.testing.assert_allclose(scaled, 4.0 * TEXTBOOK_A, rtol=1e-14)

    def test_zero_penalty_form(self):
        g = build_group((2.0, 4.0, 8.0), (1 / 3, 1 / 3, 1 / 3), (0.0, 0.0, 0.0))
        np.testing.assert_allclose(
            support.equal_wealth_matrix(g.alpha, g.phi), 3.0 * np.diag(g.alpha), atol=1e-12
        )

    def test_scale_identity_and_fund_weights_agree(self, textbook_ctx):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            g = sampling.random_group(rng, n, uniform_wealth=True)
            scaled = support.equal_wealth_matrix(g.alpha, g.phi)
            general, _ = dense(mimicking.mimicking_matrix(g), g.beta)
            np.testing.assert_allclose(scaled, n * n * general, rtol=1e-12, atol=1e-13)
            scaled_sym = (scaled + scaled.T) / 2
            ones = np.ones(n)
            tau = float(ones @ np.linalg.solve(scaled_sym, ones))
            fund = textbook_ctx.gmvp + tau * textbook_ctx.tilt
            solution = mimicking.solve(textbook_ctx, g)
            np.testing.assert_allclose(fund, solution.fund_weights, atol=1e-12)


class TestAsymptoticAlpha:
    def test_textbook_values(self, base_group):
        got = mimicking.asymptotic_alpha(base_group)
        assert mimicking.mimicking_matrix(base_group).s_bb == pytest.approx(6 / 35, rel=1e-14)
        assert got.upper == pytest.approx(6.0, rel=1e-14)
        assert got.classical == pytest.approx(8 / 3, rel=1e-14)
        assert got.classical <= 1.0 / got.exact_inverse <= got.upper
        # 1 / alpha_star_f with criterion 8's frozen alpha_star_f = 17/6
        assert got.exact_inverse == pytest.approx(6 / 17, rel=1e-14)

    def test_zero_penalty_collapses_to_classical(self):
        g = build_group((2.0, 5.0, 9.0), (0.2, 0.3, 0.5), (0.0, 0.0, 0.0))
        got = mimicking.asymptotic_alpha(g)
        assert 1.0 / got.exact_inverse == pytest.approx(got.classical, rel=1e-14)

    def test_large_group_risk_aversion_ordering(self, textbook_ctx):
        # with many small investors the solved aggregate risk aversion sits
        # strictly between the classical value and beta'alpha + beta'phi
        rng = np.random.default_rng(72)
        for _ in range(5):
            g = sampling.random_group(rng, 1000, uniform_wealth=True)
            got = mimicking.asymptotic_alpha(g)
            alpha_star = mimicking.solve(textbook_ctx, g).alpha_star_f
            assert got.classical < alpha_star < got.upper

    def test_exact_inverse_equal_preferences(self):
        # equal alpha and phi give the classical fund: tau = 1/a for any wealth
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            a = rng.uniform(0.1, 20)
            g = build_group(
                np.full(n, a), rng.dirichlet(np.ones(n)), np.full(n, rng.uniform(0, 20))
            )
            got = mimicking.asymptotic_alpha(g)
            assert got.exact_inverse == pytest.approx(1.0 / a, rel=1e-12)

    @pytest.mark.parametrize("alpha_low", [0.1, 1e-3])
    def test_exact_inverse_matches_solve(self, textbook_ctx, alpha_low):
        rng = np.random.default_rng(74)
        for _ in range(100):
            g = sampling.random_group(rng, int(rng.integers(2, 200)), alpha_low=alpha_low)
            got = mimicking.asymptotic_alpha(g)
            alpha_star = mimicking.solve(textbook_ctx, g).alpha_star_f
            assert got.exact_inverse == pytest.approx(1.0 / alpha_star, rel=1e-12)

    def test_one_formula_per_fund_scalar(self):
        # tau and tau_cl each have one formula: the diagnostics, solve and
        # fund_aggregate agree bit for bit
        rng = np.random.default_rng(75)
        for _ in range(2000):
            market = sampling.random_market(rng, int(rng.integers(2, 8)))
            g = sampling.random_group(rng, int(rng.integers(2, 60)), alpha_low=1e-3)
            ctx = markowitz.context(market)
            got = mimicking.asymptotic_alpha(g)
            assert 1.0 / got.exact_inverse == mimicking.solve(ctx, g).alpha_star_f
            assert got.classical == markowitz.fund_aggregate(ctx, g)[1]

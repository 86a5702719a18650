import itertools
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import support
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimicfund import (InvestorGroup, MarketModel, errors, markowitz, mimicking, model, oracle,
                       sampling)
from mimicfund.model import PortfolioMatrix

TEXTBOOK_A = np.array([[1.75, -0.75], [-0.75, 2.75]])

# a valid market on which tau^2 slope, or v_gmv beta'alpha, leaves the float range
HUGE_SIGMA = {"mu": [0.0, 1.0], "sigma": [[1e300, 0.0], [0.0, 1e300]]}
# alpha = 1e-306: W is finite, the fund's variance tau^2 slope is not
TINY_ALPHA = {**HUGE_SIGMA, "alpha": [1e-306, 1e-306], "beta": [0.5, 0.5], "phi": [0.0, 0.0]}
# alpha = 1e10: the fund is finite, the utility's v_gmv beta'alpha is not
LARGE_ALPHA = {**HUGE_SIGMA, "alpha": [1e10, 1e10], "beta": [0.5, 0.5], "phi": [1.0, 1.0]}
# alpha at the largest float: tau = 2^-1024 is subnormal, and 1 / tau overflows
LARGEST_ALPHA = {
    **support.TEXTBOOK_MARKET,
    "alpha": [sys.float_info.max] * 2, "beta": [0.5, 0.5], "phi": [0.0, 0.0],
}


def dense(group):
    """Dense ``(a, a_phi)`` of a group from the oracle's entry formulas."""
    a = oracle.entrywise_mimicking_matrix(group)
    return a, (a + a.T) / 2.0


def exact_weights(market, group):
    """The optimal ``W`` in exact rational arithmetic, as an object array."""
    exact = support.optimum_exact(
        market.mu.tolist(), market.sigma.tolist(), group.alpha, group.beta, group.phi
    )
    return np.array(exact, dtype=object)


class TestMimickingMatrix:
    def test_textbook_matrix(self, base_group):
        a, a_phi = dense(base_group)
        np.testing.assert_allclose(a, TEXTBOOK_A, rtol=1e-14)
        np.testing.assert_allclose(a_phi, TEXTBOOK_A, rtol=1e-14)
        split = support.split_mimicking(base_group.alpha, base_group.beta, base_group.phi)
        np.testing.assert_allclose(split, TEXTBOOK_A, rtol=1e-14)
        c, tau = mimicking._optimum(base_group.alpha, base_group.beta, base_group.phi)
        np.testing.assert_allclose(c, np.linalg.solve(TEXTBOOK_A, base_group.beta), rtol=1e-14)
        assert tau.item() == pytest.approx(6 / 17, rel=1e-14)

    def test_matches_entrywise_construction(self):
        # the split that _optimum inverts is the symmetrized entrywise matrix
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = sampling.random_group(rng, int(rng.integers(2, 9)))
            split = support.split_mimicking(g.alpha, g.beta, g.phi)
            np.testing.assert_allclose(split, dense(g)[1], rtol=1e-12, atol=1e-15)

    def test_zero_penalty_reduces_to_diagonal(self):
        g = InvestorGroup((2.0, 4.0, 8.0), (0.5, 0.25, 0.25), (0.0, 0.0, 0.0))
        np.testing.assert_allclose(dense(g)[0], np.diag(g.alpha * g.beta), atol=1e-15)
        c, tau = mimicking._optimum(g.alpha, g.beta, g.phi)
        np.testing.assert_allclose(c, 1.0 / g.alpha, rtol=1e-15)
        assert tau.item() == pytest.approx(
            markowitz._classical_tau(g.alpha, g.beta).item(), rel=1e-15
        )

    def test_equal_penalty_closed_form(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = InvestorGroup(
                rng.uniform(0.1, 20, n), rng.dirichlet(np.ones(n)), np.full(n, rng.uniform(0, 20))
            )
            phi = g.phi[0]
            expected = np.diag((g.alpha + phi) * g.beta) - phi * np.outer(g.beta, g.beta)
            a, _ = dense(g)
            np.testing.assert_allclose(a, expected, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(a, a.T, atol=1e-15)
            split = support.split_mimicking(g.alpha, g.beta, g.phi)
            np.testing.assert_allclose(split, expected, rtol=1e-12, atol=1e-15)

    def test_symmetrized_matrix_is_positive_definite(self):
        # a_phi is diag(alpha beta) plus a positive semidefinite penalty term,
        # so its smallest eigenvalue is at least min alpha_i beta_i
        rng = np.random.default_rng(33)
        for _ in range(200):
            g = InvestorGroup(*support.group_draws(rng, int(rng.integers(2, 51)), alpha_low=1e-3))
            eigenvalues = np.linalg.eigvalsh(dense(g)[1])
            floor = np.min(g.alpha * g.beta)
            assert eigenvalues[0] >= floor - 1e-13 * eigenvalues[-1]


def max_rel(got, expected):
    """Largest deviation relative to the largest reference entry."""
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


def exact_rel(got, exact):
    """Largest entrywise deviation of floats from exact values, relative to each entry."""
    return max(float(abs(Fraction(float(x)) - e) / abs(e)) for x, e in zip(got, exact))


class TestStructuredOperator:
    def test_inverse_beta_matches_dense(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            g = InvestorGroup(*support.group_draws(rng, n, alpha_low=1e-3))
            c, tau = mimicking._optimum(g.alpha, g.beta, g.phi)
            assert c.shape == (n,) and tau.shape == (1,)
            assert max_rel(c, np.linalg.solve(dense(g)[1], g.beta)) <= 1e-12
            assert tau.item() == pytest.approx(float(g.beta @ c), rel=1e-12)

    def test_extreme_preferences_match_exact_rationals(self):
        # preferences over 8 and 11 decades: every group solves, and c has
        # no cancellation to lose digits in
        rng = np.random.default_rng(2)
        for _ in range(500):
            alpha, phi = 10.0 ** rng.uniform(-6, 2, 2), 10.0 ** rng.uniform(-2, 9, 2)
            g = InvestorGroup(alpha, (0.5, 0.5), phi)
            tau = mimicking.asymptotic_alpha(g).exact_inverse
            c, _ = mimicking._optimum(g.alpha, g.beta, g.phi)
            exact = support.inverse_beta_exact(g.alpha, g.beta, g.phi)
            assert exact_rel(c, exact) <= 1e-12
            assert exact_rel([tau], [sum(exact) / 2]) <= 1e-12

    def test_penalized_utility_matches_dense_trace(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            market = sampling.random_market(rng, int(rng.integers(2, 9)))
            g = sampling.random_group(rng, int(rng.integers(2, 40)))
            w = support.unit_sum_columns(rng, market.k, g.n)
            _, a_phi = dense(g)
            dense_value = float(
                g.beta @ (w.T @ market.mu) - 0.5 * np.sum(a_phi * (w.T @ market.sigma @ w))
            )
            got = mimicking.penalized_utility(market, g, PortfolioMatrix(w))
            assert abs(got - dense_value) <= 1e-12 * max(1.0, abs(dense_value))

    def test_single_group_arrays_are_read_only(self, textbook_ctx, base_group):
        solution = mimicking.solve(textbook_ctx, base_group)
        for arr in (solution.w_star.weights, solution.fund_weights):
            assert not arr.flags.writeable

    def test_stack_rows_match_single_groups(self, textbook_ctx):
        # one group is a stack of one: c and tau of a stack row equal the
        # group alone bit for bit, and solve reads tau through the same
        # reduction as the study; in the study's investor-major layout this
        # holds for n < 8, where numpy's two summation orders agree
        rng = np.random.default_rng(37)
        # lazy, so each C-ordered size is drawn after the previous stack
        c_ordered = ((int(rng.integers(1, 8)), int(rng.integers(2, 200)), False) for _ in range(50))
        investor_major = ((m, n, True) for m in (3, 606) for n in range(2, 8))
        for m, n, transposed in itertools.chain(c_ordered, investor_major):
            alpha = rng.uniform(0.1, 20, (m, n))
            beta = rng.dirichlet(np.ones(n), m)
            phi = rng.uniform(0, 20, (m, n))
            if transposed:  # the transpose of a C-ordered (n, m) array
                alpha, beta, phi = (np.ascontiguousarray(x.T).T for x in (alpha, beta, phi))
            stack = mimicking._optimum(alpha, beta, phi)
            for i in range(m):
                group = InvestorGroup(alpha[i], beta[i], phi[i])
                single = mimicking._optimum(group.alpha, group.beta, group.phi)
                # a stack row does not depend on the other rows
                one = mimicking._optimum(alpha[i : i + 1], beta[i : i + 1], phi[i : i + 1])
                for got, want, alone in zip(stack, single, one):
                    assert got[i].shape == want.shape
                    assert got[i].tobytes() == want.tobytes() == alone[0].tobytes()
                assert mimicking.solve(textbook_ctx, group).alpha_star_f == 1.0 / stack[1][i].item()


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

    def test_hands_its_frozen_weights_over_without_a_copy(self, monkeypatch):
        # solve is PortfolioMatrix's one caller that hands over a frozen array
        # it owns; a copy would go through _as_array
        rng = np.random.default_rng(20)
        ctx = markowitz.context(sampling.random_market(rng, 20))
        group = sampling.random_group(rng, 1000)

        def copied(*args):
            raise AssertionError("solve's weights were copied")

        monkeypatch.setattr(model, "_as_array", copied)
        weights = mimicking.solve(ctx, group).w_star.weights
        assert weights.shape == (20, 1000)
        assert weights.base is None and not weights.flags.writeable

    def test_equal_preferences_recover_classical_fund(self, textbook_ctx):
        g = InvestorGroup((3.0, 3.0, 3.0, 3.0), (0.1, 0.2, 0.3, 0.4), (5.0, 5.0, 5.0, 5.0))
        s = mimicking.solve(textbook_ctx, g)
        base, alpha_f, _ = markowitz.fund_aggregate(textbook_ctx, g)
        assert alpha_f == pytest.approx(3.0)
        for i in range(g.n):
            np.testing.assert_allclose(s.w_star.weights[:, i], base, atol=1e-12)

    def test_equal_means_pin_everyone_to_gmvp(self):
        market = MarketModel(np.full(3, 0.08), ((0.02, 0.001, 0.0), (0.001, 0.03, 0.002), (0.0, 0.002, 0.05)))
        ctx = markowitz.context(market)
        g = InvestorGroup((1.0, 2.0, 3.0), (0.3, 0.3, 0.4), (0.0, 1.0, 9.0))
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
            value = mimicking.penalized_utility(textbook_market, g, PortfolioMatrix(perturbed))
            assert value < s.eu_star
        # no-op perturbation changes nothing
        assert mimicking.penalized_utility(textbook_market, g, s.w_star) == pytest.approx(
            s.eu_star, rel=1e-15
        )

    def test_rounding_failures_are_numerical(self, textbook_ctx):
        # a valid group whose alpha + phi overflows: not an input error
        overflow = InvestorGroup((1e308, 1e308), (0.5, 0.5), (1e308, 1e308))
        with pytest.raises(errors.NumericalBreakdown, match="out of floating-point range"):
            mimicking.asymptotic_alpha(overflow)
        with pytest.raises(errors.NumericalBreakdown):
            mimicking.solve(textbook_ctx, overflow)

    @pytest.mark.parametrize(
        "instance, message",
        [(TINY_ALPHA, "frontier fund at t = 1e+306 is out of floating-point range"),
         (LARGE_ALPHA, "utility -inf at the optimum is out of floating-point range"),
         (LARGEST_ALPHA, "fund scalar tau is 5.562684646268003e-309; it or its inverse is out of")],
        ids=["fund-variance", "utility", "risk-aversion"],
    )
    def test_out_of_range_fund_or_utility_is_numerical(self, instance, message):
        market = MarketModel(instance["mu"], instance["sigma"])
        group = InvestorGroup(instance["alpha"], instance["beta"], instance["phi"])
        with pytest.raises(errors.NumericalBreakdown) as caught:
            mimicking.solve(markowitz.context(market), group)
        assert message in str(caught.value)

    def test_large_frontier_coordinates_keep_unit_column_sums(self, textbook_market, textbook_ctx):
        # c is about 2.4e5, so a 1'tilt of 1.3e-15 would put a column sum
        # 3.5e-10 off 1; the re-centred tilt sums to 0 exactly
        g = InvestorGroup(
            (6.39188298965864e-6, 2.036259105597082e-6), (0.5, 0.5),
            (526555.6052483491, 1048.9066279687663),
        )
        w = mimicking.solve(textbook_ctx, g).w_star.weights
        exact = exact_weights(textbook_market, g)
        assert float(np.max(np.abs(w - exact)) / np.max(np.abs(exact))) <= 1e-12

    def test_preferences_over_13_decades_solve_exactly(self, textbook_market, textbook_ctx):
        # a_phi has eigenvalues 6.36 and 6.05e8, and the sums in a rank-two
        # (Woodbury) inverse of it cancel to the sign; W is checked exactly
        g = InvestorGroup(
            (1.3863072561283194e-4, 25.442767887553956), (0.5, 0.5),
            (0.5369271349060832, 2419877411.616322),
        )
        w = mimicking.solve(textbook_ctx, g).w_star.weights
        exact = exact_weights(textbook_market, g)
        assert float(np.max(np.abs(w - exact)) / np.max(np.abs(exact))) <= 1e-12

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
            g = InvestorGroup(
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


@st.composite
def scaled_instances(draw):
    """A random instance with (mu, sigma), alpha and phi each scaled by a power of 4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    market, group = sampling.random_instance(rng, 5, 5)
    market_scale, alpha_scale, phi_scale = (4.0 ** draw(st.integers(-500, 500)) for _ in range(3))
    return {
        "mu": market.mu * market_scale,
        "sigma": market.sigma * market_scale,
        "alpha": group.alpha * alpha_scale,
        "beta": group.beta,
        "phi": group.phi * phi_scale if draw(st.booleans()) else np.zeros(group.n),
    }


@settings(derandomize=True, deadline=None, max_examples=200)
@given(instance=scaled_instances())
@example(instance=TINY_ALPHA)
@example(instance=LARGE_ALPHA)
@example(instance=LARGEST_ALPHA)
def test_solve_returns_finite_numbers_or_raises(instance):
    # a solution holds only finite numbers; a result beyond the float range
    # is a NumericalBreakdown, never an inf in the solution or a warning
    try:
        market = MarketModel(instance["mu"], instance["sigma"])
        group = InvestorGroup(instance["alpha"], instance["beta"], instance["phi"])
    except errors.ValidationError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = mimicking.solve(markowitz.context(market), group)
        except errors.NumericalBreakdown:
            return
    values = (s.w_star.weights, s.fund_weights, s.alpha_star_f, s.point.mean, s.point.variance,
              s.eu_star)
    assert all(np.isfinite(v).all() for v in values)


@st.composite
def extreme_groups(draw):
    """2 to 5 investors, ``alpha`` and ``phi`` over ``10^[-320, 308]``, random wealth shares."""
    n = draw(st.integers(2, 5))
    powers = st.floats(-320.0, 308.0)
    alpha = [10.0 ** draw(powers) for _ in range(n)]
    phi = [10.0 ** draw(powers) for _ in range(n)]
    shares = np.array([draw(st.floats(0.01, 1.0)) for _ in range(n)])
    return alpha, shares / shares.sum(), phi


@settings(derandomize=True, deadline=None, max_examples=200)
@given(instance=extreme_groups())
# tau_cl = inf, whose inverse 0 passed as the classical risk aversion
@example(instance=((1e-320, 1.0), (0.5, 0.5), (1.0, 1.0)))
# g alpha = 5e-318 keeps 19 bits, and phi = 1e89 carries the loss into tau
@example(instance=((1e-228, 1e-228), (0.5, 0.5), (1.0, 1e89)))
# alpha + phi overflows for one investor, whose g is then 0
@example(instance=((2.0, 1e308), (0.5, 0.5), (3.0, 1e308)))
# g = 1e-328 underflows to 0, and alpha phi = 2.5e615 would have made its term dominate
@example(instance=((1.0, 5e307), (1.0 - 1e-20, 1e-20), (1.0, 5e307)))
def test_fund_scalars_are_accurate_or_raise(instance):
    # one rule for both fund scalars: asymptotic_alpha and the solver of the
    # failing scalar raise together, or tau is exact to 1e-12 and the risk
    # aversions are ordered classical <= 1 / tau <= upper
    group = InvestorGroup(*instance)
    # the textbook market
    ctx = markowitz.context(MarketModel(LARGEST_ALPHA["mu"], LARGEST_ALPHA["sigma"]))
    try:
        upper, classical, tau = mimicking.asymptotic_alpha(group)
    except errors.NumericalBreakdown as exc:
        name = re.match(r"fund scalar (tau|tau_cl) is ", str(exc)).group(1)
        with pytest.raises(errors.NumericalBreakdown, match=f"fund scalar {name} is "):
            if name == "tau":
                mimicking.solve(ctx, group)
            else:
                markowitz.fund_aggregate(ctx, group)
        return
    alpha_f = 1.0 / tau
    assert all(np.isfinite(x) and x > 0 for x in (upper, classical, tau, alpha_f))
    assert classical <= alpha_f * (1 + 1e-12) and alpha_f <= upper * (1 + 1e-12)
    # beta' a_phi^-1 beta in exact arithmetic, for the shares scaled to sum to 1
    beta = [Fraction(b) for b in group.beta.tolist()]
    beta = [b / sum(beta) for b in beta]
    c = support.inverse_beta_exact(group.alpha.tolist(), beta, group.phi.tolist())
    assert abs(Fraction(tau) / sum(b * x for b, x in zip(beta, c)) - 1) <= 1e-12
    # each solver reaches the same risk aversion, or fails at its fund's range
    for solver, expected in ((lambda: mimicking.solve(ctx, group).alpha_star_f, alpha_f),
                             (lambda: markowitz.fund_aggregate(ctx, group)[1], classical)):
        try:
            assert solver() == expected
        except errors.NumericalBreakdown as exc:
            assert "fund scalar" not in str(exc)


# groups at 0.7 and 1.4 times each bound of _optimum's rounding rules, with
# u / _LOSS = 2^-1074 / 2^-45: the smallest g against u / _LOSS, then, with
# every g far above it, r / max(phi) against n u / _LOSS; a _LOSS four times
# larger or smaller misjudges one group of each pair
@pytest.mark.parametrize(
    "alpha, beta, phi, raises",
    [((1.0, 8.218e307), (0.99, 0.01), (1.0, 1.0), True),
     ((1.0, 4.109e307), (0.99, 0.01), (1.0, 1.0), False),
     ((1.0, 4.867e-10), (0.5, 0.5), (0.0, 1e300), True),
     ((1.0, 9.735e-10), (0.5, 0.5), (0.0, 1e300), False)],
    ids=["min-g-0.7", "min-g-1.4", "r-0.7", "r-1.4"],
)
def test_loss_share_is_pinned(textbook_ctx, alpha, beta, phi, raises):
    group = InvestorGroup(alpha, beta, phi)
    if raises:
        with pytest.raises(errors.NumericalBreakdown, match="fund scalar tau is nan"):
            mimicking.solve(textbook_ctx, group)
    else:
        assert np.isfinite(mimicking.solve(textbook_ctx, group).alpha_star_f)


class TestPenalizedUtility:
    def test_zero_penalty_equals_weighted_plain_utilities(self, textbook_market):
        rng = np.random.default_rng(51)
        g = InvestorGroup((2.0, 4.0, 6.0), (0.5, 0.3, 0.2), (0.0, 0.0, 0.0))
        w = support.unit_sum_columns(rng, textbook_market.k, g.n)
        got = mimicking.penalized_utility(textbook_market, g, PortfolioMatrix(w))
        expected = sum(
            b * support.mv_utility(textbook_market.mu, textbook_market.sigma, w[:, i], a)
            for i, (a, b) in enumerate(zip(g.alpha, g.beta))
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_identical_columns_kill_the_penalty(self, textbook_market, base_group):
        common = np.array([0.3, 0.7])
        w = np.column_stack([common, common])
        got = mimicking.penalized_utility(textbook_market, base_group, PortfolioMatrix(w))
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
            got = mimicking.penalized_utility(market, g, PortfolioMatrix(w))
            expected = support.penalized_direct(
                market.mu, market.sigma, g.alpha, g.beta, g.phi, w
            )
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(got), abs(expected))

    def test_rejects_bad_matrices(self, textbook_market, base_group):
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
            market, group = sampling.random_instance(rng, 10, 10)
            sol = mimicking.solve(markowitz.context(market), group)
            assert not sol.w_star.weights.flags.writeable
            got = mimicking.penalized_utility(market, group, sol.w_star)
            assert got == pytest.approx(sol.eu_star, rel=1e-13)
            exact = support.penalized_exact(
                market.mu, market.sigma, group.alpha, group.beta, group.phi, sol.w_star.weights
            )
            assert abs(Fraction(sol.eu_star) - exact) / max(1, abs(exact)) <= 1e-13


class TestEqualWealthMatrix:
    def test_textbook_scaled_matrix(self):
        g = InvestorGroup((2.0, 4.0), (0.5, 0.5), (3.0, 3.0))
        scaled = support.equal_wealth_matrix(g.alpha, g.phi)
        np.testing.assert_allclose(scaled, [[7.0, -3.0], [-3.0, 11.0]], rtol=1e-14)
        np.testing.assert_allclose(scaled, 4.0 * TEXTBOOK_A, rtol=1e-14)

    def test_zero_penalty_form(self):
        g = InvestorGroup((2.0, 4.0, 8.0), (1 / 3, 1 / 3, 1 / 3), (0.0, 0.0, 0.0))
        np.testing.assert_allclose(
            support.equal_wealth_matrix(g.alpha, g.phi), 3.0 * np.diag(g.alpha), atol=1e-12
        )

    def test_scale_identity_and_fund_weights_agree(self, textbook_ctx):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            g = InvestorGroup(*support.group_draws(rng, n, uniform_wealth=True))
            scaled = support.equal_wealth_matrix(g.alpha, g.phi)
            general, _ = dense(g)
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
        assert got.upper == pytest.approx(6.0, rel=1e-14)
        assert got.classical == pytest.approx(8 / 3, rel=1e-14)
        assert got.classical <= 1.0 / got.exact_inverse <= got.upper
        # 1 / alpha_star_f with criterion 8's frozen alpha_star_f = 17/6
        assert got.exact_inverse == pytest.approx(6 / 17, rel=1e-14)

    def test_largest_alpha_is_numerical(self):
        # tau and tau_cl round to 2^-1024; neither risk aversion may come out inf
        group = InvestorGroup(LARGEST_ALPHA["alpha"], LARGEST_ALPHA["beta"], LARGEST_ALPHA["phi"])
        with pytest.raises(errors.NumericalBreakdown, match="fund scalar tau is 5.56"):
            mimicking.asymptotic_alpha(group)

    def test_zero_penalty_collapses_to_classical(self):
        g = InvestorGroup((2.0, 5.0, 9.0), (0.2, 0.3, 0.5), (0.0, 0.0, 0.0))
        got = mimicking.asymptotic_alpha(g)
        assert 1.0 / got.exact_inverse == pytest.approx(got.classical, rel=1e-14)

    def test_large_group_risk_aversion_ordering(self, textbook_ctx):
        # with many small investors the solved aggregate risk aversion sits
        # strictly between the classical value and beta'alpha + beta'phi
        rng = np.random.default_rng(72)
        for _ in range(5):
            g = InvestorGroup(*support.group_draws(rng, 1000, uniform_wealth=True))
            got = mimicking.asymptotic_alpha(g)
            alpha_star = mimicking.solve(textbook_ctx, g).alpha_star_f
            assert got.classical < alpha_star < got.upper

    def test_exact_inverse_equal_preferences(self):
        # equal alpha and phi give the classical fund: tau = 1/a for any wealth
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            a = rng.uniform(0.1, 20)
            g = InvestorGroup(
                np.full(n, a), rng.dirichlet(np.ones(n)), np.full(n, rng.uniform(0, 20))
            )
            got = mimicking.asymptotic_alpha(g)
            assert got.exact_inverse == pytest.approx(1.0 / a, rel=1e-12)

    @pytest.mark.parametrize("alpha_low", [0.1, 1e-3])
    def test_exact_inverse_matches_solve(self, textbook_ctx, alpha_low):
        rng = np.random.default_rng(74)
        for _ in range(100):
            g = InvestorGroup(*support.group_draws(rng, int(rng.integers(2, 200)), alpha_low))
            got = mimicking.asymptotic_alpha(g)
            alpha_star = mimicking.solve(textbook_ctx, g).alpha_star_f
            assert got.exact_inverse == pytest.approx(1.0 / alpha_star, rel=1e-12)

    def test_one_formula_per_fund_scalar(self):
        # tau and tau_cl each have one formula: the diagnostics, solve and
        # fund_aggregate agree bit for bit
        rng = np.random.default_rng(75)
        for _ in range(2000):
            market = sampling.random_market(rng, int(rng.integers(2, 8)))
            g = InvestorGroup(*support.group_draws(rng, int(rng.integers(2, 60)), alpha_low=1e-3))
            ctx = markowitz.context(market)
            got = mimicking.asymptotic_alpha(g)
            assert 1.0 / got.exact_inverse == mimicking.solve(ctx, g).alpha_star_f
            assert got.classical == markowitz.fund_aggregate(ctx, g)[1]


def test_readme_library_example():
    # README's "Library example" block runs as written, and the values its
    # comments quote are the ones it computes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    ctx, group, solution = namespace["ctx"], namespace["group"], namespace["solution"]
    quoted = re.search(r"alpha_star_f +# ([\d.]+)\.\.\. \(classical aggregation gives ([\d.]+)\)", block)
    mimicking_alpha, classical_alpha = map(float, quoted.groups())
    assert solution.alpha_star_f == pytest.approx(mimicking_alpha, abs=1e-4)
    assert markowitz.fund_aggregate(ctx, group)[1] == pytest.approx(classical_alpha, abs=1e-4)
    expected = ctx.gmvp + ctx.tilt / solution.alpha_star_f
    np.testing.assert_allclose(solution.fund_weights, expected, rtol=1e-14)
    market = namespace["market"]
    assert mimicking.penalized_utility(market, group, solution.w_star) == pytest.approx(
        solution.eu_star, rel=1e-14
    )

import ast
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import support

from mimicfund import (
    build_group, build_market, cli, errors, markowitz, mimicking, oracle, sampling
)


class TestKktSolve:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(81)
        worst = 0.0
        for _ in range(100):
            market, group = sampling.random_instance(rng)
            ctx = markowitz.context(market)
            closed = mimicking.solve(ctx, group)
            checked = oracle.kkt_solve(market, group)
            worst = max(
                worst, support.rel_entry_err(closed.w_star.weights, checked.weights.weights)
            )
            assert checked.residual <= 1e-8
            assert np.max(np.abs(checked.weights.weights.sum(axis=0) - 1.0)) <= 1e-8
        assert worst <= 1e-10

    def test_utility_at_oracle_matches_optimum(self):
        rng = np.random.default_rng(82)
        for _ in range(25):
            market, group = sampling.random_instance(rng, max_k=6, max_n=6)
            ctx = markowitz.context(market)
            closed = mimicking.solve(ctx, group)
            checked = oracle.kkt_solve(market, group)
            value = mimicking.penalized_utility(market, group, checked.weights)
            assert abs(value - closed.eu_star) <= 1e-10

    def test_equal_means_give_gmvp_columns(self):
        rng = np.random.default_rng(83)
        sigma = sampling.random_market(rng, 4).sigma
        market = build_market(np.full(4, 0.05), sigma)
        group = sampling.random_group(rng, 5)
        ctx = markowitz.context(market)
        checked = oracle.kkt_solve(market, group)
        for i in range(group.n):
            np.testing.assert_allclose(checked.weights.weights[:, i], ctx.gmvp, atol=1e-10)

    def test_single_investor_reduction(self):
        # one investor, no penalty: the stacked system degenerates to the
        # plain individual optimum (raw path; the group type requires n >= 2)
        rng = np.random.default_rng(84)
        for alpha in (0.5, 2.0, 7.5):
            market = sampling.random_market(rng, 5)
            a_phi = np.array([[alpha]])
            w, _, _ = oracle.solve_kkt_system(
                market.mu, market.sigma, a_phi, np.array([1.0])
            )
            expected = support.qp_individual(market.mu, market.sigma, alpha)
            np.testing.assert_allclose(w[:, 0], expected, atol=1e-10)

    def test_size_cap(self, textbook_market):
        # the cap is checked before the n x n mimicking matrix is built, so a
        # group just above it is rejected without O(n^2) memory
        rng = np.random.default_rng(85)
        assert oracle.kkt_solve(textbook_market, sampling.random_group(rng, 100)).residual <= 1e-8
        n = oracle.MAX_UNKNOWNS // (textbook_market.k + 1) + 1
        group = sampling.random_group(rng, n)
        tracemalloc.start()
        try:
            with pytest.raises(errors.SizeCapExceeded):
                oracle.kkt_solve(textbook_market, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8

    def test_exactly_singular_system_raises_singular_kkt(self, textbook_market):
        # a zero mimicking matrix leaves the KKT matrix rank-deficient
        n = 3
        with pytest.raises(errors.SingularKkt):
            oracle.solve_kkt_system(
                textbook_market.mu, textbook_market.sigma, np.zeros((n, n)), np.full(n, 1 / n)
            )

    def test_wrong_solution_raises_singular_kkt(self, textbook_market, base_group, monkeypatch):
        # the residual check, not the factorization, rejects a wrong solution
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
        with pytest.raises(errors.SingularKkt, match="exceeds"):
            oracle.kkt_solve(textbook_market, base_group)

    def test_failed_weight_check_is_singular_kkt(self):
        # a valid group whose KKT weights miss a unit column sum: the oracle's
        # failure, typed as numerical, while the closed form stays exact
        mu = (1.6355128733922608, -1.1710472518468438)
        sigma = ((5.426631210132885, 1.4624590935083914), (1.4624590935083914, 0.5352509456004865))
        alpha = (1.1218338495937625e-07, 1.1936607812265085e-06)
        beta = (0.23452292701757002, 0.7654770729824301)
        phi = (0.6637825244157214, 11.142218376608726)
        market, group = build_market(mu, sigma), build_group(alpha, beta, phi)
        with pytest.raises(errors.SingularKkt, match="KKT weights fail their checks: column 0"):
            oracle.kkt_solve(market, group)
        closed = mimicking.solve(markowitz.context(market), group).w_star.weights
        exact = np.array(support.optimum_exact(mu, sigma, alpha, beta, phi), dtype=float)
        assert support.rel_entry_err(closed, exact) <= 1e-15

    def test_factors_the_system_once(self, textbook_market, base_group, monkeypatch):
        # one LU per solve: a second factorization would double the O(N^3) work
        calls = []
        solve = np.linalg.solve

        def counting(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        oracle.kkt_solve(textbook_market, base_group)
        assert calls == [(6, 6)]

    def test_matches_exact_rationals_on_small_systems(self):
        # one factorization, unrefined, keeps the oracle near rounding level
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            market, group = sampling.random_instance(rng, 4, 4)
            exact = support.optimum_exact(
                market.mu, market.sigma, group.alpha, group.beta, group.phi
            )
            checked = oracle.kkt_solve(market, group).weights.weights
            worst = max(worst, support.rel_entry_err(checked, np.array(exact, dtype=float)))
        assert worst <= 1e-13

    def test_agrees_with_closed_form_just_under_the_cap(self):
        rng = np.random.default_rng(88)
        market = sampling.random_market(rng, 10)
        group = sampling.random_group(rng, 450)
        assert market.k * group.n + group.n == 4950 <= oracle.MAX_UNKNOWNS
        closed = mimicking.solve(markowitz.context(market), group).w_star.weights
        checked = oracle.kkt_solve(market, group).weights.weights
        assert support.rel_entry_err(closed, checked) <= cli.VERIFY_TOL

    def test_weights_and_multipliers_are_read_only(self, textbook_market, base_group):
        checked = oracle.kkt_solve(textbook_market, base_group)
        assert not checked.weights.weights.flags.writeable
        assert not checked.multipliers.flags.writeable

    def test_residual_is_reported(self, textbook_market, base_group):
        checked = oracle.kkt_solve(textbook_market, base_group)
        assert np.isfinite(checked.residual)
        assert checked.residual >= 0.0


class TestAssembly:
    def test_kkt_system_equals_kronecker_build(self):
        rng = np.random.default_rng(86)
        shapes = [(k, n) for k in range(1, 7) for n in range(1, 7)]
        for k, n in shapes + [tuple(rng.integers(1, 7, 2)) for _ in range(64)]:
            mu = rng.standard_normal(k)
            sigma = rng.standard_normal((k, k))
            a_phi = rng.standard_normal((n, n))
            beta = rng.random(n)
            kkt, rhs = oracle._kkt_system(mu, sigma, a_phi, beta)
            expected_kkt, expected_rhs = support.kkt_by_kron(mu, sigma, a_phi, beta)
            assert np.array_equal(kkt, expected_kkt), (k, n)
            assert np.array_equal(rhs, expected_rhs), (k, n)

    def test_entrywise_matrix_matches_loop_within_one_ulp(self):
        rng = np.random.default_rng(87)
        for _ in range(200):
            group = sampling.random_group(rng, int(rng.integers(2, 20)))
            a = oracle.entrywise_mimicking_matrix(group.alpha, group.beta, group.phi)
            expected = support.entrywise_by_loop(group.alpha, group.beta, group.phi)
            assert np.all(np.abs(a - expected) <= np.spacing(np.abs(expected)))


class TestLambdaClosedForm:
    def test_textbook_zero_penalty_values(self, textbook_ctx, textbook_market):
        group = build_group((2.0, 4.0), (0.5, 0.5), (0.0, 0.0))
        lam = support.lambda_closed_form(textbook_ctx, group)
        np.testing.assert_allclose(lam, [-2111 / 70000, -1247 / 70000], rtol=1e-12)
        checked = oracle.kkt_solve(textbook_market, group)
        np.testing.assert_allclose(lam, checked.multipliers, atol=1e-9)

    def test_matches_kkt_multipliers(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            market, group = sampling.random_instance(rng)
            ctx = markowitz.context(market)
            lam = support.lambda_closed_form(ctx, group)
            checked = oracle.kkt_solve(market, group)
            np.testing.assert_allclose(lam, checked.multipliers, atol=1e-9)

    def test_equal_means_symbolic_form(self):
        rng = np.random.default_rng(92)
        c = 0.04
        market = build_market(np.full(3, c), sampling.random_market(rng, 3).sigma)
        group = sampling.random_group(rng, 4)
        ctx = markowitz.context(market)
        a = oracle.entrywise_mimicking_matrix(group.alpha, group.beta, group.phi)
        a_phi = (a + a.T) / 2
        expected = ctx.v_gmv * (a_phi @ np.ones(4)) - c * group.beta
        np.testing.assert_allclose(
            support.lambda_closed_form(ctx, group), expected, atol=1e-12
        )


def test_oracle_module_stays_independent():
    # the verification path must not lean on the solvers it checks
    probe = (
        "import sys; import mimicfund.oracle; "
        "bad = [m for m in ('mimicfund.mimicking', 'mimicfund.markowitz') if m in sys.modules]; "
        "sys.exit(1 if bad else 0)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    # nor import them anywhere in its source, a TYPE_CHECKING block included
    solvers = {"markowitz", "mimicking"}
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert not imported & solvers

"""Acceptance gate: the project's numbered quality criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s``).  The
criteria and their tolerances are fixed; see README for the checklist.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import support

from mimicfund import (
    InvestorGroup, MarketModel, PortfolioMatrix, errors, markowitz, mimicking, oracle, sampling,
)
from mimicfund.study import STUDY_BETA, StudyConfig, run_sweeps

SEED = 1729


def report(tag, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="module")
def oracle_sweep():
    """500 seeded random instances solved by both paths (criteria 1 and 4)."""
    rng = np.random.default_rng(SEED)
    rows = []
    worst = 0.0
    start = time.perf_counter()
    for _ in range(500):
        market, group = sampling.random_instance(rng, max_k=10, max_n=10)
        ctx = markowitz.context(market)
        solution = mimicking.solve(ctx, group)
        checked = oracle.kkt_solve(market, group)
        worst = max(
            worst, support.rel_entry_err(solution.w_star.weights, checked.weights.weights)
        )
        rows.append((market, group, ctx, solution, checked))
    elapsed = time.perf_counter() - start
    return rows, worst, elapsed


def test_criterion_1_closed_form_matches_kkt_oracle(oracle_sweep):
    rows, worst, elapsed = oracle_sweep
    ok = worst <= 1e-10 and elapsed < 30.0
    report("1 closed form vs KKT oracle", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s, {len(rows)} instances")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_2_trace_form_matches_direct_sum():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(200):
        market, group = sampling.random_instance(rng, max_k=10, max_n=10)
        w = support.unit_sum_columns(rng, market.k, group.n)
        trace_form = mimicking.penalized_utility(market, group, PortfolioMatrix(w))
        direct = support.penalized_direct(
            market.mu, market.sigma, group.alpha, group.beta, group.phi, w
        )
        worst = max(worst, abs(trace_form - direct) / max(1.0, abs(trace_form), abs(direct)))
    report("2 trace form vs direct penalized sum", worst <= 1e-12, f"max rel err {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_3_mimicking_matrix_positive_definite():
    rng = np.random.default_rng(SEED + 2)
    textbook = MarketModel(**support.TEXTBOOK_MARKET)
    ctx = markowitz.context(textbook)
    failures = 0
    for _ in range(1000):
        group = InvestorGroup(*support.group_draws(rng, int(rng.integers(2, 51)), alpha_low=1e-3))
        a = oracle.entrywise_mimicking_matrix(group)
        try:
            np.linalg.cholesky((a + a.T) / 2.0)
            mimicking.solve(ctx, group)
        except (np.linalg.LinAlgError, errors.NumericalBreakdown):
            failures += 1
    report("3 symmetrized mimicking matrix PD", failures == 0, f"{failures} failures in 1000 groups")
    assert failures == 0


def test_criterion_4_unit_sums_and_annihilation(oracle_sweep):
    rows, _, _ = oracle_sweep
    worst_sum = 0.0
    worst_tilt = 0.0
    for _, group, ctx, solution, checked in rows:
        columns = [ctx.gmvp, solution.fund_weights]
        columns.extend(solution.w_star.weights.T)
        columns.extend(checked.weights.weights.T)
        columns.append(markowitz.fund_aggregate(ctx, group)[0])
        columns.append(markowitz.frontier(ctx, 1.0 / float(group.alpha[0]))[0])
        for column in columns:
            worst_sum = max(worst_sum, abs(float(np.sum(column)) - 1.0))
        worst_tilt = max(worst_tilt, abs(float(np.sum(ctx.tilt))) / np.max(np.abs(ctx.tilt)))
    ok = worst_sum <= 1e-10 and worst_tilt <= 1e-10
    report("4 unit sums and 1'tilt = 0", ok, f"worst sum dev {worst_sum:.2e}, worst tilt sum {worst_tilt:.2e}")
    assert worst_sum <= 1e-10
    assert worst_tilt <= 1e-10


def test_criterion_5_special_case_suite():
    rng = np.random.default_rng(SEED + 3)

    # (a) uniform wealth: scaled matrix identity and identical fund weights
    worst_scale = 0.0
    worst_fund = 0.0
    for _ in range(100):
        market = sampling.random_market(rng, int(rng.integers(2, 8)))
        ctx = markowitz.context(market)
        n = int(rng.integers(2, 11))
        group = InvestorGroup(*support.group_draws(rng, n, uniform_wealth=True))
        scaled = support.equal_wealth_matrix(group.alpha, group.phi)
        general = oracle.entrywise_mimicking_matrix(group)
        worst_scale = max(worst_scale, support.rel_entry_err(scaled, n * n * general))
        scaled_sym = (scaled + scaled.T) / 2
        tau = float(np.ones(n) @ np.linalg.solve(scaled_sym, np.ones(n)))
        fund = ctx.gmvp + tau * ctx.tilt
        worst_fund = max(
            worst_fund,
            float(np.max(np.abs(fund - mimicking.solve(ctx, group).fund_weights))),
        )
    assert worst_scale <= 1e-12
    assert worst_fund <= 1e-10

    # (b) equal mimicking coefficients: entrywise closed form
    worst_equal = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        phi = float(rng.uniform(0, 20))
        group = InvestorGroup(
            rng.uniform(0.1, 20, n), rng.dirichlet(np.ones(n)), np.full(n, phi)
        )
        expected = np.diag((group.alpha + phi) * group.beta) - phi * np.outer(
            group.beta, group.beta
        )
        a = oracle.entrywise_mimicking_matrix(group)
        worst_equal = max(worst_equal, support.rel_entry_err(a, expected))
    assert worst_equal <= 1e-12

    # (c) equal risk aversion and equal penalty: classical fund composition
    worst_classical = 0.0
    for _ in range(100):
        market = sampling.random_market(rng, int(rng.integers(2, 8)))
        ctx = markowitz.context(market)
        n = int(rng.integers(2, 11))
        group = InvestorGroup(
            np.full(n, rng.uniform(0.1, 20)),
            rng.dirichlet(np.ones(n)),
            np.full(n, rng.uniform(0, 20)),
        )
        base, _, _ = markowitz.fund_aggregate(ctx, group)
        w = mimicking.solve(ctx, group).w_star.weights
        worst_classical = max(worst_classical, float(np.max(np.abs(w - base[:, None]))))
    assert worst_classical <= 1e-12

    report(
        "5 special-case suite",
        True,
        f"scale {worst_scale:.2e}, fund {worst_fund:.2e}, "
        f"equal-phi {worst_equal:.2e}, classical {worst_classical:.2e}",
    )


@pytest.fixture(scope="module")
def large_group_sweep():
    """50 random uniform-wealth groups with n = 1000 (criteria 6a and 6b)."""
    rng = np.random.default_rng(SEED + 4)
    textbook = MarketModel(**support.TEXTBOOK_MARKET)
    ctx = markowitz.context(textbook)
    rows = []
    for _ in range(50):
        group = InvestorGroup(*support.group_draws(rng, 1000, uniform_wealth=True))
        a = oracle.entrywise_mimicking_matrix(group)
        a_phi = (a + a.T) / 2.0
        tau = float(group.beta @ np.linalg.solve(a_phi, group.beta))
        diagnostics = mimicking.asymptotic_alpha(group)
        alpha_star = mimicking.solve(ctx, group).alpha_star_f
        rows.append((tau, diagnostics, alpha_star))
    return rows


def test_criterion_6a_large_group_limit_agreement(large_group_sweep):
    worst = 0.0
    for tau, diagnostics, _ in large_group_sweep:
        exact = diagnostics.exact_inverse
        worst = max(worst, abs(tau - exact) / max(abs(tau), abs(exact)))
    ok = worst <= 1e-3
    report(
        "6a large-group limit agreement",
        ok,
        f"max rel deviation from exact_inverse {worst:.2e} vs tolerance 1e-3",
    )
    assert worst <= 1e-3


def test_criterion_6b_risk_aversion_ordering(large_group_sweep):
    slack = 1e-9
    ok = True
    for tau, diagnostics, alpha_star in large_group_sweep:
        ok = ok and diagnostics.classical <= alpha_star + slack
        ok = ok and alpha_star <= diagnostics.upper + slack
        ok = ok and abs(alpha_star - 1.0 / tau) <= 1e-9 * alpha_star
    report("6b aggregate risk-aversion ordering", ok, "classical <= mimicking <= mean(alpha)+mean(phi)")
    assert ok


def test_criterion_7_study_reproduction():
    figure1, figure2 = run_sweeps(StudyConfig())
    textbook = StudyConfig().market
    ctx = markowitz.context(textbook)

    # (a) zero gain at phi = 0 and at a = 1 on every equal-phi series
    boundary = [figure2.records[start].delta_eu for start in range(0, 303, 101)]
    boundary += [figure1.records[start].delta_eu for start in range(0, 303, 101)]
    assert all(abs(v) <= 1e-12 for v in boundary)

    # (b) gains non-decreasing along every series
    for table in (figure1, figure2):
        for start in range(0, 303, 101):
            gains = [r.delta_eu for r in table.records[start : start + 101]]
            assert np.min(np.diff(gains)) >= -1e-12

    # (c) gain threshold at a = 5, phi = 5
    gain_5_5 = next(
        r.delta_eu for r in figure2.records if r.series == "a=5" and r.coordinate == 5.0
    )
    assert gain_5_5 >= 0.10

    # (d) weight-shift thresholds on the phi = 3 series
    def shift(a):
        group = InvestorGroup((2.0, 2.0 * a), STUDY_BETA, (3.0, 3.0))
        solution = mimicking.solve(ctx, group)
        base, _, _ = markowitz.fund_aggregate(ctx, group)
        return float(solution.fund_weights[0] - base[0])

    shift_5 = shift(5.0)
    shift_6 = shift(6.0)
    assert shift_5 >= 0.095
    assert shift_6 >= 0.10

    report(
        "7 study reproduction",
        True,
        f"gain(5,5)={gain_5_5:.4f}, shift(a=5)={shift_5:.4f}, shift(a=6)={shift_6:.4f}, monotone",
    )


def test_criterion_8_spot_values_confirmed_then_frozen():
    market = MarketModel(**support.TEXTBOOK_MARKET)
    ctx = markowitz.context(market)
    group = InvestorGroup(**support.TEXTBOOK_GROUP)

    # independent confirmations first
    gmvp_oracle = support.qp_gmvp(market.sigma)
    tilt_oracle = support.qp_individual(market.mu, market.sigma, 1.0) - gmvp_oracle
    stacked = support.classical_stacked(market.mu, market.sigma, group.alpha, group.beta)
    fund_oracle = stacked @ group.beta
    checked = oracle.kkt_solve(market, group)
    fund_mimicking_oracle = checked.weights.weights @ group.beta
    tau_oracle = float((fund_mimicking_oracle - gmvp_oracle)[1] / tilt_oracle[1])

    np.testing.assert_allclose(ctx.gmvp, gmvp_oracle, atol=1e-12)
    np.testing.assert_allclose(ctx.tilt, tilt_oracle, atol=1e-10)
    base, alpha_f, _ = markowitz.fund_aggregate(ctx, group)
    np.testing.assert_allclose(base, fund_oracle, atol=1e-12)
    solution = mimicking.solve(ctx, group)
    assert solution.alpha_star_f == pytest.approx(1.0 / tau_oracle, rel=1e-10)

    # frozen golden values, tolerance 1e-9
    assert alpha_f == pytest.approx(8 / 3, abs=1e-9)
    assert solution.alpha_star_f == pytest.approx(17 / 6, abs=1e-9)
    np.testing.assert_allclose(ctx.gmvp, [11 / 14, 3 / 14], atol=1e-9)
    assert ctx.mu_gmv == pytest.approx(0.085, abs=1e-9)
    np.testing.assert_allclose(ctx.tilt, [-1.5625, 1.5625], atol=1e-9)

    report("8 spot values", True, "alpha_f=8/3, alpha_star_f=17/6, GMVP, tilt all oracle-confirmed")


GOLDEN_STUDY = Path(__file__).resolve().parent / "golden" / "study-default"


def file_bytes(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("command", ["verify", "solve-config", "solve-returns", "estimate", "study"])
def test_criterion_9_determinism(command, tmp_path, returns_csv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(support.TEXTBOOK_CONFIG), encoding="utf-8")
    group = tmp_path / "group.json"
    group.write_text(json.dumps(support.TEXTBOOK_GROUP), encoding="utf-8")
    returns = ["--returns", str(returns_csv), "--annualize", "12"]
    argv = {
        "verify": ["verify", "--count", "25", "--max-k", "5", "--max-n", "5", "--seed", "11"],
        "solve-config": ["solve", "--config", str(config)],
        "solve-returns": ["solve", "--config", str(group), *returns],
        "estimate": ["estimate", *returns],
        "study": ["study", "--output-dir", str(tmp_path / "study")],
    }[command]

    def run():
        # a fresh interpreter each time, with the manifest timestamp pinned
        result = subprocess.run(
            [sys.executable, "-m", "mimicfund", *argv],
            capture_output=True,
            env={**os.environ, "SOURCE_DATE_EPOCH": "0"},
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    if command == "study":
        run()
        same = file_bytes(tmp_path / "study") == file_bytes(GOLDEN_STUDY)
        detail = "CSVs and manifests are the bytes of tests/golden/study-default"
    else:
        same = run() == run()
        detail = "two runs print the same stdout bytes"
    report(f"9 determinism of {command}", same, detail)
    assert same

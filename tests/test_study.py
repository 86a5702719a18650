from fractions import Fraction

import numpy as np
import pytest
import support

from mimicfund import (
    build_group, build_market, errors, markowitz, mimicking, model, oracle, sampling,
)
from mimicfund.study import (
    DEFAULT_MARKET,
    STUDY_BETA,
    StudyConfig,
    SweepRecord,
    _frontier_gains,
    run_sweeps,
)


def study_group(a, phi, alpha1=2.0):
    return build_group((alpha1, a * alpha1), STUDY_BETA, (phi, phi))


def delta_omega(ctx, group):
    """The study's first-asset fund-weight change of one group."""
    return _frontier_gains(ctx, group.alpha, group.beta, group.phi)[0].item()


def delta_eu(market, group):
    """The study's relative utility gain of one group, with every check of a grid point."""
    _, d_eu, faults = _frontier_gains(markowitz.context(market), group.alpha, group.beta, group.phi)
    model._raise_first_fault(faults)
    return d_eu.item()


def per_group_gains(market, group):
    """delta_omega and delta_eu by their definition, one group at a time.

    The optimum and its utility come from ``mimicking.solve``; the baseline
    evaluates ``penalized_utility`` at the matrix of penalty-free optima.
    """
    ctx = markowitz.context(market)
    solution = mimicking.solve(ctx, group)
    base_weights, _, _ = markowitz.fund_aggregate(ctx, group)
    d_omega = float(solution.fund_weights[0] - base_weights[0])
    classical = np.column_stack([markowitz.frontier(ctx, 1.0 / a)[0] for a in group.alpha])
    baseline = mimicking.penalized_utility(market, group, classical)
    gain = solution.eu_star - baseline
    if abs(gain) <= 1e-13 * max(1.0, abs(solution.eu_star)):
        gain = 0.0
    return d_omega, gain / solution.eu_star, solution.eu_star


def sweep_inputs(config):
    """(phi_1, a) of every point of both sweeps, in output order."""
    a_grid = np.linspace(config.a_range[0], config.a_range[1], config.grid_points)
    phi_grid = np.linspace(config.phi_range[0], config.phi_range[1], config.grid_points)
    return [(p, a) for p in config.phi_set for a in a_grid] + [
        (p, a) for a in config.a_set for p in phi_grid
    ]


def random_configs():
    """Three seeded non-default grids, one per ``phi_ratio`` of 0, 0.5 and 2."""
    rng = np.random.default_rng(72)
    for phi_ratio in (0.0, 0.5, 2.0):
        a_low = float(rng.uniform(1.0, 2.0))
        yield StudyConfig(
            alpha1=float(rng.uniform(1.0, 2.5)),
            phi_set=tuple(float(p) for p in rng.uniform(0.0, 8.0, 2)),
            a_set=tuple(float(a) for a in rng.uniform(1.0, 6.0, 3)),
            a_range=(a_low, a_low + float(rng.uniform(1.0, 6.0))),
            phi_range=(0.0, float(rng.uniform(1.0, 6.0))),
            grid_points=7,
            phi_ratio=phi_ratio,
        )


def config_group(config, phi1, a):
    return build_group(
        (config.alpha1, a * config.alpha1), STUDY_BETA, (phi1, phi1 * config.phi_ratio)
    )


def exact_gains(mu, sigma, alpha, beta, phi):
    """delta_omega and delta_eu of a two-asset, two-investor point in rationals.

    Every input is a ``Fraction``.  The symmetrized mimicking matrix is built
    entry by entry and inverted exactly; both utilities are trace forms
    ``beta' W' mu - tr(a_phi W' sigma W) / 2``.
    """

    def inverse(m):
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        return [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]]

    sigma_inv = inverse(sigma)
    row_sums = [sum(row) for row in sigma_inv]
    total = sum(row_sums)
    gmvp = [x / total for x in row_sums]
    q = [[sigma_inv[i][j] - row_sums[i] * row_sums[j] / total for j in range(2)] for i in range(2)]
    tilt = [q[i][0] * mu[0] + q[i][1] * mu[1] for i in range(2)]

    phi_bar = beta[0] * phi[0] + beta[1] * phi[1]
    raw = [[beta[i] * beta[j] * (phi_bar - 2 * phi[i]) for j in range(2)] for i in range(2)]
    for i in range(2):
        raw[i][i] += beta[i] * (alpha[i] + phi[i])
    a_phi = [[(raw[i][j] + raw[j][i]) / 2 for j in range(2)] for i in range(2)]
    a_inv = inverse(a_phi)
    c_star = [a_inv[i][0] * beta[0] + a_inv[i][1] * beta[1] for i in range(2)]
    c_classical = [1 / alpha[0], 1 / alpha[1]]

    def columns(c):
        return [[gmvp[k] + c[i] * tilt[k] for k in range(2)] for i in range(2)]

    def utility(w):
        linear = sum(beta[i] * (w[i][0] * mu[0] + w[i][1] * mu[1]) for i in range(2))
        gram = [
            [sum(w[i][k] * sigma[k][m] * w[j][m] for k in range(2) for m in range(2))
             for j in range(2)]
            for i in range(2)
        ]
        return linear - sum(a_phi[i][j] * gram[j][i] for i in range(2) for j in range(2)) / 2

    def fund_first_weight(w):
        return beta[0] * w[0][0] + beta[1] * w[1][0]

    optimal, classical = columns(c_star), columns(c_classical)
    eu_star = utility(optimal)
    return (
        fund_first_weight(optimal) - fund_first_weight(classical),
        (eu_star - utility(classical)) / eu_star,
    )


class TestStudyConfig:
    def test_defaults_are_valid(self):
        cfg = StudyConfig()
        assert cfg.grid_points == 101
        assert cfg.phi_set == (3.0, 5.0, 10.0)
        assert cfg.a_set == (2.0, 5.0, 10.0)

    def test_bad_configs_rejected(self):
        with pytest.raises(errors.ConstraintViolated):
            StudyConfig(grid_points=1)
        with pytest.raises(errors.ConstraintViolated):
            StudyConfig(a_range=(5.0, 5.0))
        with pytest.raises(errors.ConstraintViolated):
            StudyConfig(a_range=(0.5, 10.0))
        with pytest.raises(errors.ConstraintViolated):
            StudyConfig(phi_range=(-1.0, 5.0))
        with pytest.raises(errors.ConstraintViolated):
            StudyConfig(a_set=(0.9,))
        with pytest.raises(errors.ConstraintViolated):
            StudyConfig(phi_set=())
        with pytest.raises(errors.NonPositiveAlpha):
            StudyConfig(alpha1=0.0)

    def test_non_numeric_fields_rejected(self):
        for bad in (
            {"grid_points": 3.5},
            {"grid_points": True},
            {"alpha1": "x"},
            {"phi_ratio": float("nan")},
            {"a_set": ("x",)},
            {"a_range": (1.0,)},
        ):
            with pytest.raises(errors.ConstraintViolated):
                StudyConfig(**bad)


class TestDeltaOmega:
    def test_frozen_textbook_values(self, textbook_ctx):
        # 75/2176 and 125/1152 by exact arithmetic on the 2x2 system
        assert delta_omega(textbook_ctx, study_group(2.0, 3.0)) == pytest.approx(
            75 / 2176, rel=1e-12
        )
        assert delta_omega(textbook_ctx, study_group(6.0, 3.0)) == pytest.approx(
            125 / 1152, rel=1e-12
        )

    def test_consistent_with_scalar_aggregation_form(self, textbook_ctx):
        tilt_first = float(textbook_ctx.tilt[0])
        for a, phi in ((1.0, 0.5), (2.0, 3.0), (5.0, 3.0), (7.5, 4.2), (10.0, 10.0)):
            group = study_group(a, phi)
            got = delta_omega(textbook_ctx, group)
            solution = mimicking.solve(textbook_ctx, group)
            _, alpha_f, _ = markowitz.fund_aggregate(textbook_ctx, group)
            scalar = (1.0 / solution.alpha_star_f - 1.0 / alpha_f) * tilt_first
            assert got == pytest.approx(scalar, abs=1e-12)

    def test_zero_penalty_changes_nothing(self, textbook_ctx):
        assert delta_omega(textbook_ctx, study_group(4.0, 0.0)) == pytest.approx(0.0, abs=1e-14)


class TestDeltaEu:
    def test_zero_penalty_gain_is_zero(self, textbook_market):
        assert delta_eu(textbook_market, study_group(3.0, 0.0)) == 0.0

    def test_equal_preferences_gain_is_zero(self, textbook_market):
        assert delta_eu(textbook_market, study_group(1.0, 4.0)) == 0.0

    def test_textbook_gain_against_independent_evaluation(self, textbook_market):
        group = study_group(5.0, 5.0)
        got = delta_eu(textbook_market, group)
        assert got >= 0.10

        mu, sigma = textbook_market.mu, textbook_market.sigma
        optimal = oracle.kkt_solve(textbook_market, group).weights.weights
        classical = np.column_stack(
            [support.qp_individual(mu, sigma, a) for a in group.alpha]
        )
        best = support.penalized_direct(mu, sigma, group.alpha, group.beta, group.phi, optimal)
        base = support.penalized_direct(mu, sigma, group.alpha, group.beta, group.phi, classical)
        assert got == pytest.approx((best - base) / best, abs=1e-10)

    def test_public_functions_match_per_group_definition(self):
        rng = np.random.default_rng(71)
        checked = rejected = 0
        for _ in range(80):
            market = sampling.random_market(rng, int(rng.integers(2, 7)))
            ctx = markowitz.context(market)
            n = int(rng.integers(2, 51))
            group = sampling.random_group(rng, n, alpha_low=0.5, phi_high=5.0)
            d_omega, d_eu, eu_star = per_group_gains(market, group)
            assert delta_omega(ctx, group) == pytest.approx(d_omega, abs=1e-12)
            if eu_star <= 0:
                rejected += 1
                with pytest.raises(errors.NonPositiveOptimum):
                    delta_eu(market, group)
            else:
                # the reference subtracts two utilities, so near eu* = 0, where
                # delta_eu grows large, it holds only about 11 digits
                checked += 1
                assert delta_eu(market, group) == pytest.approx(d_eu, rel=1e-10, abs=1e-12)
        assert checked >= 10 and rejected >= 10

    def test_non_positive_optimum_rejected(self):
        market = build_market(
            DEFAULT_MARKET.mu, 50.0 * np.asarray(DEFAULT_MARKET.sigma)
        )
        with pytest.raises(errors.NonPositiveOptimum):
            delta_eu(market, study_group(2.0, 3.0))


@pytest.fixture(scope="module")
def default_tables():
    return run_sweeps(StudyConfig())


class TestRunSweeps:
    def test_cardinality_and_labels(self, default_tables):
        figure1, figure2 = default_tables
        assert len(figure1.records) == 3 * 101
        assert len(figure2.records) == 3 * 101
        assert [r.series for r in figure1.records[:101]] == ["phi=3"] * 101
        assert {r.series for r in figure2.records} == {"a=2", "a=5", "a=10"}

    def test_coordinates_ascend_within_series(self, default_tables):
        for table in default_tables:
            for start in range(0, len(table.records), 101):
                coords = [r.coordinate for r in table.records[start : start + 101]]
                assert coords == sorted(coords)

    def test_gain_bounds_and_boundary_zeros(self, default_tables):
        figure1, figure2 = default_tables
        for table in default_tables:
            for r in table.records:
                assert 0.0 <= r.delta_eu < 1.0
        # equal-phi series start at a = 1 with zero gain; phi sweeps start at 0
        for start in range(0, len(figure1.records), 101):
            assert figure1.records[start].delta_eu == 0.0
        for start in range(0, len(figure2.records), 101):
            assert figure2.records[start].delta_eu == 0.0

    def test_gain_is_monotone_along_each_series(self, default_tables):
        for table in default_tables:
            for start in range(0, len(table.records), 101):
                gains = [r.delta_eu for r in table.records[start : start + 101]]
                assert np.min(np.diff(gains)) >= -1e-12

    def test_reruns_are_bit_identical(self, default_tables):
        figure1, figure2 = default_tables
        again1, again2 = run_sweeps(StudyConfig())
        assert again1.to_csv() == figure1.to_csv()
        assert again2.to_csv() == figure2.to_csv()

    def test_csv_format(self, default_tables):
        figure1, _ = default_tables
        lines = figure1.to_csv().splitlines()
        assert lines[0] == "series,coordinate,delta_omega,delta_eu"
        assert len(lines) == 1 + 303
        series, coord, _, _ = lines[1].split(",")
        assert series == "phi=3"
        assert float(coord) == 1.0
        for tables in (default_tables, *map(run_sweeps, random_configs())):
            for table in tables:
                text = table.to_csv()
                assert text.endswith("\n")
                assert text.splitlines()[1:] == [
                    f"{r.series},{r.coordinate:.15g},{r.delta_omega:.15g},{r.delta_eu:.15g}"
                    for r in table.records
                ]

    def test_records_are_immutable_named_fields(self, default_tables):
        record = default_tables[0].records[0]
        assert type(record) is SweepRecord
        assert type(record.series) is str and type(record.coordinate) is float
        assert SweepRecord("phi=3", 1.0, 0.25, 0.5) == SweepRecord(
            series="phi=3", coordinate=1.0, delta_omega=0.25, delta_eu=0.5
        )
        with pytest.raises(AttributeError):
            record.delta_eu = 0.0

    def test_failures_carry_the_grid_coordinate(self):
        market = build_market(
            DEFAULT_MARKET.mu, 50.0 * np.asarray(DEFAULT_MARKET.sigma)
        )
        config = StudyConfig(market=market, grid_points=2)
        with pytest.raises(errors.NonPositiveOptimum, match="coordinate"):
            run_sweeps(config)

    def test_delta_omega_is_the_solved_fund_shift_bit_for_bit(self):
        # tau and tau_cl each have one formula, so the study's shift equals
        # solve's first fund weight minus fund_aggregate's, bit for bit
        for config in (StudyConfig(), *random_configs()):
            ctx = markowitz.context(config.market)
            figure1, figure2 = run_sweeps(config)
            records = figure1.records + figure2.records
            for record, (phi1, a) in zip(records, sweep_inputs(config)):
                group = config_group(config, phi1, a)
                fund = mimicking.solve(ctx, group).fund_weights[0]
                base = markowitz.fund_aggregate(ctx, group)[0][0]
                assert float(fund - base) == record.delta_omega

    def test_records_match_per_group_definition(self):
        for config in random_configs():
            figure1, figure2 = run_sweeps(config)
            records = figure1.records + figure2.records
            points = sweep_inputs(config)
            assert len(records) == len(points)
            for record, (phi1, a) in zip(records, points):
                d_omega, d_eu, _ = per_group_gains(config.market, config_group(config, phi1, a))
                assert record.delta_omega == pytest.approx(d_omega, abs=1e-12)
                assert record.delta_eu == pytest.approx(d_eu, abs=1e-12)

    def test_default_grid_matches_exact_rational_arithmetic(self, default_tables):
        # the gain is a quadratic form in the scalar tilts, not a difference of
        # two nearly equal utilities, so it keeps its relative accuracy
        config = StudyConfig()
        mu = [Fraction(x) for x in config.market.mu.tolist()]
        sigma = [[Fraction(x) for x in row] for row in config.market.sigma.tolist()]
        beta = [Fraction(b) for b in STUDY_BETA]
        records = default_tables[0].records + default_tables[1].records
        for record, (phi1, a) in zip(records, sweep_inputs(config)):
            alpha = [Fraction(config.alpha1), Fraction(a * config.alpha1)]
            phi = [Fraction(phi1), Fraction(phi1 * config.phi_ratio)]
            d_omega, d_eu = exact_gains(mu, sigma, alpha, beta, phi)
            if d_eu == 0:
                assert record.delta_eu == 0.0
            else:
                assert abs(Fraction(record.delta_eu) - d_eu) <= Fraction(1, 10**12) * abs(d_eu)
            assert abs(Fraction(record.delta_omega) - d_omega) <= Fraction(1, 10**14)

    def test_overflowing_penalty_names_the_point(self):
        # phi_2 = phi_1 * 1e308 overflows on the first point of the first series
        config = StudyConfig(phi_ratio=1e308, grid_points=3)
        with pytest.raises(errors.NonFiniteValue, match=r"^series phi=3, coordinate 1: phi contains"):
            run_sweeps(config)

    def test_non_positive_optimum_names_the_first_failing_point(self):
        # a riskier market turns the optimum negative part-way along phi = 3
        market = build_market(DEFAULT_MARKET.mu, 3.0 * np.asarray(DEFAULT_MARKET.sigma))
        config = StudyConfig(market=market)
        ctx = markowitz.context(market)
        first = next(
            (phi1, a)
            for phi1, a in sweep_inputs(config)
            if mimicking.solve(ctx, config_group(config, phi1, a)).eu_star <= 0
        )
        assert first[0] == 3.0 and first[1] > config.a_range[0]
        with pytest.raises(errors.NonPositiveOptimum) as caught:
            run_sweeps(config)
        assert str(caught.value).startswith(f"series phi=3, coordinate {first[1]:g}: ")

    def test_heterogeneous_penalties_via_ratio(self, textbook_market):
        config = StudyConfig(grid_points=3, phi_ratio=0.5)
        figure1, figure2 = run_sweeps(config)
        assert len(figure1.records) == 9
        # the a = 1 boundary no longer has equal preferences, so gains may be positive
        assert all(r.delta_eu >= 0 for r in figure1.records)

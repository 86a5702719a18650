import numpy as np
import pytest
import support

from mimicfund import build_group, build_market, errors, markowitz, mimicking, oracle
from mimicfund.study import (
    DEFAULT_MARKET,
    STUDY_BETA,
    StudyConfig,
    delta_eu,
    delta_omega,
    run_sweeps,
)


def study_group(a, phi, alpha1=2.0):
    return build_group((alpha1, a * alpha1), STUDY_BETA, (phi, phi))


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
        tilt_first = float((textbook_ctx.q @ textbook_ctx.market.mu)[0])
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
        text = figure1.to_csv()
        lines = text.splitlines()
        assert lines[0] == "series,coordinate,delta_omega,delta_eu"
        assert len(lines) == 1 + 303
        series, coord, d_omega, d_eu = lines[1].split(",")
        assert series == "phi=3"
        assert float(coord) == 1.0
        record = figure1.records[0]
        assert d_omega == f"{record.delta_omega:.15g}"
        assert d_eu == f"{record.delta_eu:.15g}"

    def test_failures_carry_the_grid_coordinate(self):
        market = build_market(
            DEFAULT_MARKET.mu, 50.0 * np.asarray(DEFAULT_MARKET.sigma)
        )
        config = StudyConfig(market=market, grid_points=2)
        with pytest.raises(errors.NonPositiveOptimum, match="coordinate"):
            run_sweeps(config)

    def test_heterogeneous_penalties_via_ratio(self, textbook_market):
        config = StudyConfig(grid_points=3, phi_ratio=0.5)
        figure1, figure2 = run_sweeps(config)
        assert len(figure1.records) == 9
        # the a = 1 boundary no longer has equal preferences, so gains may be positive
        assert all(r.delta_eu >= 0 for r in figure1.records)

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import support
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicfund import (
    InvestorGroup, MarketModel, PortfolioMatrix, errors, markowitz, mimicking, oracle, sampling,
)
from mimicfund.study import (
    DEFAULT_MARKET,
    STUDY_BETA,
    StudyConfig,
    SweepRecord,
    SweepTable,
    _check_gains,
    _frontier_gains,
    run_sweeps,
)


# near the top of the float range (1.798e308)
HUGE = 1.7e308


def study_group(a, phi, alpha1=2.0):
    return InvestorGroup((alpha1, a * alpha1), STUDY_BETA, (phi, phi))


def delta_omega(ctx, group):
    """The study's first-asset fund-weight change of one group."""
    return _frontier_gains(ctx, group.alpha, group.beta, group.phi)[0].item()


def delta_eu(market, group):
    """The study's relative utility gain of one group, with every check of a grid point."""
    gains = _frontier_gains(markowitz.context(market), group.alpha, group.beta, group.phi)
    _check_gains(*gains, lambda point: "")
    return gains[1].item()


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
    baseline = mimicking.penalized_utility(market, group, PortfolioMatrix(classical))
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
    return InvestorGroup(
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
        with pytest.raises(errors.ConstraintViolated, match=r"^phi_ratio must be >= 0, got -1\.0$"):
            StudyConfig(phi_ratio=-1.0)

    def test_non_numeric_fields_rejected(self):
        for bad, error in (
            ({"grid_points": 3.5}, errors.ConstraintViolated),
            ({"grid_points": True}, errors.ConstraintViolated),
            ({"alpha1": "x"}, errors.ParseError),
            ({"phi_ratio": float("nan")}, errors.NonFiniteValue),
            ({"a_set": ("x",)}, errors.ParseError),
            ({"a_range": (1.0,)}, errors.ConstraintViolated),
        ):
            with pytest.raises(error):
                StudyConfig(**bad)

    def test_malformed_fields_raise_typed_errors(self):
        for bad, error in (
            ({"a_set": 5}, errors.DimensionMismatch),
            ({"phi_set": None}, errors.DimensionMismatch),
            ({"a_range": 3.0}, errors.DimensionMismatch),
            ({"market": "x"}, errors.ConstraintViolated),
            ({"alpha1": "x"}, errors.ParseError),
            ({"phi_ratio": float("nan")}, errors.NonFiniteValue),
            ({"alpha1": 10**400}, errors.ParseError),
            # its point count would have more digits than str() may print
            ({"grid_points": int("9" * 4300)}, errors.ParseError),
            # values past the 4300-digit str limit raise what small ones raise
            ({"grid_points": -10**4301}, errors.ConstraintViolated),
            ({"market": 10**4301}, errors.ConstraintViolated),
        ):
            with pytest.raises(error):
                StudyConfig(**bad)

    def test_integer_beyond_the_float_range_rejected(self):
        with pytest.raises(errors.ParseError, match="alpha1 is not an array of numbers"):
            StudyConfig(alpha1=10**400)
        assert StudyConfig(alpha1=10**20).alpha1 == 10**20

    def test_rejected_value_is_shown_truncated(self):
        deep = 2.0
        for _ in range(900):
            deep = [deep]
        for bad in ({"alpha1": 10**400}, {"phi_set": (deep,)}, {"a_set": ("x" * 500,)},
                    {"alpha1": 10**4301}, {"grid_points": 10**4301}):
            with pytest.raises(errors.ParseError, match="is not an array of numbers") as info:
                StudyConfig(**bad)
            assert len(str(info.value)) <= 80

    def test_point_cap_is_checked_before_allocating(self):
        tracemalloc.start()
        try:
            # README's cap, as literals: 5 series of 200,000 points are accepted,
            # 6 of 166,667 (1,000,002 points) are not
            assert StudyConfig(grid_points=200_000, phi_set=(1.0, 2.0)).grid_points == 200_000
            with pytest.raises(errors.ConstraintViolated, match="1000002 points"):
                StudyConfig(grid_points=166_667)
            with pytest.raises(errors.ConstraintViolated, match="60000000000000 points"):
                StudyConfig(grid_points=10**13)
            with pytest.raises(errors.ConstraintViolated, match="points"):
                StudyConfig(grid_points=np.int64(2**62))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "fields",
        [{"phi_ratio": 1e308}, {"alpha1": 1e300, "a_set": (1e10,)}],
        ids=["phi_ratio", "alpha1"],
    )
    def test_overflowing_grid_is_rejected_by_the_config(self, fields):
        # phi_2 = phi_1 phi_ratio or alpha_2 = a alpha1 leaves the float range
        # at some point; the constructor names the field
        name = next(iter(fields))
        with pytest.raises(errors.NonFiniteValue, match=f"^{name} .* beyond the float range"):
            StudyConfig(grid_points=3, **fields)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        alpha1=st.one_of(st.floats(0.1, 10), st.floats(0, HUGE, exclude_min=True)),
        phi_ratio=st.one_of(st.floats(0, 2), st.floats(0, 1e308)),
        phi_set=st.lists(st.floats(0, HUGE), min_size=1, max_size=3),
        a_set=st.lists(st.floats(1, HUGE), min_size=1, max_size=3),
        a_range=st.lists(st.floats(1, HUGE), min_size=2, max_size=2, unique=True).map(sorted),
        phi_range=st.lists(st.floats(0, HUGE), min_size=2, max_size=2, unique=True).map(sorted),
        grid_points=st.integers(2, 5),
    )
    def test_every_point_of_a_config_is_a_valid_group(self, **fields):
        # what lets run_sweeps skip the group rules: a config that constructs
        # makes a valid group of every point, with no overflow on the way
        try:
            config = StudyConfig(**fields)
        except errors.NonFiniteValue:
            return
        for phi1, a in sweep_inputs(config):
            config_group(config, phi1, a)


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

    @pytest.mark.parametrize("alpha2, clamped", [(2.0000067462, True), (2.0000095406, False)])
    def test_gain_clamp_is_pinned(self, textbook_ctx, alpha2, clamped):
        # gains at 0.7 and 1.4 times the clamp 1e-13 max(1, |eu*|), found by
        # bisection on alpha2 / alpha1 with phi = 3: a clamp twice or half as
        # large misjudges one of them
        alpha, beta, phi = np.array([2.0, alpha2]), np.array(STUDY_BETA), np.array([3.0, 3.0])
        _, d_eu, eu_star = (x.item() for x in _frontier_gains(textbook_ctx, alpha, beta, phi))
        if clamped:
            assert d_eu == 0.0
        else:
            gain = d_eu * eu_star
            assert gain == pytest.approx(1.4e-13 * max(1.0, eu_star), rel=1e-4, abs=0)

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
            # random_group's draws with alpha >= 0.5 and phi <= 5
            alpha = rng.uniform(0.5, sampling.ALPHA_HIGH, n)
            phi = rng.uniform(0.0, 5.0, n)
            group = InvestorGroup(alpha, rng.dirichlet(np.ones(n)), phi)
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
        market = MarketModel(
            DEFAULT_MARKET.mu, 50.0 * np.asarray(DEFAULT_MARKET.sigma)
        )
        with pytest.raises(errors.NonPositiveOptimum):
            delta_eu(market, study_group(2.0, 3.0))


@pytest.fixture(scope="module")
def default_tables():
    return run_sweeps(StudyConfig())


class TestRunSweeps:
    @pytest.mark.parametrize(
        "fields, label",
        [({"phi_set": (3.0, 3.0000001)}, "phi=3"), ({"phi_set": (3, 3.0)}, "phi=3"),
         ({"a_set": (2.0, 5.0, 2.0)}, "a=2")],
    )
    def test_repeated_series_label_is_rejected(self, fields, label):
        # two series under one label would read as one series in the CSV
        with pytest.raises(errors.ConstraintViolated, match=f"^series label '{label}' repeats"):
            run_sweeps(StudyConfig(grid_points=2, **fields))
        # a phi series and an a series never share a label
        assert len(run_sweeps(StudyConfig(phi_set=(2.0,), a_set=(2.0,), grid_points=2))[0]) == 2

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
        edge_configs = (
            StudyConfig(phi_range=(-0.0, 5.0)),  # linspace writes its start as 0
            StudyConfig(phi_set=(-0.0,), grid_points=3),  # the label phi=-0
            StudyConfig(grid_points=2),
            StudyConfig(phi_set=(4.0,), a_set=(3.0,)),
            # e * e overflows below alpha1 ~ 1e-154; here results reach 1e+150
            StudyConfig(alpha1=1e-150, grid_points=5),
        )
        # a hand-built table: -0, a subnormal, extreme exponents, % in the labels
        special = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -2.5e-7, 0.1]
        hand_built = SweepTable(
            ("x=100%", "%s%%d"),
            *(np.array([special, special[::-1]]) * s for s in (1.0, -1.0, 0.5)),
        )
        tables = [*default_tables, hand_built]
        for config in (*random_configs(), *edge_configs):
            tables += run_sweeps(config)
        assert "e+150\n" in tables[-1].to_csv()
        assert hand_built.to_csv().splitlines()[1] == "x=100%,-0,0,-0"
        for table in tables:
            text = table.to_csv()
            assert text.endswith("\n")
            assert text.splitlines() == [table.CSV_HEADER] + [
                f"{r.series},{r.coordinate:.15g},{r.delta_omega:.15g},{r.delta_eu:.15g}"
                for r in table.records
            ]

    def test_columns_are_read_only_and_rows_are_records(self, default_tables):
        figure1, figure2 = default_tables
        for table in default_tables:
            assert len(table) == len(table.records) == 303
            for column in (table.coordinate, table.delta_omega, table.delta_eu):
                assert column.shape == (3, 101)
                with pytest.raises(ValueError):
                    column[0, 0] = 1.0
        records = figure1.records + figure2.records
        assert type(records) is tuple
        assert all(type(r) is SweepRecord for r in records)

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
        market = MarketModel(
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

    def test_investor_major_stack_matches_c_ordered_evaluation(self):
        # run_sweeps reduces over investors along a strided axis; the same
        # stack in C order takes numpy's per-point pairwise reduction, and
        # for two investors both orders add the same two terms
        for config in (StudyConfig(), *random_configs()):
            points = sweep_inputs(config)
            alpha = np.ascontiguousarray([(config.alpha1, a * config.alpha1) for _, a in points])
            phi = np.ascontiguousarray([(p, p * config.phi_ratio) for p, _ in points])
            beta = np.ascontiguousarray(np.broadcast_to(STUDY_BETA, alpha.shape))
            d_omega, d_eu, _ = _frontier_gains(markowitz.context(config.market), alpha, beta, phi)
            figure1, figure2 = run_sweeps(config)
            records = figure1.records + figure2.records
            assert np.array([r.delta_omega for r in records]).tobytes() == d_omega.ravel().tobytes()
            assert np.array([r.delta_eu for r in records]).tobytes() == d_eu.ravel().tobytes()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(-500, 500),
        alpha1=st.floats(1e-3, 10),
        phi_ratio=st.floats(0, 10),
        phi_set=st.lists(st.floats(0, 1e3), min_size=1, max_size=3),
        a_set=st.lists(st.floats(1, 100), min_size=1, max_size=3),
        a_range=st.lists(st.floats(1, 100), min_size=2, max_size=2, unique=True).map(sorted),
        phi_range=st.lists(st.floats(0, 1e3), min_size=2, max_size=2, unique=True).map(sorted),
        grid_points=st.integers(2, 5),
    )
    def test_gain_is_never_negative(self, seed, j, **fields):
        # what lets the study go without a negative-gain check: wherever
        # delta_eu is finite and the optimum positive, delta_eu >= 0; the
        # market is scaled by 4^j, with positive means so most optima are
        market = sampling.random_market(np.random.default_rng(seed), 2)
        try:
            scaled = MarketModel(4.0**j * abs(market.mu), 4.0**j * market.sigma)
            config = StudyConfig(market=scaled, **fields)
            ctx = markowitz.context(scaled)
        except (errors.ValidationError, errors.NumericalBreakdown):
            return
        points = sweep_inputs(config)
        alpha = np.array([(config.alpha1, a * config.alpha1) for _, a in points])
        phi = np.array([(p, p * config.phi_ratio) for p, _ in points])
        beta = np.broadcast_to(STUDY_BETA, alpha.shape)
        _, d_eu, eu_star = _frontier_gains(ctx, alpha, beta, phi)
        with np.errstate(invalid="ignore"):
            reported = np.isfinite(d_eu) & (eu_star > 0)
        assert (d_eu[reported] >= 0).all()

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

    def test_non_positive_optimum_names_the_first_failing_point(self):
        # a riskier market turns the optimum negative part-way along phi = 3
        market = MarketModel(DEFAULT_MARKET.mu, 3.0 * np.asarray(DEFAULT_MARKET.sigma))
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

    def test_failure_in_the_second_table_names_its_series(self):
        # the flat index of a figure 2 point maps to a figure 2 label
        with pytest.raises(errors.NonPositiveOptimum) as caught:
            run_sweeps(StudyConfig(a_set=(2.0, 1e6)))
        assert str(caught.value).startswith("series a=1e+06, coordinate 0: ")

    def test_overflowing_alpha_plus_phi_is_numerical(self):
        # alpha + phi overflows, so _optimum makes tau NaN and the gain check
        # names the point
        config = StudyConfig(
            alpha1=1e308, phi_set=(1e308,), a_set=(1.0,), a_range=(1.0, 1.5), phi_range=(0.0, 1.0)
        )
        with pytest.raises(errors.NumericalBreakdown) as caught:
            run_sweeps(config)
        assert str(caught.value).startswith("series phi=1e+308, coordinate 1: delta_omega is nan")

    def test_heterogeneous_penalties_via_ratio(self, textbook_market):
        config = StudyConfig(grid_points=3, phi_ratio=0.5)
        figure1, figure2 = run_sweeps(config)
        assert len(figure1.records) == 9
        # the a = 1 boundary no longer has equal preferences, so gains may be positive
        assert all(r.delta_eu >= 0 for r in figure1.records)

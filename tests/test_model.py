import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicfund import build_group, build_market, errors, mimicking, moments, oracle
from mimicfund.model import PortfolioMatrix


class TestMarketModel:
    def test_textbook_market_is_valid(self, textbook_market):
        assert textbook_market.k == 2
        np.testing.assert_allclose(textbook_market.sigma[0, 1], 0.2 * 0.12 * 0.2)

    def test_identity_covariance(self):
        m = build_market((0.0, 0.0), np.eye(2))
        assert m.k == 2

    def test_indefinite_covariance_rejected(self):
        # eigenvalues {3, -1}
        with pytest.raises(errors.NotPositiveDefinite):
            build_market((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(errors.NotSymmetric):
            build_market((0.0, 0.0), ((1.0, 0.2), (0.3, 1.0)))

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            build_market((0.1, 0.2, 0.3), np.eye(2))
        with pytest.raises(errors.DimensionMismatch):
            build_market((0.1, 0.2), np.ones((2, 3)))

    def test_single_asset_rejected(self):
        with pytest.raises(errors.TooFewAssets):
            build_market((0.1,), ((1.0,),))

    def test_non_finite_rejected(self):
        with pytest.raises(errors.NonFiniteValue):
            build_market((np.nan, 0.1), np.eye(2))
        with pytest.raises(errors.NonFiniteValue):
            build_market((0.1, 0.1), ((np.inf, 0.0), (0.0, 1.0)))

    def test_non_numeric_entries_rejected(self):
        with pytest.raises(errors.ParseError):
            build_market(("ab", 0.1), np.eye(2))
        with pytest.raises(errors.ParseError):
            build_market((0.1, 0.1), ((1.0, "x"), (0.0, 1.0)))
        with pytest.raises(errors.ParseError):
            build_market((0.1, 0.1), ((1.0, 0.0), (0.0,)))

    def test_values_are_immutable(self, textbook_market):
        with pytest.raises(ValueError):
            textbook_market.mu[0] = 1.0

    def test_revalidation_is_idempotent(self, textbook_market):
        again = build_market(textbook_market.mu, textbook_market.sigma)
        np.testing.assert_array_equal(again.sigma, textbook_market.sigma)


class TestInvestorGroup:
    def test_textbook_group_is_valid(self, base_group):
        assert base_group.n == 2

    def test_uniform_zero_penalty_group(self):
        g = build_group((1.0, 1.0, 1.0), (1 / 3, 1 / 3, 1 / 3), (0.0, 0.0, 0.0))
        assert g.n == 3

    def test_beta_must_sum_to_one(self):
        with pytest.raises(errors.BetaNotNormalized):
            build_group((2.0, 4.0), (0.6, 0.6), (3.0, 3.0))

    @pytest.mark.parametrize("alpha", [(0.0, 4.0), (-1.0, 4.0)])
    def test_non_positive_alpha_rejected(self, alpha):
        with pytest.raises(errors.NonPositiveAlpha):
            build_group(alpha, (0.5, 0.5), (3.0, 3.0))

    def test_non_positive_beta_rejected(self):
        with pytest.raises(errors.NonPositiveBeta):
            build_group((2.0, 4.0), (1.0, 0.0), (3.0, 3.0))

    def test_negative_phi_rejected(self):
        with pytest.raises(errors.NegativePhi):
            build_group((2.0, 4.0), (0.5, 0.5), (3.0, -1.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            build_group((2.0, 4.0, 6.0), (0.5, 0.5), (3.0, 3.0))

    def test_non_numeric_entries_rejected(self):
        with pytest.raises(errors.ParseError):
            build_group("ab", (0.5, 0.5), (3.0, 3.0))
        with pytest.raises(errors.ParseError):
            build_group((2.0, 4.0), (0.5, [0.5]), (3.0, 3.0))

    def test_single_investor_rejected(self):
        with pytest.raises(errors.TooFewInvestors):
            build_group((2.0,), (1.0,), (3.0,))

    def test_revalidation_is_idempotent(self, base_group):
        again = build_group(base_group.alpha, base_group.beta, base_group.phi)
        np.testing.assert_array_equal(again.alpha, base_group.alpha)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.lists(st.floats(-5, 25, allow_nan=False), min_size=1, max_size=6),
        beta=st.lists(st.floats(-1, 2, allow_nan=False), min_size=1, max_size=6),
        phi=st.lists(st.floats(-5, 25, allow_nan=False), min_size=1, max_size=6),
    )
    def test_construction_is_total(self, alpha, beta, phi):
        # every input either yields a value satisfying the invariants or a
        # typed validation error; nothing else escapes
        try:
            g = build_group(alpha, beta, phi)
        except errors.ValidationError:
            return
        assert g.n >= 2
        assert np.all(g.alpha > 0)
        assert np.all(g.beta > 0)
        assert abs(g.beta.sum() - 1.0) <= 1e-12
        assert np.all(g.phi >= 0)


class TestPortfolioMatrix:
    def test_unit_columns_accepted(self):
        w = PortfolioMatrix(((0.5, 1.5), (0.5, -0.5)))
        assert (w.k, w.n) == (2, 2)

    def test_bad_column_sum_rejected(self):
        with pytest.raises(errors.ConstraintViolated):
            PortfolioMatrix(((0.5, 0.5), (0.5, 0.4)))

    def test_non_finite_rejected(self):
        with pytest.raises(errors.NonFiniteValue):
            PortfolioMatrix(((np.nan, 0.5), (1.0, 0.5)))

    def test_constructor_copies_its_input(self):
        arr = np.array([[0.5, 1.5], [0.5, -0.5]])
        pm = PortfolioMatrix(arr)
        assert arr.flags.writeable
        assert not pm.weights.flags.writeable
        arr[0, 0] = 9.0
        assert pm.weights[0, 0] == 0.5


def test_array_holding_types_compare_and_hash_by_identity(textbook_ctx, base_group):
    market = textbook_ctx.market
    values = [
        market,
        base_group,
        PortfolioMatrix(((0.5, 1.5), (0.5, -0.5))),
        textbook_ctx,
        mimicking.solve(textbook_ctx, base_group),
        oracle.kkt_solve(market, base_group),
        moments.ReturnSample(np.eye(4, 2), ("A", "B")),
    ]
    for value in values:
        twin = copy.copy(value)
        assert (value == value) is True
        assert (value == twin) is False
        assert len({value, twin}) == 2

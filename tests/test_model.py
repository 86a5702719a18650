import copy
import warnings

import numpy as np
import pytest
import support
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicfund import InvestorGroup, MarketModel, errors, mimicking, moments, oracle
from mimicfund.model import BETA_SUM_TOL, COLUMN_SUM_TOL, SYMMETRY_RTOL, PortfolioMatrix


# Faults injected into otherwise valid inputs by the summary-rule tests.
FAULTS = (np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0)


def outcome(build, *args):
    """``(error class, message)`` of the first broken rule, ``None`` if none breaks."""
    try:
        build(*args)
    except errors.ValidationError as exc:
        return type(exc), str(exc)
    return None


def per_rule_market(mu, sigma):
    # reference: one numpy pass per rule, after the shape checks
    if not np.all(np.isfinite(mu)):
        raise errors.NonFiniteValue("mu contains a non-finite entry")
    if not np.all(np.isfinite(sigma)):
        raise errors.NonFiniteValue("sigma contains a non-finite entry")
    if mu.shape[0] < 2:
        raise errors.TooFewAssets(f"need at least 2 assets, got {mu.shape[0]}")
    scale = np.max(np.abs(sigma))
    with np.errstate(over="ignore"):
        asymmetry = np.max(np.abs(sigma - sigma.T))
    if asymmetry > SYMMETRY_RTOL * scale:
        raise errors.NotSymmetric("sigma is not symmetric")
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise errors.NotPositiveDefinite("sigma is not positive definite") from None


def per_rule_group(alpha, beta, phi):
    # reference: one numpy pass per rule, after the shape checks
    for name, arr in (("alpha", alpha), ("beta", beta), ("phi", phi)):
        if not np.all(np.isfinite(arr)):
            raise errors.NonFiniteValue(f"{name} contains a non-finite entry")
    if alpha.shape[0] < 2:
        raise errors.TooFewInvestors(f"need at least 2 investors, got {alpha.shape[0]}")
    if (alpha <= 0).any():
        raise errors.NonPositiveAlpha("every alpha must be > 0")
    if (beta <= 0).any():
        raise errors.NonPositiveBeta("every beta must be > 0")
    with np.errstate(over="ignore"):
        total = beta.sum().item()
    if abs(total - 1.0) > BETA_SUM_TOL:
        raise errors.BetaNotNormalized(f"beta must sum to 1, got {total!r}")
    if (phi < 0).any():
        raise errors.NegativePhi("every phi must be >= 0")


def inject_faults(rng, arrays, hits):
    """Set ``hits`` random entries of random ``arrays`` to random :data:`FAULTS`."""
    for _ in range(hits):
        arr = arrays[int(rng.integers(len(arrays)))]
        if arr.size:
            arr.flat[int(rng.integers(arr.size))] = FAULTS[int(rng.integers(len(FAULTS)))]


class TestMarketModel:
    def test_textbook_market_is_valid(self, textbook_market):
        assert textbook_market.k == 2
        np.testing.assert_allclose(textbook_market.sigma[0, 1], 0.2 * 0.12 * 0.2)

    def test_identity_covariance(self):
        m = MarketModel((0.0, 0.0), np.eye(2))
        assert m.k == 2

    def test_indefinite_covariance_rejected(self):
        # eigenvalues {3, -1}
        with pytest.raises(errors.NotPositiveDefinite):
            MarketModel((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(errors.NotSymmetric):
            MarketModel((0.0, 0.0), ((1.0, 0.2), (0.3, 1.0)))

    def test_overflowing_asymmetry_rejected(self):
        # sigma - sigma.T overflows to inf: typed, with no numpy warning
        with pytest.raises(errors.NotSymmetric):
            MarketModel((0.0, 0.0), ((1.0, 1e308), (-1e308, 1.0)))

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            MarketModel((0.1, 0.2, 0.3), np.eye(2))
        with pytest.raises(errors.DimensionMismatch):
            MarketModel((0.1, 0.2), np.ones((2, 3)))

    def test_single_asset_rejected(self):
        with pytest.raises(errors.TooFewAssets):
            MarketModel((0.1,), ((1.0,),))

    def test_non_finite_rejected(self):
        with pytest.raises(errors.NonFiniteValue):
            MarketModel((np.nan, 0.1), np.eye(2))
        with pytest.raises(errors.NonFiniteValue):
            MarketModel((0.1, 0.1), ((np.inf, 0.0), (0.0, 1.0)))

    def test_non_numeric_entries_rejected(self):
        with pytest.raises(errors.ParseError):
            MarketModel(("ab", 0.1), np.eye(2))
        with pytest.raises(errors.ParseError):
            MarketModel((0.1, 0.1), ((1.0, "x"), (0.0, 1.0)))
        with pytest.raises(errors.ParseError):
            MarketModel((0.1, 0.1), ((1.0, 0.0), (0.0,)))

    def test_rejected_nested_value_is_shown_short(self):
        # reprlib abridges each list but not the nesting: 6 x 6 integers of
        # 40 shown digits each would make an error line of about 1.5 kB;
        # past the 4300-digit str limit an integer is shown by its size, and
        # an array whose repr raises by its type, never by an object address
        huge = [[10**400] * 6] * 6
        for bad, shown in (
            (lambda: MarketModel((0.1, 0.1), huge), "[[1000"),
            (lambda: InvestorGroup(huge, 1, 0), "[[1000"),
            (lambda: MarketModel([10**4301, 1], np.eye(2)), "[<int of 14288 bits>, 1]"),
            (lambda: InvestorGroup([[10**4301]], 1, 0), "[[<int of 14288 bits>]]"),
            (lambda: PortfolioMatrix([[10**4301, 1]]), "[[<int of 14288 bits>, 1]]"),
            (lambda: PortfolioMatrix(np.array([[10**4301, 1]], dtype=object)), "<ndarray instance>"),
        ):
            with pytest.raises(errors.ParseError, match="is not an array of numbers: ") as caught:
                bad()
            assert len(str(caught.value)) < 150
            assert str(caught.value).split(": ", 1)[1].startswith(shown)

    @pytest.mark.parametrize(
        "mu, sigma, error, message",
        [
            ((), np.zeros((0, 0)), errors.TooFewAssets, "got 0"),
            ((np.nan,), ((np.inf,),), errors.NonFiniteValue, "mu contains"),
            ((-1.0,), ((-np.inf,),), errors.NonFiniteValue, "sigma contains"),
            ((np.inf,), np.zeros((1, 1)), errors.NonFiniteValue, "mu contains"),
            ((0.1,), ((-1.0,),), errors.TooFewAssets, "got 1"),
            ((0.1, 0.2), ((1.0, 2.0), (3.0, 1.0)), errors.NotSymmetric, "symmetric"),
            ((0.1, 0.2), ((1.0, 2.0), (2.0, 1.0)), errors.NotPositiveDefinite, "definite"),
            # asymmetry at 1.1x and 0.9x of SYMMETRY_RTOL * max|sigma| = 1e-11, on
            # indefinite sigmas whose largest magnitude is positive, then negative
            ((0.1, 0.2), ((1.0, 10.0), (10.0 + 1.1e-11, 1.0)), errors.NotSymmetric, "symmetric"),
            ((0.1, 0.2), ((1.0, 10.0), (10.0 + 0.9e-11, 1.0)), errors.NotPositiveDefinite, "definite"),
            ((0.1, 0.2), ((1.0, -10.0), (-10.0 - 1.1e-11, 1.0)), errors.NotSymmetric, "symmetric"),
            ((0.1, 0.2), ((1.0, -10.0), (-10.0 - 0.9e-11, 1.0)), errors.NotPositiveDefinite, "definite"),
            # numpy would read these as reals: drop the imaginary part, with a
            # ComplexWarning, or count days and seconds; not a number comes before shape
            (np.array([0.07 + 5j, 0.14]), np.eye(2), errors.ParseError, "mu is not an array"),
            ([np.complex128(0.07), 0.14], np.eye(2), errors.ParseError, "mu is not an array"),
            ((0.07, 0.14), np.array([[1j]]), errors.ParseError, "sigma is not an array"),
            (np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"), np.eye(2),
             errors.ParseError, "mu is not an array"),
            ((0.07, 0.14), np.eye(2).astype("timedelta64[s]"), errors.ParseError,
             "sigma is not an array"),
            # nested arrays of a unit finer than microseconds, held as ints in an object view
            ((0.1, 0.2), [np.array([1, 0], "m8[ns]"), np.array([0, 1], "m8[ns]")],
             errors.ParseError, "sigma is not an array"),
            ((0.1, 0.2), [np.array([1, 0], "M8[ns]"), np.array([0, 1], "M8[ns]")],
             errors.ParseError, "sigma is not an array"),
            ((0.1, 0.2), [np.array([1, 0], "m8[ns]"), [0.0, 1.0]], errors.ParseError,
             "sigma is not an array"),
        ],
    )
    def test_first_broken_rule_in_documented_order_raises(self, mu, sigma, error, message):
        # finite mu, sigma; k >= 2; symmetric sigma; positive definite sigma
        with pytest.raises(error, match=message):
            MarketModel(mu, sigma)

    def test_summary_rejects_what_per_rule_passes_rejected(self):
        rng = np.random.default_rng(27)
        seen = set()
        for _ in range(2000):
            k = int(rng.integers(0, 7))
            f = rng.standard_normal((k, k))
            gram = f @ f.T
            sigma = (gram + gram.T) / 2.0 + 0.1 * np.eye(k)
            mu = rng.standard_normal(k)
            if k >= 2 and rng.random() < 0.3:
                # one entry off symmetry by 1e-13 (accepted) or 1e-11 (not) of the scale
                i, j = rng.choice(k, 2, replace=False)
                off = rng.choice([-1e-11, -1e-13, 1e-13, 1e-11])
                sigma[i, j] += off * np.max(np.abs(sigma))
            if k and rng.random() < 0.3:
                sigma[rng.integers(k), rng.integers(k)] *= -1.0  # indefinite, or asymmetric
            inject_faults(rng, [mu, sigma], int(rng.integers(0, 2)) * int(rng.integers(1, 4)))
            want = outcome(per_rule_market, mu, sigma)
            assert outcome(MarketModel, mu, sigma) == want
            seen.add(want and want[0])
        assert seen == {
            None, errors.NonFiniteValue, errors.TooFewAssets,
            errors.NotSymmetric, errors.NotPositiveDefinite,
        }

    def test_values_are_immutable(self, textbook_market):
        with pytest.raises(ValueError):
            textbook_market.mu[0] = 1.0

    def test_revalidation_is_idempotent(self, textbook_market):
        again = MarketModel(textbook_market.mu, textbook_market.sigma)
        np.testing.assert_array_equal(again.sigma, textbook_market.sigma)


class TestInvestorGroup:
    def test_textbook_group_is_valid(self, base_group):
        assert base_group.n == 2

    def test_uniform_zero_penalty_group(self):
        g = InvestorGroup((1.0, 1.0, 1.0), (1 / 3, 1 / 3, 1 / 3), (0.0, 0.0, 0.0))
        assert g.n == 3

    def test_beta_must_sum_to_one(self):
        with pytest.raises(errors.BetaNotNormalized):
            InvestorGroup((2.0, 4.0), (0.6, 0.6), (3.0, 3.0))

    def test_overflowing_beta_sum_rejected(self):
        # the wealth-share sum overflows to inf: typed, with no numpy warning
        with pytest.raises(errors.BetaNotNormalized, match="got inf"):
            InvestorGroup((0.5, 0.5), (1e308, 1e308), (0.0, 0.0))

    def test_opposite_infinite_shares_rejected_without_a_warning(self):
        # finiteness is checked before the sum, which would be inf - inf = nan
        with pytest.raises(errors.NonFiniteValue, match="beta contains"):
            InvestorGroup((2.0, 4.0), (np.inf, -np.inf), (3.0, 3.0))

    @pytest.mark.parametrize("alpha", [(0.0, 4.0), (-1.0, 4.0)])
    def test_non_positive_alpha_rejected(self, alpha):
        with pytest.raises(errors.NonPositiveAlpha):
            InvestorGroup(alpha, (0.5, 0.5), (3.0, 3.0))

    def test_non_positive_beta_rejected(self):
        with pytest.raises(errors.NonPositiveBeta):
            InvestorGroup((2.0, 4.0), (1.0, 0.0), (3.0, 3.0))

    def test_negative_phi_rejected(self):
        with pytest.raises(errors.NegativePhi):
            InvestorGroup((2.0, 4.0), (0.5, 0.5), (3.0, -1.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            InvestorGroup((2.0, 4.0, 6.0), (0.5, 0.5), (3.0, 3.0))

    def test_non_numeric_entries_rejected(self):
        with pytest.raises(errors.ParseError):
            InvestorGroup("ab", (0.5, 0.5), (3.0, 3.0))
        with pytest.raises(errors.ParseError):
            InvestorGroup((2.0, 4.0), (0.5, [0.5]), (3.0, 3.0))
        # np.array(..., dtype=float) would turn strings and booleans into numbers
        for alpha in (["2", 4.0], [True, 4.0], [True, 2.0], np.array([True, True])):
            with pytest.raises(errors.ParseError, match="alpha is not an array of numbers"):
                InvestorGroup(alpha, (0.5, 0.5), (3.0, 3.0))

    def test_single_investor_rejected(self):
        with pytest.raises(errors.TooFewInvestors):
            InvestorGroup((2.0,), (1.0,), (3.0,))

    @pytest.mark.parametrize(
        "alpha, beta, phi, error, message",
        [
            ((np.nan, 4.0), (-0.5, 1.5), (3.0, 3.0), errors.NonFiniteValue, "alpha contains"),
            ((2.0, -4.0), (np.inf, 0.5), (3.0, -1.0), errors.NonFiniteValue, "beta contains"),
            ((0.0, 4.0), (-0.5, 1.5), (np.nan, 3.0), errors.NonFiniteValue, "phi contains"),
            ((-2.0,), (1.0,), (3.0,), errors.TooFewInvestors, "got 1"),
            ((0.0, 4.0), (0.0, 0.6), (3.0, -1.0), errors.NonPositiveAlpha, "alpha"),
            ((2.0, 4.0), (-0.5, 0.6), (3.0, -1.0), errors.NonPositiveBeta, "beta"),
            ((2.0, 4.0), (0.6, 0.6), (3.0, -1.0), errors.BetaNotNormalized, "got 1.2"),
            ((2.0, 4.0), (0.5, 0.5), (3.0, -1.0), errors.NegativePhi, "phi"),
            # the summaries' edges: an empty vector, an inf max over a negative min
            ((), (), (), errors.TooFewInvestors, "got 0"),
            ((-1.0, np.inf), (0.5, 0.5), (3.0, 3.0), errors.NonFiniteValue, "alpha contains"),
            ((2.0, 4.0), (-np.inf, 1.0), (np.inf, -1.0), errors.NonFiniteValue, "beta contains"),
            ((np.inf,), (1.0,), (3.0,), errors.NonFiniteValue, "alpha contains"),
            ((2.0, 4.0), (-0.0, 1.0), (3.0, 3.0), errors.NonPositiveBeta, "beta"),
            # complex numbers, dates and durations are not numbers
            ([np.complex64(2.0), 4.0], (0.5, 0.5), (3.0, 3.0), errors.ParseError, "alpha is not"),
            ((2.0, 4.0), [np.timedelta64(1, "s"), 0.5], (3.0, 3.0), errors.ParseError, "beta is not"),
            ((2.0, 4.0), (0.5, 0.5), np.array([3, 3], dtype="timedelta64[s]"), errors.ParseError,
             "phi is not"),
            ((2.0, 4.0), (0.5, 0.5), [np.array(3, "m8[ns]"), np.array(3, "m8[ns]")],
             errors.ParseError, "phi is not"),
            ([np.array(2, "M8[ns]"), np.array(4, "M8[ns]")], (0.5, 0.5), (3.0, 3.0),
             errors.ParseError, "alpha is not"),
            # README's 1e-12, as literals: shares off 1 by 0.9x of it pass the sum rule,
            # by 1.1x fail it
            ((2.0, 4.0), (0.5, 0.5 + 0.9e-12), (3.0, -1.0), errors.NegativePhi, "phi"),
            ((2.0, 4.0), (0.5, 0.5 - 0.9e-12), (3.0, -1.0), errors.NegativePhi, "phi"),
            ((2.0, 4.0), (0.5, 0.5 + 1.1e-12), (3.0, -1.0), errors.BetaNotNormalized, "got 1.0"),
            ((2.0, 4.0), (0.5, 0.5 - 1.1e-12), (3.0, -1.0), errors.BetaNotNormalized, "got 0.9"),
        ],
    )
    def test_first_broken_rule_in_documented_order_raises(self, alpha, beta, phi, error, message):
        # finite alpha, beta, phi; n >= 2; alpha > 0; beta > 0; sum beta = 1; phi >= 0
        with pytest.raises(error, match=message):
            InvestorGroup(alpha, beta, phi)

    def test_summary_rejects_what_per_rule_passes_rejected(self):
        rng = np.random.default_rng(28)
        seen = set()
        for _ in range(2000):
            n = int(rng.integers(0, 7))
            alpha = rng.uniform(0.1, 20.0, n)
            beta = rng.dirichlet(np.ones(n))
            phi = rng.uniform(0.0, 20.0, n)
            if n and rng.random() < 0.3:
                beta[rng.integers(n)] += rng.choice([-2.0, 2.0]) * BETA_SUM_TOL
            inject_faults(rng, [alpha, beta, phi], int(rng.integers(0, 2)) * int(rng.integers(1, 4)))
            want = outcome(per_rule_group, alpha, beta, phi)
            assert outcome(InvestorGroup, alpha, beta, phi) == want
            seen.add(want and want[0])
        assert seen == {
            None, errors.NonFiniteValue, errors.TooFewInvestors, errors.NonPositiveAlpha,
            errors.NonPositiveBeta, errors.BetaNotNormalized, errors.NegativePhi,
        }

    def test_revalidation_is_idempotent(self, base_group):
        again = InvestorGroup(base_group.alpha, base_group.beta, base_group.phi)
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
            g = InvestorGroup(alpha, beta, phi)
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
        # README's 1e-10, as literals: O(1) columns off 1 by 0.9x of it pass
        assert PortfolioMatrix(((1.5 + 0.9e-10, 1.5 - 0.9e-10), (-0.5, -0.5))).n == 2
        # a matrix without columns has none off its sum
        assert PortfolioMatrix(np.zeros((2, 0))).n == 0

    def test_bad_column_sum_rejected(self):
        with pytest.raises(errors.ConstraintViolated):
            PortfolioMatrix(((0.5, 0.5), (0.5, 0.4)))
        # ... and by 1.1x of it fail
        for off in (1.1e-10, -1.1e-10):
            with pytest.raises(errors.ConstraintViolated, match="column 1"):
                PortfolioMatrix(((1.5, 1.5 + off), (-0.5, -0.5)))

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

    def test_frozen_owning_array_is_kept(self):
        arr = np.array([[0.5, 1.5], [0.5, -0.5]])
        arr.setflags(write=False)
        pm = PortfolioMatrix(arr)
        assert pm.weights is arr

    @pytest.mark.parametrize(
        "make",
        [
            lambda arr: arr,
            lambda arr: arr[:, :],
            lambda arr: np.asfortranarray(arr),
            lambda arr: arr.astype(np.float32),
            lambda arr: arr.tolist(),
        ],
        ids=["writeable", "view", "fortran", "float32", "list"],
    )
    def test_other_inputs_are_copied(self, make):
        arr = np.array([[0.5, 1.5, 0.25], [0.5, -0.5, 0.75]])
        given = make(arr)
        if isinstance(given, np.ndarray) and given is not arr:
            given.setflags(write=False)
        pm = PortfolioMatrix(given)
        assert pm.weights is not given
        assert not np.shares_memory(pm.weights, arr)
        assert pm.weights.dtype == np.float64
        assert not pm.weights.flags.writeable
        assert arr.flags.writeable
        np.testing.assert_array_equal(pm.weights, np.asarray(given, dtype=float))

    def test_kept_array_is_still_checked(self):
        bad_sum = np.array([[0.5, 0.5], [0.5, 0.4]])
        bad_sum.setflags(write=False)
        with pytest.raises(errors.ConstraintViolated):
            PortfolioMatrix(bad_sum)
        non_finite = np.array([[np.nan, 0.5], [1.0, 0.5]])
        non_finite.setflags(write=False)
        with pytest.raises(errors.NonFiniteValue):
            PortfolioMatrix(non_finite)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_overflowing_column_sum_rejected_without_a_warning(self, order):
        # numpy sums an F-ordered column pairwise, (1e308 + 1e308) + ... +
        # (-1e308 + -1e308) = inf + -inf = nan, and a C-ordered one row by
        # row, to inf; both sums are rejected and neither leaks a warning
        arr = np.zeros((8, 2), order=order)
        arr[:, 0] = [1e308] * 4 + [-1e308] * 4
        arr[0, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.ConstraintViolated, match="violating the unit-sum"):
                PortfolioMatrix(arr)

    def test_one_pass_rejects_what_two_passes_rejected(self):
        # reference: a finiteness scan, then the column sums, which lets a
        # NaN column sum through
        def two_passes(arr):
            if not np.all(np.isfinite(arr)):
                return errors.NonFiniteValue
            with np.errstate(all="ignore"):
                sums = arr.sum(axis=0)
            if np.max(np.abs(sums - 1.0)) > COLUMN_SUM_TOL:
                return errors.ConstraintViolated
            return None

        def one_pass(arr):
            try:
                PortfolioMatrix(arr)
            except (errors.NonFiniteValue, errors.ConstraintViolated) as exc:
                return type(exc)
            return None

        rng = np.random.default_rng(16)
        outcomes = set()
        for _ in range(2000):
            k, n = (int(size) for size in rng.integers(1, 20, 2))
            arr = support.unit_sum_columns(rng, k, n)
            # half the matrices get non-finite entries, half get entries of
            # 1e308, whose column sums can overflow or, pairwise, come out NaN
            hits = int(rng.integers(0, 2)) * int(rng.integers(0, 3))
            rows, cols = rng.integers(0, k, hits), rng.integers(0, n, hits)
            arr[rows, cols] = rng.choice([np.inf, -np.inf, np.nan], hits)
            huge = int(rng.integers(0, 2)) * int(rng.integers(0, 2 * k))
            rows, cols = rng.integers(0, k, huge), rng.integers(0, n, huge)
            arr[rows, cols] = rng.choice([1e308, -1e308], huge)
            arr = np.asarray(arr, order=rng.choice(["C", "F"]))
            outcome = two_passes(arr)
            with np.errstate(all="ignore"):
                if outcome is None and np.isnan(arr.sum(axis=0)).any():
                    outcome = "nan sum"
            outcomes.add(outcome)
            want = errors.ConstraintViolated if outcome == "nan sum" else outcome
            assert one_pass(arr) is want
        # every outcome occurs, the NaN column sum that two passes accepted too
        assert outcomes == {None, errors.NonFiniteValue, errors.ConstraintViolated, "nan sum"}


def test_array_holding_types_compare_and_hash_by_identity(textbook_market, textbook_ctx, base_group):
    values = [
        textbook_market,
        base_group,
        PortfolioMatrix(((0.5, 1.5), (0.5, -0.5))),
        textbook_ctx,
        mimicking.solve(textbook_ctx, base_group),
        oracle.kkt_solve(textbook_market, base_group),
        moments.ReturnSample(np.eye(4, 2), ("A", "B")),
    ]
    for value in values:
        twin = copy.copy(value)
        assert (value == value) is True
        assert (value == twin) is False
        assert len({value, twin}) == 2

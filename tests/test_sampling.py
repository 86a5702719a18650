import enum
import re

import numpy as np
import pytest
import support

from mimicfund import errors, sampling
from mimicfund.sampling import SIGMA_RIDGE

# The sampler's stream, written out with the formulas it has always used (the
# group's in support.group_draws): a seeded draw must keep its bits, since
# verify's stdout and the seeded test instances are compared byte for byte.


def reference_market(rng, k):
    f = rng.standard_normal((k, k))
    sigma = f @ f.T
    sigma = (sigma + sigma.T) / 2.0 + SIGMA_RIDGE * np.eye(k)
    return rng.standard_normal(k), sigma


def twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_state(rng, twin):
    assert rng.bit_generator.state == twin.bit_generator.state


def test_markets_keep_the_reference_stream():
    for k in range(2, 31):
        rng, twin = twins(k)
        for _ in range(5):
            market = sampling.random_market(rng, k)
            mu, sigma = reference_market(twin, k)
            assert np.array_equal(market.mu, mu)
            assert np.array_equal(market.sigma, sigma)
        assert_same_state(rng, twin)


@pytest.mark.parametrize("n", [*range(2, 40), 100, 257, 1000])
def test_groups_keep_the_reference_stream(n):
    # the Dirichlet(1, ..., 1) shares are rng.dirichlet's, bit for bit
    rng, twin = twins(n)
    for _ in range(3):
        group = sampling.random_group(rng, n)
        alpha, beta, phi = support.group_draws(twin, n)
        assert np.array_equal(group.alpha, alpha)
        assert np.array_equal(group.beta, beta)
        assert np.array_equal(group.phi, phi)
    assert_same_state(rng, twin)


def test_instances_keep_the_reference_stream():
    rng, twin = twins(27)
    for _ in range(500):
        market, group = sampling.random_instance(rng, 10, 10)
        k, n = int(twin.integers(2, 11)), int(twin.integers(2, 11))
        mu, sigma = reference_market(twin, k)
        alpha, beta, phi = support.group_draws(twin, n)
        assert np.array_equal(market.mu, mu)
        assert np.array_equal(market.sigma, sigma)
        assert np.array_equal(group.alpha, alpha)
        assert np.array_equal(group.beta, beta)
        assert np.array_equal(group.phi, phi)
    assert_same_state(rng, twin)


@pytest.mark.parametrize("n", [0, 1])
def test_too_few_investors_are_drawn_then_rejected(n):
    rng, twin = twins(3)
    with pytest.raises(errors.TooFewInvestors, match=f"got {n}"):
        sampling.random_group(rng, n)
    support.group_draws(twin, n)
    assert_same_state(rng, twin)


@pytest.mark.parametrize("draw, args, message", [
    (sampling.random_instance, (1, 5), "max_k must be an integer >= 2, got 1"),
    (sampling.random_instance, (5, 1), "max_n must be an integer >= 2, got 1"),
    (sampling.random_instance, (2.5, 5), "max_k must be an integer >= 2, got 2.5"),
    (sampling.random_instance, (5, np.float64(3.0)), "max_n must be an integer >= 2"),
    (sampling.random_instance, (True, 5), "max_k must be an integer >= 2, got True"),
    (sampling.random_market, (-1,), "k must be an integer >= 0, got -1"),
    (sampling.random_market, (2.0,), "k must be an integer >= 0, got 2.0"),
    (sampling.random_group, (-2,), "n must be an integer >= 0, got -2"),
    (sampling.random_group, ("3",), "n must be an integer >= 0, got '3'"),
    # above numpy's index range (2**63 - 1 here) for rng.integers, or its
    # largest array in bytes for the floats drawn: n of them, or k * k
    (sampling.random_instance, (2**63, 5),
     "max_k must be an integer <= 9223372036854775807, got 9223372036854775808"),
    (sampling.random_instance, (5, np.uint64(2**64 - 1)),
     "max_n must be an integer <= 9223372036854775807, got "),
    (sampling.random_instance, (np.uint64(2**64 - 1), 5),
     "max_k must be an integer <= 9223372036854775807, got "),
    (sampling.random_market, (10**300,), "k must be an integer <= 1073741823, got 1000"),
    (sampling.random_market, (2**30,), "k must be an integer <= 1073741823, got 1073741824"),
    (sampling.random_group, (2**63,),
     "n must be an integer <= 1152921504606846975, got 9223372036854775808"),
    (sampling.random_group, (2**60,),
     "n must be an integer <= 1152921504606846975, got 1152921504606846976"),
])
def test_bad_sizes_are_rejected_before_the_first_draw(draw, args, message):
    rng, twin = twins(5)
    with pytest.raises(errors.ConstraintViolated, match=re.escape(message)):
        draw(rng, *args)
    assert_same_state(rng, twin)


@pytest.mark.parametrize("draw, args, error, message", [
    (sampling.random_market, (10**400,), errors.ParseError, "k is not an array of numbers: 1000"),
    (sampling.random_group, (10**4301,), errors.ParseError,
     "n is not an array of numbers: <int of 14288 bits>"),
    (sampling.random_group, (-10**4301,), errors.ConstraintViolated,
     "n must be an integer >= 0, got <negative int of 14288 bits>"),
    (sampling.random_instance, (10**400, 5), errors.ParseError, "max_k is not an array of numbers"),
    (sampling.random_instance, (5, -10**4301), errors.ConstraintViolated,
     "max_n must be an integer >= 2, got <negative int of 14288 bits>"),
])
def test_sizes_beyond_the_float_range_are_rejected_before_the_first_draw(
    draw, args, error, message
):
    rng, twin = twins(5)
    with pytest.raises(error, match=re.escape(message)):
        draw(rng, *args)
    assert_same_state(rng, twin)


def test_the_largest_max_k_draws_then_the_market_rejects_its_k():
    # rng.integers(2, max_k, endpoint=True) reaches 2**63 - 1 without
    # overflow; the k drawn is above random_market's ceiling
    rng, twin = twins(5)
    with pytest.raises(errors.ConstraintViolated, match="^k must be an integer <= 1073741823, got "):
        sampling.random_instance(rng, 2**63 - 1, 5)
    twin.integers(2, 2**63 - 1, endpoint=True)
    twin.integers(2, 5, endpoint=True)
    assert_same_state(rng, twin)


@pytest.mark.parametrize("k", [*range(2, 40), 100, 300, 1000])
def test_market_covariance_is_exactly_symmetric(k):
    # F F' is formed symmetric, so the sampler does not symmetrize it
    sigma = sampling.random_market(np.random.default_rng(k), k).sigma
    assert np.array_equal(sigma, sigma.T)


class Size(enum.IntEnum):
    TWO = 2


def test_numpy_integer_sizes_draw_and_one_asset_reaches_the_market_rule():
    rng, twin = twins(6)
    market, group = sampling.random_instance(rng, np.int64(2), np.int32(2))
    assert np.array_equal(market.sigma, sampling.random_instance(twin, 2, 2)[0].sigma)
    group = sampling.random_instance(rng, Size.TWO, np.uint64(2))[1]
    assert np.array_equal(group.beta, sampling.random_instance(twin, 2, 2)[1].beta)
    with pytest.raises(errors.TooFewAssets):
        sampling.random_market(rng, 1)

import numpy as np
import pytest

from mimicfund import errors, sampling
from mimicfund.sampling import ALPHA_HIGH, ALPHA_LOW, PHI_HIGH, SIGMA_RIDGE

# The sampler's stream, written out with the formulas it has always used: a
# seeded draw must keep its bits, since verify's stdout and the seeded test
# instances are compared byte for byte.


def reference_market(rng, k):
    f = rng.standard_normal((k, k))
    sigma = f @ f.T
    sigma = (sigma + sigma.T) / 2.0 + SIGMA_RIDGE * np.eye(k)
    return rng.standard_normal(k), sigma


def reference_group(rng, n, alpha_low=ALPHA_LOW, uniform_wealth=False):
    alpha = rng.uniform(alpha_low, ALPHA_HIGH, n)
    phi = rng.uniform(0.0, PHI_HIGH, n)
    beta = np.full(n, 1.0 / n) if uniform_wealth else rng.dirichlet(np.ones(n))
    return alpha, beta, phi


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
    for options in ({}, {"alpha_low": 1e-3}, {"uniform_wealth": True}, {}):
        group = sampling.random_group(rng, n, **options)
        alpha, beta, phi = reference_group(twin, n, **options)
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
        alpha, beta, phi = reference_group(twin, n)
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
    reference_group(twin, n)
    assert_same_state(rng, twin)

"""Seeded random instance generation for cross-checks and property tests."""

from __future__ import annotations

import numpy as np

from .model import InvestorGroup, MarketModel, build_group, build_market

SIGMA_RIDGE = 0.1
ALPHA_LOW = 0.1
ALPHA_HIGH = 20.0
PHI_HIGH = 20.0


def random_market(rng: np.random.Generator, k: int) -> MarketModel:
    """Random market with covariance ``F F' + SIGMA_RIDGE I`` and standard-normal means."""
    f = rng.standard_normal((k, k))
    sigma = f @ f.T
    sigma = (sigma + sigma.T) / 2.0
    sigma.flat[:: k + 1] += SIGMA_RIDGE
    mu = rng.standard_normal(k)
    return build_market(mu, sigma)


def random_group(
    rng: np.random.Generator,
    n: int,
    alpha_low: float = ALPHA_LOW,
    uniform_wealth: bool = False,
) -> InvestorGroup:
    """Random group: uniform ``alpha`` and ``phi``, Dirichlet(1, ..., 1) wealth shares.

    The shares are drawn as ``rng.dirichlet(np.ones(n))`` draws them, with
    the same bits: ``n`` standard exponentials (numpy's gamma variate of
    shape 1) times the reciprocal of their left-to-right sum.
    """
    alpha = rng.uniform(alpha_low, ALPHA_HIGH, n)
    phi = rng.uniform(0.0, PHI_HIGH, n)
    if uniform_wealth:
        beta = np.full(n, 1.0 / n)
    else:
        beta = rng.standard_exponential(n)
        # the last partial sum, sliced so that n = 0 draws an empty vector
        beta *= 1.0 / np.add.accumulate(beta)[-1:]
    return build_group(alpha, beta, phi)


def random_instance(
    rng: np.random.Generator, max_k: int = 10, max_n: int = 10
) -> tuple[MarketModel, InvestorGroup]:
    """Random (market, group) pair with ``2 <= k <= max_k`` and ``2 <= n <= max_n``."""
    k = int(rng.integers(2, max_k + 1))
    n = int(rng.integers(2, max_n + 1))
    return random_market(rng, k), random_group(rng, n)

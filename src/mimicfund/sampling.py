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
    sigma = (sigma + sigma.T) / 2.0 + SIGMA_RIDGE * np.eye(k)
    mu = rng.standard_normal(k)
    return build_market(mu, sigma)


def random_group(
    rng: np.random.Generator,
    n: int,
    alpha_low: float = ALPHA_LOW,
    phi_high: float = PHI_HIGH,
    uniform_wealth: bool = False,
) -> InvestorGroup:
    """Random group with uniform draws for preferences and simplex wealth."""
    alpha = rng.uniform(alpha_low, ALPHA_HIGH, n)
    phi = rng.uniform(0.0, phi_high, n)
    beta = np.full(n, 1.0 / n) if uniform_wealth else rng.dirichlet(np.ones(n))
    return build_group(alpha, beta, phi)


def random_instance(
    rng: np.random.Generator, max_k: int = 10, max_n: int = 10
) -> tuple[MarketModel, InvestorGroup]:
    """Random (market, group) pair with ``2 <= k <= max_k`` and ``2 <= n <= max_n``."""
    k = int(rng.integers(2, max_k + 1))
    n = int(rng.integers(2, max_n + 1))
    return random_market(rng, k), random_group(rng, n)

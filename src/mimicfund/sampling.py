"""Seeded random instance generation for cross-checks and property tests.

Each draw has one distribution; other ranges or equal wealth are the caller's to draw.
Sizes are integers: ``k`` and ``n`` at least 0 (below 2 they are drawn, then
rejected by the model types), ``max_k`` and ``max_n`` at least 2, as ``verify``'s
``--max-k`` and ``--max-n``.  Any other size raises
:class:`errors.ConstraintViolated` before the first draw.
"""

from __future__ import annotations

import numpy as np

from . import errors
from .model import InvestorGroup, MarketModel

SIGMA_RIDGE = 0.1
ALPHA_LOW = 0.1
ALPHA_HIGH = 20.0
PHI_HIGH = 20.0


def _size(value, name: str, low: int) -> None:
    """Reject a ``value`` that is not an integer ``>= low``; cheaper than :func:`model._as_count`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise errors.ConstraintViolated(f"{name} must be an integer >= {low}, got {value!r}")


def random_market(rng: np.random.Generator, k: int) -> MarketModel:
    """Random market with covariance ``F F' + SIGMA_RIDGE I`` and standard-normal means."""
    _size(k, "k", 0)
    f = rng.standard_normal((k, k))
    sigma = f @ f.T
    sigma = (sigma + sigma.T) / 2.0
    sigma.flat[:: k + 1] += SIGMA_RIDGE
    mu = rng.standard_normal(k)
    return MarketModel(mu, sigma)


def random_group(rng: np.random.Generator, n: int) -> InvestorGroup:
    """Random group: uniform ``alpha`` and ``phi``, Dirichlet(1, ..., 1) wealth shares.

    The shares are drawn as ``rng.dirichlet(np.ones(n))`` draws them, with
    the same bits: ``n`` standard exponentials (numpy's gamma variate of
    shape 1) times the reciprocal of their left-to-right sum.
    """
    _size(n, "n", 0)
    alpha = rng.uniform(ALPHA_LOW, ALPHA_HIGH, n)
    phi = rng.uniform(0.0, PHI_HIGH, n)
    beta = rng.standard_exponential(n)
    # the last partial sum, sliced so that n = 0 draws an empty vector
    beta *= 1.0 / np.add.accumulate(beta)[-1:]
    return InvestorGroup(alpha, beta, phi)


def random_instance(
    rng: np.random.Generator, max_k: int, max_n: int
) -> tuple[MarketModel, InvestorGroup]:
    """Random (market, group) pair with ``2 <= k <= max_k`` and ``2 <= n <= max_n``."""
    _size(max_k, "max_k", 2)
    _size(max_n, "max_n", 2)
    k = int(rng.integers(2, max_k + 1))
    n = int(rng.integers(2, max_n + 1))
    return random_market(rng, k), random_group(rng, n)

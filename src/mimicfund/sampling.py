"""Seeded random instance generation for cross-checks and property tests.

Each draw has one distribution; other ranges or equal wealth are the caller's to draw.
Sizes pass :func:`model._as_count` before the first draw: ``k`` and ``n`` at
least 0 (below 2 they are drawn, then rejected by the model types), ``max_k``
and ``max_n`` at least 2, as ``verify``'s ``--max-k`` and ``--max-n``.  Each
size also has a ceiling, so that numpy never rejects it with a builtin
``ValueError``: ``max_k`` and ``max_n`` at most ``np.iinfo(np.intp).max``,
numpy's index range, which ``rng.integers`` draws from; ``n`` floats and
``k * k`` floats at most that many bytes (``n <= 2**60 - 1`` and
``k <= 1073741823`` on a 64-bit platform).  A size above its ceiling raises
:class:`errors.ConstraintViolated` before any draw; a size numpy can index
but not allocate raises numpy's ``MemoryError``.
"""

from __future__ import annotations

import math

import numpy as np

from .model import InvestorGroup, MarketModel, _as_count

SIGMA_RIDGE = 0.1
ALPHA_LOW = 0.1
ALPHA_HIGH = 20.0
PHI_HIGH = 20.0

# the size ceilings: numpy's index range, the floats that fit in it in bytes,
# and the order of the largest square matrix of such floats
_INDEX_MAX = np.iinfo(np.intp).max
_FLOATS_MAX = _INDEX_MAX // 8
_ORDER_MAX = math.isqrt(_FLOATS_MAX)


def random_market(rng: np.random.Generator, k: int) -> MarketModel:
    """Random market with covariance ``F F' + SIGMA_RIDGE I`` and standard-normal means.

    ``F F'`` is exactly symmetric: numpy computes a matrix times its own
    transpose as one triangle (BLAS ``syrk``) and mirrors it.
    """
    k = _as_count(k, "k", 0, _ORDER_MAX)
    f = rng.standard_normal((k, k))
    sigma = f @ f.T
    sigma.flat[:: k + 1] += SIGMA_RIDGE
    mu = rng.standard_normal(k)
    return MarketModel(mu, sigma)


def random_group(rng: np.random.Generator, n: int) -> InvestorGroup:
    """Random group: uniform ``alpha`` and ``phi``, then Dirichlet(1, ..., 1) wealth shares."""
    n = _as_count(n, "n", 0, _FLOATS_MAX)
    alpha = rng.uniform(ALPHA_LOW, ALPHA_HIGH, n)
    phi = rng.uniform(0.0, PHI_HIGH, n)
    return InvestorGroup(alpha, rng.dirichlet(np.ones(n)), phi)


def random_instance(
    rng: np.random.Generator, max_k: int, max_n: int
) -> tuple[MarketModel, InvestorGroup]:
    """Random (market, group) pair with ``2 <= k <= max_k`` and ``2 <= n <= max_n``."""
    max_k = _as_count(max_k, "max_k", 2, _INDEX_MAX)
    max_n = _as_count(max_n, "max_n", 2, _INDEX_MAX)
    k = int(rng.integers(2, max_k, endpoint=True))
    n = int(rng.integers(2, max_n, endpoint=True))
    return random_market(rng, k), random_group(rng, n)

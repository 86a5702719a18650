"""Classical mean-variance solutions without any mimicking penalty.

Provides the global minimum-variance portfolio, the frontier constants, the
frontier portfolio at a given inverse risk aversion, the closed-form
individual optimum and the fund-level aggregation across a group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .model import InvestorGroup, MarketModel


@dataclass(frozen=True)
class FrontierPoint:
    """Mean and variance of a portfolio on the efficient frontier."""

    mean: float
    variance: float


@dataclass(frozen=True, eq=False)
class MarkowitzContext:
    """Derived quantities of a market, shared by all closed-form solvers.

    ``gmvp``                global minimum-variance weights, sums to 1
    ``q``                   symmetric PSD matrix with ``q @ 1 == 0``
    ``tilt``                ``q @ mu``; scaled by an inverse risk aversion it
                            gives the optimal tilt away from ``gmvp``
    ``mu_gmv``, ``v_gmv``   mean and variance of the GMVP (``v_gmv > 0``)
    ``slope``               curvature constant ``mu' q mu >= 0`` of the
                            frontier parametrization
    ``market``              the generating :class:`MarketModel`
    """

    gmvp: np.ndarray
    q: np.ndarray
    tilt: np.ndarray
    mu_gmv: float
    v_gmv: float
    slope: float
    market: MarketModel


def context(market: MarketModel) -> MarkowitzContext:
    """Compute the GMVP, the tilt matrix and the frontier constants.

    Reuses the market's Cholesky factor ``L``: ``sigma^-1 = L^-1' L^-1``
    stays symmetric positive semidefinite, and no second factorization of
    ``sigma`` is made.
    """
    k = market.k
    try:
        l_inv = np.linalg.solve(market.cholesky, np.eye(k))
    except np.linalg.LinAlgError as exc:
        raise errors.NumericalBreakdown(f"covariance solve failed: {exc}") from exc
    sigma_inv = l_inv.T @ l_inv
    si_one = sigma_inv.sum(axis=1)
    c0 = float(si_one.sum())
    if c0 <= 0 or not np.isfinite(c0):
        raise errors.NumericalBreakdown("1' sigma^-1 1 is not positive")
    gmvp = si_one / c0
    q = sigma_inv - np.outer(si_one, si_one) / c0
    q = (q + q.T) / 2.0
    mu_gmv = float(market.mu @ si_one) / c0
    v_gmv = 1.0 / c0
    tilt = q @ market.mu
    slope = float(market.mu @ tilt)
    if slope < 0:
        # exact value is >= 0; only rounding noise may dip below
        if slope < -1e-12 * max(1.0, float(market.mu @ market.mu)) * np.max(np.abs(q)):
            raise errors.NumericalBreakdown(f"frontier slope came out negative: {slope!r}")
        slope = 0.0
    for arr in (gmvp, q, tilt):
        arr.setflags(write=False)
    return MarkowitzContext(
        gmvp=gmvp, q=q, tilt=tilt, mu_gmv=mu_gmv, v_gmv=v_gmv, slope=slope, market=market
    )


def frontier(ctx: MarkowitzContext, t: float) -> tuple[np.ndarray, FrontierPoint]:
    """Frontier portfolio ``gmvp + t * tilt`` at inverse risk aversion ``t``.

    Returns the weights and their mean ``mu_gmv + t * slope`` and variance
    ``v_gmv + t^2 * slope``.
    """
    weights = ctx.gmvp + t * ctx.tilt
    point = FrontierPoint(mean=ctx.mu_gmv + t * ctx.slope, variance=ctx.v_gmv + t * t * ctx.slope)
    return weights, point


def individual_weights(ctx: MarkowitzContext, alpha_i: float) -> tuple[np.ndarray, FrontierPoint]:
    """Optimal unit-sum weights and frontier point for risk aversion ``alpha_i``."""
    if alpha_i <= 0:
        raise errors.NonPositiveAlpha(f"alpha must be > 0, got {alpha_i!r}")
    return frontier(ctx, 1.0 / alpha_i)


def fund_aggregate(
    ctx: MarkowitzContext, group: InvestorGroup
) -> tuple[np.ndarray, float, FrontierPoint]:
    """Wealth-weighted fund portfolio of a group that ignores mimicking.

    The fund's risk aversion is the weighted harmonic mean of the individual
    ones, and its weights equal the beta-weighted average of the individual
    optima.
    """
    alpha_f = 1.0 / float(np.sum(group.beta / group.alpha))
    weights, point = frontier(ctx, 1.0 / alpha_f)
    return weights, alpha_f, point


"""Classical mean-variance solutions without any mimicking penalty.

Provides the global minimum-variance portfolio, the frontier constants and
the frontier portfolio at an inverse risk aversion ``t`` (investor ``i``
alone holds it at ``t = 1 / alpha_i``).  A group's fund is the frontier
portfolio at one scalar: ``tau_cl = beta' (1 / alpha)`` without mimicking,
and the utility at a group's optimum depends on that scalar alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .model import InvestorGroup, MarketModel, _dot


@dataclass(frozen=True)
class FrontierPoint:
    """Mean and variance of a portfolio on the efficient frontier."""

    mean: float
    variance: float


@dataclass(frozen=True, eq=False)
class MarkowitzContext:
    """Frontier constants of a market, shared by all closed-form solvers.

    ``gmvp``                global minimum-variance weights, sums to 1
    ``tilt``                ``sigma^-1 (mu - mu_gmv 1)``, sums to 0; scaled by
                            an inverse risk aversion it gives the optimal tilt
                            away from ``gmvp``
    ``mu_gmv``, ``v_gmv``   mean and variance of the GMVP (``v_gmv > 0``)
    ``slope``               curvature constant ``mu' tilt >= 0`` of the
                            frontier parametrization
    """

    gmvp: np.ndarray
    tilt: np.ndarray
    mu_gmv: float
    v_gmv: float
    slope: float


def context(market: MarketModel) -> MarkowitzContext:
    """Compute the GMVP, the frontier tilt and the frontier constants.

    With the market's Cholesky factor ``L`` (``sigma = L L'``), ``y1 = L^-1 1``
    and ``ym = L^-1 mu`` give ``1' sigma^-1 1 = y1'y1``, ``mu_gmv = y1'ym / y1'y1``
    and ``slope = |ym - mu_gmv y1|^2``, a sum of squares.  Nothing scales
    faster than ``sigma^-1``: a power-of-4 scale of ``(mu, sigma)`` keeps the
    weights' bits while every intermediate stays in the normal float range,
    and a result that is not finite raises :class:`errors.NumericalBreakdown`.
    """
    try:
        l_inv = np.linalg.solve(market.cholesky, np.eye(market.k))
    except np.linalg.LinAlgError as exc:
        raise errors.NumericalBreakdown(f"covariance solve failed: {exc}") from exc
    with np.errstate(all="ignore"):
        y1 = l_inv.sum(axis=1)
        ym = l_inv @ market.mu
        c0 = y1 @ y1
        mu_gmv = (y1 @ ym) / c0
        excess = ym - mu_gmv * y1
        slope = excess @ excess
        si_one = l_inv.T @ y1
        gmvp = si_one / si_one.sum()
        si_mu = l_inv.T @ ym
        tilt = si_mu - si_mu.sum() * gmvp
        v_gmv = 1.0 / c0
    if not (np.isfinite(tilt).all() and all(map(math.isfinite, (mu_gmv, v_gmv, slope)))):
        raise errors.NumericalBreakdown("frontier constants are not finite at this market's scale")
    gmvp.setflags(write=False)
    tilt.setflags(write=False)
    return MarkowitzContext(
        gmvp=gmvp, tilt=tilt, mu_gmv=float(mu_gmv), v_gmv=float(v_gmv), slope=float(slope)
    )


def frontier(ctx: MarkowitzContext, t: float) -> tuple[np.ndarray, FrontierPoint]:
    """Frontier portfolio ``gmvp + t * tilt`` at inverse risk aversion ``t``.

    Returns the weights and their mean ``mu_gmv + t * slope`` and variance
    ``v_gmv + t^2 * slope``.
    """
    weights = ctx.gmvp + t * ctx.tilt
    point = FrontierPoint(mean=ctx.mu_gmv + t * ctx.slope, variance=ctx.v_gmv + t * t * ctx.slope)
    return weights, point


def _classical_tau(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Penalty-free fund scalar ``tau_cl = beta' (1 / alpha)`` along the last axis.

    One group ``(n,)`` or a stack ``(..., n)``; the result keeps a trailing
    axis of length 1, like every per-group value.
    """
    return _dot(beta, 1.0 / alpha)


def _optimal_utility(ctx: MarkowitzContext, tau, beta_alpha):
    """Group utility at its optimum: ``mu_gmv + (slope tau - v_gmv beta'alpha) / 2``.

    Investor ``i`` holds ``gmvp + c_i tilt``, so the group's utility is
    ``mu_gmv + slope beta'c - (v_gmv beta'alpha + slope c'a c) / 2``, and
    the optimum ``a c = beta`` makes ``c'a c = beta'c = tau``.  Without a
    penalty ``a = diag(alpha beta)`` and ``tau = tau_cl``; with one, ``a`` is
    :mod:`mimicfund.mimicking`'s ``a_phi``.  Takes floats for one group or
    per-group arrays for a stack.
    """
    return ctx.mu_gmv + 0.5 * (ctx.slope * tau - ctx.v_gmv * beta_alpha)


def fund_aggregate(
    ctx: MarkowitzContext, group: InvestorGroup
) -> tuple[np.ndarray, float, FrontierPoint]:
    """Wealth-weighted fund portfolio of a group that ignores mimicking.

    The fund is the frontier portfolio at ``tau_cl = beta' (1 / alpha)``,
    the beta-weighted average of the individual optima; its risk aversion
    ``1 / tau_cl`` is the weighted harmonic mean of the individual ones.
    """
    tau_cl = _classical_tau(group.alpha, group.beta).item()
    weights, point = frontier(ctx, tau_cl)
    return weights, 1.0 / tau_cl, point

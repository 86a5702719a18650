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
from .model import InvestorGroup, MarketModel


def _sum(x: np.ndarray) -> np.ndarray:
    """Sum along the last (investor) axis, kept with length 1.

    numpy's summation order depends on the memory layout.  Where the last
    axis is contiguous (one group, a C-ordered stack) numpy sums each group
    pairwise, in blocks of eight; where it is strided (an investor-major
    stack, the transpose of a C-ordered ``(n, groups)`` array) it adds the
    ``n`` investor rows in turn.  The two orders differ for ``n >= 8`` and
    agree for ``n < 8``, so for the study's ``n = 2`` both compute
    ``x0 + x1``.
    """
    return np.add.reduce(x, axis=-1, keepdims=True)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_sum(x * y)``, the one inner product of a group or a stack of groups."""
    return _sum(x * y)


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
    and ``slope = |excess|^2`` for the whitened excess mean
    ``excess = ym - mu_gmv y1 = L^-1 (mu - mu_gmv 1)``, a sum of squares.
    The same vector gives ``tilt = L^-T excess = sigma^-1 (mu - mu_gmv 1)``,
    so ``L^-T`` is applied to ``y1`` and ``excess`` alone.  The tilt is
    re-centred by its mean, so ``1'tilt`` is at the rounding of the tilt's
    own entries and the columns of a weight matrix ``gmvp + c_i tilt`` sum
    to 1 even for a large ``c_i``.  Nothing scales
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
        tilt = l_inv.T @ excess
        tilt -= tilt.sum() / market.k
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

    Returns the weights, read-only, and their mean ``mu_gmv + t * slope``
    and variance ``v_gmv + t^2 * slope``, formed as ``t * (t * slope)`` so
    that ``t^2`` cannot overflow where the variance itself is finite.  Both
    funds are this portfolio, so this is their one finiteness check:
    weights, mean or variance beyond the float range raise
    :class:`errors.NumericalBreakdown`, without a numpy warning.
    """
    with np.errstate(all="ignore"):
        weights = ctx.gmvp + t * ctx.tilt
        mean, variance = ctx.mu_gmv + t * ctx.slope, ctx.v_gmv + t * (t * ctx.slope)
    if not (np.isfinite(weights).all() and math.isfinite(mean) and math.isfinite(variance)):
        raise errors.NumericalBreakdown(f"frontier fund at t = {t!r} is out of floating-point range")
    weights.setflags(write=False)
    return weights, FrontierPoint(mean=mean, variance=variance)


def _classical_tau(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Penalty-free fund scalar ``tau_cl = beta' (1 / alpha)`` along the last axis.

    One group ``(n,)`` or a stack ``(..., n)``; the result keeps a trailing
    axis of length 1, like every per-group value.  Computed without
    floating-point warnings: a subnormal ``alpha`` gives an infinite
    ``tau_cl``, which the callers check.
    """
    with np.errstate(all="ignore"):
        return _dot(beta, 1.0 / alpha)


def _fund_scalar(tau: np.ndarray, name: str) -> float:
    """The one rule of both funds: scalar ``name``, finite, positive, finite inverse."""
    value = tau.item()
    # an alpha or alpha + phi near the largest float rounds it to 2^-1024, whose inverse overflows
    if not (math.isfinite(value) and value > 0 and math.isfinite(1.0 / value)):
        raise errors.NumericalBreakdown(
            f"fund scalar {name} is {value!r}; it or its inverse is out of floating-point range"
        )
    return value


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
    :func:`_fund_scalar` checks ``tau_cl`` and its inverse, and
    :func:`frontier` the weights and point (a tiny ``alpha`` puts
    ``1 / alpha`` or ``tau_cl^2 slope`` beyond the float range).
    """
    tau_cl = _fund_scalar(_classical_tau(group.alpha, group.beta), "tau_cl")
    weights, point = frontier(ctx, tau_cl)
    return weights, 1.0 / tau_cl, point

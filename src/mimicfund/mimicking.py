"""Optimal portfolios for investors who penalize deviating from the group.

Each investor maximizes mean-variance utility minus a penalty
``(phi_i/2) (w_i - W beta)' sigma (w_i - W beta)`` on the covariance-weighted
distance between their own weights and the wealth-weighted fund aggregate.
The wealth-weighted sum of these objectives collapses into a single
trace-form mean-variance problem through the symmetrized mimicking matrix

    a_phi = diag(alpha beta) + (I - beta 1') diag(phi beta) (I - 1 beta'),

the wealth-weighted risk aversions plus the penalty's own positive
semidefinite term, so ``a_phi`` is positive definite for every valid group
(its smallest eigenvalue is at least ``min alpha_i beta_i``) and the optimum
is available in closed form.  Only the aggregate risk-aversion scalar
changes relative to the classical solution: every optimal column still lies
on the line through the GMVP spanned by the frontier tilt, and the fund
scalar ``tau = beta'c``, ``c = a_phi^-1 beta``, replaces the classical
``beta' (1 / alpha)``.  :func:`_optimum` alone computes ``c`` and ``tau``,
from three sums of positive terms, for one group or a stack of groups, so
:func:`solve`, :func:`asymptotic_alpha` and :mod:`mimicfund.study` agree
bit for bit; no ``n x n`` array is formed.  :func:`solve` costs O(n k) for
``k`` assets, the size of the weight matrix it returns.
:func:`penalized_utility`, which evaluates any ``W``, costs O(n k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import errors, markowitz
from .markowitz import FrontierPoint, MarkowitzContext, _dot, _sum
from .model import InvestorGroup, MarketModel, PortfolioMatrix


# u, the smallest subnormal; _LOSS, the largest share of tau that digits lost
# below the normal range may move
_U, _LOSS = 2.0**-1074, 2.0**-45


def _optimum(alpha: np.ndarray, beta: np.ndarray, phi: np.ndarray) -> tuple:
    """``(c, tau)``, ``c = a_phi^-1 beta``, of one group or a stack along the last axis.

    With ``g = beta / (alpha + phi)``, ``s0 = sum g``, ``t = sum g alpha``
    and ``r = sum g alpha phi``, all sums of positive terms,

        tau = beta'c = s0 / (t^2 + s0 r),   c = tau (t / s0 + phi) / (alpha + phi),

    the one formula for ``tau``.  Solving ``a_phi c = beta`` uses
    ``1 - g'phi = t``, which holds when ``sum beta = 1``; a group's wealth
    shares are checked to sum to 1 within ``BETA_SUM_TOL``.  For shares off
    by ``d = 1 - sum beta`` the exact solution has these formulas with ``t``
    replaced by ``m = t + d``, so ``tau`` is off the given shares' by about
    ``(2 t d + d^2) / (t^2 + s0 r)`` relative: of the order of ``d`` where
    ``alpha`` and ``phi`` are comparable, but about ``d^2 phi / alpha`` where
    ``alpha`` is far below ``phi`` (8.1e-4 at ``alpha = (1e-21, 1e-21)``,
    ``phi = (1, 1)``, ``beta = (0.5, 0.5 + 9e-13)``).  ``tau`` keeps a
    trailing axis of length 1, like every per-group value, so a stack row
    equals its group alone bit for bit.  Computed without floating-point
    warnings.

    Below the normal range a ``g`` or a ``g alpha`` is off by up to ``u``,
    and an ``alpha + phi`` beyond the range gives ``g = 0``.  Where that may
    move ``tau`` by more than a share ``_LOSS``, ``tau`` is NaN, which the
    callers reject: where some ``g < u / _LOSS``, or where ``n u max(phi)``,
    the most the ``g alpha`` can lose in ``r``, exceeds ``_LOSS r`` (tested as
    ``r / max(phi) < n u / _LOSS``: a product with the subnormal ``u / _LOSS``
    would be slow).
    """
    with np.errstate(all="ignore"):
        alpha_phi = alpha + phi
        g = beta / alpha_phi
        g_alpha = g * alpha
        s0 = _sum(g)
        t = _sum(g_alpha)
        r = _dot(g_alpha, phi)
        tau = s0 / (t * t + s0 * r)
        c = tau * (t / s0 + phi) / alpha_phi
        tau[np.minimum.reduce(g, axis=-1, keepdims=True) < _U / _LOSS] = np.nan
        tau[r / np.maximum.reduce(phi, axis=-1, keepdims=True) < g.shape[-1] * _U / _LOSS] = np.nan
    return c, tau


@dataclass(frozen=True, eq=False)
class MimickingSolution:
    """Closed-form optimum of the penalized group problem; every number in it is finite.

    ``w_star``        per-investor optimal weights, one column each
    ``fund_weights``  wealth-weighted aggregate ``w_star @ beta = gmvp + tilt / alpha_star_f``
    ``alpha_star_f``  aggregate risk aversion ``1 / (beta' a_phi^-1 beta)``
    ``point``         mean and variance of the fund portfolio return
    ``eu_star``       penalized aggregate utility achieved at the optimum
    """

    w_star: PortfolioMatrix
    fund_weights: np.ndarray
    alpha_star_f: float
    point: FrontierPoint
    eu_star: float


class AsymptoticAlpha(NamedTuple):
    """Large-group risk-aversion diagnostics; see :func:`asymptotic_alpha`."""

    upper: float
    classical: float
    exact_inverse: float


def solve(ctx: MarkowitzContext, group: InvestorGroup) -> MimickingSolution:
    """Closed-form solution of the penalized group problem.

    Column ``i`` of the optimum is ``gmvp + c_i * tilt`` where
    ``c = a_phi^-1 beta``, so ``W = [gmvp tilt] [1'; c']`` is one rank-two
    product of the ``k x 2`` frontier basis with the ``2 x n`` frontier
    coordinates, a single BLAS call.  The fund aggregate is the frontier
    portfolio at inverse risk aversion ``tau = beta' c``
    (:func:`markowitz.frontier`), which equals ``w_star @ beta``.  The
    achieved utility depends on ``tau`` alone
    (:func:`markowitz._optimal_utility`), so no product with ``sigma`` is
    formed.  The freshly built ``W`` is frozen and handed to
    :class:`PortfolioMatrix`, which checks it in one pass and keeps it
    without a copy.  Every number returned is finite: a ``tau`` that fails
    :func:`markowitz._fund_scalar`, a ``W`` that fails :class:`PortfolioMatrix`,
    a fund that fails :func:`markowitz.frontier`, or an ``eu_star`` beyond
    the float range raises :class:`errors.NumericalBreakdown`.
    """
    c, tau = _optimum(group.alpha, group.beta, group.phi)
    tau = markowitz._fund_scalar(tau, "tau")
    coords = np.empty((2, c.shape[0]))
    coords[0] = 1.0
    coords[1] = c
    with np.errstate(all="ignore"):  # an overflow is a non-finite entry, rejected below
        w = np.array((ctx.gmvp, ctx.tilt)).T @ coords
    w.setflags(write=False)
    try:
        w_star = PortfolioMatrix(w)
    except (errors.NonFiniteValue, errors.ConstraintViolated) as exc:
        raise errors.NumericalBreakdown(f"optimal weights fail their checks: {exc}") from exc
    fund_weights, point = markowitz.frontier(ctx, tau)
    eu_star = markowitz._optimal_utility(ctx, tau, _dot(group.beta, group.alpha).item())
    if not math.isfinite(eu_star):
        raise errors.NumericalBreakdown(
            f"utility {eu_star!r} at the optimum is out of floating-point range"
        )
    return MimickingSolution(w_star=w_star, fund_weights=fund_weights,
                             alpha_star_f=1.0 / tau, point=point, eu_star=eu_star)


def penalized_utility(
    market: MarketModel, group: InvestorGroup, weights: Union[PortfolioMatrix, np.ndarray]
) -> float:
    """Penalized aggregate utility ``beta' W' mu - tr(a_phi W' sigma W) / 2``.

    Equals the wealth-weighted sum of the individual penalized objectives for
    any unit-column-sum ``W``.  The trace is evaluated through the split of
    ``a_phi`` as ``sum_i beta_i [alpha_i w_i' sigma w_i + phi_i v_i' sigma v_i]``
    with ``v_i = w_i - W beta``, with no ``n x n`` Gram matrix.
    """
    if not isinstance(weights, PortfolioMatrix):
        weights = PortfolioMatrix(weights)
    if weights.k != market.k or weights.n != group.n:
        raise errors.DimensionMismatch(
            f"weights are {weights.k}x{weights.n}, expected {market.k}x{group.n}"
        )
    w = weights.weights
    v = w - (w @ group.beta)[:, None]
    risk = ((market.sigma @ w) * w).sum(axis=0)
    penalty = ((market.sigma @ v) * v).sum(axis=0)
    trace = group.beta @ (group.alpha * risk + group.phi * penalty)
    return float(group.beta @ (w.T @ market.mu) - 0.5 * trace)


def asymptotic_alpha(group: InvestorGroup) -> AsymptoticAlpha:
    """Aggregate risk-aversion diagnostics for large groups.

    ``upper``          ``beta'alpha + beta'phi``, an upper bound of the
                       fund risk aversion ``1/exact_inverse``
    ``classical``      the penalty-free fund risk aversion ``1 / tau_cl``, a
                       lower bound; the value of :func:`markowitz.fund_aggregate`
    ``exact_inverse``  ``tau = beta'c = beta' a_phi^-1 beta`` from
                       :func:`_optimum`, the value :func:`solve` reaches as
                       ``1/alpha_star_f``

    All three cost O(n), with no ``n x n`` matrix.  Under equal preferences
    (``alpha_i = a``, ``phi_i = p``) ``exact_inverse`` is ``1/a`` for every
    ``n`` and wealth.  ``tau`` and ``tau_cl`` pass :func:`markowitz._fund_scalar`,
    as in :func:`solve` and :func:`markowitz.fund_aggregate`, so one out of
    range raises :class:`errors.NumericalBreakdown` naming it.
    """
    tau = markowitz._fund_scalar(_optimum(group.alpha, group.beta, group.phi)[1], "tau")
    tau_cl = markowitz._fund_scalar(markowitz._classical_tau(group.alpha, group.beta), "tau_cl")
    beta = group.beta
    upper = float(beta @ group.alpha + beta @ group.phi)
    return AsymptoticAlpha(upper=upper, classical=1.0 / tau_cl, exact_inverse=tau)

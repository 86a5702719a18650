"""Optimal portfolios for investors who penalize deviating from the group.

Each investor maximizes mean-variance utility minus a penalty
``(phi_i/2) (w_i - W beta)' sigma (w_i - W beta)`` on the covariance-weighted
distance between their own weights and the wealth-weighted fund aggregate.
The wealth-weighted sum of these objectives collapses into a single
trace-form mean-variance problem through the symmetrized mimicking matrix

    a_phi = D + (u beta' + beta u') / 2,   D = diag((alpha + phi) beta),
                                           u = (phi_bar - 2 phi) beta,

a diagonal plus a rank-two term, and the optimum is available in closed
form.  Only the aggregate risk-aversion scalar changes relative to the
classical solution: every optimal column still lies on the line through the
GMVP spanned by the frontier tilt.  :class:`MimickingMatrix` keeps ``a_phi``
in this structured form, so certifying and inverting it
(Sherman-Morrison-Woodbury with a 2 x 2 capacitance matrix) cost O(n) for
``n`` investors, and :func:`solve` and :func:`penalized_utility` cost
O(n k^2) for ``k`` assets; no ``n x n`` array is formed.  The same type
holds a stack of groups, so :mod:`mimicfund.study` evaluates a whole grid
with the same Woodbury sums, certificate, ``c = a_phi^-1 beta`` and
``tau = beta'c`` as :func:`solve`, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import errors, markowitz
from .markowitz import FrontierPoint, MarkowitzContext
from .model import InvestorGroup, MarketModel, PortfolioMatrix

# Relative margin of the positive-definiteness certificate: ``delta`` is the
# difference of two products of size ``(2 + s_ub)^2``, so a smaller positive
# value is indistinguishable from rounding.
PD_RTOL = 1e-13


def _sum(x: np.ndarray) -> np.ndarray:
    """Pairwise sum along the last (investor) axis, kept with length 1."""
    return np.add.reduce(x, axis=-1, keepdims=True)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_sum(x * y)``, the one inner product of a group or a stack of groups."""
    return _sum(x * y)


class MimickingMatrix(NamedTuple):
    """The mimicking matrix of a group as a diagonal plus a rank-two term.

    The raw matrix is ``a = D + u beta'`` and its symmetrized form is
    ``a_phi = (a + a') / 2 = D + (u beta' + beta u') / 2``, with

        d = (alpha + phi) beta              the diagonal of ``D``
        u = (phi_bar - 2 phi) beta          ``phi_bar = beta' phi``

    Entrywise:

        a[i, i] = beta_i (alpha_i + phi_i) + beta_i^2 (phi_bar - 2 phi_i)
        a[i, j] = beta_i beta_j (phi_bar - 2 phi_i)          (i != j)

    Writing ``a_phi = D + U C U'`` with ``U = [u, beta]`` and
    ``C = [[0, 1/2], [1/2, 0]]``, Sherman-Morrison-Woodbury needs the two
    columns of ``D^-1 U`` and the three wealth-weighted sums of ``U' D^-1 U``:

        d_inv_beta = 1 / (alpha + phi)                      (= D^-1 beta)
        d_inv_u    = (phi_bar - 2 phi) / (alpha + phi)      (= D^-1 u)
        s_bb = beta' D^-1 beta,  s_ub = u' D^-1 beta,  s_uu = u' D^-1 u

    none of which divides by a wealth share.  ``delta =
    (2 + s_ub)^2 - s_uu s_bb`` is minus the determinant of the capacitance
    matrix; with ``D`` positive definite, ``a_phi`` is positive definite iff
    ``delta > 0`` (Haynsworth inertia additivity).  Both hold for every
    valid group (``alpha > 0``, ``beta > 0``, ``phi >= 0``).  ``certified``
    is the certificate ``alpha + phi > 0`` and ``delta > PD_RTOL (2 + s_ub)^2``.

    The fields describe one group ``(n,)`` or a stack of groups ``(..., n)``
    along the last axis, and one group is a stack of one.  Per-investor
    arrays have the groups' shape; per-group values always keep a trailing
    axis of length 1 (``(1,)`` for one group), so they broadcast against
    the per-investor arrays and a stack row equals its group alone bit for
    bit.
    """

    d: np.ndarray
    u: np.ndarray
    d_inv_beta: np.ndarray
    d_inv_u: np.ndarray
    phi_bar: np.ndarray
    s_bb: np.ndarray
    s_ub: np.ndarray
    s_uu: np.ndarray
    delta: np.ndarray
    certified: np.ndarray

    def inverse_beta(self) -> np.ndarray:
        """``c = a_phi^-1 beta`` in closed form; ``beta' c = 4 s_bb / delta``.

        ``c_i = 2 (2 + s_ub - s_bb (phi_bar - 2 phi_i)) / ((alpha_i + phi_i) delta)``.
        """
        p = 2.0 + self.s_ub
        return (2.0 / self.delta) * (p * self.d_inv_beta - self.s_bb * self.d_inv_u)


def _woodbury(alpha: np.ndarray, beta: np.ndarray, phi: np.ndarray) -> MimickingMatrix:
    """The structured mimicking matrix along the last axis, not yet checked."""
    phi_bar = _dot(beta, phi)
    alpha_phi = alpha + phi
    deviation = phi_bar - 2.0 * phi
    d_inv_beta = 1.0 / alpha_phi
    d_inv_u = deviation * d_inv_beta
    weights = beta * d_inv_beta
    s_bb = _sum(weights)
    s_ub = _dot(weights, deviation)
    s_uu = _dot(weights, deviation * deviation)
    scale = (2.0 + s_ub) ** 2
    delta = scale - s_uu * s_bb
    positive = np.logical_and.reduce(alpha_phi > 0, axis=-1, keepdims=True)
    certified = positive & (delta > PD_RTOL * scale)
    return MimickingMatrix(
        d=alpha_phi * beta,
        u=deviation * beta,
        d_inv_beta=d_inv_beta,
        d_inv_u=d_inv_u,
        phi_bar=phi_bar,
        s_bb=s_bb,
        s_ub=s_ub,
        s_uu=s_uu,
        delta=delta,
        certified=certified,
    )


@dataclass(frozen=True, eq=False)
class MimickingSolution:
    """Closed-form optimum of the penalized group problem.

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


def mimicking_matrix(group: InvestorGroup) -> MimickingMatrix:
    """Build the structured mimicking matrix and certify positive definiteness.

    The O(n) certificate is ``delta > 0`` with a positive diagonal ``d``.
    It cannot fail for a valid group; it is kept as a guard against
    tolerance pathologies and raises :class:`errors.NotPositiveDefinite`.
    """
    mm = _woodbury(group.alpha, group.beta, group.phi)
    if not mm.certified.item():
        raise errors.NotPositiveDefinite(
            "symmetrized mimicking matrix failed its positive-definiteness guard"
        )
    for arr in (mm.d, mm.u, mm.d_inv_beta, mm.d_inv_u):
        arr.setflags(write=False)
    return mm


def solve(ctx: MarkowitzContext, group: InvestorGroup) -> MimickingSolution:
    """Closed-form solution of the penalized group problem.

    Column ``i`` of the optimum is ``gmvp + c_i * tilt`` where
    ``c = a_phi^-1 beta``; the fund aggregate is the frontier portfolio at
    inverse risk aversion ``tau = beta' c`` (:func:`markowitz.frontier`),
    which equals ``w_star @ beta``.  The achieved utility is evaluated by the
    trace form of :func:`penalized_utility` rather than re-derived.
    """
    mm = mimicking_matrix(group)
    c = mm.inverse_beta()
    tau = _dot(group.beta, c).item()
    w = np.multiply.outer(ctx.tilt, c)
    w += ctx.gmvp[:, None]
    w_star = PortfolioMatrix(w)
    fund_weights, point = markowitz.frontier(ctx, tau)
    fund_weights.setflags(write=False)
    eu_star = _structured_utility(ctx.market, group, mm, w_star.weights)
    return MimickingSolution(
        w_star=w_star,
        fund_weights=fund_weights,
        alpha_star_f=1.0 / tau,
        point=point,
        eu_star=eu_star,
    )


def penalized_utility(
    market: MarketModel, group: InvestorGroup, weights: Union[PortfolioMatrix, np.ndarray]
) -> float:
    """Penalized aggregate utility ``beta' W' mu - tr(a_phi W' sigma W) / 2``.

    Equals the wealth-weighted sum of the individual penalized objectives for
    any unit-column-sum ``W``.  The trace is evaluated through the structure
    of ``a_phi`` as ``sum_i d_i w_i' sigma w_i + (W u)' sigma (W beta)``, with
    no ``n x n`` Gram matrix.
    """
    if not isinstance(weights, PortfolioMatrix):
        weights = PortfolioMatrix(weights)
    if weights.k != market.k or weights.n != group.n:
        raise errors.DimensionMismatch(
            f"weights are {weights.k}x{weights.n}, expected {market.k}x{group.n}"
        )
    return _structured_utility(market, group, mimicking_matrix(group), weights.weights)


def _structured_utility(
    market: MarketModel, group: InvestorGroup, mm: MimickingMatrix, w: np.ndarray
) -> float:
    sw = market.sigma @ w
    s_beta = sw @ group.beta
    sw *= w
    trace = mm.d @ sw.sum(axis=0) + (w @ mm.u) @ s_beta
    return float(group.beta @ (w.T @ market.mu) - 0.5 * trace)


def asymptotic_alpha(group: InvestorGroup) -> AsymptoticAlpha:
    """Aggregate risk-aversion diagnostics for large groups.

    ``upper``          ``beta'alpha + beta'phi``, an upper bound of the
                       fund risk aversion ``1/exact_inverse``
    ``classical``      the penalty-free fund risk aversion, a lower bound
    ``exact_inverse``  ``tau = beta' a_phi^-1 beta`` in closed form, the value
                       :func:`solve` reaches as ``1/alpha_star_f``

    ``exact_inverse`` uses the wealth-weighted sums of
    :class:`MimickingMatrix`,

        s_bb = sum beta_i / (alpha_i+phi_i)
        s_ub = sum beta_i (phi_bar-2phi_i) / (alpha_i+phi_i)
        s_uu = sum beta_i (phi_bar-2phi_i)^2 / (alpha_i+phi_i)

        tau  = 4 s_bb / ((2 + s_ub)^2 - s_uu s_bb)

    in O(n), with no ``n x n`` matrix.  Under equal preferences
    (``alpha_i = a``, ``phi_i = p``) it is ``1/a`` for every ``n`` and wealth.
    """
    mm = mimicking_matrix(group)
    beta = group.beta
    upper = float(beta @ group.alpha + beta @ group.phi)
    classical = 1.0 / float(np.sum(beta / group.alpha))
    return AsymptoticAlpha(
        upper=upper, classical=classical, exact_inverse=(4.0 * mm.s_bb / mm.delta).item()
    )

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
in this structured form, so certifying, inverting (Sherman-Morrison-Woodbury
with a 2 x 2 capacitance matrix) and applying it cost O(n) for ``n``
investors, and :func:`solve` and :func:`penalized_utility` cost O(n k^2)
for ``k`` assets.  No ``n x n`` array is formed unless a caller reads the
dense views ``a`` or ``a_phi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from . import errors
from .markowitz import FrontierPoint, MarkowitzContext
from .model import InvestorGroup, MarketModel, PortfolioMatrix

# Uniform-wealth detection tolerance for equal_wealth_matrix.
UNIFORM_WEALTH_TOL = 1e-12

# Relative margin of the positive-definiteness certificate: ``delta`` is the
# difference of two products of size ``(2 + s_ub)^2``, so a smaller positive
# value is indistinguishable from rounding.
PD_RTOL = 1e-13


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MimickingMatrix:
    """The group's mimicking matrix as a diagonal-plus-rank-two operator.

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
    valid group (``alpha > 0``, ``beta > 0``, ``phi >= 0``).

    ``a`` and ``a_phi`` are dense read-only ``n x n`` views built on first
    access, for tests and reference checks; the solver never reads them.
    """

    d: np.ndarray
    u: np.ndarray
    beta: np.ndarray
    d_inv_beta: np.ndarray
    d_inv_u: np.ndarray
    phi_bar: float
    s_bb: float
    s_ub: float
    s_uu: float

    @property
    def delta(self) -> float:
        """Positive-definiteness certificate ``(2 + s_ub)^2 - s_uu s_bb``."""
        return (2.0 + self.s_ub) ** 2 - self.s_uu * self.s_bb

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``a_phi @ x`` for a vector or an ``n x m`` matrix, in O(n m)."""
        x = np.asarray(x, dtype=float)
        d = self.d.reshape(self.d.shape + (1,) * (x.ndim - 1))
        return d * x + 0.5 * (
            np.multiply.outer(self.u, self.beta @ x) + np.multiply.outer(self.beta, self.u @ x)
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``a_phi^-1 @ rhs`` for a vector or an ``n x m`` matrix, in O(n m)."""
        rhs = np.asarray(rhs, dtype=float)
        d = self.d.reshape(self.d.shape + (1,) * (rhs.ndim - 1))
        y_u = self.d_inv_u @ rhs
        y_b = self.d_inv_beta @ rhs
        p = 2.0 + self.s_ub
        z_u = (p * y_b - self.s_bb * y_u) / self.delta
        z_b = (p * y_u - self.s_uu * y_b) / self.delta
        return (
            rhs / d
            - np.multiply.outer(self.d_inv_u, z_u)
            - np.multiply.outer(self.d_inv_beta, z_b)
        )

    def inverse_beta(self) -> np.ndarray:
        """``c = a_phi^-1 beta`` in closed form; ``beta' c = 4 s_bb / delta``.

        ``c_i = 2 (2 + s_ub - s_bb (phi_bar - 2 phi_i)) / ((alpha_i + phi_i) delta)``.
        """
        p = 2.0 + self.s_ub
        return (2.0 / self.delta) * (p * self.d_inv_beta - self.s_bb * self.d_inv_u)

    @cached_property
    def a(self) -> np.ndarray:
        """Dense raw mimicking matrix ``D + u beta'``."""
        return _read_only(np.diag(self.d) + np.outer(self.u, self.beta))

    @cached_property
    def a_phi(self) -> np.ndarray:
        """Dense symmetrized mimicking matrix ``(a + a') / 2``."""
        return _read_only((self.a + self.a.T) / 2.0)


@dataclass(frozen=True)
class MimickingSolution:
    """Closed-form optimum of the penalized group problem.

    ``w_star``        per-investor optimal weights, one column each
    ``fund_weights``  wealth-weighted aggregate ``w_star @ beta``
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
    """Large-group risk-aversion diagnostics; see :func:`asymptotic_alpha`.

    ``exact_inverse`` is the model's aggregate inverse risk aversion
    ``beta' a_phi^-1 beta``; ``limit_inverse`` is the harmonic form, which
    drops the rank-two part of ``a_phi`` and equals the aggregate only when
    every ``phi_i = 0``.
    """

    limit_inverse: float
    upper: float
    classical: float
    exact_inverse: float


def mimicking_matrix(group: InvestorGroup) -> MimickingMatrix:
    """Build the structured mimicking matrix and certify positive definiteness.

    The O(n) certificate is ``delta > 0`` with a positive diagonal ``d``.
    It cannot fail for a valid group; it is kept as a guard against
    tolerance pathologies and raises :class:`errors.NotPositiveDefinite`.
    """
    alpha, beta, phi = group.alpha, group.beta, group.phi
    phi_bar = float(beta @ phi)
    alpha_phi = alpha + phi
    deviation = phi_bar - 2.0 * phi
    d_inv_beta = 1.0 / alpha_phi
    d_inv_u = deviation * d_inv_beta
    weights = beta * d_inv_beta
    mm = MimickingMatrix(
        d=_read_only(alpha_phi * beta),
        u=_read_only(deviation * beta),
        beta=beta,
        d_inv_beta=_read_only(d_inv_beta),
        d_inv_u=_read_only(d_inv_u),
        phi_bar=phi_bar,
        s_bb=float(np.sum(weights)),
        s_ub=float(weights @ deviation),
        s_uu=float(weights @ (deviation * deviation)),
    )
    if not (np.all(alpha_phi > 0) and mm.delta > PD_RTOL * (2.0 + mm.s_ub) ** 2):
        raise errors.NotPositiveDefinite(
            "symmetrized mimicking matrix failed its positive-definiteness guard"
        )
    return mm


def solve(ctx: MarkowitzContext, group: InvestorGroup) -> MimickingSolution:
    """Closed-form solution of the penalized group problem.

    Column ``i`` of the optimum is ``gmvp + c_i * (q @ mu)`` where
    ``c = a_phi^-1 beta``; the fund aggregate uses the scalar
    ``beta' c`` as its inverse risk aversion.  The achieved utility is
    evaluated with :func:`penalized_utility` rather than re-derived.
    """
    c = mimicking_matrix(group).inverse_beta()
    tau = float(group.beta @ c)
    tilt = ctx.q @ ctx.market.mu
    w = ctx.gmvp[:, None] + np.outer(tilt, c)
    w_star = PortfolioMatrix(w)
    fund_weights = w @ group.beta
    fund_weights.setflags(write=False)
    point = FrontierPoint(
        mean=ctx.mu_gmv + tau * ctx.slope, variance=ctx.v_gmv + tau * tau * ctx.slope
    )
    eu_star = penalized_utility(ctx.market, group, w_star)
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
    w = weights.weights
    mm = mimicking_matrix(group)
    sw = market.sigma @ w
    trace = mm.d @ np.sum(w * sw, axis=0) + (w @ mm.u) @ (sw @ group.beta)
    return float(group.beta @ (w.T @ market.mu) - 0.5 * trace)


def equal_wealth_matrix(group: InvestorGroup) -> np.ndarray:
    """Mimicking matrix in the rescaled form available under uniform wealth.

    For ``beta_i = 1/n`` the matrix ``n (A0 + Phi) + (phi_bar I - 2 Phi) 11'``
    equals ``n^2`` times the general mimicking matrix, and
    ``1' a_phi_scaled^-1 1`` reproduces ``beta' a_phi^-1 beta``, so both
    routes yield identical fund weights.
    """
    beta = group.beta
    n = group.n
    if np.max(np.abs(beta - 1.0 / n)) > UNIFORM_WEALTH_TOL:
        raise errors.NotUniformWealth("wealth shares are not uniform")
    phi_bar = float(beta @ group.phi)
    a = n * np.diag(group.alpha + group.phi) + np.outer(
        phi_bar - 2.0 * group.phi, np.ones(n)
    )
    a.setflags(write=False)
    return a


def asymptotic_alpha(group: InvestorGroup) -> AsymptoticAlpha:
    """Aggregate risk-aversion diagnostics for large groups.

    ``limit_inverse``  the harmonic form ``sum beta_i/(alpha_i+phi_i)``; it
                       keeps only the diagonal ``D`` of ``a_phi`` and equals
                       ``beta' a_phi^-1 beta`` only when every ``phi_i = 0``
                       (equal preferences give ``1/(a+p)``, not ``1/a``)
    ``upper``          ``beta'alpha + beta'phi``; always >= ``1/limit_inverse``
                       (weighted harmonic vs arithmetic mean)
    ``classical``      the penalty-free fund risk aversion
    ``exact_inverse``  ``tau = beta' a_phi^-1 beta`` in closed form, the value
                       :func:`solve` reaches as ``1/alpha_star_f``

    ``exact_inverse`` uses the wealth-weighted sums of
    :class:`MimickingMatrix`,

        s_bb = sum beta_i / (alpha_i+phi_i)              (= limit_inverse)
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
        limit_inverse=mm.s_bb,
        upper=upper,
        classical=classical,
        exact_inverse=4.0 * mm.s_bb / mm.delta,
    )

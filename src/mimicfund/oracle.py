"""Independent verification path for the closed-form solver.

Treats the penalized group problem as a generic equality-constrained
quadratic program in the stacked unknowns ``(vec(W'), lambda)`` and solves
the dense KKT system written with Kronecker products:

    [ sigma (x) a_phi   1_k (x) I_n ] [ vec(W') ]   [ (mu (x) I_n) beta ]
    [ 1_k' (x) I_n      0           ] [ lambda  ] = [ 1_n               ]

``sigma (x) a_phi`` is positive definite, so the maximizer is unique and any
disagreement with the closed form indicates a bug on one of the two paths.
The system is the same entry for entry as the one ``np.kron`` would build,
but it is assembled blockwise in place: each block is written through a
reshaped view of one preallocated matrix, with no Kronecker temporaries.
This module imports neither :mod:`mimicfund.mimicking` nor
:mod:`mimicfund.markowitz`, not even for type hints, and shares no solver code
with them; even the mimicking matrix is rebuilt here from its entrywise
definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .model import InvestorGroup, MarketModel, PortfolioMatrix

# Cap on kn + n unknowns of the dense KKT system (O(N^3) factorization).
MAX_UNKNOWNS = 5000

# Accepted scaled residual of a returned KKT solution.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class OracleSolution:
    """KKT solution with its Lagrange multipliers and reported residual.

    Multipliers follow the convention in which the Lagrangian reads
    ``objective + lambda' (W' 1_k - 1_n)``; the symmetric system below solves
    for their negation and :func:`kkt_solve` flips the sign on return.
    """

    weights: PortfolioMatrix
    multipliers: np.ndarray
    residual: float


def entrywise_mimicking_matrix(group: InvestorGroup) -> np.ndarray:
    """Mimicking matrix of ``group`` from its entry formulas, independent of the matrix form.

    Diagonal: ``beta_i^2 (alpha_i/beta_i + (1/beta_i - 2) phi_i + phi_bar)``.
    Off-diagonal: ``beta_i beta_j (phi_bar - 2 phi_i)``.
    """
    alpha, beta, phi = group.alpha, group.beta, group.phi
    phi_bar = float(beta @ phi)
    a = np.multiply.outer(beta, beta)
    a *= (phi_bar - 2.0 * phi)[:, None]
    np.fill_diagonal(a, beta * beta * (alpha / beta + (1.0 / beta - 2.0) * phi + phi_bar))
    return a


def _kkt_system(mu, sigma, a_phi, beta) -> tuple[np.ndarray, np.ndarray]:
    """The KKT matrix and right-hand side, written blockwise into one array.

    Row ``p n + i`` of the stationarity block belongs to asset ``p`` and
    investor ``i``; viewed as ``(k, n, k, n)`` the block ``sigma (x) a_phi``
    is ``sigma[p, q] a_phi[i, j]`` and ``1_k (x) I_n`` is ``I_n`` for every
    asset ``p``.
    """
    k = mu.shape[0]
    n = beta.shape[0]
    kn = k * n
    kkt = np.zeros((kn + n, kn + n))
    # reshaping a slice only to split its axes always gives a view, so the
    # products land in kkt itself
    np.multiply(
        sigma[:, None, :, None], a_phi[None, :, None, :], out=kkt[:kn, :kn].reshape(k, n, k, n)
    )
    kkt[:kn, kn:].reshape(k, n, n)[...] = np.eye(n)
    kkt[kn:, :kn] = kkt[:kn, kn:].T
    rhs = np.concatenate([np.multiply.outer(mu, beta).ravel(), np.ones(n)])
    return kkt, rhs


def kkt_solve(market: MarketModel, group: InvestorGroup) -> OracleSolution:
    """Solve the penalized group problem through the KKT system alone.

    The size cap is checked before the ``n x n`` mimicking matrix is built,
    and the system is factored once.  A failed factorization, a residual
    ``max |KKT @ x - rhs|`` beyond ``RESIDUAL_TOL`` scaled by the right-hand
    side, or a ``W`` that fails :class:`PortfolioMatrix`'s checks (a column
    sum off 1 by more than the tolerance on an ill-conditioned valid group)
    is the oracle's failure, not the input's: it raises :class:`errors.SingularKkt`.
    """
    k, n = market.k, group.n
    size = k * n + n
    if size > MAX_UNKNOWNS:
        raise errors.SizeCapExceeded(
            f"KKT system has {size} unknowns, exceeding the cap of {MAX_UNKNOWNS}"
        )
    a = entrywise_mimicking_matrix(group)
    a_phi = (a + a.T) / 2.0
    kkt, rhs = _kkt_system(market.mu, market.sigma, a_phi, group.beta)
    try:
        x = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise errors.SingularKkt(f"KKT factorization failed: {exc}") from exc
    residual = float(np.max(np.abs(kkt @ x - rhs)))
    bound = RESIDUAL_TOL * (1.0 + float(np.max(np.abs(rhs))))
    if not residual <= bound:  # also catches NaN
        raise errors.SingularKkt(
            f"KKT residual {residual!r} exceeds {bound!r}; system is numerically singular"
        )
    # x[: k*n] is vec(W') = row-major flattening of W; the trailing block is
    # the negated multiplier under the plus-sign Lagrangian convention
    try:
        weights = PortfolioMatrix(x[: k * n].reshape(k, n))
    except (errors.NonFiniteValue, errors.ConstraintViolated) as exc:
        raise errors.SingularKkt(f"KKT weights fail their checks: {exc}") from exc
    lam = -x[k * n :]
    lam.setflags(write=False)
    return OracleSolution(weights=weights, multipliers=lam, residual=residual)

"""Validated domain types shared by all solvers.

Construction is total: every constructor either returns a value satisfying
all invariants or raises a typed :mod:`mimicfund.errors` exception.  All
values are immutable after construction (frozen dataclasses over read-only
arrays), so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors

# Relative tolerance for covariance symmetry and for the wealth-share sum.
SYMMETRY_RTOL = 1e-12
BETA_SUM_TOL = 1e-12
# Absolute tolerance on portfolio-weight column sums.
COLUMN_SUM_TOL = 1e-10


def _as_float_array(x, name: str) -> np.ndarray:
    try:
        return np.array(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise errors.ParseError(f"{name} is not an array of numbers: {exc}") from None


def _as_vector(x, name: str) -> np.ndarray:
    arr = _as_float_array(x, name)
    if arr.ndim != 1:
        raise errors.DimensionMismatch(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def _as_matrix(x, name: str) -> np.ndarray:
    arr = _as_float_array(x, name)
    if arr.ndim != 2:
        raise errors.DimensionMismatch(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise errors.NonFiniteValue(f"{name} contains a non-finite entry")


def _freeze(obj, **fields) -> None:
    for key, arr in fields.items():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
        object.__setattr__(obj, key, arr)


@dataclass(frozen=True)
class MarketModel:
    """Return moments of ``k >= 2`` risky assets.

    ``mu`` is the vector of per-period expected returns (decimal fractions);
    ``sigma`` is the symmetric positive-definite covariance matrix.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = _as_vector(self.mu, "mu")
        sigma = _as_matrix(self.sigma, "sigma")
        if sigma.shape[0] != sigma.shape[1]:
            raise errors.DimensionMismatch(f"sigma must be square, got shape {sigma.shape}")
        if sigma.shape[0] != mu.shape[0]:
            raise errors.DimensionMismatch(
                f"mu has {mu.shape[0]} entries but sigma is {sigma.shape[0]}x{sigma.shape[1]}"
            )
        _require_finite(mu, "mu")
        _require_finite(sigma, "sigma")
        if mu.shape[0] < 2:
            raise errors.TooFewAssets(f"need at least 2 assets, got {mu.shape[0]}")
        scale = np.max(np.abs(sigma))
        if np.max(np.abs(sigma - sigma.T)) > SYMMETRY_RTOL * scale:
            raise errors.NotSymmetric("sigma is not symmetric")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise errors.NotPositiveDefinite("sigma is not positive definite") from None
        _freeze(self, mu=mu, sigma=sigma)

    @property
    def k(self) -> int:
        """Number of assets."""
        return self.mu.shape[0]


@dataclass(frozen=True)
class InvestorGroup:
    """Preferences of ``n >= 2`` investors.

    ``alpha``: positive risk aversions.  ``beta``: positive wealth shares
    summing to one.  ``phi``: non-negative mimicking coefficients (zero
    recovers the classical, penalty-free case).
    """

    alpha: np.ndarray
    beta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        alpha = _as_vector(self.alpha, "alpha")
        beta = _as_vector(self.beta, "beta")
        phi = _as_vector(self.phi, "phi")
        if not (alpha.shape == beta.shape == phi.shape):
            raise errors.DimensionMismatch(
                f"alpha, beta, phi must have equal lengths, got "
                f"{alpha.shape[0]}, {beta.shape[0]}, {phi.shape[0]}"
            )
        for name, arr in (("alpha", alpha), ("beta", beta), ("phi", phi)):
            _require_finite(arr, name)
        if alpha.shape[0] < 2:
            raise errors.TooFewInvestors(f"need at least 2 investors, got {alpha.shape[0]}")
        if np.any(alpha <= 0):
            raise errors.NonPositiveAlpha("every alpha must be > 0")
        if np.any(beta <= 0):
            raise errors.NonPositiveBeta("every beta must be > 0")
        if abs(beta.sum() - 1.0) > BETA_SUM_TOL:
            raise errors.BetaNotNormalized(f"beta must sum to 1, got {beta.sum()!r}")
        if np.any(phi < 0):
            raise errors.NegativePhi("every phi must be >= 0")
        _freeze(self, alpha=alpha, beta=beta, phi=phi)

    @property
    def n(self) -> int:
        """Number of investors."""
        return self.alpha.shape[0]


@dataclass(frozen=True)
class PortfolioMatrix:
    """A ``k x n`` matrix whose column ``i`` is investor ``i``'s weights.

    Every column must sum to 1 within ``COLUMN_SUM_TOL``.
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = _as_matrix(self.weights, "weights")
        _require_finite(weights, "weights")
        sums = weights.sum(axis=0)
        off = np.max(np.abs(sums - 1.0))
        if off > COLUMN_SUM_TOL:
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise errors.ConstraintViolated(
                f"column {bad} sums to {sums[bad]!r}, violating the unit-sum constraint"
            )
        _freeze(self, weights=weights)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]


def build_market(mu, sigma) -> MarketModel:
    """Validate and build a :class:`MarketModel` from array-likes."""
    return MarketModel(mu, sigma)


def build_group(alpha, beta, phi) -> InvestorGroup:
    """Validate and build an :class:`InvestorGroup` from array-likes."""
    return InvestorGroup(alpha, beta, phi)

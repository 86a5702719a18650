"""Validated domain types shared by all solvers.

Construction is total: every constructor either returns a value satisfying
all invariants or raises a typed :mod:`mimicfund.errors` exception.  All
values are immutable after construction (frozen dataclasses over read-only
arrays), so they are safe to share across threads.  Types that hold arrays
compare and hash by identity (``eq=False``), since an array comparison has
no single truth value.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import errors

# Relative tolerance for covariance symmetry and for the wealth-share sum.
SYMMETRY_RTOL = 1e-12
BETA_SUM_TOL = 1e-12
# Absolute tolerance on portfolio-weight column sums.
COLUMN_SUM_TOL = 1e-10


# Entries that np.array(..., dtype=float) converts although they are not numbers.
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def _as_float_array(x, name: str) -> np.ndarray:
    try:
        arr = np.array(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise errors.ParseError(f"{name} is not an array of numbers: {exc}") from None
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
        # look at each distinct entry type once, not at each entry
        entries = np.array(x, dtype=object)
        if any(issubclass(kind, _NOT_NUMBERS) for kind in set(map(type, entries.flat))):
            bad = next(value for value in entries.flat if isinstance(value, _NOT_NUMBERS))
            raise errors.ParseError(f"{name} is not an array of numbers: it holds {bad!r}")
    return arr


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


def _frozen_matrix(x) -> bool:
    """Whether ``x`` is a read-only, C-contiguous float64 matrix owning its data."""
    return (
        type(x) is np.ndarray
        and x.dtype == np.float64
        and x.ndim == 2
        and x.base is None
        and x.flags.c_contiguous
        and not x.flags.writeable
    )


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise errors.NonFiniteValue(f"{name} contains a non-finite entry")


def _freeze(obj, **fields) -> None:
    for key, arr in fields.items():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
        object.__setattr__(obj, key, arr)


def _sum(x: np.ndarray) -> np.ndarray:
    """Pairwise sum along the last (investor) axis, kept with length 1."""
    return np.add.reduce(x, axis=-1, keepdims=True)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_sum(x * y)``, the one inner product of a group or a stack of groups."""
    return _sum(x * y)


def _group_faults(alpha: np.ndarray, beta: np.ndarray, phi: np.ndarray) -> list:
    """The rules of :class:`InvestorGroup` along the last axis, in check order.

    ``alpha``, ``beta`` and ``phi`` are one group (``n`` entries each) or a
    stack of groups of equal shape ``(..., n)``; one group is a stack of
    one.  Each rule is a fault ``(bad, error, message, detail)``: ``bad`` is
    a boolean array of shape ``(..., 1)`` (``(1,)`` for one group) that
    marks where the rule fails, ``error`` the exception type, and
    ``message`` its text, formatted with the entry of ``detail`` at the
    failing point unless ``detail`` is None.
    """
    n = alpha.shape[-1]
    every = functools.partial(np.logical_and.reduce, axis=-1, keepdims=True)
    some = functools.partial(np.logical_or.reduce, axis=-1, keepdims=True)
    total = _sum(beta)
    return [
        (~every(np.isfinite(alpha)), errors.NonFiniteValue,
         "alpha contains a non-finite entry", None),
        (~every(np.isfinite(beta)), errors.NonFiniteValue,
         "beta contains a non-finite entry", None),
        (~every(np.isfinite(phi)), errors.NonFiniteValue,
         "phi contains a non-finite entry", None),
        (np.full(total.shape, n < 2), errors.TooFewInvestors,
         f"need at least 2 investors, got {n}", None),
        (some(alpha <= 0), errors.NonPositiveAlpha, "every alpha must be > 0", None),
        (some(beta <= 0), errors.NonPositiveBeta, "every beta must be > 0", None),
        (abs(total - 1.0) > BETA_SUM_TOL, errors.BetaNotNormalized,
         "beta must sum to 1, got {!r}", total),
        (some(phi < 0), errors.NegativePhi, "every phi must be >= 0", None),
    ]


def _raise_first_fault(faults: list, prefix: Callable[[tuple], str] = lambda _: "") -> None:
    """Raise the first broken rule of the first failing point, if any.

    ``faults`` are laid out as in :func:`_group_faults`, each ``bad`` of
    shape ``(..., 1)``.  Points are taken in C order of the leading axes;
    ``prefix(index)`` starts the message with the name of the point.
    """
    failing = functools.reduce(operator.or_, (fault[0] for fault in faults))
    if not failing.any():
        return
    index = np.unravel_index(np.argmax(failing), failing.shape)
    for bad, error, message, detail in faults:
        if bad[index]:
            text = message if detail is None else message.format(detail[index].item())
            raise error(prefix(index) + text)


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Return moments of ``k >= 2`` risky assets.

    ``mu`` is the vector of per-period expected returns (decimal fractions);
    ``sigma`` is the symmetric positive-definite covariance matrix.
    ``cholesky`` is its lower-triangular factor ``L`` with ``sigma = L L'``,
    computed once by the positive-definiteness check; it is not a
    constructor argument.
    """

    mu: np.ndarray
    sigma: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False)

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
            cholesky = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise errors.NotPositiveDefinite("sigma is not positive definite") from None
        _freeze(self, mu=mu, sigma=sigma, cholesky=cholesky)

    @property
    def k(self) -> int:
        """Number of assets."""
        return self.mu.shape[0]


@dataclass(frozen=True, eq=False)
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
        _raise_first_fault(_group_faults(alpha, beta, phi))
        _freeze(self, alpha=alpha, beta=beta, phi=phi)

    @property
    def n(self) -> int:
        """Number of investors."""
        return self.alpha.shape[0]


@dataclass(frozen=True, eq=False)
class PortfolioMatrix:
    """A ``k x n`` matrix whose column ``i`` is investor ``i``'s weights.

    Every column must sum to 1 within ``COLUMN_SUM_TOL``, and every entry
    must be finite; both are checked on every construction.  A read-only,
    C-contiguous float64 2-D array that owns its data is kept as it is: its
    owner has frozen it and hands it over.  Every other input is copied, so
    the caller's array stays writeable and unshared.
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = self.weights
        if not _frozen_matrix(weights):
            weights = _as_matrix(weights, "weights")
        _require_finite(weights, "weights")
        sums = weights.sum(axis=0)
        off = np.max(np.abs(sums - 1.0))
        if off > COLUMN_SUM_TOL:
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise errors.ConstraintViolated(
                f"column {bad} sums to {float(sums[bad])!r}, violating the unit-sum constraint"
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

"""Validated domain types shared by all solvers.

Construction is total: every constructor either returns a value satisfying
all invariants or raises a typed :mod:`mimicfund.errors` exception.  Every
number from outside, here and in the study, moments and sampling modules,
passes :func:`_as_array` or, for an integer, :func:`_as_count`.  Every
value is a frozen dataclass over arrays made read-only after its checks,
and nothing in the package writes to a value's arrays.  The read-only
rule goes no further than that: numpy lets whoever holds an owning array
turn writing back on, so a caller that re-enables writing on a value's
array, or writes through a view made before the freeze, breaks the
value's checks.  Types that hold arrays compare and hash by identity
(``eq=False``), since an array comparison has no single truth value.  Each
type checks the one value it holds; the study's grid of groups is checked
as a grid, by :class:`study.StudyConfig`.
"""

from __future__ import annotations

import contextlib
import datetime
import reprlib
from dataclasses import dataclass, field

import numpy as np

from . import errors

# Relative tolerance for covariance symmetry and for the wealth-share sum.
SYMMETRY_RTOL = 1e-12
BETA_SUM_TOL = 1e-12
# Absolute tolerance on portfolio-weight column sums.
COLUMN_SUM_TOL = 1e-10


# Entries that np.array(..., dtype=float) converts although they are not numbers:
# strings and booleans, and dates and durations, which it counts in their unit
# (an object array holds a datetime64 or timedelta64 array's entries as datetimes,
# or as ints where the unit is finer than microseconds: _holds_dates sees those).
_NOT_NUMBERS = (str, bytes, bool, np.bool_)
_DATES = (np.datetime64, np.timedelta64, datetime.date, datetime.timedelta)
# Entries it converts with a ComplexWarning, dropping their imaginary part.
_COMPLEX = (complex, np.complexfloating)
_SHAPES = {0: "a number", 1: "a 1-D vector", 2: "a 2-D matrix"}


def _as_array(x, name: str, ndim: int) -> np.ndarray:
    """``x`` as a new float array of ``ndim`` (0, 1 or 2) dimensions.

    Non-numbers raise :class:`errors.ParseError` and another shape
    :class:`errors.DimensionMismatch`.  Complex numbers are rejected before
    the conversion, as entries it cannot convert are; strings and booleans,
    then dates and durations, which it does convert, after it.  A rejected
    value is shown by :func:`_shown`.
    """
    kind = x.dtype.kind if isinstance(x, np.ndarray) else "O"
    arr = np.array(x, dtype=float) if kind in "iuf" else _checked_array(x, name, kind)
    if arr.ndim != ndim:
        raise errors.DimensionMismatch(f"{name} must be {_SHAPES[ndim]}, got shape {arr.shape}")
    return arr


def _checked_array(x, name: str, kind: str) -> np.ndarray:
    """:func:`_as_array`'s conversion of an ``x`` that is not an integer or float array."""
    kinds = set()
    arr = None
    dated = False
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        # look at each distinct entry type once, not at each entry; ravel, not
        # .flat, whose iterator stops at 32 dimensions where arrays reach 64
        entries = np.array(x, dtype=object).ravel()
        kinds = set(map(type, entries))
        if kind not in "cmM" and not any(issubclass(entry, _COMPLEX) for entry in kinds):
            arr = np.array(x, dtype=float)
            dated = _holds_dates(x)
    if arr is not None and any(issubclass(entry, _NOT_NUMBERS) for entry in kinds):
        bad = next(value for value in entries if isinstance(value, _NOT_NUMBERS))
        raise errors.ParseError(f"{name} is not an array of numbers: it holds {_shown(bad)}")
    if arr is None or dated or any(issubclass(entry, _DATES) for entry in kinds):
        raise errors.ParseError(f"{name} is not an array of numbers: {_shown(x)}")
    return arr


def _holds_dates(x) -> bool:
    """Whether numpy's dtype discovery finds dates or durations in ``x``, not ragged, or its items."""
    kind = np.array(x).dtype.kind
    if kind == "O" and isinstance(x, (list, tuple)):
        return any(map(_holds_dates, x))
    return kind in "mM"


def _as_count(x, name: str, low: int, high=None) -> int:
    """``x`` as an ``int >= low`` within the float range; a bool or a float is not a count.

    The float range is ``float(x)``'s, which rounds to nearest: from
    ``2**1024 - 2**970`` up it overflows, and :class:`errors.ParseError`
    says so as :func:`_as_array` would.  A ``high`` ceiling, checked last,
    raises :class:`errors.ConstraintViolated` for an ``int`` above it.
    """
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < low:
        raise errors.ConstraintViolated(f"{name} must be an integer >= {low}, got {_shown(x)}")
    try:
        float(x)
    except OverflowError:
        raise errors.ParseError(f"{name} is not an array of numbers: {_shown(x)}") from None
    if high is not None and int(x) > high:
        raise errors.ConstraintViolated(f"{name} must be an integer <= {high}, got {_shown(x)}")
    return int(x)


class _Repr(reprlib.Repr):
    """``reprlib``'s abridgement, without its failures and object addresses.

    ``repr`` raises for an int past the interpreter's digit limit (4300
    digits by default), and ``reprlib`` shows an object whose ``repr``
    raises by its id.  Here such an int is shown by its sign and size in
    bits, and such an object by its type, so the message is reproducible.
    """

    def repr_int(self, x, level):
        try:
            repr(x)
        except ValueError:
            return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
        return super().repr_int(x, level)

    def repr_instance(self, x, level):
        try:
            repr(x)
        except Exception:
            return f"<{type(x).__name__} instance>"
        return super().repr_instance(x, level)


def _shown(value) -> str:
    """``value`` abridged for an error message, cut to 100 characters.

    ``reprlib`` abridges each list but not their nesting, so the cut keeps
    the message short however deep the value is.  The one way an error
    message shows a value from outside: the library's arguments, the CLI's
    flags, config values and keys, CSV asset names and cells, and
    ``SOURCE_DATE_EPOCH``.  A file path is shown in full, since the OS
    bounds its length, and ``cli._log`` escapes what would break its line;
    a number computed here is shown by ``repr``.
    """
    return _Repr().repr(value)[:100]


def _repeated(names):
    """The first of ``names`` met a second time, or None if none is.

    The one way a repeated name is found: a JSON key within one object, a
    CSV asset name and a study series label.  The names are strings, so
    None names no repeat.
    """
    seen = set()  # add returns None, so the walk stops at the first name met twice
    return next((name for name in names if name in seen or seen.add(name)), None)


def _range(arr: np.ndarray, name: str) -> tuple[float, float]:
    """Smallest and largest entry of ``arr``, ``(inf, -inf)`` if it has none.

    Raises :class:`errors.NonFiniteValue` unless every entry is finite, which
    the two extremes decide without a copy of ``arr``: a NaN propagates
    through both, and an infinite entry is one of them.
    """
    low = np.minimum.reduce(arr, axis=None, initial=np.inf)
    high = np.maximum.reduce(arr, axis=None, initial=-np.inf)
    if not (low > -np.inf and high < np.inf):
        raise errors.NonFiniteValue(f"{name} contains a non-finite entry")
    return low, high


def _freeze(obj, **fields) -> None:
    for key, arr in fields.items():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
        object.__setattr__(obj, key, arr)


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Return moments of ``k >= 2`` risky assets.

    ``mu`` is the vector of per-period expected returns (decimal fractions);
    ``sigma`` is the symmetric positive-definite covariance matrix.  Each
    array is summarized once, by its minimum and maximum, and the rules
    read that summary; the first broken rule raises, in this order: finite
    ``mu``, ``sigma``; ``k >= 2``; symmetric ``sigma`` within
    ``SYMMETRY_RTOL`` of its largest magnitude, the larger of ``-min`` and
    ``max`` (an asymmetry beyond the float range is ``inf`` and fails,
    without a numpy warning); positive definite ``sigma``.
    ``cholesky`` is its lower-triangular factor ``L`` with ``sigma = L L'``,
    computed once by the positive-definiteness check; it is not a
    constructor argument.
    """

    mu: np.ndarray
    sigma: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = _as_array(self.mu, "mu", 1)
        sigma = _as_array(self.sigma, "sigma", 2)
        if sigma.shape[0] != sigma.shape[1]:
            raise errors.DimensionMismatch(f"sigma must be square, got shape {sigma.shape}")
        if sigma.shape[0] != mu.shape[0]:
            raise errors.DimensionMismatch(
                f"mu has {mu.shape[0]} entries but sigma is {sigma.shape[0]}x{sigma.shape[1]}"
            )
        _range(mu, "mu")
        low, high = _range(sigma, "sigma")
        if mu.shape[0] < 2:
            raise errors.TooFewAssets(f"need at least 2 assets, got {mu.shape[0]}")
        # sigma - sigma' is antisymmetric, so its largest entry is its largest magnitude
        with np.errstate(over="ignore"):
            asymmetry = np.maximum.reduce(sigma - sigma.T, axis=None)
        if asymmetry > SYMMETRY_RTOL * max(-low, high):
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
    recovers the classical, penalty-free case).  Each vector is summarized
    once, by its minimum and maximum, which decide finiteness, and the
    rules read the minimum; the first broken rule raises, in this order:
    finite ``alpha``, ``beta``, ``phi``; ``n >= 2``; ``alpha > 0``;
    ``beta > 0``; ``sum beta = 1`` within ``BETA_SUM_TOL`` (a sum beyond
    the float range is ``inf``, without a numpy warning); ``phi >= 0``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        alpha = _as_array(self.alpha, "alpha", 1)
        beta = _as_array(self.beta, "beta", 1)
        phi = _as_array(self.phi, "phi", 1)
        if not (alpha.shape == beta.shape == phi.shape):
            raise errors.DimensionMismatch(
                f"alpha, beta, phi must have equal lengths, got "
                f"{alpha.shape[0]}, {beta.shape[0]}, {phi.shape[0]}"
            )
        low_alpha = _range(alpha, "alpha")[0]
        low_beta = _range(beta, "beta")[0]
        low_phi = _range(phi, "phi")[0]
        if alpha.shape[0] < 2:
            raise errors.TooFewInvestors(f"need at least 2 investors, got {alpha.shape[0]}")
        if low_alpha <= 0:
            raise errors.NonPositiveAlpha("every alpha must be > 0")
        if low_beta <= 0:
            raise errors.NonPositiveBeta("every beta must be > 0")
        with np.errstate(over="ignore"):
            total = beta.sum().item()
        if abs(total - 1.0) > BETA_SUM_TOL:
            raise errors.BetaNotNormalized(f"beta must sum to 1, got {total!r}")
        if low_phi < 0:
            raise errors.NegativePhi("every phi must be >= 0")
        _freeze(self, alpha=alpha, beta=beta, phi=phi)

    @property
    def n(self) -> int:
        """Number of investors."""
        return self.alpha.shape[0]


@dataclass(frozen=True, eq=False)
class PortfolioMatrix:
    """A ``k x n`` matrix whose column ``i`` is investor ``i``'s weights.

    Every column must sum to 1 within ``COLUMN_SUM_TOL``, and every entry
    must be finite; both are checked on every construction, in one pass
    over the matrix.  A column with a non-finite entry never has a finite
    sum, so the column sums alone decide acceptance; only a rejected
    matrix is scanned for a non-finite entry, which raises
    :class:`errors.NonFiniteValue` before the sum is blamed.  A sum of
    finite entries that comes out NaN (partial sums of ``1e308`` entries
    overflowing to ``inf`` and ``-inf``) is rejected, no numpy warning
    escapes, and a matrix without columns has none to reject.  A
    read-only, C-contiguous float64 2-D array that owns its data is kept
    as it is: its owner has frozen it and hands it over, under the module's
    read-only rule.  :func:`mimicking.solve`, which builds ``W`` fresh, is
    the package's one such caller.  Every other input is copied, so the
    caller's array stays writeable and unshared.
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = self.weights
        if not (type(weights) is np.ndarray and weights.dtype == np.float64 and weights.ndim == 2
                and weights.base is None and weights.flags.c_contiguous
                and not weights.flags.writeable):
            weights = _as_array(weights, "weights", 2)
        with np.errstate(all="ignore"):
            sums = weights.sum(axis=0)
            off = np.abs(sums - 1.0)
        if not off.max(initial=0.0) <= COLUMN_SUM_TOL:  # also catches NaN
            _range(weights, "weights")
            bad = int(np.argmax(off))
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

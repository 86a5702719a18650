"""CSV ingestion of return histories and sample-moment estimation.

File format: UTF-8, comma-separated, first row is the asset-name header,
each following row holds one period's simple returns as decimal fractions,
in chronological order.  Decimal point is '.', no thousands separators.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from .model import MarketModel, build_market


@dataclass(frozen=True, eq=False)
class ReturnSample:
    """A ``T x k`` matrix of observed per-period returns with asset names.

    Requires ``T >= k + 2`` (sample covariance is only generically positive
    definite for T > k; one extra row of margin) and finite entries.
    """

    returns: np.ndarray
    asset_names: tuple[str, ...]

    def __post_init__(self):
        arr = np.array(self.returns, dtype=float)
        if arr.ndim != 2:
            raise errors.DimensionMismatch(f"returns must be 2-D, got shape {arr.shape}")
        names = tuple(str(s) for s in self.asset_names)
        if len(names) != arr.shape[1]:
            raise errors.DimensionMismatch(
                f"{len(names)} asset names for {arr.shape[1]} return columns"
            )
        if not np.all(np.isfinite(arr)):
            row, col = np.argwhere(~np.isfinite(arr))[0]
            raise errors.NonFiniteValue(
                f"non-finite return at observation {row + 1}, column {col + 1}"
            )
        if arr.shape[0] < arr.shape[1] + 2:
            raise errors.TooFewObservations(
                f"need at least k + 2 = {arr.shape[1] + 2} observations, got {arr.shape[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "returns", arr)
        object.__setattr__(self, "asset_names", names)

    @property
    def t(self) -> int:
        """Observation count."""
        return self.returns.shape[0]

    @property
    def k(self) -> int:
        """Asset count."""
        return self.returns.shape[1]


def load_csv(path) -> ReturnSample:
    """Parse a return-history CSV into a validated :class:`ReturnSample`.

    Parse failures name the offending row (1-based physical line, header is
    row 1) and column.  The data rows are parsed by one ``np.loadtxt`` call;
    a file it does not read as exactly the rows the per-cell parser would
    goes to that parser, which then decides the value or the error.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            body = handle.read()
    except OSError as exc:
        raise errors.IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if header is None:
        raise errors.ParseError(f"{path}: file is empty")
    header = [cell.strip() for cell in header]
    if not header or any(not name for name in header):
        raise errors.ParseError(f"{path}: row 1: header must name every column")
    k = len(header)
    returns = _loadtxt(body, k)
    if returns is None:
        returns = _parse_cells(path, csv.reader(io.StringIO(body, newline="")), k)
    return ReturnSample(returns=returns, asset_names=tuple(header))


def _loadtxt(body: str, k: int) -> Optional[np.ndarray]:
    r"""The data rows parsed by ``np.loadtxt``, or None to leave them to ``float``.

    The rows are kept only where they are exactly what the per-cell parser
    reads:

    * ``np.loadtxt`` ends lines only at ``\n`` and skips blank ones, while
      ``str.splitlines`` ends them also at every other line ending ``csv``
      knows, so equal counts mean one row per physical line;
    * with no quote and no comment character it fails on a quoted cell, a
      ``#`` or an empty cell, and parses a plain decimal to the value
      ``float`` gives;
    * a non-finite value is left to ``float`` for its error message.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            returns = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if returns.shape != (len(body.splitlines()), k) or not np.isfinite(returns).all():
        return None
    return returns


def _parse_cells(path, rows, k: int) -> np.ndarray:
    """Data rows parsed cell by cell; the reference parser and its errors."""
    values = []
    for line_no, row in enumerate(rows, start=2):
        if len(row) != k:
            raise errors.ParseError(
                f"{path}: row {line_no}: expected {k} fields, got {len(row)}"
            )
        parsed = []
        for col_no, cell in enumerate(row, start=1):
            text = cell.strip()
            if not text:
                raise errors.ParseError(f"{path}: row {line_no}, column {col_no}: empty cell")
            try:
                value = float(text)
            except ValueError:
                raise errors.ParseError(
                    f"{path}: row {line_no}, column {col_no}: not a number: {text!r}"
                ) from None
            if not math.isfinite(value):
                raise errors.NonFiniteValue(
                    f"{path}: row {line_no}, column {col_no}: non-finite value {text!r}"
                )
            parsed.append(value)
        values.append(parsed)
    return np.array(values, dtype=float).reshape(len(values), k)


def estimate(sample: ReturnSample, periods_per_year: Optional[int] = None) -> MarketModel:
    """Sample moments of a return history, optionally annualized.

    Means are column averages, the covariance uses the unbiased ``T - 1``
    divisor; with ``periods_per_year = P`` both moments are scaled by ``P``
    (i.i.d. convention).  The result passes full market validation, so
    degenerate data surfaces as :class:`errors.NotPositiveDefinite`.
    """
    mu = sample.returns.mean(axis=0)
    sigma = np.cov(sample.returns, rowvar=False, ddof=1)
    sigma = np.atleast_2d(sigma)
    if periods_per_year is not None:
        if not isinstance(periods_per_year, (int, np.integer)) or periods_per_year < 1:
            raise errors.ConstraintViolated(
                f"periods_per_year must be a positive integer, got {periods_per_year!r}"
            )
        mu = mu * periods_per_year
        sigma = sigma * periods_per_year
    return build_market(mu, sigma)

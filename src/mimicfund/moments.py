"""Input files, CSV ingestion of return histories and sample-moment estimation.

File format: UTF-8, comma-separated, first row is the asset-name header,
each following row holds one period's simple returns as decimal fractions,
in chronological order.  Decimal point is '.', no thousands separators.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import reprlib
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from .model import MarketModel, _as_array, _as_count, _freeze, build_market


@dataclass(frozen=True, eq=False)
class ReturnSample:
    """A ``T x k`` matrix of observed per-period returns with asset names.

    Requires ``T >= k + 2`` (sample covariance is only generically positive
    definite for T > k; one extra row of margin) and finite entries.
    ``returns`` passes :func:`model._as_array`; ``asset_names`` must be a
    tuple or a list, since a string would be split into its characters.
    """

    returns: np.ndarray
    asset_names: tuple[str, ...]

    def __post_init__(self):
        arr = _as_array(self.returns, "returns", 2)
        names = self.asset_names
        if not isinstance(names, (tuple, list)):
            raise errors.ParseError(f"asset_names must be a tuple or a list, got {reprlib.repr(names)}")
        names = tuple(str(s) for s in names)
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
        _freeze(self, returns=arr, asset_names=names)

    @property
    def t(self) -> int:
        """Observation count."""
        return self.returns.shape[0]

    @property
    def k(self) -> int:
        """Asset count."""
        return self.returns.shape[1]


def read_input(path) -> tuple[str, str]:
    """The UTF-8 text of an input file and the sha256 of the very bytes it decodes.

    The one reader of the package's input files, the CLI's configs included.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    except OSError as exc:
        raise errors.IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"{path}: not UTF-8 text: {exc}") from None


def load_csv(path) -> ReturnSample:
    """:func:`parse_csv` of the return-history CSV at ``path``, read by :func:`read_input`."""
    return parse_csv(path, read_input(path)[0])


def parse_csv(path, text: str) -> ReturnSample:
    """Parse ``text``, the return-history CSV read from ``path``, into a :class:`ReturnSample`.

    Parse failures name ``path``, the offending row (1-based physical line,
    header is row 1) and column.  One ``np.loadtxt`` call parses the data
    rows; a file it does not read as exactly the rows the per-cell parser
    would goes to that parser, which then decides the value or the error.
    """
    stream = io.StringIO(text, newline="")
    header = next(csv.reader(stream), None)
    body = stream.read()
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
    (i.i.d. convention); ``P`` passes :func:`model._as_count`.  The result
    passes full market validation, so degenerate data surfaces as
    :class:`errors.NotPositiveDefinite` and an overflowing moment as
    :class:`errors.NonFiniteValue`, with no warning.
    """
    scale = (1.0 if periods_per_year is None
             else float(_as_count(periods_per_year, "periods_per_year", 1)))
    with np.errstate(all="ignore"):  # a non-finite moment fails the market's check
        mu = sample.returns.mean(axis=0) * scale
        sigma = np.atleast_2d(np.cov(sample.returns, rowvar=False, ddof=1)) * scale
    return build_market(mu, sigma)

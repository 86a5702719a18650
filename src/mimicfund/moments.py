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
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from .model import MarketModel, _as_array, _as_count, _freeze, _shown


@dataclass(frozen=True, eq=False)
class ReturnSample:
    """A ``T x k`` matrix of observed per-period returns with asset names.

    Requires ``T >= k + 2`` (sample covariance is only generically positive
    definite for T > k; one extra row of margin) and finite entries.
    ``returns`` passes :func:`model._as_array`, which copies it, so the
    caller's array stays writeable and unshared; ``asset_names`` must be a
    tuple or a list, since a string would be split into its characters.
    """

    returns: np.ndarray
    asset_names: tuple[str, ...]

    def __post_init__(self):
        arr = _as_array(self.returns, "returns", 2)
        names = self.asset_names
        if not isinstance(names, (tuple, list)):
            raise errors.ParseError(f"asset_names must be a tuple or a list, got {_shown(names)}")
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
    A leading UTF-8 byte-order mark is not text; the digest still covers it.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return data.decode("utf-8-sig"), hashlib.sha256(data).hexdigest()
    except OSError as exc:
        raise errors.IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"{path}: not UTF-8 text: {exc}") from None


def load_csv(path) -> ReturnSample:
    """:func:`parse_csv` of the return-history CSV at ``path``, read by :func:`read_input`."""
    return parse_csv(path, read_input(path)[0])


def parse_csv(path, text: str) -> ReturnSample:
    r"""Parse ``text``, the return-history CSV read from ``path``, into a :class:`ReturnSample`.

    Parse failures name ``path``, the offending row by the 1-based physical
    line it starts on (the header starts on line 1; a quoted newline or a
    ``\r`` ends a line too), and the column.  One ``np.loadtxt`` call parses
    the data rows; a file it does not read as exactly the rows the per-cell
    parser would goes to that parser, which then decides the value or the
    error.  The header is the first line split at commas; ``csv`` reads it
    only when it holds a quote or a ``\r`` before its line ending.  Besides
    ``text``, a parse holds the body after the header, one list of the
    body's lines, the parsed array and the :class:`ReturnSample`'s copy of
    it; the ``io.StringIO`` copies ``csv`` reads, at up to four bytes a
    character, are made only on those two detours.
    """
    head, _, body = text.partition("\n")
    head = head.removesuffix("\r")
    first = 2  # the physical line the body starts on
    if '"' in head or "\r" in head:  # csv decides where a quoted or \r-ended header ends
        stream = io.StringIO(text, newline="")
        reader = csv.reader(stream)
        header = next(reader, None)
        body = stream.read()
        first = reader.line_num + 1
    else:
        header = head.split(",") if text else None
    if header is None:
        raise errors.ParseError(f"{path}: file is empty")
    header = [cell.strip() for cell in header]
    if not header or any(not name for name in header):
        raise errors.ParseError(f"{path}: row 1: header must name every column")
    if len(set(header)) < len(header):
        name = next(name for index, name in enumerate(header) if name in header[:index])
        raise errors.ParseError(f"{path}: row 1: asset name {name!r} repeats")
    k = len(header)
    returns = _loadtxt(body, k)
    if returns is None:
        returns = _parse_cells(path, body, k, first)
    return ReturnSample(returns=returns, asset_names=tuple(header))


def _loadtxt(body: str, k: int) -> Optional[np.ndarray]:
    r"""The data rows parsed by ``np.loadtxt``, or None to leave them to ``float``.

    ``body`` is split at ``\n`` only, and the rows are kept only where they
    are exactly what the per-cell parser reads:

    * ``np.loadtxt`` takes each line as one row, drops a final ``\r`` as
      ``csv`` does, fails on any other ``\r`` (where ``csv`` would end a row)
      and skips an empty line, so one row per line means the same rows;
    * with no quote and no comment character it fails on a quoted cell, a
      ``#`` or an empty cell, and parses a plain decimal to the value
      ``float`` gives;
    * a non-finite value is left to ``float`` for its error message.
    """
    lines = body.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty rest after a final \n is no line
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            returns = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if returns.shape != (len(lines), k) or not np.isfinite(returns).all():
        return None
    return returns


def _parse_cells(path, body: str, k: int, first: int) -> np.ndarray:
    """Data rows parsed cell by cell; the reference parser and its errors.

    ``body`` starts on physical line ``first``, and an error names a row by
    the line it starts on, which ``csv`` counts for a row that spans lines.
    """
    rows = csv.reader(io.StringIO(body, newline=""))
    values = []
    line_no = first
    for row in rows:
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
        line_no = first + rows.line_num
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
    return MarketModel(mu, sigma)

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
from typing import Optional

import numpy as np

from . import errors
from .model import MarketModel, _as_array, _as_count, _shown


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


def load_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """:func:`parse_csv` of the return-history CSV at ``path``, read by :func:`read_input`."""
    return parse_csv(path, read_input(path)[0])


def parse_csv(path, text: str) -> tuple[tuple[str, ...], np.ndarray]:
    r"""Parse ``text``, the return-history CSV read from ``path``, into names and returns.

    Returns the header's asset names, stripped, as a tuple, and the ``T x k``
    float matrix of the data rows, one column per name.  Whether there are
    enough rows is :func:`estimate`'s rule, not the parser's.

    Parse failures name ``path``, the offending row by the 1-based physical
    line it starts on (the header starts on line 1; a quoted newline or a
    ``\r`` ends a line too), and the column.  One ``np.loadtxt`` call parses
    the data rows; a file it does not read as exactly the rows the per-cell
    parser would goes to that parser, which then decides the value or the
    error.  The header is the first line split at commas; ``csv`` reads it
    only when it holds a quote or a ``\r`` before its line ending.  Besides
    ``text``, a parse holds the body after the header, one list of the
    body's lines and the parsed array; the ``io.StringIO`` copies ``csv``
    reads, at up to four bytes a character, are made only on those two
    detours.
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
        seen = set()  # add returns None, so the first name met twice is found in one pass
        name = next(name for name in header if name in seen or seen.add(name))
        raise errors.ParseError(f"{path}: row 1: asset name {_shown(name)} repeats")
    k = len(header)
    returns = _loadtxt(body, k)
    if returns is None:
        returns = _parse_cells(path, body, k, first)
    return tuple(header), returns


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
    * a non-finite value is left to ``float`` for its error message;
    * a body with no line, or whose first line is empty or a lone ``\r``,
      goes to the per-cell parser unread: ``np.loadtxt`` would skip that
      line, and on a body of only such lines it would warn.  So no warning
      is raised and no warning filter is touched.
    """
    lines = body.split("\n")
    if lines[0] in ("", "\r"):  # also a body with no line, where lines == [""]
        return None
    if not lines[-1]:
        lines.pop()  # the empty rest after a final \n is no line
    try:
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
                raise errors.ParseError(f"{path}: row {line_no}, column {col_no}: not a number: "
                                        f"{_shown(text)}") from None
            if not math.isfinite(value):
                raise errors.NonFiniteValue(f"{path}: row {line_no}, column {col_no}: "
                                            f"non-finite value {_shown(text)}")
            parsed.append(value)
        values.append(parsed)
        line_no = first + rows.line_num
    return np.array(values, dtype=float).reshape(len(values), k)


def estimate(returns, periods_per_year: Optional[int] = None) -> MarketModel:
    """Sample moments of a ``T x k`` return history, optionally annualized.

    ``returns`` passes :func:`model._as_array` as a 2-D matrix, which copies
    it, and must then hold finite entries (the first bad one is named by
    observation and column) and ``T >= k + 2`` rows (a sample covariance is
    only generically positive definite for ``T > k``; one extra row of
    margin), else :class:`errors.TooFewObservations`.  Means are column
    averages, the covariance uses the unbiased ``T - 1`` divisor; with
    ``periods_per_year = P`` both moments are scaled by ``P`` (i.i.d.
    convention); ``P`` passes :func:`model._as_count`.  The result passes
    full market validation, so degenerate data surfaces as
    :class:`errors.NotPositiveDefinite` and an overflowing moment as
    :class:`errors.NonFiniteValue`, with no warning.
    """
    returns = _as_array(returns, "returns", 2)
    if not np.isfinite(returns).all():
        row, col = np.argwhere(~np.isfinite(returns))[0]
        raise errors.NonFiniteValue(f"non-finite return at observation {row + 1}, column {col + 1}")
    t, k = returns.shape
    if t < k + 2:
        raise errors.TooFewObservations(f"need at least k + 2 = {k + 2} observations, got {t}")
    scale = (1.0 if periods_per_year is None
             else float(_as_count(periods_per_year, "periods_per_year", 1)))
    with np.errstate(all="ignore"):  # a non-finite moment fails the market's check
        mu = returns.mean(axis=0) * scale
        sigma = np.atleast_2d(np.cov(returns, rowvar=False, ddof=1)) * scale
    return MarketModel(mu, sigma)

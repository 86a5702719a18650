import csv
import enum
import hashlib
import io
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicfund import errors, moments
from mimicfund.moments import estimate, load_csv


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_well_formed_file(self, returns_csv):
        names, returns, _ = load_csv(returns_csv)
        assert names == ("A", "B")
        assert returns.shape == (60, 2) and returns.dtype == np.float64
        parsed_names, parsed = moments.parse_csv(returns_csv.read_text())
        assert parsed_names == names
        np.testing.assert_array_equal(parsed, returns)

    def test_blank_cell_names_its_row(self, tmp_path):
        lines = ["A,B"] + ["0.01,0.02"] * 20
        lines[16] = "0.01,"  # physical line 17
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(errors.ParseError, match="row 17"):
            load_csv(path)

    def test_non_numeric_cell_named(self, tmp_path):
        lines = ["A,B", "0.01,0.02", "0.01,oops", "0.0,0.0", "0.0,0.0"]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(errors.ParseError, match="row 3, column 2"):
            load_csv(path)

    def test_ragged_row_named(self, tmp_path):
        lines = ["A,B", "0.01,0.02", "0.01,0.02,0.03", "0.0,0.0"]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(errors.ParseError, match="row 3"):
            load_csv(path)

    def test_non_finite_value_rejected(self, tmp_path):
        lines = ["A,B", "0.01,0.02", "0.01,nan", "0.0,0.0", "0.0,0.0"]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(errors.NonFiniteValue, match="row 3"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_infinite_value_named(self, tmp_path, cell):
        # the first bad cell in row-major order is the one reported
        lines = ["A,B", "0.01,0.02", f"0.01,{cell}", f"{cell},0.0", "0.0,0.0"]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        message = f"row 3, column 2: non-finite value '{cell}'"
        with pytest.raises(errors.NonFiniteValue, match=message):
            load_csv(path)

    def test_too_few_observations(self, tmp_path):
        # T == k violates T >= k + 2: the parse keeps the rows, estimate rejects them
        path = write_csv(tmp_path, "A,B\n0.01,0.02\n0.03,0.04\n")
        names, returns, _ = load_csv(path)
        assert names == ("A", "B") and returns.shape == (2, 2)
        message = "^need at least k \\+ 2 = 4 observations, got 2$"
        with pytest.raises(errors.TooFewObservations, match=message):
            estimate(returns)

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.IoError):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(errors.ParseError):
            load_csv(write_csv(tmp_path, ""))

    def test_byte_order_mark_is_not_data(self, returns_csv, tmp_path):
        # Excel's "CSV UTF-8" starts with a BOM; the digest still covers its bytes
        data = b"\xef\xbb\xbf" + returns_csv.read_bytes()
        path = tmp_path / "bom.csv"
        path.write_bytes(data)
        plain_names, plain, _ = load_csv(returns_csv)
        marked_names, marked, digest = load_csv(path)
        assert marked_names == plain_names == ("A", "B")
        want, got = estimate(plain), estimate(marked)
        np.testing.assert_array_equal(got.mu, want.mu)
        np.testing.assert_array_equal(got.sigma, want.sigma)
        assert digest == hashlib.sha256(data).hexdigest()

    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"A,B\n\xff\xfe,1\n")
        with pytest.raises(errors.ParseError, match="latin.csv: not UTF-8"):
            load_csv(path)


def oversized_field_texts():
    """CSV texts, each with one field past ``csv``'s limit, and the row that holds it."""
    big = "1" * (csv.field_size_limit() + 1)
    return [
        # np.loadtxt reads the digits as inf, so the per-cell parser reads the row
        ("A,B\n0.1,0.2\n" + big + ",0.3\n0.1,0.2\n", 3),
        ('"' + big + '",B\n0.1,0.2\n', 1),
        ('A,B\n0.1,0.2\n"' + big + '",0.3\n', 3),
        ('A,B\n"0.1\n",0.2\n' + big + ",0.3\n", 4),
    ]


class TestCsvFailures:
    @pytest.mark.parametrize(
        "text, row", oversized_field_texts(),
        ids=["unquoted-cell", "quoted-name", "quoted-cell", "after-a-quoted-newline"],
    )
    def test_oversized_field_names_its_row(self, text, row):
        message = f"^row {row}: field larger than field limit \\({csv.field_size_limit()}\\)$"
        with pytest.raises(errors.ParseError, match=message):
            moments.parse_csv(text)

    def test_nul_in_a_cell_names_its_row(self):
        # csv before Python 3.11 fails on the line; later ones hand the cell to float
        message = ("row 3: line contains NUL" if sys.version_info < (3, 11)
                   else "row 3, column 2: not a number")
        with pytest.raises(errors.ParseError, match=f"^{message}"):
            moments.parse_csv("A,B\n0.1,0.2\n0.3,0.4\x00\n0.5,0.6\n")


def load_by_cells(monkeypatch, path):
    """``load_csv`` with the ``np.loadtxt`` fast path turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(moments, "_loadtxt", lambda body, k: None)
        return load_csv(path)


def fell_back(*args):
    raise AssertionError("a well-formed file reached the per-cell parser")


def outcome(load, path):
    """The rows ``load`` parses and :func:`estimate` accepts, as the CLI
    reads them, or the error class and message of either."""
    try:
        returns = load(path)[1]
        estimate(returns)
    except errors.ValidationError as exc:
        return type(exc), str(exc).replace(str(path), "<path>")
    return returns.tolist()


ROWS = ["0.01,0.02", "0.03,-0.01", "0.00,0.05", "-0.02,0.01"]
VALUES = [[0.01, 0.02], [0.03, -0.01], [0.0, 0.05], [-0.02, 0.01]]
# str.splitlines ends a line at each of these, csv at none: inside a row
# they are white space around a cell
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


class TestLoadtxtFastPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_both_paths_agree_on_well_formed_files(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        k, t = int(rng.integers(1, 6)), int(rng.integers(8, 40))
        values = rng.normal(0.0, 0.05, (t, k)) * 10.0 ** rng.integers(-6, 3, (t, k))
        digits = int(rng.integers(1, 18))
        cells = [[f"{x:.{digits}g}" for x in row] for row in values]
        newline = "\r\n" if seed % 2 else "\n"
        header = ",".join(f"asset {j}" for j in range(k))
        body = newline.join(",".join(row) for row in cells) + newline
        path = write_csv(tmp_path, header + newline + body)
        with monkeypatch.context() as patch:
            patch.setattr(moments, "_parse_cells", fell_back)
            fast = load_csv(path)[1]
        np.testing.assert_array_equal(fast, load_by_cells(monkeypatch, path)[1])
        np.testing.assert_array_equal(fast, [[float(c) for c in row] for row in cells])

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("A,B\n1_000,0.02\n" + "\n".join(ROWS[1:]) + "\n",
             [[1000.0, 0.02], [0.03, -0.01], [0.0, 0.05], [-0.02, 0.01]]),
            ("A,B\n 0.01 ,\t0.02 \n" + "\n".join(ROWS[1:]) + "\n", VALUES),
            ("A,B\n" + "\n".join(ROWS[:2] + ["0.01,"] + ROWS[2:]) + "\n",
             (errors.ParseError, "<path>: row 4, column 2: empty cell")),
            ("A,B\n" + "\n".join(ROWS[:2] + ["0.01,0.02,0.03"] + ROWS[2:]) + "\n",
             (errors.ParseError, "<path>: row 4: expected 2 fields, got 3")),
            ("A,B\n" + "\n".join(ROWS[:2] + [""] + ROWS[2:]) + "\n",
             (errors.ParseError, "<path>: row 4: expected 2 fields, got 0")),
            ("A,B\n" + "\n".join(ROWS[:1] + ["#,0.02"] + ROWS[1:]) + "\n",
             (errors.ParseError, "<path>: row 3, column 1: not a number: '#'")),
            ("A,B\n" + "\n".join(ROWS[:1] + ["0.01,inf"] + ROWS[1:]) + "\n",
             (errors.NonFiniteValue, "<path>: row 3, column 2: non-finite value 'inf'")),
            ("A,B\n",
             (errors.TooFewObservations, "need at least k + 2 = 4 observations, got 0")),
            # the one body on which np.loadtxt's matrix was kept: no line, k = 1
            ("A\n", (errors.TooFewObservations, "need at least k + 2 = 3 observations, got 0")),
            # bodies of blank lines only, on which np.loadtxt would warn
            ("A,B\n\n\n", (errors.ParseError, "<path>: row 2: expected 2 fields, got 0")),
            ("A,B\r\n\r\n", (errors.ParseError, "<path>: row 2: expected 2 fields, got 0")),
            ("A\n\n", (errors.ParseError, "<path>: row 2: expected 1 fields, got 0")),
            ("A, A \n" + "\n".join(ROWS) + "\n",
             (errors.ParseError, "<path>: row 1: asset name 'A' repeats")),
            # the name named is the first one met a second time
            ("A,B,B,A\n" + "\n".join(ROWS) + "\n",
             (errors.ParseError, "<path>: row 1: asset name 'B' repeats")),
            ("A,B\r" + "\r".join(ROWS) + "\r", VALUES),
            ('"A\n0.5",B\n' + "\n".join(ROWS) + "\n", VALUES),
            ("A,B\r\n" + "\r\n".join(ROWS) + "\r\n", VALUES),
            ('"A","B"\r\n' + "\r\n".join(ROWS) + "\r\n", VALUES),
            ("A,B\n" + ROWS[0] + "\r" + "\n".join(ROWS[1:]) + "\n", VALUES),
            ("A,B\n" + "\n".join(ROWS[:2] + ["\r"] + ROWS[2:]) + "\n",
             (errors.ParseError, "<path>: row 4: expected 2 fields, got 0")),
            # rows are named by the physical line they start on
            ('A,B\n"1\n",2\nx,3\n', (errors.ParseError, "<path>: row 4, column 1: not a number: 'x'")),
            ('"A\nA",B\n0.1,0.2\n0.3,x\n',
             (errors.ParseError, "<path>: row 4, column 2: not a number: 'x'")),
            *[("A,B\n" + "\n".join([ROWS[0].replace(",", char + ",")] + ROWS[1:]) + "\n", VALUES)
              for char in SPLITLINES_ONLY],
        ],
        ids=["underscore", "padded", "empty-cell", "ragged", "blank-line", "hash", "inf",
             "header-only", "one-name-header-only", "blank-lines-only", "crlf-blank-line-only",
             "one-name-blank-line-only", "repeated-name", "first-name-met-twice", "cr-line-ends",
             "header-quoting-a-newline", "crlf-header",
             "quoted-crlf-header", "lone-cr-between-rows", "cr-only-line",
             "row-quoting-a-newline", "header-quoting-a-newline-then-a-bad-cell",
             *[f"{ord(char):#x}-in-a-row" for char in SPLITLINES_ONLY]],
    )
    def test_edge_cases_keep_the_cell_parser_result(self, tmp_path, monkeypatch, text, expected):
        path = write_csv(tmp_path, text)
        assert outcome(load_csv, path) == expected
        assert outcome(lambda p: load_by_cells(monkeypatch, p), path) == expected


# characters that csv, str.splitlines or np.loadtxt treat specially;
# the weights keep fatal ones rare enough that about a tenth of the drawn
# texts parse and a third reach the end of the fast path
ODD_CHARACTERS = SPLITLINES_ONLY + ['"', "#", "\r", " "]
NUMBERS = ["0.01", "-0", "3", "1e-3", ".25", "-7.5e2"] * 10 + ["1_0", "inf", ""]
LINE_ENDINGS = ["\n"] * 24 + ["\r\n"] * 6 + ["\r", "\n\n", "\n\r\n"]


@st.composite
def csv_texts(draw):
    """Return-history texts near the edges of both parsers: odd characters
    around cells and names, every line ending, blank lines and ragged rows."""
    noise = st.sampled_from([""] * 40 + ODD_CHARACTERS)

    def line(words):
        cells = [st.tuples(noise, word, noise).map("".join) for word in words]
        return st.tuples(st.tuples(*cells).map(",".join), st.sampled_from(LINE_ENDINGS)).map("".join)

    k = draw(st.integers(1, 3))
    number = st.sampled_from(NUMBERS)
    rows = st.sampled_from([k] * 12 + [k + 1]).flatmap(lambda width: line([number] * width))
    # distinct names, so that the rows, not a repeated name, decide most outcomes
    names = draw(st.permutations(["A", "B", "C"]))[:k]
    header = draw(line([st.just(name) for name in names]))
    return header + "".join(draw(st.lists(rows, min_size=k + 1, max_size=k + 4)))


def parsed(text):
    """``parse_csv``'s value bits and names, or its error class and message."""
    try:
        names, returns = moments.parse_csv(text)
    except errors.ValidationError as exc:
        return type(exc), str(exc)
    header = next(csv.reader(io.StringIO(text, newline="")))
    assert names == tuple(name.strip() for name in header)
    return names, returns.shape, returns.tobytes()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=csv_texts())
def test_fast_path_matches_the_cell_parser(text):
    with mock.patch.object(moments, "_loadtxt", lambda body, k: None):
        by_cells = parsed(text)
    assert parsed(text) == by_cells


def _host_warning():
    warnings.warn("a host program's warning", UserWarning)


def test_parsing_leaves_the_host_warning_registry_alone():
    # under the default action a warning from one line is shown once; a
    # parse that swapped the filter list would reset the registry
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        _host_warning()
        moments.parse_csv("A,B\n0.1,0.2\n0.3,0.4\n")
        _host_warning()
    assert [str(w.message) for w in shown] == ["a host program's warning"]


class TestEstimate:
    def test_non_numeric_returns_rejected(self):
        # np.array(..., dtype=float) would fail untyped on text and convert
        # booleans and numeric strings
        for returns in ("abc", [[True, False]] * 6, [["0.1", "0.2"]] * 6):
            with pytest.raises(errors.ParseError, match="returns is not an array of numbers"):
                estimate(returns)
        with pytest.raises(errors.DimensionMismatch, match="returns must be a 2-D matrix"):
            estimate([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])

    def test_non_finite_entry_named(self):
        # the first bad entry in row-major order is the one named
        returns = np.full((6, 2), 0.01)
        returns[2, 1] = np.nan
        returns[3, 0] = np.inf
        message = "^non-finite return at observation 3, column 2$"
        with pytest.raises(errors.NonFiniteValue, match=message):
            estimate(returns)

    def test_observation_floor_is_k_plus_2(self):
        # with k = 2, 3 rows are too few and 4 enough
        returns = [[0.01, 0.02], [-0.02, 0.01], [0.03, -0.01], [0.00, 0.04]]
        message = "^need at least k \\+ 2 = 4 observations, got 3$"
        with pytest.raises(errors.TooFewObservations, match=message):
            estimate(returns[:3])
        assert estimate(returns).k == 2

    def test_reads_any_layout_and_leaves_the_input_alone(self):
        rng = np.random.default_rng(4)
        writeable = rng.normal(0.0, 0.02, (6, 2))
        frozen = writeable.copy()
        frozen.setflags(write=False)
        want = estimate(writeable)
        for returns in (frozen, np.asfortranarray(writeable), np.repeat(writeable, 2, axis=0)[::2]):
            got = estimate(returns)
            np.testing.assert_array_equal(got.mu, want.mu)
            np.testing.assert_array_equal(got.sigma, want.sigma)
        assert writeable.flags.writeable and not frozen.flags.writeable

    def test_unbiased_divisor_by_hand(self):
        # column A: {0, 2r, 0, 2r}: mean r, squared deviations all r^2,
        # unbiased variance 4 r^2 / 3
        r = 0.05
        market = estimate([[0.0, 0.01], [2 * r, 0.03], [0.0, 0.02], [2 * r, 0.00]])
        assert market.sigma[0, 0] == pytest.approx(4 * r * r / 3, rel=1e-14)
        assert market.mu[0] == pytest.approx(r, rel=1e-14)

    def test_anti_correlated_columns_rejected(self):
        base = np.linspace(-0.05, 0.05, 10)
        with pytest.raises(errors.NotPositiveDefinite):
            estimate(np.column_stack([base, -base]))

    def test_constant_column_rejected(self):
        # 0.03125 is binary-exact, so the sample variance is exactly zero
        rng = np.random.default_rng(3)
        returns = np.column_stack([np.full(20, 0.03125), rng.normal(0, 0.02, 20)])
        with pytest.raises(errors.NotPositiveDefinite):
            estimate(returns)

    def test_estimates_converge_with_sample_size(self):
        rng = np.random.default_rng(12345)
        true_mu = np.array([0.004, 0.009, -0.002])
        true_sigma = np.array(
            [[4e-4, 1e-4, 0.0], [1e-4, 9e-4, -2e-4], [0.0, -2e-4, 2.5e-4]]
        )
        errs = {}
        for t in (100, 100_000):
            draws = rng.multivariate_normal(true_mu, true_sigma, size=t)
            market = estimate(draws)
            errs[t] = max(
                np.max(np.abs(market.mu - true_mu)),
                np.max(np.abs(market.sigma - true_sigma)),
            )
        assert errs[100_000] < errs[100] / 5

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        returns = rng.normal(0.001, 0.02, size=(40, 4))
        perm = np.array([2, 0, 3, 1])
        direct = estimate(returns)
        permuted = estimate(returns[:, perm])
        # entries may differ by a few ulps (summation-order reassociation)
        np.testing.assert_allclose(permuted.mu, direct.mu[perm], rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            permuted.sigma, direct.sigma[np.ix_(perm, perm)], rtol=1e-13, atol=0
        )

    def test_annualization_scales_both_moments(self, returns_csv):
        returns = load_csv(returns_csv)[1]
        plain = estimate(returns)
        yearly = estimate(returns, periods_per_year=12)
        np.testing.assert_allclose(yearly.mu, 12 * plain.mu, rtol=1e-14)
        np.testing.assert_allclose(yearly.sigma, 12 * plain.sigma, rtol=1e-14)

    def test_bad_annualization_rejected(self, returns_csv):
        returns = load_csv(returns_csv)[1]
        with pytest.raises(errors.ConstraintViolated):
            estimate(returns, periods_per_year=0)
        with pytest.raises(errors.ConstraintViolated):
            estimate(returns, periods_per_year=2.5)
        with pytest.raises(errors.ConstraintViolated):
            estimate(returns, periods_per_year=True)
        with pytest.raises(errors.ParseError, match="periods_per_year is not an array of numbers"):
            estimate(returns, periods_per_year=10**400)

    @pytest.mark.parametrize("periods, error", [
        (2**1024 - 2**970 - 1, None),  # the largest int that rounds to a float
        (2**1024 - 2**970, errors.ParseError),  # halfway, rounds to infinity
        (np.uint64(2**64 - 1), None),
        (enum.IntEnum("Periods", {"MONTHLY": 12}).MONTHLY, None),
        (10**4301, errors.ParseError),  # past the 4300-digit str limit
        (-10**4301, errors.ConstraintViolated),
    ], ids=["below-halfway", "halfway", "uint64-max", "int-enum", "digit-limit", "negative-digit-limit"])
    def test_count_rule_at_the_ends_of_the_float_range(self, periods, error):
        returns = np.array([[1, 2], [-2, 1], [3, -1], [0, 4], [2, 0], [-1, 3]]) * 1e-150
        if error is not None:
            with pytest.raises(error, match="^periods_per_year (is not an array|must be an integer)"):
                estimate(returns, periods_per_year=periods)
            return
        market = estimate(returns, periods_per_year=periods)
        np.testing.assert_array_equal(market.mu, returns.mean(axis=0) * float(periods))

    def test_overflowing_moments_rejected_without_a_warning(self):
        # 1e200 returns overflow the covariance; 10**300 periods overflow
        # the annualized mean of returns near 1e10
        base = np.column_stack([np.linspace(-1.0, 1.0, 10), np.linspace(1.0, 2.0, 10)])
        for returns, periods in ((base * 1e200, None), (base * 1e10, 10**300)):
            with pytest.raises(errors.NonFiniteValue):
                estimate(returns, periods_per_year=periods)

    def test_output_is_a_validated_market(self, returns_csv):
        market = estimate(load_csv(returns_csv)[1])
        assert market.k == 2
        np.testing.assert_allclose(market.sigma, market.sigma.T)


def test_readme_csv_example(returns_csv, monkeypatch):
    # README's second "Library example" block runs as written beside a returns.csv
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n")[2].split("```", 1)[0]
    monkeypatch.chdir(returns_csv.parent)
    namespace = {}
    exec(block, namespace)
    assert namespace["names"] == ("A", "B")
    assert namespace["digest"] == hashlib.sha256(returns_csv.read_bytes()).hexdigest()
    want = estimate(load_csv(returns_csv)[1], periods_per_year=252)
    np.testing.assert_array_equal(namespace["market"].mu, want.mu)
    np.testing.assert_array_equal(namespace["market"].sigma, want.sigma)

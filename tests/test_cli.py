import builtins
import collections
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import runpy
import shutil
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import support
from hypothesis import example, given, settings
from hypothesis import strategies as st


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "mimicfund", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=None if env is None else {**os.environ, **env},
    )


NON_UTF8_CONFIG = b'{"alpha": [1, 2]\xff}'


def nested(depth):
    """JSON text of the number 2 inside ``depth`` arrays."""
    return "[" * depth + "2" + "]" * depth


def assert_validation_error(result):
    # an "error:" line and exit 1, never a Python traceback
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


def assert_one_short_error_line(out, err):
    # nothing on stdout, one "error:" line on stderr, short whatever the input
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 300


def assert_exact_weights(config, weights):
    # the solved weights within 1e-12 of the largest exact rational entry
    keys = ("mu", "sigma", "alpha", "beta", "phi")
    exact = support.optimum_exact(*(config[key] for key in keys))
    scale = max(abs(e) for row in exact for e in row)
    for row, exact_row in zip(weights, exact):
        for got, want in zip(row, exact_row):
            assert abs(Fraction(got) - want) <= 1e-12 * scale


# the textbook covariance scaled by 1e-300: valid, with entries near the
# bottom of the normal float range
TINY_SIGMA = [[1.44e-302, 4.8e-303], [4.8e-303, 4e-302]]

# a valid market on which 1' sigma^-1 1 overflows: the GMVP is inf / inf
SUBNORMAL_SIGMA = {"mu": [1e-5, 2e-5], "sigma": [[1e-310, 0.0], [0.0, 2e-310]]}

# a valid market whose frontier constants are finite but on which a fund's
# variance or the utility at the optimum can leave the float range
HUGE_SIGMA = {"mu": [0.0, 1.0], "sigma": [[1e300, 0.0], [0.0, 1e300]]}


@pytest.fixture
def solve_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(support.TEXTBOOK_CONFIG), encoding="utf-8")
    return path


@pytest.fixture
def group_config(tmp_path):
    """A solve config without a market, to pair with --returns."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps(support.TEXTBOOK_GROUP), encoding="utf-8")
    return path


class TestSolve:
    def test_textbook_instance(self, solve_config):
        result = run_cli("solve", "--config", str(solve_config))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["mimicking"]["alpha_star_f"] == pytest.approx(17 / 6, rel=1e-9)
        assert report["classical"]["alpha_f"] == pytest.approx(8 / 3, rel=1e-9)
        assert len(report["mimicking"]["weights"]) == 2
        assert report["manifest"]["command"] == "solve"

    def test_output_file(self, solve_config, tmp_path):
        out = tmp_path / "solution.json"
        result = run_cli("solve", "--config", str(solve_config), "--output", str(out))
        assert result.returncode == 0
        assert result.stdout == ""
        report = json.loads(out.read_text(encoding="utf-8"))
        assert "mimicking" in report and "classical" in report

    def test_output_through_a_symlink_updates_its_target(self, solve_config, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.json"
        target.write_text("old", encoding="utf-8")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        result = run_cli("solve", "--config", str(solve_config), "--output", str(link))
        assert result.returncode == 0
        assert link.is_symlink() and link.resolve() == target
        assert "mimicking" in json.loads(target.read_text(encoding="utf-8"))
        assert sorted(p.name for p in (tmp_path / "real").iterdir()) == ["out.json"]

    def test_output_that_is_not_a_regular_file_exits_2(self, solve_config, tmp_path, capsys):
        from mimicfund import cli

        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        before = sorted(tmp_path.iterdir())
        assert cli.main(["solve", "--config", str(solve_config), "--output", str(fifo)]) == 2
        out, err = capsys.readouterr()
        assert_one_short_error_line(out, err)
        assert f"cannot write {fifo}: not a regular file" in err
        # still a FIFO, and no temporary file is left beside it
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == before

    def test_link_at_the_temporary_name_is_not_written_through(
        self, solve_config, tmp_path, monkeypatch, capsys
    ):
        from mimicfund import cli

        monkeypatch.chdir(tmp_path)
        victim = tmp_path / "victim.txt"
        victim.write_text("kept", encoding="utf-8")
        temp = tmp_path / f".{os.getpid()}.0.tmp"
        temp.symlink_to(victim)
        assert cli.main(["solve", "--config", str(solve_config), "--output", "out.json"]) == 2
        out, err = capsys.readouterr()
        assert_one_short_error_line(out, err)
        assert err == "error: cannot write out.json: File exists\n"
        # nothing written through the link, no output made, the link not removed
        assert victim.read_text(encoding="utf-8") == "kept"
        assert not os.path.lexists("out.json")
        assert temp.is_symlink() and temp.resolve() == victim

    def test_output_name_of_the_longest_valid_length(self, solve_config, tmp_path, capsys):
        from mimicfund import cli

        out = tmp_path / ("a" * os.pathconf(tmp_path, "PC_NAME_MAX"))
        assert cli.main(["solve", "--config", str(solve_config), "--output", str(out)]) == 0
        assert "mimicking" in json.loads(out.read_text(encoding="utf-8"))
        assert sorted(tmp_path.iterdir()) == sorted([solve_config, out])

    def test_empty_output_path_exits_2(self, solve_config, tmp_path, monkeypatch, capsys):
        from mimicfund import cli

        monkeypatch.chdir(tmp_path)  # where a temporary file of "" would go
        before = sorted(tmp_path.iterdir())
        assert cli.main(["solve", "--config", str(solve_config), "--output", ""]) == 2
        out, err = capsys.readouterr()
        assert_one_short_error_line(out, err)
        assert sorted(tmp_path.iterdir()) == before

    def test_unnormalized_beta_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**support.TEXTBOOK_CONFIG, "beta": [0.6, 0.6]}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert result.returncode == 1
        assert "beta" in result.stderr

    def test_degenerate_returns_exit_1(self, tmp_path, group_config):
        csv = tmp_path / "flat.csv"
        csv.write_text("A,B\n" + "0.01,0.02\n" * 12, encoding="utf-8")
        result = run_cli(
            "solve", "--config", str(group_config), "--returns", str(csv)
        )
        assert result.returncode == 1
        assert "positive definite" in result.stderr

    def test_market_from_returns(self, returns_csv, tmp_path):
        group = tmp_path / "group.json"
        group.write_text(
            json.dumps({"alpha": [2.0, 4.0], "beta": [0.5, 0.5], "phi": [1.0, 1.0]}),
            encoding="utf-8",
        )
        result = run_cli(
            "solve", "--config", str(group), "--returns", str(returns_csv), "--annualize", "12"
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["mimicking"]["alpha_star_f"] > 0

    def test_missing_market_exits_1(self, tmp_path):
        group = tmp_path / "group.json"
        group.write_text(
            json.dumps({"alpha": [2.0, 4.0], "beta": [0.5, 0.5], "phi": [0.0, 0.0]}),
            encoding="utf-8",
        )
        result = run_cli("solve", "--config", str(group))
        assert result.returncode == 1
        assert "market" in result.stderr

    @pytest.mark.parametrize("returns", [False, True], ids=["no-csv", "csv"])
    @pytest.mark.parametrize("in_config", [False, True], ids=["group-only", "config-market"])
    def test_market_from_exactly_one_source(
        self, returns, in_config, returns_csv, solve_config, group_config, capsys
    ):
        # a second source is an error, not ignored unvalidated
        from mimicfund import cli

        argv = ["solve", "--config", str(solve_config if in_config else group_config)]
        if returns:
            argv += ["--returns", str(returns_csv)]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if returns != in_config:
            assert code == 0
            assert list(json.loads(out)["manifest"]["config"]) == ["mu", "sigma", "annualize"]
        else:
            assert code == 1
            assert_one_short_error_line(out, err)
            given = "--returns and config mu/sigma" if returns else "none"
            assert err.startswith(f"error: market sources given: {given}; ")

    @pytest.mark.parametrize("argv", [[], ["--returns", "r.csv"]], ids=["bare", "returns"])
    def test_config_is_required(self, argv, capsys):
        # argparse names the missing flag before any file is read
        from mimicfund import cli

        with pytest.raises(SystemExit) as caught:
            cli.main(["solve", *argv])
        err = capsys.readouterr().err
        assert caught.value.code == 1
        assert err.startswith("usage: mimicfund solve ")
        assert "error: the following arguments are required: --config" in err

    @pytest.mark.parametrize("flag", ["--mu", "--sigma"])
    def test_market_flags_are_unrecognized(self, flag, solve_config, capsys):
        from mimicfund import cli

        with pytest.raises(SystemExit) as caught:
            cli.main(["solve", "--config", str(solve_config), flag, "[0.07, 0.14]"])
        err = capsys.readouterr().err
        assert caught.value.code == 1
        assert err.startswith("usage: mimicfund ")
        assert f"error: unrecognized arguments: {flag} [0.07, 0.14]" in err

    @pytest.mark.parametrize("present", ["mu", "sigma"])
    def test_half_market_in_config_exits_1(self, tmp_path, present):
        config = {key: support.TEXTBOOK_CONFIG[key] for key in ("alpha", "beta", "phi", present)}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert result.returncode == 1
        assert "solve config must give mu and sigma together" in result.stderr

    def test_half_market_in_config_exits_1_under_returns(self, tmp_path, returns_csv):
        # half a market in the config is reported as such, not as a second source
        config = {key: support.TEXTBOOK_CONFIG[key] for key in ("alpha", "beta", "phi", "mu")}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(path), "--returns", str(returns_csv))
        assert_validation_error(result)
        assert "solve config must give mu and sigma together" in result.stderr

    def test_non_utf8_config_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(NON_UTF8_CONFIG)
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "not UTF-8" in result.stderr

    def test_byte_order_mark_config_solves(self, solve_config, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + solve_config.read_bytes())
        result = run_cli("solve", "--config", str(path))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["mimicking"]["alpha_star_f"] == pytest.approx(17 / 6, rel=1e-9)

    def test_missing_returns_file_exits_2(self, group_config, tmp_path):
        result = run_cli(
            "solve", "--config", str(group_config), "--returns", str(tmp_path / "nope.csv")
        )
        assert result.returncode == 2

    def test_non_numeric_alpha_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**support.TEXTBOOK_CONFIG, "alpha": "ab"}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "alpha" in result.stderr

    def test_non_numeric_sigma_entry_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        sigma = [[0.0144, "x"], [0.0048, 0.04]]
        path.write_text(json.dumps({**support.TEXTBOOK_CONFIG, "sigma": sigma}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "sigma" in result.stderr

    @pytest.mark.parametrize("alpha", [["2", 4.0], [True, 4.0], [True, 2.5]])
    def test_string_or_boolean_alpha_exits_1(self, tmp_path, alpha):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**support.TEXTBOOK_CONFIG, "alpha": alpha}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "alpha is not an array of numbers" in result.stderr

    def test_string_in_mu_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**support.TEXTBOOK_CONFIG, "mu": ["0.07", 0.14]}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "mu is not an array of numbers" in result.stderr

    @pytest.mark.parametrize("depth", [40, 10**5])
    def test_deeply_nested_config_exits_1(self, tmp_path, depth):
        # 40 arrays pass numpy's 32-dimension iterator limit, 10**5 the parser's recursion limit
        path = tmp_path / "deep.json"
        text = json.dumps({**support.TEXTBOOK_CONFIG, "alpha": None}).replace("null", nested(depth))
        path.write_text(text, encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)

    def test_unknown_config_key_exits_1(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({**support.TEXTBOOK_CONFIG, "extra": 1}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "error: unknown solve config keys: ['extra']" in result.stderr

    def test_overflowing_frontier_exits_3(self, tmp_path):
        # sigma^-1 mu is about 1e312: a numerical failure, not invalid input
        cfg = tmp_path / "config.json"
        config = {**support.TEXTBOOK_CONFIG, "mu": [1e10, 2e10], "sigma": TINY_SIGMA}
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(cfg))
        assert result.returncode == 3
        assert result.stdout == ""
        assert "error: frontier constants are not finite" in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "alpha, phi, message",
        [
            # alpha + phi overflows to inf
            ((1e308, 1e308), (1e308, 1e308),
             "error: fund scalar tau is nan; it or its inverse is out of floating-point range"),
            # a subnormal alpha: 1 / alpha, and so the classical fund scalar, is infinite
            ((1e-320, 1.0), (3.0, 3.0),
             "error: fund scalar tau_cl is inf; it or its inverse is out of floating-point range"),
            # alpha = 1e-308: only the classical fund's variance is infinite
            ((1e-308, 1.0), (3.0, 3.0),
             "error: frontier fund at t = 5e+307 is out of floating-point range"),
        ],
    )
    def test_rounding_failure_of_a_valid_group_exits_3(self, tmp_path, alpha, phi, message):
        cfg = tmp_path / "config.json"
        config = {**support.TEXTBOOK_CONFIG, "alpha": alpha, "phi": phi}
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(cfg))
        assert result.returncode == 3
        assert result.stdout == ""
        assert message in result.stderr and "np.float64" not in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # tau^2 slope overflows: the fund's variance is infinite
            ({**HUGE_SIGMA, "alpha": [1e-306, 1e-306], "phi": [0, 0]},
             "error: frontier fund at t = 1e+306 is out of floating-point range"),
            # v_gmv beta'alpha overflows: the utility is -inf
            ({**HUGE_SIGMA, "alpha": [1e10, 1e10], "phi": [1, 1]},
             "error: utility -inf at the optimum is out of floating-point range"),
            # tau = 2^-1024 is subnormal, and 1 / tau overflows
            ({"alpha": [sys.float_info.max] * 2, "phi": [0, 0]},
             "error: fund scalar tau is 5.562684646268003e-309; it or its inverse is out of"),
        ],
        ids=["fund-variance", "utility", "risk-aversion"],
    )
    def test_out_of_range_fund_or_utility_exits_3(self, tmp_path, overrides, message):
        # the solver names the value, before the report's strict-JSON backstop
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**support.TEXTBOOK_CONFIG, **overrides}), encoding="utf-8")
        result = run_cli("solve", "--config", str(cfg))
        assert result.returncode == 3
        assert result.stdout == ""
        assert message in result.stderr and "non-finite number" not in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr

    def test_large_frontier_coordinates_solve(self, tmp_path):
        # c is about 2.4e5, so a 1'tilt of 1.3e-15 would put a column sum
        # 3.5e-10 off 1; the re-centred tilt keeps both sums at 1
        cfg = tmp_path / "config.json"
        config = {
            **support.TEXTBOOK_CONFIG,
            "alpha": [6.39188298965864e-6, 2.036259105597082e-6],
            "phi": [526555.6052483491, 1048.9066279687663],
        }
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(cfg))
        assert result.returncode == 0
        assert_exact_weights(config, json.loads(result.stdout)["mimicking"]["weights"])

    def test_preferences_over_13_decades_solve(self, tmp_path):
        # eigvalsh(a_phi) is (6.36, 6.05e8); the dense KKT oracle is itself
        # 1.1e-10 off here, above criterion 1's 1e-10, so W is checked
        # against exact rationals
        cfg = tmp_path / "config.json"
        config = {
            **support.TEXTBOOK_CONFIG,
            "alpha": [1.3863072561283194e-4, 25.442767887553956],
            "phi": [0.5369271349060832, 2419877411.616322],
        }
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(cfg))
        assert result.returncode == 0
        assert_exact_weights(config, json.loads(result.stdout)["mimicking"]["weights"])

    def test_failed_covariance_solve_exits_3(self, solve_config, monkeypatch, capsys):
        # no known market reaches it after a successful Cholesky; inject it
        import numpy as np

        from mimicfund import cli

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        code = cli.main(["solve", "--config", str(solve_config)])
        err = capsys.readouterr().err
        assert code == 3
        assert "error: covariance solve failed: Singular matrix" in err
        assert "Traceback" not in err

    def test_non_finite_report_value_exits_3(self, solve_config, monkeypatch, capsys):
        # every known path to a non-finite output is checked before the
        # report; inject one to reach the strict-JSON backstop
        from mimicfund import cli, markowitz

        fund_aggregate = markowitz.fund_aggregate

        def infinite_alpha_f(ctx, group):
            weights, _, point = fund_aggregate(ctx, group)
            return weights, float("inf"), point

        monkeypatch.setattr(markowitz, "fund_aggregate", infinite_alpha_f)
        code = cli.main(["solve", "--config", str(solve_config)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "error: output holds a non-finite number" in captured.err

    def test_integer_beyond_the_digit_limit_exits_1(self, tmp_path):
        # json.loads raises a plain ValueError, not a JSONDecodeError, on it
        path = tmp_path / "config.json"
        path.write_text('{"alpha": [%s, 1]}' % ("1" * 5000), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert result.returncode == 1
        assert_one_short_error_line(result.stdout, result.stderr)
        assert "invalid JSON" in result.stderr

    def test_annualize_without_returns_exits_1(self, solve_config):
        result = run_cli("solve", "--config", str(solve_config), "--annualize", "12")
        assert_validation_error(result)
        assert "--annualize" in result.stderr

    def test_source_date_epoch_sets_the_timestamp(self, solve_config):
        result = run_cli("solve", "--config", str(solve_config), env={"SOURCE_DATE_EPOCH": "86400"})
        assert result.returncode == 0
        assert json.loads(result.stdout)["manifest"]["timestamp"] == "1970-01-02T00:00:00+00:00"

    @pytest.mark.parametrize("epoch", ["abc", "99999999999999999"])
    def test_malformed_source_date_epoch_exits_1(self, solve_config, epoch):
        result = run_cli("solve", "--config", str(solve_config), env={"SOURCE_DATE_EPOCH": epoch})
        assert_validation_error(result)
        assert "SOURCE_DATE_EPOCH must be an integer count of seconds" in result.stderr
        assert repr(epoch) in result.stderr

    def test_report_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # README's contract: at k = 20 the report does not depend on the BLAS
        # thread count, set in each child's environment only (on the machine
        # measured it did from k = 128, with LAPACK's Cholesky factor)
        import numpy as np

        from mimicfund import sampling

        rng = np.random.default_rng(20)
        market, group = sampling.random_market(rng, 20), sampling.random_group(rng, 50)
        config = tmp_path / "config.json"
        fields = {"mu": market.mu, "sigma": market.sigma,
                  "alpha": group.alpha, "beta": group.beta, "phi": group.phi}
        config.write_text(json.dumps({key: x.tolist() for key, x in fields.items()}),
                          encoding="utf-8")
        reports = []
        for threads in ("1", "2"):
            env = {"SOURCE_DATE_EPOCH": "0", "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            out = tmp_path / f"threads-{threads}.json"
            result = run_cli("solve", "--config", str(config), "--output", str(out), env=env)
            assert result.returncode == 0, result.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestVerify:
    def test_full_spec_invocation(self):
        result = run_cli(
            "verify", "--count", "500", "--max-k", "10", "--max-n", "10", "--seed", "7"
        )
        assert result.returncode == 0
        assert "worst relative error" in result.stdout
        assert "result: OK" in result.stdout

    def test_zero_instances_is_a_vacuous_pass(self):
        result = run_cli("verify", "--count", "0", "--seed", "3")
        assert result.returncode == 0
        assert "0 instances" in result.stdout

    def test_negative_count_exits_1(self):
        result = run_cli("verify", "--count", "-2")
        assert_validation_error(result)
        assert "--count" in result.stderr
        assert "result: OK" not in result.stdout

    def test_max_k_below_two_exits_1(self):
        result = run_cli("verify", "--count", "3", "--max-k", "1")
        assert_validation_error(result)
        assert "--max-k" in result.stderr

    def test_max_n_below_two_exits_1(self):
        result = run_cli("verify", "--count", "3", "--max-n", "1")
        assert_validation_error(result)
        assert "--max-n" in result.stderr

    def test_negative_seed_exits_1(self):
        result = run_cli("verify", "--seed", "-1", "--count", "1")
        assert_validation_error(result)
        assert "--seed" in result.stderr

    def test_sizes_above_the_oracle_cap_exit_1(self):
        # at k = 10 and n = 455 the KKT system has 5005 unknowns, above the cap of 5000
        result = run_cli("verify", "--count", "1", "--max-k", "10", "--max-n", "455")
        assert_validation_error(result)
        assert "--max-k 10 and --max-n 455" in result.stderr
        assert result.stdout == ""
        result = run_cli("verify", "--count", "0", "--max-k", "10", "--max-n", "454")
        assert result.returncode == 0
        assert "result: OK" in result.stdout

    def test_disagreement_exits_4(self, monkeypatch, capsys):
        from mimicfund import cli, oracle

        true_solve = oracle.kkt_solve

        def skewed(market, group):
            solution = true_solve(market, group)
            weights = solution.weights.weights.copy()
            weights[0, 0] += 0.01  # stay unit-sum, but wrong
            weights[1, 0] -= 0.01
            return oracle.OracleSolution(
                weights=type(solution.weights)(weights),
                multipliers=solution.multipliers,
                residual=solution.residual,
            )

        monkeypatch.setattr(oracle, "kkt_solve", skewed)
        code = cli.main(["verify", "--count", "3", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 4
        assert "DISAGREEMENT" in out
        assert "result: FAIL" in out

    @pytest.mark.parametrize("factor, code", [(1.5, 4), (0.5, 0)])
    def test_tolerance_is_criterion_1s(self, monkeypatch, capsys, factor, code):
        # the closed form off the oracle by factor times criterion 1's 1e-10 in
        # relative error: a pair of moves keeps column 0 unit-sum, each scaled
        # by the smaller of the two entries' error floors max(1, |w|)
        from mimicfund import cli, mimicking

        true_solve = mimicking.solve

        def skewed(ctx, group):
            solution = true_solve(ctx, group)
            weights = solution.w_star.weights.copy()
            floor = min(max(1.0, abs(weights[0, 0])), max(1.0, abs(weights[1, 0])))
            weights[0, 0] += factor * 1e-10 * floor
            weights[1, 0] -= factor * 1e-10 * floor
            return dataclasses.replace(solution, w_star=type(solution.w_star)(weights))

        monkeypatch.setattr(mimicking, "solve", skewed)
        assert cli.main(["verify", "--count", "3", "--seed", "5"]) == code
        out = capsys.readouterr().out
        assert ("DISAGREEMENT" in out) == (code == 4)
        assert out.endswith("result: FAIL\n" if code else "result: OK\n")


class TestStudy:
    def test_default_run_writes_tables(self, tmp_path):
        out = tmp_path / "study"
        result = run_cli("study", "--output-dir", str(out))
        assert result.returncode == 0
        fig1 = (out / "figure1.csv").read_text(encoding="utf-8")
        fig2 = (out / "figure2.csv").read_text(encoding="utf-8")
        assert len(fig1.splitlines()) == 304  # header + 3 series x 101 points
        assert len(fig2.splitlines()) == 304
        assert (out / "figure1.manifest.json").exists()
        assert (out / "figure2.manifest.json").exists()
        manifest = json.loads((out / "figure1.manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "study"
        assert manifest["config"]["grid_points"] == 101

    def test_one_manifest_per_run(self, monkeypatch, tmp_path):
        from mimicfund import cli

        stamps = iter(range(10))
        monkeypatch.setattr(cli, "_timestamp", lambda: f"stamp {next(stamps)}")
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"grid_points": 3}), encoding="utf-8")
        out = tmp_path / "study"
        assert cli.main(["study", "--config", str(cfg), "--output-dir", str(out)]) == 0
        first, second = ((out / f"figure{i}.manifest.json").read_bytes() for i in (1, 2))
        assert first == second

    def test_manifest_echoes_every_config_field(self, tmp_path):
        from mimicfund.study import StudyConfig

        cfg = tmp_path / "study.json"
        given = {
            "mu": [0.08, 0.15],
            "sigma": support.TEXTBOOK_CONFIG["sigma"],
            "phi_set": [1, 2.5],
            "grid_points": 3,
            "phi_ratio": 0.5,
        }
        cfg.write_text(json.dumps(given), encoding="utf-8")
        out = tmp_path / "study"
        assert run_cli("study", "--config", str(cfg), "--output-dir", str(out)).returncode == 0
        echo = json.loads((out / "figure2.manifest.json").read_text(encoding="utf-8"))["config"]
        defaults = StudyConfig()
        fields = [f.name for f in dataclasses.fields(StudyConfig) if f.name != "market"]
        assert list(echo) == ["mu", "sigma"] + fields
        for name in fields:
            value = getattr(defaults, name)
            expected = given.get(name, list(value) if isinstance(value, tuple) else value)
            assert echo[name] == expected, name
        assert echo["mu"] == given["mu"]
        assert echo["sigma"] == given["sigma"]

    def test_manifest_echoes_the_stored_floats_of_an_integer_config(self, monkeypatch, tmp_path):
        # the echo is the config as stored: integers in float fields are
        # floats, grid_points stays an integer; == cannot tell, since 2 == 2.0
        from mimicfund import __version__, cli

        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        cfg = tmp_path / "study.json"
        cfg.write_bytes(b'{"alpha1": 2, "phi_set": [1, 2.5], "grid_points": 3}')
        out = tmp_path / "study"
        assert cli.main(["study", "--config", str(cfg), "--output-dir", str(out)]) == 0
        text = (out / "figure1.manifest.json").read_text(encoding="utf-8")
        expected = {
            "command": "study",
            "config": {
                **support.TEXTBOOK_MARKET,
                "alpha1": 2.0,
                "phi_set": [1.0, 2.5],
                "a_set": [2.0, 5.0, 10.0],
                "a_range": [1.0, 10.0],
                "phi_range": [0.0, 5.0],
                "grid_points": 3,
                "phi_ratio": 1.0,
            },
            "inputs": {str(cfg): hashlib.sha256(cfg.read_bytes()).hexdigest()},
            "version": __version__,
            "timestamp": "1970-01-01T00:00:00+00:00",
        }
        assert text == json.dumps(expected, indent=2) + "\n"
        assert '"alpha1": 2.0,' in text and '"grid_points": 3,' in text
        assert '"phi_set": [\n      1.0,\n      2.5\n    ],' in text
        assert (out / "figure2.manifest.json").read_text(encoding="utf-8") == text

    def test_malformed_source_date_epoch_writes_nothing(self, tmp_path):
        out = tmp_path / "study"
        result = run_cli("study", "--output-dir", str(out), env={"SOURCE_DATE_EPOCH": "abc"})
        assert_validation_error(result)
        assert not out.exists()

    def test_gain_threshold_row(self, tmp_path):
        out = tmp_path / "study"
        run_cli("study", "--output-dir", str(out))
        rows = (out / "figure2.csv").read_text(encoding="utf-8").splitlines()[1:]
        hits = [
            row for row in rows
            if row.startswith("a=5,") and float(row.split(",")[1]) == 5.0
        ]
        assert len(hits) == 1
        assert float(hits[0].split(",")[3]) >= 0.10

    def test_custom_config(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(
            json.dumps({"phi_set": [2.0], "a_set": [3.0], "grid_points": 5}),
            encoding="utf-8",
        )
        out = tmp_path / "study"
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert result.returncode == 0
        assert len((out / "figure1.csv").read_text(encoding="utf-8").splitlines()) == 6

    def test_unknown_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"grid": 5}), encoding="utf-8")
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(tmp_path / "s"))
        assert result.returncode == 1

    def test_fractional_grid_points_exits_1(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"grid_points": 3.5}), encoding="utf-8")
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(tmp_path / "s"))
        assert_validation_error(result)
        assert "grid_points" in result.stderr

    def test_deeply_nested_config_exits_1(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text('{"alpha1": %s}' % nested(10**5), encoding="utf-8")
        out = tmp_path / "s"
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert_validation_error(result)
        assert "invalid JSON: nested too deeply" in result.stderr
        assert not out.exists()

    def test_oversized_grid_exits_1(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"grid_points": 10**13}), encoding="utf-8")
        out = tmp_path / "s"
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert_validation_error(result)
        assert "the study has 60000000000000 points" in result.stderr
        assert not out.exists()

    def test_repeated_series_label_exits_1(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"phi_set": [3.0, 3.0000001]}), encoding="utf-8")
        out = tmp_path / "s"
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert_validation_error(result)
        assert result.stderr == (
            "error: series label 'phi=3' repeats: two members of phi_set or of a_set "
            "agree to 6 significant digits\n"
        )
        assert not out.exists()

    def test_non_array_phi_set_exits_1(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"phi_set": 3}), encoding="utf-8")
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(tmp_path / "s"))
        assert_validation_error(result)
        assert "phi_set must be a 1-D vector" in result.stderr

    def test_non_utf8_config_exits_1(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_bytes(NON_UTF8_CONFIG)
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(tmp_path / "s"))
        assert_validation_error(result)
        assert "not UTF-8" in result.stderr

    def test_unwritable_output_location_exits_2(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory", encoding="utf-8")
        result = run_cli("study", "--output-dir", str(blocker))
        assert result.returncode == 2

    def test_output_through_a_symlink_updates_its_target(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"grid_points": 3}), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "kept.csv"
        target.write_text("old", encoding="utf-8")
        (out / "figure1.csv").symlink_to(target)
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert result.returncode == 0
        assert (out / "figure1.csv").is_symlink()
        assert target.read_text(encoding="utf-8").startswith("series,coordinate,")
        assert target.read_bytes() != (out / "figure2.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "out", "study.json"]

    def test_two_outputs_resolving_to_one_file_exit_2(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("study", "--output-dir", str(out)).returncode == 0
        (out / "figure1.csv").unlink()
        (out / "figure1.csv").symlink_to(out / "figure2.csv")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        result = run_cli("study", "--output-dir", str(out))
        assert result.returncode == 2
        assert "resolves to the same file as another output" in result.stderr
        # all or none: nothing renamed, the link kept, no temporary file left
        assert (out / "figure1.csv").is_symlink()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_unwritable_sidecar_is_named(self, tmp_path):
        out = tmp_path / "out"
        (out / "figure1.manifest.json").mkdir(parents=True)
        result = run_cli("study", "--output-dir", str(out))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "cannot write " + str(out / "figure1.manifest.json") in result.stderr
        # all or none: no figure1.csv and no temporary file is left behind
        assert sorted(p.name for p in out.iterdir()) == ["figure1.manifest.json"]
        assert not any((out / "figure1.manifest.json").iterdir())

    def test_failed_write_keeps_earlier_output(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("study", "--output-dir", str(out)).returncode == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"grid_points": 3}), encoding="utf-8")
        (out / "figure2.manifest.json").unlink()
        (out / "figure2.manifest.json").mkdir()
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert result.returncode == 2
        assert "cannot write " + str(out / "figure2.manifest.json") in result.stderr
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        del before["figure2.manifest.json"]
        assert after == before

    def test_link_at_a_temporary_name_keeps_earlier_output(self, tmp_path, capsys):
        from mimicfund import cli

        out = tmp_path / "out"
        out.mkdir()
        (out / "figure1.csv").write_text("old", encoding="utf-8")
        victim = tmp_path / "victim.txt"
        victim.write_text("kept", encoding="utf-8")
        temp = out / f".{os.getpid()}.2.tmp"  # figure2.csv is the third file written
        temp.symlink_to(victim)
        assert cli.main(["study", "--output-dir", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert_one_short_error_line(out_text, err)
        assert err == f"error: cannot write {out / 'figure2.csv'}: File exists\n"
        # figure1's temporaries were made and removed; the planted link stays
        assert (out / "figure1.csv").read_text(encoding="utf-8") == "old"
        assert victim.read_text(encoding="utf-8") == "kept"
        assert sorted(p.name for p in out.iterdir()) == sorted(["figure1.csv", temp.name])
        assert temp.is_symlink()

    def test_interrupted_write_leaves_no_temporary(self, tmp_path, monkeypatch):
        from mimicfund import cli

        out = tmp_path / "out"
        out.mkdir()
        (out / "figure1.csv").write_text("old", encoding="utf-8")
        opened = []
        real_open = builtins.open

        def interrupting(file, *args, **kwargs):
            handle = real_open(file, *args, **kwargs)
            opened.append(file)
            if len(opened) == 2:
                def interrupt(text):
                    raise KeyboardInterrupt
                handle.write = interrupt
            return handle

        monkeypatch.setattr(builtins, "open", interrupting)
        with pytest.raises(KeyboardInterrupt):
            cli._write({str(out / "figure1.csv"): "new", str(out / "figure1.manifest.json"): "{}"})
        monkeypatch.undo()
        # both temporaries were made, and neither is left; nothing was renamed
        assert len(opened) == 2
        assert sorted(p.name for p in out.iterdir()) == ["figure1.csv"]
        assert (out / "figure1.csv").read_text(encoding="utf-8") == "old"

    def test_tiny_covariance_solves(self, tmp_path):
        # the frontier constants scale like sigma^-1 at most, so a valid
        # covariance near the bottom of the float range still solves
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"mu": [0.07, 0.14], "sigma": TINY_SIGMA}), encoding="utf-8")
        out = tmp_path / "study"
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert result.returncode == 0, result.stderr
        assert "Warning" not in result.stderr
        for name in ("figure1.csv", "figure2.csv"):
            with open(out / name, newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            assert len(rows) == 303
            values = [float(row[key]) for row in rows for key in ("delta_omega", "delta_eu")]
            assert all(math.isfinite(v) for v in values)

    def test_non_finite_result_exits_3(self, tmp_path):
        # on the same covariance alpha1 = 1e-6 overflows the utilities; the
        # run must name the point, not write inf rows
        cfg = tmp_path / "study.json"
        config = {"mu": [0.07, 0.14], "sigma": TINY_SIGMA, "alpha1": 1e-6}
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "study"
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "error: series phi=3, coordinate 1.09: delta_eu is inf" in result.stderr
        assert not (out / "figure1.csv").exists()

    def test_overflowing_slope_exits_3(self, tmp_path):
        # mu' sigma^-1 mu is about 2.5e309; it must not be read as a flat frontier
        cfg = tmp_path / "study.json"
        config = {"mu": [1e154, 2e154], "sigma": support.TEXTBOOK_CONFIG["sigma"]}
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "study"
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert result.returncode == 3
        assert "error: frontier constants are not finite" in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["solve", "study"])
    def test_overflowing_gmvp_exits_3(self, command, tmp_path):
        # the frontier constants are named, not the weights or gains they would make NaN
        cfg = tmp_path / "config.json"
        group = support.TEXTBOOK_GROUP if command == "solve" else {}
        cfg.write_text(json.dumps({**SUBNORMAL_SIGMA, **group}), encoding="utf-8")
        out = tmp_path / "study"
        extra = ["--output-dir", str(out)] if command == "study" else []
        result = run_cli(command, "--config", str(cfg), *extra)
        assert result.returncode == 3
        assert_one_short_error_line(result.stdout, result.stderr)
        assert result.stderr == "error: frontier constants are not finite at this market's scale\n"
        assert not out.exists()


class TestInputFiles:
    @pytest.mark.parametrize(
        "command, text, key",
        [("solve", '{"phi": [0, 0], ' + json.dumps(support.TEXTBOOK_CONFIG)[1:], "phi"),
         ("study", '{"phi_set": [0, 0], "phi_set": [3]}', "phi_set"),
         # the key named is the first one met a second time, as in the
         # CSV header and study label rules
         ("solve", '{"a": 1, "b": 2, "b": 3, "a": 4}', "b")],
        ids=["solve", "study", "first-key-met-twice"],
    )
    def test_repeated_config_key_exits_1(self, command, text, key, tmp_path):
        # the last phi would otherwise win, unseen in a report that digests the file
        cfg = tmp_path / "config.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "study"
        extra = ["--output-dir", str(out)] if command == "study" else []
        result = run_cli(command, "--config", str(cfg), *extra)
        assert result.returncode == 1
        assert_one_short_error_line(result.stdout, result.stderr)
        assert result.stderr == f"error: {cfg}: key '{key}' repeats\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [([1, 2], "{cfg}: expected a JSON object at top level"),
         (support.TEXTBOOK_MARKET, "config file lacks group keys: alpha, beta, phi")],
        ids=["top-level-array", "market-only"],
    )
    def test_solve_config_without_a_group_exits_1(self, tmp_path, config, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(cfg))
        assert result.returncode == 1
        assert_one_short_error_line(result.stdout, result.stderr)
        assert result.stderr == f"error: {message.format(cfg=cfg)}\n"

    @pytest.mark.parametrize("command", ["solve", "study", "estimate"])
    def test_each_file_is_read_once_and_digested_as_parsed(
        self, command, tmp_path, returns_csv, group_config, monkeypatch, capsys
    ):
        # the spy renames a new file over each input right after its first
        # open, so a second read would see other bytes than the parse did
        from mimicfund import cli

        study = tmp_path / "study.json"
        study.write_text(json.dumps({"grid_points": 3}), encoding="utf-8")
        out_dir = tmp_path / "out"
        argv, paths = {
            "solve": (["--config", str(group_config), "--returns", str(returns_csv)],
                      [group_config, returns_csv]),
            "study": (["--config", str(study), "--output-dir", str(out_dir)], [study]),
            "estimate": (["--returns", str(returns_csv)], [returns_csv]),
        }[command]
        parsed = {str(path): path.read_bytes() for path in paths}
        opened = collections.Counter()
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            handle = real_open(file, *args, **kwargs)
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) in parsed:
                name = os.fspath(file)
                opened[name] += 1
                with real_open(name + ".new", "wb") as other:
                    other.write(b"rewritten after the first open\n")
                os.replace(name + ".new", name)
            return handle

        monkeypatch.setattr(builtins, "open", spy)
        code = cli.main([command, *argv])
        monkeypatch.undo()
        out = capsys.readouterr().out
        assert code == 0
        assert opened == dict.fromkeys(parsed, 1)
        if command == "study":
            manifest = json.loads((out_dir / "figure1.manifest.json").read_text(encoding="utf-8"))
        else:
            manifest = json.loads(out)["manifest"]
        assert manifest["inputs"] == {
            name: hashlib.sha256(data).hexdigest() for name, data in parsed.items()
        }

    @pytest.mark.parametrize("command", ["solve", "estimate"])
    def test_return_file_is_read_by_load_csv_alone(
        self, command, returns_csv, group_config, monkeypatch, capsys
    ):
        # each call is counted by function and by the module that made it
        from mimicfund import cli, moments

        calls = collections.Counter()

        def spy(fn):
            def wrapper(*args):
                calls[fn.__name__, sys._getframe(1).f_globals["__name__"]] += 1
                return fn(*args)

            return wrapper

        for module, name in ((cli, "load_csv"), (cli, "read_input"),
                             (moments, "read_input"), (moments, "parse_csv")):
            monkeypatch.setattr(module, name, spy(getattr(module, name)))
        config = ["--config", str(group_config)] if command == "solve" else []
        assert cli.main([command, *config, "--returns", str(returns_csv)]) == 0
        capsys.readouterr()
        expected = {("load_csv", "mimicfund.cli"): 1, ("read_input", "mimicfund.moments"): 1,
                    ("parse_csv", "mimicfund.moments"): 1}
        if command == "solve":
            expected["read_input", "mimicfund.cli"] = 1  # the config, in _config
        assert calls == expected
        assert "parse_csv" not in vars(cli)

    @pytest.mark.parametrize(
        "argv",
        [["estimate", "--returns", "a\x00b.csv"],
         ["solve", "--config", "{cfg}", "--output", "o\x00.json"],
         ["study", "--output-dir", "d\x00ir"]],
        ids=["estimate-returns", "solve-output", "study-output-dir"],
    )
    def test_path_holding_a_nul_exits_2(self, argv, solve_config, tmp_path, monkeypatch, capsys):
        # no shell passes a NUL in argv, but an in-process call can
        from mimicfund import cli

        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert cli.main([arg.format(cfg=solve_config) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert_one_short_error_line(out, err)
        assert "embedded null byte" in err
        assert sorted(tmp_path.iterdir()) == before


class TestEstimate:
    def test_prints_moments(self, returns_csv):
        result = run_cli("estimate", "--returns", str(returns_csv))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["asset_names"] == ["A", "B"]
        assert report["observations"] == 60
        assert len(report["mu"]) == 2
        assert len(report["sigma"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        result = run_cli("estimate", "--returns", str(tmp_path / "missing.csv"))
        assert result.returncode == 2

    @pytest.mark.parametrize("command", ["estimate", "solve"])
    def test_annualize_beyond_the_float_range_exits_1(self, command, returns_csv, group_config):
        config = ["--config", str(group_config)] if command == "solve" else []
        result = run_cli(
            command, *config, "--returns", str(returns_csv), "--annualize", str(10**400)
        )
        assert result.returncode == 1
        assert_one_short_error_line(result.stdout, result.stderr)
        assert "periods_per_year is not an array of numbers" in result.stderr

    def test_non_utf8_file_exits_1(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"A,B\n\xff\xfe,1\n")
        result = run_cli("estimate", "--returns", str(path))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "not UTF-8" in result.stderr

    @pytest.mark.parametrize(
        "text, message, env",
        [("A,B\n0.1,0.2\n{big},0.3\n", "{path}: row 3: field larger than field limit", None),
         ('"{big}",B\n0.1,0.2\n', "{path}: row 1: field larger than field limit", None),
         ('A,B\n0.1,0.2\n"{big}",0.3\n', "{path}: row 3: field larger than field limit", None),
         # Python 3.10's csv rejects the NUL itself; from 3.11 the cell is not a number
         ("A,B\n0.1,0.2\n0.3,0.4\0\n0.5,0.6\n", "{path}: row 3", None),
         # a warning would be an exception here, so none may be raised
         ("A,B\n\n\n", "{path}: row 2: expected 2 fields, got 0", {"PYTHONWARNINGS": "error"}),
         ("A,B\n0.01,0.02\n-0.02,0.01\n0.03,-0.01\n",
          "need at least k + 2 = 4 observations, got 3", None)],
        ids=["unquoted-cell", "quoted-name", "quoted-cell", "nul-cell", "blank-body", "too-few-rows"],
    )
    def test_malformed_return_file_exits_1(self, tmp_path, text, message, env):
        path = tmp_path / "returns.csv"
        path.write_text(text.format(big="1" * (csv.field_size_limit() + 1)), encoding="utf-8")
        result = run_cli("estimate", "--returns", str(path), env=env)
        assert result.returncode == 1
        assert_one_short_error_line(result.stdout, result.stderr)
        assert result.stderr.startswith("error: " + message.format(path=path))


def test_version():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout == "mimicfund 0.1.0\n"


def test_cli_module_runs_as_a_script():
    # the module's own __main__ guard, not the package's __main__.py
    result = subprocess.run([sys.executable, "-m", "mimicfund.cli", "--version"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert (result.stdout, result.stderr) == ("mimicfund 0.1.0\n", "")


def test_output_is_ascii_for_a_non_utf8_stdout(solve_config, returns_csv):
    # a console that cannot encode UTF-8 still gets every report, not a traceback
    commands = [
        ("verify", "--count", "0"),
        ("verify", "--count", "2"),
        ("solve", "--config", str(solve_config)),
        ("estimate", "--returns", str(returns_csv)),
    ]
    for command in commands:
        result = run_cli(*command, env={"PYTHONIOENCODING": "ascii"})
        assert result.returncode == 0, command
        assert "Traceback" not in result.stderr, command
        assert result.stdout.isascii(), command


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--count"],
        ["verify", "--max-k"],
        ["verify", "--max-n"],
        ["verify", "--seed"],
        ["solve", "--annualize"],
        ["estimate", "--returns", "r.csv", "--annualize"],
    ],
    ids=["count", "max-k", "max-n", "seed", "solve-annualize", "estimate-annualize"],
)
@pytest.mark.parametrize("text", ["x" * 1000, "-" + "9" * 4000], ids=["non-integer", "negative"])
def test_malformed_integer_flag_is_shown_truncated(argv, text, capsys):
    # the usage error quotes the rejected text or value, truncated
    from mimicfund import cli

    with pytest.raises(SystemExit) as caught:
        cli.main([*argv, text])
    assert caught.value.code == 1
    lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(lines) == 1 and len(lines[0]) < 300
    assert f"argument {argv[-1]}:" in lines[0]


# 100 000-character values of period 10; float() reads the digits as inf,
# and int() rejects them past its digit limit
LONG_TEXT = "abcdefghij" * 10_000
LONG_DIGITS = "1234567890" * 10_000
RETURN_ROWS = "0.01,0.02\n-0.02,0.01\n0.03,-0.01\n0.00,0.04\n0.02,0.00\n"


@pytest.mark.parametrize(
    "command, flag, text, value, env",
    [
        ("solve", "--config", f'{{"{LONG_TEXT}": 1, "{LONG_TEXT}": 2}}', LONG_TEXT, None),
        ("solve", "--config", json.dumps({**support.TEXTBOOK_CONFIG, LONG_TEXT: 1}), LONG_TEXT, None),
        ("estimate", "--returns", f"{LONG_TEXT},{LONG_TEXT}\n{RETURN_ROWS}", LONG_TEXT, None),
        ("estimate", "--returns", f"A,B\n{RETURN_ROWS}{LONG_TEXT},0\n", LONG_TEXT, None),
        ("estimate", "--returns", f"A,B\n{RETURN_ROWS}{LONG_DIGITS},0\n", LONG_DIGITS, None),
        ("study", "--output-dir", None, LONG_DIGITS, {"SOURCE_DATE_EPOCH": LONG_DIGITS}),
    ],
    ids=["repeated-key", "unknown-key", "asset-name", "non-number-cell", "non-finite-cell",
         "source-date-epoch"],
)
def test_long_outside_value_is_shown_truncated(command, flag, text, value, env, tmp_path):
    # README: every rejected value is shown by model._shown, so the error
    # line stays short however long the value is
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    result = run_cli(command, flag, str(path), env=env)
    assert result.returncode == 1
    assert_one_short_error_line(result.stdout, result.stderr)
    assert value[:10] in result.stderr
    # the value has period 10, so these are all of its 101-character runs
    assert not any(value[start:start + 101] in result.stderr for start in range(10))


# characters that end a line, move the cursor or end a C string in a path
LINE_BREAKERS = {"\n": r"\n", "\r": r"\r", "\t": r"\t", "\x00": r"\x00", "\u2028": r"\u2028"}


@pytest.mark.parametrize("char", sorted(LINE_BREAKERS), ids=repr)
@pytest.mark.parametrize(
    "argv",
    [["estimate", "--returns", "{dir}/no{char}such.csv"],
     ["solve", "--config", "{dir}/no{char}such.json"],
     ["solve", "--config", "{cfg}", "--output", "{dir}/no{char}dir/out.json"],
     ["study", "--output-dir", "{file}/d{char}ir"]],
    ids=["estimate-returns", "solve-config", "solve-output", "study-output-dir"],
)
def test_path_is_shown_on_one_error_line(argv, char, solve_config, tmp_path, capsys):
    # cli._log escapes what would break the line; each path fails to open
    from mimicfund import cli

    (tmp_path / "file").write_text("", encoding="utf-8")
    fields = {"dir": tmp_path, "file": tmp_path / "file", "cfg": solve_config, "char": char}
    assert cli.main([arg.format(**fields) for arg in argv]) == cli.EXIT_IO
    out, err = capsys.readouterr()
    assert_one_short_error_line(out, err)
    assert LINE_BREAKERS[char] in err and char not in err[:-1]


@pytest.mark.parametrize("char", sorted(LINE_BREAKERS), ids=repr)
def test_unknown_option_is_shown_on_one_error_line(char, capsys):
    from mimicfund import cli

    with pytest.raises(SystemExit) as caught:
        cli.main(["estimate", "--returns", "r.csv", f"--no{char}such"])
    assert caught.value.code == cli.EXIT_VALIDATION
    usage = cli._build_parser().format_usage()
    err = capsys.readouterr().err
    assert err.startswith(usage) and err[len(usage):].count("\n") == 1
    assert f"error: unrecognized arguments: --no{LINE_BREAKERS[char]}such\n" in err


# entries a config may hold in place of a number: extremes of the float
# range, an integer beyond it, non-finite values and non-numbers
ODD_ENTRIES = st.one_of(
    st.sampled_from([
        0.0, -1.0, 5e-324, 1e-320, 1e-308, 1e308, -1e308, 10**400,
        math.nan, math.inf, -math.inf, True, False, "1", None,
    ]),
    st.floats(),
)
ENTRIES = st.one_of(st.floats(-10, 10), ODD_ENTRIES)
# a bare entry or lists nested a few levels deep
NESTED = st.recursive(ENTRIES, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@pytest.fixture(scope="module")
def fuzz_returns(tmp_path_factory):
    """A small fixed return history of two assets."""
    path = tmp_path_factory.mktemp("fuzz") / "returns.csv"
    rows = ["0.01,0.02", "-0.02,0.01", "0.03,-0.01", "0.00,0.04", "0.02,0.00", "-0.01,0.03"]
    path.write_text("\n".join(["A,B", *rows]) + "\n", encoding="utf-8")
    return path


@st.composite
def solve_configs(draw):
    """``(config, returns)``: a config and whether ``--returns`` is given; the
    market is in neither, one or both of them."""
    n = draw(st.integers(1, 4))
    # valid entries, from everyday values to the ends of the float range
    positive = st.one_of(st.floats(1e-3, 1e3), st.floats(0, exclude_min=True, allow_infinity=False))
    shares = st.just([1 / n] * n)
    non_negative = st.one_of(st.floats(0, 1e3), st.floats(0, allow_infinity=False))
    clean = draw(st.booleans())

    def value(valid, vector=None):
        # n valid entries, n entries with odd ones mixed in, or any shape
        if vector is None:
            vector = st.lists(valid, min_size=n, max_size=n)
        if clean:
            return draw(vector)
        odd = st.lists(st.one_of(valid, ODD_ENTRIES), min_size=n, max_size=n)
        return draw(st.one_of(vector, odd, NESTED))

    config = {
        "alpha": value(positive),
        "beta": value(positive, shares),
        "phi": value(non_negative),
    }
    market = draw(st.sampled_from(["textbook", "drawn", "none"]))
    if market == "textbook":
        config.update(support.TEXTBOOK_MARKET)
    elif market == "drawn":
        config.update(draw_market(draw))
    return config, draw(st.booleans())


def draw_market(draw):
    """mu and sigma of 1 to 3 assets, with odd entries mixed in, or any shape."""
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=k, max_size=k), min_size=k, max_size=k))
    symmetric = [[rows[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
    return {
        "mu": draw(st.one_of(st.lists(ENTRIES, min_size=k, max_size=k), NESTED)),
        "sigma": draw(st.one_of(st.just(symmetric), st.just(rows), NESTED)),
    }


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=solve_configs())
# the wealth-share sum overflows to inf
@example(case=({**support.TEXTBOOK_CONFIG, "alpha": [0.5, 0.5], "beta": [1e308, 1e308], "phi": [0, 0]},
               False))
# sigma - sigma.T overflows to inf
@example(case=({**support.TEXTBOOK_CONFIG, "mu": [0, 0], "sigma": [[1, 1e308], [-1e308, 1]]}, False))
# 1 / alpha, and so the classical fund, is infinite
@example(case=({**support.TEXTBOOK_CONFIG, "alpha": [1e-320, 1]}, False))
# numpy's message would quote the whole string
@example(case=({**support.TEXTBOOK_CONFIG, "alpha": ["x" * 10**5, 1]}, False))
# deeper than numpy 1.x allows an array to be, within numpy 2.x's limit
@example(case=({**support.TEXTBOOK_CONFIG, "alpha": json.loads(nested(40))}, False))
# both market sources, the config's malformed
@example(case=({**support.TEXTBOOK_CONFIG, "mu": "not a vector"}, True))
def test_solve_keeps_the_exit_code_contract(fuzz_config, fuzz_returns, case):
    # any config and market sources end in a documented exit code, without
    # a traceback or warning, and a successful report is strict JSON from
    # exactly one market source
    from mimicfund import cli

    config, returns = case
    fuzz_config.write_text(json.dumps(config), encoding="utf-8")
    argv = ["solve", "--config", str(fuzz_config)]
    if returns:
        argv += ["--returns", str(fuzz_returns)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert ("mu" in config) != returns
    else:
        assert_one_short_error_line(out.getvalue(), err.getvalue())


@st.composite
def study_configs(draw):
    # each grid key is absent, valid or odd; grid_points is small or odd
    # alpha1 and phi_ratio also reach the ends of the float range, where the
    # utilities overflow (exit 3) or the grid does (exit 1)
    valid = {
        "alpha1": st.one_of(st.floats(0.1, 10), st.floats(1e-8, 1e-5), st.floats(1e300, 1e308)),
        "phi_ratio": st.one_of(st.floats(0, 2), st.floats(1e300, 1e308)),
        "phi_set": st.lists(st.floats(0, 10), min_size=1, max_size=3),
        "a_set": st.lists(st.floats(1, 10), min_size=1, max_size=3),
        "a_range": st.tuples(st.floats(1, 5), st.floats(5, 10)).map(list),
        "phi_range": st.tuples(st.floats(0, 2), st.floats(2, 5)).map(list),
    }
    config = {}
    for key, strategy in valid.items():
        if draw(st.booleans()):
            config[key] = draw(st.one_of(strategy, st.lists(ENTRIES, max_size=3), NESTED))
    config["grid_points"] = draw(st.one_of(st.integers(2, 5), ODD_ENTRIES))
    # the default market, a drawn one, or the tiny-covariance one
    market = draw(st.sampled_from(["default", "drawn", "tiny"]))
    if market == "drawn":
        config.update(draw_market(draw))
    elif market == "tiny":
        config.update(mu=support.TEXTBOOK_CONFIG["mu"], sigma=TINY_SIGMA)
    return config


@settings(derandomize=True, deadline=None, max_examples=200)
@given(config=study_configs())
# a number where the study takes an array
@example(config={"phi_set": 3})
# numpy's message would quote the whole string
@example(config={"mu": ["x" * 10**5, 0.14], "sigma": support.TEXTBOOK_CONFIG["sigma"]})
# deeper than numpy 1.x allows an array to be, within numpy 2.x's limit
@example(config={"phi_set": json.loads(nested(40))})
# the utilities overflow: exit 3
@example(config={"mu": [0.07, 0.14], "sigma": TINY_SIGMA, "alpha1": 1e-6})
# the grid's phi_2 = phi_1 phi_ratio overflows: exit 1 before the run
@example(config={"phi_ratio": 1e308})
def test_study_keeps_the_exit_code_contract(fuzz_config, config):
    # any study config ends in a documented exit code, without a traceback
    # or warning, and a failed run writes no figure file
    from mimicfund import cli

    out_dir = fuzz_config.parent / "study"
    shutil.rmtree(out_dir, ignore_errors=True)
    fuzz_config.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["study", "--config", str(fuzz_config), "--output-dir", str(out_dir)])
    assert code in {0, 1, 3}
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert (out_dir / "figure1.csv").exists() and (out_dir / "figure2.csv").exists()
    else:
        assert_one_short_error_line(out.getvalue(), err.getvalue())
        assert not list(out_dir.glob("figure*"))


def test_cli_import_defers_command_modules():
    # oracle, sampling and study serve only verify and study; solve must not load them
    probe = (
        "import mimicfund.cli, sys; "
        "print(sorted(m for m in ('mimicfund.oracle', 'mimicfund.sampling', 'mimicfund.study') "
        "if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # the package depends on numpy alone; scipy must not creep back into the import
    probe = "import mimicfund.cli, sys; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_process_entry_freezes_the_import_graph():
    # python -m mimicfund freezes what the imports made before main runs and
    # leaves collection on; a plain interpreter's freeze count is 0
    probe = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled())); "
        "sys.argv = ['mimicfund', '--version']; "
        "runpy.run_module('mimicfund', run_name='__main__')"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "mimicfund 0.1.0\nTrue True\n"


def test_in_process_main_leaves_the_collector_alone(capsys):
    from mimicfund import cli

    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["verify", "--count", "2", "--seed", "1"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_module_and_console_script_share_the_entry(monkeypatch):
    # CI's "Console script" step runs only --version, a failing verify and the
    # default study through the installed script, and the tests run every other
    # command through python -m mimicfund, so both must be the one freezing entry
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    from mimicfund import cli

    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"mimicfund": "mimicfund.cli:run"}
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run") or 0)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("mimicfund", run_name="__main__")
    assert calls == ["run"] and exit_info.value.code == 0

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "mimicfund", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=None if env is None else {**os.environ, **env},
    )


NON_UTF8_CONFIG = b'{"alpha": [1, 2]\xff}'


def assert_validation_error(result):
    # an "error:" line and exit 1, never a Python traceback
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


TEXTBOOK_CONFIG = {
    "mu": [0.07, 0.14],
    "sigma": [[0.0144, 0.0048], [0.0048, 0.04]],
    "alpha": [2.0, 4.0],
    "beta": [0.5, 0.5],
    "phi": [3.0, 3.0],
}


# the textbook covariance scaled by 1e-300: valid, with entries near the
# bottom of the normal float range
TINY_SIGMA = [[1.44e-302, 4.8e-303], [4.8e-303, 4e-302]]


@pytest.fixture
def solve_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TEXTBOOK_CONFIG), encoding="utf-8")
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

    def test_unnormalized_beta_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "mu": [0.07, 0.14],
                    "sigma": [[0.0144, 0.0048], [0.0048, 0.04]],
                    "alpha": [2.0, 4.0],
                    "beta": [0.6, 0.6],
                    "phi": [3.0, 3.0],
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("solve", "--config", str(path))
        assert result.returncode == 1
        assert "beta" in result.stderr

    def test_degenerate_returns_exit_1(self, tmp_path, solve_config):
        csv = tmp_path / "flat.csv"
        csv.write_text("A,B\n" + "0.01,0.02\n" * 12, encoding="utf-8")
        result = run_cli(
            "solve", "--config", str(solve_config), "--returns", str(csv)
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

    def test_market_from_flags(self, tmp_path):
        group = tmp_path / "group.json"
        group.write_text(
            json.dumps({"alpha": [2.0, 4.0], "beta": [0.5, 0.5], "phi": [0.0, 0.0]}),
            encoding="utf-8",
        )
        result = run_cli(
            "solve",
            "--config", str(group),
            "--mu", "[0.07, 0.14]",
            "--sigma", "[[0.0144, 0.0048], [0.0048, 0.04]]",
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["mimicking"]["alpha_star_f"] == pytest.approx(8 / 3, rel=1e-9)

    def test_missing_market_exits_1(self, tmp_path):
        group = tmp_path / "group.json"
        group.write_text(
            json.dumps({"alpha": [2.0, 4.0], "beta": [0.5, 0.5], "phi": [0.0, 0.0]}),
            encoding="utf-8",
        )
        result = run_cli("solve", "--config", str(group))
        assert result.returncode == 1
        assert "market" in result.stderr

    @pytest.mark.parametrize("present", ["mu", "sigma"])
    def test_half_market_in_config_exits_1(self, tmp_path, present):
        config = {key: TEXTBOOK_CONFIG[key] for key in ("alpha", "beta", "phi", present)}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert result.returncode == 1
        assert "solve config must give mu and sigma together" in result.stderr

    def test_half_market_in_config_exits_1_under_returns(self, tmp_path, returns_csv):
        # the config is checked as a whole, even where --returns would replace its market
        config = {key: TEXTBOOK_CONFIG[key] for key in ("alpha", "beta", "phi", "mu")}
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

    def test_missing_returns_file_exits_2(self, solve_config, tmp_path):
        result = run_cli(
            "solve", "--config", str(solve_config), "--returns", str(tmp_path / "nope.csv")
        )
        assert result.returncode == 2

    def test_non_numeric_alpha_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TEXTBOOK_CONFIG, "alpha": "ab"}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "alpha" in result.stderr

    def test_non_numeric_sigma_entry_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        sigma = [[0.0144, "x"], [0.0048, 0.04]]
        path.write_text(json.dumps({**TEXTBOOK_CONFIG, "sigma": sigma}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "sigma" in result.stderr

    @pytest.mark.parametrize("alpha", [["2", 4.0], [True, 4.0], [True, 2.5]])
    def test_string_or_boolean_alpha_exits_1(self, tmp_path, alpha):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TEXTBOOK_CONFIG, "alpha": alpha}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "alpha is not an array of numbers" in result.stderr

    def test_string_in_mu_flag_exits_1(self, tmp_path):
        group = tmp_path / "group.json"
        group.write_text(
            json.dumps({key: TEXTBOOK_CONFIG[key] for key in ("alpha", "beta", "phi")}),
            encoding="utf-8",
        )
        result = run_cli(
            "solve", "--config", str(group),
            "--mu", '["0.07", 0.14]', "--sigma", json.dumps(TEXTBOOK_CONFIG["sigma"]),
        )
        assert_validation_error(result)
        assert "mu is not an array of numbers" in result.stderr

    def test_unknown_config_key_exits_1(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({**TEXTBOOK_CONFIG, "extra": 1}), encoding="utf-8")
        result = run_cli("solve", "--config", str(path))
        assert_validation_error(result)
        assert "error: unknown solve config keys: extra" in result.stderr

    def test_overflowing_frontier_exits_3(self, tmp_path):
        # sigma^-1 mu is about 1e312: a numerical failure, not invalid input
        cfg = tmp_path / "config.json"
        config = {**TEXTBOOK_CONFIG, "mu": [1e10, 2e10], "sigma": TINY_SIGMA}
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(cfg))
        assert result.returncode == 3
        assert result.stdout == ""
        assert "error: frontier constants are not finite" in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "alpha, phi, message",
        [
            # delta cancels to -256 although eigvalsh(a_phi) is (6.36, 6.05e8)
            ((1.3863072561283194e-4, 25.442767887553956), (0.5369271349060832, 2419877411.616322),
             "positive-definiteness guard"),
            # a column of W sums to 1 + 3.5e-10
            ((6.39188298965864e-6, 2.036259105597082e-6), (526555.6052483491, 1048.9066279687663),
             "violating the unit-sum constraint"),
        ],
    )
    def test_rounding_failure_of_a_valid_group_exits_3(self, tmp_path, alpha, phi, message):
        cfg = tmp_path / "config.json"
        config = {**TEXTBOOK_CONFIG, "alpha": alpha, "phi": phi}
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("solve", "--config", str(cfg))
        assert result.returncode == 3
        assert result.stdout == ""
        assert message in result.stderr and "np.float64" not in result.stderr
        assert "Traceback" not in result.stderr

    def test_failed_covariance_solve_exits_3(self, solve_config, monkeypatch, capsys):
        # no known market reaches it after a successful Cholesky; inject it
        import numpy as np

        from mimicfund import cli

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        code = cli.main(["solve", "--config", str(solve_config)])
        err = capsys.readouterr().err
        assert code == 3
        assert "error: covariance solve failed: Singular matrix" in err
        assert "Traceback" not in err

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


class TestVerify:
    def test_small_run_passes_and_is_deterministic(self):
        args = ("verify", "--count", "40", "--max-k", "6", "--max-n", "6", "--seed", "7")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert "result: OK" in first.stdout
        assert "worst relative error" in first.stdout
        assert first.stdout == second.stdout

    def test_full_spec_invocation(self):
        result = run_cli(
            "verify", "--count", "500", "--max-k", "10", "--max-n", "10", "--seed", "7"
        )
        assert result.returncode == 0
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
            "sigma": TEXTBOOK_CONFIG["sigma"],
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

    def test_non_array_phi_set_exits_1(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"phi_set": 3}), encoding="utf-8")
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(tmp_path / "s"))
        assert_validation_error(result)
        assert "study config key phi_set must be a JSON array" in result.stderr

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

    def test_negative_gain_exits_3(self, tmp_path, monkeypatch, capsys):
        # no known input reaches it; a negative slope makes every gain negative
        from mimicfund import cli, markowitz

        true_context = markowitz.context

        def flipped(market):
            ctx = true_context(market)
            return dataclasses.replace(ctx, slope=-ctx.slope)

        monkeypatch.setattr(markowitz, "context", flipped)
        out = tmp_path / "study"
        code = cli.main(["study", "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "error: series phi=3, coordinate 1.09: utility gain" in err
        assert "is negative; optimality is violated" in err
        assert "Traceback" not in err
        assert not (out / "figure1.csv").exists()

    def test_overflowing_slope_exits_3(self, tmp_path):
        # mu' sigma^-1 mu is about 2.5e309; it must not be read as a flat frontier
        cfg = tmp_path / "study.json"
        config = {"mu": [1e154, 2e154], "sigma": TEXTBOOK_CONFIG["sigma"]}
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "study"
        result = run_cli("study", "--config", str(cfg), "--output-dir", str(out))
        assert result.returncode == 3
        assert "error: frontier constants are not finite" in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr
        assert not out.exists() or not any(out.iterdir())


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

    def test_non_utf8_file_exits_1(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"A,B\n\xff\xfe,1\n")
        result = run_cli("estimate", "--returns", str(path))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "not UTF-8" in result.stderr


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

"""The benchmark's workloads: seeded inputs, one timed op, an output check.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  ``setup(seed, tmpdir)`` builds every input from
the seed; ``op(state, i)`` is the timed call into the program; ``check`` runs
outside the timed region and raises :class:`CheckFailed` on a wrong output.
``calibration`` names the kernel of ``calibrate.py`` timed beside the op.
A workload may define ``trace_op``, the in-process form of its op that the
traced run uses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class CheckFailed(Exception):
    """An op returned an output that fails the workload's check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class StudyDefault:
    name = "study-default"
    why = (
        "paper's fixed 606-point n=2 grid, seed-independent: per-call overhead of "
        "study/mimicking/model/markowitz, 2 solves and 5 matrix builds per point"
    )
    calibration = "interpreter"
    REFERENCE = os.path.join(HERE, "reference", "study_default.csv")
    # Absolute tolerance on delta_omega and delta_eu against the reference
    # table recorded at the seed commit; both columns are O(1e-3..1e-1), and a
    # different but correct summation order moves them by ~1e-15.
    TOL = 1e-9

    def setup(self, seed, tmpdir):
        from mimicfund import study

        with open(self.REFERENCE, newline="", encoding="utf-8") as handle:
            reference = list(csv.DictReader(handle))
        return {"study": study, "config": study.StudyConfig(), "reference": reference}

    def op(self, state, i):
        return state["study"].run_sweeps(state["config"])

    def check(self, state, i, output):
        rows = [
            (figure, r.series, r.coordinate, r.delta_omega, r.delta_eu)
            for figure, table in zip(("figure1", "figure2"), output)
            for r in table.records
        ]
        reference = state["reference"]
        _require(len(rows) == len(reference), f"{len(rows)} rows, reference has {len(reference)}")
        worst = 0.0
        for row, ref in zip(rows, reference):
            _require(
                (row[0], row[1]) == (ref["figure"], ref["series"]),
                f"row {row[:2]} where the reference has {ref['figure']}/{ref['series']}",
            )
            worst = max(
                worst,
                abs(row[2] - float(ref["coordinate"])),
                abs(row[3] - float(ref["delta_omega"])),
                abs(row[4] - float(ref["delta_eu"])),
            )
        _require(worst <= self.TOL, f"deviation {worst:.3e} from the reference table")
        return 0.0


def relative_entry_error(a, b) -> float:
    """Entrywise error relative to magnitude, floored at 1 (as ``verify``)."""
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


class VerifySmall:
    name = "verify-small"
    why = (
        "verify's distribution (k, n <= 10): the only workload where the dense KKT "
        "oracle works; one markowitz.context per instance"
    )
    calibration = "small_arrays"
    POOL = 2000
    TOL = 1e-10

    def setup(self, seed, tmpdir):
        from mimicfund import markowitz, mimicking, oracle, sampling

        rng = np.random.default_rng(seed)
        pool = [sampling.random_instance(rng, 10, 10) for _ in range(self.POOL)]
        return {"pool": pool, "markowitz": markowitz, "mimicking": mimicking, "oracle": oracle}

    def op(self, state, i):
        market, group = state["pool"][i % self.POOL]
        ctx = state["markowitz"].context(market)
        closed = state["mimicking"].solve(ctx, group).w_star.weights
        checked = state["oracle"].kkt_solve(market, group).weights.weights
        return closed, checked

    def check(self, state, i, output):
        err = relative_entry_error(*output)
        _require(err <= self.TOL, f"closed form and oracle differ by {err:.3e}")
        return err


class SolveLargeN:
    name = "solve-large-n"
    why = (
        "n=1000, k=20 on the dense path: three n x n factorizations and the n x n Gram "
        "matrix are nearly the whole op; the scaling axis of the O(n) solve"
    )
    calibration = "dense"
    K = 20
    N = 1000
    GROUPS = 4
    # Relative tolerances of the first-order check; the dense solve meets it
    # with ~1e-14 at the seed commit.
    KKT_RTOL = 1e-10
    SUM_TOL = 1e-10

    def setup(self, seed, tmpdir):
        from mimicfund import markowitz, mimicking, sampling

        rng = np.random.default_rng(seed)
        market = sampling.random_market(rng, self.K)
        groups = [sampling.random_group(rng, self.N) for _ in range(self.GROUPS)]
        return {"market": market, "groups": groups, "markowitz": markowitz, "mimicking": mimicking}

    def op(self, state, i):
        ctx = state["markowitz"].context(state["market"])
        return state["mimicking"].solve(ctx, state["groups"][i % self.GROUPS])

    def check(self, state, i, output):
        market, group = state["market"], state["groups"][i % self.GROUPS]
        w = np.asarray(output.w_star.weights)
        alpha, beta, phi = group.alpha, group.beta, group.phi
        _require(w.shape == (self.K, self.N), f"weights have shape {w.shape}")
        # a_phi = D + (u beta' + beta u') / 2 with D = diag((alpha + phi) beta)
        # and u = (phi_bar - 2 phi) beta, applied without forming it.
        d = (alpha + phi) * beta
        u = (float(beta @ phi) - 2.0 * phi) * beta
        sw = market.sigma @ w
        terms = (
            np.outer(market.mu, beta),
            -sw * d,
            -0.5 * np.outer(sw @ u, beta),
            -0.5 * np.outer(sw @ beta, u),
        )
        grad = sum(terms)
        scale = sum(np.max(np.abs(t), axis=0) for t in terms)
        spread = np.max((grad.max(axis=0) - grad.min(axis=0)) / scale)
        _require(spread <= self.KKT_RTOL, f"gradient columns not constant: {spread:.3e}")
        off = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
        _require(off <= self.SUM_TOL, f"column sums off by {off:.3e}")
        fund = np.asarray(output.fund_weights)
        gap = float(np.max(np.abs(fund - w @ beta)))
        _require(gap <= 1e-12 * max(1.0, float(np.max(np.abs(fund)))), f"fund_weights != W beta by {gap:.3e}")
        return 0.0


class CliCold:
    name = "cli-cold"
    why = (
        "mimicfund solve in a fresh interpreter on a 2520x30 return CSV and n=50: "
        "start-up, imports (scipy most), load_csv and JSON output"
    )
    calibration = "process"
    T = 2520
    K = 30
    N = 50
    ANNUALIZE = 252
    SUM_TOL = 1e-10
    rss_from_children = True

    def setup(self, seed, tmpdir):
        from mimicfund import sampling

        rng = np.random.default_rng(seed)
        factor = rng.standard_normal((self.K, self.K)) * 0.004
        cov = factor @ factor.T + np.diag(rng.uniform(1e-5, 4e-4, self.K))
        means = rng.normal(4e-4, 3e-4, self.K)
        returns = means + rng.standard_normal((self.T, self.K)) @ np.linalg.cholesky(cov).T
        csv_path = os.path.join(tmpdir, "returns.csv")
        header = ",".join(f"asset{j:02d}" for j in range(self.K))
        np.savetxt(csv_path, returns, fmt="%.6f", delimiter=",", header=header, comments="")
        group = sampling.random_group(rng, self.N)
        config_path = os.path.join(tmpdir, "group.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump({"alpha": group.alpha.tolist(), "beta": group.beta.tolist(), "phi": group.phi.tolist()}, handle)
        argv = ["solve", "--config", config_path, "--returns", csv_path, "--annualize", str(self.ANNUALIZE)]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
        return {"argv": argv, "env": env}

    def op(self, state, i):
        proc = subprocess.Popen(
            [sys.executable, "-m", "mimicfund", *state["argv"]],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=state["env"],
        )
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "stdout": out, "stderr": err, "rss_kb": usage.ru_maxrss}

    def trace_op(self, state, i):
        from mimicfund import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(state["argv"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "rss_kb": 0}

    def check(self, state, i, output):
        _require(output["code"] == 0, f"exit code {output['code']}: {output['stderr'][-300:]!r}")
        try:
            report = json.loads(output["stdout"])
            weights = np.array(report["mimicking"]["weights"], dtype=float)
            fund = np.array(report["mimicking"]["fund_weights"], dtype=float)
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"unreadable report: {exc}") from None
        _require(weights.shape == (self.K, self.N), f"weights have shape {weights.shape}")
        off = max(float(np.max(np.abs(weights.sum(axis=0) - 1.0))), abs(float(fund.sum()) - 1.0))
        _require(off <= self.SUM_TOL, f"weight columns sum off by {off:.3e}")
        return 0.0


WORKLOADS = {w.name: w for w in (StudyDefault(), VerifySmall(), SolveLargeN(), CliCold())}

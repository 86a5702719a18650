"""Command-line interface: solve, verify, study, estimate.

Machine-readable results go to stdout or to files; logs and human summaries
go to stderr.  Exit codes: 0 ok, 1 validation error, 2 I/O error,
3 numerical failure, 4 verification disagreement.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, errors, markowitz, mimicking
from .model import MarketModel, build_group, build_market
from .moments import estimate, load_csv

# oracle, sampling and study are imported by the commands that use them, so
# that solve and estimate do not pay for them at start-up.
if TYPE_CHECKING:
    from .study import StudyConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

VERIFY_TOL = 1e-10


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _timestamp() -> str:
    # honor SOURCE_DATE_EPOCH so manifests can be byte-reproducible
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        moment = datetime.datetime.now(tz=datetime.timezone.utc)
    else:
        try:
            moment = datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
        except (ValueError, OverflowError, OSError) as exc:
            # int() rejects the text; fromtimestamp rejects a time outside
            # the platform's time_t or datetime's years 1..9999
            raise errors.ValidationError(
                f"SOURCE_DATE_EPOCH must be an integer count of seconds in years 1..9999, "
                f"got {epoch!r} ({exc})"
            ) from None
    return moment.isoformat(timespec="seconds")


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError as exc:
        raise errors.IoError(f"cannot read {path}: {exc}") from exc


def _manifest(command: str, config: dict, input_paths: list) -> dict:
    """Audit block accompanying every output: what ran, on what, when."""
    return {
        "command": command,
        "config": config,
        "inputs": {path: _digest(path) for path in input_paths},
        "version": __version__,
        "timestamp": _timestamp(),
    }


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise errors.IoError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise errors.ParseError(f"{path}: expected a JSON object at top level")
    return data


def _parse_json_flag(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.ParseError(f"{flag}: invalid JSON: {exc}") from exc


def _resolve_market(args, config: dict) -> MarketModel:
    if args.returns is not None:
        sample = load_csv(args.returns)
        return estimate(sample, args.annualize)
    if args.mu is not None or args.sigma is not None:
        if args.mu is None or args.sigma is None:
            raise errors.ValidationError("--mu and --sigma must be given together")
        return build_market(_parse_json_flag(args.mu, "--mu"), _parse_json_flag(args.sigma, "--sigma"))
    if "mu" in config or "sigma" in config:
        if "mu" not in config or "sigma" not in config:
            raise errors.ValidationError("solve config must give mu and sigma together")
        return build_market(config["mu"], config["sigma"])
    raise errors.ValidationError(
        "no market given: use --returns, --mu/--sigma, or mu/sigma keys in the config file"
    )


def _resolve_group(config: dict):
    missing = [key for key in ("alpha", "beta", "phi") if key not in config]
    if missing:
        raise errors.ValidationError(f"config file lacks group keys: {', '.join(missing)}")
    return build_group(config["alpha"], config["beta"], config["phi"])


def _cmd_solve(args) -> int:
    config = _load_json(args.config) if args.config else {}
    unknown = set(config) - {"alpha", "beta", "phi", "mu", "sigma"}
    if unknown:
        raise errors.ValidationError(f"unknown solve config keys: {', '.join(sorted(unknown))}")
    if args.annualize is not None and args.returns is None:
        raise errors.ValidationError("--annualize applies only to a market estimated from --returns")
    input_paths = [p for p in (args.config, args.returns) if p]
    market = _resolve_market(args, config)
    group = _resolve_group(config)
    ctx = markowitz.context(market)
    solution = mimicking.solve(ctx, group)
    base_weights, alpha_f, base_point = markowitz.fund_aggregate(ctx, group)

    manifest = _manifest(
        command="solve",
        config={
            "mu": market.mu.tolist(),
            "sigma": market.sigma.tolist(),
            "alpha": group.alpha.tolist(),
            "beta": group.beta.tolist(),
            "phi": group.phi.tolist(),
            "annualize": args.annualize,
        },
        input_paths=input_paths,
    )
    report = {
        "manifest": manifest,
        "mimicking": {
            "weights": solution.w_star.weights.tolist(),
            "fund_weights": solution.fund_weights.tolist(),
            "alpha_star_f": solution.alpha_star_f,
            "fund_mean": solution.point.mean,
            "fund_variance": solution.point.variance,
            "eu_star": solution.eu_star,
        },
        "classical": {
            "fund_weights": base_weights.tolist(),
            "alpha_f": alpha_f,
            "fund_mean": base_point.mean,
            "fund_variance": base_point.variance,
        },
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise errors.IoError(f"cannot write {args.output}: {exc}") from exc
        _log(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    _log(
        f"fund risk aversion: mimicking {solution.alpha_star_f:.6g} "
        f"vs classical {alpha_f:.6g}; "
        f"first-asset weight shift {solution.fund_weights[0] - base_weights[0]:.6g}"
    )
    return EXIT_OK


def _relative_entry_error(a: np.ndarray, b: np.ndarray) -> float:
    # entrywise error relative to entry magnitude, floored at 1 (weights are
    # unit-sum scaled, so the floor keeps near-zero entries comparable)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def _cmd_verify(args) -> int:
    from . import oracle, sampling

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    worst_tag = "n/a"
    failures = 0
    lines = [
        f"instances: {args.count}",
        f"max-k: {args.max_k}  max-n: {args.max_n}  seed: {args.seed}",
        f"tolerance: {VERIFY_TOL:g}",
    ]
    for index in range(args.count):
        market, group = sampling.random_instance(rng, args.max_k, args.max_n)
        ctx = markowitz.context(market)
        closed = mimicking.solve(ctx, group).w_star.weights
        checked = oracle.kkt_solve(market, group).weights.weights
        err = _relative_entry_error(closed, checked)
        if err > worst:
            worst = err
            worst_tag = f"instance {index} (k={market.k}, n={group.n})"
        if err > VERIFY_TOL:
            failures += 1
            lines.append(
                f"DISAGREEMENT at instance {index} (k={market.k}, n={group.n}, "
                f"seed {args.seed}): relative error {err:.6e}"
            )
    if args.count == 0:
        lines.append("note: 0 instances requested — vacuous pass")
    else:
        lines.append(f"worst relative error: {worst:.6e} at {worst_tag}")
    lines.append("result: FAIL" if failures else "result: OK")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_VERIFY if failures else EXIT_OK


def _study_config(path) -> StudyConfig:
    from .study import DEFAULT_MARKET, StudyConfig

    if path is None:
        return StudyConfig()
    raw = _load_json(path)
    allowed = {
        "mu", "sigma", "alpha1", "phi_set", "a_set", "a_range", "phi_range",
        "grid_points", "phi_ratio",
    }
    unknown = set(raw) - allowed
    if unknown:
        raise errors.ValidationError(f"unknown study config keys: {', '.join(sorted(unknown))}")
    market = DEFAULT_MARKET
    if "mu" in raw or "sigma" in raw:
        if "mu" not in raw or "sigma" not in raw:
            raise errors.ValidationError("study config must give mu and sigma together")
        market = build_market(raw["mu"], raw["sigma"])
    kwargs = {"market": market}
    for key in ("alpha1", "grid_points", "phi_ratio"):
        if key in raw:
            kwargs[key] = raw[key]
    for key in ("phi_set", "a_set", "a_range", "phi_range"):
        if key in raw:
            if not isinstance(raw[key], list):
                raise errors.ValidationError(f"study config key {key} must be a JSON array")
            kwargs[key] = tuple(raw[key])
    return StudyConfig(**kwargs)


def _cmd_study(args) -> int:
    from .study import run_sweeps

    config = _study_config(args.config)
    figure1, figure2 = run_sweeps(config)
    manifest_config = {
        "mu": config.market.mu.tolist(),
        "sigma": config.market.sigma.tolist(),
        "alpha1": config.alpha1,
        "phi_set": list(config.phi_set),
        "a_set": list(config.a_set),
        "a_range": list(config.a_range),
        "phi_range": list(config.phi_range),
        "grid_points": config.grid_points,
        "phi_ratio": config.phi_ratio,
    }
    manifest = _manifest("study", manifest_config, [args.config] if args.config else [])
    try:
        os.makedirs(args.output_dir, exist_ok=True)
    except OSError as exc:
        raise errors.IoError(f"cannot create {args.output_dir}: {exc}") from exc
    for name, table in (("figure1", figure1), ("figure2", figure2)):
        csv_path = os.path.join(args.output_dir, f"{name}.csv")
        try:
            with open(csv_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(table.to_csv())
            with open(
                os.path.join(args.output_dir, f"{name}.manifest.json"), "w", encoding="utf-8"
            ) as handle:
                json.dump(manifest, handle, indent=2)
                handle.write("\n")
        except OSError as exc:
            raise errors.IoError(f"cannot write {csv_path}: {exc}") from exc
        _log(f"wrote {csv_path} ({len(table.records)} records)")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    sample = load_csv(args.returns)
    market = estimate(sample, args.annualize)
    manifest = _manifest("estimate", {"annualize": args.annualize}, [args.returns])
    report = {
        "manifest": manifest,
        "asset_names": list(sample.asset_names),
        "observations": sample.t,
        "mu": market.mu.tolist(),
        "sigma": market.sigma.tolist(),
    }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mimicfund",
        description="Closed-form portfolios for mean-variance investors with a mimicking penalty.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one market/group instance")
    solve.add_argument("--config", help="JSON file with alpha, beta, phi (and optionally mu, sigma)")
    solve.add_argument("--returns", help="CSV return history to estimate the market from")
    solve.add_argument("--annualize", type=int, help="periods per year for moment annualization")
    solve.add_argument("--mu", help="JSON vector of expected returns")
    solve.add_argument("--sigma", help="JSON matrix of return covariances")
    solve.add_argument("--output", help="write the JSON report here instead of stdout")
    solve.set_defaults(handler=_cmd_solve)

    verify = sub.add_parser("verify", help="cross-check the closed form against the KKT solver")
    verify.add_argument(
        "--count", type=_int_at_least(0), default=500, help="number of random instances"
    )
    verify.add_argument(
        "--max-k", type=_int_at_least(2), default=10, help="largest asset count"
    )
    verify.add_argument(
        "--max-n", type=_int_at_least(2), default=10, help="largest investor count"
    )
    verify.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed")
    verify.set_defaults(handler=_cmd_verify)

    study = sub.add_parser("study", help="run the utility-gain sweeps and write CSV tables")
    study.add_argument("--config", help="JSON file overriding the default grid")
    study.add_argument("--output-dir", default=".", help="directory for figure1.csv / figure2.csv")
    study.set_defaults(handler=_cmd_study)

    est = sub.add_parser("estimate", help="print sample moments of a CSV return history")
    est.add_argument("--returns", required=True, help="CSV return history")
    est.add_argument("--annualize", type=int, help="periods per year for moment annualization")
    est.set_defaults(handler=_cmd_estimate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except errors.IoError as exc:
        _log(f"error: {exc}")
        return EXIT_IO
    except errors.ValidationError as exc:
        _log(f"error: {exc}")
        return EXIT_VALIDATION
    except errors.NumericalError as exc:
        _log(f"error: {exc}")
        return EXIT_NUMERICAL
    except OSError as exc:
        _log(f"error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: solve, verify, study, estimate.

Machine-readable results go to stdout or to files; logs and human summaries
go to stderr.  Exit codes: 0 ok, 1 validation error, 2 I/O error,
3 numerical failure, 4 verification disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import errno
import gc
import json
import os
import stat
import sys

import numpy as np

from . import __version__, errors, markowitz, mimicking, model
from .model import InvestorGroup, MarketModel
from .moments import estimate, load_csv, read_input

# oracle, sampling and study are imported by the commands that use them, so
# that solve and estimate skip them at start-up.

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

VERIFY_TOL = 1e-10


def _log(message: str) -> None:
    """Write ``message`` to stderr as one line: each non-printable character is escaped."""
    print("".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in message), file=sys.stderr)


def _timestamp() -> str:
    # honor SOURCE_DATE_EPOCH so manifests can be byte-reproducible
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        moment = datetime.datetime.now(tz=datetime.timezone.utc)
    else:
        try:
            moment = datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
        except (ValueError, OverflowError, OSError):
            # int() rejects the text; fromtimestamp rejects a time outside
            # the platform's time_t or datetime's years 1..9999
            raise errors.ValidationError(
                "SOURCE_DATE_EPOCH must be an integer count of seconds in years 1..9999, "
                f"got {model._shown(epoch)}"
            ) from None
    return moment.isoformat(timespec="seconds")


def _manifest(command: str, config: dict, inputs: dict) -> dict:
    """Audit block of every output: what ran, on what (``inputs``: path to sha256), when."""
    return {
        "command": command,
        "config": config,
        "inputs": inputs,
        "version": __version__,
        "timestamp": _timestamp(),
    }


def _dumps(document: dict) -> str:
    """``document`` as indented strict JSON text, ending in a newline.

    RFC 8259 has no ``NaN`` or ``Infinity``, so a non-finite number in an
    output is a numerical failure (exit 3), not a token written out.
    """
    try:
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise errors.NumericalBreakdown(f"output holds a non-finite number: {exc}") from None


def _config(command: str, path, keys) -> tuple[dict, dict]:
    """``command``'s JSON config (``keys``, each once, mu with sigma) and ``{path: its sha256}``."""
    if path is None:
        return {}, {}
    text, digest = read_input(path)

    def unique(pairs):
        # json.loads keeps a repeated key's last value without a word
        key = model._repeated(key for key, _ in pairs)
        if key is not None:
            raise errors.ParseError(f"{path}: key {model._shown(key)} repeats")
        return dict(pairs)

    try:
        config = json.loads(text, object_pairs_hook=unique)
    except errors.ParseError:
        raise
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond the digit limit
        raise errors.ParseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise errors.ParseError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(config, dict):
        raise errors.ParseError(f"{path}: expected a JSON object at top level")
    unknown = set(config) - set(keys)
    if unknown:
        raise errors.ValidationError(f"unknown {command} config keys: {model._shown(sorted(unknown))}")
    if ("mu" in config) != ("sigma" in config):
        raise errors.ValidationError(f"{command} config must give mu and sigma together")
    return config, {path: digest}


def _write(files: dict) -> None:
    """Write each ``path: text`` of ``files``, all of them or none.

    A path is written through a symlink to the file it resolves to, which
    must be a regular file if it exists: a directory, FIFO or device is
    refused, and so are an empty path and two paths that resolve to one
    file.  Each text goes to a new temporary file beside that target, named
    ``.<pid>.<index>.tmp`` by the process id and the path's index in
    ``files``, so a target name of any valid length leaves room for it; a
    file or link already at that name fails the write.  The temporaries are
    renamed over their targets only once every one of them is written.  Any
    exception removes the temporaries this call made; an I/O failure becomes
    an :class:`errors.IoError` naming the path it was writing, and anything
    else (an interrupt) propagates unchanged.
    """
    temps = {}
    try:
        for index, (path, text) in enumerate(files.items()):
            if not path:
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            target = os.path.realpath(path)
            try:
                mode = os.stat(target).st_mode
            except FileNotFoundError:
                mode = stat.S_IFREG  # written as a new regular file
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if not stat.S_ISREG(mode):
                raise OSError("not a regular file")
            if target in temps:
                raise OSError("resolves to the same file as another output")
            temp = os.path.join(os.path.dirname(target), f".{os.getpid()}.{index}.tmp")
            with open(temp, "x", encoding="utf-8", newline="") as handle:
                temps[target] = path, temp  # only a temporary made here is removed
                handle.write(text)
        for target, (path, temp) in temps.items():
            os.replace(temp, target)
    except BaseException as exc:
        for _, temp in temps.values():
            with contextlib.suppress(OSError):
                os.remove(temp)
        if not isinstance(exc, (OSError, ValueError)):  # a ValueError: the path holds a NUL
            raise
        reason = getattr(exc, "strerror", None) or exc
        raise errors.IoError(f"cannot write {path}: {reason}") from exc


def _resolve_market(args, config: dict, inputs: dict) -> MarketModel:
    """The market from the config's mu/sigma or ``--returns``, whose digest goes into ``inputs``."""
    in_config = "mu" in config
    if in_config == (args.returns is not None):
        given = "--returns and config mu/sigma" if in_config else "none"
        raise errors.ValidationError(
            f"market sources given: {given}; use exactly one of --returns "
            "or mu/sigma keys in the config file"
        )
    if in_config:
        return MarketModel(config["mu"], config["sigma"])
    _, returns, inputs[args.returns] = load_csv(args.returns)
    return estimate(returns, args.annualize)


def _cmd_solve(args) -> int:
    config, inputs = _config("solve", args.config, ("alpha", "beta", "phi", "mu", "sigma"))
    if args.annualize is not None and args.returns is None:
        raise errors.ValidationError("--annualize applies only to a market estimated from --returns")
    market = _resolve_market(args, config, inputs)
    missing = [key for key in ("alpha", "beta", "phi") if key not in config]
    if missing:
        raise errors.ValidationError(f"config file lacks group keys: {', '.join(missing)}")
    group = InvestorGroup(config["alpha"], config["beta"], config["phi"])
    ctx = markowitz.context(market)
    solution = mimicking.solve(ctx, group)
    base_weights, alpha_f, base_point = markowitz.fund_aggregate(ctx, group)

    # the config's digest records the group; the echo shows the market from either file
    echo = {"mu": market.mu.tolist(), "sigma": market.sigma.tolist(), "annualize": args.annualize}
    report = {
        "manifest": _manifest("solve", echo, inputs),
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
    text = _dumps(report)
    if args.output is not None:
        _write({args.output: text})
        _log(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    _log(
        f"fund risk aversion: mimicking {solution.alpha_star_f:.6g} vs classical {alpha_f:.6g}; "
        f"first-asset weight shift {solution.fund_weights[0] - base_weights[0]:.6g}"
    )
    return EXIT_OK


def _relative_entry_error(a: np.ndarray, b: np.ndarray) -> float:
    # entrywise error relative to entry magnitude, floored at 1 (weights are
    # unit-sum scaled, so the floor keeps near-zero entries comparable)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def _cmd_verify(args) -> int:
    from . import oracle, sampling

    size = args.max_k * args.max_n + args.max_n
    if size > oracle.MAX_UNKNOWNS:
        raise errors.ValidationError(
            f"--max-k {args.max_k} and --max-n {args.max_n} allow KKT systems of {size} "
            f"unknowns, above the oracle's cap of {oracle.MAX_UNKNOWNS}"
        )
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
        lines.append("note: 0 instances requested - vacuous pass")
    else:
        lines.append(f"worst relative error: {worst:.6e} at {worst_tag}")
    lines.append("result: FAIL" if failures else "result: OK")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_study(args) -> int:
    from .study import StudyConfig, run_sweeps

    # the grid keys are the fields of StudyConfig other than market
    grid = [field for field in dataclasses.fields(StudyConfig) if field.name != "market"]
    raw, inputs = _config("study", args.config, ["mu", "sigma"] + [field.name for field in grid])
    kwargs = {"market": MarketModel(raw.pop("mu"), raw.pop("sigma"))} if "mu" in raw else {}
    config = StudyConfig(**kwargs, **raw)
    figure1, figure2 = run_sweeps(config)
    echo = {"mu": config.market.mu.tolist(), "sigma": config.market.sigma.tolist()}
    for field in grid:
        echo[field.name] = getattr(config, field.name)
    manifest = _manifest("study", echo, inputs)
    sidecar = _dumps(manifest)
    try:
        os.makedirs(args.output_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # a ValueError: the path holds a NUL
        raise errors.IoError(f"cannot create {args.output_dir}: {exc}") from exc
    tables = {os.path.join(args.output_dir, name): table
              for name, table in (("figure1", figure1), ("figure2", figure2))}
    files = {}
    for stem, table in tables.items():
        files[f"{stem}.csv"] = table.to_csv()
        files[f"{stem}.manifest.json"] = sidecar
    _write(files)
    for stem, table in tables.items():
        _log(f"wrote {stem}.csv ({len(table)} records)")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    names, returns, digest = load_csv(args.returns)
    market = estimate(returns, args.annualize)
    report = {
        "manifest": _manifest("estimate", {"annualize": args.annualize}, {args.returns: digest}),
        "asset_names": list(names),
        "observations": returns.shape[0],
        "mu": market.mu.tolist(),
        "sigma": market.sigma.tolist(),
    }
    sys.stdout.write(_dumps(report))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _log(f"{self.prog}: error: {message}")
        self.exit(EXIT_VALIDATION)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {model._shown(text)}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {model._shown(value)}")
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
    solve.add_argument(
        "--config", required=True, help="JSON file with alpha, beta, phi (and optionally mu, sigma)"
    )
    solve.add_argument("--returns", help="CSV return history to estimate the market from")
    solve.add_argument(
        "--annualize", type=_int_at_least(1), help="periods per year for moment annualization"
    )
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
    est.add_argument(
        "--annualize", type=_int_at_least(1), help="periods per year for moment annualization"
    )
    est.set_defaults(handler=_cmd_estimate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except errors.ValidationError as exc:
        _log(f"error: {exc}")
        return EXIT_VALIDATION
    except errors.NumericalError as exc:
        _log(f"error: {exc}")
        return EXIT_NUMERICAL
    except OSError as exc:
        _log(f"error: {exc}")
        return EXIT_IO


def run() -> int:
    """The process entry of ``python -m mimicfund`` and the ``mimicfund`` script.

    Moves every object the imports made into the collector's permanent
    generation before :func:`main` runs, so neither the command's own
    collections nor the one at interpreter exit walk numpy's import graph
    again.  Collection stays on: a long study still frees its cycles.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())

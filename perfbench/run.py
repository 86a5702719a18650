#!/usr/bin/env python3
"""Benchmark of mimicfund: one workload per run, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload solve-large-n --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times the ops with nothing wrapped and reports the end-to-end
metrics; ``--trace 1`` is a separate run that wraps the layers (see
``spans.py``) and reports per-layer metrics per op.  ``--workload all`` runs
every workload in its own process and prints one table.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when any output check failed and 2 when
the program under ``src/`` is missing.
"""

import os

# BLAS is pinned to one thread through this process's environment, which its
# children inherit; it must be set before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, SRC)

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# The end-to-end metrics of BENCHMARK.json, which a regression check bounds.
# Times are at the reference speed of calibrate.py (see README.md).
END_TO_END = (
    ("op_norm_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Raw wall times, printed beside them but not bounded: slow stretches of a
# shared host move these by more than any useful bound between runs.
INFORMATIONAL = (
    ("op_p10_ms", "ms"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("fail_share", "ratio"),
)
# Set-up is repeated in fresh processes and the median reported.
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
TAIL_BEYOND = 10
# Untraced ops run in blocks of at least this many seconds, each block right
# after one run of the workload's calibration kernel.
BLOCK_S = 0.25


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".mflop"):
        return "Mflop"
    if name.endswith(".bytes"):
        return "B"
    if name in ("oracle.max_rel_err", "trace.overhead_share"):
        return "ratio"
    return "count"


class Loop:
    """Outcome of a closed loop of ops: times, failures, check results."""

    def __init__(self):
        self.durations = []
        self.block_ratios = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.check_values = []
        self.child_rss_kb = 0

    def fail(self, index, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {index}: {message}")

    def add(self, other: "Loop") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: 5 - len(self.errors)]
        self.check_values += other.check_values
        self.child_rss_kb = max(self.child_rss_kb, other.child_rss_kb)


def closed_loop(workload, op, state, seconds, tracer=None, first=0, corrupt=None, kernel=None) -> Loop:
    """Issue ops one at a time for ``seconds``; each output is checked untimed.

    With ``kernel`` (a name in ``calibrate.KERNELS``) the ops run in blocks of
    ``BLOCK_S`` seconds, each after one timed run of the kernel, and every
    block adds its median op time over the kernel's time to ``block_ratios``.
    ``corrupt``, when given, alters every output before its check, so that a
    test can see wrong outputs counted as failures.
    """
    loop = Loop()
    index = first
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kernel_s = calibrate.timed(kernel) if kernel is not None else None
        block = []
        block_end = time.perf_counter() + BLOCK_S
        while True:
            duration = _checked_op(loop, workload, op, state, index, tracer, corrupt)
            if duration is not None:
                block.append(duration)
            index += 1
            now = time.perf_counter()
            if now >= block_end or now >= deadline:
                break
        loop.durations += block
        if kernel_s is not None and block:
            loop.block_ratios.append(statistics.median(block) / kernel_s)
    return loop


def _checked_op(loop, workload, op, state, index, tracer, corrupt):
    """One op, timed, then its untimed check; returns its seconds or None on an exception."""
    loop.attempted += 1
    try:
        if tracer is None:
            start = time.perf_counter()
            output = op(state, index)
            duration = time.perf_counter() - start
        else:
            with tracer.op_span(index):
                start = time.perf_counter()
                output = op(state, index)
                duration = time.perf_counter() - start
    except Exception:  # any exception is a failed op; record it and keep going
        loop.fail(index, traceback.format_exc(limit=-3))
        return None
    if isinstance(output, dict) and "rss_kb" in output:
        loop.child_rss_kb = max(loop.child_rss_kb, output["rss_kb"])
    if corrupt is not None:
        output = corrupt(workload.name, output)
    try:
        loop.check_values.append(workload.check(state, index, output))
    except CheckFailed as exc:
        loop.fail(index, str(exc))
    return duration


def prepare(workload, seed, tmpdir, op):
    """Set-up as a user pays it: inputs from the seed, then one checked warm-up op."""
    state = workload.setup(seed, tmpdir)
    workload.check(state, -1, op(state, -1))
    return state


def percentile(ordered, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def tail(durations_ms):
    """Highest whole percentile with at least ``TAIL_BEYOND`` samples above it."""
    ordered = sorted(durations_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = 100 * (n - TAIL_BEYOND) // n
    return pct, percentile(ordered, pct)


def _p10_ms(durations):
    return percentile(sorted(durations), 10) * 1e3 if durations else math.nan


def setup_sample(name, seed) -> float:
    """Seconds from spawning a fresh benchmark process to its first timed op."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {err[-500:]}")
    return elapsed


def _import_rows(text):
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e3))
    return rows


def _outermost_ms(rows, package):
    """Cumulative import time of ``package``, counting nested imports once."""
    total = 0.0
    stack = []
    for depth, name, cumulative in reversed(rows):  # parents precede children
        del stack[depth:]
        stack += [None] * (depth - len(stack))
        inside = any(s is not None and s.split(".")[0] == package for s in stack)
        if name.split(".")[0] == package and not inside:
            total += cumulative
        stack.append(name)
    return total


def import_times():
    """Median ``-X importtime`` cost of importing the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cli_ms, scipy_ms = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mimicfund.cli"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        rows = _import_rows(proc.stderr)
        cli_ms.append(_outermost_ms(rows, "mimicfund"))
        scipy_ms.append(_outermost_ms(rows, "scipy"))
    return statistics.median(cli_ms), statistics.median(scipy_ms)


def measure_end_to_end(workload, seed, seconds, tmpdir, corrupt=None):
    state = prepare(workload, seed, tmpdir, workload.op)
    calibrate.timed(workload.calibration)  # warm the kernel too
    loop = closed_loop(workload, workload.op, state, seconds, corrupt=corrupt, kernel=workload.calibration)
    if getattr(workload, "rss_from_children", False):
        peak_kb = loop.child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Each set-up sample is a fresh process, timed right after a run of the
    # fresh-process kernel.
    setup, setup_kernel = [], []
    for _ in range(SETUP_SAMPLES):
        setup_kernel.append(calibrate.timed("process"))
        setup.append(setup_sample(workload.name, seed))
    ms = [d * 1e3 for d in loop.durations] or [math.nan]
    pct, tail_ms = tail(ms)
    op_ratio = statistics.median(loop.block_ratios) if loop.block_ratios else math.nan
    metrics = {
        "op_norm_ms": op_ratio * calibrate.REFERENCE_S[workload.calibration] * 1e3,
        "setup_s": statistics.median(s / k for s, k in zip(setup, setup_kernel)) * calibrate.REFERENCE_S["process"],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    informational = {
        "op_p10_ms": _p10_ms(loop.durations),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(loop.durations) / sum(loop.durations) if loop.durations else 0.0,
        "fail_share": loop.failed / max(loop.attempted, 1),
    }
    details = {
        "informational": {k: {"value": informational[k], "unit": u} for k, u in INFORMATIONAL},
        "op_tail_percentile": pct,
        "op_samples": len(ms),
        "op_blocks": len(loop.block_ratios),
        "calibration": workload.calibration,
        "setup_samples_s": setup,
        "setup_kernel_s": setup_kernel,
    }
    return loop, metrics, details


def measure_traced(workload, seed, seconds, tmpdir, corrupt=None):
    """Untraced ops for half the time, then traced set-up and ops."""
    op = getattr(workload, "trace_op", workload.op)
    state = prepare(workload, seed, tmpdir, op)
    loop = closed_loop(workload, op, state, seconds / 2, corrupt=corrupt)
    untraced_ms = _p10_ms(loop.durations)
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        traced_dir = tempfile.mkdtemp(dir=tmpdir)
        traced_state = workload.setup(seed, traced_dir)
        traced = closed_loop(workload, op, traced_state, seconds / 2, tracer=tracer, first=loop.attempted, corrupt=corrupt)
    finally:
        spans.restore(patches)
    leftover = spans.leftover_wrappers(patches)
    if leftover:
        raise RuntimeError(f"wrappers left after the traced run: {leftover}")
    loop.add(traced)
    metrics = spans.summarize(tracer)
    metrics["oracle.max_rel_err"] = max(loop.check_values, default=0.0)
    metrics["cli.import_ms"], metrics["cli.import_scipy_ms"] = import_times()
    traced_ms = _p10_ms(traced.durations)
    metrics["trace.overhead_share"] = traced_ms / untraced_ms - 1.0
    details = {
        "untraced_op_p10_ms": untraced_ms,
        "traced_op_p10_ms": traced_ms,
        "traced_ops": len(traced.durations),
        "spans": len(tracer.spans),
        "informational": {"fail_share": {"value": loop.failed / max(loop.attempted, 1), "unit": "ratio"}},
    }
    return loop, metrics, details, tracer


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not itself a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "mimicfund")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    import glob

    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def measure(name, seed, seconds, trace, corrupt=None):
    """One benchmark run; returns the result object and its details."""
    workload = WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        if trace:
            loop, values, details, tracer = measure_traced(workload, seed, seconds, tmpdir, corrupt)
            _write_spans(tracer, f"spans-{name}-seed{seed}.json")
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}
        else:
            loop, values, details = measure_end_to_end(workload, seed, seconds, tmpdir, corrupt)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    details["errors"] = loop.errors
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, details


def _write_spans(tracer, filename):
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[n, s - origin, e - origin, p, op] for n, s, e, p, op in tracer.spans]
    with open(os.path.join(OUT, filename), "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}, handle)


def _setup_only(name, seed):
    workload = WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{name}-setup-", dir=OUT)
    try:
        prepare(workload, seed, tmpdir, workload.op)
        print("ready", flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _run_all(seed, seconds, trace):
    """Every workload in its own process; prints one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        results[name] = {"result": json.loads(lines[-1]), **json.loads(lines[-2])}
    names = list(WORKLOADS)
    if trace:
        rows = sorted(results[names[0]]["result"]["metrics"])
    else:
        rows = [k for k, _ in END_TO_END + INFORMATIONAL]
    print(f"{'metric':34s}{'unit':>7s}" + "".join(f"{n:>16s}" for n in names))
    for row in rows:
        cells = []
        for n in names:
            metric = {**results[n]["details"].get("informational", {}), **results[n]["result"]["metrics"]}[row]
            value, unit = metric["value"], metric["unit"]
            cells.append(f"{value:16.6g}")
        print(f"{row:34s}{unit:>7s}" + "".join(cells))
    if not trace:
        print("op_tail_ms percentile/samples: " + ", ".join(
            f"{n} p{results[n]['details']['op_tail_percentile']}/{results[n]['details']['op_samples']}"
            for n in names))
    path = os.path.join(OUT, f"all-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    summary = {
        "correct": all(r["result"]["correct"] for r in results.values()),
        "attempted": sum(r["result"]["attempted"] for r in results.values()),
        "failed": sum(r["result"]["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["result"]["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mimicfund", "__init__.py")):
        print(f"error: the program is missing: no package at {SRC}/mimicfund", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, args.trace)
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    for key, metric in details.get("informational", {}).items():
        print(f"{key} {metric['value']:.6g} {metric['unit']} (not bounded)")
    for error in details["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"env": environment(args.seed), "details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

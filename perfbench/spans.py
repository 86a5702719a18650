"""Outside-in tracing of mimicfund's layers for the traced benchmark run.

Spans are recorded by replacing public functions of each layer module with
timing wrappers, so no file of the package changes.  Every module attribute
bound to a wrapped function is replaced, which also catches the names that
``cli`` binds with ``from .moments import ...``; validation is caught by
wrapping the ``__post_init__`` of the model dataclasses.  Factorizations are
not spans: their computed operation count is charged to the layer of the
innermost open span.

A span is ``[name, start, end, parent index, op id]``.  Op id ``-1`` marks
set-up; every timed op has one root span named ``"op"``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SETUP_OP = -1
ROOT = "op"
_MARK = "__perfbench_wrapped__"

# (span name, module, attribute)
FUNCTIONS = (
    ("markowitz.context", "markowitz", "context"),
    ("markowitz.frontier", "markowitz", "individual_weights"),
    ("markowitz.frontier", "markowitz", "fund_aggregate"),
    ("mimicking.solve", "mimicking", "solve"),
    ("mimicking.matrix", "mimicking", "mimicking_matrix"),
    ("mimicking.utility", "mimicking", "penalized_utility"),
    ("oracle.kkt", "oracle", "kkt_solve"),
    ("oracle.entrywise", "oracle", "entrywise_mimicking_matrix"),
    ("moments.load_csv", "moments", "load_csv"),
    ("moments.estimate", "moments", "estimate"),
    ("study.sweep", "study", "run_sweeps"),
    ("sampling.instance", "sampling", "random_instance"),
    ("sampling.instance", "sampling", "random_market"),
    ("sampling.instance", "sampling", "random_group"),
    ("cli.main", "cli", "main"),
)
VALIDATED = ("MarketModel", "InvestorGroup", "PortfolioMatrix")

# Flops of one factorization of an n x n matrix, as multiples of n^3.
CHOLESKY = 1.0 / 3.0
LU = 2.0 / 3.0
# np.linalg.solve factors by LU; it is counted so the oracle's flops stay
# visible if it moves off scipy.
FACTORIZATIONS = (
    ("numpy.linalg", "cholesky", CHOLESKY),
    ("numpy.linalg", "solve", LU),
    ("scipy.linalg", "cho_factor", CHOLESKY),
    ("scipy.linalg", "lu_factor", LU),
)
LAYERS = ("model", "markowitz", "mimicking", "oracle")


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = SETUP_OP
        self.counts = defaultdict(float)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        self.op = op_id
        index = self.open(ROOT)
        try:
            yield
        finally:
            self.close(index)
            self.op = SETUP_OP

    def count(self, key: str, value: float) -> None:
        self.counts[(self.op, key)] += value

    def layer(self):
        """Layer of the innermost open span, or None outside every layer."""
        for index in reversed(self.stack):
            name = self.spans[index][0]
            if name != ROOT:
                return name.split(".", 1)[0]
        return None


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _after_load_csv(tracer, args, result):
    tracer.count("moments.load_csv.bytes", os.path.getsize(args[0]))


def _after_kkt(tracer, args, result):
    market, group = args[0], args[1]
    tracer.count("oracle.unknowns", market.k * group.n + group.n)


def _after_sweep(tracer, args, result):
    tracer.count("study.points", sum(len(table.records) for table in result))


AFTER = {
    "moments.load_csv": _after_load_csv,
    "oracle.kkt": _after_kkt,
    "study.sweep": _after_sweep,
}


def _span_wrapper(tracer, name, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def _factor_wrapper(tracer, fn, per_cube):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        shape = np.shape(a)
        layer = tracer.layer()
        if layer is not None:
            batch = math.prod(shape[:-2]) if len(shape) > 2 else 1
            tracer.count(f"{layer}.flop", per_cube * float(shape[-1]) ** 3 * batch)
        return fn(a, *args, **kwargs)

    setattr(wrapper, _MARK, True)
    return wrapper


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "mimicfund" and m]


def install(tracer: Tracer) -> list:
    """Wrap every traced function; returns the patches for :func:`restore`.

    Functions a module no longer has are skipped, so the trace keeps working
    when a layer drops a helper; their metrics then read zero.
    """
    for module in ("model", "markowitz", "mimicking", "oracle", "moments", "study", "sampling", "cli"):
        importlib.import_module(f"mimicfund.{module}")
    patches = []
    modules = _package_modules()
    for name, module, attr in FUNCTIONS:
        original = getattr(sys.modules[f"mimicfund.{module}"], attr, None)
        if original is None:
            continue
        wrapper = _span_wrapper(tracer, name, original)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    patches.append((holder, key, original))
                    setattr(holder, key, wrapper)
    model = sys.modules["mimicfund.model"]
    for cls_name in VALIDATED:
        cls = getattr(model, cls_name)
        original = cls.__dict__["__post_init__"]
        patches.append((cls, "__post_init__", original))
        setattr(cls, "__post_init__", _span_wrapper(tracer, "model.validate", original))
    for module, attr, per_cube in FACTORIZATIONS:
        try:
            holder = importlib.import_module(module)
        except ImportError:
            continue
        original = getattr(holder, attr, None)
        if original is not None:
            patches.append((holder, attr, original))
            setattr(holder, attr, _factor_wrapper(tracer, original, per_cube))
    return patches


def restore(patches: list) -> None:
    for holder, attr, original in reversed(patches):
        setattr(holder, attr, original)


def leftover_wrappers(patches: list) -> list:
    """Names still bound to a wrapper, in the patched places and the package."""
    left = [f"{getattr(h, '__name__', h)}.{a}" for h, a, orig in patches if getattr(h, a) is not orig]
    holders = _package_modules()
    holders += [getattr(sys.modules["mimicfund.model"], c) for c in VALIDATED]
    for holder in holders:
        for key, value in vars(holder).items():
            if getattr(value, _MARK, False):
                left.append(f"{getattr(holder, '__name__', holder)}.{key}")
    return left


# Spans whose calls and self time are reported per op.
CALL_SPANS = (
    "model.validate",
    "markowitz.context",
    "markowitz.frontier",
    "mimicking.solve",
    "mimicking.matrix",
    "mimicking.utility",
    "oracle.kkt",
    "moments.load_csv",
)
# Spans whose self time alone is reported per op.
SELF_SPANS = ("oracle.entrywise", "moments.estimate", "study.sweep", "cli.main")


def summarize(tracer: Tracer) -> dict:
    """Per-op layer metrics of the timed ops, plus set-up sampling time."""
    n_ops = sum(1 for s in tracer.spans if s[0] == ROOT and s[4] != SETUP_OP)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    setup_s = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, op = span[0], span[4]
        if op == SETUP_OP:
            setup_s[name] += own
        else:
            calls[name] += 1
            self_s[name] += own
    counts = defaultdict(float)
    for (op, key), value in tracer.counts.items():
        if op != SETUP_OP:
            counts[key] += value
    per_op = max(n_ops, 1)
    out = {}
    for name in CALL_SPANS:
        out[f"{name}.calls"] = calls[name] / per_op
        out[f"{name}.self_ms"] = self_s[name] * 1e3 / per_op
    for name in SELF_SPANS:
        out[f"{name}.self_ms"] = self_s[name] * 1e3 / per_op
    for layer in LAYERS:
        out[f"{layer}.factor.mflop"] = counts[f"{layer}.flop"] / 1e6 / per_op
    kkt_calls = calls["oracle.kkt"]
    out["oracle.unknowns"] = counts["oracle.unknowns"] / kkt_calls if kkt_calls else 0.0
    out["moments.load_csv.bytes"] = counts["moments.load_csv.bytes"] / per_op
    points = counts["study.points"]
    out["study.points"] = points / per_op
    out["study.solves_per_point"] = calls["mimicking.solve"] / points if points else 0.0
    out["study.matrix_builds_per_point"] = calls["mimicking.matrix"] / points if points else 0.0
    out["sampling.instance.self_ms"] = setup_s["sampling.instance"] * 1e3
    return out

"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run: the
count test pins the program's behaviour at the commit that defined the
benchmark, and later commits are expected to change those counts.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)
import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _traced(name, seconds, tmp_path):
    workload = WORKLOADS[name]
    op = getattr(workload, "trace_op", workload.op)
    state = workload.setup(0, str(tmp_path))
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        loop = run.closed_loop(workload, op, state, seconds, tracer=tracer)
    finally:
        spans.restore(patches)
    return loop, tracer, patches


def test_self_times_sum_to_op_span(tmp_path):
    loop, tracer, _ = _traced("verify-small", 0.3, tmp_path)
    assert loop.failed == 0 and loop.attempted > 10
    own = spans.self_times(tracer.spans)
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == spans.ROOT]
    assert len(roots) == loop.attempted
    for root in roots:
        op = tracer.spans[root][4]
        total = sum(t for t, s in zip(own, tracer.spans) if s[4] == op)
        duration = tracer.spans[root][2] - tracer.spans[root][1]
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-12)
    assert any(s[3] is not None and tracer.spans[s[3]][0] != spans.ROOT for s in tracer.spans)


def test_wrappers_are_gone_after_the_traced_run(tmp_path):
    import numpy as np

    from mimicfund import cli, markowitz, mimicking, model, moments

    before = (mimicking.solve, cli.load_csv, moments.load_csv, markowitz.context,
              model.PortfolioMatrix.__dict__["__post_init__"], np.linalg.cholesky)
    _, tracer, patches = _traced("cli-cold", 0.2, tmp_path)
    assert tracer.spans, "the traced run recorded nothing"
    assert spans.leftover_wrappers(patches) == []
    after = (mimicking.solve, cli.load_csv, moments.load_csv, markowitz.context,
             model.PortfolioMatrix.__dict__["__post_init__"], np.linalg.cholesky)
    assert all(a is b for a, b in zip(before, after))


def _corrupt(name, output):
    if name == "verify-small":
        closed, checked = output
        return closed + 1e-6, checked
    if name == "study-default":
        from mimicfund.study import SweepRecord, SweepTable

        first, second = output
        records = list(first.records)
        r = records[50]
        records[50] = SweepRecord(r.series, r.coordinate, r.delta_omega + 1e-6, r.delta_eu)
        return SweepTable(tuple(records)), second
    raise AssertionError(name)


@pytest.mark.parametrize("name", ["verify-small", "study-default"])
def test_corrupted_output_counts_as_failure(name):
    result, details = run.measure(name, 0, 0.5, trace=0, corrupt=_corrupt)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert details["informational"]["fail_share"]["value"] == 1.0
    assert result["correct"] is False


def test_cli_check_rejects_a_wrong_report(tmp_path):
    workload = WORKLOADS["cli-cold"]
    state = workload.setup(0, str(tmp_path))
    good = workload.trace_op(state, 0)
    workload.check(state, 0, good)
    report = json.loads(good["stdout"])
    report["mimicking"]["weights"][0][0] += 1e-6
    with pytest.raises(run.CheckFailed):
        workload.check(state, 0, dict(good, stdout=json.dumps(report)))
    with pytest.raises(run.CheckFailed):
        workload.check(state, 0, dict(good, code=3))


def test_solve_large_n_check_rejects_a_perturbed_solution(tmp_path):
    from mimicfund.model import PortfolioMatrix

    workload = WORKLOADS["solve-large-n"]
    state = workload.setup(0, str(tmp_path))
    solution = workload.op(state, 0)
    workload.check(state, 0, solution)
    w = solution.w_star.weights.copy()
    w[0, 0] += 1e-7
    w[1, 0] -= 1e-7
    bad = type(solution)(
        w_star=PortfolioMatrix(w),
        fund_weights=w @ state["groups"][0].beta,
        alpha_star_f=solution.alpha_star_f,
        point=solution.point,
        eu_star=solution.eu_star,
    )
    with pytest.raises(run.CheckFailed):
        workload.check(state, 0, bad)


def test_seed_commit_counts(tmp_path):
    _, tracer, _ = _traced("study-default", 0.01, tmp_path / "study")
    study = spans.summarize(tracer)
    assert study["study.points"] == 606
    assert study["study.solves_per_point"] == 2
    assert study["study.matrix_builds_per_point"] == 5
    assert study["markowitz.context.calls"] == 1
    (tmp_path / "large").mkdir()
    _, tracer, _ = _traced("solve-large-n", 0.01, tmp_path / "large")
    large = spans.summarize(tracer)
    # two n x n Cholesky guards and one Cholesky solve at n = 1000
    assert large["mimicking.factor.mflop"] == pytest.approx(1000.0)
    assert large["mimicking.solve.calls"] == 1


def test_calibrated_loop_records_one_ratio_per_block(tmp_path):
    workload = WORKLOADS["verify-small"]
    state = workload.setup(0, str(tmp_path))
    loop = run.closed_loop(workload, workload.op, state, 0.6, kernel=workload.calibration)
    assert loop.failed == 0 and len(loop.durations) == loop.attempted
    assert 2 <= len(loop.block_ratios) <= 3
    assert all(0.0 < r < 1.0 for r in loop.block_ratios)  # an op is far shorter than the kernel


def test_calibration_kernels_do_not_reach_the_program():
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        for name in calibrate.KERNELS:
            calibrate.timed(name)
    finally:
        spans.restore(patches)
    assert tracer.spans == [] and not tracer.counts


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90, 89)
    for n in (11, 27, 40, 1234):
        values = list(range(n))
        pct, value = run.tail(values)
        assert sum(v > value for v in values) >= run.TAIL_BEYOND
        next_rank = -(-(pct + 1) * n // 100)
        assert n - next_rank < run.TAIL_BEYOND


def test_benchmark_json_names_every_metric_the_runs_print():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    tracer = spans.Tracer()
    names = set(spans.summarize(tracer)) | {"oracle.max_rel_err", "cli.import_ms",
                                           "cli.import_scipy_ms", "trace.overhead_share"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.per_layer_unit(n) for n in names}


def test_import_time_parser_counts_nested_imports_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy",
        "import time:        50 |        150 |     scipy.linalg",
        "import time:        10 |        200 |   mimicfund.markowitz",
        "import time:        30 |         30 |   mimicfund",
        "import time:         5 |          5 |   json",
    ])
    rows = run._import_rows(text)
    assert run._outermost_ms(rows, "scipy") == pytest.approx(0.150)
    assert run._outermost_ms(rows, "mimicfund") == pytest.approx(0.230)

"""Tests of the benchmark's own statistics and bookkeeping.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
from pathlib import Path

import pytest

import stats


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(range(19), 50) is None
    assert stats.percentile(range(1, 21), 50) == 10  # rank 10 of 20, ten samples beyond
    assert stats.percentile(range(1, 100), 90) is None
    assert stats.percentile(range(1, 101), 90) == 90
    assert stats.min_samples(50) == 20
    assert stats.min_samples(90) == 100


def test_percentile_ranks_failures_last():
    values = [1.0] * 15 + [float("inf")] * 6
    assert stats.percentile(values, 50) == 1.0
    assert stats.percentile([2.0] * 5 + [float("inf")] * 25, 50) == float("inf")


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 30, 100)


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] sticks out
    starts = [0.0, 1.0, 3.0, 8.0, 1.5]
    ends = [10.0, 4.0, 6.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]  # the last span is a grandchild
    selfs = stats.self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2:] == pytest.approx([3.0, 4.0, 1.0])


def test_covered_length_of_disjoint_and_nested_intervals():
    assert stats.covered_length([(0, 1), (2, 3), (2.5, 2.7)], 0, 10) == pytest.approx(2.0)
    assert stats.covered_length([], 0, 10) == 0.0


def test_tally_counts_failures_by_type():
    tally = stats.Tally()
    for failure in (None, None, "exit2", None, "uncaught.OverflowError", "exit2"):
        tally.record(failure)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert tally.fail_ratio == pytest.approx(0.5)
    assert tally.describe() == "3/6 (exit2=2, uncaught.OverflowError=1)"
    assert stats.Tally().fail_ratio == 0.0


def test_failure_types_of_operations():
    workloads = pytest.importorskip("workloads")
    op = workloads.Op("cli.table", "t", lambda: None, lambda text: text == "ok", 1)
    ok, bad = workloads.CliResult(0, "ok"), workloads.CliResult(0, "garbled")
    assert workloads.failure(op, ok, None) is None
    assert workloads.failure(op, bad, None) == "check"
    assert workloads.failure(op, workloads.CliResult(2, ""), None) == "exit2"
    assert workloads.failure(op, None, OverflowError("x")) == "uncaught.OverflowError"
    raising = workloads.Op("cli.table", "t", lambda: None, lambda text: json.loads(text), 1)
    assert workloads.failure(raising, bad, None) == "check"


def test_census_times_only_requests_the_program_serves():
    workloads = pytest.importorskip("workloads")
    import run

    def crash():
        raise OverflowError("x")

    served = workloads.Op("cli.table", "served", lambda: workloads.CliResult(0, "ok"), lambda t: t == "ok", 1,
                          may_fail=True)
    refused = workloads.Op("cli.table", "refused", lambda: workloads.CliResult(2, ""), lambda t: True, 1, may_fail=True)
    crashed = workloads.Op("cli.sweep", "crashed", crash, lambda t: True, 1, may_fail=True)
    garbled = workloads.Op("cli.sweep", "garbled", lambda: workloads.CliResult(0, "?"), lambda t: False, 1,
                           may_fail=True)
    calibrated = workloads.Op("cli.table", "calibrated", crash, lambda t: True, 1)  # not run by the census
    wl = workloads.Workload("w", lambda seed, cycle, workdir: [served, refused, crashed, garbled, calibrated],
                            "unit", None, census_cycles=2)
    loop = run.Loop(workloads, wl, 1, None, gauge=None)
    census = loop.census(wl.cycle(1, 0, None))
    assert census["tally"].describe() == "6/8 (check=2, exit2=2, uncaught.OverflowError=2)"
    assert census["unexpected"] == 2  # a garbled output is a wrong answer, not a known defect
    assert loop.pool == [[served, calibrated]] * 2

def test_span_recorder_self_time_and_restore():
    spans = pytest.importorskip("spans")
    rkbudget_cli = pytest.importorskip("rkbudget.cli")
    original = rkbudget_cli.validate_noisy_bound
    rec = spans.SpanRecorder()
    with spans.traced_layers(rec):
        assert rkbudget_cli.validate_noisy_bound is not original
        outer = rec.open("cli.validate")
        inner = rec.open("harness.validate_noisy_bound")
        rec.close(inner)
        rec.close(outer)
    assert rkbudget_cli.validate_noisy_bound is original
    summary = rec.summary()
    assert summary["cli.validate"]["calls"] == 1
    total = summary["cli.validate"]["total_s"]
    child = summary["harness.validate_noisy_bound"]["total_s"]
    assert summary["cli.validate"]["self_s"] == pytest.approx(total - child)


def test_root_ids_follow_parents():
    assert stats.root_ids([-1, 0, 1, -1, 3, 0]) == [0, 0, 0, 3, 3, 0]


def test_layer_calls_are_recorded_only_under_a_root_span():
    spans = pytest.importorskip("spans")
    tableaux = pytest.importorskip("rkbudget.tableaux")
    rec = spans.SpanRecorder()
    with spans.traced_layers(rec):
        tableaux.builtin_tableau("rk4")  # the benchmark's own call: no span
        root = rec.open("cli.table")
        tableaux.builtin_tableau("rk4")
        rec.close(root)
        root = rec.open("bench.direct")
        tableaux.builtin_tableau("euler")
        rec.close(root)
    assert rec.summary()["tableaux.builtin_tableau"]["calls"] == 2
    in_ops = rec.summary(exclude_roots=("bench.direct",))
    assert in_ops["tableaux.builtin_tableau"]["calls"] == 1
    assert "bench.direct" not in in_ops


def test_traced_stepping_counts_logical_evaluations():
    spans = pytest.importorskip("spans")
    np = pytest.importorskip("numpy")
    from rkbudget import integrator, tableaux

    rk4 = tableaux.builtin_tableau("rk4")
    rec = spans.SpanRecorder()
    with spans.traced_layers(rec):
        root = rec.open("bench.op")
        integrator.integrate(rk4, integrator.EvaluationOracle(lambda t, y: -y), np.ones(3), 0.0, 1.0, 7)
        rec.close(root)
    assert rec.counters["integrator.integrate.evals"] == 7 * 4
    assert rec.counters["integrator.rk_step.evals"] == 7 * 4
    assert spans._batch_rows(np.ones((5, 3))) == 5  # a (trials, dim) batch counts each trial


def test_heat_field_acts_on_the_last_axis():
    workloads = pytest.importorskip("workloads")
    np = pytest.importorskip("numpy")
    field = workloads.heat_field(0.1)
    u = np.random.default_rng(0).normal(size=workloads.HEAT_POINTS)
    assert np.array_equal(field(0.0, u[None, :])[0], field(0.0, u))


def test_lip_check_accepts_nan_diagonal_only():
    workloads = pytest.importorskip("workloads")
    n = workloads.LIP_POINTS
    rows = [",".join(["nan" if i == j else "1.5" for j in range(n)]) for i in range(n)]
    text = "theta1/theta2," + ",".join(["0"] * n) + "\n" + "".join(f"{i},{r}\n" for i, r in enumerate(rows))
    assert workloads.lip_check(text)
    assert not workloads.lip_check(text.replace("1.5", "nan", 1))
    assert not workloads.lip_check(text.replace(",1.5\n", "\n", 1))


def test_benchmark_json_matches_reported_metrics():
    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_steady_rate_ignores_a_burst_within_a_kind():
    calm = [("a", 1.0, None, 10)] * 5 + [("b", 2.0, None, 4)] * 5
    burst = calm[:4] + [("a", 9.0, None, 10)] + calm[5:]
    assert stats.steady_rate(calm) == pytest.approx(70 / 15)
    assert stats.steady_rate(burst) == stats.steady_rate(calm)


def test_typical_latency_is_geometric_mean_of_kind_medians():
    samples = [("a", 1.0, None, 1)] * 3 + [("b", 4.0, None, 1)] * 3 + [("b", 0.1, "exit2", 0)] * 2
    assert stats.typical_latency(samples) == pytest.approx(2.0)


def test_speed_gauge_brackets_each_op():
    speed = pytest.importorskip("speed")
    gauge = speed.SpeedGauge()
    gauge.times = [0.0, 1.0, 1.2, 5.0]
    gauge.readings = [1.0, 2.0, 4.0, 3.0]
    assert gauge.factor(1.1, 1.15) == pytest.approx(3.0)  # readings at 1.0 and 1.2
    assert gauge.factor(0.4, 0.6) == pytest.approx(1.5)  # readings at 0.0 and 1.0
    assert gauge.factor(2.5, 2.6) == 4.0  # nothing within the margin: nearest reading

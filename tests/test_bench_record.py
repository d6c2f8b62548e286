"""The statistics of ``tools/bench_record.py``, on fabricated runner records."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402


def test_quartiles_interpolate_between_order_statistics():
    assert bench_record.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25, "iqr": 1.5}
    assert bench_record.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def test_pairs_are_won_in_each_metric_s_own_direction_and_ties_win_nothing():
    pairs = [({"ms": 10.0, "rate": 100.0}, {"ms": 8.0, "rate": 125.0}),
             ({"ms": 12.0, "rate": 90.0}, {"ms": 12.0, "rate": 80.0}),
             ({"ms": 11.0, "rate": 95.0}, {"ms": 9.0, "rate": 95.0})]
    out = bench_record.summarize(pairs, {"ms": "lower", "rate": "higher"})
    assert (out["ms"]["change_better_pairs"], out["rate"]["change_better_pairs"]) == (2, 1)
    assert out["ms"]["parent"]["median"] == 11.0 and out["ms"]["change"]["median"] == 9.0
    assert out["ms"]["relative_change"] == pytest.approx(9.0 / 11.0 - 1.0)
    assert out["ms"]["parent"]["iqr"] == pytest.approx(1.0)
    assert out["rate"]["pairs"] == 3 and out["rate"]["better"] == "higher"


def test_a_run_is_read_from_its_last_line_and_its_env_line():
    summary = {"correct": True, "attempted": 12, "failed": 0, "metrics": {"op_ms_typical": {"value": 3.5, "unit": "ms"}}}
    env = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas_thread_cap": {"OPENBLAS_NUM_THREADS": "2"}}
    stdout = f"# env {json.dumps(env)}\n# workload trajectory\nop_ms_typical = 3.5 ms\n{json.dumps(summary)}\n"
    assert bench_record.parse_output(stdout) == (summary, env)


@pytest.mark.parametrize("text, pairs", [("trajectory=10", {"trajectory": 10}),
                                         ("trajectory=10,campaign=3", {"trajectory": 10, "campaign": 3})])
def test_pair_counts_are_parsed_per_workload(text, pairs):
    assert bench_record.parse_pairs(text) == pairs


def test_a_workload_needs_a_pair():
    with pytest.raises(ValueError, match="at least one pair"):
        bench_record.parse_pairs("trajectory=0")

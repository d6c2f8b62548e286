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
                                         ("trajectory=10,campaign=3", {"trajectory": 10, "campaign": 3}),
                                         ("trajectory=10,tier1=3,cli=5", {"trajectory": 10, "tier1": 3, "cli": 5})])
def test_pair_counts_are_parsed_per_workload(text, pairs):
    assert bench_record.parse_pairs(text) == pairs


def test_a_workload_needs_a_pair():
    with pytest.raises(ValueError, match="at least one pair"):
        bench_record.parse_pairs("trajectory=0")


def test_readme_invocations_drop_comments_and_keep_each_line_as_written():
    text = "```sh\nrkbudget table --scenario classical     # cost per order\nrkbudget toy lip --nv 25\n```\n"
    assert bench_record.readme_invocations(text) == {
        "rkbudget table --scenario classical": ["table", "--scenario", "classical"],
        "rkbudget toy lip --nv 25": ["toy", "lip", "--nv", "25"]}
    readme = (bench_record.ROOT / "README.md").read_text()
    commands = {argv[0] for argv in bench_record.readme_invocations(readme).values()}
    assert commands == {"table", "sweep", "toy", "validate", "convergence"}


@pytest.mark.parametrize("summary, counts", [("1263 passed in 29.78s", {"passed": 1263}),
                                             ("1 failed, 246 passed, 2 skipped in 3.1s",
                                              {"failed": 1, "passed": 246, "skipped": 2}),
                                             ("", {})])
def test_a_tier1_summary_line_gives_its_counts(summary, counts):
    assert bench_record.summary_counts(summary) == counts


def test_pairs_alternate_the_side_that_runs_first():
    calls = []
    pairs = bench_record.alternate(3, lambda side, i: calls.append((i, side)) or f"{side}{i}")
    assert calls == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change")]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]
    assert pairs[1] == {"first": "change", "parent": "parent1", "change": "change1"}


def test_the_tier1_suite_is_timed_and_counted_in_each_checkout(tmp_path, monkeypatch):
    # a stand-in for the suite: it fails as pytest does, and its summary line names where it ran
    suite = "import os; print('collected 2 items\\n1 failed, 1 passed in 0.01s', os.getcwd()); raise SystemExit(1)"
    monkeypatch.setattr(bench_record, "TIER1", ("-c", suite))
    out = bench_record.record_tier1({"parent": tmp_path, "change": tmp_path}, 1)
    for side in bench_record.SIDES:
        run = out["runs"][0][side]
        assert (run["returncode"], run["counts"]) == (1, {"failed": 1, "passed": 1})
        assert run["summary"].endswith(str(tmp_path.resolve()))
        assert run["wall_s"] > 0.0
    assert out["metrics"]["wall_s"]["pairs"] == 1


def test_readme_invocations_run_as_fresh_processes_next_to_the_floors():
    # an --overrides file the README names is an empty one, so the invocation runs
    readme = "rkbudget table --scenario classical --overrides my_constants.txt  # defaults\n"
    root = bench_record.ROOT
    out = bench_record.record_cli({"parent": root, "change": root}, 1, readme)
    assert list(out) == ["python -c pass", 'python -c "import numpy"',
                         "rkbudget table --scenario classical --overrides my_constants.txt"]
    for name, entry in out.items():
        pair = entry["runs"][0]
        assert all(pair[side]["returncode"] == 0 and pair[side]["wall_ms"] > 0.0 for side in bench_record.SIDES), name
        assert entry["metrics"]["wall_ms"]["pairs"] == 1


def test_an_unknown_pairs_name_exits_2_before_anything_runs(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a pair ran before the --pairs names were checked")

    monkeypatch.setattr(bench_record.subprocess, "run", no_run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exited:
        bench_record.main(["--parent", str(tmp_path), "--out", str(out), "--pairs", "trajectory=1,cli=1,campaing=2"])
    assert exited.value.code == 2
    assert "unknown --pairs name(s): campaing; known: campaign, cli, planning, surrogate, tier1, trajectory" \
        in capsys.readouterr().err
    assert not out.exists()

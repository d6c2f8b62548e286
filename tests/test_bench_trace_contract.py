"""The benchmark's trace contract with the library, checked without running it.

``bench/spans.py`` patches the rkbudget module attributes named in
``LAYER_TARGETS``, and ``bench/run.py`` reads one time per span named in
``PER_LAYER``; it stops a traced run on a span that neither the workload's
operations nor the probe recorded.  These tests fail here instead: when a
traced attribute is renamed or dropped, or when the probe no longer
reaches a span.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def time_spans() -> set[str]:
    # the spans whose mean time run.per_layer reads, e.g. "toymodel.condition_number.us"
    return {
        name[: -len(unit) - 1]
        for name, unit in run.PER_LAYER.items()
        if unit in run.TIME_SCALE and name.endswith("." + unit)
    }


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _, _ in spans.LAYER_TARGETS}))
def test_every_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_probe_records_every_timed_span():
    rec = spans.SpanRecorder()
    with spans.traced_layers(rec):
        root = rec.open("bench.probe")
        try:
            workloads.probe_layers(workloads.cycle_seed(1, 0), rec)
        finally:
            rec.close(root)
    recorded = rec.summary()
    assert time_spans() - set(recorded) == set()
    for span in ("integrator.integrate", "integrator.rk_step"):  # run.per_eval_us divides by these counts
        assert rec.counters[span + ".evals"] > 0

"""Span recording around calls into rkbudget's layers, from outside the package.

:func:`traced_layers` swaps selected module attributes of ``rkbudget`` for
wrappers that record one span per call (name, parent, start, end, and the
operation the call belongs to), then restores them.  Calls between layers
go through those module attributes, so nested calls become child spans.
A wrapper records only while a root span is open: the runner opens one
around each operation (and around the few direct layer calls it makes on
purpose), so the benchmark's own input building and output checks, which
call the same functions, leave no spans.  Spans stay in memory and are
written once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
from array import array
from collections import Counter
from time import perf_counter

import stats


class SpanRecorder:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @property
    def active(self) -> bool:
        """Whether a span is open, so that layer calls are being recorded."""
        return bool(self._stack)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(value, self.maxima.get(name, -math.inf))

    def summary(self, exclude_roots: tuple[str, ...] = ()) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds.

        Spans whose root span is named in ``exclude_roots`` are left out.
        """
        selfs = stats.self_times(self.start, self.end, self.parent)
        excluded = {self._name_ids[n] for n in exclude_roots if n in self._name_ids}
        roots = stats.root_ids(self.parent)
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name_id):
            if self.name_id[roots[i]] in excluded:
                continue
            entry = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += self.end[i] - self.start[i]
            entry["self_s"] += selfs[i]
        return out

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _wrap(rec: SpanRecorder, name: str, fn, inspect=None):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec.close(idx)
            rec.count(f"{layer}.raised.{type(exc).__name__}")
            raise
        rec.close(idx)
        if inspect is not None:
            inspect(rec, args, kwargs, result)
        return result

    return traced


def _report(rec, args, kwargs, report):
    rec.count("harness.trials", report.trials)
    rec.count("harness.violations", report.violations)
    rec.count("integrator.delta_exceedances", report.delta_exceedances)
    rec.maximum("harness.worst_margin", report.worst_margin)


def _rows(rec, args, kwargs, rows):
    rec.count("budget.rows", len(rows))
    for row in rows:
        if not row.feasible:
            rec.count("budget.infeasible_rows")
        elif not all(
            math.isfinite(v)
            for v in (row.n_steps, row.n_shots, row.cost, row.circuit_evals, row.circuits, row.ratio)
            if v is not None
        ):
            rec.count("budget.nonfinite_rows")


def _batch_rows(y) -> int:
    """Trials in a state: the leading axis of a ``(trials, dim)`` batch, else 1."""
    import numpy as np

    return np.shape(y)[0] if np.ndim(y) == 2 else 1


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _integrate(rec, args, kwargs, traj):
    tableau, y0, n_steps = _arg(args, kwargs, 0, "tableau"), _arg(args, kwargs, 2, "y0"), _arg(args, kwargs, 5, "n_steps")
    rec.count("integrator.integrate.evals", n_steps * tableau.stages * _batch_rows(y0))


def _rk_step(rec, args, kwargs, y):
    tableau, y_n = _arg(args, kwargs, 0, "tableau"), _arg(args, kwargs, 3, "y_n")
    rec.count("integrator.rk_step.evals", tableau.stages * _batch_rows(y_n))


def _points(rec, args, kwargs, points):
    rec.count("sensitivity.points", len(points))
    rec.count("sensitivity.infeasible_points", sum(not p.feasible for p in points))


def _study(rec, args, kwargs, result):
    points = result if isinstance(result, list) else result["norm_A"]
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    rec.count("toymodel.draws", samples * len(points))
    rec.count("toymodel.excluded_draws", sum(p.excluded for p in points))


def _surface(rec, args, kwargs, surface):
    import numpy as np

    rec.count("toymodel.lip_nan_cells", int(np.isnan(surface).sum()))


# (module, attribute, span name, result inspector).  A function imported by
# name into another module is patched there too, under the same span name.
LAYER_TARGETS = [
    ("rkbudget.cli", "validate_noisy_bound", "harness.validate_noisy_bound", _report),
    ("rkbudget.cli", "validate_noiseless_bound", "harness.validate_noiseless_bound", _report),
    ("rkbudget.cli", "report_to_json", "harness.report_to_json", None),
    ("rkbudget.cli", "empirical_order", "integrator.empirical_order", None),
    ("rkbudget.cli", "apply_overrides", "scenarios.apply_overrides", None),
    ("rkbudget.cli", "builtin_tableau", "tableaux.builtin_tableau", None),
    ("rkbudget.harness", "validate_noisy_bound", "harness.validate_noisy_bound", _report),
    ("rkbudget.harness", "report_to_json", "harness.report_to_json", None),
    ("rkbudget.harness", "integrate", "integrator.integrate", _integrate),
    ("rkbudget.harness", "global_error_bound_noisy", "bounds.global_error_bound_noisy", None),
    ("rkbudget.harness", "global_error_bound_noiseless", "bounds.global_error_bound_noiseless", None),
    ("rkbudget.harness", "profile", "tableaux.profile", None),
    ("rkbudget.integrator", "integrate", "integrator.integrate", _integrate),
    ("rkbudget.integrator", "rk_step", "integrator.rk_step", _rk_step),
    ("rkbudget.bounds", "global_error_bound_noisy", "bounds.global_error_bound_noisy", None),
    ("rkbudget.budget", "budget_table", "budget.budget_table", _rows),
    ("rkbudget.budget", "rows_to_csv", "budget.rows_to_csv", None),
    ("rkbudget.budget", "rows_to_json", "budget.rows_to_json", None),
    ("rkbudget.sensitivity", "sweep", "sensitivity.sweep", _points),
    ("rkbudget.sensitivity", "curves_to_csv", "sensitivity.curves_to_csv", None),
    ("rkbudget.scenarios", "apply_overrides", "scenarios.apply_overrides", None),
    ("rkbudget.scenarios", "heat_evolve", "scenarios.heat_evolve", None),
    ("rkbudget.tableaux", "builtin_tableau", "tableaux.builtin_tableau", None),
    ("rkbudget.tableaux", "profile", "tableaux.profile", None),
    ("rkbudget.toymodel", "sample_toy", "toymodel.sample_toy", None),
    ("rkbudget.toymodel", "condition_number", "toymodel.condition_number", None),
    ("rkbudget.toymodel", "kappa_study", "toymodel.kappa_study", _study),
    ("rkbudget.toymodel", "norm_study", "toymodel.norm_study", _study),
    ("rkbudget.toymodel", "lip_surface", "toymodel.lip_surface", _surface),
    ("rkbudget.toymodel", "lip_surface_to_csv", "toymodel.lip_surface_to_csv", None),
    ("rkbudget.toymodel", "study_to_csv", "toymodel.study_to_csv", None),
]


@contextlib.contextmanager
def traced_layers(rec: SpanRecorder):
    """Record spans for every call through ``LAYER_TARGETS`` while active."""
    saved = []
    try:
        for module_name, attr, span, inspect in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(rec, span, original, inspect))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

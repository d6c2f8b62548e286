"""One-at-a-time parameter sweeps of the resource budgets.

Each sweep rescales a single scenario constant by a grid of multiplicative
factors and re-evaluates either the noiseless evaluation cost or the total
circuit-evaluation budget, holding everything else at the scenario
defaults (order 2 unless the order itself is swept).  The rescaled
constant enters the formulas directly, through the problem bounds, the
method profile or the shot-noise scale, so each point costs one budget row
and no rebuilt scenario; it is checked as an override file value would be,
with the same messages.  The factor grids of the last 16 grid sizes used are
kept, so a sweep computes its grid only the first time.  Because some
constants enter the formulas only through products, several sweep curves
coincide exactly; :func:`overlap_check` detects those pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bounds import ProblemBounds
from .budget import budget_row
from .formats import csv_text, json_text
from .scenarios import _PB_KEYS, _SCALAR_KEYS, Scenario, _checked_scalar, override_value
from .tableaux import MethodProfile, min_stages

__all__ = ["SweepSpec", "SweepPoint", "SWEEP_TARGETS", "default_factors", "sweep", "overlap_check", "curves_to_csv",
           "curves_to_json"]

SWEEP_TARGETS = ("p", "T", "K", "M", "L_fy", "L_ftau", "b_max", "a_max", "Sigma", "epsilon")
SWEEP_MODES = ("cost", "ncirc")
DEFAULT_ORDER = 2
DEFAULT_POINTS = 25


def _check_points(points: int) -> None:
    if points < 3 or points % 2 == 0:
        raise ValueError(f"points must be an odd integer >= 3 so the grid contains factor 1, got {points}")


def default_factors(points: int = DEFAULT_POINTS) -> np.ndarray:
    """``points`` log-spaced scaling factors between 1/8 and 8, including exactly 1."""
    _check_points(points)
    return 2.0 ** np.linspace(-3.0, 3.0, points)


@functools.lru_cache(maxsize=16, typed=True)  # typed: 25.0 still reaches linspace, which rejects it
def _factor_grid(points: int) -> tuple[float, ...]:
    """:func:`default_factors` as Python floats, kept for the last 16 grid sizes.

    The cache keeps numpy's bits: its ``power`` may take a SIMD path whose
    last bit differs from Python's ``2.0 ** x`` at some sizes (21 and 23
    among them), and the sweep outputs are pinned to numpy's."""
    return tuple(map(float, default_factors(points)))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base scenario, the constant to rescale and the mode; the
    grid size ``points`` and the ``order`` apply to every target but ``p``."""

    base: Scenario
    target: str
    mode: str = "cost"
    points: int = DEFAULT_POINTS
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.target not in SWEEP_TARGETS:
            raise ValueError(f"target must be one of {SWEEP_TARGETS}")
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"mode must be one of {SWEEP_MODES}")
        if self.target == "Sigma" and self.mode != "ncirc":
            raise ValueError("Sigma can only be swept in ncirc mode")
        if self.mode == "ncirc" and (self.base.sigma is None or self.base.dims is None):
            raise ValueError("ncirc mode needs a scenario with sigma and ansatz dimensions")


@dataclass(frozen=True)
class SweepPoint:
    factor: float
    value: float
    feasible: bool = True


def sweep(spec: SweepSpec) -> list[SweepPoint]:
    """Evaluate the sweep curve.

    For every target except ``p`` the x-axis is the multiplicative factor
    applied to that constant, over ``default_factors(spec.points)``, kept
    per grid size and shared by every sweep; for ``p`` the curve runs
    over the integer orders 1..10 (with matching minimal stage counts) and
    the factor column carries the order.  Infeasible points are flagged in place.

    Each point is one :func:`~rkbudget.budget.budget_row`.  The rescaled
    constant goes straight to where it enters, checked as an override file
    value would be: the ``ProblemBounds`` for T, M, L_fy, L_ftau and
    epsilon, the method profile for K, a_max and b_max, and the shot-noise
    scale for Sigma.
    """
    sc, ncirc = spec.base, spec.mode == "ncirc"
    sigma, dims = (sc.sigma, sc.dims) if ncirc else (None, None)
    consts = {"a_max": sc.a_max, "b_max": sc.b_max, "error_const": sc.error_const}

    def profile(order: int, **swept) -> MethodProfile:
        return MethodProfile(order=order, stages=min_stages(order), **{**consts, **swept})

    def point(factor: float, pb: ProblemBounds, prof: MethodProfile, sigma: float | None = sigma) -> SweepPoint:
        row = budget_row(pb, prof, sigma, dims)
        return SweepPoint(factor, row.circuit_evals if ncirc else row.cost, row.feasible)

    if spec.target == "p":
        return [point(float(p), sc.pb, profile(p)) for p in range(1, 11)]
    key, value, prof = spec.target, override_value(sc, spec.target), profile(spec.order)
    factors = _factor_grid(spec.points)
    if key in _PB_KEYS:
        pb_fields = vars(sc.pb)
        return [point(f, ProblemBounds(**{**pb_fields, _PB_KEYS[key]: value * f}), prof) for f in factors]
    if key == "Sigma":
        return [point(f, sc.pb, prof, _checked_scalar(key, value * f)) for f in factors]
    return [point(f, sc.pb, profile(spec.order, **{_SCALAR_KEYS[key]: _checked_scalar(key, value * f)}))
            for f in factors]


def overlap_check(curves: Mapping[str, Sequence[SweepPoint]]) -> list[tuple[str, str]]:
    """Report pairs of curves that agree pointwise to a relative 1e-9.

    Curves must share the factor grid.  Pairs come in sorted name order; a
    pair matches only if its feasibility flags and its NaN values agree too.
    """
    names = sorted(curves)
    pairs = []
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            a, b = curves[first], curves[second]
            if len(a) != len(b):
                continue
            if any(not math.isclose(pa.factor, pb.factor, rel_tol=1e-12) for pa, pb in zip(a, b)):
                continue
            if any(pa.feasible != pb.feasible for pa, pb in zip(a, b)):
                continue
            values_a = np.array([p.value for p in a])
            values_b = np.array([p.value for p in b])
            if np.allclose(values_a, values_b, rtol=1e-9, atol=0.0, equal_nan=True):
                pairs.append((first, second))
    return pairs


def curves_to_csv(curves: Mapping[str, Sequence[SweepPoint]]) -> str:
    """Curves as CSV with columns ``target,factor,value,feasible``."""
    cells = ((name, p.factor, p.value, p.feasible) for name in sorted(curves) for p in curves[name])
    return csv_text(("target", "factor", "value", "feasible"), cells)


def curves_to_json(curves: Mapping[str, Sequence[SweepPoint]]) -> str:
    """Curves as strict JSON, one list of ``factor, value, feasible`` records
    per target; values that are not finite serialize as null."""
    return json_text({
        name: [{"factor": p.factor, "value": p.value, "feasible": p.feasible} for p in points]
        for name, points in curves.items()
    })

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkbudget import sensitivity
from rkbudget.budget import budget_row
from rkbudget.scenarios import SCENARIO_NAMES, apply_overrides, override_value, scenario
from rkbudget.sensitivity import (
    SWEEP_MODES,
    SWEEP_TARGETS,
    SweepPoint,
    SweepSpec,
    curves_to_csv,
    default_factors,
    overlap_check,
    sweep,
)
from rkbudget.tableaux import MethodProfile, min_stages


def run(sc, target, mode="cost", points=9, order=2):
    return sweep(SweepSpec(base=sc, target=target, mode=mode, points=points, order=order))


def test_default_factors_contain_one():
    factors = default_factors(25)
    assert factors[0] == pytest.approx(0.125)
    assert factors[-1] == pytest.approx(8.0)
    assert 1.0 in factors
    with pytest.raises(ValueError):
        default_factors(10)


@pytest.mark.parametrize("points", [3, 21, 23, 25, 101, 1001])
def test_the_shared_factor_grid_holds_numpy_s_bits(classical, points):
    # numpy's power may take a SIMD path whose last bit differs from libm's
    # 2.0 ** x at some sizes (21 and 23 among them); the pinned sweeps hold numpy's
    grid = sensitivity._factor_grid(points)
    assert [f.hex() for f in grid] == [f.hex() for f in map(float, 2.0 ** np.linspace(-3.0, 3.0, points))]
    assert sensitivity._factor_grid(points) is grid
    assert [p.factor.hex() for p in run(classical, "T", points=points)] == [f.hex() for f in grid]


def test_spec_validation(classical, option_pricing):
    with pytest.raises(ValueError, match="target"):
        SweepSpec(base=classical, target="Q")
    with pytest.raises(ValueError, match="Sigma"):
        SweepSpec(base=option_pricing, target="Sigma", mode="cost")
    with pytest.raises(ValueError, match="ncirc"):
        SweepSpec(base=classical, target="T", mode="ncirc")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("target", ["K", "p"])
def test_spec_rejects_factors_that_are_not_finite_and_positive(classical, bad, target):
    # a spec takes a point count, not a factor list, so every factor a sweep
    # evaluates comes from its own grid
    with pytest.raises(TypeError, match="factors"):
        SweepSpec(base=classical, target=target, factors=[0.5, bad, 2.0])
    assert all(0.0 < p.factor < math.inf for p in sweep(SweepSpec(base=classical, target=target)))


def test_cost_decreases_with_target_error(classical):
    points = run(classical, "epsilon")
    values = [p.value for p in points]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(p.feasible for p in points)


def test_cost_increases_with_horizon(classical):
    for order in (1, 2, 4):
        points = run(classical, "T", order=order)
        values = [p.value for p in points]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_all_curves_share_unit_factor_point(classical):
    values = []
    for target in ("T", "K", "M", "L_fy", "L_ftau", "b_max", "epsilon"):
        points = run(classical, target)
        at_one = next(p for p in points if p.factor == 1.0)
        values.append(at_one.value)
    assert all(v == pytest.approx(values[0], rel=1e-12) for v in values)


def test_product_invariance_of_error_const_and_field_bound(classical):
    k_curve = run(classical, "K")
    m_curve = run(classical, "M")
    for a, b in zip(k_curve, m_curve):
        assert a.value == pytest.approx(b.value, rel=1e-14)


def test_overlap_detection_classical(classical):
    curves = {t: run(classical, t) for t in ("K", "M", "L_fy", "b_max", "T")}
    pairs = overlap_check(curves)
    assert ("K", "M") in pairs
    assert ("L_fy", "b_max") in pairs
    assert ("K", "T") not in pairs
    assert ("M", "T") not in pairs


def test_overlap_detection_ncirc(option_pricing):
    curves = {t: run(option_pricing, t, mode="ncirc") for t in ("K", "M", "L_fy", "b_max")}
    pairs = overlap_check(curves)
    assert ("K", "M") in pairs
    # the state Lipschitz constant also enters the shot count, so it no
    # longer mirrors the weight bound in this mode
    assert ("L_fy", "b_max") not in pairs


def test_sigma_sweep_is_quadratic(option_pricing):
    points = run(option_pricing, "Sigma", mode="ncirc")
    at_one = next(p for p in points if p.factor == 1.0)
    for p in points:
        assert p.value == pytest.approx(at_one.value * p.factor**2, rel=1e-9)
        assert p.feasible


def test_order_sweep_runs_integer_orders(classical):
    points = run(classical, "p")
    assert [p.factor for p in points] == [float(p) for p in range(1, 11)]
    by_order = {int(p.factor): p.value for p in points}
    assert by_order[4] == pytest.approx(1.01e4, rel=0.015)
    assert min(by_order, key=by_order.get) == 4


def test_ncirc_order_sweep_minimum(option_pricing):
    points = run(option_pricing, "p", mode="ncirc")
    by_order = {int(p.factor): p.value for p in points}
    assert min(by_order, key=by_order.get) == 2
    assert by_order[2] == pytest.approx(1.62e28, rel=0.015)


def test_curves_csv_schema(classical):
    curves = {"epsilon": run(classical, "epsilon", points=5)}
    lines = curves_to_csv(curves).strip().splitlines()
    assert lines[0] == "target,factor,value,feasible"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "epsilon"
    assert first[3] == "true"


def parent_sweep(spec):
    """The sweep as it ran with ``apply_overrides`` per point, then a fresh
    profile and row: the reference the direct routes must match bit for bit."""

    def point(sc, order, factor):
        prof = MethodProfile(order=order, stages=min_stages(order), a_max=sc.a_max, b_max=sc.b_max,
                             error_const=sc.error_const)
        if spec.mode == "cost":
            row = budget_row(sc.pb, prof)
            return SweepPoint(factor, row.cost, row.feasible)
        row = budget_row(sc.pb, prof, sc.sigma, sc.dims)
        return SweepPoint(factor, row.circuit_evals, row.feasible)

    if spec.target == "p":
        return [point(spec.base, p, float(p)) for p in range(1, 11)]
    value = override_value(spec.base, spec.target)
    return [
        point(apply_overrides(spec.base, {spec.target: value * f}), spec.order, f)
        for f in map(float, default_factors(spec.points))
    ]


SWEEP_COMBOS = [
    (name, target, mode)
    for name in SCENARIO_NAMES
    for mode in SWEEP_MODES
    if mode == "cost" or scenario(name).noisy
    for target in SWEEP_TARGETS
    if target != "Sigma" or mode == "ncirc"
]
SCALED_KEYS = ("T", "K", "M", "L_fy", "L_ftau", "b_max", "a_max", "epsilon", "Sigma")


def bits(points):
    return [(p.factor.hex(), p.value.hex(), p.feasible) for p in points]


@pytest.mark.parametrize("name, target, mode", SWEEP_COMBOS)
@settings(max_examples=8, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=len(SCALED_KEYS), max_size=len(SCALED_KEYS)))
def test_sweep_matches_the_apply_overrides_path_bit_for_bit(name, target, mode, exponents):
    base = scenario(name)
    scaled = {k: override_value(base, k) * 2.0**e for k, e in zip(SCALED_KEYS, exponents)
              if override_value(base, k) is not None}
    spec = SweepSpec(base=apply_overrides(base, scaled), target=target, mode=mode)
    assert bits(sweep(spec)) == bits(parent_sweep(spec))

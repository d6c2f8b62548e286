import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rkbudget.budget as budget
from rkbudget.bounds import ProblemBounds, global_error_bound_noiseless, global_error_bound_noisy
from rkbudget.budget import (
    ROW_KEYS,
    AnsatzDims,
    BudgetRow,
    InfeasibleShotsError,
    argmin_order,
    budget_row,
    budget_table,
    circuit_budget,
    distinct_circuits,
    min_shots,
    min_steps_noiseless,
    min_steps_noisy,
    rows_to_csv,
    rows_to_json,
    sigma_bound,
)
from rkbudget.integrator import NoiseSpec
from rkbudget.scenarios import apply_overrides
from rkbudget.tableaux import MethodProfile, min_stages


def prof_for(sc, p):
    return MethodProfile(order=p, stages=min_stages(p), a_max=sc.a_max, b_max=sc.b_max, error_const=sc.error_const)


# -- step counts and costs against the printed reference rows ----------------


@pytest.mark.parametrize("p,expected", [(1, 2.25e7), (4, 2.54e3), (6, 1.47e3)])
def test_min_steps_noiseless_anchors(classical, p, expected):
    assert min_steps_noiseless(classical.pb, prof_for(classical, p)) == pytest.approx(expected, rel=0.015)


@pytest.mark.parametrize("p,expected", [(1, 2.25e7), (4, 1.01e4)])
def test_cost_noiseless_anchors(classical, p, expected):
    assert budget_row(classical.pb, prof_for(classical, p)).cost == pytest.approx(expected, rel=0.015)


def test_cost_ratio_anchor(classical):
    ratio = budget_row(classical.pb, prof_for(classical, 1)).cost / budget_row(classical.pb, prof_for(classical, 4)).cost
    assert ratio == pytest.approx(2.22e3, rel=0.015)


@pytest.mark.parametrize("p,expected", [(1, 2.96e4), (2, 2.04e2)])
def test_min_steps_noisy_option_anchors(option_pricing, p, expected):
    assert min_steps_noisy(option_pricing.pb, prof_for(option_pricing, p)) == pytest.approx(expected, rel=0.015)


def test_min_steps_noisy_tuned_anchor(tuned):
    assert min_steps_noisy(tuned.pb, prof_for(tuned, 4)) == pytest.approx(5.41e3, rel=0.015)


@pytest.mark.parametrize("p,expected", [(1, 7.03e21), (2, 3.87e22)])
def test_min_shots_anchors(option_pricing, p, expected):
    prof = prof_for(option_pricing, p)
    n_steps = min_steps_noisy(option_pricing.pb, prof)
    assert min_shots(option_pricing.pb, prof, option_pricing.sigma, n_steps) == pytest.approx(expected, rel=0.015)


def test_min_shots_quadratic_in_sigma(option_pricing):
    prof = prof_for(option_pricing, 2)
    n_steps = min_steps_noisy(option_pricing.pb, prof)
    base = min_shots(option_pricing.pb, prof, option_pricing.sigma, n_steps)
    doubled = min_shots(option_pricing.pb, prof, 2.0 * option_pricing.sigma, n_steps)
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)


def test_min_shots_infeasible_at_too_few_steps(option_pricing):
    # far below the minimal step count the truncation term alone exceeds the target
    prof = prof_for(option_pricing, 2)
    with pytest.raises(InfeasibleShotsError, match="truncation already exceeds"):
        min_shots(option_pricing.pb, prof, option_pricing.sigma, 10)


@pytest.mark.parametrize("n_steps", [0.5, math.inf, math.nan])
def test_min_shots_infeasible_outside_step_domain(option_pricing, n_steps):
    with pytest.raises(InfeasibleShotsError, match="below 1 or not finite"):
        min_shots(option_pricing.pb, prof_for(option_pricing, 2), option_pricing.sigma, n_steps)


def test_min_shots_infeasible_where_growth_overflows():
    # F and (1+F)**n both overflow, and dt**(p+1) would too
    pb = ProblemBounds(lip_state=1.0, lip_time=1.0, field_bound=1.0, horizon=1e30, target_error=1e-3)
    prof = MethodProfile(order=10, stages=16, a_max=1.0, b_max=1.0, error_const=5.0)
    with pytest.raises(InfeasibleShotsError):
        min_shots(pb, prof, 1.0, 10.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        min_shots(pb, prof, 0.0, 0.5)


def test_min_shots_overflow_in_the_final_product_is_flagged(option_pricing):
    # T=2, order 8: bracket**-2 stays finite, 9 sigma^2 / L^2 times it does not
    pb = replace(option_pricing.pb, horizon=2.0)
    prof = prof_for(option_pricing, 8)
    n_steps = min_steps_noisy(pb, prof)
    fac, growth, truncation = budget._growth_terms(pb, prof, n_steps)
    assert math.isfinite((pb.target_error / growth - truncation / fac) ** -2)
    with pytest.raises(OverflowError, match="float range"):
        min_shots(pb, prof, option_pricing.sigma, n_steps)
    row = budget.budget_row(pb, prof, option_pricing.sigma, option_pricing.dims)
    assert not row.feasible
    assert math.isnan(row.n_shots)


def option_table_at(sc, lip_state):
    sc = apply_overrides(sc, {"L_fy": lip_state})
    return budget_table(sc.pb, error_const=sc.error_const, p_range=range(1, 11), a_max=sc.a_max, b_max=sc.b_max,
                        sigma=sc.sigma, dims=sc.dims)


@pytest.mark.parametrize("lip_state", [1e-150, 1e-170])
def test_min_shots_past_an_intermediate_overflow_is_the_moderate_count(option_pricing, lip_state):
    # sigma**2 / lip_state**2 overflows at 1e-150, and lip_state**2 underflows
    # to 0 at 1e-170, though the count is moderate: at small L_fy it tends to
    # 9 sigma**2 n**2 dt**2 / target**2, 1.0404e22 at order 2 where L_fy = 1e-50.
    moderate = option_table_at(option_pricing, 1e-50)
    rows = option_table_at(option_pricing, lip_state)
    assert all(row.feasible for row in rows)
    assert [row.n_shots for row in rows] == pytest.approx([row.n_shots for row in moderate], rel=1e-12)
    assert rows[1].n_shots == pytest.approx(1.0404e22, rel=1e-12)
    # At L_fy = 1e-312 target / growth itself overflows, so every row stays
    # flagged until a log-space closed-form core (ROADMAP item 1) lands.
    assert not any(row.feasible for row in option_table_at(option_pricing, 1e-312))


def test_budget_row_flags_a_cost_or_circuit_budget_beyond_the_float_range(option_pricing):
    # T=1.3, order 9: shots and cost are finite (cost ~1e257); ~1e52 more
    # circuits per evaluation push only the circuit budget past the float range
    pb = replace(option_pricing.pb, horizon=1.3)
    prof = prof_for(option_pricing, 9)
    row = budget.budget_row(pb, prof, option_pricing.sigma)
    assert row.feasible and math.isfinite(row.cost)
    row = budget.budget_row(pb, prof, option_pricing.sigma, AnsatzDims(n_params=10**26, n_strings=1, n_pauli=1))
    assert not row.feasible
    assert all(math.isnan(v) for v in (row.n_shots, row.cost, row.circuit_evals))
    assert math.isfinite(row.n_steps) and math.isfinite(row.circuits)
    # order 10: the cost itself overflows, with or without circuit dimensions
    row = budget.budget_row(pb, prof_for(option_pricing, 10), option_pricing.sigma)
    assert not row.feasible
    assert math.isfinite(min_shots(pb, prof_for(option_pricing, 10), option_pricing.sigma, row.n_steps))
    assert math.isnan(row.cost)


def test_min_shots_rejects_nan_sigma(option_pricing):
    with pytest.raises(ValueError, match="sigma must be positive"):
        min_shots(option_pricing.pb, prof_for(option_pricing, 2), math.nan, 100.0)


def test_noisy_chain_recovers_target_exactly(option_pricing, tuned):
    # plugging the minimal steps and shots back into the noisy bound returns
    # the target error: the shot formula inverts the bound exactly
    for sc in (option_pricing, tuned):
        for p in range(1, 11):
            prof = prof_for(sc, p)
            n_steps = min_steps_noisy(sc.pb, prof)
            n_shots = min_shots(sc.pb, prof, sc.sigma, n_steps)
            delta = sc.sigma / math.sqrt(n_shots)
            bound = global_error_bound_noisy(sc.pb, prof, n_steps, delta)
            assert bound == pytest.approx(sc.pb.target_error, rel=1e-9)


def test_noisy_to_noiseless_step_ratio(option_pricing):
    for p in range(1, 11):
        prof = prof_for(option_pricing, p)
        ratio = min_steps_noisy(option_pricing.pb, prof) / min_steps_noiseless(option_pricing.pb, prof)
        assert ratio == pytest.approx((2 * p + 1) ** (1.0 / p), rel=1e-12)


def test_cost_noisy_anchors(option_pricing, tuned):
    assert budget_row(option_pricing.pb, prof_for(option_pricing, 2), option_pricing.sigma).cost == pytest.approx(
        2 * 204 * 3.87e22, rel=0.02
    )
    assert budget_row(tuned.pb, prof_for(tuned, 4), tuned.sigma).cost == pytest.approx(4 * 5.41e3 * 1.98e26, rel=0.02)


def test_cost_noisy_single_stage_product(option_pricing):
    prof = prof_for(option_pricing, 1)
    n_steps = min_steps_noisy(option_pricing.pb, prof)
    n_shots = min_shots(option_pricing.pb, prof, option_pricing.sigma, n_steps)
    assert budget_row(option_pricing.pb, prof, option_pricing.sigma).cost == pytest.approx(n_steps * n_shots, rel=1e-12)


# -- circuit budgets ----------------------------------------------------------


def test_circuit_budget_option_anchor(option_pricing):
    prof = prof_for(option_pricing, 1)
    n_steps = min_steps_noisy(option_pricing.pb, prof)
    n_shots = min_shots(option_pricing.pb, prof, option_pricing.sigma, n_steps)
    n_circ = circuit_budget(n_steps, prof.stages, n_shots, option_pricing.dims)
    assert n_circ == pytest.approx(2.13e29, rel=0.015)


def test_circuit_budget_is_cost_times_ansatz_factor(option_pricing):
    dims = option_pricing.dims
    factor = dims.n_params * dims.n_strings * (dims.n_params * dims.n_strings + dims.n_pauli)
    for p in (1, 2, 5):
        prof = prof_for(option_pricing, p)
        n_steps = min_steps_noisy(option_pricing.pb, prof)
        n_shots = min_shots(option_pricing.pb, prof, option_pricing.sigma, n_steps)
        n_circ = circuit_budget(n_steps, prof.stages, n_shots, dims)
        assert n_circ == pytest.approx(budget_row(option_pricing.pb, prof, option_pricing.sigma).cost * factor, rel=1e-12)


def test_distinct_circuits_anchor(option_pricing):
    prof = prof_for(option_pricing, 2)
    n_steps = min_steps_noisy(option_pricing.pb, prof)
    assert distinct_circuits(n_steps, prof.stages, option_pricing.dims) == pytest.approx(4.19e5, rel=0.015)


# -- shot-noise scale and state sensitivity -----------------------------------


def test_sigma_bound_option_anchor(option_pricing):
    value = sigma_bound(option_pricing.dims, eta=0.05)
    assert value == pytest.approx(3.4e8, rel=0.02)


def test_sigma_bound_trivial_case():
    dims = AnsatzDims(n_params=1, n_strings=1, n_pauli=1)
    # the cap, times n_params**3 = 1, times |sigma_k| + |sigma_kl| = 2
    assert sigma_bound(dims, eta=1.0 - 1e-12) == pytest.approx(2.0 * budget.SOLUTION_NORM_CAP, rel=1e-6)


def test_sigma_bound_linear_in_cap(option_pricing, monkeypatch):
    one = sigma_bound(option_pricing.dims, eta=0.05)
    monkeypatch.setattr(budget, "SOLUTION_NORM_CAP", 2.0 * budget.SOLUTION_NORM_CAP)
    two = sigma_bound(option_pricing.dims, eta=0.05)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_sigma_bound_monotonicity():
    base = AnsatzDims(n_params=10, n_strings=2, n_pauli=8)
    ref = sigma_bound(base, eta=0.1)
    assert sigma_bound(AnsatzDims(11, 2, 8), eta=0.1) > ref
    assert sigma_bound(AnsatzDims(10, 3, 8), eta=0.1) > ref
    assert sigma_bound(AnsatzDims(10, 2, 9), eta=0.1) > ref
    assert sigma_bound(base, eta=0.05) > ref


@pytest.mark.parametrize("eta", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_sigma_bound_rejects_eta_outside_the_unit_interval_as_noise_spec_does(eta):
    dims = AnsatzDims(n_params=10, n_strings=2, n_pauli=8)
    with pytest.raises(ValueError) as exc:
        sigma_bound(dims, eta)
    with pytest.raises(ValueError) as spec_exc:
        NoiseSpec(delta=1e-3, eta=eta, mode="gaussian")
    assert str(exc.value) == str(spec_exc.value) == f"eta must lie in (0, 1), got {eta}"


# -- table assembly ------------------------------------------------------------


def test_budget_table_classical_row(classical):
    rows = budget_table(classical.pb, error_const=classical.error_const)
    row = next(r for r in rows if r.order == 4)
    assert row.cost == pytest.approx(1.01e4, rel=0.015)
    assert row.n_steps == pytest.approx(2.54e3, rel=0.015)
    assert row.n_shots is None
    assert row.circuit_evals is None


def test_budget_table_option_row(option_pricing):
    rows = budget_table(
        option_pricing.pb,
        error_const=option_pricing.error_const,
        sigma=option_pricing.sigma,
        dims=option_pricing.dims,
    )
    row = next(r for r in rows if r.order == 3)
    assert row.circuit_evals == pytest.approx(1.75e28, rel=0.015)
    assert row.n_steps == pytest.approx(37.06, rel=0.015)


def test_budget_table_tuned_ratio(tuned):
    rows = budget_table(
        tuned.pb, error_const=tuned.error_const, a_max=tuned.a_max, b_max=tuned.b_max, sigma=tuned.sigma, dims=tuned.dims
    )
    row = next(r for r in rows if r.order == 10)
    assert row.ratio == pytest.approx(22.87, rel=0.015)


def test_budget_table_ratio_consistency(classical, option_pricing):
    for sc in (classical, option_pricing):
        rows = budget_table(
            sc.pb, error_const=sc.error_const, a_max=sc.a_max, b_max=sc.b_max, sigma=sc.sigma, dims=sc.dims
        )
        anchor = next(r for r in rows if r.order == 1)
        assert anchor.ratio == pytest.approx(1.0, rel=1e-12)
        for row in rows:
            assert row.ratio * row.cost == pytest.approx(anchor.cost, rel=1e-10)


def test_budget_table_flags_infeasible_rows(classical, monkeypatch):
    def fake_min_shots(pb, prof, sigma, n_steps):
        if prof.order == 2:
            raise InfeasibleShotsError("infeasible: truncation already exceeds target")
        return 1e6

    monkeypatch.setattr(budget, "min_shots", fake_min_shots)
    rows = budget_table(
        classical.pb, error_const=5.0, p_range=range(1, 4), sigma=1.0, dims=AnsatzDims(2, 1, 2)
    )
    assert [r.order for r in rows] == [1, 2, 3]
    flagged = rows[1]
    assert not flagged.feasible
    assert math.isnan(flagged.cost)
    assert rows[0].feasible and rows[2].feasible


def test_budget_table_rejects_bad_orders(classical):
    with pytest.raises(ValueError):
        budget_table(classical.pb, error_const=5.0, p_range=[0, 1])
    with pytest.raises(ValueError):
        budget_table(classical.pb, error_const=5.0, p_range=[11])


def test_budget_table_flags_the_order_whose_step_count_underflows_to_zero():
    # finite, positive constants whose closed-form step count underflows to 0;
    # the table divided the order-1 row's zero cost by itself, then raised
    pb = ProblemBounds(lip_state=0.5, lip_time=1e-300, field_bound=13.0, horizon=5.0, target_error=1e-3)
    rows = budget_table(pb, error_const=1e-320)
    assert rows[0].n_steps == 0.0 and not rows[0].feasible
    assert all(math.isnan(r.cost) for r in rows if not r.feasible)
    # a flagged anchor leaves every ratio NaN, feasible rows included
    assert all(math.isnan(r.ratio) for r in rows)
    prof = MethodProfile(order=2, stages=2, a_max=1.0, b_max=1.0, error_const=1e-320)
    row = budget.budget_row(pb, prof, anchor_cost=4.0)
    assert (row.n_steps, row.feasible) == (0.0, False)
    assert math.isnan(row.cost) and math.isnan(row.ratio)


def test_budget_table_rejects_a_nan_error_const(classical):
    # it returned NaN rows marked feasible
    with pytest.raises(ValueError, match="^error_const must be finite, got nan$"):
        budget_table(classical.pb, error_const=math.nan)


def test_budget_row_leaves_the_ratio_nan_even_at_zero_cost():
    # the step count underflows to 0: the row is flagged, and neither its
    # cost nor its ratio reads as a number
    pb = ProblemBounds(lip_state=0.5, lip_time=1e-300, field_bound=13.0, horizon=5.0, target_error=1e-3)
    prof = MethodProfile(order=2, stages=2, a_max=1.0, b_max=1.0, error_const=1e-320)
    row = budget.budget_row(pb, prof)
    assert row.n_steps == 0.0 and not row.feasible
    assert math.isnan(row.cost) and math.isnan(row.ratio)
    assert row.n_shots is None and row.circuit_evals is None


@pytest.mark.parametrize("p_range, bad", [([2.5, 3.9], "2.5"), ([1, 3.0], "3.0"), (["2"], "'2'")])
def test_budget_table_rejects_non_integral_orders(classical, p_range, bad):
    # int() would have read these as orders 2 and 3
    with pytest.raises(ValueError, match=f"orders must be integers, got {bad}"):
        budget_table(classical.pb, error_const=5.0, p_range=p_range)


def test_budget_table_accepts_numpy_integer_orders(classical):
    rows = budget_table(classical.pb, error_const=5.0, p_range=np.arange(2, 5))
    assert rows == budget_table(classical.pb, error_const=5.0, p_range=range(2, 5))
    assert [type(r.order) for r in rows] == [int] * 3


def test_argmin_order_scenarios(classical, option_pricing, tuned):
    expected = {"classical": 4, "option_pricing": 2, "tuned": 4}
    for sc in (classical, option_pricing, tuned):
        rows = budget_table(
            sc.pb, error_const=sc.error_const, a_max=sc.a_max, b_max=sc.b_max, sigma=sc.sigma, dims=sc.dims
        )
        assert argmin_order(rows) == expected[sc.name]


def test_argmin_order_tie_breaks_low():
    rows = [
        budget.BudgetRow(order=2, stages=2, n_steps=1.0, n_shots=None, cost=5.0, circuit_evals=None, circuits=None, ratio=1.0),
        budget.BudgetRow(order=1, stages=1, n_steps=1.0, n_shots=None, cost=5.0, circuit_evals=None, circuits=None, ratio=1.0),
    ]
    assert argmin_order(rows) == 1


def test_rows_to_csv_schema(classical):
    rows = budget_table(classical.pb, error_const=classical.error_const, p_range=[1, 2])
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "p,s,N_tau,N_r,cost,N_circ,circuits,ratio,flag"
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert cells[3] == ""  # no shots in noiseless mode
    assert cells[8] == ""  # feasible rows carry an empty flag
    assert float(cells[4]) == pytest.approx(2.25e7, rel=0.015)
    # full-precision scientific notation: 16 digits after the point
    mantissa = cells[4].split("e")[0]
    assert len(mantissa.split(".")[1]) == 16


def test_rows_to_json_keys(option_pricing):
    rows = budget_table(
        option_pricing.pb,
        error_const=option_pricing.error_const,
        p_range=[1, 2],
        sigma=option_pricing.sigma,
        dims=option_pricing.dims,
    )
    records = json.loads(rows_to_json(rows))
    assert [r["p"] for r in records] == [1, 2]
    assert set(records[0]) == {"p", "s", "N_tau", "N_r", "cost", "N_circ", "circuits", "ratio", "flag"}
    assert records[0]["flag"] == ""
    assert records[1]["N_circ"] == pytest.approx(1.62e28, rel=0.015)


optional_floats = st.none() | st.floats()
budget_rows = st.builds(
    BudgetRow,
    order=st.integers(1, 10),
    stages=st.integers(1, 20),
    n_steps=st.floats(),
    n_shots=optional_floats,
    cost=st.floats(),
    circuit_evals=optional_floats,
    circuits=optional_floats,
    ratio=st.floats(),
    feasible=st.booleans(),
)


@given(st.lists(budget_rows, max_size=4))
def test_budget_rows_read_back_from_csv_and_json(rows):
    lines = rows_to_csv(rows).split("\n")
    assert lines[0] == ",".join(ROW_KEYS)
    assert lines[-1] == ""
    records = json.loads(rows_to_json(rows))
    for line, record, row in zip(lines[1:-1], records, rows, strict=True):
        *values, feasible = astuple(row)
        *cells, flag = line.split(",")
        assert flag == record["flag"] == ("" if feasible else "infeasible")
        assert list(record) == list(ROW_KEYS)
        for cell, back, value in zip(cells, [record[key] for key in ROW_KEYS[:-1]], values, strict=True):
            if value is None:
                assert cell == ""
                assert back is None
            elif isinstance(value, int):
                assert int(cell) == back == value
                assert type(back) is int
            else:
                # the CSV writes a NaN without its sign or payload
                assert math.isnan(float(cell)) if math.isnan(value) else float(cell).hex() == value.hex()
                if math.isfinite(value):
                    assert type(back) is float and back.hex() == value.hex()
                else:
                    assert back is None


# -- self-consistency of the step formula (noiseless) -------------------------


@pytest.mark.parametrize("name", ["classical", "tuned"])
def test_noiseless_step_formula_self_consistency(request, name):
    # the closed form for the minimal step count is derived assuming the
    # per-step growth is small against the step count; where that premise
    # holds (these two parameter sets), plugging the count back into the
    # exact bound recovers the target within a few percent
    sc = request.getfixturevalue(name)
    for p in range(1, 11):
        prof = prof_for(sc, p)
        n_steps = min_steps_noiseless(sc.pb, prof)
        bound = global_error_bound_noiseless(sc.pb, prof, n_steps)
        assert 0.96 * sc.pb.target_error <= bound <= 1.04 * sc.pb.target_error


def assert_step_formulas_conservative(pb, prof):
    # with a_max == b_max or a single stage the closed forms never
    # under-provision, premise or not (derivation at C6 in test_acceptance.py):
    # the noiseless count keeps the exact bound at or below the target, and the
    # noisy count, the noiseless one for target / (2p+1), keeps it at or below
    # target / (2p+1); both to rounding
    n_steps = min_steps_noiseless(pb, prof)
    assert global_error_bound_noiseless(pb, prof, n_steps) <= pb.target_error * (1 + 1e-12)
    n_noisy = min_steps_noisy(pb, prof)
    share = pb.target_error / (2 * prof.order + 1)
    assert global_error_bound_noiseless(pb, prof, n_noisy) <= share * (1 + 1e-12)


@pytest.mark.parametrize("name", ["classical", "option_pricing"])
def test_step_formulas_conservative(request, name):
    sc = request.getfixturevalue(name)
    assert sc.a_max == sc.b_max
    for p in range(1, 11):
        assert_step_formulas_conservative(sc.pb, prof_for(sc, p))


def test_step_formulas_conservative_on_seeded_grid():
    # constants drawn as the dimensionless groups a*L*T and lip_time*T so every
    # count lands in [1, 1e12]; far beyond that, dt**(p+1) in lte_bound reaches
    # subnormals and the exact bound itself loses precision
    rng = np.random.default_rng(2412)
    for _ in range(200):
        lip_state, ab, growth, time_scale, field_bound, target, k = 10.0 ** rng.uniform(
            [-1, -0.5, -1.3, 0, 0, -4, -0.3], [1, 0.5, 0.6, 1.5, 2, -2, 1.3]
        )
        p = int(rng.integers(1, 11))
        horizon = growth / (ab * lip_state)
        pb = ProblemBounds(
            lip_state=lip_state,
            lip_time=time_scale / horizon,
            field_bound=field_bound,
            horizon=horizon,
            target_error=target,
        )
        prof = MethodProfile(order=p, stages=min_stages(p), a_max=ab, b_max=ab, error_const=k)
        assert 1 <= min_steps_noiseless(pb, prof) <= 1e12
        assert_step_formulas_conservative(pb, prof)


def test_ansatz_dims_validation():
    with pytest.raises(ValueError):
        AnsatzDims(n_params=0, n_strings=1, n_pauli=1)
    with pytest.raises(ValueError):
        AnsatzDims(n_params=1, n_strings=1, n_pauli=-2)


@pytest.mark.parametrize("name", ["n_params", "n_strings", "n_pauli"])
@pytest.mark.parametrize("value, shown", [(2.5, "2.5"), (3.0, "3.0"), ("2", "'2'")])
def test_ansatz_dims_rejects_non_integral_dimensions(name, value, shown):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {shown}$"):
        AnsatzDims(**{"n_params": 2, "n_strings": 1, "n_pauli": 1, name: value})


def test_ansatz_dims_accepts_numpy_integers():
    dims = AnsatzDims(n_params=np.int64(4), n_strings=np.int32(2), n_pauli=np.uint8(3))
    assert dims == AnsatzDims(n_params=4, n_strings=2, n_pauli=3)
    assert [type(v) for v in astuple(dims)] == [int] * 3

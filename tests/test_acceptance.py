"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with ``pytest -v -s`` to see the lines live).

Reference cells are the published three-significant-figure table values;
matching tolerance is 1.5% relative unless a criterion states otherwise.
"""

import math
import time

import numpy as np
import pytest

from rkbudget.bounds import f_factor, global_error_bound_noiseless
from rkbudget.budget import (
    argmin_order,
    budget_table,
    circuit_budget,
    distinct_circuits,
    min_shots,
    min_steps_noiseless,
    min_steps_noisy,
    sigma_bound,
)
from rkbudget.harness import validate_noiseless_bound, validate_noisy_bound
from rkbudget.integrator import empirical_order
from rkbudget.scenarios import bs_transform, exp_ode, heat_evolve, payoff, recover_price, scenario
from rkbudget.scenarios import BlackScholesSpec
from rkbudget.tableaux import MethodProfile, builtin_tableau, min_stages
from rkbudget.toymodel import kappa_study, norm_study, perturbation_bound, perturbation_empirical

TOL = 0.015

# Published rows: order -> (cost, cost ratio, minimal steps)
CLASSICAL_TABLE = {
    1: (2.25e7, 1.00, 2.25e7),
    2: (9.60e4, 2.35e2, 4.80e4),
    3: (1.99e4, 1.13e3, 6.63e3),
    4: (1.01e4, 2.22e3, 2.54e3),
    5: (1.38e4, 1.64e3, 2.29e3),
    6: (1.03e4, 2.18e3, 1.47e3),
    7: (1.36e4, 1.65e3, 1.52e3),
    8: (1.71e4, 1.32e3, 1.56e3),
    9: (2.07e4, 1.09e3, 1.60e3),
    10: (3.33e4, 6.76e2, 2.08e3),
}

# Published rows: order -> (circuit evals, ratio, shots, steps, distinct circuits)
OPTION_TABLE = {
    1: (2.13e29, 1.0, 7.03e21, 2.96e4, 3.03e7),
    2: (1.62e28, 13.18, 3.87e22, 2.04e2, 4.19e5),
    3: (1.75e28, 12.21, 1.53e23, 37.06, 1.14e5),
    4: (3.31e28, 6.45, 5.19e23, 15.55, 6.38e4),
    5: (3.38e29, 6.31e-1, 5.48e24, 10.03, 6.17e4),
    6: (7.79e29, 2.74e-1, 1.56e25, 6.96, 4.99e4),
    7: (7.49e30, 2.85e-2, 1.41e26, 5.74, 5.30e4),
    8: (7.00e31, 3.05e-3, 1.25e27, 4.98, 5.62e4),
    9: (6.45e32, 3.31e-4, 1.08e28, 4.47, 5.96e4),
    10: (2.16e34, 9.9e-6, 3.03e29, 4.33, 7.11e4),
}

TUNED_TABLE = {
    1: (1.12e37, 1.0, 1.15e25, 9.56e8, 9.80e11),
    2: (2.63e34, 4.28e2, 3.93e25, 3.26e5, 6.68e8),
    3: (6.33e33, 1.78e3, 9.57e25, 2.15e4, 6.61e7),
    4: (4.39e33, 2.56e3, 1.98e26, 5.41e3, 2.22e7),
    5: (1.00e34, 1.12e3, 6.78e26, 2.40e3, 1.48e7),
    6: (1.11e34, 1.01e3, 1.14e27, 1.36e3, 9.76e6),
    7: (2.60e34, 4.33e2, 3.06e27, 9.22e2, 8.50e6),
    8: (5.90e34, 1.91e2, 7.61e27, 6.88e2, 7.75e6),
    9: (1.33e35, 84.69, 1.82e28, 5.47e2, 7.29e6),
    10: (4.92e35, 22.87, 6.48e28, 4.63e2, 7.59e6),
}


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def prof_for(sc, p: int) -> MethodProfile:
    return MethodProfile(order=p, stages=min_stages(p), a_max=sc.a_max, b_max=sc.b_max, error_const=sc.error_const)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def test_c01_classical_cost_table():
    start = time.monotonic()
    sc = scenario("classical")
    worst = 0.0
    cost1 = None
    for p, (cost_ref, _ratio_ref, steps_ref) in CLASSICAL_TABLE.items():
        prof = prof_for(sc, p)
        n_steps = min_steps_noiseless(sc.pb, prof)
        cost = prof.stages * n_steps
        if p == 1:
            cost1 = cost
        worst = max(worst, rel_err(cost, cost_ref), rel_err(n_steps, steps_ref))
    elapsed = time.monotonic() - start
    report(
        "C1",
        worst <= TOL and elapsed < 1.0,
        f"classical cost table: 20 cells, worst rel err {worst:.4%}, {elapsed:.3f}s",
    )


@pytest.mark.parametrize(
    "name,table", [("option_pricing", OPTION_TABLE), ("tuned", TUNED_TABLE)], ids=["c02_option", "c03_tuned"]
)
def test_c02_c03_noisy_resource_tables(name, table):
    cid = "C2" if name == "option_pricing" else "C3"
    start = time.monotonic()
    sc = scenario(name)
    worst = 0.0
    ncirc1 = None
    for p, (ncirc_ref, ratio_ref, shots_ref, steps_ref, circ_ref) in table.items():
        prof = prof_for(sc, p)
        n_steps = min_steps_noisy(sc.pb, prof)
        n_shots = min_shots(sc.pb, prof, sc.sigma, n_steps)
        n_circ = circuit_budget(n_steps, prof.stages, n_shots, sc.dims)
        circuits = distinct_circuits(n_steps, prof.stages, sc.dims)
        if p == 1:
            ncirc1 = n_circ
        ratio = ncirc1 / n_circ
        worst = max(
            worst,
            rel_err(n_circ, ncirc_ref),
            rel_err(ratio, ratio_ref),
            rel_err(n_shots, shots_ref),
            rel_err(n_steps, steps_ref),
            rel_err(circuits, circ_ref),
        )
    elapsed = time.monotonic() - start
    report(
        cid,
        worst <= TOL and elapsed < 1.0,
        f"{name} resource table: 50 cells, worst rel err {worst:.4%}, {elapsed:.3f}s",
    )


def test_c04_sigma_estimate():
    sc = scenario("option_pricing")
    value = sigma_bound(sc.dims, eta=0.05)
    err = rel_err(value, 3.4e8)
    report("C4", err <= 0.02, f"sigma estimate {value:.4e} vs 3.4e8 (rel err {err:.4%})")


def test_c05_cheapest_order_per_scenario():
    picks = {}
    for name in ("classical", "option_pricing", "tuned"):
        sc = scenario(name)
        rows = budget_table(
            sc.pb, error_const=sc.error_const, a_max=sc.a_max, b_max=sc.b_max, sigma=sc.sigma, dims=sc.dims
        )
        picks[name] = argmin_order(rows)
    ok = picks == {"classical": 4, "option_pricing": 2, "tuned": 4}
    report("C5", ok, f"cheapest orders {picks} (expected 4/2/4)")


# Largest dropped part of the per-step factor at which C6 takes the closed
# form's large-step-count premise to hold: half the window.  A convention; the
# reference text fixes no number for "large".
PREMISE_DROP = 0.02
WINDOW = (0.96, 1.04)
CONSERVATIVE_RTOL = 1e-12


@pytest.mark.parametrize("name", ["classical", "option_pricing", "tuned"])
def test_c06_step_formula_self_consistency(name):
    # The closed form for the minimal step count comes from a large-step-count
    # expansion of the exact bound: it replaces the exact per-step factor
    # F = (b/a)((1+theta)**s - 1), theta = L*a*T/N, by b*s*L*T/N.  The part it
    # drops, N*F/(b*s*L*T) - 1, is measured at the closed-form count N.
    # (a) Where that part is at most PREMISE_DROP, plugging N back into the
    #     exact bound must recover the target within the 4% window.
    # (b) Where a_max == b_max or s == 1 the closed form never under-provisions,
    #     at any order: with z = b*s*L*T, N*F >= z always, and 1+F = (1+theta)**s
    #     gives N*log1p(F) = z*log1p(theta)/theta <= z, so both factors of
    #     bound/target = expm1(N*log1p(F))/expm1(z) * z/(N*F) are at most 1.
    #     The bound must therefore stay at or below the target, to rounding.
    # The premise measures the per-step factor only; it reads 0 for s == 1,
    # where (1+F)**N ~ e**z is the one approximation left, so a single-stage
    # row with few steps could leave the window inside it.  No registered row
    # does: order 1 needs 9865 steps or more.
    # The option-pricing counts at orders >= 3 are only 19 to 3 steps; there
    # the premise fails and the exact bound lands well below the target, which
    # (b) still checks.  A row outside the premise with a_max != b_max and
    # s > 1 is covered by neither check; no registered scenario has one, and
    # such a row fails C6, which cannot vouch for it.
    sc = scenario(name)
    ratios, window, conservative, unchecked = {}, [], [], []
    for p in range(1, 11):
        prof = prof_for(sc, p)
        n_steps = min_steps_noiseless(sc.pb, prof)
        ratios[p] = global_error_bound_noiseless(sc.pb, prof, n_steps) / sc.pb.target_error
        fac = f_factor(n_steps, prof, sc.pb.lip_state, sc.pb.horizon)
        dropped = n_steps * fac / (prof.b_max * prof.stages * sc.pb.lip_state * sc.pb.horizon) - 1.0
        in_premise = dropped <= PREMISE_DROP
        if in_premise:
            window.append(p)
        if prof.a_max == prof.b_max or prof.stages == 1:
            conservative.append(p)
        elif not in_premise:
            unchecked.append(p)
    out_of_window = [p for p in window if not WINDOW[0] <= ratios[p] <= WINDOW[1]]
    above_target = [p for p in conservative if ratios[p] > 1.0 + CONSERVATIVE_RTOL]
    report(
        "C6",
        not out_of_window and not above_target and not unchecked,
        f"{name}: bound(min steps)/target per order {{"
        + ", ".join(f"{p}: {r:.4f}" for p, r in ratios.items())
        + f"}}; (a) within {list(WINDOW)} at orders {window}"
        + (f", out of window at {out_of_window}" if out_of_window else "")
        + f"; (b) at most 1 at orders {conservative}"
        + (f", above target at {above_target}" if above_target else "")
        + (f"; unchecked orders {unchecked}" if unchecked else ""),
    )


def test_c07_convergence_orders():
    start = time.monotonic()
    problem = exp_ode()
    steps = [32, 64, 128, 256, 512]
    slopes = {}
    for name in ("euler", "heun2", "kutta3", "rk4"):
        tableau = builtin_tableau(name)
        slopes[name] = empirical_order(tableau, problem, steps, horizon=5.0)
    elapsed = time.monotonic() - start
    deviations = {name: abs(slope - builtin_tableau(name).order) for name, slope in slopes.items()}
    ok = max(deviations.values()) <= 0.15 and elapsed < 5.0
    report("C7", ok, f"slopes {slopes} (max |slope - order| {max(deviations.values()):.3f}, {elapsed:.2f}s)")


def test_c08_noiseless_bound_dominance():
    sc = scenario("classical")
    violations = 0
    for name in ("euler", "heun2", "kutta3", "rk4"):
        rep = validate_noiseless_bound(sc, builtin_tableau(name), [1, 10, 100, 1000])
        violations += rep.violations
    report("C8", violations == 0, f"noiseless dominance over 4 methods x 4 step counts: {violations} violations")


def test_c09_noisy_bound_dominance_clipped():
    start = time.monotonic()
    sc = scenario("classical")
    violations = 0
    for name in ("euler", "rk4"):
        for delta in (1e-6, 1e-4, 1e-2):
            rep = validate_noisy_bound(
                sc, builtin_tableau(name), n_steps=100, delta=delta, trials=1000, seed=20240817
            )
            violations += rep.violations
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 30.0
    report("C9", ok, f"clipped-noise dominance, 6 campaigns x 1000 trials: {violations} violations, {elapsed:.1f}s")


def test_c10_toy_model_statistics():
    start = time.monotonic()
    grid = [10, 25, 50, 100]
    kappas = kappa_study(grid, samples=100, theta=0.5, seed=20240817)
    norms = norm_study(grid, samples=100, theta=0.5, seed=20240817)
    failures = []
    for point in kappas:
        nv = point.n_params
        if not nv <= point.median <= nv**3:
            failures.append(f"kappa@{nv}={point.median:.3g}")
    for point in norms["norm_A"]:
        if not 0.5 * point.n_params <= point.median <= 2.0 * point.n_params:
            failures.append(f"normA@{point.n_params}={point.median:.3g}")
    for point in norms["norm_C"]:
        root = math.sqrt(point.n_params)
        if not 0.5 * root <= point.median <= 2.0 * root:
            failures.append(f"normC@{point.n_params}={point.median:.3g}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report("C10", ok, f"toy statistics at N_V {grid}: {'all in range' if not failures else failures}, {elapsed:.1f}s")


def test_c11_perturbation_oracle():
    rng = np.random.default_rng(20240817)
    test_xis = (1e-6, 1e-5, 1e-4)
    fit_xi = 1e-3
    systems = []
    for _ in range(100):
        a = rng.normal(size=(10, 10)) + 10.0 * np.eye(10)
        c = rng.normal(size=10)
        r_mat = rng.normal(size=(10, 10))
        r_vec = rng.normal(size=10)
        systems.append((a, c, r_mat, r_vec))
    # fit the quadratic-remainder constant on a coarser disturbance
    c_fit = 0.0
    for a, c, r_mat, r_vec in systems:
        residual = perturbation_empirical(a, c, r_mat, r_vec, fit_xi) - perturbation_bound(a, c, r_mat, r_vec, fit_xi)
        c_fit = max(c_fit, residual / fit_xi**2)
    c_fit = max(c_fit, 0.0)
    first_order_violations = 0
    quadratic_violations = 0
    for a, c, r_mat, r_vec in systems:
        for xi in test_xis:
            emp = perturbation_empirical(a, c, r_mat, r_vec, xi)
            bnd = perturbation_bound(a, c, r_mat, r_vec, xi)
            if emp > bnd + c_fit * xi**2 + 1e-12:
                quadratic_violations += 1
            if xi == min(test_xis) and emp > bnd + 1e-9:
                first_order_violations += 1
    ok = first_order_violations == 0 and quadratic_violations == 0
    report(
        "C11",
        ok,
        f"100 systems x {len(test_xis)} disturbances: {first_order_violations} first-order / "
        f"{quadratic_violations} quadratic violations (fitted c={c_fit:.3g})",
    )


def test_c12_option_price_roundtrip():
    vol, rate, strike, expiry = 0.2, 0.04, 100.0, 1.0
    grid = np.linspace(math.log(strike) - 5.0, math.log(strike) + 5.0, 2401)
    spec = BlackScholesSpec(volatility=vol, rate=rate, strike=strike, expiry=expiry, grid=grid)
    tr = bs_transform(spec)
    x = spec.grid
    dx = x[1] - x[0]
    assert dx <= 0.005
    u0 = np.exp(-tr.a * x) * payoff(np.exp(x), strike)
    z = float(np.sum(u0))
    p_final = heat_evolve(u0 / z, tr.horizon, dx)
    recovered = recover_price(p_final, z, tr, x)

    def call_price(s):
        d1 = (math.log(s / strike) + (rate + 0.5 * vol**2) * expiry) / (vol * math.sqrt(expiry))
        d2 = d1 - vol * math.sqrt(expiry)
        cdf = lambda t: 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
        return s * cdf(d1) - strike * math.exp(-rate * expiry) * cdf(d2)

    moneyness = np.exp(x) / strike
    mask = (moneyness >= 0.8) & (moneyness <= 1.2)
    oracle = np.array([call_price(s) for s in np.exp(x[mask])])
    max_rel = float(np.max(np.abs(recovered[mask] - oracle) / oracle))
    report("C12", max_rel <= 0.02, f"price roundtrip max rel err {max_rel:.3e} over moneyness [0.8, 1.2]")

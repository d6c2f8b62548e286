#!/usr/bin/env python3
# Reproduce the per-order resource tables for the three registered parameter
# scenarios and report which method order is cheapest in each.

from rkbudget import argmin_order, budget_table, scenario, sigma_bound

for name in ("classical", "option_pricing", "tuned"):
    sc = scenario(name)
    rows = budget_table(
        sc.pb,
        error_const=sc.error_const,
        a_max=sc.a_max,
        b_max=sc.b_max,
        sigma=sc.sigma,
        dims=sc.dims,
    )

    print("=" * 78)
    print(f"scenario: {name}   (target error {sc.pb.target_error:g}, horizon {sc.pb.horizon:g})")
    print("=" * 78)
    if sc.noisy:
        print(f"{'p':>3} {'s':>3} {'N_tau':>12} {'N_r':>12} {'N_circ':>12} {'ratio':>12}")
        for r in rows:
            print(
                f"{r.order:>3} {r.stages:>3} {r.n_steps:>12.4g} {r.n_shots:>12.4g} "
                f"{r.circuit_evals:>12.4g} {r.ratio:>12.4g}"
            )
    else:
        print(f"{'p':>3} {'s':>3} {'N_tau':>12} {'cost':>12} {'ratio':>12}")
        for r in rows:
            print(f"{r.order:>3} {r.stages:>3} {r.n_steps:>12.4g} {r.cost:>12.4g} {r.ratio:>12.4g}")
    best = argmin_order(rows)
    metric = "total circuit evaluations" if sc.noisy else "field evaluations"
    print(f"-> cheapest order by {metric}: p = {best}")
    print()

# The shot-noise scale used by the noisy scenarios is not a free choice: it
# follows from the ansatz dimensions, the confidence level (the paper's
# eta = 0.05) and the assumed caps on the linear-system conditioning.
sc = scenario("option_pricing")
estimate = sigma_bound(sc.dims, eta=0.05)
print(f"shot-noise scale implied by the ansatz dimensions: {estimate:.3e}")
print(f"value pinned in the scenario registry:             {sc.sigma:.3e}")

#!/usr/bin/env python3
"""Re-measure the per-call figures of the ROADMAP Baseline, for the record.

    python3 bench/baseline.py

Prints one line per item: the median of a few direct library calls on this
machine next to the Baseline figure.  It is a one-off cross-check, not part
of the benchmark's contract.
"""

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def median_s(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from rkbudget import budget, harness, integrator, scenarios, sensitivity, tableaux, toymodel

    classical = scenarios.scenario("classical")
    option = scenarios.scenario("option_pricing")
    rk4 = tableaux.builtin_tableau("rk4")
    grid4 = [10, 25, 50, 100]
    _, params = toymodel.sample_toy(25, rng=7)
    lip_grid = np.linspace(0.0, 10.0, 200)
    c9_rk4 = median_s(lambda: harness.validate_noisy_bound(classical, rk4, 100, 1e-4, trials=100, seed=1), 3)
    items = [
        ("C9 rk4 clipped, us per field evaluation", c9_rk4 / (100 * 100 * 4) * 1e6, "us", 21.0),
        ("kappa_study [10,25,50,100] x 100", median_s(lambda: toymodel.kappa_study(grid4, 100, seed=20240817), 3) * 1e3, "ms", 442.0),
        ("norm_study [10,25,50,100] x 100", median_s(lambda: toymodel.norm_study(grid4, 100, seed=20240817), 3) * 1e3, "ms", 426.0),
        ("lip_surface 25-dim 200x200", median_s(lambda: toymodel.lip_surface(params, lip_grid, lip_grid)) * 1e3, "ms", 182.0),
        ("budget_table(option_pricing)", median_s(lambda: budget.budget_table(
            option.pb, error_const=option.error_const, a_max=option.a_max, b_max=option.b_max,
            sigma=option.sigma, dims=option.dims), 201) * 1e3, "ms", 0.084),
        ("25-point sweep (classical epsilon, cost)", median_s(lambda: sensitivity.sweep(
            sensitivity.SweepSpec(base=classical, target="epsilon")), 51) * 1e3, "ms", 0.46),
        ("noiseless rk4, 1000 steps", median_s(lambda: integrator.integrate(
            rk4, integrator.EvaluationOracle(scenarios.exp_ode().field), np.array([1.0]), 0.0, 5.0, 1000)) * 1e3,
         "ms", 57.0),
    ]
    for name, value, unit, roadmap in items:
        print(f"{name}: {value:.4g} {unit} (ROADMAP Baseline {roadmap:g} {unit}, ratio {value / roadmap:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

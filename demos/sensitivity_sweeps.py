#!/usr/bin/env python3
# One-at-a-time sensitivity of the resource budgets: rescale one scenario
# constant at a time and watch the cost (or the circuit budget) respond.
# Constants that enter the formulas only through a product produce exactly
# overlapping curves, which overlap_check detects.

from rkbudget import scenario, sweep
from rkbudget.sensitivity import SweepSpec, overlap_check

POINTS = 9  # scale factors per curve, log-spaced over [1/8, 8]

print("noiseless evaluation cost, classical scenario, order 2 baseline")
print("-" * 70)
classical = scenario("classical")
curves = {}
for target in ("T", "K", "M", "L_fy", "L_ftau", "b_max", "epsilon"):
    curves[target] = sweep(SweepSpec(base=classical, target=target, mode="cost", points=POINTS))

header = "factor " + " ".join(f"{t:>11}" for t in sorted(curves))
print(header)
for i, point in enumerate(curves["T"]):
    row = f"{point.factor:6.3f} " + " ".join(f"{curves[t][i].value:>11.4g}" for t in sorted(curves))
    print(row)

print()
print("curves that coincide exactly:", overlap_check(curves))
print("(the error constant and the field bound only ever appear multiplied,")
print(" as do the state Lipschitz constant and the weight bound)")
print()

print("total circuit evaluations, option-pricing scenario, order 2 baseline")
print("-" * 70)
option = scenario("option_pricing")
ncirc_curves = {}
for target in ("Sigma", "epsilon", "K", "M", "L_fy", "T"):
    ncirc_curves[target] = sweep(SweepSpec(base=option, target=target, mode="ncirc", points=POINTS))

print("factor " + " ".join(f"{t:>11}" for t in sorted(ncirc_curves)))
for i, point in enumerate(ncirc_curves["T"]):
    print(f"{point.factor:6.3f} " + " ".join(f"{ncirc_curves[t][i].value:>11.4g}" for t in sorted(ncirc_curves)))

print()
print("overlaps in circuit-budget mode:", overlap_check(ncirc_curves))
print("(the state Lipschitz constant now also drives the shot count, so only")
print(" the error-constant/field-bound pair still coincides; the shot-noise")
print(" scale enters squared, so its curve is a parabola in the factor)")

print()
print("order sweep (the one discrete axis): circuit budget per order")
for point in sweep(SweepSpec(base=option, target="p", mode="ncirc")):
    print(f"  p = {int(point.factor):2d}: {point.value:.4g}")

#!/usr/bin/env python3
# Price a European call by mapping the pricing PDE onto the heat equation:
# payoff on a log-price grid, transform, exact Gaussian-kernel propagation,
# inverse transform, then compare with the closed-form price.

import math

import numpy as np

from rkbudget import BlackScholesSpec, bs_transform, heat_evolve, payoff, recover_price


def closed_form_call(s, strike, rate, vol, expiry):
    d1 = (math.log(s / strike) + (rate + 0.5 * vol**2) * expiry) / (vol * math.sqrt(expiry))
    d2 = d1 - vol * math.sqrt(expiry)
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return s * cdf(d1) - strike * math.exp(-rate * expiry) * cdf(d2)


vol, rate, strike, expiry = 0.2, 0.04, 100.0, 1.0
grid = np.linspace(math.log(strike) - 5.0, math.log(strike) + 5.0, 2401)
spec = BlackScholesSpec(volatility=vol, rate=rate, strike=strike, expiry=expiry, grid=grid)
transform = bs_transform(spec)

print(f"volatility {vol}, rate {rate}, strike {strike}, expiry {expiry} year")
print(f"transform constants: a = {transform.a:.4g}, b = {transform.b:.4g}")
print(f"transformed horizon: {transform.horizon:.4g} (= expiry x volatility^2)")
print()

# Terminal payoff, mapped into the heat-equation frame.  Transformed time
# runs backwards: the payoff lives at transformed time zero, the price today
# at the full transformed horizon.
x = spec.grid
dx = x[1] - x[0]
u0 = np.exp(-transform.a * x) * payoff(np.exp(x), strike)

# Normalize the grid data the way an amplitude encoding would and keep the
# normalization so the price can be recovered afterwards.
z = float(np.sum(u0))
p0 = u0 / z

p_final = heat_evolve(p0, transform.horizon, dx)
price = recover_price(p_final, z, transform, x)

print(f"{'spot':>8} {'recovered':>12} {'closed form':>12} {'rel err':>10}")
for spot in (80.0, 90.0, 100.0, 110.0, 120.0):
    idx = int(np.argmin(np.abs(np.exp(x) - spot)))
    reference = closed_form_call(math.exp(x[idx]), strike, rate, vol, expiry)
    rel = abs(price[idx] - reference) / reference
    print(f"{spot:>8.0f} {price[idx]:>12.4f} {reference:>12.4f} {rel:>10.2e}")

moneyness = np.exp(x) / strike
mask = (moneyness >= 0.8) & (moneyness <= 1.2)
reference = np.array([closed_form_call(s, strike, rate, vol, expiry) for s in np.exp(x[mask])])
worst = np.max(np.abs(price[mask] - reference) / reference)
print()
print(f"max relative error over moneyness [0.8, 1.2]: {worst:.2e}")

print()
print("semigroup sanity: two short propagations equal one long propagation")
# compare away from the grid edges, where the zero padding of the transformed
# payoff (which grows exponentially in x) is felt
half = heat_evolve(heat_evolve(p0, transform.horizon / 2, dx), transform.horizon / 2, dx)
print(f"  max deviation over the moneyness window: {np.max(np.abs(half[mask] - p_final[mask])):.2e}")

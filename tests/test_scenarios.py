import copy
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkbudget import scenarios
from rkbudget.scenarios import (
    BlackScholesSpec,
    HeatTransform,
    apply_overrides,
    bs_transform,
    exp_ode,
    heat_evolve,
    override_value,
    parse_overrides,
    payoff,
    recover_price,
    scenario,
)
from rkbudget.sensitivity import SWEEP_TARGETS


def bs_call_price(s, strike, rate, vol, expiry):
    """Closed-form European call value; the independent pricing oracle."""
    d1 = (math.log(s / strike) + (rate + 0.5 * vol**2) * expiry) / (vol * math.sqrt(expiry))
    d2 = d1 - vol * math.sqrt(expiry)
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return s * cdf(d1) - strike * math.exp(-rate * expiry) * cdf(d2)


# -- scenario registry -----------------------------------------------------------


def test_classical_registry_values(classical):
    assert classical.pb.lip_time == 3.1
    assert classical.pb.lip_state == 0.5
    assert classical.pb.horizon == 5.0
    assert classical.pb.field_bound == 13.0
    assert classical.pb.target_error == 1e-3
    assert classical.error_const == 5.0
    assert classical.b_max == 1.0
    assert not classical.noisy


def test_option_pricing_registry_values(option_pricing):
    assert option_pricing.sigma == 3.4e8
    assert option_pricing.pb.lip_state == 15.0
    assert option_pricing.pb.horizon == 0.04
    assert option_pricing.pb.field_bound == 60.0
    assert option_pricing.dims.n_params == 25
    assert option_pricing.dims.n_strings == 1
    assert option_pricing.dims.n_pauli == 16
    assert option_pricing.noisy


def test_tuned_registry_values(tuned):
    assert tuned.error_const == 20.0
    assert tuned.b_max == 0.5
    assert tuned.pb.lip_state == 0.1
    assert tuned.pb.horizon == 4.0
    # remaining constants inherited from the option-pricing set
    assert tuned.pb.lip_time == 15.0
    assert tuned.sigma == 3.4e8


def test_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario("bogus")


@pytest.mark.parametrize("name", ["nope", ["x"], None, 3])
def test_unknown_scenario_names_the_choices_hashable_or_not(name):
    message = f"unknown scenario {name!r}; choose from ('classical', 'option_pricing', 'tuned')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scenario(name)


@pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
def test_overrides_leave_the_shared_registered_record_as_it_was(name):
    registered = scenario(name)
    before = copy.deepcopy(registered)
    overrides = {key: 0.5 * value for key in SWEEP_TARGETS
                 if key != "p" and (value := override_value(registered, key)) is not None}
    out = apply_overrides(registered, {**overrides, "N_V": 7, "N_d": 2, "N": 3})
    assert out != registered
    assert scenario(name) is registered
    assert registered == before
    assert apply_overrides(registered, {}) is registered


# -- benchmark ODE ----------------------------------------------------------------


def test_exp_ode_endpoints():
    problem = exp_ode()
    assert problem.exact(0.0)[0] == pytest.approx(1.0)
    assert problem.exact(5.0)[0] == pytest.approx(math.exp(2.5), rel=1e-15)
    assert problem.field(0.3, np.array([0.0]))[0] == 0.0


def test_exp_ode_field_matches_exact_derivative():
    problem = exp_ode()
    h = 1e-6
    for tau in (0.0, 1.0, 4.5):
        derivative = (problem.exact(tau + h) - problem.exact(tau - h)) / (2 * h)
        np.testing.assert_allclose(derivative, problem.field(tau, problem.exact(tau)), rtol=1e-8)


EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1e308, 1.0, 3.7, -0.1]


@pytest.mark.parametrize("shape", [(9,), (3, 3)])
def test_exp_ode_field_is_the_bits_of_a_python_float_half(shape):
    # the field multiplies by a 0-d float64 array, not the Python float 0.5;
    # the IEEE product is the same for signed zeros, subnormals and 1e308
    y = np.array(EDGE_VALUES).reshape(shape)
    got = exp_ode().field(0.0, y)
    assert got.shape == shape
    assert got.tobytes() == (0.5 * y).tobytes()


FIELD_SHAPES = st.sampled_from([(), (1,), (5,), (3, 1), (4, 2)])  # 0-d, lone and batch states
FIELD_FLOATS = arrays(np.float64, FIELD_SHAPES, elements=st.floats(width=64))
FIELD_INTS = arrays(np.int64, FIELD_SHAPES, elements=st.integers(-(2**63), 2**63 - 1))
FIELD_INPUTS = st.one_of(
    FIELD_FLOATS,
    FIELD_INTS,
    FIELD_FLOATS.filter(np.ndim).map(np.ndarray.tolist),
    FIELD_INTS.filter(np.ndim).map(np.ndarray.tolist),
    FIELD_FLOATS.filter(np.ndim).map(lambda a: tuple(a.tolist())),
    FIELD_INTS.filter(np.ndim).map(lambda a: tuple(a.tolist())),
)


@given(FIELD_INPUTS)
def test_exp_ode_field_converts_its_input_as_asarray_float_did(y):
    # the field multiplies y itself; the 0-d float64 rate converts a list, a
    # tuple or an int array to the float64 that np.asarray(y, dtype=float) gives
    got, want = exp_ode().field(0.0, y), scenarios._HALF * np.asarray(y, dtype=float)
    assert type(got) is type(want) and got.dtype == want.dtype == np.float64
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_exp_ode_rate_is_a_read_only_0d_float64():
    assert (scenarios._HALF.shape, scenarios._HALF.dtype) == ((), np.float64)
    with pytest.raises(ValueError, match="read-only"):
        scenarios._HALF[...] = 1.0
    assert scenarios._HALF == 0.5


# -- Black-Scholes transform -------------------------------------------------------


def make_spec(vol=0.2, rate=0.04, strike=100.0, expiry=1.0):
    grid = np.linspace(math.log(strike) - 5.0, math.log(strike) + 5.0, 2001)
    return BlackScholesSpec(volatility=vol, rate=rate, strike=strike, expiry=expiry, grid=grid)


def test_bs_transform_horizon():
    tr = bs_transform(make_spec())
    assert tr.horizon == pytest.approx(0.04, rel=1e-14)


def test_bs_transform_constants():
    tr = bs_transform(make_spec())
    assert tr.a == pytest.approx(-0.5, rel=1e-14)
    assert tr.b == pytest.approx(-1.125, rel=1e-14)
    tr0 = bs_transform(make_spec(rate=0.0))
    assert tr0.a == pytest.approx(0.5, rel=1e-14)
    assert tr0.b == pytest.approx(-0.125, rel=1e-14)


def test_bs_spec_validation():
    with pytest.raises(ValueError):
        make_spec(vol=0.0)
    with pytest.raises(ValueError):
        make_spec(expiry=0.0)
    with pytest.raises(ValueError):
        BlackScholesSpec(volatility=0.2, rate=0.0, strike=1.0, expiry=1.0, grid=np.array([1.0, 0.5]))


def test_transform_constants_solve_pricing_pde():
    # sample the closed-form price on a grid and check the pricing PDE
    # residual under second-order finite differences; this validates the
    # transform constants end to end
    rate, vol, strike = 0.04, 0.2, 100.0
    s_grid = np.linspace(60.0, 160.0, 801)
    t_grid = np.linspace(0.1, 0.7, 241)
    ds = s_grid[1] - s_grid[0]
    dt = t_grid[1] - t_grid[0]
    values = np.array([[bs_call_price(s, strike, rate, vol, 1.0 - t) for s in s_grid] for t in t_grid])
    v_t = (values[2:, 1:-1] - values[:-2, 1:-1]) / (2 * dt)
    v_s = (values[1:-1, 2:] - values[1:-1, :-2]) / (2 * ds)
    v_ss = (values[1:-1, 2:] - 2 * values[1:-1, 1:-1] + values[1:-1, :-2]) / ds**2
    s_mid = s_grid[1:-1]
    residual = v_t + 0.5 * vol**2 * s_mid**2 * v_ss + rate * s_mid * v_s - rate * values[1:-1, 1:-1]
    assert np.max(np.abs(residual)) <= 1e-3


# -- payoff -------------------------------------------------------------------------


@pytest.mark.parametrize("price,expected", [(120.0, 20.0), (100.0, 0.0), (80.0, 0.0)])
def test_payoff_values(price, expected):
    assert payoff(price, 100.0) == expected


def test_payoff_rejects_negative():
    with pytest.raises(ValueError):
        payoff(-1.0, 100.0)


def test_payoff_convex_piecewise_linear():
    s = np.linspace(0.0, 300.0, 601)
    values = payoff(s, 100.0)
    assert payoff(100.0, 100.0) == 0.0
    mid = 0.5 * (values[:-2] + values[2:])
    assert np.all(mid >= values[1:-1] - 1e-12)


# -- heat propagator ----------------------------------------------------------------


def test_heat_evolve_identity_at_zero():
    u0 = np.sin(np.linspace(0, 3, 100))
    out = heat_evolve(u0, 0.0, 0.01)
    np.testing.assert_array_equal(out, u0)
    assert out is not u0


def test_heat_evolve_gaussian_widening():
    dx = 0.01
    x = np.arange(-6.0, 6.0 + dx / 2, dx)
    v, tau = 0.3, 0.2
    u0 = np.exp(-(x**2) / (2 * v)) / math.sqrt(2 * math.pi * v)
    out = heat_evolve(u0, tau, dx)
    expected = np.exp(-(x**2) / (2 * (v + tau))) / math.sqrt(2 * math.pi * (v + tau))
    assert np.max(np.abs(out - expected)) <= 1e-3


def test_heat_evolve_conserves_mass():
    dx = 0.01
    x = np.arange(-8.0, 8.0 + dx / 2, dx)
    u0 = np.where(np.abs(x) < 1.0, (1.0 - np.abs(x)), 0.0)
    out = heat_evolve(u0, 0.1, dx)
    assert np.sum(out) * dx == pytest.approx(np.sum(u0) * dx, rel=1e-6)


def test_heat_evolve_semigroup():
    dx = 0.005
    x = np.arange(-5.0, 5.0 + dx / 2, dx)
    u0 = np.exp(-(x**2) / 1.0)
    two_hops = heat_evolve(heat_evolve(u0, 0.01, dx), 0.02, dx)
    one_hop = heat_evolve(u0, 0.03, dx)
    assert np.max(np.abs(two_hops - one_hop)) <= 1e-6


def test_heat_evolve_kernel_wider_than_the_grid():
    # dx=0.1, tau=0.1: the kernel spans 65 points, the grid 11
    u0 = np.exp(-np.linspace(-1.0, 1.0, 11) ** 2)
    out = heat_evolve(u0, 0.1, 0.1)
    assert out.shape == u0.shape
    # the padded grid is longer than the kernel; zero terms only change the
    # summation order, so the two agree to rounding
    pad = 40
    padded = heat_evolve(np.pad(u0, pad), 0.1, 0.1)
    np.testing.assert_allclose(out, padded[pad : pad + len(u0)], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [65, 66, 200])
def test_heat_evolve_matches_same_mode_when_the_grid_covers_the_kernel(n):
    u0 = np.random.default_rng(n).random(n)
    offsets = np.arange(-32, 33) * 0.1
    kernel = np.exp(-(offsets**2) / 0.2)
    kernel /= kernel.sum()
    np.testing.assert_array_equal(heat_evolve(u0, 0.1, 0.1), np.convolve(u0, kernel, mode="same"))


def test_heat_evolve_rejects_bad_input():
    with pytest.raises(ValueError):
        heat_evolve(np.ones(10), -0.1, 0.01)
    with pytest.raises(ValueError):
        heat_evolve(np.array([1.0, np.nan]), 0.1, 0.01)


# -- price recovery -----------------------------------------------------------------


def test_recover_price_trivial_map():
    p = np.array([0.1, 0.4, 0.5])
    out = recover_price(p, 1.0, HeatTransform(a=0.0, b=0.0, horizon=0.04), np.zeros(3))
    np.testing.assert_allclose(out, p, rtol=1e-15)


def test_recover_price_inverts_boundary_map():
    # at zero elapsed transformed time the recovery must return the payoff
    spec = make_spec()
    tr = bs_transform(spec)
    x = spec.grid
    v0 = payoff(np.exp(x), spec.strike)
    u0 = np.exp(-tr.a * x) * v0
    z = float(np.sum(u0))
    p0 = u0 / z
    recovered = recover_price(p0, z, replace(tr, horizon=0.0), x)
    np.testing.assert_allclose(recovered, v0, rtol=1e-12, atol=1e-12)


def test_full_roundtrip_matches_closed_form():
    # payoff grid -> heat propagation -> recovery, against the closed form
    spec = make_spec()
    tr = bs_transform(spec)
    x = spec.grid
    dx = x[1] - x[0]
    u0 = np.exp(-tr.a * x) * payoff(np.exp(x), spec.strike)
    z = float(np.sum(u0))
    p0 = u0 / z
    p_final = heat_evolve(p0, tr.horizon, dx)
    recovered = recover_price(p_final, z, tr, x)
    moneyness = np.exp(x) / spec.strike
    mask = (moneyness >= 0.8) & (moneyness <= 1.2)
    oracle = np.array([bs_call_price(s, spec.strike, spec.rate, spec.volatility, spec.expiry) for s in np.exp(x[mask])])
    rel_err = np.abs(recovered[mask] - oracle) / oracle
    assert np.max(rel_err) <= 0.02


# -- overrides ------------------------------------------------------------------------


def test_parse_overrides_accepts_known_keys():
    overrides = parse_overrides("L_fy=0.1\nK=20\n# comment\n\nb_max = 0.5\n")
    assert overrides == {"L_fy": 0.1, "K": 20.0, "b_max": 0.5}


def test_parse_overrides_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_overrides("L_fz=0.1\n")


def test_apply_overrides_reproduces_tuned(option_pricing, tuned):
    overridden = apply_overrides(option_pricing, parse_overrides("b_max=0.5\nL_fy=0.1\nT=4\nK=20\n"))
    assert overridden.pb == tuned.pb
    assert overridden.b_max == tuned.b_max
    assert overridden.error_const == tuned.error_const
    assert overridden.sigma == tuned.sigma


def test_apply_overrides_from_file(tmp_path, classical):
    path = tmp_path / "overrides.txt"
    path.write_text("epsilon=0.01\nM=26\n")
    out = apply_overrides(classical, parse_overrides(path.read_text()))
    assert out.pb.target_error == 0.01
    assert out.pb.field_bound == 26.0
    assert out.pb.lip_time == classical.pb.lip_time


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"Sigma": math.nan}, "Sigma must be finite"),
        ({"S": math.inf}, "unknown override key 'S'"),  # S and eta: no formula reads them
        ({"eta": -math.inf}, "unknown override key 'eta'"),
        ({"eta": 0.5}, "unknown override key 'eta'"),
        ({"b_max": math.nan}, "b_max must be finite"),
        ({"N_V": 2.5}, "N_V must be a whole number"),
        ({"N": math.nan}, "N must be a whole number"),
    ],
)
def test_apply_overrides_rejects_bad_values(option_pricing, overrides, message):
    with pytest.raises(ValueError, match=message):
        apply_overrides(option_pricing, overrides)


def test_apply_overrides_takes_whole_number_dimensions(option_pricing):
    out = apply_overrides(option_pricing, {"N_V": 10.0, "N_d": 2})
    assert (out.dims.n_params, out.dims.n_strings) == (10, 2)
    assert isinstance(out.dims.n_params, int)


@pytest.mark.parametrize("key", [target for target in SWEEP_TARGETS if target != "p"])
def test_override_value_reads_what_apply_overrides_sets(option_pricing, key):
    value = override_value(option_pricing, key)
    assert apply_overrides(option_pricing, {key: value}) == option_pricing
    assert override_value(apply_overrides(option_pricing, {key: 0.75 * value}), key) == 0.75 * value

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkbudget.bounds import (
    ProblemBounds,
    f_factor,
    global_error_bound_noiseless,
    global_error_bound_noisy,
    lte_bound,
)
from rkbudget.budget import min_shots, min_steps_noiseless, min_steps_noisy
from rkbudget.tableaux import MethodProfile, min_stages


def prof(order, stages, a_max=1.0, b_max=1.0, error_const=5.0):
    return MethodProfile(order=order, stages=stages, a_max=a_max, b_max=b_max, error_const=error_const)


def test_problem_bounds_positive():
    with pytest.raises(ValueError):
        ProblemBounds(lip_state=0.0, lip_time=1.0, field_bound=1.0, horizon=1.0, target_error=1e-3)
    with pytest.raises(ValueError):
        ProblemBounds(lip_state=1.0, lip_time=1.0, field_bound=1.0, horizon=-1.0, target_error=1e-3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["lip_state", "lip_time", "field_bound", "horizon", "target_error"])
def test_problem_bounds_rejects_non_finite(name, value):
    kwargs = dict(lip_state=1.0, lip_time=1.0, field_bound=1.0, horizon=1.0, target_error=1e-3)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ProblemBounds(**kwargs)


def test_f_factor_single_stage_closed_form():
    # reduces exactly to b_max * L * T / n for one stage, regardless of a_max
    assert f_factor(10, prof(1, 1, a_max=0.0), 0.5, 5.0) == pytest.approx(0.25, rel=1e-15)
    assert f_factor(10, prof(1, 1, a_max=3.0), 0.5, 5.0) == pytest.approx(0.25, rel=1e-15)


def test_f_factor_classical_anchor():
    value = f_factor(2.25e7, prof(1, 1, a_max=0.0), 0.5, 5.0)
    assert value == pytest.approx(2.5 / 2.25e7, rel=1e-14)
    assert value == pytest.approx(1.111e-7, rel=1e-3)


def test_f_factor_two_stage():
    assert f_factor(1, prof(2, 2), 1.0, 1.0) == pytest.approx(3.0, rel=1e-14)


def test_f_factor_small_a_max_limit_matches_single_stage():
    # evaluate the generic expression (in its cancellation-free expm1/log1p
    # form) at vanishing a_max and compare with the exact single-stage form
    b_max, lip, horizon, n = 0.7, 0.5, 5.0, 100
    for a_max in (1e-6, 1e-9, 1e-12):
        generic = b_max / a_max * math.expm1(1 * math.log1p(lip * a_max * horizon / n))
        closed = f_factor(n, prof(1, 1, a_max=0.0, b_max=b_max), lip, horizon)
        assert generic == pytest.approx(closed, rel=1e-10)


def test_f_factor_rejects_zero_a_max_for_multistage():
    with pytest.raises(ValueError):
        f_factor(10, prof(2, 2, a_max=0.0), 1.0, 1.0)


def test_lte_bound_values():
    assert lte_bound(0.1, prof(1, 1, error_const=1.0), 1.0, 1.0) == pytest.approx(0.01, rel=1e-15)
    # direct scalar arithmetic: 5 * 3.1**4 * 13 * 1e-15
    assert lte_bound(1e-3, prof(4, 4), 3.1, 13.0) == pytest.approx(6.0028865e-12, rel=1e-7)


def test_lte_bound_step_scaling():
    full = lte_bound(0.2, prof(2, 2), 1.3, 2.0)
    half = lte_bound(0.1, prof(2, 2), 1.3, 2.0)
    assert full / half == pytest.approx(8.0, rel=1e-12)


def test_noiseless_bound_classical_anchor():
    # one-stage method at the printed step count of the reference table
    pb = ProblemBounds(lip_state=0.5, lip_time=3.1, field_bound=13.0, horizon=5.0, target_error=1e-3)
    bound = global_error_bound_noiseless(pb, prof(1, 1, a_max=0.0), 2.25e7)
    assert bound == pytest.approx(1.0015e-3, rel=5e-4)
    assert abs(bound - pb.target_error) / pb.target_error < 0.02


def test_noiseless_bound_small_f_limit():
    # as F -> 0 the prefactor approaches n_steps, so the bound approaches the
    # summed local truncation errors
    pb = ProblemBounds(lip_state=1e-9, lip_time=1.0, field_bound=1.0, horizon=1.0, target_error=1e-3)
    p = prof(2, 2, error_const=1.0)
    n = 100
    bound = global_error_bound_noiseless(pb, p, n)
    lte_sum = n * (pb.horizon / n) ** 3
    assert bound == pytest.approx(lte_sum, rel=1e-7)


def test_noiseless_bound_single_step_single_stage():
    pb = ProblemBounds(lip_state=0.5, lip_time=3.1, field_bound=13.0, horizon=5.0, target_error=1e-3)
    p = prof(1, 1, a_max=0.0)
    bound = global_error_bound_noiseless(pb, p, 1)
    expected = pb.horizon**2 * p.error_const * pb.lip_time * pb.field_bound
    assert bound == pytest.approx(expected, rel=1e-12)


def test_noisy_bound_at_zero_delta_is_noiseless_bitwise(classical):
    p = prof(4, 4, b_max=1 / 3)
    for n in (1, 10, 100, 1000):
        assert global_error_bound_noisy(classical.pb, p, n, 0.0) == global_error_bound_noiseless(classical.pb, p, n)


def test_noisy_bound_option_anchor(option_pricing):
    # step and shot counts as printed for the first-order row; the bound must
    # recover the target error
    delta = 3.4e8 / math.sqrt(7.03e21)
    bound = global_error_bound_noisy(option_pricing.pb, prof(1, 1, a_max=0.0), 29596, delta)
    assert bound == pytest.approx(1e-3, rel=1e-2)


def test_noisy_bound_monotone_in_delta(classical):
    p = prof(2, 2)
    bounds = [global_error_bound_noisy(classical.pb, p, 100, d) for d in (0.0, 1e-6, 2e-6, 1e-3)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_bounds_monotone_in_problem_constants():
    base = ProblemBounds(lip_state=0.5, lip_time=3.1, field_bound=13.0, horizon=5.0, target_error=1e-3)
    p = prof(3, 3)
    ref = global_error_bound_noiseless(base, p, 200)
    for name in ("lip_time", "field_bound", "horizon"):
        bigger = dataclasses.replace(base, **{name: getattr(base, name) * 1.5})
        assert global_error_bound_noiseless(bigger, p, 200) > ref
    assert global_error_bound_noiseless(base, prof(3, 3, error_const=7.5), 200) > ref


def test_overflow_reports_infinity():
    # growth exponent n * log1p(F) far beyond float range
    pb = ProblemBounds(lip_state=50.0, lip_time=1.0, field_bound=1.0, horizon=50.0, target_error=1e-3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        bound = global_error_bound_noiseless(pb, prof(1, 1, a_max=0.0), 1000)
    assert math.isinf(bound)


def test_overflow_reports_infinity_before_the_truncation_term():
    # dt**(p+1) would overflow as well; the growth overflow decides first
    pb = ProblemBounds(lip_state=50.0, lip_time=1.0, field_bound=1.0, horizon=1e30, target_error=1e-3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        bound = global_error_bound_noiseless(pb, prof(10, 16), 10)
    assert math.isinf(bound)


def test_overflowing_truncation_term_reports_infinity():
    # lip_time**4 = 1e400 raised an OverflowError; now the bound is inf with
    # the warning an overflowing growth factor gets
    pb = ProblemBounds(lip_state=0.5, lip_time=1e100, field_bound=1.0, horizon=5.0, target_error=1e-3)
    with pytest.raises(OverflowError):
        lte_bound(pb.horizon / 100, prof(4, 4), pb.lip_time, pb.field_bound)
    for delta in (0.0, 1e-3):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert global_error_bound_noisy(pb, prof(4, 4), 100, delta) == math.inf


@pytest.mark.parametrize("order, stages", [(1, 1), (4, 4)])
def test_bound_where_f_underflows_to_0_is_its_limit(order, stages):
    # F = b_max * s * lip_state * T / n underflows to 0 and growth / F was 0 / 0
    pb = ProblemBounds(lip_state=5e-324, lip_time=1.0, field_bound=1.0, horizon=1.0, target_error=1e-3)
    near = dataclasses.replace(pb, lip_state=1e-300)
    p = prof(order, stages)
    assert f_factor(100, p, pb.lip_state, pb.horizon) == 0.0 < f_factor(100, p, near.lip_state, near.horizon)
    for delta in (0.0, 1e-3):
        limit = global_error_bound_noisy(pb, p, 100, delta)
        assert limit == pytest.approx(global_error_bound_noisy(near, p, 100, delta), rel=1e-12)


def test_bound_rejects_negative_delta(classical):
    with pytest.raises(ValueError):
        global_error_bound_noisy(classical.pb, prof(1, 1, a_max=0.0), 10, -1e-6)


# -- properties of the closed forms against the exact bound --------------------


@st.composite
def planned_problems(draw):
    """Constants drawn as the dimensionless groups a*L*T and lip_time*T (as in
    the seeded grid of test_budget.py), with a_max == b_max, and a step count
    at or above the closed-form noisy count."""
    log10 = lambda lo, hi: 10.0 ** draw(st.floats(lo, hi))  # noqa: E731
    p = draw(st.integers(1, 10))
    lip_state, ab, growth, time_scale = log10(-1, 1), log10(-0.5, 0.5), log10(-1.3, 0.6), log10(0, 1.5)
    horizon = growth / (ab * lip_state)
    pb = ProblemBounds(
        lip_state=lip_state,
        lip_time=time_scale / horizon,
        field_bound=log10(0, 2),
        horizon=horizon,
        target_error=log10(-4, -2),
    )
    prof = MethodProfile(order=p, stages=min_stages(p), a_max=ab, b_max=ab, error_const=log10(-0.3, 1.3))
    n_steps = min_steps_noisy(pb, prof) * draw(st.floats(1.0, 8.0))
    assume(n_steps >= 1.0)
    return pb, prof, n_steps


@settings(deadline=None)
@given(planned_problems(), st.floats(-3.0, 9.0))
def test_min_shots_recovers_target(problem, log_sigma):
    pb, prof, n_steps = problem
    sigma = 10.0**log_sigma
    delta = sigma / math.sqrt(min_shots(pb, prof, sigma, n_steps))
    assert global_error_bound_noisy(pb, prof, n_steps, delta) == pytest.approx(pb.target_error, rel=1e-9)


@settings(deadline=None)
@given(planned_problems(), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_noisy_bound_grows_with_delta(problem, d1, d2):
    # deltas in units of the one that spends the target's noise share, so the
    # noise term is never lost to rounding against the truncation term
    pb, prof, n_steps = problem
    unit = 1.0 / math.sqrt(min_shots(pb, prof, 1.0, n_steps))
    low, high = sorted((d1, d2))
    bound_low = global_error_bound_noisy(pb, prof, n_steps, low * unit)
    bound_high = global_error_bound_noisy(pb, prof, n_steps, high * unit)
    assert bound_low < bound_high if high - low > 1e-9 else bound_low <= bound_high


@settings(deadline=None)
@given(planned_problems())
def test_noisy_step_count_is_noiseless_at_split_target(problem):
    pb, prof, _ = problem
    split = dataclasses.replace(pb, target_error=pb.target_error / (2 * prof.order + 1))
    assert min_steps_noisy(pb, prof) == pytest.approx(min_steps_noiseless(split, prof), rel=1e-12)

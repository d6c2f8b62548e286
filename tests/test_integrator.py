import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkbudget._streams import KeyedStreams
from rkbudget.integrator import (
    DELTA_RANGE,
    NOISE_MODES,
    DegenerateSlopeError,
    EvaluationOracle,
    NoiseSpec,
    StepFailureError,
    Trajectory,
    _error_norm,
    empirical_order,
    integrate,
    rk_step,
    trajectory_to_csv,
)
from rkbudget.scenarios import AnalyticProblem, exp_ode
from rkbudget.tableaux import BUILTIN_METHODS, ButcherTableau, builtin_tableau


def half_field(tau, y):
    return 0.5 * y


def test_euler_single_step():
    y = rk_step(builtin_tableau("euler"), EvaluationOracle(half_field), 0.0, np.array([1.0]), 0.1)
    assert y[0] == pytest.approx(1.05, abs=0.0)


def test_rk4_single_step_hand_value():
    # stage recursion: k1=0.5, k2=0.625, k3=0.65625, k4=0.828125
    y = rk_step(builtin_tableau("rk4"), EvaluationOracle(half_field), 0.0, np.array([1.0]), 1.0)
    assert y[0] == pytest.approx(1.6484375, abs=0.0)
    assert abs(y[0] - math.exp(0.5)) < 4e-4


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_zero_field_fixed_point(name):
    y0 = np.array([2.0, -3.0])
    y = rk_step(builtin_tableau(name), EvaluationOracle(lambda tau, y: np.zeros_like(y)), 0.0, y0, 0.5)
    np.testing.assert_array_equal(y, y0)


def test_euler_compounding():
    traj = integrate(builtin_tableau("euler"), EvaluationOracle(half_field), np.array([1.0]), 0.0, 5.0, 10)
    assert traj.final[0] == pytest.approx(1.25**10, rel=1e-15)


def test_single_step_integration_equals_rk_step():
    t = builtin_tableau("kutta3")
    traj = integrate(t, EvaluationOracle(half_field), np.array([1.0]), 0.0, 2.0, 1)
    direct = rk_step(t, EvaluationOracle(half_field), 0.0, np.array([1.0]), 2.0)
    np.testing.assert_array_equal(traj.final, direct)


def test_rk4_accuracy_at_64_steps():
    traj = integrate(builtin_tableau("rk4"), EvaluationOracle(half_field), np.array([1.0]), 0.0, 5.0, 64)
    assert abs(traj.final[0] - math.exp(2.5)) < 1e-6


def test_trajectory_grid_uniform():
    traj = integrate(builtin_tableau("euler"), EvaluationOracle(half_field), np.array([1.0]), 1.0, 5.0, 7)
    assert traj.times[0] == 1.0
    assert traj.times[-1] == pytest.approx(6.0, rel=1e-15)
    spacings = np.diff(traj.times)
    np.testing.assert_allclose(spacings, spacings[0], rtol=1e-12)
    assert traj.n_steps == 7


def test_linearity_in_initial_state():
    t = builtin_tableau("heun2")
    base = integrate(t, EvaluationOracle(half_field), np.array([1.0]), 0.0, 3.0, 20)
    scaled = integrate(t, EvaluationOracle(half_field), np.array([2.5]), 0.0, 3.0, 20)
    np.testing.assert_allclose(scaled.states, 2.5 * base.states, rtol=1e-13)


def test_one_oracle_call_per_stage():
    for name in sorted(BUILTIN_METHODS):
        oracle = EvaluationOracle(half_field)
        rk_step(builtin_tableau(name), oracle, 0.0, np.array([1.0]), 0.1)
        assert oracle.evaluations == builtin_tableau(name).stages


def test_noiseless_runs_are_identical():
    t = builtin_tableau("rk4")
    a = integrate(t, EvaluationOracle(half_field), np.array([1.0]), 0.0, 5.0, 32)
    b = integrate(t, EvaluationOracle(half_field), np.array([1.0]), 0.0, 5.0, 32)
    assert np.array_equal(a.states, b.states)


def test_seeded_noise_is_reproducible():
    t = builtin_tableau("rk4")
    spec = NoiseSpec.from_delta(1e-3, mode="gaussian")
    a = integrate(t, EvaluationOracle(half_field, noise=spec, rng=123), np.array([1.0]), 0.0, 5.0, 32)
    b = integrate(t, EvaluationOracle(half_field, noise=spec, rng=123), np.array([1.0]), 0.0, 5.0, 32)
    c = integrate(t, EvaluationOracle(half_field, noise=spec, rng=124), np.array([1.0]), 0.0, 5.0, 32)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_clipped_mode_respects_bound_exactly():
    delta = 1e-2
    spec = NoiseSpec.from_delta(delta, mode="clipped-gaussian")
    oracle = EvaluationOracle(lambda tau, y: np.zeros(3), noise=spec, rng=7)
    for _ in range(2000):
        pert = oracle(0.0, np.zeros(3))
        assert np.linalg.norm(pert) <= delta * (1 + 1e-15)


def test_gaussian_mode_quantile_bound():
    # perturbation norms must satisfy the bound at the (1 - eta) quantile
    delta, eta = 1e-2, 0.05
    spec = NoiseSpec(delta, eta, "gaussian")
    oracle = EvaluationOracle(lambda tau, y: np.zeros(4), noise=spec, rng=11)
    norms = np.array([np.linalg.norm(oracle(0.0, np.zeros(4))) for _ in range(20000)])
    assert np.quantile(norms, 1.0 - eta) <= delta


def per_evaluation_draws(spec, rng, calls, dim):
    """Reference: draw, clip and count one evaluation at a time."""
    delta = spec.delta
    scale = delta * math.sqrt(spec.eta / dim)
    perts, exceeded = [], 0
    for _ in range(calls):
        pert = rng.normal(0.0, scale, size=dim)
        norm = float(np.linalg.norm(pert))
        if norm > delta:
            exceeded += 1
            if spec.mode == "clipped-gaussian":
                pert *= delta / norm
        perts.append(pert)
    return np.array(perts), exceeded


@pytest.mark.parametrize("mode", NOISE_MODES)
@pytest.mark.parametrize("dim", [1, 3])
def test_block_draw_equals_sequential_oracle_draws(dim, mode):
    # eta = 0.5 makes 11-16% of the draws exceed delta, so clipping is exercised
    spec = NoiseSpec(1e-2, 0.5, mode)
    oracle = EvaluationOracle(lambda tau, y: np.zeros(dim), noise=spec, rng=(9, 4))
    sequential = np.array([oracle(0.0, np.zeros(dim)) for _ in range(400)])
    reference, ref_exceeded = per_evaluation_draws(spec, np.random.default_rng((9, 4)), 400, dim)
    block, exceeded = spec.perturbations([np.random.default_rng((9, 4))], 400, dim)
    assert block.shape == (1, 400, dim)
    assert block[0].tobytes() == sequential.tobytes() == reference.tobytes()
    assert exceeded == oracle.delta_exceedances == ref_exceeded > 0


def test_block_draw_keeps_streams_apart():
    spec = NoiseSpec.from_delta(1e-3, eta=0.5)
    block, exceeded = spec.perturbations([np.random.default_rng((2, t)) for t in range(3)], 50, 2)
    for t in range(3):
        alone, alone_exceeded = spec.perturbations([np.random.default_rng((2, t))], 50, 2)
        assert block[t].tobytes() == alone[0].tobytes()
        exceeded -= alone_exceeded
    assert exceeded == 0


def test_block_draw_turns_a_negative_zero_draw_into_zero_as_normal_does():
    # From this PCG64 state the next output is 0x101: ziggurat index 1, sign
    # bit set and a zero mantissa, so standard_normal gives -0.0 and
    # normal(0.0, scale) gives 0.0 + scale * -0.0 = +0.0
    inc, mult = 1, 0x2360ED051FC65DA44385DF649FCCF645
    state = (0x101 - inc) * pow(mult, -1, 1 << 128) % (1 << 128)

    def rng():
        g = np.random.Generator(np.random.PCG64(0))
        g.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                 "has_uint32": 0, "uinteger": 0}
        return g

    assert math.copysign(1.0, rng().standard_normal()) == -1.0
    spec = NoiseSpec.from_delta(1e-3, mode="gaussian")
    block, _ = spec.perturbations([rng()], 3, 1)
    assert block.tobytes() == rng().normal(0.0, spec.delta * math.sqrt(spec.eta), (1, 3, 1)).tobytes()


def test_noise_rejects_zero_dimensional_field():
    oracle = EvaluationOracle(lambda tau, y: np.zeros(0), noise=NoiseSpec.from_delta(1e-3), rng=1)
    with pytest.raises(ValueError, match="zero-dimensional"):
        oracle(0.0, np.zeros(0))
    assert EvaluationOracle(lambda tau, y: np.zeros(0))(0.0, np.zeros(0)).shape == (0,)


def wavy_field(tau, y):
    return 0.5 * y - 0.1 * y**2 + math.sin(tau)


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_batch_rows_match_lone_trajectories(name):
    t = builtin_tableau(name)
    y0 = np.array([[1.0], [0.3], [-2.5], [0.7]])
    batch = integrate(t, EvaluationOracle(wavy_field), y0, 0.0, 2.0, 100)
    assert batch.states.shape == (101, 4, 1)
    for row in range(len(y0)):
        alone = integrate(t, EvaluationOracle(wavy_field), y0[row], 0.0, 2.0, 100)
        if name in ("euler", "heun2"):
            np.testing.assert_array_equal(batch.states[:, row], alone.states)
        else:
            # the stage contraction over a wider buffer may sum in another
            # BLAS order, which moves a few ulps over 100 steps
            np.testing.assert_allclose(batch.states[:, row], alone.states, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_state_and_batch_of_one_agree(name):
    # a lone state runs the batch code, so a (1, dim) batch gives its bits
    t = builtin_tableau(name)
    for y0 in (np.array([0.8]), np.array([1.0, -0.5, 2.0])):
        lone = integrate(t, EvaluationOracle(wavy_field), y0, 0.0, 3.0, 40)
        batch = integrate(t, EvaluationOracle(wavy_field), y0[None, :], 0.0, 3.0, 40)
        assert lone.states.shape == (41, y0.size)
        assert batch.states.shape == (41, 1, y0.size)
        assert batch.states.tobytes() == lone.states.tobytes()


def test_non_finite_row_in_batch_aborts_with_index():
    def exploding(tau, y):
        out = half_field(tau, y)
        if tau > 1.0:
            out[2] = np.nan
        return out

    with pytest.raises(StepFailureError) as excinfo:
        integrate(builtin_tableau("heun2"), EvaluationOracle(exploding), np.ones((4, 1)), 0.0, 5.0, 10)
    assert excinfo.value.step == 3  # step 3 starts at 1.0; its second stage sits at 1.5
    assert excinfo.value.stage == 2


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="delta must lie in"):
        NoiseSpec(0.0, 0.05, "gaussian")
    with pytest.raises(ValueError, match="eta must lie in"):
        NoiseSpec(1.0, 1.0, "gaussian")
    with pytest.raises(ValueError, match="mode must be one of"):
        NoiseSpec(1.0, 0.05, "uniform")
    assert NoiseSpec.from_delta(2.0) == NoiseSpec(2.0, 0.05, "clipped-gaussian")


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_noise_spec_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="delta must lie in"):
        NoiseSpec(delta, 0.05, "gaussian")


@pytest.mark.parametrize("delta", [1e-170, DELTA_RANGE[0] / 2, DELTA_RANGE[1] * 2, 1e300])
def test_noise_spec_rejects_a_delta_outside_the_exact_norm_range(delta):
    # squared draws underflow below the range and overflow above it, so the
    # exceedance counts and the clipping would go wrong
    message = r"delta must lie in \[1e-150, 1e\+150\]"
    with pytest.raises(ValueError, match=message):
        NoiseSpec.from_delta(delta)
    with pytest.raises(ValueError, match=message):
        NoiseSpec(delta, 0.05, "gaussian")


@pytest.mark.parametrize("delta", DELTA_RANGE, ids=["low-end", "high-end"])
def test_draw_norms_are_exact_at_both_ends_of_the_delta_range(delta):
    # the same 1000 x 400 draws exceed at either end as at delta = 1, and
    # clipping keeps every one of them within delta
    streams = KeyedStreams((20240817,), range(1000))
    _, unit_exceeded = NoiseSpec.from_delta(1.0).perturbations(streams, 400, 1)
    block, exceeded = NoiseSpec.from_delta(delta).perturbations(streams, 400, 1)
    assert exceeded == unit_exceeded > 0
    assert np.abs(block).max() <= delta * (1 + 1e-15)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_integrate_rejects_a_non_finite_or_non_positive_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        integrate(builtin_tableau("euler"), half_field, np.array([1.0]), 0.0, horizon, 10)


def test_non_finite_field_aborts_with_index():
    def exploding(tau, y):
        return np.full_like(y, np.nan) if tau > 1.0 else half_field(tau, y)

    with pytest.raises(StepFailureError) as excinfo:
        integrate(builtin_tableau("euler"), EvaluationOracle(exploding), np.array([1.0]), 0.0, 5.0, 10)
    assert excinfo.value.step == 4  # first step whose stage time exceeds 1.0
    assert excinfo.value.stage == 1


def test_empirical_order_euler_and_rk4():
    problem = exp_ode()
    slope = empirical_order(builtin_tableau("euler"), problem, [64, 128, 256, 512, 1024], horizon=5.0)
    assert 0.85 <= slope <= 1.15
    slope = empirical_order(builtin_tableau("rk4"), problem, [16, 32, 64, 128, 256], horizon=5.0)
    assert 3.7 <= slope <= 4.3


def test_empirical_order_constant_field_degenerate():
    problem = AnalyticProblem(
        field=lambda tau, y: np.array([2.0]),
        exact=lambda tau: np.array([1.0 + 2.0 * tau]),
        y0=np.array([1.0]),
    )
    with pytest.raises(DegenerateSlopeError):
        empirical_order(builtin_tableau("heun2"), problem, [8, 16, 32, 64], horizon=1.0)


def test_empirical_order_measures_past_the_square_overflow():
    # exp(400) ~ 5.2e173: its square overflowed, so the floor read inf and
    # every final error sat "at or below" it
    slope = empirical_order(builtin_tableau("rk4"), exp_ode(), [32, 64, 128, 256, 512], horizon=800.0)
    assert math.isfinite(slope)


@pytest.mark.parametrize("shape", [(1,), (7,), (5, 7), (3, 1)])
def test_error_norm_is_numpys_norm_bitwise_where_that_is_finite(shape):
    x = np.random.default_rng(3).normal(size=shape) * 1e150
    expected = np.linalg.norm(x) if x.ndim == 1 else np.linalg.norm(x, axis=-1)
    assert np.array_equal(np.asarray(_error_norm(x)).view(np.uint64), np.asarray(expected).view(np.uint64))


def test_error_norm_of_a_finite_state_past_the_square_overflow_is_finite():
    big = np.array([1e200, -1e200, 3e199])
    batch = np.stack([big, [1.0, 2.0, 2.0], [math.inf, 0.0, 0.0], [math.nan, 1.0, 0.0], [1.5e308, 1.5e308, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = _error_norm(big)
        rows = _error_norm(batch)
    assert single == pytest.approx(math.sqrt(2.09) * 1e200, rel=1e-15)
    assert rows[0] == single and rows[1] == 3.0
    assert rows[2] == rows[4] == math.inf  # an infinite entry, and a norm past the float range
    assert math.isnan(rows[3])


def test_empirical_order_needs_four_points():
    with pytest.raises(ValueError):
        empirical_order(builtin_tableau("euler"), exp_ode(), [8, 16, 32], horizon=1.0)


def test_empirical_order_needs_four_distinct_step_counts():
    with pytest.raises(ValueError, match="4 distinct step counts"):
        empirical_order(builtin_tableau("euler"), exp_ode(), [64, 64, 64, 64], horizon=5.0)
    with pytest.raises(ValueError, match="4 distinct step counts"):
        empirical_order(builtin_tableau("euler"), exp_ode(), [32, 64, 64, 128], horizon=5.0)


def test_trajectory_csv_format():
    traj = integrate(builtin_tableau("euler"), EvaluationOracle(half_field), np.array([1.0, 2.0]), 0.0, 1.0, 2)
    text = trajectory_to_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "step,tau,y_0,y_1"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == 1.0
    assert float(first[3]) == 2.0


def test_trajectory_csv_is_byte_identical():
    # pinned bytes of an rk4 trajectory whose first component starts at -0.0
    def field(tau, y):
        return np.stack([-0.0 * np.ones_like(y[..., 0]), -y[..., 1]], axis=-1)

    traj = integrate(builtin_tableau("rk4"), field, np.array([-0.0, 1.0]), 0.0, 1.0, 8)
    text = trajectory_to_csv(traj)
    assert text.splitlines()[1] == "0,0.0000000000000000e+00,-0.0000000000000000e+00,1.0000000000000000e+00"
    assert hashlib.sha256(text.encode()).hexdigest() == "5d94b8972037dac8661e2c76584f1b6d30a53b2c19dbe08b88224a8894c53e43"


def test_trajectory_csv_rejects_a_batch():
    traj = integrate(builtin_tableau("euler"), EvaluationOracle(half_field), np.ones((3, 2)), 0.0, 1.0, 2)
    with pytest.raises(ValueError, match="one trajectory"):
        trajectory_to_csv(traj)
    row = trajectory_to_csv(Trajectory(times=traj.times, states=traj.states[:, 1]))
    assert row.splitlines()[0] == "step,tau,y_0,y_1"


# --------------------------------------------------------------------------
# The stepping loop against a frozen copy of its earlier, slower form
# --------------------------------------------------------------------------


def reference_rk_step(tableau, oracle, tau_n, y_n, dt):
    """Frozen copy of ``rk_step`` as it was before the tableau owned its stage
    rows: ``atleast_1d`` input, ``a[i, :i]`` and ``c[i] * dt`` taken at every
    stage, and an ``np.isfinite(k).all()`` check before the stage is stored."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    y_n = np.atleast_1d(np.asarray(y_n, dtype=float))
    stages = tableau.stages
    ks = np.empty((stages,) + y_n.shape)
    flat = ks.reshape(stages, -1)
    for i in range(stages):
        y_stage = y_n if i == 0 else y_n + dt * (tableau.a[i, :i] @ flat[:i]).reshape(y_n.shape)
        k = np.asarray(oracle(tau_n + tableau.c[i] * dt, y_stage), dtype=float)
        if not np.isfinite(k).all():
            raise StepFailureError(f"non-finite field value at stage {i + 1}", stage=i + 1)
        ks[i] = k
    return y_n + dt * (tableau.b @ flat).reshape(y_n.shape)


def reference_integrate(tableau, oracle, y0, tau0, horizon, n_steps):
    """Frozen copy of ``integrate`` from the same revision as :func:`reference_rk_step`."""
    dt = horizon / n_steps
    times = np.linspace(tau0, tau0 + horizon, n_steps + 1)
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    states = np.empty((n_steps + 1,) + y.shape)
    states[0] = y
    for n in range(n_steps):
        try:
            y = reference_rk_step(tableau, oracle, times[n], y, dt)
        except StepFailureError as exc:
            raise StepFailureError(f"integration aborted at step {n + 1}: {exc}", step=n + 1, stage=exc.stage) from exc
        states[n + 1] = y
    return Trajectory(times=times, states=states)


HEAT_POINTS = 401


def heat_field(tau, u):
    # method-of-lines second differences on [-5, 5] with zero boundary data
    dx = 10.0 / (HEAT_POINTS - 1)
    lap = -2.0 * u
    lap[..., 1:] += u[..., :-1]
    lap[..., :-1] += u[..., 1:]
    return (0.5 / (dx * dx)) * lap


STEPPED_PROBLEMS = {
    # name: (field, y0, tau0, horizon)
    "dim1": (wavy_field, np.array([0.8]), 0.3, 2.0),
    "dim3": (wavy_field, np.array([1.0, -0.5, 2.0]), 0.3, 2.0),
    "batch5x2": (wavy_field, np.linspace(-1.0, 1.5, 10).reshape(5, 2), 0.3, 2.0),
    "heat401": (heat_field, np.exp(-np.linspace(-5.0, 5.0, HEAT_POINTS) ** 2), 0.0, 1e-3),
}


@pytest.mark.parametrize("n_steps", [1, 7, 1000])
@pytest.mark.parametrize("problem", sorted(STEPPED_PROBLEMS))
@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_stepping_is_bitwise_the_frozen_reference(name, problem, n_steps):
    field, y0, tau0, horizon = STEPPED_PROBLEMS[problem]
    t = builtin_tableau(name)
    ref = reference_integrate(t, field, y0, tau0, horizon, n_steps)
    got = integrate(t, field, y0, tau0, horizon, n_steps)
    assert got.states.shape == ref.states.shape == (n_steps + 1,) + y0.shape
    assert got.states.tobytes() == ref.states.tobytes()
    assert got.times.tobytes() == ref.times.tobytes()


@st.composite
def explicit_tableaux(draw):
    s = draw(st.integers(1, 6))
    entries = st.floats(-2.0, 2.0, allow_subnormal=True)
    a = np.tril(draw(arrays(np.float64, (s, s), elements=entries)), k=-1)
    b = draw(arrays(np.float64, s, elements=entries))
    c = draw(arrays(np.float64, s, elements=entries))
    return ButcherTableau(a=a, b=b, c=c, order=1)


def calm_field(tau, y):
    return -0.7 * y + math.cos(tau)


@settings(deadline=None)
@given(
    explicit_tableaux(),
    st.sampled_from([(1,), (3,), (5, 2)]),
    st.integers(1, 12),
    st.floats(-3.0, 3.0),
)
def test_random_tableaux_step_bitwise_like_the_frozen_reference(tableau, shape, n_steps, tau0):
    y0 = np.linspace(-1.0, 2.0, math.prod(shape)).reshape(shape)
    ref = reference_integrate(tableau, calm_field, y0, tau0, 1.5, n_steps)
    got = integrate(tableau, calm_field, y0, tau0, 1.5, n_steps)
    assert got.states.tobytes() == ref.states.tobytes()
    if y0.ndim == 1:  # a batch of one steps to the lone state's bits
        batch = integrate(tableau, calm_field, y0[None, :], tau0, 1.5, n_steps)
        assert batch.states.tobytes() == got.states.tobytes()


def poisoned_field(bad, at_call, row=None):
    """``wavy_field`` whose ``at_call``-th evaluation holds ``bad`` (in one batch
    row if ``row`` is given); it asserts that every state it receives is finite."""
    calls = []

    def field(tau, y):
        assert np.isfinite(y).all(), f"call {len(calls) + 1} received a non-finite state"
        calls.append(tau)
        out = wavy_field(tau, y)
        if len(calls) == at_call:
            if row is None:
                out[-1] = bad
            else:
                out[row, -1] = bad
        return out

    return field, calls


BAD_VALUES = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", BAD_VALUES, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_a_non_finite_stage_stops_the_step_at_that_stage(stage, bad):
    # step 2 of rk4: calls 5-8 are its stages
    field, calls = poisoned_field(bad, 4 + stage)
    with warnings.catch_warnings(), pytest.raises(StepFailureError) as excinfo:
        warnings.simplefilter("error")  # the check itself raises no RuntimeWarning
        integrate(builtin_tableau("rk4"), field, np.array([1.0, 0.5]), 0.0, 1.0, 5)
    assert (excinfo.value.step, excinfo.value.stage) == (2, stage)
    assert str(excinfo.value) == f"integration aborted at step 2: non-finite field value at stage {stage}"
    assert len(calls) == 4 + stage  # no later stage was evaluated


@pytest.mark.parametrize("bad", BAD_VALUES, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_a_non_finite_stage_in_one_batch_row_stops_the_batch(stage, bad):
    field, calls = poisoned_field(bad, stage, row=2)
    with warnings.catch_warnings(), pytest.raises(StepFailureError) as excinfo:
        warnings.simplefilter("error")
        integrate(builtin_tableau("rk4"), field, np.ones((4, 2)), 0.0, 1.0, 5)
    assert (excinfo.value.step, excinfo.value.stage) == (1, stage)
    assert len(calls) == stage


@pytest.mark.parametrize("bad", BAD_VALUES, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_step_failures_match_the_frozen_reference(name, bad):
    t = builtin_tableau(name)
    for at_call in range(1, 3 * t.stages + 1):
        failures = []
        for run in (reference_integrate, integrate):
            field, calls = poisoned_field(bad, at_call)
            with pytest.raises(StepFailureError) as excinfo:
                run(t, field, np.array([1.0, 0.5]), 0.0, 1.0, 5)
            failures.append((excinfo.value.step, excinfo.value.stage, str(excinfo.value), len(calls)))
        assert failures[0] == failures[1]


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_a_large_finite_stage_is_not_a_failure(name):
    def huge(tau, y):
        return np.full_like(y, 1e308)

    with np.errstate(over="ignore"):
        assert np.full(3, 1e308).sum() == math.inf  # a sum-based check would trip here
    t = builtin_tableau(name)
    y = rk_step(t, huge, 0.0, np.zeros(3), 1e-3)
    assert np.isfinite(y).all()
    assert y.tobytes() == reference_rk_step(t, huge, 0.0, np.zeros(3), 1e-3).tobytes()


@pytest.mark.parametrize("name", sorted(BUILTIN_METHODS))
def test_a_scalar_field_value_broadcasts_over_a_batch(name):
    def constant(tau, y):
        return 2.0

    t = builtin_tableau(name)
    got = integrate(t, constant, np.ones((3, 1)), 0.0, 1.0, 4)
    assert got.states.shape == (5, 3, 1)
    assert got.states.tobytes() == reference_integrate(t, constant, np.ones((3, 1)), 0.0, 1.0, 4).states.tobytes()
    np.testing.assert_allclose(got.final, 3.0, rtol=1e-15)


def test_integrate_steps_through_the_module_level_rk_step(monkeypatch):
    """``integrate`` makes exactly one call of ``integrator.rk_step`` per step.

    The benchmark's traced runs time the ``integrator.rk_step`` span by
    patching that module attribute (``bench/spans.py``, ROADMAP item 3); a
    stepping loop that bypassed it would leave the span empty.
    """
    from rkbudget import integrator

    calls = []
    step = integrator.rk_step

    def counting_rk_step(*args, **kwargs):
        calls.append(args[2])
        return step(*args, **kwargs)

    monkeypatch.setattr(integrator, "rk_step", counting_rk_step)
    traj = integrate(builtin_tableau("heun2"), half_field, np.array([1.0]), 0.0, 2.0, 13)
    assert len(calls) == 13
    assert calls == traj.times[:-1].tolist()


# --------------------------------------------------------------------------
# Bad stepping inputs are rejected up front with a precise ValueError
# --------------------------------------------------------------------------


def never_called(tau, y):
    raise AssertionError("the field must not be evaluated")


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_rk_step_rejects_a_non_finite_or_non_positive_dt(dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            rk_step(builtin_tableau("heun2"), never_called, 0.0, np.array([1.0]), dt)


@pytest.mark.parametrize("tau0", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_a_non_finite_tau0(tau0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="tau0 must be finite"):
            integrate(builtin_tableau("euler"), never_called, np.array([1.0]), tau0, 1.0, 10)


@pytest.mark.parametrize("n_steps", [2.5, 10.0, "10", None])
def test_integrate_rejects_a_fractional_or_non_integer_step_count(n_steps):
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        integrate(builtin_tableau("euler"), never_called, np.array([1.0]), 0.0, 1.0, n_steps)


def test_integrate_accepts_numpy_integer_step_counts():
    traj = integrate(builtin_tableau("euler"), half_field, np.array([1.0]), 0.0, 1.0, np.int64(4))
    assert traj.n_steps == 4


@pytest.mark.parametrize("bad", BAD_VALUES, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_integrate_rejects_a_non_finite_initial_state(shape, bad):
    y0 = np.ones(shape)
    y0.flat[-1] = bad
    with pytest.raises(ValueError, match="y0 must be finite"):
        integrate(builtin_tableau("rk4"), never_called, y0, 0.0, 1.0, 10)


def test_a_scalar_initial_state_is_one_component():
    traj = integrate(builtin_tableau("euler"), half_field, 1.0, 0.0, 1.0, 2)
    assert traj.states.shape == (3, 1)
    assert rk_step(builtin_tableau("euler"), half_field, 0.0, 1.0, 0.5).shape == (1,)

import hashlib
import math

import numpy as np
import pytest

from rkbudget.integrator import (
    NOISE_MODES,
    DegenerateSlopeError,
    EvaluationOracle,
    NoiseSpec,
    StepFailureError,
    Trajectory,
    empirical_order,
    integrate,
    rk_step,
    trajectory_to_csv,
)
from rkbudget.scenarios import AnalyticProblem, exp_ode
from rkbudget.tableaux import BUILTIN_METHODS, builtin_tableau


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
    spec = NoiseSpec(sigma=delta, eta=eta, n_shots=1, mode="gaussian")
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
    spec = NoiseSpec(sigma=1e-2, eta=0.5, mode=mode)
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
    t = builtin_tableau(name)
    y0 = np.array([1.0, -0.5, 2.0])
    lone = integrate(t, EvaluationOracle(wavy_field), y0, 0.0, 3.0, 40)
    batch = integrate(t, EvaluationOracle(wavy_field), y0[None, :], 0.0, 3.0, 40)
    assert lone.states.shape == (41, 3)
    assert batch.states.shape == (41, 1, 3)
    np.testing.assert_array_equal(batch.states[:, 0], lone.states)


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
    with pytest.raises(ValueError):
        NoiseSpec(sigma=0.0, eta=0.05)
    with pytest.raises(ValueError):
        NoiseSpec(sigma=1.0, eta=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(sigma=1.0, eta=0.05, n_shots=0)
    with pytest.raises(ValueError):
        NoiseSpec(sigma=1.0, eta=0.05, mode="uniform")
    spec = NoiseSpec(sigma=6.0, eta=0.5, n_shots=9)
    assert spec.delta == pytest.approx(2.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_noise_spec_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        NoiseSpec(sigma=sigma, eta=0.05)


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

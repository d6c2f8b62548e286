import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from rkbudget import harness
from rkbudget.bounds import global_error_bound_noisy
from rkbudget.harness import (
    report_to_json,
    shots_to_delta,
    validate_noiseless_bound,
    validate_noisy_bound,
)
from rkbudget.integrator import EvaluationOracle, NoiseSpec, integrate
from rkbudget.scenarios import exp_ode
from rkbudget.tableaux import builtin_tableau, profile


def test_shots_to_delta_reference_value():
    # 3.4e8 / sqrt(7.03e21), straight scalar arithmetic
    assert shots_to_delta(3.4e8, 7.03e21) == pytest.approx(4.0551e-3, rel=1e-4)


def test_delta_of_sigma_squared_shots():
    assert shots_to_delta(2.5, 2.5**2) == pytest.approx(1.0, rel=1e-14)


def test_shot_delta_roundtrip():
    for sigma, shots in ((3.4e8, 7.03e21), (1.0, 100.0), (0.3, 7.0)):
        delta = shots_to_delta(sigma, shots)
        assert shots_to_delta(sigma, (sigma / delta) ** 2) == pytest.approx(delta, rel=1e-12)
    with pytest.raises(ValueError):
        shots_to_delta(0.0, 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_shot_delta_conversions_reject_non_finite_inputs(bad):
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        shots_to_delta(bad, 4.0)
    with pytest.raises(ValueError, match="n_shots must be finite and positive"):
        shots_to_delta(1.0, bad)


def test_noiseless_dominance_euler(classical):
    report = validate_noiseless_bound(classical, builtin_tableau("euler"), [1000])
    assert report.trials == 1
    assert report.violations == 0
    assert report.worst_margin <= 1.0


def test_noiseless_dominance_all_step_counts(classical):
    report = validate_noiseless_bound(classical, builtin_tableau("rk4"), [1, 10, 100])
    assert report.violations == 0
    # the bound is one-sided; closeness is not required, only dominance
    assert 0.0 < report.worst_margin <= 1.0


def test_noiseless_dominance_single_step(classical):
    for name in ("euler", "heun2", "kutta3", "rk4"):
        report = validate_noiseless_bound(classical, builtin_tableau(name), [1])
        assert report.violations == 0


@pytest.mark.parametrize("horizon, violations, margin", [(5.0, 1, math.inf), (1e-300, 0, 0.0)])
def test_noiseless_bound_of_0_is_violated_by_any_error(classical, horizon, violations, margin):
    # M * K underflows, so the bound is 0; at T=1e-300 the integration is exact too
    pb = replace(classical.pb, field_bound=1e-300, horizon=horizon)
    report = validate_noiseless_bound(replace(classical, pb=pb, error_const=1e-300), builtin_tableau("rk4"), [100])
    assert (report.violations, report.worst_margin) == (violations, margin)


def test_noisy_bound_of_0_met_exactly_has_margin_0(classical):
    # at T=1e-322 the noisy bound underflows to 0, and every step leaves y = 1 = exp(T/2)
    sc = replace(classical, pb=replace(classical.pb, horizon=1e-322))
    report = validate_noisy_bound(sc, builtin_tableau("euler"), n_steps=5, delta=1e-3, trials=2, seed=1)
    assert (report.violations, report.worst_margin) == (0, 0.0)


def test_noisy_dominance_clipped(classical):
    report = validate_noisy_bound(
        classical, builtin_tableau("euler"), n_steps=100, delta=1e-4, trials=100, seed=5
    )
    assert report.trials == 100
    assert report.violations == 0
    assert report.evaluations == 100 * 100  # one stage per step
    assert report.worst_margin <= 1.0


def test_noisy_campaign_rejects_a_zero_delta_as_noise_spec_does(classical, monkeypatch):
    # exact evaluations are validate_noiseless_bound's campaign; nothing is seeded or drawn
    def no_streams(*args):
        raise AssertionError("a campaign with delta 0 must not build the trial streams")

    with pytest.raises(ValueError) as expected:
        NoiseSpec(0.0, 0.05, "clipped-gaussian")
    monkeypatch.setattr(harness, "KeyedStreams", no_streams)
    with pytest.raises(ValueError) as raised:
        validate_noisy_bound(classical, builtin_tableau("rk4"), n_steps=50, delta=0.0, trials=10, seed=1)
    assert str(raised.value) == str(expected.value)
    assert "or be 0" not in str(raised.value)


def test_gaussian_exceedance_calibration(classical):
    eta = 0.05
    report = validate_noisy_bound(
        classical,
        builtin_tableau("euler"),
        n_steps=100,
        delta=1e-3,
        trials=200,
        seed=2,
        mode="gaussian",
        eta=eta,
    )
    allowance = eta + 3.0 * math.sqrt(eta * (1 - eta) / report.evaluations)
    assert report.exceedance_rate <= allowance


def test_campaign_reports_are_reproducible(classical):
    kwargs = dict(n_steps=60, delta=1e-3, trials=40, seed=11)
    a = validate_noisy_bound(classical, builtin_tableau("heun2"), **kwargs)
    b = validate_noisy_bound(classical, builtin_tableau("heun2"), **kwargs)
    assert a == b
    c = validate_noisy_bound(classical, builtin_tableau("heun2"), n_steps=60, delta=1e-3, trials=40, seed=12)
    assert a.worst_margin != c.worst_margin


def test_report_json_schema(classical):
    report = validate_noisy_bound(classical, builtin_tableau("euler"), n_steps=20, delta=1e-4, trials=15, seed=3)
    payload = json.loads(report_to_json(report))
    assert set(payload) == {
        "config",
        "trials",
        "violations",
        "violation_rate",
        "evaluations",
        "delta_exceedances",
        "exceedance_rate",
        "worst_margin",
        "seeds_sample",
    }
    assert payload["trials"] == 15
    assert payload["seeds_sample"] == [[3, t] for t in range(10)]
    short = validate_noisy_bound(classical, builtin_tableau("euler"), n_steps=20, delta=1e-4, trials=4, seed=3)
    assert json.loads(report_to_json(short))["seeds_sample"] == [[3, t] for t in range(4)]
    noiseless = validate_noiseless_bound(classical, builtin_tableau("euler"), [20])
    assert json.loads(report_to_json(noiseless))["seeds_sample"] == []
    assert payload["config"]["method"] == "euler"


def test_realized_over_bound_stays_below_one_across_grid(classical):
    # refining the grid never lets the realized error cross the bound
    for n in (1, 10, 100, 1000):
        report = validate_noiseless_bound(classical, builtin_tableau("euler"), [n])
        assert report.worst_margin <= 1.0


def per_trial_campaign(sc, tableau, n_steps, delta, trials, seed, mode, eta=0.05):
    """Reference: the campaign run one trial at a time through a per-call oracle."""
    problem = exp_ode()
    bound = global_error_bound_noisy(sc.pb, profile(tableau, sc.error_const), n_steps, delta)
    finals, evaluations, exceedances = [], 0, 0
    for trial in range(trials):
        noise = NoiseSpec.from_delta(delta, eta=eta, mode=mode)
        oracle = EvaluationOracle(problem.field, noise=noise, rng=(seed, trial))
        finals.append(integrate(tableau, oracle, problem.y0, 0.0, sc.pb.horizon, n_steps).final)
        evaluations += oracle.evaluations
        exceedances += oracle.delta_exceedances
    realized = np.array([float(np.linalg.norm(y - problem.exact(sc.pb.horizon))) for y in finals])
    return realized, bound, evaluations, exceedances, np.array(finals)


@pytest.mark.parametrize("mode", ["clipped-gaussian", "gaussian"])
@pytest.mark.parametrize("name", ["euler", "heun2", "kutta3", "rk4"])
def test_batched_campaign_matches_per_trial_runs(classical, name, mode):
    tableau = builtin_tableau(name)
    # eta = 0.5 makes about a sixth of the draws exceed delta
    report = validate_noisy_bound(classical, tableau, n_steps=50, delta=1e-2, trials=30, seed=8, mode=mode, eta=0.5)
    realized, bound, evaluations, exceedances, finals = per_trial_campaign(
        classical, tableau, 50, 1e-2, 30, 8, mode, eta=0.5
    )
    assert report.evaluations == evaluations == 30 * 50 * tableau.stages
    assert report.delta_exceedances == exceedances > 0
    assert report.violations == int(np.sum(realized > bound))
    if name in ("euler", "heun2"):
        assert report.worst_margin == max(0.0, *(realized / bound))
    else:
        # batch rows may move a few ulps of the final state (BLAS summation order)
        slack = 1e-13 * float(np.max(np.abs(finals))) / bound
        assert abs(report.worst_margin - max(realized / bound)) <= slack


def test_noise_block_must_be_used_up(classical, monkeypatch):
    def one_step_short(tableau, oracle, y0, tau0, horizon, n_steps):
        return integrate(tableau, oracle, y0, tau0, horizon, n_steps - 1)

    monkeypatch.setattr(harness, "integrate", one_step_short)
    with pytest.raises(RuntimeError, match="noise block"):
        validate_noisy_bound(classical, builtin_tableau("heun2"), n_steps=10, delta=1e-3, trials=3, seed=1)


def test_noise_block_must_not_be_overrun(classical, monkeypatch):
    def one_step_long(tableau, oracle, y0, tau0, horizon, n_steps):
        return integrate(tableau, oracle, y0, tau0, horizon, n_steps + 1)

    monkeypatch.setattr(harness, "integrate", one_step_long)
    with pytest.raises(RuntimeError, match="more than 20 field evaluations per trial, the noise block holds 20"):
        validate_noisy_bound(classical, builtin_tableau("heun2"), n_steps=10, delta=1e-3, trials=3, seed=1)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -1e-3])
def test_noisy_campaign_rejects_a_non_finite_or_negative_delta(classical, delta):
    with pytest.raises(ValueError, match=r"delta must lie in \[1e-150, 1e\+150\], .* nor overflow; got"):
        validate_noisy_bound(classical, builtin_tableau("euler"), n_steps=10, delta=delta, trials=3)


def test_noisy_campaign_rejects_negative_trials(classical):
    with pytest.raises(ValueError, match="trials must be non-negative"):
        validate_noisy_bound(classical, builtin_tableau("euler"), n_steps=10, delta=1e-3, trials=-5)
    empty = validate_noisy_bound(classical, builtin_tableau("euler"), n_steps=10, delta=1e-3, trials=0)
    assert (empty.trials, empty.evaluations, empty.worst_margin) == (0, 0, 0.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(eta=1.5), r"eta must lie in \(0, 1\), got 1.5"),
        (dict(eta=math.nan), r"eta must lie in \(0, 1\), got nan"),
        (dict(eta=0.0), r"eta must lie in \(0, 1\), got 0.0"),
        (dict(trials=-5), "trials must be non-negative, got -5"),
        (dict(mode="uniform"), "mode must be one of"),
    ],
    ids=["eta-1.5", "eta-nan", "eta-0", "trials-negative", "mode"],
)
# Named for the noiseless fallback at delta 0 that once followed these
# checks; only the noisy campaign takes these inputs.
@pytest.mark.parametrize("delta", [1e-3], ids=["noisy"])
def test_campaign_checks_its_inputs_before_the_noiseless_fallback(classical, delta, kwargs, message):
    with pytest.raises(ValueError, match=message):
        validate_noisy_bound(classical, builtin_tableau("euler"), n_steps=10, delta=delta, **kwargs)


def campaign(sc, tableau, n_steps, delta):
    """The noiseless campaign at ``delta`` 0, else a 3-trial noisy one."""
    if delta == 0.0:
        return validate_noiseless_bound(sc, tableau, [n_steps])
    return validate_noisy_bound(sc, tableau, n_steps=n_steps, delta=delta, trials=3)


@pytest.mark.parametrize("delta", [0.0, 1e-3], ids=["noiseless", "noisy"])
def test_campaign_rejects_a_fractional_step_count(classical, delta):
    with pytest.raises(ValueError, match=r"^n_steps must be an integer, got 10\.5$"):
        campaign(classical, builtin_tableau("rk4"), 10.5, delta)


def test_noiseless_campaign_rejects_a_fractional_step_count(classical):
    with pytest.raises(ValueError, match=r"^n_steps must be an integer, got 10\.5$"):
        validate_noiseless_bound(classical, builtin_tableau("rk4"), [10, 10.5])


@pytest.mark.parametrize("delta, steps", [(0.0, "[1]"), (1e-3, "1")], ids=["noiseless", "noisy"])
def test_campaign_stores_its_step_count_as_an_int(classical, delta, steps):
    report = campaign(classical, builtin_tableau("euler"), True, delta)
    assert json.dumps(report.config["n_steps"]) == steps  # not "true"


@pytest.mark.parametrize("delta", [1e-170, 1e300])
def test_noisy_campaign_rejects_a_delta_outside_the_exact_norm_range(classical, delta):
    with pytest.raises(ValueError, match=r"must lie in \[1e-150, 1e\+150\]"):
        validate_noisy_bound(classical, builtin_tableau("euler"), n_steps=10, delta=delta, trials=3)


@pytest.mark.parametrize(
    "seed, error, message",
    [(-1, ValueError, "expected non-negative integer"), (1.5, TypeError, "seed must be integer")],
)
def test_noisy_campaign_rejects_a_bad_seed_as_default_rng_does(classical, seed, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        validate_noisy_bound(classical, builtin_tableau("euler"), n_steps=10, delta=1e-3, trials=3, seed=seed)


def test_concurrent_campaigns_give_the_sequential_reports(classical):
    # each call builds its own generator, so campaigns on several threads at
    # once draw their own streams
    configs = [("euler", "clipped-gaussian", 3), ("rk4", "gaussian", 4), ("heun2", "clipped-gaussian", 2**32 + 1)]

    def run(config):
        name, mode, seed = config
        return validate_noisy_bound(classical, builtin_tableau(name), 40, 1e-3, trials=60, seed=seed, mode=mode)

    sequential = [run(config) for config in configs]
    workers = 2 * len(configs)
    barrier = threading.Barrier(workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            jobs = [configs[k % len(configs)] for k in range(workers)]
            futures = [pool.submit(lambda c=c: (barrier.wait(timeout=60), run(c))[1]) for c in jobs]
            reports = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert reports == sequential * 2


def poisson_interval(mean, alpha=1e-9):
    """Central interval ``[lo, hi]`` holding a Poisson(mean) count with probability >= 1 - alpha."""
    pmf, below, k, lo = math.exp(-mean), 0.0, 0, None
    while True:
        if lo is None and below + pmf > alpha / 2:
            lo = k  # P(X < lo) <= alpha / 2
        below += pmf
        if 1.0 - below <= alpha / 2:
            return lo, k  # P(X > k) <= alpha / 2
        k += 1
        pmf *= mean / k


GAUSSIAN_TAIL = math.erfc(math.sqrt(1.0 / (2.0 * 0.05)))  # P(|pert| > delta) at d = 1, eta = 0.05


def test_gaussian_exceedances_match_exact_tail(classical):
    assert GAUSSIAN_TAIL == pytest.approx(7.74e-6, rel=1e-3)
    report = validate_noisy_bound(
        classical, builtin_tableau("euler"), n_steps=100, delta=1e-3, trials=10_000, seed=4, mode="gaussian", eta=0.05
    )
    assert report.evaluations == 1_000_000
    # the expected count is 7.7, so lo is 0: at this size the check detects
    # excess exceedances (a scale too large), not a shortfall
    lo, hi = poisson_interval(GAUSSIAN_TAIL * report.evaluations)
    assert lo <= report.delta_exceedances <= hi


def test_exact_tail_check_catches_doubled_noise_scale(classical):
    # eta = 0.2 draws at sqrt(0.2 / 0.05) = 2 times the eta = 0.05 scale against
    # the same delta, so the exceedance rate rises to erfc(sqrt(1 / 0.4)) ~ 0.025
    report = validate_noisy_bound(
        classical, builtin_tableau("euler"), n_steps=100, delta=1e-3, trials=1000, seed=4, mode="gaussian", eta=0.2
    )
    lo, hi = poisson_interval(GAUSSIAN_TAIL * report.evaluations)
    assert report.exceedance_rate == pytest.approx(math.erfc(math.sqrt(1.0 / 0.4)), rel=0.05)
    assert not lo <= report.delta_exceedances <= hi

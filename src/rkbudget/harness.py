"""Empirical validation campaigns: do realized errors respect the bounds?

Campaigns integrate the benchmark exponential ODE with a concrete tableau,
with or without injected noise, and compare the realized final-time error
against the corresponding closed-form bound.  In clipped noise mode every
perturbation satisfies the norm bound deterministically, so any violation
signals an implementation defect; in plain Gaussian mode the per-evaluation
exceedance rate itself is the quantity under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import global_error_bound_noiseless, global_error_bound_noisy
from .formats import json_text
from ._streams import KeyedStreams, _words
from .integrator import NOISE_MODES, NoiseSpec, integrate
from .scenarios import AnalyticProblem, Scenario, exp_ode
from .tableaux import ButcherTableau, profile

__all__ = [
    "CampaignReport",
    "validate_noiseless_bound",
    "validate_noisy_bound",
    "shots_to_delta",
    "delta_to_shots",
    "report_record",
    "report_to_json",
]


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of a validation campaign, reproducible from config + seed."""

    config: dict
    trials: int
    violations: int
    evaluations: int = 0
    delta_exceedances: int = 0
    worst_margin: float = 0.0  # max realized/bound over the campaign

    def __post_init__(self):
        if self.violations > self.trials:
            raise ValueError("violations cannot exceed trials")

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials if self.trials else 0.0

    @property
    def exceedance_rate(self) -> float:
        return self.delta_exceedances / self.evaluations if self.evaluations else 0.0


def validate_noiseless_bound(
    sc: Scenario,
    tableau: ButcherTableau,
    n_steps_list: Iterable[int],
    problem: AnalyticProblem | None = None,
) -> CampaignReport:
    """Check bound dominance for exact evaluations at several step counts.

    Integration is deterministic here, so each step count either holds or
    fails outright.
    """
    problem = problem if problem is not None else exp_ode()
    prof = profile(tableau, sc.error_const)
    reference = problem.exact(sc.pb.horizon)
    violations = 0
    worst = 0.0
    n_steps_list = [int(n) for n in n_steps_list]
    for n in n_steps_list:
        traj = integrate(tableau, problem.field, problem.y0, 0.0, sc.pb.horizon, n)
        realized = float(np.linalg.norm(traj.final - reference))
        bound = global_error_bound_noiseless(sc.pb, prof, n)
        # a bound that underflows to 0 is violated by any nonzero error
        worst = max(worst, realized / bound if bound else math.inf if realized else 0.0)
        violations += realized > bound
    config = {
        "campaign": "noiseless-dominance",
        "scenario": sc.name,
        "method": tableau.name,
        "n_steps": n_steps_list,
    }
    return CampaignReport(
        config=config,
        trials=len(n_steps_list),
        violations=violations,
        evaluations=sum(n_steps_list) * tableau.stages,
        worst_margin=worst,
    )


def validate_noisy_bound(
    sc: Scenario,
    tableau: ButcherTableau,
    n_steps: int,
    delta: float,
    trials: int = 1000,
    seed: int = 0,
    mode: str = "clipped-gaussian",
    eta: float = 0.05,
    problem: AnalyticProblem | None = None,
) -> CampaignReport:
    """Run seeded noisy integrations and count bound violations.

    ``delta == 0`` falls back to a single noiseless check, after the same
    checks of ``trials``, ``eta``, ``mode`` and ``seed``.  Trial ``t`` draws
    all of its perturbations up front from the stream
    ``np.random.default_rng((seed, t))``, so reports do not depend on how
    trials are scheduled; the trials are then stepped together as one
    batch, which the problem's field must accept.  The streams are
    unchanged, but built for all trials in one pass by
    :class:`~rkbudget._streams.KeyedStreams` instead of one ``default_rng``
    per trial; ``tests/test_streams.py`` holds its states and draws to
    ``default_rng`` bit for bit.
    """
    if not 0.0 <= delta < math.inf:  # NaN too
        raise ValueError(f"delta must be finite and non-negative, got {delta}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if not 0.0 < eta < 1.0:  # NaN too
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if mode not in NOISE_MODES:
        raise ValueError(f"mode must be one of {NOISE_MODES}, got {mode!r}")
    _words(seed)  # the streams' own seed check, without building them
    if delta == 0.0:
        return validate_noiseless_bound(sc, tableau, [n_steps], problem=problem)
    noise = NoiseSpec.from_delta(delta, eta=eta, mode=mode)
    problem = problem if problem is not None else exp_ode()
    prof = profile(tableau, sc.error_const)
    reference = problem.exact(sc.pb.horizon)
    bound = global_error_bound_noisy(sc.pb, prof, n_steps, delta)
    y0 = np.atleast_1d(np.asarray(problem.y0, dtype=float))
    streams = KeyedStreams((seed,), range(trials))
    block, exceedances = noise.perturbations(streams, n_steps * tableau.stages, y0.size)
    calls = 0

    def noisy_field(tau, y):
        nonlocal calls
        value = problem.field(tau, y) + block[:, calls]
        calls += 1
        return value

    traj = integrate(tableau, noisy_field, np.tile(y0, (trials, 1)), 0.0, sc.pb.horizon, n_steps)
    if calls != block.shape[1]:
        raise RuntimeError(f"stepping made {calls} field evaluations per trial, the noise block holds {block.shape[1]}")
    realized = np.linalg.norm(traj.final - reference, axis=-1)
    config = {
        "campaign": "noisy-dominance",
        "scenario": sc.name,
        "method": tableau.name,
        "n_steps": n_steps,
        "delta": delta,
        "mode": mode,
        "eta": eta,
        "seed": seed,
    }
    return CampaignReport(
        config=config,
        trials=trials,
        violations=int(np.count_nonzero(realized > bound)),
        evaluations=calls * trials,
        delta_exceedances=exceedances,
        worst_margin=float(np.max(realized / bound, initial=0.0)),
    )


def shots_to_delta(sigma: float, n_shots: float) -> float:
    """Per-evaluation noise bound implied by a shot count: ``sigma / sqrt(n_shots)``."""
    if not 0.0 < sigma < math.inf:  # NaN too
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if not 0.0 < n_shots < math.inf:
        raise ValueError(f"n_shots must be finite and positive, got {n_shots}")
    return sigma / math.sqrt(n_shots)


def delta_to_shots(sigma: float, delta: float) -> float:
    """Shot count needed for a target noise bound: ``(sigma / delta)**2``."""
    if not 0.0 < sigma < math.inf:  # NaN too
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")
    return (sigma / delta) ** 2


def report_record(report: CampaignReport) -> dict:
    """Scalar fields of a campaign report, keyed as in its artifacts."""
    return {
        "trials": report.trials,
        "violations": report.violations,
        "violation_rate": report.violation_rate,
        "evaluations": report.evaluations,
        "delta_exceedances": report.delta_exceedances,
        "exceedance_rate": report.exceedance_rate,
        "worst_margin": report.worst_margin,
    }


def report_to_json(report: CampaignReport) -> str:
    """Serialize a campaign report with its first ten per-trial ``(seed, trial)`` streams."""
    seed = report.config.get("seed")
    seeds_sample = [[seed, t] for t in range(min(report.trials, 10))] if seed is not None else []
    return json_text({**report_record(report), "config": report.config, "seeds_sample": seeds_sample})

"""Empirical validation campaigns: do realized errors respect the bounds?

Every campaign integrates the benchmark ODE ``y' = y / 2`` (:func:`exp_ode`),
whatever the scenario, with a concrete tableau, and compares the realized final-time error against the closed-form
bound for the scenario's constants.  Those constants are not derived from
that ODE: ``tuned`` sets ``L_fy = 0.1``, below its Lipschitz constant 0.5,
so the bound's premise is false there.  In clipped noise mode every
perturbation satisfies the norm bound deterministically, so where the
constants do hold for the ODE any violation signals an implementation
defect; in plain Gaussian mode the per-evaluation exceedance rate itself is
the quantity under test.

Each campaign call does one job: :func:`validate_noiseless_bound` steps with
exact evaluations, :func:`validate_noisy_bound` with noise of a nonzero
bound ``delta``.  A noisy campaign draws each trial's perturbations up front, one column per
trial of an evaluation-major ``(evaluations, trials, dim)`` block, then
steps all trials as one ``(trials, dim)`` batch, so each field evaluation
adds one contiguous ``(trials, dim)`` slab.  Only the batch's current state
is kept, so the block is the one array that grows with the request.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import global_error_bound_noiseless, global_error_bound_noisy
from .formats import json_text
from ._streams import KeyedStreams
from .integrator import NoiseSpec, _check_positive, _error_norm, _step_count, integrate
from .scenarios import Scenario, exp_ode
from .tableaux import ButcherTableau, profile

__all__ = [
    "CampaignReport",
    "validate_noiseless_bound",
    "validate_noisy_bound",
    "shots_to_delta",
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


def _tally(realized, bound) -> tuple[int, float]:
    """Violations and worst margin ``realized / bound`` of final errors.

    An exact result has margin 0, and a nonzero error against a bound that
    underflowed to 0 has margin inf.  An undefined margin (an overflowed
    error against an overflowed bound) does not count towards the worst.
    """
    realized = np.asarray(realized, dtype=float)
    with np.errstate(all="ignore"):  # x / 0 and ratios past the float range read inf; 0 / 0 is set to 0
        margin = np.where(realized == 0.0, 0.0, realized / bound)
    return int(np.count_nonzero(realized > bound)), float(np.fmax.reduce(margin, initial=0.0))


def validate_noiseless_bound(sc: Scenario, tableau: ButcherTableau, n_steps_list: Iterable[int]) -> CampaignReport:
    """Check bound dominance for exact evaluations at several step counts.

    Integration is deterministic here, so each step count either holds or
    fails outright.
    """
    problem = exp_ode()
    prof = profile(tableau, sc.error_const)
    reference = problem.exact(sc.pb.horizon)
    n_steps_list = [_step_count(n) for n in n_steps_list]
    realized = [_error_norm(integrate(tableau, problem.field, problem.y0, 0.0, sc.pb.horizon, n).final - reference)
                for n in n_steps_list]
    violations, worst = _tally(realized, [global_error_bound_noiseless(sc.pb, prof, n) for n in n_steps_list])
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


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")


def validate_noisy_bound(sc: Scenario, tableau: ButcherTableau, n_steps: int, delta: float, trials: int = 1000,
                         seed: int = 0, mode: str = "clipped-gaussian", eta: float = 0.05) -> CampaignReport:
    """Run seeded noisy integrations and count bound violations.

    ``delta`` must be a noise bound: :class:`~rkbudget.integrator.NoiseSpec`
    rejects 0, and exact evaluations are :func:`validate_noiseless_bound`'s
    campaign.  Trial ``t`` draws all of its perturbations up front from the
    stream ``np.random.default_rng((seed, t))``, so reports do not depend on
    how trials are scheduled; the trials are then stepped together as one
    batch.  The streams are unchanged, but :class:`~rkbudget._streams.KeyedStreams`
    hashes all trials' keys in one pass and numpy's PCG64 seeds each trial's
    generator; ``tests/test_streams.py`` holds its states and draws to
    ``default_rng`` bit for bit.  A bad seed is rejected as the streams are
    built, before anything is drawn.
    """
    noise = NoiseSpec(delta, eta, mode)
    _check_trials(trials)
    n_steps = _step_count(n_steps)
    problem = exp_ode()
    prof = profile(tableau, sc.error_const)
    reference = problem.exact(sc.pb.horizon)
    bound = global_error_bound_noisy(sc.pb, prof, n_steps, delta)
    streams = KeyedStreams((seed,), range(trials))
    count = n_steps * tableau.stages
    block, exceedances = noise.perturbations(streams, count, problem.y0.size)
    field, slabs = problem.field, iter(block)  # evaluation k adds the slab block[k]

    def noisy_field(tau, y):
        value = field(tau, y)
        value += next(slabs)  # in place: exp_ode's field returns a new (trials, dim) array, held nowhere else
        return value

    try:
        traj = integrate(tableau, noisy_field, np.tile(problem.y0, (trials, 1)), 0.0, sc.pb.horizon, n_steps)
    except StopIteration:  # next(slabs) past the block's end
        raise RuntimeError(f"stepping asked for more than {count} field evaluations per trial,"
                           f" the noise block holds {count}") from None
    if left := operator.length_hint(slabs):
        raise RuntimeError(f"stepping made {count - left} field evaluations per trial, the noise block holds {count}")
    violations, worst = _tally(_error_norm(traj.final - reference), bound)
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
        violations=violations,
        evaluations=count * trials,
        delta_exceedances=exceedances,
        worst_margin=worst,
    )


def shots_to_delta(sigma: float, n_shots: float) -> float:
    """Per-evaluation noise bound implied by a shot count: ``sigma / sqrt(n_shots)``."""
    _check_positive("sigma", sigma)
    _check_positive("n_shots", n_shots)
    return sigma / math.sqrt(n_shots)


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

"""Resource planning: minimal steps, minimal shots, cost and circuit budgets.

Given the analytic problem constants and a method profile, these closed
forms answer how many time steps (and, under shot noise, how many
measurement repetitions per evaluation) are needed to hit a target error,
and what the total evaluation bill is.  Step and shot counts are returned
as reals, matching the way the reference tables print them; callers round
up for execution.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import ProblemBounds, _check_eta, _expm1_safe, _growth_terms
from .formats import csv_text, json_text
from .tableaux import MethodProfile, min_stages

__all__ = [
    "AnsatzDims",
    "BudgetRow",
    "InfeasibleShotsError",
    "budget_row",
    "min_steps_noiseless",
    "min_steps_noisy",
    "min_shots",
    "circuit_budget",
    "distinct_circuits",
    "sigma_bound",
    "budget_table",
    "argmin_order",
    "rows_to_csv",
    "rows_to_json",
]

ROW_KEYS = ("p", "s", "N_tau", "N_r", "cost", "N_circ", "circuits", "ratio", "flag")
# sigma_bound's assumptions: the solution norm of the linear system is at most
# SOLUTION_NORM_CAP, and its condition number grows as
# n_params**CONDITION_EXPONENT.
SOLUTION_NORM_CAP = 60.0
CONDITION_EXPONENT = 3.0


class InfeasibleShotsError(ValueError):
    """No shot count can reach the target: truncation alone already exceeds
    it, or the step count is below 1, not finite or makes the step 0."""


@dataclass(frozen=True)
class AnsatzDims:
    """Dimensions of the parameterized circuit whose evaluations we count.

    n_params
        Number of variational parameters (the state dimension of the
        parameter ODE).
    n_strings
        Pauli strings per circuit layer.
    n_pauli
        Pauli terms in the Hamiltonian decomposition.

    Each is an integer (numpy integers too) of at least 1; 2.5 raises.
    """

    n_params: int
    n_strings: int
    n_pauli: int

    def __post_init__(self):
        for name in ("n_params", "n_strings", "n_pauli"):
            value = _integer(getattr(self, name), f"{name} must be an integer")
            if value < 1:
                raise ValueError("n_params, n_strings and n_pauli must be positive integers")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class BudgetRow:
    """One order's resource requirements; ``feasible`` is False when a
    cell is not finite and positive or the step count is below 1 (see
    :func:`budget_row`)."""

    order: int
    stages: int
    n_steps: float
    n_shots: float | None
    cost: float
    circuit_evals: float | None
    circuits: float | None
    ratio: float
    feasible: bool = True


def _min_steps(pb: ProblemBounds, prof, split: int) -> float:
    """Closed-form minimal step count for the target ``target / split``."""
    z = prof.b_max * pb.horizon * pb.lip_state * prof.stages
    base = (
        prof.error_const
        * pb.field_bound
        * _expm1_safe(z)
        * split
        / (pb.target_error * prof.b_max * prof.stages * pb.lip_state)
    )
    return pb.lip_time * pb.horizon * base ** (1.0 / prof.order)


def min_steps_noiseless(pb: ProblemBounds, prof) -> float:
    """Minimal step count meeting the target error with exact evaluations.

    ``lip_time * T * (K * M * (e**(b_max*T*lip_state*s) - 1)
    / (target * b_max * s * lip_state))**(1/p)``, valid when the resulting
    count is large against ``lip_state * a_max * T``.

    The form replaces the exact per-step factor
    ``F = (b_max/a_max) * ((1 + lip_state*a_max*T/N)**s - 1)`` by
    ``b_max * s * lip_state * T / N``.  "Large" is taken to mean that the
    dropped part, ``N * F / (b_max * s * lip_state * T) - 1``, is at most
    0.02, a convention; on every registered scenario the exact noiseless
    bound at such a count recovers the target within 4%.  With
    ``a_max == b_max`` or a single stage the count never under-provisions,
    whether or not the premise holds: the exact bound at it is at most the
    target (to rounding), since ``N * F`` is at least
    ``z = b_max * s * lip_state * T`` and ``N * log1p(F)`` at most ``z``.
    Where the count is only a few steps the bound lands well below the
    target.
    """
    return _min_steps(pb, prof, 1)


def min_steps_noisy(pb: ProblemBounds, prof) -> float:
    """Minimal step count under shot noise; carries the extra ``(2p+1)**(1/p)``
    factor relative to the noiseless count so that measurement error can be
    traded against truncation.

    This is :func:`min_steps_noiseless` for the target ``target / (2p+1)``,
    so the same premise applies and, with ``a_max == b_max`` or a single
    stage, the exact noiseless bound at this count is at most
    ``target / (2p+1)`` (to rounding).
    """
    return _min_steps(pb, prof, 2 * prof.order + 1)


def min_shots(pb: ProblemBounds, prof, sigma: float, n_steps: float) -> float:
    """Measurements per evaluation needed at ``n_steps`` steps.

    ``(9 sigma^2 / lip_state^2) * (target/((1+F)**n - 1)
    - dt**(p+1) K lip_time**p M / F)**-2``.  Raises
    :class:`InfeasibleShotsError` when ``n_steps`` is below 1, not finite
    or underflows the step ``T / n_steps`` to 0, or when the bracket is
    non-positive (the truncation alone exhausts the target error); a count
    past the float range raises ``OverflowError``.
    """
    if not sigma > 0:  # NaN too
        raise ValueError("sigma must be positive")
    if not (1.0 <= n_steps < math.inf and pb.horizon / n_steps > 0.0):
        raise InfeasibleShotsError(f"infeasible: n_steps={n_steps:.6g} is below 1 or not finite, or its step is 0")
    fac, growth, truncation = _growth_terms(pb, prof, n_steps)
    bracket = pb.target_error / growth - truncation / fac
    if not bracket > 0:  # NaN where the growth and F both overflow
        raise InfeasibleShotsError(
            f"infeasible: truncation already exceeds target at n_steps={n_steps:.6g}"
        )
    try:  # the direct form, whose bits the tables pin
        shots = 9.0 * sigma**2 / pb.lip_state**2 * bracket**-2
    except ArithmeticError:  # a power past the float range, or a division by an underflowed 0
        shots = math.inf
    if not math.isfinite(shots):  # the same count as one square, where only an intermediate left the range
        with contextlib.suppress(ArithmeticError):
            shots = (3.0 * sigma / (pb.lip_state * bracket))**2
    if not math.isfinite(shots):
        raise OverflowError(f"shot count exceeds the float range at n_steps={n_steps:.6g}")
    return shots


def budget_row(
    pb: ProblemBounds,
    prof,
    sigma: float | None = None,
    dims: AnsatzDims | None = None,
    anchor_cost: float | None = math.nan,
) -> BudgetRow:
    """Resource row of one method profile, noiseless when ``sigma`` is None.

    Step, distinct-circuit, shot and circuit-budget counts are evaluated
    once each; one that raises ``ArithmeticError`` or
    :class:`InfeasibleShotsError` stays NaN, and so do the ones after it.
    The row is feasible iff its step count is at least 1 and every
    resource cell it reports is finite and positive.  A flagged row keeps
    its step and distinct-circuit cells and has NaN shot, cost,
    circuit-budget and ratio cells; cells that do not apply stay None.  The
    ratio is ``anchor_cost / cost``, with :func:`budget_table` passing the
    order-1 cost (None on the order-1 row); the default NaN leaves it NaN.
    """
    n_steps = math.nan
    n_shots = None if sigma is None else math.nan
    circuits = None if dims is None else math.nan
    circuit_evals = None if n_shots is None or dims is None else math.nan
    try:
        n_steps = min_steps_noiseless(pb, prof) if sigma is None else min_steps_noisy(pb, prof)
        circuits = None if dims is None else distinct_circuits(n_steps, prof.stages, dims)
        if sigma is not None:
            n_shots = min_shots(pb, prof, sigma, n_steps)
            circuit_evals = None if dims is None else circuit_budget(n_steps, prof.stages, n_shots, dims)
    except (ArithmeticError, InfeasibleShotsError):
        pass
    cost = prof.stages * n_steps if n_shots is None else prof.stages * n_steps * n_shots
    feasible = (1.0 <= n_steps < math.inf and 0.0 < cost < math.inf
                and (n_shots is None or 0.0 < n_shots < math.inf)
                and (circuit_evals is None or 0.0 < circuit_evals < math.inf)
                and (circuits is None or 0.0 < circuits < math.inf))
    return BudgetRow(
        order=prof.order,
        stages=prof.stages,
        n_steps=n_steps,
        n_shots=n_shots if feasible or n_shots is None else math.nan,
        cost=cost if feasible else math.nan,
        circuit_evals=circuit_evals if feasible or circuit_evals is None else math.nan,
        circuits=circuits,
        ratio=(cost if anchor_cost is None else anchor_cost) / cost if feasible else math.nan,
        feasible=feasible,
    )


def circuit_budget(n_steps: float, stages: int, n_shots: float, dims: AnsatzDims) -> float:
    """Total circuit evaluations: every element of the linear system costs
    circuits, every circuit is measured ``n_shots`` times, at every stage of
    every step.

    ``n_steps * s * n_shots * n_params * n_strings * (n_params * n_strings + n_pauli)``
    """
    nv, nd, nh = dims.n_params, dims.n_strings, dims.n_pauli
    return n_steps * stages * n_shots * nv * nd * (nv * nd + nh)


def distinct_circuits(n_steps: float, stages: int, dims: AnsatzDims) -> float:
    """Number of distinct circuits across the run (shot repetitions excluded)."""
    nv, nd, nh = dims.n_params, dims.n_strings, dims.n_pauli
    return n_steps * stages * (nv**2 * nd**2 + nv * nd * nh)


def sigma_bound(dims: AnsatzDims, eta: float) -> float:
    """Upper bound on the aggregate single-shot deviation scale.

    ``(SOLUTION_NORM_CAP / sqrt(eta)) * n_params**CONDITION_EXPONENT
    * (|sigma_k| / sqrt(n_params) + |sigma_kl| / n_params)`` using the
    worst-case norm surrogates ``|sigma_kl| <= n_params * n_strings**2`` and
    ``|sigma_k| <= n_params * n_strings * n_pauli``.
    """
    _check_eta(eta)
    nv, nd, nh = dims.n_params, dims.n_strings, dims.n_pauli
    sigma_k_norm = nv * nd * nh
    sigma_kl_norm = nv * nd**2
    return (SOLUTION_NORM_CAP / math.sqrt(eta) * nv**CONDITION_EXPONENT
            * (sigma_k_norm / math.sqrt(nv) + sigma_kl_norm / nv))


def budget_table(
    pb: ProblemBounds,
    *,
    error_const: float,
    p_range: Iterable[int] = range(1, 11),
    a_max: float = 1.0,
    b_max: float = 1.0,
    sigma: float | None = None,
    dims: AnsatzDims | None = None,
) -> list[BudgetRow]:
    """One resource row per order, stages taken from the order/stage table.

    Noiseless mode (``sigma`` is None) leaves shot and circuit columns
    empty.  The ratio column compares every row's cost against the order-1
    cost, which is computed even when order 1 is not part of ``p_range``.
    Infeasible orders are flagged, not dropped.  Orders must be integers
    (numpy integers too) in 1..10; 2.5 raises ValueError.
    """
    orders = sorted({_integer(p, "orders must be integers") for p in p_range})

    def row_for(p: int, anchor_cost: float | None) -> BudgetRow:
        prof = MethodProfile(order=p, stages=min_stages(p), a_max=a_max, b_max=b_max, error_const=error_const)
        return budget_row(pb, prof, sigma, dims, anchor_cost)

    anchor = row_for(1, None)
    return [anchor if p == 1 else row_for(p, anchor.cost) for p in orders]


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what}, got {value!r}") from None


def argmin_order(rows: Sequence[BudgetRow]) -> int:
    """Order with the cheapest feasible row (total circuit evaluations when
    present, otherwise cost); ties break toward the smaller order."""
    candidates = [r for r in rows if r.feasible]
    if not candidates:
        raise ValueError("no feasible rows in budget table")
    best = min(candidates, key=lambda r: (r.circuit_evals if r.circuit_evals is not None else r.cost, r.order))
    return best.order


def _row_cells(row: BudgetRow) -> tuple:
    """One row's cells in ``ROW_KEYS`` order."""
    flag = "" if row.feasible else "infeasible"
    return (row.order, row.stages, row.n_steps, row.n_shots, row.cost, row.circuit_evals, row.circuits, row.ratio, flag)


def rows_to_csv(rows: Sequence[BudgetRow]) -> str:
    """Budget table as CSV with the canonical column set; the last column,
    ``flag``, reads ``infeasible`` on flagged rows and is empty otherwise."""
    return csv_text(ROW_KEYS, map(_row_cells, rows))


def rows_to_json(rows: Sequence[BudgetRow]) -> str:
    """Budget table as a JSON array of row objects keyed like the CSV columns.

    Cells that do not apply, are infeasible or are not finite serialize as
    null, so the output is strict JSON.
    """
    return json_text([dict(zip(ROW_KEYS, _row_cells(row))) for row in rows], sort_keys=False)

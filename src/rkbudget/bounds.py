"""Closed-form truncation and noise-propagation error bounds.

All bounds take a :class:`ProblemBounds` record holding the analytic
constants of the initial value problem (Lipschitz constants in state and
time, a sup-norm bound on the field, the horizon and the target error) and
a :class:`~rkbudget.tableaux.MethodProfile` describing the method.  The
growth factor ``(1 + F)**n_steps`` is evaluated as ``expm1(n * log1p(F))``
so that tiny ``F`` loses no precision and huge exponents degrade to
``inf`` instead of raising.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "ProblemBounds",
    "f_factor",
    "lte_bound",
    "global_error_bound_noiseless",
    "global_error_bound_noisy",
]

_EXP_OVERFLOW = 700.0  # exp overflows just above 709; cut a little early


@dataclass(frozen=True)
class ProblemBounds:
    """Analytic constants of the initial value problem.

    lip_state
        Lipschitz constant of the field in the state argument.
    lip_time
        Lipschitz constant of the field in time (bounds the first time
        derivative; higher derivatives are assumed to follow the usual
        power chain).
    field_bound
        Sup-norm bound on the field along the solution.
    horizon
        Length of the integration interval.
    target_error
        Requested bound on the final-time error.
    """

    lip_state: float
    lip_time: float
    field_bound: float
    horizon: float
    target_error: float

    def __post_init__(self):
        for name in ("lip_state", "lip_time", "field_bound", "horizon", "target_error"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be strictly positive")


def _expm1_safe(x: float) -> float:
    if x > _EXP_OVERFLOW:
        return math.inf
    return math.expm1(x)


def f_factor(n_steps: float, prof, lip_state: float, horizon: float) -> float:
    """Per-step error growth factor of an s-stage method.

    ``(b_max / a_max) * ((1 + lip_state * a_max * horizon / n_steps)**s - 1)``.
    For single-stage methods the a_max dependence cancels algebraically and
    the exact value ``b_max * lip_state * horizon / n_steps`` is used, which
    also covers a_max == 0.  Multi-stage profiles require a_max > 0.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if prof.stages == 1:
        return prof.b_max * lip_state * horizon / n_steps
    if prof.a_max <= 0:
        raise ValueError("a_max must be positive for multi-stage methods")
    theta = lip_state * prof.a_max * horizon / n_steps
    return prof.b_max / prof.a_max * _expm1_safe(prof.stages * math.log1p(theta))


def lte_bound(dt: float, prof, lip_time: float, field_bound: float) -> float:
    """Leading-order bound on the error of a single step started from exact data.

    ``dt**(p+1) * K * lip_time**p * field_bound``; the higher-order
    remainder is dropped, as in all the resource formulas built on top.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    return dt ** (prof.order + 1) * prof.error_const * lip_time**prof.order * field_bound


def _growth_terms(pb: ProblemBounds, prof, n_steps: float) -> tuple[float, float, float]:
    """``F``, the growth ``(1+F)**n - 1`` and the one-step truncation bound at
    ``n_steps``: the terms shared by the noisy bound and the minimal shot count.

    Once the exponent ``n * log1p(F)`` passes the overflow cut the growth is
    ``inf``; no finite bound or shot count exists there, so the truncation is
    not evaluated (its power may overflow too) and reads ``inf``.  A
    truncation whose power ``lip_time**p`` or ``dt**(p+1)`` overflows reads
    ``inf`` as well.
    """
    fac = f_factor(n_steps, prof, pb.lip_state, pb.horizon)
    growth = _expm1_safe(n_steps * math.log1p(fac))
    if growth == math.inf:
        return fac, growth, math.inf
    try:
        return fac, growth, lte_bound(pb.horizon / n_steps, prof, pb.lip_time, pb.field_bound)
    except OverflowError:
        return fac, growth, math.inf


def global_error_bound_noisy(pb: ProblemBounds, prof, n_steps: float, delta: float) -> float:
    """Worst-case final-time error with per-evaluation perturbations of norm <= delta.

    ``((1+F)**n - 1)/F * (3*delta/lip_state * F + dt**(p+1)*K*lip_time**p*M)``
    with ``F = f_factor(n_steps, ...)``.  At ``delta == 0`` this is exactly
    the noiseless bound.  If the growth factor or the truncation term
    overflows, ``inf`` is returned and a warning is emitted.  Where ``F``
    underflows to 0 the bound is its limit as ``F -> 0``,
    ``3*delta*b_max*s*T + n * dt**(p+1)*K*lip_time**p*M``.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    fac, growth, truncation = _growth_terms(pb, prof, n_steps)
    if math.inf in (growth, truncation):
        warnings.warn(
            f"error bound overflows (growth exponent n*log1p(F) = {n_steps * math.log1p(fac):.3g}, "
            f"truncation term {truncation:.3g}); bound is +inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return math.inf
    if fac == 0.0:  # F underflows: the limits growth / F -> n and growth / lip_state -> b_max * s * T
        return 3.0 * delta * prof.b_max * prof.stages * pb.horizon + n_steps * truncation
    return growth / fac * (3.0 * delta / pb.lip_state * fac + truncation)


def global_error_bound_noiseless(pb: ProblemBounds, prof, n_steps: float) -> float:
    """Worst-case final-time error after ``n_steps`` noiseless steps."""
    return global_error_bound_noisy(pb, prof, n_steps, 0.0)

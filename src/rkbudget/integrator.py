"""Explicit Runge-Kutta stepping against possibly-noisy field evaluations.

The oracle wraps the right-hand side ``f(tau, y)`` of an initial value
problem.  When a :class:`NoiseSpec` is attached, every evaluation is
perturbed by a random vector mimicking the statistical error of estimating
``f`` from a finite number of measurements: the perturbation norm stays
below ``delta`` with probability at least ``1 - eta`` (and always, in
clipped mode).  A shot count enters only through that bound,
``delta = sigma / sqrt(n_shots)``, which :func:`rkbudget.harness.shots_to_delta`
computes.

Stepping keeps only the state it steps: :func:`integrate` returns the state
at the end of the horizon, where the bounds measure the error, and its
memory does not grow with the step count.  It binds the tableau to the
state's shape and the step size once per call, so every step reuses one
stage buffer, its views and the scaled nodes; :func:`rk_step` stays the one
loop over stages.  A stage pays for its arithmetic and little else: its
finite check calls vdot's C implementation without numpy's array-function
dispatcher, and :func:`rkbudget.scenarios.exp_ode`'s field multiplies the
float64 stage state it is handed without converting it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .bounds import _check_eta

__all__ = [
    "NoiseSpec",
    "EvaluationOracle",
    "Trajectory",
    "StepFailureError",
    "DegenerateSlopeError",
    "rk_step",
    "integrate",
    "empirical_order",
]

# vdot's C implementation, bound past the Python-level array-function
# dispatcher (NEP 18) that np.vdot wraps it in: rk_step's finite check calls
# it at every stage, and the dispatcher costs more than the product of a
# short row.  Only vdot will do: ndarray.dot, np.inner and np.vecdot warn of
# an invalid value at inf * 0, where vdot gives NaN silently.
_vdot = getattr(np.vdot, "__wrapped__", np.vdot)

NOISE_MODES = ("gaussian", "clipped-gaussian")
# Per-evaluation noise bounds whose draw norms sqrt(x @ x) are exact to
# rounding.  A normal from numpy's ziggurat has |z| < 14, so a draw's squared
# norm stays below 196 * delta**2 and cannot overflow; the squares of draws
# whose norm is near delta stay normal floats, so neither the exceedance test
# nor the clipping factor sees an underflow.
DELTA_RANGE = (1e-150, 1e150)
# Draws that one slab of a noise block holds at most: perturbations tests,
# counts and clips a block in one pass over slabs of whole evaluations.
_CLIP_SLAB_DRAWS = 1 << 16


def _slab_bytes(draws: int) -> int:
    """The most bytes that testing and clipping ``draws`` one-component draws holds
    at once, besides array headers: 34 per draw of one slab, 2 of exceedance masks
    and 32 of clipping gathers.  An evaluation of more draws than a slab is a slab
    of its own, outweighed by seeding its trials, over 150 bytes each."""
    return 34 * min(draws, _CLIP_SLAB_DRAWS)


# A noise bound's rule as its messages state it.
_DELTA_RULE = (f"delta must lie in [{DELTA_RANGE[0]:g}, {DELTA_RANGE[1]:g}], where the perturbation norms"
               " neither underflow nor overflow")


def _check_delta(delta: float) -> None:
    """A noise bound's rule: ``delta`` in ``DELTA_RANGE``."""
    if not DELTA_RANGE[0] <= delta <= DELTA_RANGE[1]:  # NaN too
        raise ValueError(f"{_DELTA_RULE}; got {delta:g}")


class StepFailureError(RuntimeError):
    """A stage evaluation returned a non-finite value."""

    def __init__(self, message: str, step: int | None = None, stage: int | None = None):
        super().__init__(message)
        self.step = step
        self.stage = stage


class DegenerateSlopeError(RuntimeError):
    """Convergence errors vanished or hit machine precision; no slope exists."""


@dataclass(frozen=True)
class NoiseSpec:
    """Shot-noise model for field evaluations.

    ``delta`` is the per-evaluation norm bound and ``eta`` the probability
    that a draw exceeds it.  Mode ``gaussian`` draws i.i.d. zero-mean
    components whose scale makes the Chebyshev bound hold, and
    ``clipped-gaussian`` additionally rescales any draw exceeding ``delta``
    onto the delta sphere so the bound holds deterministically.
    :meth:`from_delta` fills in the usual ``eta`` and mode.
    """

    delta: float
    eta: float
    mode: str

    def __post_init__(self):
        _check_delta(self.delta)
        _check_eta(self.eta)
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}, got {self.mode!r}")

    def perturbations(self, rngs: Collection[np.random.Generator], count: int, dim: int) -> tuple[np.ndarray, int]:
        """Perturbations for ``count`` evaluations of a ``dim``-component field per stream.

        Stream ``i`` draws ``(count, dim)`` standard normals in one call,
        which equals ``count`` successive draws of ``dim`` components, into a
        reused buffer copied into column ``i`` of the block.  One scaling of
        the whole block then gives, bit for bit, what ``rng.normal(0.0,
        scale)`` draws from each stream, and one pass over slabs of whole
        evaluations, at most ``_CLIP_SLAB_DRAWS`` draws each, tests, counts
        and, in clipped mode, clips them onto the delta sphere.  ``rngs`` may
        be a :class:`~rkbudget._streams.KeyedStreams`.  Returns the
        evaluation-major ``(count, len(rngs), dim)`` block, so evaluation
        ``k`` reads the contiguous ``block[k]``, and the number of draws whose
        norm exceeded delta; ``tests/test_integrator.py`` holds both to
        per-evaluation ``rng.normal`` draws.
        """
        if dim < 1:
            raise ValueError("noise needs a field value with at least one component; got a zero-dimensional one")
        delta = self.delta
        scale = delta * math.sqrt(self.eta / dim)
        block = np.empty((count, len(rngs), dim))
        draws = np.empty((count, dim))
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=draws)
            block[:, i] = draws
        # normal(0.0, scale) computes 0.0 + scale * z; adding 0.0 turns a
        # -0.0 product into +0.0 as it does.
        block *= scale
        block += 0.0
        # Norms as np.linalg.norm takes them, so that a block and per-evaluation
        # draws clip alike bit for bit: in 1-D, sqrt(fl(x * x)) == |x| where x * x
        # is normal (under DELTA_RANGE other draws are within delta), so x > delta
        # or x < -delta is tested, and |x| taken of those.  One slab is not sliced.
        rows = _CLIP_SLAB_DRAWS // (len(rngs) * dim or 1) or 1
        exceeded = 0
        for slab in (block,) if count <= rows else (block[k:k + rows] for k in range(0, count, rows)):
            if dim == 1:
                x = slab[..., 0]
                over = x > delta
                over |= x < -delta
            else:
                norms = np.sqrt(np.vecdot(slab, slab))
                over = norms > delta
            n = int(np.count_nonzero(over))
            exceeded += n
            if n and self.mode == "clipped-gaussian":
                slab[over] *= (delta / (np.abs(slab[over][:, 0]) if dim == 1 else norms[over]))[:, None]
        return block, exceeded

    @classmethod
    def from_delta(cls, delta: float, eta: float = 0.05, mode: str = "clipped-gaussian") -> "NoiseSpec":
        """Build a spec with a given per-evaluation bound, ``eta`` 0.05 and clipped draws by default."""
        return cls(delta, eta, mode)


class EvaluationOracle:
    """Callable wrapper around a vector field, with optional noise injection.

    The oracle owns a private random stream so that two oracles built from
    the same seed produce bit-identical perturbation sequences.  It also
    counts how often it was called and how often a raw draw exceeded the
    noise bound.  The validation campaigns do not step through it: they
    draw each trial's perturbations as one block up front and count its
    exceedances there.
    """

    def __init__(
        self,
        f: Callable[[float, np.ndarray], np.ndarray],
        noise: NoiseSpec | None = None,
        rng: np.random.Generator | int | Sequence[int] | None = None,
    ):
        self.f = f
        self.noise = noise
        self._rng = np.random.default_rng(rng)
        self.evaluations = 0
        self.delta_exceedances = 0

    def __call__(self, tau: float, y: np.ndarray) -> np.ndarray:
        self.evaluations += 1
        value = np.asarray(self.f(tau, y), dtype=float)
        if self.noise is None:
            return value
        pert, exceeded = self.noise.perturbations([self._rng], 1, value.size)
        self.delta_exceedances += exceeded
        return value + pert.reshape(value.shape)


@dataclass(frozen=True)
class Trajectory:
    """What :func:`integrate` returns: the state at the end of the horizon and the number of steps taken."""

    final: np.ndarray
    n_steps: int


class _Stages:
    """A tableau bound to one state shape and step size ``dt``.

    :func:`integrate` binds once per call and passes the binding to
    :func:`rk_step` in the tableau's place at every step, so the stage
    buffer and everything built from ``dt`` are made once per call, not once
    per step.  It holds the flat ``(stages, size)`` stage buffer; per stage
    ``i``, the coupling row ``a[i, :i]`` as a read-only view, ``c_i * dt``
    with the node ``c_i`` a Python float, the prefix view ``flat[:i]`` and
    the row ``flat[i]`` viewed in the state's shape; ``dt`` as a 0-d float64
    array; and the zero vector of the finite check.  Every step overwrites
    the buffer; no state handed to the field or returned aliases it.
    """

    __slots__ = ("stages", "shape", "lone", "b", "h", "zeros", "flat", "rows")

    def __init__(self, tableau, shape: tuple[int, ...], dt: float):
        _check_positive("dt", dt)
        a, nodes = tableau.a, tableau.c.tolist()
        self.stages = len(nodes)
        self.shape = shape
        self.lone = len(shape) == 1  # a sum of buffer rows already has the state's shape
        self.b = tableau.b
        self.h = np.array(dt, dtype=float)
        self.zeros = np.zeros(math.prod(shape))
        self.flat = flat = np.empty((len(nodes), self.zeros.size))
        ks = flat.reshape((len(nodes),) + shape)
        self.rows = tuple((i, a[i, :i], c_i * dt, flat[:i], ks[i]) for i, c_i in enumerate(nodes))


def rk_step(tableau, oracle: Callable, tau_n: float, y_n: np.ndarray, dt: float) -> np.ndarray:
    """Advance one step: ``y + dt * sum_i b_i k_i`` with the staged recursion for ``k_i``.

    ``y_n`` is one state ``(dim,)`` or a batch ``(trials, dim)``; the oracle
    receives stage states of the same shape.  A lone state is a batch of
    one: the stage values fill the rows of one flat ``(stages, size)``
    buffer, through views in ``y_n``'s shape, and the stage sums contract
    its rows with the tableau's coupling rows ``a[i, :i]``.  So a batch row
    is stepped by the same arithmetic as a lone state, up to BLAS summation
    order; only a batch's increments are reshaped to its shape.  The stage
    and step sums call ``ndarray.dot``: the same BLAS gemv as the ``@``
    operator, bit for bit, without the matmul ufunc's dispatch, which costs
    more than the sum of a few rows.  They are scaled by ``dt`` held as a
    0-d float64 array: under NEP 50 a Python float costs the multiply a
    scalar conversion at every call, and the IEEE product is the same.  Each
    stage costs one field call, its stage sum and a finite check, ``0 . k_i``
    by vdot's C implementation (``_vdot``, bound once at import), which skips
    ``np.vdot``'s array-function dispatcher and, unlike ``ndarray.dot``,
    ``np.inner`` and ``np.vecdot``, raises no warning at ``inf * 0``.

    Given a tableau, the step binds it to ``y_n``'s shape and ``dt`` for
    itself (a private ``_Stages``), so its stage buffer is allocated once.
    :func:`integrate` binds once per call and passes its binding in the
    tableau's place; that binding carries the shape and ``dt`` it was made
    for, and ``y_n`` is the array of that shape its previous step returned.
    """
    if isinstance(tableau, _Stages):
        stages = tableau
    else:
        y_n = np.asarray(y_n, dtype=float)
        if y_n.ndim == 0:
            y_n = y_n.reshape(1)
        stages = _Stages(tableau, y_n.shape, dt)
    h, zeros, shape, lone = stages.h, stages.zeros, stages.shape, stages.lone
    y_stage = y_n
    for i, a_row, c_dt, prefix, k_i in stages.rows:
        if i:
            increment = h * a_row.dot(prefix)
            y_stage = y_n + (increment if lone else increment.reshape(shape))
        k_i[...] = oracle(tau_n + c_dt, y_stage)
        # Exact: 0 * x is +-0 for finite x, however large, and NaN for +-inf
        # or NaN.  vdot, unlike dot and matmul, warns of no invalid value at inf * 0.
        # Checked per stage, before the next stage state is built from it, so
        # a field never sees a state derived from a non-finite value.
        if not math.isfinite(_vdot(k_i, zeros)):
            raise StepFailureError(f"non-finite field value at stage {i + 1}", stage=i + 1)
    increment = h * stages.b.dot(stages.flat)
    return y_n + (increment if lone else increment.reshape(shape))


def _step_count(n_steps) -> int:
    """``n_steps`` as an ``int`` of at least 1; 10.5 raises ValueError."""
    try:
        n_steps = operator.index(n_steps)
    except TypeError:
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}") from None
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    return int(n_steps)


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:  # NaN too
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _slope_steps(steps: Iterable[int]) -> list[int]:
    """``steps`` as sorted step counts, at least 4 of them distinct, as a slope estimate needs."""
    steps = sorted(_step_count(n) for n in steps)
    if len(set(steps)) < 4:
        raise ValueError(f"need at least 4 distinct step counts for a slope estimate, got {steps}")
    return steps


def integrate(tableau, oracle: Callable, y0: np.ndarray, tau0: float, horizon: float, n_steps: int) -> Trajectory:
    """Run ``n_steps`` fixed-size steps over ``[tau0, tau0 + horizon]``.

    ``y0`` is one state ``(dim,)`` or a batch ``(trials, dim)``; the
    trajectory's final state has the same shape.  The inputs are checked
    and the tableau bound to the state's shape and ``dt`` once here; each
    step is one call of the module attribute :func:`rk_step` with that
    binding in the tableau's place, so the steps share one stage buffer and
    give the bits of a chain of lone ``rk_step(tableau, ...)`` calls.  Only
    the current state is held, and step ``n`` starts at ``np.linspace(tau0,
    tau0 + horizon, n_steps + 1)[n]``, computed by linspace's own
    arithmetic, bit for bit.
    """
    n_steps = _step_count(n_steps)
    _check_positive("horizon", horizon)
    if not math.isfinite(tau0):
        raise ValueError(f"tau0 must be finite, got {tau0}")
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.isfinite(y).all():
        raise ValueError("y0 must be finite")
    dt = horizon / n_steps
    stages = _Stages(tableau, y.shape, dt)
    span = (tau0 + horizon) - tau0
    spacing = span / n_steps  # linspace scales by span / n_steps, or by n / n_steps where that underflows to 0
    for n in range(n_steps):
        tau_n = (n * spacing if spacing else n / n_steps * span) + tau0
        try:
            y = rk_step(stages, oracle, tau_n, y, dt)
        except StepFailureError as exc:
            raise StepFailureError(f"integration aborted at step {n + 1}: {exc}", step=n + 1, stage=exc.stage) from exc
    return Trajectory(final=y, n_steps=n_steps)


def _error_norm(x: np.ndarray) -> float | np.ndarray:
    """2-norm of one state, or of each state of a ``(trials, dim)`` batch.

    Where ``np.linalg.norm`` is finite this is its value, bit for bit; where
    the squares overflow (entries past ~1.3e154) the state is divided by its
    largest magnitude first, so a finite state whose norm is representable
    gets a finite norm.  A state with an infinite entry has norm ``inf``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # squares past the range; inf / inf, unused below
        norm = np.linalg.norm(x) if x.ndim == 1 else np.linalg.norm(x, axis=-1)
        if np.isfinite(norm).all():
            return norm
        scale = np.max(np.abs(x), axis=-1, keepdims=True)
        scaled = scale[..., 0] * np.linalg.norm(x / scale, axis=-1)
    return np.where(np.isinf(norm) & np.isfinite(scaled), scaled, norm)


def empirical_order(tableau, problem, steps: Iterable[int], horizon: float) -> float:
    """Least-squares slope of log final error versus log step size.

    ``problem`` must expose ``field``, ``exact`` and ``y0`` at time 0 (see
    :func:`rkbudget.scenarios.exp_ode`).  Noise is always off here.
    Raises :class:`DegenerateSlopeError` if any error vanishes or falls
    to the machine-precision floor, where no meaningful slope exists.
    """
    steps = _slope_steps(steps)
    reference = np.atleast_1d(np.asarray(problem.exact(horizon), dtype=float))
    floor = 64.0 * np.finfo(float).eps * max(1.0, float(_error_norm(reference)))
    errors = []
    for n in steps:
        traj = integrate(tableau, problem.field, problem.y0, 0.0, horizon, n)
        errors.append(float(_error_norm(traj.final - reference)))
    errors = np.array(errors)
    if np.any(errors <= floor):
        raise DegenerateSlopeError(
            f"final errors {errors.tolist()} at or below machine-precision floor {floor:.3e}"
        )
    dts = horizon / np.array(steps, dtype=float)
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return slope

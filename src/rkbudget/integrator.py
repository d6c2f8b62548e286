"""Explicit Runge-Kutta stepping against possibly-noisy field evaluations.

The oracle wraps the right-hand side ``f(tau, y)`` of an initial value
problem.  When a :class:`NoiseSpec` is attached, every evaluation is
perturbed by a random vector mimicking the statistical error of estimating
``f`` from a finite number of measurements: the perturbation norm stays
below ``delta`` with probability at least ``1 - eta`` (and always, in
clipped mode).  A shot count enters only through that bound,
``delta = sigma / sqrt(n_shots)``, which :func:`rkbudget.harness.shots_to_delta`
computes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

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

NOISE_MODES = ("gaussian", "clipped-gaussian")
# Per-evaluation noise bounds whose draw norms sqrt(x @ x) are exact to
# rounding.  A normal from numpy's ziggurat has |z| < 14, so a draw's squared
# norm stays below 196 * delta**2 and cannot overflow; the squares of draws
# whose norm is near delta stay normal floats, so neither the exceedance test
# nor the clipping factor sees an underflow.
DELTA_RANGE = (1e-150, 1e150)


def _check_noise(delta: float, eta: float = 0.5, mode: str = NOISE_MODES[0], off: bool = True) -> None:
    """The noise inputs' rules: ``delta`` in ``DELTA_RANGE``, or 0 (no noise) where ``off``
    allows it; ``eta`` in (0, 1); a known ``mode``.  The defaults pass."""
    if not (off and delta == 0.0 or DELTA_RANGE[0] <= delta <= DELTA_RANGE[1]):  # NaN too
        raise ValueError(f"delta must lie in [{DELTA_RANGE[0]:g}, {DELTA_RANGE[1]:g}], where the perturbation norms"
                         f" neither underflow nor overflow{', or be 0 for no noise' if off else ''}; got {delta:g}")
    if not 0.0 < eta < 1.0:  # NaN too
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if mode not in NOISE_MODES:
        raise ValueError(f"mode must be one of {NOISE_MODES}, got {mode!r}")


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
        _check_noise(self.delta, self.eta, self.mode, off=False)

    def perturbations(self, rngs: Collection[np.random.Generator], count: int, dim: int) -> tuple[np.ndarray, int]:
        """Perturbations for ``count`` evaluations of a ``dim``-component field per stream.

        Stream ``i`` fills row ``i`` of the block with ``(count, dim)``
        standard normals in one call, which equals ``count`` successive draws
        of ``dim`` components.  One scaling of the whole block then gives, bit
        for bit, what ``rng.normal(0.0, scale)`` draws from each stream.
        ``rngs`` may be a :class:`~rkbudget._streams.KeyedStreams`;
        ``tests/test_streams.py`` holds its streams to ``default_rng`` bit
        for bit, and ``tests/test_integrator.py`` this block to
        per-evaluation ``rng.normal`` draws.  Returns the
        ``(len(rngs), count, dim)`` block, clipped onto the delta sphere in
        clipped mode, and the number of draws whose norm exceeded delta.
        """
        if dim < 1:
            raise ValueError("noise needs a field value with at least one component; got a zero-dimensional one")
        delta = self.delta
        scale = delta * math.sqrt(self.eta / dim)
        block = np.empty((len(rngs), count, dim))
        for row, rng in zip(block, rngs):
            rng.standard_normal(out=row)
        # normal(0.0, scale) computes 0.0 + scale * z; adding 0.0 turns a
        # -0.0 product into +0.0 as it does.
        block *= scale
        block += 0.0
        # Draw norms as np.linalg.norm takes them, so that a block and per-
        # evaluation draws clip alike bit for bit.  In 1-D, sqrt(fl(x * x)) == |x|
        # where x * x is normal; under DELTA_RANGE other draws are within delta.
        norms = np.abs(block[..., 0]) if dim == 1 else np.sqrt(np.vecdot(block, block))
        over = norms > delta
        exceeded = int(np.count_nonzero(over))
        if exceeded and self.mode == "clipped-gaussian":
            block[over] *= (delta / norms[over])[:, None]
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
    """Uniformly spaced solution samples produced by :func:`integrate`."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if len(times) != len(states):
            raise ValueError("times and states must have equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def rk_step(tableau, oracle: Callable, tau_n: float, y_n: np.ndarray, dt: float) -> np.ndarray:
    """Advance one step: ``y + dt * sum_i b_i k_i`` with the staged recursion for ``k_i``.

    ``y_n`` is one state ``(dim,)`` or a batch ``(trials, dim)``; the oracle
    receives stage states of the same shape.  A lone state is a batch of
    one: the flat ``(stages, size)`` stage buffer is viewed as ``(stages,) +
    y_n.shape`` and each increment is reshaped to ``y_n.shape``, both views.
    Stage sums contract the buffer's rows with the tableau's precomputed
    ``stage_rows``, so a batch row is stepped by the same arithmetic as a
    lone state, up to BLAS summation order.  The stage and step sums call
    ``ndarray.dot``: the same BLAS gemv as the ``@`` operator, bit for bit,
    without the matmul ufunc's dispatch, which costs more than the sum of a
    few rows.  They are scaled by ``dt`` held as a 0-d float64 array, built
    once per step: under NEP 50 a Python float costs the multiply a scalar
    conversion at every call, and the IEEE product is the same.  Each stage
    costs one field call and a few small numpy calls.
    """
    _check_positive("dt", dt)
    y_n = np.asarray(y_n, dtype=float)
    if y_n.ndim == 0:
        y_n = y_n.reshape(1)
    rows = tableau.stage_rows
    flat = np.empty((len(rows), y_n.size))
    ks = flat.reshape((len(rows),) + y_n.shape)
    zeros = np.zeros(y_n.size)
    h = np.array(dt, dtype=float)
    y_stage = y_n
    for i, (a_row, c_i) in enumerate(rows):
        if i:
            y_stage = y_n + (h * a_row.dot(flat[:i])).reshape(y_n.shape)
        ks[i] = oracle(tau_n + c_i * dt, y_stage)
        # Exact: 0 * x is +-0 for finite x, however large, and NaN for +-inf
        # or NaN.  vdot, unlike dot and matmul, warns of no invalid value at inf * 0.
        # Checked per stage, before the next stage state is built from it, so
        # a field never sees a state derived from a non-finite value.
        if not math.isfinite(np.vdot(flat[i], zeros)):
            raise StepFailureError(f"non-finite field value at stage {i + 1}", stage=i + 1)
    return y_n + (h * tableau.b.dot(flat)).reshape(y_n.shape)


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
    trajectory's states then have shape ``(n_steps + 1,) + y0.shape``.
    The inputs are checked once here; each step is one :func:`rk_step` call.
    """
    n_steps = _step_count(n_steps)
    _check_positive("horizon", horizon)
    if not math.isfinite(tau0):
        raise ValueError(f"tau0 must be finite, got {tau0}")
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.isfinite(y).all():
        raise ValueError("y0 must be finite")
    dt = horizon / n_steps
    times = np.linspace(tau0, tau0 + horizon, n_steps + 1)
    states = np.empty((n_steps + 1,) + y.shape)
    states[0] = y
    for n, tau_n in enumerate(times[:-1].tolist(), start=1):
        try:
            y = rk_step(tableau, oracle, tau_n, y, dt)
        except StepFailureError as exc:
            raise StepFailureError(f"integration aborted at step {n}: {exc}", step=n, stage=exc.stage) from exc
        states[n] = y
    return Trajectory(times=times, states=states)


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

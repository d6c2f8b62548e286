"""Named parameter scenarios and the option-pricing reference problem.

The three registered scenarios pin the analytic constants used throughout
the budget tables: ``classical`` (a one-dimensional exponential-growth ODE
solved without noise), ``option_pricing`` (a European call priced via the
log-price heat equation with shot noise) and ``tuned`` (the option-pricing
setup with constants shifted to favor higher orders).  Override files with
``key=value`` lines adjust individual constants without touching code.

The module also carries the Black-Scholes machinery needed as a trusted
reference: the change of variables onto the heat equation, the call
payoff, the exact Gaussian-kernel heat propagator and the inverse map back
to prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .bounds import ProblemBounds
from .budget import AnsatzDims

__all__ = [
    "Scenario",
    "AnalyticProblem",
    "BlackScholesSpec",
    "HeatTransform",
    "SCENARIO_NAMES",
    "scenario",
    "apply_overrides",
    "override_value",
    "parse_overrides",
    "exp_ode",
    "bs_transform",
    "payoff",
    "heat_evolve",
    "recover_price",
]

SCENARIO_NAMES = ("classical", "option_pricing", "tuned")


@dataclass(frozen=True)
class Scenario:
    """A complete parameter set for budget analysis.

    Noiseless scenarios leave ``sigma``, ``eta``, ``dims`` and
    ``state_sensitivity`` unset; noisy ones must provide sigma.
    """

    name: str
    pb: ProblemBounds
    a_max: float
    b_max: float
    error_const: float
    sigma: float | None = None
    eta: float | None = None
    dims: AnsatzDims | None = None
    state_sensitivity: float | None = None

    @property
    def noisy(self) -> bool:
        return self.sigma is not None


@dataclass(frozen=True)
class AnalyticProblem:
    """An initial value problem together with its closed-form solution."""

    field: Callable[[float, np.ndarray], np.ndarray]
    exact: Callable[[float], np.ndarray]
    y0: np.ndarray


@dataclass(frozen=True)
class BlackScholesSpec:
    """Market and contract parameters of a European call option."""

    volatility: float
    rate: float
    strike: float
    expiry: float
    grid: np.ndarray

    def __post_init__(self):
        if self.volatility <= 0:
            raise ValueError("volatility must be positive")
        if self.expiry <= 0:
            raise ValueError("expiry must be positive")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing with at least two points")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class HeatTransform:
    """Constants of the change of variables that turns the pricing PDE into
    the plain heat equation ``u_tau = u_xx / 2`` on log-price ``x``."""

    a: float
    b: float
    horizon: float


def scenario(name: str) -> Scenario:
    """Look up one of the registered parameter scenarios by name."""
    if name == "classical":
        return Scenario(
            name="classical",
            pb=ProblemBounds(lip_state=0.5, lip_time=3.1, field_bound=13.0, horizon=5.0, target_error=1e-3),
            a_max=1.0,
            b_max=1.0,
            error_const=5.0,
        )
    if name == "option_pricing":
        return Scenario(
            name="option_pricing",
            pb=ProblemBounds(lip_state=15.0, lip_time=15.0, field_bound=60.0, horizon=0.04, target_error=1e-3),
            a_max=1.0,
            b_max=1.0,
            error_const=5.0,
            sigma=3.4e8,
            eta=0.05,
            dims=AnsatzDims(n_params=25, n_strings=1, n_pauli=16),
            state_sensitivity=1.0,
        )
    if name == "tuned":
        base = scenario("option_pricing")
        return replace(
            base,
            name="tuned",
            pb=replace(base.pb, lip_state=0.1, horizon=4.0),
            b_max=0.5,
            error_const=20.0,
        )
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


# Override keys and where they land on the Scenario record.
_PB_KEYS = {"L_fy": "lip_state", "L_ftau": "lip_time", "M": "field_bound", "T": "horizon", "epsilon": "target_error"}
_SCALAR_KEYS = {"a_max": "a_max", "b_max": "b_max", "K": "error_const", "Sigma": "sigma", "eta": "eta", "S": "state_sensitivity"}
_DIM_KEYS = {"N_V": "n_params", "N_d": "n_strings", "N": "n_pauli"}


def parse_overrides(text: str) -> dict[str, float]:
    """Parse ``key=value`` lines; blank lines and ``#`` comments allowed."""
    overrides: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in {**_PB_KEYS, **_SCALAR_KEYS, **_DIM_KEYS}:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        overrides[key] = float(value)
    return overrides


def apply_overrides(base: Scenario, overrides: Mapping[str, float] | Path) -> Scenario:
    """Return a copy of ``base`` with selected constants replaced.

    ``overrides`` may be a mapping or the path of a file of ``key=value``
    lines (see :func:`parse_overrides`).  Unknown keys are rejected, and so
    are non-finite constants, ``eta`` outside (0, 1) and fractional
    dimensions, each with a message naming the key.
    """
    if isinstance(overrides, Path):
        overrides = parse_overrides(overrides.read_text())
    pb_kwargs, scalar_kwargs, dim_kwargs = {}, {}, {}
    for key, value in overrides.items():
        value = float(value)
        if key in _PB_KEYS:
            pb_kwargs[_PB_KEYS[key]] = value  # ProblemBounds checks these
        elif key in _SCALAR_KEYS:
            scalar_kwargs[_SCALAR_KEYS[key]] = _checked_scalar(key, value)
        elif key in _DIM_KEYS:
            if not value.is_integer():
                raise ValueError(f"{key} must be a whole number, got {value!r}")
            dim_kwargs[_DIM_KEYS[key]] = int(value)
        else:
            raise ValueError(f"unknown override key {key!r}")
    out = base
    if pb_kwargs:
        out = replace(out, pb=replace(out.pb, **pb_kwargs))
    if scalar_kwargs:
        out = replace(out, **scalar_kwargs)
    if dim_kwargs:
        dims = out.dims if out.dims is not None else AnsatzDims(n_params=1, n_strings=1, n_pauli=1)
        out = replace(out, dims=replace(dims, **dim_kwargs))
    return out


def _checked_scalar(key: str, value: float) -> float:
    """``value`` if it may stand for the scalar override ``key``: finite, and
    inside (0, 1) for ``eta``; otherwise a ValueError naming the key."""
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    if key == "eta" and not 0.0 < value < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {value!r}")
    return value


def override_value(sc: Scenario, key: str) -> float | None:
    """The value on ``sc`` of the constant a ``ProblemBounds`` or scalar
    override ``key`` sets (``None`` where ``sc`` leaves it unset), so that
    ``override_value(apply_overrides(sc, {key: v}), key) == v``."""
    if key in _PB_KEYS:
        return getattr(sc.pb, _PB_KEYS[key])
    return getattr(sc, _SCALAR_KEYS[key])


def exp_ode() -> AnalyticProblem:
    """The benchmark ODE ``y' = y / 2`` from y(0) = 1, solved by ``exp(tau / 2)``."""
    return AnalyticProblem(
        field=lambda tau, y: 0.5 * np.asarray(y, dtype=float),
        exact=lambda tau: np.array([math.exp(0.5 * tau)]),
        y0=np.array([1.0]),
    )


def bs_transform(spec: BlackScholesSpec) -> HeatTransform:
    """Change-of-variable constants mapping the pricing PDE to the heat equation.

    With ``rho = rate / volatility**2``: ``a = 1/2 - rho``,
    ``b = -a**2/2 - rho`` and the transformed horizon is
    ``expiry * volatility**2``.  Prices relate to the heat solution by
    ``V = exp(a*x + b*tau) * u`` on ``x = log(price)``, with transformed
    time running backwards from expiry.
    """
    rho = spec.rate / spec.volatility**2
    a = 0.5 - rho
    b = -0.5 * a**2 - rho
    return HeatTransform(a=a, b=b, horizon=spec.expiry * spec.volatility**2)


def payoff(price, strike) -> np.ndarray | float:
    """European call payoff ``max(price - strike, 0)``."""
    price = np.asarray(price, dtype=float)
    if np.any(price < 0) or np.any(np.asarray(strike) < 0):
        raise ValueError("price and strike must be non-negative")
    out = np.maximum(price - strike, 0.0)
    return float(out) if out.ndim == 0 else out


def heat_evolve(u0: np.ndarray, tau: float, dx: float) -> np.ndarray:
    """Evolve grid data under ``u_tau = u_xx / 2`` for time ``tau``.

    Applies the exact heat semigroup: discrete convolution with a sampled
    Gaussian kernel of variance ``tau``, normalized to unit mass, with zero
    padding beyond the grid.  This is a trusted reference propagator, not a
    time stepper; use a domain wide enough that the boundary padding is
    irrelevant.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if dx <= 0:
        raise ValueError("dx must be positive")
    u0 = np.asarray(u0, dtype=float)
    if not np.all(np.isfinite(u0)):
        raise ValueError("u0 must be finite")
    if tau == 0:
        return u0.copy()
    std = math.sqrt(tau)
    half = max(1, int(math.ceil(10.0 * std / dx)))
    offsets = np.arange(-half, half + 1) * dx
    kernel = np.exp(-(offsets**2) / (2.0 * tau))
    kernel /= kernel.sum()
    # The central len(u0) values of the full convolution; mode="same" would
    # return len(kernel) values when the kernel is the longer of the two.
    return np.convolve(u0, kernel, mode="full")[half : half + len(u0)]


def recover_price(p_x, gamma_inv: float, a: float, b: float, expiry: float, volatility: float, x) -> np.ndarray | float:
    """Invert the normalization and the heat-equation change of variables.

    ``gamma_inv * p_x * exp(a*x + b*expiry*volatility**2)``.  The exponent
    uses the full transformed horizon ``expiry * volatility**2``, which is
    what inverting the forward substitution requires.
    """
    p_x = np.asarray(p_x, dtype=float)
    if np.any(p_x < 0):
        raise ValueError("p_x must be non-negative")
    out = gamma_inv * p_x * np.exp(a * np.asarray(x, dtype=float) + b * expiry * volatility**2)
    return float(out) if out.ndim == 0 else out

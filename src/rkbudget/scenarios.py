"""Named parameter scenarios and the option-pricing reference problem.

The three registered scenarios pin the analytic constants used throughout
the budget tables: ``classical`` (a one-dimensional exponential-growth ODE
solved without noise), ``option_pricing`` (a European call priced via the
log-price heat equation with shot noise) and ``tuned`` (the option-pricing
setup with constants shifted to favor higher orders).  They are built once,
at import, and shared: the records are frozen.  Override files with
``key=value`` lines set, without touching code, the constants that the
bounds and budgets read, and no other: see :func:`parse_overrides`;
:func:`apply_overrides` returns a new record.

The module also carries the Black-Scholes machinery needed as a trusted
reference: the change of variables onto the heat equation, the call
payoff, the exact Gaussian-kernel heat propagator and the inverse map back
to prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class Scenario:
    """The constants that budget analysis reads, and no other.

    Noiseless scenarios leave ``sigma`` and ``dims`` unset; noisy ones must
    provide sigma.
    """

    name: str
    pb: ProblemBounds
    a_max: float
    b_max: float
    error_const: float
    sigma: float | None = None
    dims: AnsatzDims | None = None

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


_OPTION_PRICING = Scenario(
    name="option_pricing",
    pb=ProblemBounds(lip_state=15.0, lip_time=15.0, field_bound=60.0, horizon=0.04, target_error=1e-3),
    a_max=1.0,
    b_max=1.0,
    error_const=5.0,
    sigma=3.4e8,
    dims=AnsatzDims(n_params=25, n_strings=1, n_pauli=16),
)
_SCENARIOS = {
    "classical": Scenario(
        name="classical",
        pb=ProblemBounds(lip_state=0.5, lip_time=3.1, field_bound=13.0, horizon=5.0, target_error=1e-3),
        a_max=1.0,
        b_max=1.0,
        error_const=5.0,
    ),
    "option_pricing": _OPTION_PRICING,
    "tuned": replace(
        _OPTION_PRICING,
        name="tuned",
        pb=replace(_OPTION_PRICING.pb, lip_state=0.1, horizon=4.0),
        b_max=0.5,
        error_const=20.0,
    ),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def scenario(name: str) -> Scenario:
    """Look up one of the registered parameter scenarios by name; the record
    is shared, which its being frozen makes safe."""
    try:
        return _SCENARIOS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}") from None


# Override keys and where they land on the Scenario record.
_PB_KEYS = {"L_fy": "lip_state", "L_ftau": "lip_time", "M": "field_bound", "T": "horizon", "epsilon": "target_error"}
_SCALAR_KEYS = {"a_max": "a_max", "b_max": "b_max", "K": "error_const", "Sigma": "sigma"}
_DIM_KEYS = {"N_V": "n_params", "N_d": "n_strings", "N": "n_pauli"}
_OVERRIDE_KEYS = frozenset({**_PB_KEYS, **_SCALAR_KEYS, **_DIM_KEYS})


def parse_overrides(text: str) -> dict[str, float]:
    """Parse ``key=value`` lines; blank lines and ``#`` comments allowed.

    The keys are ``T, K, M, L_fy, L_ftau, epsilon, a_max, b_max, Sigma`` and
    the ansatz dimensions ``N_V, N_d, N``, each set once; every error names its line."""
    overrides: dict[str, float] = {}
    lines: dict[str, int] = {}  # the line that set each key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OVERRIDE_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if (first := lines.setdefault(key, lineno)) != lineno:
            raise ValueError(f"line {lineno}: key {key!r} is already set on line {first}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: {key} must be a number, got {value!r}") from None
    return overrides


def apply_overrides(base: Scenario, overrides: Mapping[str, float]) -> Scenario:
    """Return a copy of ``base`` with selected constants replaced.

    ``overrides`` maps override keys to values, as :func:`parse_overrides`
    reads them from a file.  Unknown keys are rejected, and so are
    non-finite constants and fractional dimensions, each with a message
    naming the key.
    """
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
    if not (pb_kwargs or scalar_kwargs or dim_kwargs):
        return base
    fields = {**vars(base), **scalar_kwargs}
    if pb_kwargs:  # the records are built directly, a quicker dataclasses.replace
        fields["pb"] = ProblemBounds(**{**vars(base.pb), **pb_kwargs})
    if dim_kwargs:
        dims = base.dims if base.dims is not None else AnsatzDims(n_params=1, n_strings=1, n_pauli=1)
        fields["dims"] = AnsatzDims(**{**vars(dims), **dim_kwargs})
    return Scenario(**fields)


def _checked_scalar(key: str, value: float) -> float:
    """``value`` if it may stand for the scalar override ``key`` (it is
    finite); otherwise a ValueError naming the key."""
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def override_value(sc: Scenario, key: str) -> float | None:
    """The value on ``sc`` of the constant a ``ProblemBounds`` or scalar
    override ``key`` sets (``None`` where ``sc`` leaves it unset), so that
    ``override_value(apply_overrides(sc, {key: v}), key) == v``."""
    if key in _PB_KEYS:
        return getattr(sc.pb, _PB_KEYS[key])
    return getattr(sc, _SCALAR_KEYS[key])


# exp_ode's rate as a read-only 0-d float64: under NEP 50 a Python-float
# operand costs the multiply a scalar conversion at every call, and the IEEE
# product is the same.  The multiply converts a list, a tuple or an int array
# to the float64 bits np.asarray(y, dtype=float) gives, so the field, which
# the stepper hands a float64 array at every stage, takes no asarray.
_HALF = np.array(0.5)
_HALF.setflags(write=False)


def exp_ode() -> AnalyticProblem:
    """The benchmark ODE ``y' = y / 2`` from y(0) = 1, solved by ``exp(tau / 2)``."""
    return AnalyticProblem(
        field=lambda tau, y: _HALF * y,
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


def recover_price(p_x, gamma_inv: float, transform: HeatTransform, x) -> np.ndarray | float:
    """Invert the normalization and the heat-equation change of variables.

    ``gamma_inv * p_x * exp(a*x + b*horizon)`` with ``a``, ``b`` and the
    transformed horizon of ``transform`` (see :func:`bs_transform`).
    """
    p_x = np.asarray(p_x, dtype=float)
    if np.any(p_x < 0):
        raise ValueError("p_x must be non-negative")
    out = gamma_inv * p_x * np.exp(transform.a * np.asarray(x, dtype=float) + transform.b * transform.horizon)
    return float(out) if out.ndim == 0 else out

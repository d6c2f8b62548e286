"""Randomized single-frequency surrogate for the parameter-ODE coefficients.

Expectation values of layered parameterized circuits behave like truncated
Fourier series in the parameters, so a cheap stand-in for the matrix ``A``
and vector ``C`` of the parameter ODE draws every entry as

    w(t) = a1 * cos(a2 * t + a3) + a4 * sin(a5 * t)

with amplitudes near one and frequencies/phases near zero.  Sampling many
such systems gives working estimates for condition numbers, norms and the
Lipschitz landscape of ``A^{-1} C``, and an empirical oracle for the
first-order perturbation bound of linear solves.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Iterable, Sequence

import numpy as np

from .formats import FLOAT_FORMAT, csv_text

__all__ = [
    "ToyParams",
    "ToySystem",
    "StudyPoint",
    "STUDY_KEYS",
    "SingularMatrixError",
    "sample_toy",
    "condition_number",
    "kappa_study",
    "norm_study",
    "lip_surface",
    "shot_noise_norms",
    "perturbation_bound",
    "perturbation_empirical",
    "study_to_csv",
    "lip_surface_to_csv",
]

# Draws with Frobenius condition number above this are treated as
# ill-conditioned outliers: excluded from quantile statistics and counted.
ILL_CONDITIONED_CUTOFF = 1e12

_AMP_MEAN, _AMP_SD = 1.0, 0.1
_FREQ_MEAN, _FREQ_SD = 0.0, 0.1


class SingularMatrixError(np.linalg.LinAlgError):
    """The coefficient matrix is singular (or numerically so)."""


@dataclass(frozen=True)
class ToyParams:
    """Frozen Fourier coefficients: ``a_coeffs[k, l]`` and ``c_coeffs[k]``
    each hold the five per-entry parameters (amp1, freq1, phase, amp2, freq2)."""

    a_coeffs: np.ndarray  # (n, n, 5)
    c_coeffs: np.ndarray  # (n, 5)

    def __post_init__(self):
        a = np.asarray(self.a_coeffs, dtype=float)
        c = np.asarray(self.c_coeffs, dtype=float)
        n = c.shape[0]
        if a.shape != (n, n, 5) or c.shape != (n, 5):
            raise ValueError(f"expected shapes ({n},{n},5) and ({n},5), got {a.shape} and {c.shape}")
        object.__setattr__(self, "a_coeffs", a)
        object.__setattr__(self, "c_coeffs", c)

    @property
    def n_params(self) -> int:
        return self.c_coeffs.shape[0]

    def matrix(self, theta: float) -> np.ndarray:
        return _entries(self.a_coeffs, theta)

    def vector(self, theta: float) -> np.ndarray:
        return _entries(self.c_coeffs, theta)

    def system(self, theta: float) -> "ToySystem":
        return ToySystem(a=self.matrix(theta), c=self.vector(theta), theta=theta)


@dataclass(frozen=True)
class ToySystem:
    """One sampled linear system ``A f = C`` evaluated at scalar input ``theta``."""

    a: np.ndarray
    c: np.ndarray
    theta: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(c))):
            raise ValueError("system entries must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class StudyPoint:
    """Quantile summary of one Monte Carlo study at a fixed dimension."""

    n_params: int
    median: float
    q16: float
    q84: float
    excluded: int


# Artifact column names of the StudyPoint fields, in field order.
STUDY_KEYS = ("N_V", "median", "q16", "q84", "excluded")


def _entries(coeffs: np.ndarray, theta: float) -> np.ndarray:
    a1, a2, a3, a4, a5 = np.moveaxis(coeffs, -1, 0)
    return a1 * np.cos(a2 * theta + a3) + a4 * np.sin(a5 * theta)


def _draw_coeffs(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    out = np.empty(shape + (5,))
    out[..., 0] = rng.normal(_AMP_MEAN, _AMP_SD, shape)
    out[..., 1] = rng.normal(_FREQ_MEAN, _FREQ_SD, shape)
    out[..., 2] = rng.normal(_FREQ_MEAN, _FREQ_SD, shape)
    out[..., 3] = rng.normal(_AMP_MEAN, _AMP_SD, shape)
    out[..., 4] = rng.normal(_FREQ_MEAN, _FREQ_SD, shape)
    return out


def sample_toy(
    n_params: int,
    theta: float = 0.5,
    rng: np.random.Generator | int | Sequence[int] | None = None,
) -> tuple[ToySystem, ToyParams]:
    """Draw fresh Fourier coefficients and evaluate them at ``theta``.

    The same seed reproduces the same system bit for bit.
    """
    if n_params < 1:
        raise ValueError("n_params must be at least 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    params = ToyParams(a_coeffs=_draw_coeffs(rng, (n_params, n_params)), c_coeffs=_draw_coeffs(rng, (n_params,)))
    return params.system(theta), params


def condition_number(a: np.ndarray) -> float:
    """Frobenius-norm condition number ``||A||_F * ||A^{-1}||_F``.

    Always at least the dimension (equality for scaled identities).
    Raises :class:`SingularMatrixError` for singular input.
    """
    a = np.asarray(a, dtype=float)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is singular") from exc
    kappa = float(np.linalg.norm(a, "fro") * np.linalg.norm(a_inv, "fro"))
    if not math.isfinite(kappa):
        raise SingularMatrixError("matrix is numerically singular")
    return kappa


def _study_rng(seed, nv: int, index: int) -> np.random.Generator:
    # Streams keyed by (seed, dimension, draw index): deterministic and
    # independent of evaluation order.
    return np.random.default_rng((seed, nv, index))


def _screened(nv: int, samples: int, theta: float, seed, measure) -> tuple[list, int]:
    """Draw ``samples`` systems of dimension ``nv`` from their ``(seed, nv, i)``
    streams and return ``measure(system, kappa)`` of every well-conditioned
    draw, with the count of singular or ill-conditioned draws excluded."""
    values = []
    for i in range(samples):
        system, _ = sample_toy(nv, theta, _study_rng(seed, nv, i))
        try:
            kappa = condition_number(system.a)
        except SingularMatrixError:
            continue
        if kappa <= ILL_CONDITIONED_CUTOFF:
            values.append(measure(system, kappa))
    return values, samples - len(values)


def _norms(system: ToySystem, kappa: float) -> tuple[float, float, float]:
    return (
        float(np.linalg.norm(system.a, "fro")),
        float(np.linalg.norm(system.c)),
        float(np.linalg.norm(np.linalg.solve(system.a, system.c))),
    )


def kappa_study(
    nv_grid: Iterable[int],
    samples: int,
    theta: float = 0.5,
    seed: int = 0,
) -> list[StudyPoint]:
    """Median and 16/84 quantiles of the condition number per dimension.

    Ill-conditioned draws (condition number above
    ``ILL_CONDITIONED_CUTOFF``, or outright singular) are excluded from the
    statistics and reported in the ``excluded`` count.
    """
    if samples < 30:
        raise ValueError("need at least 30 samples per grid point")
    return [_summary(nv, *_screened(nv, samples, theta, seed, lambda system, kappa: kappa)) for nv in nv_grid]


def norm_study(
    nv_grid: Iterable[int],
    samples: int,
    theta: float = 0.5,
    seed: int = 0,
) -> dict[str, list[StudyPoint]]:
    """Quantile studies of ``||A||_F``, ``||C||_2`` and ``||A^{-1}C||_2``.

    Returns one study per norm under keys ``norm_A``, ``norm_C`` and
    ``norm_AinvC``; draws excluded for ill conditioning are dropped from
    all three, so the per-dimension counts line up.
    """
    if samples < 30:
        raise ValueError("need at least 30 samples per grid point")
    studies: dict[str, list[StudyPoint]] = {"norm_A": [], "norm_C": [], "norm_AinvC": []}
    for nv in nv_grid:
        norms, excluded = _screened(nv, samples, theta, seed, _norms)
        for k, study in enumerate(studies.values()):
            study.append(_summary(nv, [row[k] for row in norms], excluded))
    return studies


def _summary(nv: int, values: list[float], excluded: int) -> StudyPoint:
    if not values:
        return StudyPoint(n_params=nv, median=math.nan, q16=math.nan, q84=math.nan, excluded=excluded)
    arr = np.array(values)
    return StudyPoint(
        n_params=nv,
        median=float(np.median(arr)),
        q16=float(np.quantile(arr, 0.16)),
        q84=float(np.quantile(arr, 0.84)),
        excluded=excluded,
    )


def lip_surface(params: ToyParams, grid1: np.ndarray, grid2: np.ndarray) -> np.ndarray:
    """Difference-quotient surface ``||f(t1) - f(t2)|| / |t1 - t2|`` of the
    solution map ``f(t) = A(t)^{-1} C(t)`` for one fixed coefficient draw.

    Cells where the two inputs coincide, or where the matrix is singular,
    are flagged with NaN rather than aborting the surface.
    """
    grid1 = np.asarray(grid1, dtype=float)
    grid2 = np.asarray(grid2, dtype=float)
    # One solve per distinct input; a singular one leaves its row NaN.
    thetas, index = np.unique(np.concatenate([grid1, grid2]), return_inverse=True)
    solutions = np.full((len(thetas), params.n_params), np.nan)
    for row, theta in zip(solutions, thetas):
        try:
            row[:] = np.linalg.solve(params.matrix(theta), params.vector(theta))
        except np.linalg.LinAlgError:
            pass
    f1 = solutions[index[: len(grid1)]]
    f2 = solutions[index[len(grid1) :]]
    surface = np.empty((len(grid1), len(grid2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for out, t1, fa in zip(surface, grid1, f1):
            d = f2 - fa
            # Row norms as dot products, like np.linalg.norm of one difference.
            out[:] = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0]) / np.abs(t1 - grid2)
    surface[grid1[:, None] == grid2] = np.nan  # undefined there, not merely 0/0
    return surface


def shot_noise_norms(f_mags, lambda_mags) -> tuple[float, float]:
    """Aggregate deviation norms of the estimated linear system.

    Per-entry deviations are ``sigma_kl = sqrt(sum_ij |f_ki f_lj|^2)`` for
    the matrix and ``sigma_k = sqrt(sum_im |f_ki lambda_m|^2)`` for the
    vector; returns the Frobenius norm of the matrix of sigma_kl and the
    2-norm of the vector of sigma_k.
    """
    f_mags = np.atleast_2d(np.asarray(f_mags, dtype=float))
    lambda_mags = np.atleast_1d(np.asarray(lambda_mags, dtype=float))
    row_sq = np.sum(np.abs(f_mags) ** 2, axis=1)  # sum_i |f_ki|^2 per parameter k
    sigma_kl = np.sqrt(np.outer(row_sq, row_sq))
    sigma_k = np.sqrt(row_sq * np.sum(np.abs(lambda_mags) ** 2))
    return float(np.linalg.norm(sigma_kl, "fro")), float(np.linalg.norm(sigma_k))


def perturbation_bound(a, c, r_mat, r_vec, xi: float) -> float:
    """First-order bound on the relative solution error of a disturbed solve.

    ``xi * kappa(A) * (||r_vec|| / ||C|| + ||r_mat||_F / ||A||_F)``; the
    second-order remainder is excluded.  Matrix norms are Frobenius,
    vector norms Euclidean.
    """
    if xi < 0:
        raise ValueError("xi must be non-negative")
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    kappa = condition_number(a)
    return xi * kappa * (
        np.linalg.norm(np.asarray(r_vec, dtype=float)) / np.linalg.norm(c)
        + np.linalg.norm(np.asarray(r_mat, dtype=float), "fro") / np.linalg.norm(a, "fro")
    )


def perturbation_empirical(a, c, r_mat, r_vec, xi: float) -> float:
    """Actual relative solution error of the disturbed solve
    ``(A + xi R) f_hat = C + xi r`` against ``A f = C``."""
    if xi < 0:
        raise ValueError("xi must be non-negative")
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    try:
        f = np.linalg.solve(a, c)
        f_hat = np.linalg.solve(a + xi * np.asarray(r_mat, dtype=float), c + xi * np.asarray(r_vec, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("singular system in empirical perturbation check") from exc
    return float(np.linalg.norm(f_hat - f) / np.linalg.norm(f))


def study_to_csv(points: Sequence[StudyPoint]) -> str:
    """Study summary as CSV with columns ``N_V,median,q16,q84,excluded``."""
    return csv_text(STUDY_KEYS, map(astuple, points))


def lip_surface_to_csv(surface: np.ndarray, grid1: np.ndarray, grid2: np.ndarray) -> str:
    """Surface as a CSV grid; first row and column carry the axis values."""
    # One format pattern per row: csv_text's per-cell writer takes ~1.2x as long on a 200x200 surface.
    cells = ",".join([FLOAT_FORMAT] * len(grid2))
    lines = ["theta1/theta2," + cells % tuple(np.asarray(grid2, dtype=float).tolist()) + "\n"]
    row_format = FLOAT_FORMAT + "," + cells + "\n"
    lines += [row_format % (t1, *row.tolist()) for t1, row in zip(grid1, np.asarray(surface, dtype=float))]
    return "".join(lines)

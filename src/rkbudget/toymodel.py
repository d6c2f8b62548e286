"""Randomized single-frequency surrogate for the parameter-ODE coefficients.

Expectation values of layered parameterized circuits behave like truncated
Fourier series in the parameters, so a cheap stand-in for the matrix ``A``
and vector ``C`` of the parameter ODE draws every entry as

    w(t) = a1 * cos(a2 * t + a3) + a4 * sin(a5 * t)

with amplitudes near one and frequencies/phases near zero.  Sampling many
such systems gives working estimates for condition numbers, norms and the
Lipschitz landscape of ``A^{-1} C``, and an empirical oracle for the
first-order perturbation bound of linear solves.

:func:`condition_number` measures one matrix or a stack of them; one matrix
is a stack of one.  The condition-number and norm studies measure their
draws in chunks of consecutive draws, with one ``condition_number`` call and
stacked LAPACK calls per chunk; the chunks bound the memory a study holds at
once.  From 256 to fewer than 10^4 matrix entries two chunks are in flight
at once: the calling thread measures chunk ``2k`` while one helper thread per
study measures chunk ``2k + 1``, each into its own rows.  Other dimensions
are measured one chunk after another on the calling thread.  A chunk's
coefficients are drawn stream by stream, then scaled and evaluated in one
pass over the chunk; :func:`sample_toy` draws one system as a chunk of one.
Each draw has its own seeded stream and every entry goes through the same
elementwise operations, so the results do not depend on the chunk size or on
the thread that measures a chunk.  They can depend on the BLAS library's
threading: OpenBLAS factorizes matrices of 10^4 entries or more on several
threads, which can round differently from one, and below that on one.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import deque
from dataclasses import astuple, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._streams import KeyedStreams
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


@dataclass(frozen=True)
class ToySystem:
    """One sampled linear system ``A f = C``, evaluated by :func:`sample_toy`
    at the scalar input 0.5."""

    a: np.ndarray
    c: np.ndarray

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


def _entries(coeffs: np.ndarray, theta, axis: int = -1) -> np.ndarray:
    """Entries ``a1 * cos(a2 * theta + a3) + a4 * sin(a5 * theta)`` of
    coefficients whose five parameters lie along ``axis``, evaluated with
    in-place ufuncs into two temporaries.

    ``theta`` broadcasts against the entry shape: a scalar, or e.g.
    ``(T, 1, 1)`` for T matrices.  Every element goes through the same
    operations, so its bits do not depend on the shape it is evaluated in.
    """
    a1, a2, a3, a4, a5 = np.moveaxis(coeffs, axis, 0)
    out = np.multiply(a2, theta)
    out += a3
    np.cos(out, out=out)
    out *= a1
    sine = np.multiply(a5, theta)
    np.sin(sine, out=sine)
    sine *= a4
    out += sine
    return out


# Per-plane mean and spread of the coefficients (amp1, freq1, phase, amp2, freq2).
_PLANE_MEAN = np.array([_AMP_MEAN, _FREQ_MEAN, _FREQ_MEAN, _AMP_MEAN, _FREQ_MEAN])
_PLANE_SD = np.array([_AMP_SD, _FREQ_SD, _FREQ_SD, _AMP_SD, _FREQ_SD])


def _draw_planes(streams: Iterable[np.random.Generator], count: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient planes ``(count, 5, nv, nv)`` of A and ``(count, 5, nv)`` of
    C for the next ``count`` draws, one from each of the next ``count`` streams.

    Each stream fills its draw's A planes, then its C planes, with one
    standard-normal call each; the chunk is then scaled once to
    ``mean + sd * z``, the bits of ``rng.normal(mean, sd)`` plane by plane.
    """
    a = np.empty((count, 5, nv, nv))
    c = np.empty((count, 5, nv))
    for k, rng in enumerate(itertools.islice(streams, count)):
        rng.standard_normal(out=a[k])
        rng.standard_normal(out=c[k])
    for planes in (a, c):
        scale = (5,) + (1,) * (planes.ndim - 2)
        planes *= _PLANE_SD.reshape(scale)
        planes += _PLANE_MEAN.reshape(scale)
    return a, c


def _check_draws(n_params: int = 1, samples: int = 30) -> None:
    """The rules of a draw's dimension and a study's sample count; the defaults pass."""
    if n_params < 1:
        raise ValueError(f"n_params must be at least 1, got {n_params}")
    if samples < 30:
        raise ValueError(f"need at least 30 samples per grid point, got {samples}")


def sample_toy(
    n_params: int,
    rng: np.random.Generator | int | Sequence[int] | None = None,
) -> tuple[ToySystem, ToyParams]:
    """Draw fresh Fourier coefficients and evaluate them at 0.5, the studies'
    default input.

    The same seed reproduces the same system bit for bit.
    """
    _check_draws(n_params)
    a, c = _draw_planes([np.random.default_rng(rng)], 1, n_params)  # a study chunk of one draw
    system = ToySystem(a=_entries(a, 0.5, 1)[0], c=_entries(c, 0.5, 1)[0])
    return system, ToyParams(a_coeffs=np.moveaxis(a[0], 0, -1), c_coeffs=np.moveaxis(c[0], 0, -1))


# Matrix entries per chunk of study draws (256 kB per stacked array): small
# enough to bound the memory of a study, large enough to amortize the
# per-call overhead over the draws of small dimensions.
_CHUNK_ENTRIES = 1 << 15

# Dimensions whose matrices have this many entries are measured two chunks at a
# time.  Below 10^4 entries OpenBLAS factorizes on one thread, so the bits do
# not depend on what else runs.  Below 256 the Python work of each draw, which
# holds the interpreter lock, outweighs what a second thread saves: on 2 cores
# a draw took 12.7 us alone and 27.5 us paired at N_V = 8, 30.6 and 32.2 us at
# N_V = 14, and 38.7 and 24.5 us at N_V = 16.  Other dimensions are measured
# one chunk at a time.
_PAIRED_ENTRIES = range(16**2, 10**4)


def _norm_each(stack: np.ndarray) -> np.ndarray:
    # 2-norm of each item (Frobenius for matrices) as a dot product, bitwise
    # equal to np.linalg.norm of that item; np.linalg.norm(axis=...) is not.
    d = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _each_matrix(op, *stacks: np.ndarray) -> np.ndarray:
    """``op`` on stacks whose items are one matrix (or system) each, returning
    one item of the last stack's shape per matrix.  When LAPACK rejects a
    singular matrix, retries item by item and leaves NaN for the singular ones."""
    try:
        return op(*stacks)
    except np.linalg.LinAlgError:
        out = np.full(stacks[-1].shape, np.nan)
        for k, items in enumerate(zip(*stacks)):
            try:
                out[k] = op(*items)
            except np.linalg.LinAlgError:
                pass
        return out


def _solve(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solutions of ``a[k] x = c[k]``, NaN for a singular ``a[k]``."""
    return _each_matrix(lambda m, v: np.linalg.solve(m, v[..., None])[..., 0], a, c)


def condition_number(a: np.ndarray) -> float | np.ndarray:
    """Frobenius-norm condition number ``||A||_F * ||A^{-1}||_F`` of one
    ``(n, n)`` matrix, or of each matrix of a ``(k, n, n)`` stack.

    Always at least the dimension (equality for scaled identities).  A stack
    is inverted with one stacked call and gives an array: NaN for a singular
    matrix, inf where the product overflows.  One matrix is measured as a
    stack of one and gives a float; it raises :class:`SingularMatrixError`
    where a stack would give NaN or inf.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected an (n, n) matrix or a (k, n, n) stack, got shape {a.shape}")
    stack = a[None] if a.ndim == 2 else a
    with np.errstate(over="ignore"):  # an overflowing product is reported as inf
        kappa = _norm_each(stack) * _norm_each(_each_matrix(np.linalg.inv, stack))
    if a.ndim == 3:
        return kappa
    kappa = float(kappa[0])
    if math.isnan(kappa):
        raise SingularMatrixError("matrix is singular")
    if math.isinf(kappa):
        raise SingularMatrixError("matrix is numerically singular")
    return kappa


def _measure(a: np.ndarray, c: np.ndarray, norms: bool) -> np.ndarray:
    """One row per system ``a[k] x = c[k]``: the condition number of
    ``a[k]``, then with ``norms`` ``||A||_F``, ``||C||_2`` and
    ``||A^{-1}C||_2``.  Singular and ill-conditioned systems get NaN rows."""
    kappa = condition_number(a)
    keep = kappa <= ILL_CONDITIONED_CUTOFF  # false for singular (NaN) and overflowing condition numbers
    rows = np.full((len(a), 4 if norms else 1), np.nan)
    rows[keep, 0] = kappa[keep]
    if norms:
        a, c = a[keep], c[keep]
        rows[keep, 1:] = np.stack([_norm_each(a), _norm_each(c), _norm_each(_solve(a, c))], axis=1)
    return rows


def _measure_chunk(
    nv: int, streams: Iterator[np.random.Generator], count: int, theta: float, norms: bool
) -> np.ndarray:
    """:func:`_measure` of the next ``count`` study draws of dimension ``nv``,
    one from each of the next ``count`` streams."""
    a_planes, c_planes = _draw_planes(streams, count, nv)
    a, c = _entries(a_planes, theta, 1), _entries(c_planes, theta, 1)
    if not (np.isfinite(a).all() and np.isfinite(c).all()):
        raise ValueError("system entries must be finite")
    return _measure(a, c, norms)


class _Helper:
    """One helper thread for a study, started on first use and joined when
    the ``with`` block ends, that runs one task at a time beside the caller."""

    def __init__(self):
        import queue  # here, not at the top: commands that run no study never load it

        self._tasks, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> _Helper:
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._tasks.put(None)
            self._thread.join()

    def _work(self) -> None:
        while (task := self._tasks.get()) is not None:
            error = None
            try:
                task()
            except BaseException as caught:  # handed to the caller, which raises it
                error = caught
            del task  # with it the chunk's streams, before the next dimension seeds its own
            self._done.put(error)

    def pair(self, here: Callable[[], None], there: Callable[[], None] | None = None) -> None:
        """Run ``here`` on the calling thread while ``there`` runs on the helper,
        and return once both have; raise the error of ``here``, else that of ``there``."""
        if there is None:
            return here()
        if self._thread is None:
            self._thread = threading.Thread(target=self._work, name="rkbudget-study-helper")
            self._thread.start()
        self._tasks.put(there)
        here()  # should it raise, leaving the ``with`` block waits for ``there``
        error = self._done.get()
        if error is not None:
            raise error


def _measure_dimension(helper: _Helper, measures: np.ndarray, nv: int, theta: float, seed, norms: bool) -> None:
    """Fill ``measures`` with the measures of the study draws of dimension
    ``nv``, draw ``i`` in row ``i``, chunk by chunk.  Where ``nv * nv`` is in
    ``_PAIRED_ENTRIES`` chunk ``2k`` runs on the calling thread while chunk
    ``2k + 1`` runs on the helper."""
    samples = len(measures)
    size = max(1, _CHUNK_ENTRIES // (nv * nv))
    lanes = 2 if nv * nv in _PAIRED_ENTRIES else 1
    streams = KeyedStreams((seed, nv), range(samples))
    # Each lane, chunks j % lanes, walks the streams once; two lanes pass over each other's chunks.
    walks = [iter(streams) for _ in range(lanes)]

    def measure(j: int) -> None:
        start = j * size
        skip = size if lanes == 2 and j else 0
        chunk = itertools.islice(walks[j % lanes], skip, None)
        measures[start:start + size] = _measure_chunk(nv, chunk, min(size, samples - start), theta, norms)

    chunks = [functools.partial(measure, j) for j in range(-(-samples // size))]
    for j in range(0, len(chunks), lanes):
        helper.pair(*chunks[j:j + lanes])


def _study(nv_grid: Iterable[int], samples: int, theta: float, seed, norms: bool) -> list[tuple[int, np.ndarray, int]]:
    """``(nv, measures, excluded)`` per dimension of the grid, the measures of
    the well-conditioned draws in index order.

    Each dimension's draws are measured in chunks of consecutive indices,
    draw ``i`` from the stream ``np.random.default_rng((seed, nv, i))``:
    deterministic and independent of evaluation order.
    """
    _check_draws(samples=samples)
    grid = list(nv_grid)
    for nv in grid:
        _check_draws(nv)
    rows = np.empty((len(grid), samples, 4 if norms else 1))
    with _Helper() as helper:
        for nv, measures in zip(grid, rows):
            _measure_dimension(helper, measures, nv, theta, seed, norms)
    out = []
    for nv, draws in zip(grid, rows):
        kept = draws[~np.isnan(draws[:, 0])]
        out.append((nv, kept[:, 1:] if norms else kept[:, 0], samples - len(kept)))
    return out


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
    return [_summary(nv, kappas, excluded) for nv, kappas, excluded in _study(nv_grid, samples, theta, seed, False)]


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
    studies: dict[str, list[StudyPoint]] = {"norm_A": [], "norm_C": [], "norm_AinvC": []}
    for nv, rows, excluded in _study(nv_grid, samples, theta, seed, True):
        for k, study in enumerate(studies.values()):
            study.append(_summary(nv, rows[:, k], excluded))
    return studies


def _summary(nv: int, values: np.ndarray, excluded: int) -> StudyPoint:
    if not len(values):
        return StudyPoint(n_params=nv, median=math.nan, q16=math.nan, q84=math.nan, excluded=excluded)
    return StudyPoint(
        n_params=nv,
        median=float(np.median(values)),
        q16=float(np.quantile(values, 0.16)),
        q84=float(np.quantile(values, 0.84)),
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
    # One stacked solve per chunk of distinct inputs; a singular one leaves its row NaN.
    thetas, index = np.unique(np.concatenate([grid1, grid2]), return_inverse=True)
    size = max(1, _CHUNK_ENTRIES // params.n_params**2)
    solutions = np.concatenate([
        _solve(_entries(params.a_coeffs, t[:, None, None]), _entries(params.c_coeffs, t[:, None]))
        for t in np.split(thetas, range(size, len(thetas), size))
    ])
    f1 = solutions[index[: len(grid1)]]
    f2 = solutions[index[len(grid1) :]]
    surface = np.empty((len(grid1), len(grid2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for out, t1, fa in zip(surface, grid1, f1):
            out[:] = _norm_each(f2 - fa) / np.abs(t1 - grid2)
    surface[grid1[:, None] == grid2] = np.nan  # undefined there, not merely 0/0
    return surface


def _disturbed_system(a, c, xi: float) -> tuple[np.ndarray, np.ndarray]:
    """``A`` and ``C`` as float arrays, once the disturbance size ``xi`` passes its rule."""
    if xi < 0:
        raise ValueError("xi must be non-negative")
    return np.asarray(a, dtype=float), np.asarray(c, dtype=float)


def perturbation_bound(a, c, r_mat, r_vec, xi: float) -> float:
    """First-order bound on the relative solution error of a disturbed solve.

    ``xi * kappa(A) * (||r_vec|| / ||C|| + ||r_mat||_F / ||A||_F)``; the
    second-order remainder is excluded.  Matrix norms are Frobenius,
    vector norms Euclidean.
    """
    a, c = _disturbed_system(a, c, xi)
    kappa = condition_number(a)
    return xi * kappa * (
        np.linalg.norm(np.asarray(r_vec, dtype=float)) / np.linalg.norm(c)
        + np.linalg.norm(np.asarray(r_mat, dtype=float), "fro") / np.linalg.norm(a, "fro")
    )


def perturbation_empirical(a, c, r_mat, r_vec, xi: float) -> float:
    """Actual relative solution error of the disturbed solve
    ``(A + xi R) f_hat = C + xi r`` against ``A f = C``."""
    a, c = _disturbed_system(a, c, xi)
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
    """Surface as a CSV grid; first row and column carry the axis values.

    The surface must have shape ``(len(grid1), len(grid2))``.  A square
    surface equal to its own transpose bit for bit, as every surface over one
    grid is, has each mirrored pair of cells formatted once: row ``i`` formats
    its cells ``j >= i`` and hands each cell ``(i, j > i)`` to row ``j``,
    which writes it and then drops it, so no cell's text outlives its mirrored
    row.  Any other surface is formatted row by row.  Each row takes one
    ``%`` pattern, which is faster than ``csv_text``'s per-cell writer.
    """
    surface = np.asarray(surface, dtype=float)
    shape = (len(grid1), len(grid2))
    if surface.shape != shape:
        raise ValueError(f"surface shape {surface.shape} does not match (len(grid1), len(grid2)) = {shape}")
    cells = ",".join([FLOAT_FORMAT] * shape[1])
    lines = ["theta1/theta2," + cells % tuple(np.asarray(grid2, dtype=float).tolist()) + "\n"]
    bits = surface.view(np.uint64)
    if shape[0] != shape[1] or not np.array_equal(bits, bits.T):
        row_format = FLOAT_FORMAT + "," + cells + "\n"
        lines += [row_format % (t1, *row.tolist()) for t1, row in zip(grid1, surface)]
        return "".join(lines)
    pending = deque([] for _ in grid1)  # row j's texts of the cells (i < j, j), from row i
    for i, (t1, row) in enumerate(zip(grid1, surface)):
        upper = ",".join([FLOAT_FORMAT] * (shape[0] - i)) % tuple(row[i:].tolist())
        lines.append(",".join([FLOAT_FORMAT % t1, *pending.popleft(), upper]) + "\n")
        for later, text in zip(pending, upper.split(",")[1:]):
            later.append(text)
    return "".join(lines)

import math
import re
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rkbudget import toymodel
from rkbudget._streams import KeyedStreams
from rkbudget.toymodel import (
    ILL_CONDITIONED_CUTOFF,
    SingularMatrixError,
    ToyParams,
    condition_number,
    kappa_study,
    lip_surface,
    lip_surface_to_csv,
    norm_study,
    perturbation_bound,
    perturbation_empirical,
    sample_toy,
    study_to_csv,
)


def constant_params(nv, amp1=1.0, freq1=0.0, phase=0.0, amp2=1.0, freq2=0.0):
    a = np.zeros((nv, nv, 5))
    c = np.zeros((nv, 5))
    for coeffs in (a, c):
        coeffs[..., 0] = amp1
        coeffs[..., 1] = freq1
        coeffs[..., 2] = phase
        coeffs[..., 3] = amp2
        coeffs[..., 4] = freq2
    return ToyParams(a_coeffs=a, c_coeffs=c)


# -- sampling ------------------------------------------------------------------


def test_degenerate_coefficients_give_unit_entries():
    # zero frequencies and phases: cos(0) + sin(0) contributes the first amplitude only
    params = constant_params(4)
    np.testing.assert_array_equal(toymodel._entries(params.a_coeffs, 0.7), np.ones((4, 4)))
    np.testing.assert_array_equal(toymodel._entries(params.c_coeffs, 0.7), np.ones(4))


def test_zero_input_drops_sine_term():
    params = constant_params(3, amp1=2.0, phase=0.4, amp2=5.0, freq2=3.0)
    np.testing.assert_allclose(toymodel._entries(params.a_coeffs, 0.0), 2.0 * math.cos(0.4), rtol=1e-15)
    np.testing.assert_allclose(toymodel._entries(params.c_coeffs, 0.0), 2.0 * math.cos(0.4), rtol=1e-15)


def test_entry_distribution_centered_near_one():
    # amplitudes are drawn near one and the oscillation arguments stay small,
    # so entries average close to one
    entries = []
    for i in range(16):
        system, _ = sample_toy(25, rng=(99, i))
        entries.append(system.a.ravel())
    entries = np.concatenate(entries)
    assert entries.size >= 10_000
    assert 0.9 <= entries.mean() <= 1.1


def test_sampling_is_seed_deterministic():
    sys_a, par_a = sample_toy(6, rng=42)
    sys_b, par_b = sample_toy(6, rng=42)
    sys_c, _ = sample_toy(6, rng=43)
    assert np.array_equal(sys_a.a, sys_b.a)
    assert np.array_equal(sys_a.c, sys_b.c)
    assert np.array_equal(par_a.a_coeffs, par_b.a_coeffs)
    assert not np.array_equal(sys_a.a, sys_c.a)


def test_sample_rejects_bad_dimension():
    with pytest.raises(ValueError):
        sample_toy(0)


# -- condition numbers ---------------------------------------------------------


def test_condition_number_identity():
    assert condition_number(np.eye(2)) == pytest.approx(2.0, rel=1e-14)
    assert condition_number(np.eye(5)) == pytest.approx(5.0, rel=1e-14)


def test_condition_number_diagonal():
    # closed form for diagonal matrices: sqrt(sum d_i^2) * sqrt(sum d_i^-2)
    kappa = condition_number(np.diag([1.0, 1e-8]))
    expected = math.sqrt(1.0 + 1e-16) * math.sqrt(1.0 + 1e16)
    assert kappa == pytest.approx(expected, rel=1e-12)


def test_condition_number_scale_invariant():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8)) + 8 * np.eye(8)
    assert condition_number(3.7 * a) == pytest.approx(condition_number(a), rel=1e-10)


def test_condition_number_singular():
    with pytest.raises(SingularMatrixError):
        condition_number(np.ones((3, 3)))


def test_kappa_study_scalar_dimension():
    points = kappa_study([1], samples=30, seed=1)
    assert points[0].median == pytest.approx(1.0)
    assert points[0].q16 == pytest.approx(1.0)
    assert points[0].q84 == pytest.approx(1.0)


def test_kappa_study_polynomial_window():
    points = kappa_study([25, 50], samples=100, seed=7)
    by_nv = {p.n_params: p for p in points}
    assert 25**2 <= by_nv[25].median <= 25**3
    assert by_nv[50].median <= 50**3
    for p in points:
        assert p.q16 <= p.median <= p.q84
        assert p.excluded + 1 <= 100


def test_kappa_study_deterministic():
    a = kappa_study([10], samples=40, seed=3)
    b = kappa_study([10], samples=40, seed=3)
    assert a == b


def test_study_requires_enough_samples():
    with pytest.raises(ValueError):
        kappa_study([10], samples=10)
    with pytest.raises(ValueError):
        norm_study([10], samples=29)


def test_norm_study_scalings():
    studies = norm_study([25], samples=100, seed=11)
    a_point = studies["norm_A"][0]
    c_point = studies["norm_C"][0]
    assert 0.5 * 25 <= a_point.median <= 2 * 25
    assert 0.5 * 5 <= c_point.median <= 2 * 5


def test_norm_study_solution_cap():
    # the solution norm stays below 60 at the upper quantile for most of the
    # dimension range
    grid = list(range(10, 101, 10))
    studies = norm_study(grid, samples=60, seed=2)
    hits = sum(p.q84 <= 60.0 for p in studies["norm_AinvC"])
    assert hits >= 0.8 * len(grid)


# -- the chunked study pipeline ---------------------------------------------------


def reference_draw(nv, theta, rng):
    """Frozen copy of the per-draw sampling that the chunked fill, scale and
    evaluate replaced: five normal planes per coefficient array, scaled to
    ``mean + sd * z`` plane by plane, and entries evaluated with plain
    (not in-place) ufuncs.  Returns ``(A, C, a_coeffs, c_coeffs)``."""

    def draw_coeffs(shape):
        planes = rng.standard_normal((5,) + shape)
        scale = (5,) + (1,) * len(shape)
        planes *= np.array([0.1, 0.1, 0.1, 0.1, 0.1]).reshape(scale)
        planes += np.array([1.0, 0.0, 0.0, 1.0, 0.0]).reshape(scale)
        return np.moveaxis(planes, 0, -1)

    def entries(coeffs):
        a1, a2, a3, a4, a5 = np.moveaxis(coeffs, -1, 0)
        return a1 * np.cos(a2 * theta + a3) + a4 * np.sin(a5 * theta)

    a_coeffs = draw_coeffs((nv, nv))
    c_coeffs = draw_coeffs((nv,))
    return entries(a_coeffs), entries(c_coeffs), a_coeffs, c_coeffs


def per_draw_reference(nv, samples, theta, seed):
    # the per-draw loop the chunked pipeline replaced: kept condition numbers
    # and norm rows in draw order, and the excluded count
    kappas, norms = [], []
    for i in range(samples):
        a, c, _, _ = reference_draw(nv, theta, np.random.default_rng((seed, nv, i)))
        try:  # kappa computed here, not by the code under test
            kappa = np.linalg.norm(a, "fro") * np.linalg.norm(np.linalg.inv(a), "fro")
        except np.linalg.LinAlgError:
            continue
        if kappa <= ILL_CONDITIONED_CUTOFF:  # false for NaN and inf too
            kappas.append(kappa)
            solution = np.linalg.solve(a, c)
            norms.append([np.linalg.norm(a, "fro"), np.linalg.norm(c), np.linalg.norm(solution)])
    return np.array(kappas), np.array(norms).reshape(-1, 3), samples - len(kappas)


def assert_study_matches_reference(grid, samples, theta, seed):
    kappa_out = toymodel._study(grid, samples, theta, seed, norms=False)
    norm_out = toymodel._study(grid, samples, theta, seed, norms=True)
    for nv, (k_nv, kappas, k_excluded), (n_nv, norms, n_excluded) in zip(grid, kappa_out, norm_out, strict=True):
        ref_kappas, ref_norms, ref_excluded = per_draw_reference(nv, samples, theta, seed)
        assert k_nv == n_nv == nv
        assert k_excluded == n_excluded == ref_excluded
        assert_bitwise_equal(kappas, ref_kappas)
        assert_bitwise_equal(norms, ref_norms)
    kappa_points = kappa_study(grid, samples, theta, seed)
    norm_points = norm_study(grid, samples, theta, seed)
    for j, nv in enumerate(grid):
        _, kappas, excluded = kappa_out[j]
        assert kappa_points[j] == toymodel._summary(nv, kappas, excluded)
        _, norms, excluded = norm_out[j]
        for k, key in enumerate(("norm_A", "norm_C", "norm_AinvC")):
            assert norm_points[key][j] == toymodel._summary(nv, norms[:, k], excluded)


def on_threads(workers, check):
    # workers=None runs the check on the calling thread; otherwise on that
    # many threads at once, so a study shares no state with another caller's
    if workers is None:
        check()
        return
    barrier = threading.Barrier(workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(lambda: (barrier.wait(timeout=60), check())) for _ in range(workers)]
        for future in futures:
            future.result(timeout=300)


# theta = 0.5 on the calling thread and on one and three workers, the other
# inputs on the calling thread.  Each N_V in 1..12 draws into one chunk,
# whose elementwise loops run SIMD vectors across the boundaries between
# draws and end in a partial tail, at other offsets than the per-draw
# reference; 30 draws of N_V = 40 fill a chunk of 20 and a last one of 10.
@pytest.mark.parametrize(
    "workers, theta",
    [pytest.param(None, 0.5, id="cpus"), pytest.param(1, 0.5, id="one-worker"),
     pytest.param(3, 0.5, id="three-workers")]
    + [pytest.param(None, theta, id=f"cpus-theta={theta}") for theta in (0.0, -7.3, 1e3)],
)
def test_study_pipeline_matches_per_draw_loop_bitwise(workers, theta):
    samples, grid = 30, list(range(1, 13)) + [40]
    assert samples % (toymodel._CHUNK_ENTRIES // 40**2) == 10
    on_threads(workers, lambda: assert_study_matches_reference(grid, samples, theta, 42))


@pytest.mark.parametrize("theta", [0.5, 0.0, -7.3, 1e3])
@pytest.mark.parametrize("nv", [1, 3, 25])
def test_sample_toy_matches_the_per_draw_reference_bitwise(nv, theta):
    # the system is evaluated at 0.5, its coefficients at theta
    system, params = sample_toy(nv, rng=(5, nv))
    a, c, a_coeffs, c_coeffs = reference_draw(nv, theta, np.random.default_rng((5, nv)))
    a_half, c_half, _, _ = reference_draw(nv, 0.5, np.random.default_rng((5, nv)))
    for got, want in ((system.a, a_half), (system.c, c_half), (params.a_coeffs, a_coeffs),
                      (params.c_coeffs, c_coeffs), (toymodel._entries(params.a_coeffs, theta), a),
                      (toymodel._entries(params.c_coeffs, theta), c)):
        assert_bitwise_equal(got, want)


# no concurrent callers here: at 10^4 entries or more OpenBLAS factorizes on
# several threads, and concurrent calls may leave it fewer to round with
@pytest.mark.parametrize("workers", [None, 1], ids=["cpus", "one-worker"])
@pytest.mark.parametrize("nv", [50, 100], ids=["pooled", "blas-threaded"])
def test_study_pipeline_matches_per_draw_loop_over_several_chunks(workers, nv):
    samples = 30
    draws_per_chunk = max(1, toymodel._CHUNK_ENTRIES // nv**2)
    assert samples > 2 * draws_per_chunk  # three chunks or more
    on_threads(workers, lambda: assert_study_matches_reference([nv], samples, 1.25, 7))


def test_study_pipeline_mixed_grid_keeps_grid_order():
    # rows come back in grid order, repeated dimensions included
    assert_study_matches_reference([100, 3, 101, 3, 40], 30, 0.5, 11)


def recording_threads(monkeypatch, chunk):
    """Patch ``_measure_chunk`` to ``chunk`` and record the thread and dimension of each call."""
    calls = []

    def recording(nv, *args):
        calls.append((threading.current_thread(), nv))
        return chunk(nv, *args)

    monkeypatch.setattr(toymodel, "_measure_chunk", recording)
    return calls


# Chunks of three draws: 31 samples make eleven, the last of one draw.  N_V =
# 16 and 99 have 256 and 9801 entries, N_V = 15 and 100 have 225 and 10^4.
@pytest.mark.parametrize("paired, alone", [(99, 100), (16, 15)], ids=["upper-end", "lower-end"])
def test_study_measures_chunks_in_pairs_within_the_paired_entries_only(monkeypatch, paired, alone):
    calls = recording_threads(monkeypatch, toymodel._measure_chunk)
    monkeypatch.setattr(toymodel, "_CHUNK_ENTRIES", 3 * max(paired, alone) ** 2)
    here, before = threading.current_thread(), threading.active_count()
    kappa_study([paired, alone, 2], 31, seed=1)
    assert threading.active_count() == before
    threads = {nv: [thread for thread, n in calls if n == nv] for nv in (paired, alone, 2)}
    assert len(threads[paired]) == len(threads[alone]) == 11
    assert threads[paired].count(here) == 6  # chunks 0, 2, ..., 10
    assert len(set(threads[paired])) == 2  # and chunks 1, 3, ..., 9 on one other thread
    assert threads[alone] == [here] * 11
    assert threads[2] == [here]  # one chunk of 31 draws


# three callers with a helper each, more threads than cores, switching often:
# a chunk that drew another's streams or wrote another's rows changes bits
def test_paired_studies_on_three_workers_match_the_reference_under_frequent_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        on_threads(3, lambda: assert_study_matches_reference([40, 50], 30, 0.5, 13))
    finally:
        sys.setswitchinterval(interval)


def test_a_dimension_s_streams_go_before_the_next_dimension_seeds_its_own(monkeypatch):
    # the old streams' seed words, 32 bytes per draw, on top of the new ones'
    # seeding would pass what the CLI's size check counts per draw
    built, alive_when_seeding = [], []

    class RecordedStreams(KeyedStreams):
        def __init__(self, key, indices):
            alive_when_seeding.append(sum(ref() is not None for ref in built))
            super().__init__(key, indices)
            built.append(weakref.ref(self))

    monkeypatch.setattr(toymodel, "KeyedStreams", RecordedStreams)
    kappa_study([16, 50, 100, 20], 60, seed=1)  # paired, paired, alone, paired
    assert alive_when_seeding == [0, 0, 0, 0]


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
@pytest.mark.parametrize("failing", ["calling", "helper"])
def test_a_chunk_error_reaches_the_caller_once_the_chunk_in_flight_ends(monkeypatch, failing, error):
    here, raised = threading.current_thread(), threading.Event()

    def chunk(nv, streams, count, theta, norms):
        if (threading.current_thread() is here) == (failing == "calling"):
            raised.set()
            raise error("chunk failed")
        assert raised.wait(timeout=60)  # in flight while the other chunk raises
        return np.full((count, 1), float(nv))

    calls = recording_threads(monkeypatch, chunk)
    monkeypatch.setattr(toymodel, "_CHUNK_ENTRIES", 3 * 50**2)
    before = threading.active_count()
    with pytest.raises(error, match="chunk failed"):
        kappa_study([50], 30, seed=1)
    assert threading.active_count() == before
    assert len(calls) == 2  # the failing pair, and no chunk after it


def test_studies_measure_each_chunk_through_the_module_level_condition_number(monkeypatch):
    """``kappa_study`` and ``norm_study`` make exactly one call of
    ``toymodel.condition_number`` per chunk, on that chunk's stack.

    The benchmark's traced runs time the ``toymodel.condition_number`` span
    by patching that module attribute (``bench/spans.py``); a study that
    bypassed it would leave the span empty and stop every traced run.
    """
    stacks = []
    measure = toymodel.condition_number

    def counting_condition_number(a):
        stacks.append(np.shape(a))
        return measure(a)

    monkeypatch.setattr(toymodel, "condition_number", counting_condition_number)
    monkeypatch.setattr(toymodel, "_CHUNK_ENTRIES", 3 * 50**2)
    chunks = [(30, 2, 2)] + [(3, 50, 50)] * 10  # one chunk at N_V = 2, ten of three draws at N_V = 50
    for study in (kappa_study, norm_study):
        stacks.clear()
        study([2, 50], 30, seed=1)
        assert stacks == chunks


def screening_stack():
    rng = np.random.default_rng(21)
    regular = [rng.normal(size=(3, 3)) + 3.0 * np.eye(3) for _ in range(3)]
    singular = np.ones((3, 3))  # exact zero pivot: LAPACK raises
    ill = np.diag([1.0, 1.0, 1e-13])  # condition number ~1.4e13
    near = np.diag([1.0, 1.0, 2e-12])  # condition number ~7.1e11, just kept
    a = np.stack([regular[0], singular, regular[1], ill, regular[2], near])
    c = rng.normal(size=(6, 3))
    return a, c


def test_condition_number_of_a_singular_stack_falls_back_per_matrix():
    a, c = screening_stack()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(a)  # the stacked inverse fails, so the fallback runs
    kappa = condition_number(a)
    with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
        condition_number(a[1])
    assert kappa.shape == (6,)
    assert math.isnan(kappa[1])
    for k in (0, 2, 3, 4, 5):
        assert kappa[k] == condition_number(a[k])
    assert kappa[3] > ILL_CONDITIONED_CUTOFF > kappa[5] > ILL_CONDITIONED_CUTOFF / 10


def test_condition_number_overflow_is_numerically_singular():
    # ||A||_F^2 = 1e400 overflows: inf in a stack, a raise for one matrix, no warning
    overflowing = np.diag([1e200, 1e-200])
    a = np.stack([np.eye(2), overflowing])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            condition_number(overflowing)
        kappa = condition_number(a)
        rows = toymodel._measure(a, np.ones((2, 2)), norms=True)
    assert kappa.tolist() == [condition_number(np.eye(2)), math.inf]
    assert not np.isnan(rows[0]).any()
    assert np.isnan(rows[1]).all()


@pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 2, 2)])
def test_condition_number_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="expected an \\(n, n\\) matrix"):
        condition_number(np.ones(shape))


def test_measure_excludes_singular_and_ill_conditioned_systems():
    a, c = screening_stack()
    rows = toymodel._measure(a, c, norms=True)
    assert_bitwise_equal(toymodel._measure(a, c, norms=False), rows[:, :1])
    kept = ~np.isnan(rows[:, 0])
    assert kept.tolist() == [True, False, True, False, True, True]
    assert np.all(np.isnan(rows[~kept]))
    for k in np.flatnonzero(kept):
        expected = [
            condition_number(a[k]),
            np.linalg.norm(a[k], "fro"),
            np.linalg.norm(c[k]),
            np.linalg.norm(np.linalg.solve(a[k], c[k])),
        ]
        assert rows[k].tolist() == expected


def test_solve_falls_back_per_system_on_a_singular_stack():
    a, c = screening_stack()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, c[..., None])
    x = toymodel._solve(a, c)
    assert np.all(np.isnan(x[1]))
    for k in (0, 2, 3, 4, 5):
        assert_bitwise_equal(x[k], np.linalg.solve(a[k], c[k]))


def test_lip_surface_singular_theta_in_a_stacked_solve_gives_nan():
    # theta = 0 makes A(theta) = sin(theta) I exactly singular inside a chunk of regular thetas
    params = sine_diagonal_params(4)
    grid = np.array([-0.5, 0.0, 0.5, 1.0])
    surface = lip_surface(params, grid, grid)
    assert_bitwise_equal(surface, lip_surface_reference(params, grid, grid))
    assert np.all(np.isnan(surface[1])) and np.all(np.isnan(surface[:, 1]))
    regular = np.ix_([0, 2, 3], [0, 2, 3])
    assert np.isfinite(surface[regular]).sum() == 6  # everything off the diagonal


@pytest.mark.parametrize("study", [kappa_study, norm_study])
def test_study_rejects_bad_dimension(study):
    with pytest.raises(ValueError, match="at least 1"):
        study([10, 0], samples=30)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_study_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        kappa_study([2], 30, theta=math.inf)


# -- Lipschitz landscape -------------------------------------------------------


def test_lip_surface_zero_frequencies_is_flat():
    # frozen frequencies make the system constant in the input; keep the
    # constant matrix non-singular by bumping the diagonal amplitudes
    params = constant_params(5)
    a_coeffs = np.array(params.a_coeffs)
    a_coeffs[..., 0] += 2.0 * np.eye(5)
    params = ToyParams(a_coeffs=a_coeffs, c_coeffs=params.c_coeffs)
    grid = np.linspace(0.0, 10.0, 9)
    surface = lip_surface(params, grid, grid + 0.05)
    assert not np.any(np.isnan(surface))
    assert np.max(surface) == pytest.approx(0.0, abs=1e-9)


def test_lip_surface_symmetry_and_diagonal():
    _, params = sample_toy(8, rng=4)
    grid = np.linspace(0.0, 10.0, 12)
    surface = lip_surface(params, grid, grid)
    assert np.all(np.isnan(np.diag(surface)))
    off = ~np.eye(len(grid), dtype=bool)
    np.testing.assert_allclose(surface[off], surface.T[off], rtol=1e-12)


def test_lip_surface_mostly_below_moderate_threshold():
    _, params = sample_toy(25, rng=7)
    grid = np.linspace(0.0, 10.0, 60)
    surface = lip_surface(params, grid, grid)
    values = surface[~np.isnan(surface)]
    assert np.mean(values <= 15.0) >= 0.5


def lip_surface_reference(params, grid1, grid2):
    # the per-cell loop lip_surface replaced, kept as the bitwise reference
    cache = {}

    def solve_at(theta):
        if theta not in cache:
            try:
                a, c = toymodel._entries(params.a_coeffs, theta), toymodel._entries(params.c_coeffs, theta)
                cache[theta] = np.linalg.solve(a, c)
            except np.linalg.LinAlgError:
                cache[theta] = None
        return cache[theta]

    f1 = [solve_at(t) for t in grid1]
    f2 = [solve_at(t) for t in grid2]
    surface = np.full((len(grid1), len(grid2)), np.nan)
    for i, (t1, fa) in enumerate(zip(grid1, f1)):
        for j, (t2, fb) in enumerate(zip(grid2, f2)):
            if fa is None or fb is None or t1 == t2:
                continue
            surface[i, j] = np.linalg.norm(fa - fb) / abs(t1 - t2)
    return surface


def assert_bitwise_equal(a, b):
    # bit patterns, so NaN cells compare too
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def sine_diagonal_params(nv):
    # A(theta) = sin(theta) * I, C(theta) = 1: singular only at theta = 0
    a = np.zeros((nv, nv, 5))
    a[np.arange(nv), np.arange(nv), 3] = 1.0
    a[np.arange(nv), np.arange(nv), 4] = 1.0
    c = np.zeros((nv, 5))
    c[:, 0] = 1.0
    return ToyParams(a_coeffs=a, c_coeffs=c)


@pytest.mark.parametrize(
    "nv, grid1, grid2",
    [
        (25, np.linspace(0.0, 10.0, 40), np.linspace(0.0, 10.0, 40)),
        (7, np.linspace(-2.0, 3.0, 13), np.linspace(0.1, 9.0, 17)),
        (5, [0.5, 1.5, 0.5, 2.0, 2.0, 7.25], [2.0, 0.5, 3.0, 3.0, 1.5]),
        (1, [0.0, 1.0, 1.0], [1.0, 0.0, 4.0]),
    ],
    ids=["square", "distinct-grids", "repeats", "scalar"],
)
def test_lip_surface_matches_per_cell_loop_bitwise(nv, grid1, grid2):
    _, params = sample_toy(nv, rng=nv)
    grid1, grid2 = np.asarray(grid1), np.asarray(grid2)
    assert_bitwise_equal(lip_surface(params, grid1, grid2), lip_surface_reference(params, grid1, grid2))


def test_lip_surface_singular_input_gives_nan_row_and_column():
    params = sine_diagonal_params(3)
    grid1 = np.array([-1.0, 0.0, 0.5, 0.5, 2.0])
    grid2 = np.array([0.0, 0.5, 3.0, -1.0, 0.0])
    surface = lip_surface(params, grid1, grid2)
    assert_bitwise_equal(surface, lip_surface_reference(params, grid1, grid2))
    singular = (grid1 == 0.0)[:, None] | (grid2 == 0.0)[None, :]
    same = grid1[:, None] == grid2[None, :]
    assert np.all(np.isnan(surface[singular | same]))
    assert np.all(np.isfinite(surface[~(singular | same)]))
    # f(t) = (1 / sin t) * ones(3): one closed-form cell
    expected = math.sqrt(3.0) * abs(1.0 / math.sin(-1.0) - 1.0 / math.sin(3.0)) / 4.0
    assert surface[0, 2] == pytest.approx(expected, rel=1e-14)


def per_cell_csv(surface, grid1, grid2):
    """The lip CSV rendered with one f-string per cell."""
    text = "theta1/theta2," + ",".join(f"{float(t):.16e}" for t in grid2) + "\n"
    for t1, row in zip(grid1, surface):
        text += f"{float(t1):.16e}," + ",".join(f"{float(v):.16e}" for v in row) + "\n"
    return text


def bitwise_symmetric(surface):
    bits = np.asarray(surface, dtype=float).view(np.uint64)
    return bits.shape[0] == bits.shape[1] and np.array_equal(bits, bits.T)


def float_from_bits(bits):
    return np.array([bits], dtype=np.uint64).view(float)[0]


def mirrored(upper):
    """The square surface whose cells (i, j >= i) are ``upper``'s, mirrored below the diagonal."""
    upper = np.array(upper, dtype=float)
    return np.triu(upper) + np.triu(upper, 1).T


def near_mirrored(i, j, value, mirror_value):
    """A 3x3 bitwise-symmetric surface but for the pair (i, j), (j, i)."""
    surface = mirrored(np.arange(1.0, 10.0).reshape(3, 3) / 7.0)
    surface[i, j], surface[j, i] = value, mirror_value
    return surface


GRID3 = np.array([0.0, 1.0, -0.0])
SYMMETRIC_EXTREMES = np.array(
    [
        [math.nan, math.inf, 5e-324, 1.7976931348623157e308],
        [math.inf, math.nan, -math.inf, -0.0],
        [5e-324, -math.inf, math.nan, 1.0 / 3.0],
        [1.7976931348623157e308, -0.0, 1.0 / 3.0, math.nan],
    ]
)

# surface, grid1, grid2, whether the surface takes the mirrored path
CSV_CASES = {
    "rectangular": (
        np.array(
            [
                [math.nan, -math.nan, math.inf, -math.inf],
                [0.0, -0.0, 5e-324, 1.7976931348623157e308],
                [1.0 / 3.0, -2.5, 123456789.0, 1e-17],
            ]
        ),
        GRID3,
        np.array([0.5, 1e-300, 1.0, 3.0]),
        False,
    ),
    "symmetric-extremes": (SYMMETRIC_EXTREMES, np.array([-1.0, 0.0, 2.5, 1e300]), np.array([-1.0, 0.0, 2.5, 1e300]),
                           True),
    "zero-and-negative-zero-pair": (near_mirrored(0, 2, 0.0, -0.0), GRID3, GRID3, False),
    "pair-1-ulp-apart": (near_mirrored(1, 2, 0.5, np.nextafter(0.5, 1.0)), GRID3, GRID3, False),
    "nan-pair-with-different-payloads": (
        near_mirrored(0, 1, float_from_bits(0x7FF8000000000001), float_from_bits(0x7FF8000000000002)),
        GRID3, GRID3, False,
    ),
    "transposed-view": (np.arange(12.0).reshape(4, 3).T / 3.0, GRID3, np.array([1.0, 2.0, 3.0, 4.0]), False),
    "strided-symmetric-view": (mirrored(np.arange(1.0, 37.0).reshape(6, 6) / 11.0)[::2, ::2], GRID3, GRID3, True),
    "integer": (np.arange(9).reshape(3, 3), GRID3, GRID3, False),
    "integer-symmetric": (mirrored(np.arange(9).reshape(3, 3)).astype(int), GRID3, GRID3, True),
    "1x1": (np.array([[math.pi]]), np.array([2.0]), np.array([2.0]), True),
    "0x0": (np.empty((0, 0)), np.empty(0), np.empty(0), True),
}


def test_lip_surface_csv_matches_per_cell_formatting():
    for name, (surface, grid1, grid2, symmetric) in CSV_CASES.items():
        assert bitwise_symmetric(surface) == symmetric, name
        assert lip_surface_to_csv(surface, grid1, grid2) == per_cell_csv(surface, grid1, grid2), name
    assert "-0.0000000000000000e+00," in per_cell_csv(*CSV_CASES["rectangular"][:3])


@pytest.mark.parametrize(
    "shape, grid1, grid2",
    [((2, 2), [0.0, 1.0, 2.0], [0.0, 1.0]), ((3, 2), [0.0, 1.0], [0.0, 1.0]), ((2, 3), [0.0, 1.0], [0.0, 1.0])],
    ids=["grid1-longer", "surface-taller", "surface-wider"],
)
def test_lip_surface_csv_rejects_a_surface_off_its_grids(shape, grid1, grid2):
    expected = f"surface shape {shape} does not match (len(grid1), len(grid2)) = {(len(grid1), len(grid2))}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        lip_surface_to_csv(np.ones(shape), grid1, grid2)


def test_lip_surface_csv_headers():
    params = constant_params(2)
    g1 = np.array([0.0, 1.0])
    g2 = np.array([0.5, 1.5])
    text = lip_surface_to_csv(lip_surface(params, g1, g2), g1, g2)
    lines = text.strip().splitlines()
    assert lines[0].startswith("theta1/theta2,")
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.0


# -- linear-solve perturbations --------------------------------------------------


def test_perturbation_bound_zero_cases():
    a = np.eye(2)
    c = np.array([1.0, 0.0])
    assert perturbation_bound(a, c, np.zeros((2, 2)), np.zeros(2), 0.0) == 0.0
    assert perturbation_bound(a, c, np.zeros((2, 2)), np.zeros(2), 0.5) == 0.0


def test_perturbation_bound_identity_example():
    a = np.eye(2)
    c = np.array([1.0, 0.0])
    r_vec = np.array([1.0, 0.0])
    value = perturbation_bound(a, c, np.zeros((2, 2)), r_vec, 0.1)
    assert value == pytest.approx(0.2, rel=1e-14)


def test_perturbation_empirical_identity_example():
    a = np.eye(2)
    c = np.array([1.0, 0.0])
    r_vec = np.array([1.0, 0.0])
    assert perturbation_empirical(a, c, np.zeros((2, 2)), r_vec, 0.1) == pytest.approx(0.1, rel=1e-14)
    assert perturbation_empirical(a, c, np.zeros((2, 2)), r_vec, 0.0) == 0.0


def test_perturbation_first_order_dominance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.normal(size=(10, 10)) + 10.0 * np.eye(10)
        c = rng.normal(size=10)
        r_mat = rng.normal(size=(10, 10))
        r_vec = rng.normal(size=10)
        emp = perturbation_empirical(a, c, r_mat, r_vec, 1e-6)
        bnd = perturbation_bound(a, c, r_mat, r_vec, 1e-6)
        assert emp <= bnd + 1e-9


def test_perturbation_quadratic_remainder():
    # residual above the first-order bound must shrink quadratically in xi
    rng = np.random.default_rng(13)
    a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    c = rng.normal(size=6)
    r_mat = rng.normal(size=(6, 6))
    r_vec = rng.normal(size=6)
    xis = np.array([1e-6, 1e-5, 1e-4, 1e-3])
    residuals = np.array(
        [perturbation_empirical(a, c, r_mat, r_vec, x) - perturbation_bound(a, c, r_mat, r_vec, x) for x in xis]
    )
    c_fit = max(0.0, float(np.max(residuals / xis**2)))
    assert np.all(residuals <= c_fit * xis**2 + 1e-12)


def test_perturbation_empirical_singular():
    with pytest.raises(SingularMatrixError):
        perturbation_empirical(np.zeros((2, 2)), np.ones(2), np.zeros((2, 2)), np.zeros(2), 0.1)


def test_study_csv_schema():
    points = kappa_study([5, 10], samples=30, seed=9)
    lines = study_to_csv(points).strip().splitlines()
    assert lines[0] == "N_V,median,q16,q84,excluded"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "5"

"""The benchmark's workloads: seeded inputs, the operations and their output checks.

Each workload is a closed loop over cycles of operations.  A cycle is built
from ``(seed, cycle index)`` before it runs; its operations are timed one
at a time, and each output is checked outside the timed call.  Every
operation goes through the public API of ``rkbudget`` (the CLI entry point
or a module-level function), looked up on its module at call time so that
traced runs see the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from rkbudget import bounds, budget, cli, harness, integrator, scenarios, sensitivity, tableaux, toymodel

METHODS = ("euler", "heun2", "kutta3", "rk4")
ETA = 0.05


@dataclass
class Op:
    """One operation: the timed call, its output check and its work units."""

    span: str  # root span opened around the call in traced runs, e.g. "cli.validate"
    label: str  # groups latencies of identical configurations
    run: Callable[[], object]
    check: Callable[[object], bool]
    work: int  # logical work units credited when the op succeeds
    # Traced runs: prepares direct layer calls from the output and returns
    # them as one callable, which the runner times under its own root span.
    direct: Callable[[object], Callable[[], None]] | None = None
    # Inputs outside the calibrated scenarios: the program may refuse them.
    # Such ops are screened once by the census before the timed loop.
    may_fail: bool = False
    # Untimed preparation just before the call, such as writing its input file.
    prepare: Callable[[], None] | None = None


@dataclass
class CliResult:
    code: int
    out: str


def call_cli(argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def failure(op: Op, result, exc: Exception | None) -> str | None:
    """Failure type of a finished op, or None when its output is correct."""
    if exc is not None:
        return f"uncaught.{type(exc).__name__}"
    if isinstance(result, CliResult) and result.code != 0:
        return f"exit{result.code}"
    try:
        ok = op.check(result.out if isinstance(result, CliResult) else result)
    except Exception:  # a malformed output is a failed check, whatever the parser raised
        ok = False
    return None if ok else "check"


def cli_op(argv: list[str], check, work: int, label: str | None = None, direct=None) -> Op:
    return Op(f"cli.{argv[0]}", label or " ".join(argv), lambda: call_cli(argv), check, work, direct)


def cycle_seed(seed: int, cycle: int) -> int:
    return seed * 1000 + cycle


# --------------------------------------------------------------------------
# campaign: bound-dominance campaigns through `rkbudget validate`
# --------------------------------------------------------------------------

CAMPAIGN_CONFIGS = [
    ("euler", "clipped", 1e-6),
    ("euler", "clipped", 1e-4),
    ("euler", "clipped", 1e-2),
    ("rk4", "clipped", 1e-6),
    ("rk4", "clipped", 1e-4),
    ("rk4", "clipped", 1e-2),
    ("rk4", "gaussian", 1e-3),
    ("heun2", "clipped", 1e-4),
    ("kutta3", "clipped", 1e-4),
]
CAMPAIGN_TRIALS = 100
CAMPAIGN_STEPS = 100


def expected_exceedances(seed: int, trials: int, evals_per_trial: int, delta: float, eta: float) -> int:
    """Noise-bound exceedances of a 1-D campaign, re-derived from its streams.

    Trial t draws one normal per evaluation from ``default_rng((seed, t))``
    with scale ``delta * sqrt(eta)``; a draw exceeds when its magnitude
    passes ``delta``.  This does not depend on the states, so one block draw
    per trial reproduces the program's count exactly.
    """
    scale = delta * math.sqrt(eta)
    return sum(
        int(np.count_nonzero(np.abs(np.random.default_rng((seed, t)).normal(0.0, scale, evals_per_trial)) > delta))
        for t in range(trials)
    )


def campaign_cycle(seed: int, cycle: int, workdir: Path) -> list[Op]:
    s = cycle_seed(seed, cycle)
    ops = []
    for method, mode, delta in CAMPAIGN_CONFIGS:
        evals_per_trial = CAMPAIGN_STEPS * tableaux.builtin_tableau(method).stages

        def check(text, mode=mode, delta=delta, evals_per_trial=evals_per_trial):
            report = json.loads(text)
            return (
                report["trials"] == CAMPAIGN_TRIALS
                and report["evaluations"] == CAMPAIGN_TRIALS * evals_per_trial
                and (mode != "clipped" or report["violations"] == 0)
                and report["delta_exceedances"]
                == expected_exceedances(s, CAMPAIGN_TRIALS, evals_per_trial, delta, ETA)
            )

        argv = ["validate", "--method", method, "--mode", mode, "--delta", repr(delta), "--eta", repr(ETA),
                "--ntau", str(CAMPAIGN_STEPS), "--trials", str(CAMPAIGN_TRIALS), "--seed", str(s), "--format", "json"]
        ops.append(cli_op(argv, check, CAMPAIGN_TRIALS * evals_per_trial, label=f"validate {method} {mode} {delta:g}"))
    return ops


# --------------------------------------------------------------------------
# trajectory: single trajectories, each a batch of one
# --------------------------------------------------------------------------

CONVERGENCE_STEPS = (32, 64, 128, 256, 512)  # the CLI default
DOMINANCE_STEPS = (1000, 10000)
HEAT_POINTS = 401
HEAT_STEPS = 400
HEAT_PER_CYCLE = 8
# Max abs deviation from heat_evolve on moneyness [0.5, 2], relative to the
# largest reference value there; observed deviations stay below 4e-5.
HEAT_TOL = 1e-3


def heat_problem(rng: np.random.Generator):
    """Normalized option-pricing heat data ``u_tau = u_xx / 2`` on a log-price grid."""
    strike = 100.0
    x = np.linspace(math.log(strike) - 5.0, math.log(strike) + 5.0, HEAT_POINTS)
    spec = scenarios.BlackScholesSpec(
        volatility=rng.uniform(0.15, 0.3), rate=rng.uniform(0.01, 0.05), strike=strike,
        expiry=rng.uniform(0.5, 1.5), grid=x,
    )
    tr = scenarios.bs_transform(spec)
    u0 = np.exp(-tr.a * x) * scenarios.payoff(np.exp(x), strike)
    u0 /= u0.sum()
    dx = x[1] - x[0]
    window = (np.exp(x) >= 0.5 * strike) & (np.exp(x) <= 2.0 * strike)
    return u0, tr.horizon, dx, window


def heat_field(dx: float):
    """Method-of-lines right-hand side: second differences with zero boundary data."""
    coef = 0.5 / (dx * dx)

    def field(tau, u):  # grid along the last axis, so a (trials, points) batch works too
        lap = -2.0 * u
        lap[..., 1:] += u[..., :-1]
        lap[..., :-1] += u[..., 1:]
        return coef * lap

    return field


def heat_op(rng: np.random.Generator) -> Op:
    u0, horizon, dx, window = heat_problem(rng)
    field = heat_field(dx)

    def run():
        rk4 = tableaux.builtin_tableau("rk4")
        return integrator.integrate(rk4, integrator.EvaluationOracle(field), u0, 0.0, horizon, HEAT_STEPS)

    def check(traj):
        ref = scenarios.heat_evolve(u0, horizon, dx)
        err = np.max(np.abs(traj.final - ref)[..., window])
        return traj.n_steps == HEAT_STEPS and err <= HEAT_TOL * np.max(np.abs(ref[window]))

    return Op("bench.heat", f"heat rk4 {HEAT_POINTS}x{HEAT_STEPS}", run, check, HEAT_STEPS * 4)


def trajectory_cycle(seed: int, cycle: int, workdir: Path) -> list[Op]:
    ops = []
    for method in METHODS:
        tab = tableaux.builtin_tableau(method)

        def conv_check(text, tab=tab):
            return abs(json.loads(text)["slope"] - tab.order) <= 0.15

        ops.append(cli_op(["convergence", "--method", method, "--format", "json"], conv_check,
                          sum(CONVERGENCE_STEPS) * tab.stages))
        for n in DOMINANCE_STEPS:

            def dom_check(text, n=n, tab=tab):
                report = json.loads(text)
                return report["violations"] == 0 and report["evaluations"] == n * tab.stages

            ops.append(cli_op(["validate", "--method", method, "--delta", "0", "--ntau", str(n), "--format", "json"],
                              dom_check, n * tab.stages))
    rng = np.random.default_rng(cycle_seed(seed, cycle))
    ops.extend(heat_op(rng) for _ in range(HEAT_PER_CYCLE))
    return ops


# --------------------------------------------------------------------------
# planning: `rkbudget table` and `rkbudget sweep` over perturbed constants
# --------------------------------------------------------------------------

# Published cells (three significant figures) of the C1-C3 tables:
# classical order -> (cost, ratio, N_tau); noisy order -> (N_circ, ratio, N_r, N_tau, circuits).
PUBLISHED = {
    "classical": {
        1: (2.25e7, 1.00, 2.25e7), 2: (9.60e4, 2.35e2, 4.80e4), 3: (1.99e4, 1.13e3, 6.63e3),
        4: (1.01e4, 2.22e3, 2.54e3), 5: (1.38e4, 1.64e3, 2.29e3), 6: (1.03e4, 2.18e3, 1.47e3),
        7: (1.36e4, 1.65e3, 1.52e3), 8: (1.71e4, 1.32e3, 1.56e3), 9: (2.07e4, 1.09e3, 1.60e3),
        10: (3.33e4, 6.76e2, 2.08e3),
    },
    "option_pricing": {
        1: (2.13e29, 1.0, 7.03e21, 2.96e4, 3.03e7), 2: (1.62e28, 13.18, 3.87e22, 2.04e2, 4.19e5),
        3: (1.75e28, 12.21, 1.53e23, 37.06, 1.14e5), 4: (3.31e28, 6.45, 5.19e23, 15.55, 6.38e4),
        5: (3.38e29, 6.31e-1, 5.48e24, 10.03, 6.17e4), 6: (7.79e29, 2.74e-1, 1.56e25, 6.96, 4.99e4),
        7: (7.49e30, 2.85e-2, 1.41e26, 5.74, 5.30e4), 8: (7.00e31, 3.05e-3, 1.25e27, 4.98, 5.62e4),
        9: (6.45e32, 3.31e-4, 1.08e28, 4.47, 5.96e4), 10: (2.16e34, 9.9e-6, 3.03e29, 4.33, 7.11e4),
    },
    "tuned": {
        1: (1.12e37, 1.0, 1.15e25, 9.56e8, 9.80e11), 2: (2.63e34, 4.28e2, 3.93e25, 3.26e5, 6.68e8),
        3: (6.33e33, 1.78e3, 9.57e25, 2.15e4, 6.61e7), 4: (4.39e33, 2.56e3, 1.98e26, 5.41e3, 2.22e7),
        5: (1.00e34, 1.12e3, 6.78e26, 2.40e3, 1.48e7), 6: (1.11e34, 1.01e3, 1.14e27, 1.36e3, 9.76e6),
        7: (2.60e34, 4.33e2, 3.06e27, 9.22e2, 8.50e6), 8: (5.90e34, 1.91e2, 7.61e27, 6.88e2, 7.75e6),
        9: (1.33e35, 84.69, 1.82e28, 5.47e2, 7.29e6), 10: (4.92e35, 22.87, 6.48e28, 4.63e2, 7.59e6),
    },
}
PUBLISHED_COLUMNS = {"classical": ("cost", "ratio", "N_tau"), "noisy": ("N_circ", "ratio", "N_r", "N_tau", "circuits")}
PUBLISHED_TOL = 0.015
CHEAPEST_ORDER = {"classical": 4, "option_pricing": 2, "tuned": 4}  # C5

# sha256 of stdout for README invocations, recorded from the initial release (commit e0419a5).
README_DIGESTS = {
    ("table", "--scenario", "classical"): "0eaa5253e900fed361ba096bd704638bdb807da239ae4baf0de8eab45bd786f1",
    ("table", "--scenario", "option_pricing"): "51ad16bd16bbccfc1ecaa1038f6c7ef135effeee917e88d3790a81e7032963fe",
    ("sweep", "--target", "epsilon", "--mode", "cost"):
        "61a497677ee2a82dffd54f088f2c6546ebf7998bc6ee86b9143aff0d220cc518",
    ("sweep", "--scenario", "option_pricing", "--target", "Sigma", "--mode", "ncirc"):
        "826001333d08cef1565ef0191920aa21e606b494963a2f9ed213b6896263573a",
}

ROW_COLUMNS = ("p", "s", "N_tau", "N_r", "cost", "N_circ", "circuits", "ratio", "flag")
SCALE_RANGE = 8.0  # constants are scaled log-uniformly within [1/8, 8], the sweep's own range


def parse_table(text: str, fmt: str) -> list[dict]:
    """Rows of a `table` artifact as dicts over ``ROW_COLUMNS`` (None for empty cells)."""
    if fmt == "json":
        records = json.loads(text)
    else:
        lines = text.splitlines()
        if tuple(lines[0].split(",")) != ROW_COLUMNS:
            raise ValueError("unexpected table header")
        records = []
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(ROW_COLUMNS):
                raise ValueError("ragged table row")
            rec = dict(zip(ROW_COLUMNS, cells))
            for key in ROW_COLUMNS[:-1]:
                rec[key] = float(rec[key]) if rec[key] else None
            records.append(rec)
    if [r["p"] for r in records] != list(range(1, 11)) or any(set(r) != set(ROW_COLUMNS) for r in records):
        raise ValueError("table must hold orders 1..10 with the canonical columns")
    return records


def sweep_points(text: str, fmt: str, target: str) -> int:
    """Number of points in a `sweep` artifact for one target."""
    if fmt == "json":
        (name, points), = json.loads(text).items()
        if name != target or any(set(p) != {"factor", "value", "feasible"} for p in points):
            raise ValueError("unexpected sweep payload")
        return len(points)
    lines = text.splitlines()
    if lines[0] != "target,factor,value,feasible" or any(not l.startswith(target + ",") for l in lines[1:]):
        raise ValueError("unexpected sweep artifact")
    return len(lines) - 1


def published_ok(name: str, rows: list[dict]) -> bool:
    columns = PUBLISHED_COLUMNS["classical" if name == "classical" else "noisy"]
    for row in rows:
        for col, want in zip(columns, PUBLISHED[name][row["p"]]):
            if row[col] is None or abs(row[col] - want) > PUBLISHED_TOL * abs(want):
                return False
    return True


def cheapest_ok(name: str, rows: list[dict]) -> bool:
    """C5: `argmin_order` over the rows as the CLI printed them picks the published order."""
    parsed = [
        budget.BudgetRow(order=int(r["p"]), stages=int(r["s"]), n_steps=r["N_tau"], n_shots=r["N_r"], cost=r["cost"],
                         circuit_evals=r["N_circ"], circuits=r["circuits"], ratio=r["ratio"],
                         feasible=r["flag"] != "infeasible")
        for r in rows
    ]
    return budget.argmin_order(parsed) == CHEAPEST_ORDER[name]


def perturbation(sc, rng: np.random.Generator) -> dict[str, float]:
    base = {"T": sc.pb.horizon, "K": sc.error_const, "M": sc.pb.field_bound, "L_fy": sc.pb.lip_state,
            "L_ftau": sc.pb.lip_time, "b_max": sc.b_max, "a_max": sc.a_max, "epsilon": sc.pb.target_error}
    if sc.sigma is not None:
        base["Sigma"] = sc.sigma
    log_span = math.log2(SCALE_RANGE)
    return {k: v * 2.0 ** rng.uniform(-log_span, log_span) for k, v in base.items()}


def bound_at_rows(name: str, overrides: dict[str, float], fmt: str):
    """Direct calls into `bounds`: the exact bound at each row's closed-form step count.

    The inputs are prepared here; only the returned callable calls `bounds`.
    Overflow warnings are counted by the caller around that callable.
    """

    def direct(text):
        sc = scenarios.apply_overrides(scenarios.scenario(name), overrides)
        calls = []
        for row in parse_table(text, fmt):
            if row["N_tau"] is None or not 1.0 <= row["N_tau"] < math.inf:
                continue
            prof = tableaux.MethodProfile(order=int(row["p"]), stages=int(row["s"]), a_max=sc.a_max,
                                          b_max=sc.b_max, error_const=sc.error_const)
            shots = row["N_r"]
            delta = sc.sigma / math.sqrt(shots) if shots and 0.0 < shots < math.inf else 0.0
            calls.append((prof, row["N_tau"], delta))

        def call_bounds():
            for prof, n_steps, delta in calls:
                try:
                    bounds.global_error_bound_noisy(sc.pb, prof, n_steps, delta)
                except (ArithmeticError, ValueError):
                    pass  # counted as bounds.raised.<type> by the traced wrapper

        return call_bounds

    return direct


def table_op(name: str, fmt: str, overrides: dict | None, path: Path | None) -> Op:
    argv = ["table", "--scenario", name]
    if fmt == "json":
        argv += ["--format", "json"]
    if path is not None:
        argv += ["--overrides", str(path)]
    digest = README_DIGESTS.get(tuple(argv))

    def check(text):
        rows = parse_table(text, fmt)
        if overrides is not None:
            return True
        return (published_ok(name, rows) and cheapest_ok(name, rows)
                and (digest is None or hashlib.sha256(text.encode()).hexdigest() == digest))

    op = cli_op(argv, check, 10, label=f"table {name} {fmt}" + (" perturbed" if overrides else ""),
                direct=bound_at_rows(name, overrides or {}, fmt))
    op.may_fail = overrides is not None
    return op


def sweep_op(name: str, target: str, mode: str, fmt: str, path: Path | None) -> Op:
    argv = ["sweep", "--scenario", name, "--target", target, "--mode", mode, "--format", fmt]
    if path is not None:
        argv += ["--overrides", str(path)]
    n_points = 10 if target == "p" else 25
    op = cli_op(argv, lambda text: sweep_points(text, fmt, target) == n_points, n_points,
                label=f"sweep {mode}" + (" perturbed" if path else ""))
    op.may_fail = path is not None
    return op


def readme_sweep_op(argv: tuple[str, ...]) -> Op:
    digest = README_DIGESTS[argv]
    return cli_op(list(argv), lambda text: hashlib.sha256(text.encode()).hexdigest() == digest, 25,
                  label="sweep readme")


def sweep_combos() -> list[tuple[str, str, str]]:
    combos = []
    for name in scenarios.SCENARIO_NAMES:
        noisy = scenarios.scenario(name).noisy
        for mode in sensitivity.SWEEP_MODES:
            if mode == "ncirc" and not noisy:
                continue
            for target in sensitivity.SWEEP_TARGETS:
                if target == "Sigma" and mode != "ncirc":
                    continue
                combos.append((name, target, mode))
    return combos


def planning_cycle(seed: int, cycle: int, workdir: Path) -> list[Op]:
    """One request of every kind the CLI serves, each kind weighted alike.

    The kinds are the eight unperturbed requests with published or
    recorded outputs, a perturbed table per (scenario, format) and a
    perturbed sweep per (scenario, target, mode, format).
    """
    rng = np.random.default_rng(cycle_seed(seed, cycle))
    ops = [table_op(name, fmt, None, None) for name in scenarios.SCENARIO_NAMES for fmt in ("csv", "json")]
    ops += [readme_sweep_op(argv) for argv in README_DIGESTS if argv[0] == "sweep"]
    combos = sweep_combos()

    def with_overrides(make_op, name):
        values = perturbation(scenarios.scenario(name), rng)
        path = workdir / f"overrides-{len(ops)}.txt"
        text = "".join(f"{k}={v!r}\n" for k, v in values.items())
        op = make_op(values, path)
        op.prepare = lambda: path.write_text(text)
        ops.append(op)

    for name in scenarios.SCENARIO_NAMES:
        for fmt in ("csv", "json"):
            with_overrides(lambda values, path: table_op(name, fmt, values, path), name)
    for name, target, mode in combos:
        for fmt in ("csv", "json"):
            with_overrides(lambda values, path: sweep_op(name, target, mode, fmt, path), name)
    return ops


# --------------------------------------------------------------------------
# surrogate: `rkbudget toy` studies at their README settings
# --------------------------------------------------------------------------

TOY_GRID = "10:100:10"
TOY_DIMS = range(10, 101, 10)
TOY_SAMPLES = 100
LIP_NV = 25
LIP_POINTS = 200  # the CLI default grid


def study_rows(text: str, prefix: bool) -> list[list[str]]:
    lines = text.splitlines()
    header = ("study," if prefix else "") + "N_V,median,q16,q84,excluded"
    if lines[0] != header:
        raise ValueError("unexpected study header")
    return [line.split(",") for line in lines[1:]]


def kappa_check(text: str) -> bool:
    rows = study_rows(text, prefix=False)
    return [int(r[0]) for r in rows] == list(TOY_DIMS) and all(
        int(r[0]) <= float(r[1]) <= int(r[0]) ** 3 for r in rows)  # C10


def norms_check(text: str) -> bool:
    ranges = {"norm_A": lambda nv: (0.5 * nv, 2.0 * nv), "norm_C": lambda nv: (0.5 * nv**0.5, 2.0 * nv**0.5)}
    rows = study_rows(text, prefix=True)
    if sorted({r[0] for r in rows}) != ["norm_A", "norm_AinvC", "norm_C"] or len(rows) != 3 * len(TOY_DIMS):
        return False
    for study, nv, median, *_ in rows:
        if study in ranges:
            lo, hi = ranges[study](int(nv))
            if not lo <= float(median) <= hi:  # C10
                return False
    return True


def lip_check(text: str) -> bool:
    lines = text.splitlines()
    if len(lines) != LIP_POINTS + 1 or not lines[0].startswith("theta1/theta2,"):
        return False
    grid = np.empty((LIP_POINTS, LIP_POINTS))
    for i, line in enumerate(lines[1:]):
        row = np.fromstring(line.partition(",")[2], sep=",")
        if row.shape != (LIP_POINTS,):
            return False
        grid[i] = row
    diagonal = np.eye(LIP_POINTS, dtype=bool)
    return grid.shape == (LIP_POINTS, LIP_POINTS) and bool(
        np.all(np.isnan(grid[diagonal])) and np.all(grid[~diagonal] > 0) and np.all(np.isfinite(grid[~diagonal])))


def surrogate_cycle(seed: int, cycle: int, workdir: Path) -> list[Op]:
    s = str(cycle_seed(seed, cycle))
    draws = len(TOY_DIMS) * TOY_SAMPLES
    return [
        cli_op(["toy", "kappa", "--nv", TOY_GRID, "--samples", str(TOY_SAMPLES), "--seed", s], kappa_check, draws,
               label="toy kappa"),
        cli_op(["toy", "norms", "--nv", TOY_GRID, "--samples", str(TOY_SAMPLES), "--seed", s], norms_check, draws,
               label="toy norms"),
        cli_op(["toy", "lip", "--nv", str(LIP_NV), "--seed", s], lip_check, LIP_POINTS * LIP_POINTS,
               label="toy lip"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[int, int, Path], list[Op]]
    work_unit: str  # what one unit of an op's work is
    work_counter: str | None  # traced-run counter the work units feed
    # Cycles whose ops that may fail are run once by the census before the
    # timed loop; the timed loop then replays the ops that succeeded.
    census_cycles: int = 0


# Ten planning cycles hold 1000 perturbed requests, of which ~2.5% meet the
# known defects; the census of them takes ~4 s.
PLANNING_CENSUS_CYCLES = 10

WORKLOADS = {
    "campaign": Workload("campaign", campaign_cycle, "field evaluation", "integrator.evaluations"),
    "trajectory": Workload("trajectory", trajectory_cycle, "field evaluation", "integrator.evaluations"),
    "planning": Workload("planning", planning_cycle, "budget row or sweep point", None, PLANNING_CENSUS_CYCLES),
    "surrogate": Workload("surrogate", surrogate_cycle, "surrogate draw or Lipschitz cell", None),
}


# --------------------------------------------------------------------------
# probe: one small direct call into every layer, for traced runs
# --------------------------------------------------------------------------


def time_per_call(fn, calls: int) -> float:
    start = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - start) / calls


PROBE_REPEATS = 3


def probe_layers(s: int, rec) -> None:
    """One small call into every traced layer, on inputs seeded by ``s``."""
    sc = scenarios.scenario("classical")
    rk4 = tableaux.builtin_tableau("rk4")
    prof = tableaux.profile(rk4, sc.error_const)
    bounds.global_error_bound_noisy(sc.pb, prof, 100, 1e-4)
    for name in scenarios.SCENARIO_NAMES:
        base = scenarios.scenario(name)
        rows = budget.budget_table(base.pb, error_const=base.error_const, a_max=base.a_max, b_max=base.b_max,
                                   sigma=base.sigma, dims=base.dims)
        budget.rows_to_csv(rows)
        budget.rows_to_json(rows)
    points = sensitivity.sweep(sensitivity.SweepSpec(base=sc, target="epsilon"))
    sensitivity.curves_to_csv({"epsilon": points})
    scenarios.apply_overrides(sc, perturbation(sc, np.random.default_rng(s)))
    u0, horizon, dx, _ = heat_problem(np.random.default_rng(s))
    scenarios.heat_evolve(u0, horizon, dx)
    report = harness.validate_noisy_bound(sc, rk4, CAMPAIGN_STEPS, 1e-4, trials=5, seed=s)
    harness.report_to_json(report)
    toymodel.study_to_csv(toymodel.kappa_study([10], 30, seed=s))
    toymodel.norm_study([10], 30, seed=s)
    _, params = toymodel.sample_toy(10, rng=s)
    grid = np.linspace(0.0, 10.0, 20)
    toymodel.lip_surface_to_csv(toymodel.lip_surface(params, grid, grid), grid, grid)
    for argv in (["table", "--scenario", "option_pricing"], ["sweep", "--target", "epsilon"],
                 ["toy", "kappa", "--nv", "10", "--samples", "30", "--seed", str(s)],
                 ["validate", "--method", "euler", "--delta", "1e-4", "--trials", "5", "--seed", str(s)],
                 ["convergence", "--method", "euler"]):
        op = cli_op(argv, lambda text: True, 0)
        idx = rec.open(op.span)
        try:
            op.run()
        finally:
            rec.close(idx)


def probe(seed: int, rec) -> dict[str, float]:
    """Call every traced layer a few times on small seeded inputs.

    Per-layer times that a workload's own operations never reach are taken
    from these calls, so every per-layer metric is measured on every
    workload.  Also times noisy oracle calls and the bare field directly, the
    oracle on the ``(seed, trial)`` streams of the first campaign cycle.
    """
    s = cycle_seed(seed, 0)
    root = rec.open("bench.probe")  # layer calls are recorded only under a root span
    try:
        for _ in range(PROBE_REPEATS):
            probe_layers(s, rec)
    finally:
        rec.close(root)

    def field(tau, y):  # the benchmark's own copy of the 1-D campaign field
        return 0.5 * y

    y = np.array([1.0])
    noise = integrator.NoiseSpec.from_delta(1e-4, eta=ETA)
    oracles = [integrator.EvaluationOracle(field, noise=noise, rng=(s, t)) for t in range(10)]
    calls = CAMPAIGN_STEPS * tableaux.builtin_tableau("rk4").stages
    oracle_s = sum(time_per_call(lambda o=o: o(0.0, y), calls) for o in oracles) / len(oracles)
    return {
        "integrator.oracle.us_per_eval": oracle_s * 1e6,
        "integrator.field.us_per_eval": time_per_call(lambda: field(0.0, y), 10 * calls) * 1e6,
    }


def count_overflow_warnings(fn) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return sum(issubclass(w.category, RuntimeWarning) and "overflow" in str(w.message) for w in caught)

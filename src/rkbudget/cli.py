"""Command-line front end.

Subcommands: ``table`` (budget tables), ``sweep`` (parameter sensitivity),
``toy`` (condition-number, norm and Lipschitz studies of the random
surrogate model), ``validate`` (bound-dominance campaigns) and
``convergence`` (empirical order check).  All output is CSV or JSON on
stdout or a file, numbers in full-precision scientific notation, and every
random quantity is driven by an explicit seed (default fixed, overridable
via the RKBUDGET_SEED environment variable), so identical invocations
produce identical bytes.  The argument parser is built once per process, on
the first call of :func:`main`.

Exit codes: 0 success, 1 validation failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import budget, sensitivity, toymodel
from .formats import csv_text, json_text
from .harness import report_record, report_to_json, validate_noisy_bound
from .harness import validate_noiseless_bound  # noqa: F401  (bench/spans.py wraps this name here)
from .integrator import DELTA_RANGE, DegenerateSlopeError, empirical_order
from .scenarios import SCENARIO_NAMES, apply_overrides, exp_ode, parse_overrides, scenario
from .tableaux import BUILTIN_METHODS, builtin_tableau

DEFAULT_SEED = 20240817
SEED_ENV_VAR = "RKBUDGET_SEED"
# Grid sizes far above the README's (25 sweep points, a 200-point lip grid),
# so that a mistyped count exits 2 instead of allocating rows or a
# points x points surface in proportion to it.
MAX_SWEEP_POINTS = 1001
MAX_LIP_POINTS = 1000
# The largest array a request may build, far above the README's requests (a
# 1000-trial, 100-step rk4 campaign draws a 3.2 MB noise block), so that a
# mistyped count exits 2 instead of asking numpy for terabytes.  A campaign
# holds its noise block twice.
MAX_ARRAY_BYTES = 1 << 30


def _seed(args) -> int:
    """The master seed: ``--seed``, else the environment's, else ``DEFAULT_SEED``."""
    if args.seed is not None:
        source, seed = "--seed", args.seed
    else:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return DEFAULT_SEED
        source = SEED_ENV_VAR
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _load_scenario(args):
    sc = scenario(args.scenario)
    if getattr(args, "overrides", None):
        path = Path(args.overrides)
        if not path.exists():
            raise ValueError(f"override file not found: {path}")
        try:
            sc = apply_overrides(sc, parse_overrides(path.read_text()))
        except ValueError as exc:
            raise ValueError(f"bad override file: {exc}") from None
    return sc


def _parse_range(option: str, text: str) -> range:
    """Parse '4', 'lo:hi' or 'lo:hi:step' (``hi`` included) into a non-empty range."""
    try:
        nums = [int(p) for p in text.split(":")]
    except ValueError:
        nums = []
    if not 1 <= len(nums) <= 3 or nums[2:] == [0]:
        raise ValueError(f"{option}: bad integer range {text!r}, expected n, lo:hi or lo:hi:step with a non-zero step")
    if values := range(nums[0], (nums[1] if len(nums) > 1 else nums[0]) + 1, *nums[2:]):
        return values
    raise ValueError(f"{option}: range {text!r} is empty")


def _check_horizon(name: str, horizon: float) -> None:
    try:
        exp_ode().exact(horizon)  # exp(horizon/2), the benchmark ODE's exact solution
    except OverflowError:
        raise ValueError(f"{name}={horizon!r}: the exact solution exp(horizon/2) exceeds the float range") from None


def _check_step(name: str, horizon: float, n_steps: int, option: str) -> None:
    if horizon > 0.0 and not horizon / n_steps > 0.0:
        raise ValueError(f"{name}={horizon!r}: the step {name} / {n_steps} ({option}) underflows to 0")


def _check_size(floats: int, request: str) -> None:
    """Reject a request whose largest array holds more than ``MAX_ARRAY_BYTES``."""
    if 8 * floats > MAX_ARRAY_BYTES:
        raise ValueError(f"{request} would build an array of up to {8 * floats:.3g} bytes,"
                         f" above the limit of {MAX_ARRAY_BYTES} ({MAX_ARRAY_BYTES >> 30} GiB)")


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_table(args) -> int:
    sc = _load_scenario(args)
    orders = _parse_range("--orders", args.orders)
    if not (1 <= orders[0] <= 10 and 1 <= orders[-1] <= 10):  # at its ends, never iterated
        raise ValueError("orders must lie within 1..10")
    rows = budget.budget_table(
        sc.pb,
        error_const=sc.error_const,
        p_range=orders,
        a_max=sc.a_max,
        b_max=sc.b_max,
        sigma=sc.sigma,
        dims=sc.dims,
    )
    _emit(args, budget.rows_to_json(rows) if args.format == "json" else budget.rows_to_csv(rows))
    return 0


def _cmd_sweep(args) -> int:
    grid = {key: value for key in ("points", "order") if (value := getattr(args, key)) is not None}
    if args.target == "p" and grid:
        raise ValueError("--points and --order do not apply to --target p, which sweeps every order 1..10")
    if args.order is not None and not 1 <= args.order <= 10:
        raise ValueError(f"--order must lie within 1..10, got {args.order}")
    if args.points is not None and args.points > MAX_SWEEP_POINTS:
        raise ValueError(f"--points must be at most {MAX_SWEEP_POINTS}, got {args.points}")
    spec = sensitivity.SweepSpec(base=_load_scenario(args), target=args.target, mode=args.mode, **grid)
    curves = {args.target: sensitivity.sweep(spec)}
    _emit(args, sensitivity.curves_to_json(curves) if args.format == "json" else sensitivity.curves_to_csv(curves))
    return 0


def _cmd_study(args) -> int:
    nv_grid = _parse_range("--nv", args.nv)
    nv_min, nv_max = sorted((nv_grid[0], nv_grid[-1]))  # min(nv_grid) would iterate it
    if nv_min < 1:
        raise ValueError(f"--nv: dimensions must be positive, got {args.nv!r}")
    if not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta}")
    seed = _seed(args)
    if args.samples < 30:
        raise ValueError(f"--samples: need at least 30 samples per grid point, got {args.samples}")
    _check_size(5 * nv_max**2, f"--nv {nv_max}")  # one draw's coefficient planes
    # per sample: its stream's four seed words, and up to four measures per dimension
    _check_size(4 * len(nv_grid) * args.samples, f"--samples {args.samples} with --nv {args.nv}")
    kappa = args.study == "kappa"
    study = toymodel.kappa_study if kappa else toymodel.norm_study
    result = study(nv_grid, args.samples, theta=args.theta, seed=seed)
    if args.format == "json":
        def records(points):
            return [dict(zip(toymodel.STUDY_KEYS, astuple(p))) for p in points]
        _emit(args, json_text(records(result) if kappa else {name: records(pts) for name, pts in result.items()}))
    elif kappa:
        _emit(args, toymodel.study_to_csv(result))
    else:
        rows = [(name, *astuple(p)) for name in sorted(result) for p in result[name]]
        _emit(args, csv_text(("study",) + toymodel.STUDY_KEYS, rows))
    return 0


def _cmd_lip(args) -> int:
    if args.nv < 1:
        raise ValueError(f"--nv must be positive, got {args.nv}")
    seed = _seed(args)
    if not (math.isfinite(args.lo) and math.isfinite(args.hi)):
        raise ValueError(f"--lo and --hi must be finite, got {args.lo} and {args.hi}")
    if args.lo >= args.hi:
        raise ValueError(f"--lo must be below --hi, got {args.lo} >= {args.hi}")
    if not math.isfinite(args.hi - args.lo):
        raise ValueError(f"--hi - --lo overflows the float range, got --lo {args.lo} and --hi {args.hi}")
    if not 2 <= args.points <= MAX_LIP_POINTS:
        raise ValueError(f"--points must be at least 2 and at most {MAX_LIP_POINTS}, got {args.points}")
    _check_size(5 * args.nv**2, f"--nv {args.nv}")  # the draw's coefficient planes
    _, params = toymodel.sample_toy(args.nv, rng=seed)
    grid = np.linspace(args.lo, args.hi, args.points)
    surface = toymodel.lip_surface(params, grid, grid)
    if args.format == "json":
        _emit(args, json_text({"grid": grid.tolist(), "surface": surface.tolist()}, indent=None))
    else:
        _emit(args, toymodel.lip_surface_to_csv(surface, grid, grid))
    return 0


def _cmd_validate(args) -> int:
    sc = _load_scenario(args)
    _check_horizon("T", sc.pb.horizon)
    if args.ntau < 1:
        raise ValueError(f"--ntau must be at least 1, got {args.ntau}")
    _check_step("T", sc.pb.horizon, args.ntau, "--ntau")
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    if not 0.0 < args.eta < 1.0:  # NaN too
        raise ValueError(f"--eta must lie in (0, 1), got {args.eta}")
    if args.delta != 0.0 and not DELTA_RANGE[0] <= args.delta <= DELTA_RANGE[1]:  # NaN and +-inf too
        raise ValueError(
            f"--delta must be 0 or lie in [{DELTA_RANGE[0]:g}, {DELTA_RANGE[1]:g}], where the"
            f" perturbation norms neither underflow nor overflow; got {args.delta:g}"
        )
    tableau = builtin_tableau(args.method)
    seed = _seed(args)
    if args.delta == 0.0:  # one trajectory's states
        _check_size(args.ntau + 1, f"--ntau {args.ntau}")
    else:  # the noise block, or the batch's states
        _check_size(max(args.trials * args.ntau * tableau.stages, max(args.trials, 1) * (args.ntau + 1)),
                    f"--trials {args.trials} and --ntau {args.ntau} with {tableau.stages}-stage --method {args.method}")
    mode = "clipped-gaussian" if args.mode == "clipped" else "gaussian"
    # At --delta 0 this is one noiseless check, made after the same input checks.
    report = validate_noisy_bound(
        sc, tableau, args.ntau, args.delta, trials=args.trials, seed=seed, mode=mode, eta=args.eta
    )
    if args.delta == 0.0 or mode == "clipped-gaussian":
        failed = report.violations > 0
    else:
        # The per-evaluation bound is only probabilistic here; gate on its
        # exceedance rate with three-sigma binomial slack.
        allowance = args.eta + 3.0 * math.sqrt(args.eta * (1.0 - args.eta) / max(report.evaluations, 1))
        failed = report.exceedance_rate > allowance
    if args.format == "csv":
        _emit(args, csv_text(("key", "value"), sorted(report_record(report).items())))
    else:
        _emit(args, report_to_json(report))
    return 1 if failed else 0


def _cmd_convergence(args) -> int:
    tableau = builtin_tableau(args.method)
    try:
        steps = [int(s) for s in args.steps.split(",")]
    except ValueError:
        raise ValueError(f"--steps: expected comma-separated integers, got {args.steps!r}") from None
    if len(set(steps)) < 4:
        raise ValueError(f"--steps: need at least 4 step counts, all distinct, got {args.steps!r}")
    if min(steps) < 1:
        raise ValueError(f"--steps: step counts must be at least 1, got {args.steps!r}")
    if not 0.0 < args.horizon < math.inf:  # NaN too
        raise ValueError(f"--horizon must be finite and positive, got {args.horizon}")
    _check_horizon("--horizon", args.horizon)
    _check_step("--horizon", args.horizon, max(steps), "the largest of --steps")
    _check_size(max(steps) + 1, f"the largest of --steps, {max(steps)},")  # the longest trajectory's states
    try:
        slope = empirical_order(tableau, exp_ode(), steps, horizon=args.horizon)
    except DegenerateSlopeError as exc:
        raise ValueError(f"{exc}; no slope at --horizon {args.horizon!r} with --steps {args.steps}") from None
    if args.format == "json":
        _emit(args, json_text({"method": args.method, "slope": slope, "steps": steps}, indent=None))
    else:
        _emit(args, csv_text(("method", "slope"), [(args.method, slope)]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rkbudget", description=__doc__.partition("\n")[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario_default=None, seeded=False):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help=f"master seed (default {DEFAULT_SEED}, env {SEED_ENV_VAR})")
        if scenario_default is not None:
            p.add_argument("--scenario", default=scenario_default, help=f"one of {SCENARIO_NAMES}")
            p.add_argument("--overrides", default=None, help="key=value override file applied to the scenario")

    p_table = sub.add_parser("table", help="resource budget table per method order")
    add_common(p_table, scenario_default="classical")
    p_table.add_argument("--orders", default="1:10", help="order range, e.g. 1:10")
    p_table.set_defaults(func=_cmd_table)

    p_sweep = sub.add_parser("sweep", help="one-at-a-time parameter sensitivity curve")
    add_common(p_sweep, scenario_default="classical")
    p_sweep.add_argument("--target", required=True, choices=sensitivity.SWEEP_TARGETS)
    p_sweep.add_argument("--mode", choices=sensitivity.SWEEP_MODES, default="cost")
    p_sweep.add_argument("--points", type=int, help=f"odd number of factors in [1/8, 8] (default {sensitivity.DEFAULT_POINTS})")
    p_sweep.add_argument("--order", type=int, help=f"order held fixed (default {sensitivity.DEFAULT_ORDER})")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_toy = sub.add_parser("toy", help="random-surrogate studies (kappa, norms, lip)")
    studies = p_toy.add_subparsers(dest="study", required=True)
    for study, measure in (("kappa", "condition number of A"), ("norms", "norms of A, C and A^-1 C")):
        p_study = studies.add_parser(study, help=f"quantiles of the {measure} per dimension")
        add_common(p_study, seeded=True)
        p_study.add_argument("--nv", required=True, help="dimension or range, e.g. 25 or 10:100:10")
        p_study.add_argument("--samples", type=int, default=100)
        p_study.add_argument("--theta", type=float, default=0.5)
        p_study.set_defaults(func=_cmd_study)
    p_lip = studies.add_parser("lip", help="Lipschitz surface of one draw over a square grid")
    add_common(p_lip, seeded=True)
    p_lip.add_argument("--nv", type=int, required=True, help="dimension")
    p_lip.add_argument("--lo", type=float, default=0.0, help="grid lower end")
    p_lip.add_argument("--hi", type=float, default=10.0, help="grid upper end")
    p_lip.add_argument("--points", type=int, default=200, help="grid resolution")
    p_lip.set_defaults(func=_cmd_lip)

    p_val = sub.add_parser("validate", help="bound-dominance campaign on the benchmark ODE")
    add_common(p_val, scenario_default="classical", seeded=True)
    p_val.add_argument("--method", required=True, choices=sorted(BUILTIN_METHODS))
    p_val.add_argument("--mode", choices=("clipped", "gaussian"), default="clipped")
    p_val.add_argument("--delta", type=float, default=0.0, help="per-evaluation noise bound (0 disables noise)")
    p_val.add_argument("--ntau", type=int, default=100)
    p_val.add_argument("--trials", type=int, default=1000)
    p_val.add_argument("--eta", type=float, default=0.05)
    p_val.set_defaults(func=_cmd_validate)

    p_conv = sub.add_parser("convergence", help="empirical order of a built-in method")
    add_common(p_conv)
    p_conv.add_argument("--method", required=True, choices=sorted(BUILTIN_METHODS))
    p_conv.add_argument("--steps", default="32,64,128,256,512", help="comma-separated step counts")
    p_conv.add_argument("--horizon", type=float, default=5.0)
    p_conv.set_defaults(func=_cmd_convergence)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Safe to share: parse_args leaves the parser unchanged and returns a new
    # Namespace, and defaults that depend on the environment (the seed) are
    # read by the commands at call time, not stored in the parser.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

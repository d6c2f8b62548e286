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
from .integrator import DegenerateSlopeError, empirical_order
from .scenarios import SCENARIO_NAMES, apply_overrides, exp_ode, scenario
from .tableaux import BUILTIN_METHODS, builtin_tableau

DEFAULT_SEED = 20240817
SEED_ENV_VAR = "RKBUDGET_SEED"


class CliError(Exception):
    """Configuration problem; maps to exit code 2."""


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _load_scenario(args):
    sc = scenario(args.scenario)
    if getattr(args, "overrides", None):
        path = Path(args.overrides)
        if not path.exists():
            raise CliError(f"override file not found: {path}")
        try:
            sc = apply_overrides(sc, path)
        except ValueError as exc:
            raise CliError(f"bad override file: {exc}") from None
    return sc


def _parse_range(option: str, text: str) -> list[int]:
    """Parse '4', 'lo:hi' or 'lo:hi:step' (``hi`` included) into a non-empty list of integers."""
    try:
        nums = [int(p) for p in text.split(":")]
    except ValueError:
        nums = []
    if not 1 <= len(nums) <= 3 or nums[2:] == [0]:
        raise CliError(f"{option}: bad integer range {text!r}, expected n, lo:hi or lo:hi:step with a non-zero step")
    values = nums if len(nums) == 1 else list(range(nums[0], nums[1] + 1, *nums[2:]))
    if not values:
        raise CliError(f"{option}: range {text!r} is empty")
    return values


def _check_horizon(name: str, horizon: float) -> None:
    try:
        exp_ode().exact(horizon)  # exp(horizon/2), the benchmark ODE's exact solution
    except OverflowError:
        raise CliError(f"{name}={horizon!r}: the exact solution exp(horizon/2) exceeds the float range") from None


def _check_step(name: str, horizon: float, n_steps: int, option: str) -> None:
    if horizon > 0.0 and not horizon / n_steps > 0.0:
        raise CliError(f"{name}={horizon!r}: the step {name} / {n_steps} ({option}) underflows to 0")


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_table(args) -> int:
    sc = _load_scenario(args)
    orders = _parse_range("--orders", args.orders)
    if any(p < 1 or p > 10 for p in orders):
        raise CliError("orders must lie within 1..10")
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
    sc = _load_scenario(args)
    spec = sensitivity.SweepSpec(
        base=sc,
        target=args.target,
        mode=args.mode,
        factors=sensitivity.default_factors(args.points),
        order=args.order,
    )
    curves = {args.target: sensitivity.sweep(spec)}
    _emit(args, sensitivity.curves_to_json(curves) if args.format == "json" else sensitivity.curves_to_csv(curves))
    return 0


def _cmd_toy(args) -> int:
    nv_grid = _parse_range("--nv", args.nv)
    if any(nv < 1 for nv in nv_grid):
        raise CliError("nv values must be positive")
    if not math.isfinite(args.theta):
        raise CliError(f"--theta must be finite, got {args.theta}")
    seed = args.seed if args.seed is not None else _default_seed()
    if args.study != "lip" and args.samples < 30:
        raise CliError(f"--samples: need at least 30 samples per grid point, got {args.samples}")
    if args.study == "kappa":
        points = toymodel.kappa_study(nv_grid, args.samples, theta=args.theta, seed=seed)
        if args.format == "json":
            _emit(args, json_text([dict(zip(toymodel.STUDY_KEYS, astuple(p))) for p in points]))
        else:
            _emit(args, toymodel.study_to_csv(points))
        return 0
    if args.study == "norms":
        studies = toymodel.norm_study(nv_grid, args.samples, theta=args.theta, seed=seed)
        if args.format == "json":
            payload = {name: [dict(zip(toymodel.STUDY_KEYS, astuple(p))) for p in points]
                       for name, points in studies.items()}
            _emit(args, json_text(payload))
        else:
            rows = [(name, *astuple(p)) for name in sorted(studies) for p in studies[name]]
            _emit(args, csv_text(("study",) + toymodel.STUDY_KEYS, rows))
        return 0
    # lip surface
    if len(nv_grid) != 1:
        raise CliError("lip study takes a single nv value")
    if not (math.isfinite(args.lo) and math.isfinite(args.hi)):
        raise CliError(f"--lo and --hi must be finite, got {args.lo} and {args.hi}")
    if args.lo >= args.hi:
        raise CliError(f"--lo must be below --hi, got {args.lo} >= {args.hi}")
    if not math.isfinite(args.hi - args.lo):
        raise CliError(f"--hi - --lo overflows the float range, got --lo {args.lo} and --hi {args.hi}")
    if args.points < 2:
        raise CliError(f"--points must be at least 2, got {args.points}")
    _, params = toymodel.sample_toy(nv_grid[0], theta=args.theta, rng=seed)
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
        raise CliError(f"--ntau must be at least 1, got {args.ntau}")
    _check_step("T", sc.pb.horizon, args.ntau, "--ntau")
    tableau = builtin_tableau(args.method)
    seed = args.seed if args.seed is not None else _default_seed()
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
        raise CliError(f"--steps: expected comma-separated integers, got {args.steps!r}") from None
    if len(set(steps)) < 4:
        raise CliError(f"--steps: need at least 4 step counts, all distinct, got {args.steps!r}")
    if min(steps) < 1:
        raise CliError(f"--steps: step counts must be at least 1, got {args.steps!r}")
    _check_horizon("--horizon", args.horizon)
    _check_step("--horizon", args.horizon, max(steps), "the largest of --steps")
    try:
        slope = empirical_order(tableau, exp_ode(), steps, horizon=args.horizon)
    except DegenerateSlopeError as exc:
        raise CliError(f"{exc}; no slope at --horizon {args.horizon!r} with --steps {args.steps}") from None
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
    p_sweep.add_argument("--points", type=int, default=25, help="odd number of scale factors in [1/8, 8]")
    p_sweep.add_argument("--order", type=int, default=sensitivity.DEFAULT_ORDER)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_toy = sub.add_parser("toy", help="random-surrogate studies (kappa, norms, lip)")
    p_toy.add_argument("study", choices=("kappa", "norms", "lip"))
    add_common(p_toy, seeded=True)
    p_toy.add_argument("--nv", required=True, help="dimension or range, e.g. 25 or 10:100:10")
    p_toy.add_argument("--samples", type=int, default=100)
    p_toy.add_argument("--theta", type=float, default=0.5)
    p_toy.add_argument("--lo", type=float, default=0.0, help="lip grid lower end")
    p_toy.add_argument("--hi", type=float, default=10.0, help="lip grid upper end")
    p_toy.add_argument("--points", type=int, default=200, help="lip grid resolution")
    p_toy.set_defaults(func=_cmd_toy)

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
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

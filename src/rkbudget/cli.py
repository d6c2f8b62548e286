"""Command-line front end.

Subcommands: ``table`` (budget tables), ``sweep`` (parameter sensitivity),
``toy`` (condition-number, norm and Lipschitz studies of the random
surrogate model), ``validate`` (bound-dominance campaigns) and
``convergence`` (empirical order check).  All output is CSV or JSON on
stdout or a file, numbers in full-precision scientific notation, and every
random quantity is driven by ``--seed`` (default ``DEFAULT_SEED``), so an
output depends only on its command line and the files it names.  The
argument parser is built once per process, on the first call of
:func:`main`.  Its option types apply the library's own rules, so a bad
value exits 2 with one line (``error: argument --ntau: n_steps must be at
least 1, got 0``); the commands check what spans options.

Exit codes: 0 success, 1 validation failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import budget, sensitivity, toymodel
from ._streams import _index_bytes, _words
from .bounds import _check_eta
from .formats import csv_text, json_text
from .harness import _check_trials, report_record, report_to_json, validate_noiseless_bound, validate_noisy_bound
from .integrator import (DegenerateSlopeError, _DELTA_RULE, _check_delta, _check_positive, _slab_bytes, _slope_steps,
                         _step_count, empirical_order)
from .scenarios import SCENARIO_NAMES, apply_overrides, exp_ode, parse_overrides, scenario
from .tableaux import BUILTIN_METHODS, builtin_tableau, min_stages

DEFAULT_SEED = 20240817
# Grid sizes far above the README's (25 sweep points, a 200-point lip grid),
# so that a mistyped count exits 2 instead of allocating rows or a
# points x points surface in proportion to it.
MAX_SWEEP_POINTS = 1001
MAX_LIP_POINTS = 1000
# The most a request's arrays may hold, far above the README's requests (a
# 1000-trial, 100-step rk4 campaign holds about 4.2 MB, its 3.2 MB noise block
# among them), so that a mistyped count exits 2 instead of asking numpy for
# terabytes.
MAX_ARRAY_BYTES = 1 << 30
# The most stage evaluations a request's trajectories may make, 100 times the
# README's and the benchmark's largest (10000 rk4 steps), so that a mistyped
# step count exits 2 instead of stepping for half an hour, however few trials.
MAX_STAGE_EVALUATIONS = 4_000_000


def _typed(parse, *checks):
    """An argparse ``type``: ``parse`` the text, then apply each of ``checks``,
    whose ValueError argparse reports after ``argument --<option>:``."""
    def convert(text: str):
        value = parse(text)
        try:
            for check in checks:
                check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    convert.__name__ = parse.__name__  # argparse's "invalid int value: '1.5'"
    return convert


def _noise_bound(delta: float) -> None:
    """``--delta``'s rule: 0 for no noise, or else a noise bound."""
    if delta != 0.0:
        try:
            _check_delta(delta)
        except ValueError:
            raise ValueError(f"{_DELTA_RULE}, or be 0 for no noise; got {delta:g}") from None


def _ends(check):  # both ends of a range, which is never iterated
    return lambda values: (check(values[0]), check(values[-1]))


def _finite(value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")


def _points(low: int, high: int):
    def check(points: int) -> None:
        if not low <= points <= high:
            raise ValueError(f"points must lie in {low}..{high}, got {points}")
    return check


def _check_seed(seed: int) -> None:
    """The streams' seed rule, naming the value that numpy's message leaves out."""
    try:
        _words(seed)
    except ValueError as exc:
        raise ValueError(f"{exc}, got {seed}") from None


# The errors for which Path.exists says False: no such entry, a file where a
# directory should be, a symlink loop.
_MISSING = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)


def _load_scenario(args):
    sc = scenario(args.scenario)
    if getattr(args, "overrides", None):
        path = Path(args.overrides)
        try:  # one read, no stat before it
            sc = apply_overrides(sc, parse_overrides(path.read_text()))
        except OSError as exc:
            if exc.errno not in _MISSING:
                raise
            raise ValueError(f"override file not found: {path}") from None
        except ValueError as exc:
            raise ValueError(f"bad override file: {exc}") from None
    return sc


def _parse_range(text: str) -> range:
    """Parse '4', 'lo:hi' or 'lo:hi:step' (``hi`` included) into a non-empty range."""
    try:
        nums = [int(p) for p in text.split(":")]
    except ValueError:
        nums = []
    if not 1 <= len(nums) <= 3 or nums[2:] == [0]:
        raise argparse.ArgumentTypeError(
            f"bad integer range {text!r}, expected n, lo:hi or lo:hi:step with a non-zero step")
    step = nums[2] if len(nums) == 3 else 1
    if values := range(nums[0], nums[min(len(nums), 2) - 1] + (1 if step > 0 else -1), step):
        return values
    raise argparse.ArgumentTypeError(f"range {text!r} is empty")


def _parse_steps(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _check_steps(name: str, horizon: float, n_steps: int, option: str) -> None:
    try:
        exp_ode().exact(horizon)  # exp(horizon/2), the benchmark ODE's exact solution
    except OverflowError:
        raise ValueError(f"{name}={horizon!r}: the exact solution exp(horizon/2) exceeds the float range") from None
    if horizon > 0.0 and not horizon / n_steps > 0.0:
        raise ValueError(f"{name}={horizon!r}: the step {name} / {n_steps} ({option}) underflows to 0")


def _check_size(nbytes: int, request: str, evaluations: int = 0) -> None:
    """Reject a request whose arrays (``nbytes``) or stage evaluations pass their limit."""
    if nbytes > MAX_ARRAY_BYTES:
        raise ValueError(f"{request} would build an array of up to {nbytes:.3g} bytes,"
                         f" above the limit of {MAX_ARRAY_BYTES} ({MAX_ARRAY_BYTES >> 30} GiB)")
    if evaluations > MAX_STAGE_EVALUATIONS:
        raise ValueError(f"{request} would make {evaluations:.3g} stage evaluations,"
                         f" above the limit of {MAX_STAGE_EVALUATIONS:.3g}")


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_table(args) -> int:
    sc = _load_scenario(args)
    rows = budget.budget_table(sc.pb, error_const=sc.error_const, p_range=args.orders, a_max=sc.a_max,
                               b_max=sc.b_max, sigma=sc.sigma, dims=sc.dims)
    _emit(args, budget.rows_to_json(rows) if args.format == "json" else budget.rows_to_csv(rows))
    return 0


def _cmd_sweep(args) -> int:
    grid = {key: value for key in ("points", "order") if (value := getattr(args, key)) is not None}
    if args.target == "p" and grid:
        raise ValueError("--points and --order do not apply to --target p, which sweeps every order 1..10")
    spec = sensitivity.SweepSpec(base=_load_scenario(args), target=args.target, mode=args.mode, **grid)
    curves = {args.target: sensitivity.sweep(spec)}
    _emit(args, sensitivity.curves_to_json(curves) if args.format == "json" else sensitivity.curves_to_csv(curves))
    return 0


def _cmd_study(args) -> int:
    nv_max = max(args.nv[0], args.nv[-1])  # max(args.nv) would iterate the range
    _check_size(8 * 5 * nv_max**2, f"--nv {nv_max}")  # one draw's coefficient planes
    kappa = args.study == "kappa"
    # per sample: seeding its stream, and its measures (one, or four for the norms) per dimension twice,
    # in the gathered rows and in the well-conditioned rows kept of them; per chunk in flight, 8 floats per
    # matrix entry of its draws (five coefficient planes, A, its inverse and a temporary) and 6 per vector entry
    measures = 8 * (1 if kappa else 4) * len(args.nv)
    chunks = max(lanes * 8 * min(size, args.samples) * (8 * nv * nv + 6 * nv)
                 for nv in args.nv for size, lanes in [toymodel._chunking(nv)])
    _check_size(chunks, f"--nv {nv_max}")  # past 1 GiB only from --nv 4096, one draw per chunk
    _check_size(args.samples * (_index_bytes((args.seed, nv_max)) + 2 * measures) + chunks,
                f"--samples {args.samples} with {len(args.nv)} --nv values")
    study = toymodel.kappa_study if kappa else toymodel.norm_study
    result = study(args.nv, args.samples, theta=args.theta, seed=args.seed)
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
    if args.lo >= args.hi:
        raise ValueError(f"--lo must be below --hi, got {args.lo} >= {args.hi}")
    if not math.isfinite(args.hi - args.lo):
        raise ValueError(f"--hi - --lo overflows the float range, got --lo {args.lo} and --hi {args.hi}")
    _check_size(8 * 5 * args.nv**2, f"--nv {args.nv}")  # the draw's coefficient planes
    _, params = toymodel.sample_toy(args.nv, rng=args.seed)
    grid = np.linspace(args.lo, args.hi, args.points)
    surface = toymodel.lip_surface(params, grid, grid)
    _emit(args, json_text({"grid": grid.tolist(), "surface": surface.tolist()}, indent=None) if args.format == "json"
          else toymodel.lip_surface_to_csv(surface, grid, grid))
    return 0


def _cmd_validate(args) -> int:
    sc = _load_scenario(args)
    _check_steps("T", sc.pb.horizon, args.ntau, "--ntau")
    tableau = builtin_tableau(args.method)
    evaluations = args.ntau * tableau.stages  # per trial: one batch steps them all
    request = f"--ntau {args.ntau} with {tableau.stages}-stage --method {args.method}"
    if args.delta == 0.0:  # stepping holds only the current state
        _check_size(0, request, evaluations)
        report = validate_noiseless_bound(sc, tableau, [args.ntau])
    else:  # per draw of exp_ode's 1-D noise, 8 bytes of block; per trial, its seeding; one slab's masks and
        # gathers.  One stream's reused draw buffer, 8 bytes per evaluation, stays under the evaluation limit's 32 MB.
        draws = args.trials * evaluations
        _check_size(8 * draws + args.trials * _index_bytes((args.seed,)) + _slab_bytes(draws),
                    f"--trials {args.trials} and {request}", evaluations)
        mode = "clipped-gaussian" if args.mode == "clipped" else "gaussian"
        report = validate_noisy_bound(sc, tableau, args.ntau, args.delta, trials=args.trials, seed=args.seed,
                                      mode=mode, eta=args.eta)
    failed = report.violations > 0
    if args.delta != 0.0 and args.mode == "gaussian":
        # The per-evaluation bound is only probabilistic here; gate on its
        # exceedance rate with three-sigma binomial slack.
        allowance = args.eta + 3.0 * math.sqrt(args.eta * (1.0 - args.eta) / max(report.evaluations, 1))
        failed = report.exceedance_rate > allowance
    _emit(args, csv_text(("key", "value"), sorted(report_record(report).items())) if args.format == "csv"
          else report_to_json(report))
    return 1 if failed else 0


def _cmd_convergence(args) -> int:
    tableau = builtin_tableau(args.method)
    steps, text = args.steps, ",".join(map(str, args.steps))
    _check_steps("--horizon", args.horizon, max(steps), "the largest of --steps")
    _check_size(0, f"--steps {text} with {tableau.stages}-stage --method {args.method}",  # no array grows
                sum(steps) * tableau.stages)
    try:
        slope = empirical_order(tableau, exp_ode(), steps, horizon=args.horizon)
    except DegenerateSlopeError as exc:
        raise ValueError(f"{exc}; no slope at --horizon {args.horizon!r} with --steps {text}") from None
    _emit(args, json_text({"method": args.method, "slope": slope, "steps": steps}, indent=None) if args.format == "json"
          else csv_text(("method", "slope"), [(args.method, slope)]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # exit_on_error=False on every (sub)parser: a bad value raises an ArgumentError, which main reports
    parser = argparse.ArgumentParser(prog="rkbudget", description=__doc__.partition("\n")[0] if __doc__ else None,
                                     exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario_default=None, seeded=False):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if seeded:
            p.add_argument("--seed", type=_typed(int, _check_seed), default=DEFAULT_SEED,
                           help=f"master seed (default {DEFAULT_SEED})")
        if scenario_default is not None:
            p.add_argument("--scenario", default=scenario_default, help=f"one of {SCENARIO_NAMES}")
            p.add_argument("--overrides", default=None, help="key=value override file applied to the scenario")

    p_table = sub.add_parser("table", help="resource budget table per method order", exit_on_error=False)
    add_common(p_table, scenario_default="classical")
    p_table.add_argument("--orders", type=_typed(_parse_range, _ends(min_stages)), default="1:10",
                         help="order range, e.g. 1:10")
    p_table.set_defaults(func=_cmd_table)

    p_sweep = sub.add_parser("sweep", help="one-at-a-time parameter sensitivity curve", exit_on_error=False)
    add_common(p_sweep, scenario_default="classical")
    p_sweep.add_argument("--target", required=True, choices=sensitivity.SWEEP_TARGETS)
    p_sweep.add_argument("--mode", choices=sensitivity.SWEEP_MODES, default="cost")
    p_sweep.add_argument("--points", type=_typed(int, sensitivity._check_points, _points(3, MAX_SWEEP_POINTS)),
                         help=f"odd number of factors in [1/8, 8] (default {sensitivity.DEFAULT_POINTS})")
    p_sweep.add_argument("--order", type=_typed(int, min_stages),
                         help=f"order held fixed (default {sensitivity.DEFAULT_ORDER})")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_toy = sub.add_parser("toy", help="random-surrogate studies (kappa, norms, lip)", exit_on_error=False)
    studies = p_toy.add_subparsers(dest="study", required=True)
    for study, measure in (("kappa", "condition number of A"), ("norms", "norms of A, C and A^-1 C")):
        p_study = studies.add_parser(study, help=f"quantiles of the {measure} per dimension", exit_on_error=False)
        add_common(p_study, seeded=True)
        p_study.add_argument("--nv", type=_typed(_parse_range, _ends(toymodel._check_draws)), required=True,
                             help="dimension or range, e.g. 25 or 10:100:10")
        p_study.add_argument("--samples", type=_typed(int, lambda samples: toymodel._check_draws(samples=samples)),
                             default=100)
        p_study.add_argument("--theta", type=_typed(float, _finite), default=0.5)
        p_study.set_defaults(func=_cmd_study)
    p_lip = studies.add_parser("lip", help="Lipschitz surface of one draw over a square grid", exit_on_error=False)
    add_common(p_lip, seeded=True)
    p_lip.add_argument("--nv", type=_typed(int, toymodel._check_draws), required=True, help="dimension")
    p_lip.add_argument("--lo", type=_typed(float, _finite), default=0.0, help="grid lower end")
    p_lip.add_argument("--hi", type=_typed(float, _finite), default=10.0, help="grid upper end")
    p_lip.add_argument("--points", type=_typed(int, _points(2, MAX_LIP_POINTS)), default=200, help="grid resolution")
    p_lip.set_defaults(func=_cmd_lip)

    p_val = sub.add_parser("validate", help="bound-dominance campaign on the benchmark ODE", exit_on_error=False)
    add_common(p_val, scenario_default="classical", seeded=True)
    p_val.add_argument("--method", required=True, choices=sorted(BUILTIN_METHODS))
    p_val.add_argument("--mode", choices=("clipped", "gaussian"), default="clipped")
    p_val.add_argument("--delta", type=_typed(float, _noise_bound), default=0.0,
                       help="per-evaluation noise bound (0 disables noise)")
    p_val.add_argument("--ntau", type=_typed(int, _step_count), default=100)
    p_val.add_argument("--trials", type=_typed(int, _check_trials), default=1000)
    p_val.add_argument("--eta", type=_typed(float, _check_eta), default=0.05)
    p_val.set_defaults(func=_cmd_validate)

    p_conv = sub.add_parser("convergence", help="empirical order of a built-in method", exit_on_error=False)
    add_common(p_conv)
    p_conv.add_argument("--method", required=True, choices=sorted(BUILTIN_METHODS))
    p_conv.add_argument("--steps", type=_typed(_parse_steps, _slope_steps), default="32,64,128,256,512",
                        help="comma-separated step counts")
    p_conv.add_argument("--horizon", type=_typed(float, functools.partial(_check_positive, "horizon")), default=5.0)
    p_conv.set_defaults(func=_cmd_convergence)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Safe to share: parse_args leaves the parser unchanged and returns a new Namespace.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

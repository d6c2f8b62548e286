#!/usr/bin/env python3
"""Run one rkbudget benchmark workload and print its metrics.

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``rkbudget`` from that
checkout's ``src/`` and nothing else.  One client in one process issues
the next operation when the previous one returns (a closed loop), for
whole cycles of operations until ``--seconds`` have passed.  Every output
is checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it show every metric by name and unit.  A full record,
and in traced runs the raw spans, go to ``bench/out/``.
"""

import time

START = time.perf_counter()

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 9
WORKLOADS = ("campaign", "trajectory", "planning", "surrogate")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms_typical": "ms",
}

MODULES = ("integrator", "harness", "bounds", "budget", "sensitivity", "scenarios", "tableaux", "toymodel", "cli")

PER_LAYER = {
    "integrator.integrate.ms": "ms",
    "integrator.integrate.us_per_eval": "us",
    "integrator.rk_step.us": "us",
    "integrator.rk_step.us_per_eval": "us",
    "integrator.oracle.us_per_eval": "us",
    "integrator.field.us_per_eval": "us",
    "integrator.evaluations": "count",
    "integrator.delta_exceedances": "count",
    "harness.validate_noisy_bound.s": "s",
    "harness.trials": "count",
    "harness.violations": "count",
    "harness.worst_margin": "ratio",
    "harness.report_to_json.ms": "ms",
    "harness.non_integrate_share": "ratio",
    "bounds.global_error_bound_noisy.us": "us",
    "bounds.overflow_warnings": "count",
    "budget.budget_table.us": "us",
    "budget.rows": "count",
    "budget.infeasible_rows": "count",
    "budget.nonfinite_rows": "count",
    "budget.raised.ValueError": "count",
    "budget.raised.OverflowError": "count",
    "budget.rows_to_csv.us": "us",
    "budget.rows_to_json.us": "us",
    "sensitivity.sweep.us": "us",
    "sensitivity.points": "count",
    "sensitivity.infeasible_points": "count",
    "sensitivity.curves_to_csv.us": "us",
    "scenarios.apply_overrides.us": "us",
    "scenarios.heat_evolve.ms": "ms",
    "tableaux.builtin_tableau.us": "us",
    "tableaux.profile.us": "us",
    "toymodel.sample_toy.us": "us",
    "toymodel.condition_number.us": "us",
    "toymodel.draws": "count",
    "toymodel.excluded_draws": "count",
    "toymodel.kappa_study.s": "s",
    "toymodel.norm_study.s": "s",
    "toymodel.lip_surface.s": "s",
    "toymodel.lip_nan_cells": "count",
    "toymodel.lip_surface_to_csv.s": "s",
    "toymodel.study_to_csv.ms": "ms",
    "cli.table.ms": "ms",
    "cli.sweep.ms": "ms",
    "cli.toy.ms": "ms",
    "cli.validate.ms": "ms",
    "cli.convergence.ms": "ms",
    "cli.exit2": "count",
    "cli.uncaught": "count",
    "cli.library_share": "ratio",
    **{f"{m}.self_share": "ratio" for m in MODULES},
    "bench.self_share": "ratio",
    "trace.overhead": "ratio",
}

# Root span of the benchmark's own direct layer calls after an op: their
# spans give per-layer times but are not part of any op's time.
DIRECT_ROOT = "bench.direct"
# Traced-run counters that the census's known failures add to.
CENSUS_COUNTERS = ("cli.exit2", "cli.uncaught", "budget.raised.ValueError", "budget.raised.OverflowError")
TIME_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
NOTE = "shared machine, no CPU pinning; run-to-run variance is recorded, not hidden"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cap_blas_threads(nproc: int) -> dict[str, str]:
    """Cap BLAS/OpenMP threads at ``nproc``; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def environment(nproc: int, caps: dict[str, str]) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_thread_cap": caps,
        "note": NOTE,
    }


def child_setup_s(args, gauge) -> float:
    """Set-up time of a fresh process (import rkbudget, build the first cycle), at nominal speed."""
    before = gauge.read()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) / statistics.fmean((before, gauge.read()))


class Loop:
    """Closed-loop run of a workload: whole cycles until time is up."""

    def __init__(self, workloads, workload, seed, workdir, gauge):
        self.w, self.workload, self.seed, self.workdir = workloads, workload, seed, workdir
        self.gauge = gauge
        self.next_cycle = 0
        self.pool = None  # the census's cycles of ops that succeeded, replayed by the timed loop

    def census(self, first_ops, rec=None):
        """Run each op that may fail once, untimed, over the workload's census cycles.

        Ops the program refuses or crashes on are the known defects: they are
        counted here by failure type and left out of the timed loop, whose ops
        must all succeed.  A failed output check makes the run incorrect.
        """
        tally = stats.Tally()
        unexpected = 0
        self.pool = []
        start = time.perf_counter()
        for cycle in range(self.workload.census_cycles):
            ops = first_ops if cycle == 0 else self.workload.cycle(self.seed, cycle, self.workdir)
            kept = []
            for op in ops:
                if op.may_fail:
                    if op.prepare is not None:
                        op.prepare()
                    root = rec.open(op.span) if rec is not None else None
                    result = exc = None
                    try:
                        result = op.run()
                    except Exception as e:  # a crash is a counted known defect
                        exc = e
                    finally:
                        if root is not None:
                            rec.close(root)
                    fail = self.w.failure(op, result, exc)
                    tally.record(fail)
                    unexpected += fail == "check"
                    if rec is not None and fail is not None and fail != "check":
                        rec.count("cli.exit2" if fail == "exit2" else "cli.uncaught")
                    if fail is not None:
                        continue
                kept.append(op)
            self.pool.append(kept)
        return {"tally": tally, "unexpected": unexpected, "wall_s": time.perf_counter() - start}

    def run(self, seconds: float, min_ops: int, first_ops=None, rec=None):
        tally = stats.Tally()
        samples = []  # (label, latency s, failure or None, work units)
        spans_s = []  # (start, end) of each op, for the machine-speed factor
        cycles = 0
        start = time.perf_counter()
        ops = first_ops
        while True:
            if self.pool:
                ops = self.pool[self.next_cycle % len(self.pool)]
            elif ops is None:
                ops = self.workload.cycle(self.seed, self.next_cycle, self.workdir)
            for op in ops:
                if op.prepare is not None:
                    op.prepare()
                self.gauge.tick()
                result = exc = None
                root = None
                if rec is not None:
                    rec.op_id += 1
                    root = rec.open(op.span)
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as e:  # an op that raises is a counted failure, not the end of the run
                    exc = e
                finally:
                    t1 = time.perf_counter()
                    latency = t1 - t0
                    spans_s.append((t0, t1))
                    if root is not None:
                        rec.close(root)
                fail = self.w.failure(op, result, exc)
                tally.record(fail)
                samples.append((op.label, latency, fail, 0 if fail else op.work))
                if rec is not None:
                    self.count(rec, op, result, fail)
            self.next_cycle += 1
            cycles += 1
            ops = None
            if time.perf_counter() - start >= seconds and len(samples) >= min_ops:
                self.gauge.read()
                factors = [self.gauge.factor(a, b) for a, b in spans_s]
                return {"samples": samples, "factors": factors, "tally": tally,
                        "cycles": cycles, "wall_s": time.perf_counter() - start}

    def count(self, rec, op, result, fail):
        if fail is None:
            if self.workload.work_counter:
                rec.count(self.workload.work_counter, op.work)
            if op.direct is not None:
                call = op.direct(result.out)
                root = rec.open(DIRECT_ROOT)
                try:
                    rec.count("bounds.overflow_warnings", self.w.count_overflow_warnings(call))
                finally:
                    rec.close(root)
        elif fail == "exit2":
            rec.count("cli.exit2")
        elif fail.startswith("uncaught."):
            rec.count("cli.uncaught")


def busy_s(run) -> float:
    return sum(latency for _, latency, _, _ in run["samples"])


def at_nominal_speed(run) -> list[tuple]:
    """Samples with each latency divided by the machine-speed factor at that op."""
    return [(label, latency / f, fail, work) for (label, latency, fail, work), f in zip(run["samples"], run["factors"])]


def end_to_end(workload_name: str, run, setup: list[float], peak_rss_mb: float, census=None):
    """Contract metrics and the workload's own named metrics."""
    samples = run["samples"]
    tally = run["tally"]
    busy = busy_s(run)
    work = sum(w for *_, w in samples)
    # A failed op misses every latency limit: it sorts above every success.
    latencies = [latency if fail is None else math.inf for _, latency, fail, _ in samples]
    p50 = stats.percentile(latencies, 50)
    p90 = stats.percentile(latencies, 90)
    setup_s = statistics.median(setup)
    contract = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": stats.steady_rate(at_nominal_speed(run)),
        "op_ms_typical": stats.typical_latency(at_nominal_speed(run)) * 1e3,
    }
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), "fail_ratio": (tally.fail_ratio, "ratio")}
    if census is not None:  # the known defects: requests the census saw fail, over those it ran
        named["census_fail_ratio"] = (census["tally"].fail_ratio, "ratio")
    if workload_name in ("campaign", "trajectory"):
        named["evals_per_s"] = (work / busy, "1/s")
    if workload_name == "campaign":
        named["campaign_s_p50"] = (p50, "s")
    if workload_name == "trajectory":
        named["trajectory_ms_p50"] = (p50 * 1e3, "ms")
        named["trajectory_ms_p90"] = (p90 * 1e3 if p90 is not None else None, "ms")
    if workload_name == "planning":
        named["requests_per_s"] = (len(samples) / busy, "1/s")
        named["request_ms_p50"] = (p50 * 1e3, "ms")
        named["request_ms_p90"] = (p90 * 1e3 if p90 is not None else None, "ms")
        named["rows_per_s"] = (work / busy, "1/s")
    if workload_name == "surrogate":
        for metric, labels in (("draws_per_s", ("toy kappa", "toy norms")), ("lip_cells_per_s", ("toy lip",))):
            part = [s for s in samples if s[0] in labels]
            named[metric] = (sum(s[3] for s in part) / sum(s[1] for s in part), "1/s")
    return contract, named


def by_label(run) -> dict:
    groups: dict[str, list[float]] = {}
    for label, latency, fail, _ in run["samples"]:
        groups.setdefault(label, []).append(latency if fail is None else math.inf)
    return {label: {"n": len(v), "median_ms": statistics.median(v) * 1e3} for label, v in sorted(groups.items())}


def parent_share(rec, parent: str, child: str) -> float | None:
    """Share of ``parent`` span time not covered by direct ``child`` spans."""
    if parent not in rec.names or child not in rec.names:
        return None
    pid, cid = rec.names.index(parent), rec.names.index(child)
    parent_total = child_total = 0.0
    for i, nid in enumerate(rec.name_id):
        if nid == pid:
            parent_total += rec.end[i] - rec.start[i]
        elif nid == cid and rec.parent[i] >= 0 and rec.name_id[rec.parent[i]] == pid:
            child_total += rec.end[i] - rec.start[i]
    return 1.0 - child_total / parent_total if parent_total else None


def per_eval_us(span: str, rec, loop: dict, probe_rec, probe: dict) -> float:
    """Span time per logical field evaluation made inside the span, in us."""
    src, summary = (rec, loop) if span in loop else (probe_rec, probe)
    return summary[span]["total_s"] / src.counters[span + ".evals"] * 1e6


def per_layer(rec, loop: dict, probe_rec, probe_values: dict, traced, untraced) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times come from the traced loop's spans where its operations reach the
    layer, otherwise from the probe's direct calls; counts come from the
    traced loop only.  Self shares count only spans under an op's root.
    """
    probe = probe_rec.summary()
    measured = {**probe_values, **{f"{span}.us_per_eval": per_eval_us(span, rec, loop, probe_rec, probe)
                                   for span in ("integrator.integrate", "integrator.rk_step")}}
    out: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if name in measured:
            out[name] = measured[name]
        elif unit in TIME_SCALE and name.endswith("." + unit):
            span = name[: -len(unit) - 1]
            entry = loop.get(span) or probe[span]
            out[name] = entry["total_s"] / entry["calls"] * TIME_SCALE[unit]
        elif name in rec.maxima:
            out[name] = rec.maxima[name]
        else:
            out[name] = float(rec.counters.get(name, 0))
    share = parent_share(rec, "harness.validate_noisy_bound", "integrator.integrate")
    if share is None:
        share = parent_share(probe_rec, "harness.validate_noisy_bound", "integrator.integrate")
    out["harness.non_integrate_share"] = share
    cli_spans = [v for k, v in loop.items() if k.startswith("cli.")]
    out["cli.library_share"] = sum(v["total_s"] - v["self_s"] for v in cli_spans) / sum(v["total_s"] for v in cli_spans)
    wall = traced["wall_s"]
    in_ops = rec.summary(exclude_roots=(DIRECT_ROOT,))
    for module in MODULES:
        out[f"{module}.self_share"] = sum(v["self_s"] for k, v in in_ops.items() if k.startswith(module + ".")) / wall
    out["bench.self_share"] = 1.0 - sum(out[f"{m}.self_share"] for m in MODULES)
    per_cycle = lambda run: sum(s[1] for s in at_nominal_speed(run)) / run["cycles"]  # noqa: E731
    out["trace.overhead"] = per_cycle(traced) / per_cycle(untraced) - 1.0
    return out


def jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rkbudget" / "__init__.py").is_file():
        print(f"error: no rkbudget sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    caps = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import rkbudget
    import spans
    import speed
    import workloads

    if Path(rkbudget.__file__).resolve().parent != SRC / "rkbudget":
        print(f"error: imported rkbudget from {rkbudget.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        first_ops = workload.cycle(args.seed, 0, workdir)
        own_setup = time.perf_counter() - START
        if args.setup_only:
            print(own_setup)
            return 0
        gauge = speed.SpeedGauge()
        setup = [own_setup / gauge.read()] + [child_setup_s(args, gauge) for _ in range(SETUP_SAMPLES - 1)]
        loop = Loop(workloads, workload, args.seed, workdir, gauge)
        env = environment(nproc, caps)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "env": env, "setup_s_samples_at_nominal_speed": setup}
        census = census_rec = None
        if workload.census_cycles:
            if args.trace == 1:
                census_rec = spans.SpanRecorder()
                with spans.traced_layers(census_rec):
                    census = loop.census(first_ops, census_rec)
            else:
                census = loop.census(first_ops)
            first_ops = None
            record["census"] = {"attempted": census["tally"].attempted, "failures": dict(census["tally"].failures),
                                "fail_ratio": census["tally"].fail_ratio, "wall_s": census["wall_s"]}
        if args.trace == 0:
            run = loop.run(args.seconds, stats.min_samples(50), first_ops)
            contract, named = end_to_end(args.workload, run, setup, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                        census)
            metrics = {k: (v, END_TO_END[k]) for k, v in contract.items()}
            runs = [run]
            record.update(named_metrics=named, latency_by_label=by_label(run))
        else:
            untraced = loop.run(args.seconds / 2, 1, first_ops)
            rec = spans.SpanRecorder()
            with spans.traced_layers(rec):
                traced = loop.run(args.seconds / 2, 1, rec=rec)
            if census_rec is not None:
                for name in CENSUS_COUNTERS:
                    rec.count(name, census_rec.counters.get(name, 0))
            probe_rec = spans.SpanRecorder()
            with spans.traced_layers(probe_rec):
                probe_values = workloads.probe(args.seed, probe_rec)
            summary = rec.summary()
            layer = per_layer(rec, summary, probe_rec, probe_values, traced, untraced)
            metrics = {k: (layer[k], PER_LAYER[k]) for k in PER_LAYER}
            runs = [untraced, traced]
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            rec.save(spans_path)
            record.update(spans=str(spans_path.relative_to(ROOT)), span_summary=summary,
                          probe_summary=probe_rec.summary())
        record["speed_factor"] = {"median": statistics.median(gauge.readings), "min": min(gauge.readings),
                                  "max": max(gauge.readings), "readings": len(gauge.readings)}
        # Every timed op was screened or is calibrated, so any failure is a wrong output.
        correct = all(r["tally"].failed == 0 for r in runs) and (census is None or census["unexpected"] == 0)
        failures = stats.Tally()
        for r in runs:
            failures.attempted += r["tally"].attempted
            failures.failures.update(r["tally"].failures)
        attempted, failed = failures.attempted, failures.failed
        record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      correct=correct, attempted=attempted, failed=failed, failures=dict(failures.failures),
                      cycles=sum(r["cycles"] for r in runs), wall_s=sum(r["wall_s"] for r in runs))
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(jsonable(record), indent=2, sort_keys=True) + "\n")

        print(f"# env {json.dumps(env, sort_keys=True)}")
        print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: {record['cycles']} cycles, "
              f"{record['wall_s']:.1f} s; work unit: {workload.work_unit}")
        print(f"# failed/attempted: {failures.describe()}; correct outputs: {correct}")
        if census is not None:
            print(f"# census of requests that may fail, untimed before the loop: {census['tally'].describe()} "
                  f"in {census['wall_s']:.1f} s; failed requests are the known defects and are not timed")
        sf = record["speed_factor"]
        print(f"# machine speed factor (1.0 = nominal): median {sf['median']:.3f}, range {sf['min']:.3f}-{sf['max']:.3f} "
              f"over {sf['readings']} readings; work_per_s and op_ms_typical are at nominal speed")
        if args.trace == 0:
            for name, (value, unit) in record["named_metrics"].items():
                shown = "n/a (fewer than 10 samples beyond)" if value is None else f"{value:.6g}"
                print(f"# {args.workload}.{name} = {shown} {unit}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

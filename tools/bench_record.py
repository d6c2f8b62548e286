#!/usr/bin/env python3
"""Record the benchmark of this checkout against a parent checkout, in alternating pairs.

    python3 tools/bench_record.py --parent ../parent --out BENCH_<n>.json \\
        --pairs trajectory=10,campaign=3,planning=3,surrogate=3,tier1=3,cli=5 --seconds 8 --seed 301

Pair ``i`` of a workload runs ``python3 bench/run.py --workload W --seed S+i
--seconds X`` once in each checkout, each a fresh process started from the
root of its checkout; the parent runs first in even pairs and second in odd
ones, so that drift of a shared machine falls on both sides alike.  It reads
each run's last stdout line, the runner's JSON summary, and its ``# env``
line.  It changes nothing under either checkout's ``bench/``, which leaves
its own records in ``bench/out/``.

The record holds, per workload and for every end-to-end metric that
``BENCHMARK.json`` declares: the median and the quartiles of the parent's
runs and of the change's, the change's median relative to the parent's, and
the number of pairs in which the change did better.  Next to them: every
run's raw values and ``correct`` flag, and the machine as the runner
reports it (``nproc``, the Python and numpy versions, the BLAS thread cap).

Two more sections, named in ``--pairs`` like the workloads, are timed the
same way, in alternating pairs of fresh processes, with ``PYTHONPATH`` set
to each checkout's ``src``:

- ``tier1``: the wall time of the Tier-1 suite (``python3 -m pytest -q
  --continue-on-collection-errors``, from the checkout's root), with the
  counts of its summary line;
- ``cli``: each ``rkbudget ...`` line of the README, run as ``python3 -m
  rkbudget.cli ...`` from a scratch directory (where a file an
  ``--overrides`` names is an empty one, so the defaults go through the
  overrides path), next to the floors ``python3 -c pass`` and ``python3 -c
  "import numpy"``, run on both sides alike, so that machine drift shows.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "# env "
MACHINE_KEYS = ("nproc", "python", "numpy", "blas", "blas_thread_cap")
SIDES = ("parent", "change")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
FLOORS = {"python -c pass": ("-c", "pass"), 'python -c "import numpy"': ("-c", "import numpy")}
README_CLI = re.compile(r"^rkbudget ([^#\n]*)", re.MULTILINE)


def parse_output(stdout: str) -> tuple[dict, dict]:
    """A run's JSON summary (its last line) and its ``# env`` record."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[len(ENV_PREFIX):]) for line in lines if line.startswith(ENV_PREFIX)), {})
    return json.loads(lines[-1]), env


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return parse_output(done.stdout)


def readme_invocations(text: str) -> dict[str, list[str]]:
    """The README's ``rkbudget ...`` lines, without their comments, keyed by
    the line as written and mapped to the CLI's arguments."""
    return {f"rkbudget {line.strip()}": line.split() for line in README_CLI.findall(text)}


def summary_counts(summary: str) -> dict[str, int]:
    """The counts of a pytest summary line: ``2 failed, 9 passed in 3.1s`` as ``{"failed": 2, "passed": 9}``."""
    return {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?|skipped)\b", summary)}


def timed(cmd: list[str], cwd: Path, src: Path) -> tuple[float, subprocess.CompletedProcess]:
    """The wall time of one fresh process, in seconds, with ``src`` first on its ``PYTHONPATH``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done


def alternate(count: int, run) -> list[dict]:
    """``count`` pairs of ``run(side, i)`` for pair ``i``, the parent first in even pairs."""
    pairs = []
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pairs.append({"first": order[0], **{side: run(side, i) for side in order}})
    return pairs


def record_tier1(roots: dict[str, Path], count: int) -> dict:
    """``count`` pairs of Tier-1 runs, each side from its own root."""
    def run(side, i):
        wall, done = timed([sys.executable, *TIER1], roots[side], roots[side] / "src")
        summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        return {"wall_s": wall, "returncode": done.returncode, "summary": summary, "counts": summary_counts(summary)}

    runs = alternate(count, run)
    return {"command": "python3 " + " ".join(TIER1), "runs": runs,
            "metrics": summarize([(p["parent"], p["change"]) for p in runs], {"wall_s": "lower"})}


def record_cli(roots: dict[str, Path], count: int, readme: str) -> dict:
    """``count`` pairs of fresh-process runs of each README invocation and of each floor."""
    invocations = readme_invocations(readme)
    commands = {**FLOORS, **{name: ("-m", "rkbudget.cli", *argv) for name, argv in invocations.items()}}
    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        for argv in invocations.values():
            for option, value in zip(argv, argv[1:]):
                if option == "--overrides":
                    (Path(scratch) / value).write_text("")
        for name, args in commands.items():
            def run(side, i, args=args):
                wall, done = timed([sys.executable, *args], Path(scratch), roots[side] / "src")
                return {"wall_ms": 1e3 * wall, "returncode": done.returncode}

            runs = alternate(count, run)
            print(f"{name}: " + ", ".join(f"{p['parent']['wall_ms']:.0f} -> {p['change']['wall_ms']:.0f} ms"
                                          for p in runs), file=sys.stderr)
            out[name] = {"runs": runs, "metrics": summarize([(p["parent"], p["change"]) for p in runs],
                                                            {"wall_ms": "lower"})}
    return out


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles, by linear interpolation between order statistics."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict[str, dict]:
    """Per metric named in ``better`` ("lower" or "higher"): both sides' quartiles,
    the relative change of the medians, and the pairs the change won.

    ``pairs`` holds one ``(parent, change)`` of metric values per pair; a tie wins nothing.
    """
    out = {}
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        won = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        stats = {"parent": quartiles(parent), "change": quartiles(change)}
        base = stats["parent"]["median"]
        out[name] = {**stats, "better": direction, "pairs": len(pairs), "change_better_pairs": won,
                     "relative_change": stats["change"]["median"] / base - 1.0 if base else None}
    return out


def parse_pairs(text: str) -> dict[str, int]:
    """``trajectory=10,campaign=3`` as ``{"trajectory": 10, "campaign": 3}``."""
    pairs = {}
    for item in text.split(","):
        workload, _, count = item.partition("=")
        pairs[workload] = int(count)
        if pairs[workload] < 1:
            raise ValueError(f"need at least one pair per workload, got {item!r}")
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent commit's checkout")
    parser.add_argument("--out", type=Path, required=True, help="the record to write, e.g. BENCH_<n>.json")
    parser.add_argument("--pairs", type=parse_pairs,
                        default="trajectory=10,campaign=3,planning=3,surrogate=3,tier1=1,cli=5",
                        help="pairs per BENCHMARK.json workload, of Tier-1 runs (tier1) and of README invocations"
                             " (cli), e.g. trajectory=10,tier1=3")
    parser.add_argument("--seconds", type=float, default=8.0, help="run length of each run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in benchmark["workloads"]} | {"tier1", "cli"}
    if unknown := sorted(set(args.pairs) - known):  # before any pair runs, so a typo costs no run
        parser.error(f"unknown --pairs name(s): {', '.join(unknown)}; known: {', '.join(sorted(known))}")
    tier1, cli = args.pairs.pop("tier1", 0), args.pairs.pop("cli", 0)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    roots = {"parent": args.parent.resolve(), "change": ROOT}
    record = {"command": "python3 bench/run.py --workload W --seed S --seconds X", "seconds": args.seconds,
              "machine": None, "workloads": {}}
    for workload, count in args.pairs.items():
        def run(side, i, workload=workload, count=count):
            summary, env = run_once(roots[side], workload, args.seed + i, args.seconds)
            record["machine"] = record["machine"] or {k: env.get(k) for k in MACHINE_KEYS}
            metrics = {k: v["value"] for k, v in summary["metrics"].items()}
            print(f"{workload} pair {i + 1}/{count} (seed {args.seed + i}), {side}: "
                  + ", ".join(f"{k} {metrics[k]:.4g}" for k in better), file=sys.stderr)
            return {"correct": summary["correct"], "attempted": summary["attempted"], "failed": summary["failed"],
                    "metrics": metrics}

        runs = [{**pair, "seed": args.seed + i} for i, pair in enumerate(alternate(count, run))]
        metrics = summarize([(p["parent"]["metrics"], p["change"]["metrics"]) for p in runs], better)
        record["workloads"][workload] = {
            "all_correct": all(p[side]["correct"] and not p[side]["failed"] for p in runs for side in SIDES),
            "metrics": metrics, "runs": runs}
    if tier1:
        record["tier1"] = record_tier1(roots, tier1)
    if cli:
        record["cli"] = record_cli(roots, cli, (ROOT / "README.md").read_text())
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the benchmark of this checkout against a parent checkout, in alternating pairs.

    python3 tools/bench_record.py --parent ../parent --out BENCH_<n>.json \\
        --pairs trajectory=10,campaign=3,planning=3,surrogate=3 --seconds 8 --seed 301

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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "# env "
MACHINE_KEYS = ("nproc", "python", "numpy", "blas", "blas_thread_cap")


def parse_output(stdout: str) -> tuple[dict, dict]:
    """A run's JSON summary (its last line) and its ``# env`` record."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[len(ENV_PREFIX):]) for line in lines if line.startswith(ENV_PREFIX)), {})
    return json.loads(lines[-1]), env


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return parse_output(done.stdout)


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
    parser.add_argument("--pairs", type=parse_pairs, default="trajectory=10,campaign=3,planning=3,surrogate=3",
                        help="pairs per workload, e.g. trajectory=10,campaign=3")
    parser.add_argument("--seconds", type=float, default=8.0, help="run length of each run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    record = {"command": "python3 bench/run.py --workload W --seed S --seconds X", "seconds": args.seconds,
              "machine": None, "workloads": {}}
    for workload, count in args.pairs.items():
        runs = []
        for i in range(count):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                summary, env = run_once(sides[side], workload, seed, args.seconds)
                record["machine"] = record["machine"] or {k: env.get(k) for k in MACHINE_KEYS}
                pair[side] = {"correct": summary["correct"], "attempted": summary["attempted"],
                              "failed": summary["failed"],
                              "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{count} (seed {seed}): "
                  + ", ".join(f"{k} {pair['parent']['metrics'][k]:.4g} -> {pair['change']['metrics'][k]:.4g}"
                              for k in better), file=sys.stderr)
        metrics = summarize([(p["parent"]["metrics"], p["change"]["metrics"]) for p in runs], better)
        record["workloads"][workload] = {
            "all_correct": all(p[side]["correct"] and not p[side]["failed"] for p in runs for side in sides),
            "metrics": metrics, "runs": runs}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

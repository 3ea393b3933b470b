#!/usr/bin/env python3
"""Alternating parent/change runs of one benchmark workload.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload subfield-table --pairs 10 [--seconds 20] [--seed 1] \\
        --out BENCH_x.json

DIR are two checkouts, each with `perfbench/` and `src/`.  Pair i runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in
both, the parent first in odd pairs and the change first in even ones, and
keeps each run's end-to-end metrics.  The record under the workload's name
in OUT (created, or updated in place for the other workloads) holds every
pair's values and, per metric, both medians, the parent's quartiles and
interquartile range, and in how many pairs the change did better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = {"setup_s": "lower", "jobs_per_s": "higher", "job_p50_s": "lower",
           "peak_rss_mb": "lower"}


def run_once(tree: Path, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    # the run's full record, for its unscaled rate and its speed sample
    record = max((tree / "perfbench" / "out").glob(
        f"{args.workload}-seed{args.seed}-trace0-*.json"),
        key=lambda p: p.stat().st_mtime)
    extra = json.loads(record.read_text())["extra"]
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            **{k: v["value"] for k, v in last["metrics"].items()},
            "wall.jobs_per_s": extra["wall.jobs_per_s"]["value"],
            "speed_vs_reference": extra["speed_vs_reference"]["value"]}


def summary(parent: list, change: list, better: str) -> dict:
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum((c > p) if better == "higher" else (c < p)
               for p, c in zip(parent, change))
    return {"parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": [q1, q3], "parent_iqr": q3 - q1,
            "change_wins": f"{wins} of {len(parent)}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        print(f"pair {i + 1}: " + ", ".join(
            f"{side} {runs[side][-1]['jobs_per_s']:.4g}/s"
            for side in order), flush=True)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "alternating, the parent first in odd pairs",
        "all_correct": all(r["correct"] and not r["failed"]
                           for side in runs.values() for r in side),
        "runs": runs,
        "summary": {m: summary([r[m] for r in runs["parent"]],
                               [r[m] for r in runs["change"]], better)
                    for m, better in METRICS.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for m, row in record[args.workload]["summary"].items():
        print(f"{m:12s} parent {row['parent_median']:.5g} change "
              f"{row['change_median']:.5g} iqr {row['parent_iqr']:.3g} "
              f"wins {row['change_wins']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The bttwist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD.json [NEW.json]

Run from the repository root.  An untraced run (`--trace 0`) times whole job
cycles of the workload until `--seconds` of job time have passed, checks every
output, and prints the end-to-end metrics.  A traced run (`--trace 1`) times
the layer micro-benchmarks, runs the seed's first cycle once untraced and once
with wrappers installed, and prints the per-layer metrics and the tracing
overhead.  Either way the last line of stdout is one JSON object, the full
record goes to perfbench/out/, and the exit code is 0 only when every output
was correct.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from math import ceil
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
# a run stops starting cycles after this much wall time, whatever --seconds
# says, so that even a slow program ends a run within three minutes
WALL_LIMIT_S = 140
TAIL_Q = 0.9


def tail_percentile(samples, q: float = TAIL_Q):
    """Nearest-rank q-quantile, or None unless at least ten samples lie
    above it (so the 90th percentile needs 100 samples)."""
    n = len(samples)
    rank = ceil(q * n)
    if n == 0 or n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def per_input_means(durations, keys) -> list:
    """The mean time of each distinct job input: repeats of one input (a
    cli-cold case, every table1 job) count once, so a median over them is
    not moved by the noise of single runs."""
    groups = {}
    for d, k in zip(durations, keys):
        groups.setdefault(k, []).append(d)
    return [statistics.mean(g) for g in groups.values()]


def commit_id() -> str:
    """HEAD of the checkout's git directory, read without running git (a
    git command would search parent directories outside the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_info(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": commit_id(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU.  The host's CPUs
    change speed independently, so the speed samples must come from the CPU
    the job runs on; this also keeps the scheduler from moving a job."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def make_workload(name: str, seed: int):
    import gate
    import workloads
    import bttwist.cli  # noqa: F401  (every workload needs the package)
    return workloads.WORKLOADS[name](seed, gate.load_golden())


def run_jobs(wl, seconds=None, cycles=None, execute=None, before_job=None,
             sample_during=True, on_sample=None):
    """Run whole cycles until `seconds` of job time or `cycles` cycles.

    Only `execute` is timed; building a cycle and checking outcomes are not.
    With `sample_during` the speedometer samples while each job runs, in
    this process on the CPU a child job shares with it, and its own time is
    taken out of the job's (`on_sample` hears of each sample); otherwise
    after each job.  An exception in a job counts as a failure and the run
    goes on.
    """
    execute = execute or wl.execute
    meter = speed.Speedometer(on_sample)
    sampling = meter.during if sample_during else contextlib.nullcontext
    durations, keys, kinds, problems = [], [], Counter(), []
    failed, i, wall0 = 0, 0, perf_counter()
    while ((cycles is None or i < cycles)
           and (seconds is None or sum(durations) < seconds)
           and perf_counter() - wall0 < WALL_LIMIT_S):
        for job in wl.cycle(i):
            if before_job:
                before_job()
            spent0 = meter.spent
            t0 = perf_counter()
            try:
                with sampling():
                    outcome = execute(job)
                error = None
            except Exception as exc:  # a job's failure must not stop the run
                error = f"{type(exc).__name__}: {exc}"
            durations.append(perf_counter() - t0 - (meter.spent - spent0))
            if not sample_during:
                meter.after(durations[-1])
            keys.append(wl.key(job))
            kinds[wl.kind(job)] += 1
            found = [error] if error else wl.check(job, outcome)
            if found:
                failed += 1
                problems += found
        i += 1
    factor = meter.factor()
    return {"durations": durations, "keys": keys,
            "scaled": [d * factor for d in durations],
            "speed": factor, "kinds": dict(kinds), "failed": failed,
            "problems": problems, "cycles": i}


def measure_setup(args) -> list:
    """Set-up times of fresh processes, scaled to reference speed.

    Each process times, from the inside, importing bttwist and building the
    workload's inputs, with the speedometer sampling meanwhile; interpreter
    start-up is left out, being no work of the program's.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def setup_only(args) -> float:
    """Build the workload once in this process; its scaled time."""
    meter = speed.Speedometer()
    t0 = perf_counter()
    with meter.during():
        make_workload(args.workload, args.seed)
    return (perf_counter() - t0 - meter.spent) * meter.factor()


def untraced(args):
    wl = make_workload(args.workload, args.seed)
    res = run_jobs(wl, seconds=args.seconds)
    # read before the set-up processes exist, so only job processes count
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
           else resource.RUSAGE_SELF)
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup = measure_setup(args)
    d, wall = res["scaled"], res["durations"]
    per_input = per_input_means(d, res["keys"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(d) / sum(d), "1/s"),
        "job_p50_s": (statistics.median(per_input), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "fail_ratio": (res["failed"] / len(d), "ratio"),
        "job_p90_s": (tail_percentile(per_input), "s"),
        "job_samples": (len(d), "count"),
        "job_inputs": (len(per_input), "count"),
        "setup_samples": (len(setup), "count"),
        "speed_vs_reference": (res["speed"], "ratio"),
        "wall.jobs_per_s": (len(wall) / sum(wall), "1/s"),
        "wall.job_p50_s": (statistics.median(
            per_input_means(wall, res["keys"])), "s"),
    }
    return metrics, extra, res


def traced(args):
    import micro
    import tracing

    t0 = perf_counter()
    import bttwist.cli  # noqa: F401
    import_s = perf_counter() - t0
    wl = make_workload(args.workload, args.seed)
    micro_us = micro.measure()
    # a traced child's spans would include the time this process spends
    # sampling on the shared CPU, so cli-cold samples after each job
    in_process = args.workload != "cli-cold"
    base = run_jobs(wl, cycles=1, sample_during=in_process)
    summaries, spans = [], []
    if not in_process:
        traced_res = _traced_children(wl, summaries, spans)
    else:
        tracer = tracing.Tracer()
        with tracing.install(tracer) as patch:
            traced_res = run_jobs(
                wl, cycles=1, before_job=tracer.begin_job,
                on_sample=lambda t0, t1: tracer.add_span("speed", t0, t1))
        if patch.missing:
            print("not traced (absent):", ", ".join(patch.missing))
        summaries.append(tracer.summary(import_s))
        spans.append(tracer.spans)
    merged = tracing.merge(summaries)
    metrics = {k: (v, "us") for k, v in micro_us.items()}
    layer = tracing.layer_metrics(merged)
    metrics.update({k: v[:2] for k, v in layer.items()})
    imports = merged["counts"].get("cli.imports", 0)
    metrics["cli.import_s"] = (
        merged["self_s"].get("cli.import", 0.0) / imports if imports else 0.0,
        "s")
    t_base, t_traced = sum(base["scaled"]), sum(traced_res["scaled"])
    metrics["trace.overhead_ratio"] = (t_traced / t_base - 1, "ratio")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}.jsonl", "w") as fh:
        for block in spans:
            fh.write(json.dumps(block) + "\n")
    extra = {f"{k}.base": (v[2], "count") for k, v in layer.items()
             if v[2] is not None}
    extra["untraced_cycle_s"] = (t_base, "s")
    extra["traced_cycle_s"] = (t_traced, "s")
    res = {"durations": base["durations"] + traced_res["durations"],
           "kinds": traced_res["kinds"],
           "failed": base["failed"] + traced_res["failed"],
           "problems": base["problems"] + traced_res["problems"],
           "cycles": 1}
    return metrics, extra, res


def _traced_children(wl, summaries, spans):
    """The cli-cold cycle again, each job in a fresh traced process."""
    OUT.mkdir(exist_ok=True)
    child = str(HERE / "cli_child.py")
    trace_file = OUT / "child-trace.json"

    def execute(argv):
        outcome = wl.execute(argv, [sys.executable, child, str(trace_file),
                                    "--", *argv])
        data = json.loads(trace_file.read_text())
        trace_file.unlink()
        summaries.append(data["summary"])
        spans.append(data["spans"])
        return outcome

    return run_jobs(wl, cycles=1, execute=execute, sample_during=False)


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for key in ("workload", "seed", "trace", "commit"):
        if old["run"].get(key) != new["run"].get(key):
            print(f"{key}: {old['run'].get(key)} -> {new['run'].get(key)}")
    rows = {**old.get("extra", {}), **old["metrics"]}
    rows_new = {**new.get("extra", {}), **new["metrics"]}
    print(f"{'metric':40s} {'old':>14s} {'new':>14s} {'change':>10s}")
    for name in sorted(set(rows) | set(rows_new)):
        a = rows.get(name, {}).get("value")
        b = rows_new.get(name, {}).get("value")
        unit = (rows_new.get(name) or rows.get(name))["unit"]
        change = (f"{(b - a) / a:+.1%}" if isinstance(a, (int, float)) and a
                  and isinstance(b, (int, float)) else "")
        print(f"{name:40s} {_fmt(a):>14s} {_fmt(b):>14s} {change:>10s} {unit}")
    return 0


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.6g}"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["subfield-table",
                                           "engine-agreement", "cli-cold"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", nargs="+", metavar="RESULT.json",
                    help="print each metric's change from OLD to NEW "
                         "(default NEW: the newest other result of the same "
                         "workload, seed and mode)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.compare and not args.workload:
        ap.error("--workload is required")
    return args


def result_stem(workload, seed, trace) -> str:
    return f"{workload}-seed{seed}-trace{trace}"


def result_path(args) -> Path:
    return OUT / (f"{result_stem(args.workload, args.seed, args.trace)}"
                  f"-{commit_id()[:12]}.json")


def newest_other(path: str) -> str:
    """The newest other result of the same workload, seed and mode."""
    run = json.loads(Path(path).read_text())["run"]
    stem = result_stem(run["workload"], run["seed"], run["trace"])
    others = [p for p in OUT.glob(f"{stem}-*.json")
              if p.resolve() != Path(path).resolve()]
    if not others:
        raise SystemExit(f"no other {stem} result in {OUT}")
    return str(max(others, key=lambda p: p.stat().st_mtime))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            print("--compare takes one or two result files", file=sys.stderr)
            return 2
        if len(args.compare) == 1:
            args.compare.append(newest_other(args.compare[0]))
        return compare(*args.compare)
    if not (SRC / "bttwist" / "__init__.py").is_file():
        print(f"bttwist sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(setup_only(args))
        return 0
    info = run_info(args)
    info["cpu"] = pin_to_one_cpu()
    metrics, extra, res = (traced if args.trace else untraced)(args)
    attempted = len(res["durations"])
    failed = res["failed"]
    record = {"run": {**info, "cycles": res["cycles"],
                      "jobs": res["kinds"]},
              "correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "extra": {k: {"value": v, "unit": u}
                        for k, (v, u) in extra.items()},
              "problems": res["problems"][:50],
              "samples": {"job_s": res["durations"],
                          "job_keys": res.get("keys", [])}}
    OUT.mkdir(exist_ok=True)
    result_path(args).write_text(json.dumps(record, indent=1) + "\n")
    for line in res["problems"][:20]:
        print("FAIL", line)
    print(json.dumps(record["run"], sort_keys=True))
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"{k:40s} {_fmt(v):>14s} {u}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

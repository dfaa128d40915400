#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload ingest|serve|query|fleet \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark package
(`perfbench/Cargo.toml`) into `$CARGO_TARGET_DIR`, or `.bench_build`
when unset, then starts one `perfbench` process per repetition, so no
in-process state carries from one repetition to the next. Scratch
archives live under `.bench_tmp` and are removed before it exits.

`--trace 0` prints the end-to-end metrics: the median over the
repetitions. `--trace 1` prints the per-layer metrics instead: one
traced process per workload (each workload's layer timings plus its
CPU cost, throughput and latency figures), and the tracing overhead of
the chosen workload (its traced figures minus an untraced run's on the
same seed). A failed
correctness check in any process makes the result's `correct` false;
a crash or timeout exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "serve", "query", "fleet")
# Repetitions per run; each measures --seconds / reps. `query` pays a
# ~4 s archive build per repetition, so it repeats fewer times.
REPS = {"ingest": 15, "serve": 15, "query": 4, "fleet": 15}
# End-to-end metrics: the median over the repetitions of an untraced run.
END_TO_END = ("cpu_us_per_op", "setup_s", "rss_peak_mb")
# Figures every process reports. The wall-clock ones swing with how busy
# the host is, so the traced run reports all of them per workload, and
# their tracing overhead, as per-layer metrics with no bound.
FIGURES = ("cpu_us_per_op", "throughput_per_s", "latency_p50_ms", "latency_p90_ms",
           "setup_wall_s")
# Every process must be done this long after the build, so a run ends
# within its 180 s budget even when a child hangs.
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env={**os.environ, "CARGO_TARGET_DIR": target},
                              stdout=sys.stderr, timeout=870)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def rep_seed(seed, rep):
    return (seed * 1_000_003 + rep) % (1 << 63)


def child(binary, mode, workload, seed, seconds, scratch, deadline, check="0/1"):
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--dir", work, "--check", check]
    try:
        # On timeout the child is killed and waited for.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{mode} {workload}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{mode} {workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def summary(results, metrics):
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def untraced(spawn, args):
    reps = REPS[args.workload]
    if args.workload == "query":
        # One seed, so one query list, for every repetition, each
        # checking its own share of the list against the reference
        # paths: the run checks every query once and pays the ~5 s of
        # reference decoding once rather than per repetition.
        results = [spawn("run", "query", rep_seed(args.seed, 0), args.seconds / reps,
                         check=f"{rep}/{reps}")
                   for rep in range(reps)]
    else:
        results = [spawn("run", args.workload, rep_seed(args.seed, rep), args.seconds / reps)
                   for rep in range(reps)]
    metrics = {}
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary(results, metrics)


def traced(spawn, args):
    seconds = args.seconds / REPS[args.workload]
    seed = rep_seed(args.seed, 0)
    base = spawn("run", args.workload, seed, seconds)
    runs = {w: spawn("trace", w, seed, seconds) for w in WORKLOADS}
    metrics = {}
    for workload, result in runs.items():
        for name, metric in result["metrics"].items():
            if name in FIGURES:
                metrics[f"{workload}.{name}"] = metric
            elif name not in END_TO_END:
                metrics[name] = metric
    own = runs[args.workload]["metrics"]
    for name in FIGURES:
        metrics[f"overhead.{name}"] = {"value": own[name]["value"] - base["metrics"][name]["value"],
                                       "unit": own[name]["unit"]}
    return summary([base, *runs.values()], metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(".bench_tmp", exist_ok=True)
    scratch = os.path.abspath(tempfile.mkdtemp(dir=".bench_tmp"))

    def spawn(mode, workload, seed, seconds, check="0/1"):
        return child(binary, mode, workload, seed, seconds, scratch, deadline, check)

    try:
        result = (traced if args.trace else untraced)(spawn, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny grids (one seed per group).

Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload through run.py with --trace 0 and --trace 1 and checks
that each metric named below is printed, with a unit, both on the
human-readable lines and in the final JSON line, and that no cell failed.
Exits non-zero on the first problem.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

END_TO_END = [
    "sweep_s", "cells_per_s_1t", "setup_s", "peak_rss_mb", "response_gain",
    "stretch_gain", "table3_err",
]
PER_LAYER = [
    "workload.scenario_s", "workload.scenario_reuse_frac",
    "cluster.build_s", "cluster.warmup_s", "cluster.submit_s",
    "cluster.attempts_per_call", "cluster.hedge_win_frac",
    "cluster.shed_frac", "cluster.dropped_frac",
    "sim.run_s", "sim.events", "sim.events_per_call", "sim.ns_per_event",
    "sim.pending_at_run_per_call",
    "node.ns_per_call", "node.events_per_call", "node.cold_start_frac",
    "node.daemon_wait_s",
    "metrics.summarize_s",
    "experiments.cell_ms_p50", "experiments.cell_ms_p99",
    "experiments.parallel_eff", "experiments.aggregate_s",
    "experiments.render_s", "experiments.output_bytes",
    "experiments.distributed_s", "experiments.distributed_speedup",
    "experiments.worker_rss_kb",
    "trace.cells_per_s_1t", "trace.overhead",
]


def check(workload, trace, names):
    label = "%s --trace %d" % (workload, trace)
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--seeds-per-group", "1"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit("%s: run.py exited with %d" % (label, done.returncode))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("%s: result keys are %s" % (label, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        sys.exit("%s: %d of %d cells failed"
                 % (label, result["failed"], result["attempted"]))
    if result["attempted"] < 1:
        sys.exit("%s: no cell attempted" % label)
    printed = {line.split()[0]: line.split() for line in lines[:-1] if line}
    for name in names:
        metric = result["metrics"].get(name)
        if metric is None or not metric.get("unit"):
            sys.exit("%s: %s missing or without a unit" % (label, name))
        if not isinstance(metric["value"], (int, float)) or not math.isfinite(
                metric["value"]):
            sys.exit("%s: %s is not a finite number" % (label, name))
        row = printed.get(name)
        if row is None or len(row) < 3 or row[2] != metric["unit"]:
            sys.exit("%s: %s not printed with its unit" % (label, name))
    print("ok  %-18s %d metrics, %d cells checked"
          % (label, len(result["metrics"]), result["attempted"]))


def main():
    for workload in ("paper", "chaos", "wide"):
        check(workload, 0, END_TO_END)
        check(workload, 1, PER_LAYER)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The simulator benchmark: build the binary, run one workload, print the result.

Run from the repository root:

    python3 perfbench/run.py --workload paper|chaos|wide --seed N \
        --seconds S --trace 0|1 [--seeds-per-group K]
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --write-digests

The binary is built from source under .bench_build/ on first use. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: BENCHMARK.json's end_to_end metrics with --trace 0,
its per_layer metrics with --trace 1. The lines before it repeat every metric
with its unit, the paper's reference where one exists, and the build and run
context. With --workload all, each workload prints its lines in turn and the
last line nests their metrics by workload. --write-digests refreshes
reference/ (seed 0, default grids) after a deliberate change to the
simulator's output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "whisk_bench")
DIGESTS = os.path.join(HERE, "reference")
WORKLOADS = ("paper", "chaos", "wide")
# Separate processes timed for set-up besides the main run, pinned to each
# hardware thread in turn; set-up includes first use of every registry,
# which happens once per process.
SETUP_LAUNCHES = 40
PAPER_REFERENCES = {
    "response_gain": "paper: about 4",
    "stretch_gain": "paper: about 18",
    "table3_err": "paper: 0 reproduces Table III exactly",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def launch(args, cpu=None):
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    done = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, preexec_fn=pin)
    if done.returncode != 0:
        fail("whisk_bench exited with %d: %s" % (done.returncode, " ".join(args)))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("whisk_bench printed nothing: " + " ".join(args))
    return json.loads(lines[-1])


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (path, err))


def run_workload(workload, opts, contract):
    """Run one workload; print its context and metric lines, return its
    result object."""
    common = ["--workload", workload, "--seed", str(opts.seed)]
    if opts.seeds_per_group > 0:
        common += ["--seeds-per-group", str(opts.seeds_per_group)]
    cpus = sorted(os.sched_getaffinity(0))
    setups = [launch(common + ["--setup-only"],
                     cpu=cpus[i % len(cpus)])["setup_s"]
              for i in range(SETUP_LAUNCHES)]
    result = launch(common + [
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--out-dir", OUT, "--digests", DIGESTS, "--git-sha", git_sha()])
    measured = result["metrics"]
    setups.append(measured["setup_s"]["value"])
    measured["setup_s"].update(value=statistics.median(setups),
                               min=min(setups), max=max(setups),
                               samples=len(setups))

    wanted = contract["per_layer" if opts.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        got = measured.get(spec["name"])
        if got is None:
            fail("whisk_bench did not measure " + spec["name"])
        if got["unit"] != spec["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}

    context = dict(result["context"], workload=result["workload"],
                   cells=result["cells"], seeds=result["seeds"],
                   trace=opts.trace)
    print("context " + json.dumps(context, sort_keys=True))
    for name, got in metrics.items():
        spread = measured[name]
        note = PAPER_REFERENCES.get(name, "")
        if name == "table3_err":
            note += "; %d Table III groups" % result["table3_groups"]
        print("%-36s %16.6g %-6s median of %3d, range %.6g..%.6g  %s"
              % (name, got["value"], got["unit"], spread["samples"],
                 spread["min"], spread["max"], note))
    attempted, failed = result["attempted"], result["failed"]
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds-per-group", type=int, default=0,
                        help="override the workload's seed-axis length")
    parser.add_argument("--write-digests", action="store_true")
    opts = parser.parse_args()
    if opts.seed < 0:
        fail("--seed must be >= 0")
    if not opts.write_digests and opts.workload is None:
        parser.error("--workload is required")

    contract = load_contract()
    build()
    os.makedirs(OUT, exist_ok=True)

    if opts.write_digests:
        os.makedirs(DIGESTS, exist_ok=True)
        for workload in WORKLOADS:
            launch(["--workload", workload, "--write-digests", DIGESTS])
        return

    if opts.workload != "all":
        print(json.dumps(run_workload(opts.workload, opts, contract)))
        return
    results = {w: run_workload(w, opts, contract) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: r["metrics"] for w, r in results.items()}}))


if __name__ == "__main__":
    main()

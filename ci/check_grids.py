#!/usr/bin/env python3
"""Run every grid of ci/grids.txt through whisk_sweep and check its output.

    python3 ci/check_grids.py path/to/whisk_sweep OUT_DIR

Each grid runs at --threads 1 (the reference), --threads 2, 3 and 16,
--workers 1, 2 and 3, and as --shard i/N runs joined by --merge. Every cells
CSV and JSONL, and every group table on stdout, must equal the reference's
byte for byte. The reference's per-row FNV-1a 64 hashes are written to
OUT_DIR/<grid>.digest in perfbench's format and must equal
ci/reference/<grid>.digest; after a deliberate change to the output, copy the
new file over the reference. Exits 1 after listing every mismatch.
"""
import concurrent.futures
import csv
import json
import os
import shlex
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
# perfbench hashes the same cells CSV header with its C++ FNV-1a.
PERFBENCH_DIGEST = os.path.join(HERE, "..", "perfbench", "reference", "paper.digest")
RUNS = [("threads%d" % n, ["--threads", str(n)]) for n in (1, 2, 3, 16)] + \
       [("workers%d" % n, ["--workers", str(n)]) for n in (1, 2, 3)]
OUTPUTS = (".csv", ".jsonl", ".txt")  # cells CSV, cells JSONL, group table


def load_grids():
    grids = []
    with open(os.path.join(HERE, "grids.txt")) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                name, shards, same, spec, *flags = shlex.split(line)
                grids.append(dict(name=name, shards=int(shards), same=same,
                                  spec=spec, flags=flags))
    return grids


def fnv1a(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) & 0xffffffffffffffff
    return h


def line_hashes(path):
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    if not lines[-1]:
        lines.pop()
    return [fnv1a(line) for line in lines]


def read_digest(path):
    """The "header <csv>" and "<cell> <csv> <jsonl>" lines of a digest."""
    with open(path) as f:
        return [line.split() for line in f if not line.startswith("#")]


def describe(a, b):
    """Where the files `a` and `b` first differ: cell, and columns or keys."""
    with open(a) as fa, open(b) as fb:
        rows_a, rows_b = fa.read().splitlines(), fb.read().splitlines()
    for i, (x, y) in enumerate(zip(rows_a, rows_b)):
        if x == y:
            continue
        if a.endswith(".csv") and i > 0:
            header, x, y = csv.reader([rows_a[0], x, y])
            cols = [h for h, u, v in zip(header, x, y) if u != v]
            return "cell %s, columns %s" % (x[0], " ".join(cols))
        if a.endswith(".jsonl"):
            x, y = json.loads(x), json.loads(y)
            keys = sorted(k for k in x.keys() | y.keys() if x.get(k) != y.get(k))
            return "cell %s, keys %s" % (x.get("cell"), " ".join(keys))
        return "line %d" % (i + 1)
    return "%d against %d lines" % (len(rows_a), len(rows_b))


def mismatches(label, ref, got, exts=OUTPUTS):
    """A line for each output `got` + ext that differs from `ref` + ext."""
    errors = []
    for ext in exts:
        with open(ref + ext, "rb") as fa, open(got + ext, "rb") as fb:
            if fa.read() != fb.read():
                errors.append("%s%s differs at %s"
                              % (label, ext, describe(ref + ext, got + ext)))
    return errors


def related_rows(path, where):
    """The CSV rows of `path` where column=value holds, minus the cell column."""
    column, value = where.split("=", 1)
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return [row[1:] for row in rows if row[header.index(column)] == value]


def check_grid(grid, out, header):
    """Every mismatch of one grid's runs, relation and digest."""
    name = grid["name"]
    ref = os.path.join(out, name, "threads1")
    errors = []
    for tag, _ in RUNS[1:]:
        errors += mismatches("%s: %s" % (name, tag), ref, os.path.join(out, name, tag))
    errors += mismatches("%s: merged" % name, ref, os.path.join(out, name, "merged"),
                         OUTPUTS[:2])
    other, _, where = grid["same"].rstrip("]").partition("[")
    theirs = os.path.join(out, other, "threads1")
    if other != "-" and not where:
        errors += mismatches("%s (same as %s): threads1" % (name, other), theirs, ref)
    if where:
        mine = related_rows(ref + ".csv", where)
        if not mine or mine != related_rows(theirs + ".csv", where):
            errors.append("%s: rows with %s differ from %s's" % (name, where, other))

    csv_rows, jsonl_rows = line_hashes(ref + ".csv"), line_hashes(ref + ".jsonl")
    if len(jsonl_rows) != len(csv_rows) - 1:
        errors.append("%s: %d JSONL lines for %d CSV rows"
                      % (name, len(jsonl_rows), len(csv_rows) - 1))
    have =[["header", "%016x" % csv_rows[0]]] + [
        [str(cell), "%016x" % c, "%016x" % j]
        for cell, (c, j) in enumerate(zip(csv_rows[1:], jsonl_rows))]
    computed = os.path.join(out, name + ".digest")
    with open(computed, "w") as f:
        f.write("# cells CSV/JSONL row hashes (FNV-1a 64): grid %s\n" % name)
        f.writelines(" ".join(line) + "\n" for line in have)
    reference = os.path.join(REFERENCE, name + ".digest")
    want = read_digest(reference) if os.path.exists(reference) else []
    if have[0][1] != header:
        errors.append("%s: CSV header hash %s is not perfbench's %s"
                      % (name, have[0][1], header))
    for column, family in ((1, "CSV"), (2, "JSONL")):
        cells = [w[0] for w, h in zip(want, have)
                 if w[column:column + 1] != h[column:column + 1]]
        if cells:
            errors.append("%s: cells %s rows %s differ from %s"
                          % (name, family, " ".join(cells), reference))
    if len(want) != len(have):
        errors.append("%s: %d digest lines, %s has %d"
                      % (name, len(have), reference, len(want)))
    if errors or want != have:
        errors.append("%s: computed digest %s" % (name, computed))
    return errors


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sweep, out = sys.argv[1], os.path.abspath(sys.argv[2])
    grids = load_grids()
    header = read_digest(PERFBENCH_DIGEST)[0][1]
    runs, merges = [], []
    for grid in grids:
        base = os.path.join(out, grid["name"])
        os.makedirs(base, exist_ok=True)
        shards = [("shard%d" % i, ["--shard", "%d/%d" % (i, grid["shards"])])
                  for i in range(grid["shards"])]
        for tag, args in RUNS + shards:
            path = os.path.join(base, tag)
            runs.append(([sweep, grid["spec"], *grid["flags"], *args, "--quiet",
                          "--cells-csv", path + ".csv", "--cells-jsonl", path + ".jsonl"],
                         path + ".txt"))
        for ext in OUTPUTS[:2]:
            merges.append(([sweep, "--merge", os.path.join(base, "merged" + ext)] +
                           [os.path.join(base, tag + ext) for tag, _ in shards],
                           os.path.join(base, "merged%s.txt" % ext)))

    def launch(job):
        cmd, stdout = job
        with open(stdout, "w") as f:
            done = subprocess.run(cmd, stdout=f, stderr=subprocess.PIPE, text=True)
        return [] if done.returncode == 0 else [
            "exit %d: %s\n%s" % (done.returncode, shlex.join(cmd), done.stderr)]

    errors = []
    with concurrent.futures.ThreadPoolExecutor(min(4, os.cpu_count() or 1)) as pool:
        for jobs in (runs, merges):
            errors += sum(pool.map(launch, jobs), [])
        if not errors:
            errors += sum(pool.map(lambda g: check_grid(g, out, header), grids), [])
    for e in errors:
        print(e)
    print("%d grids through %d whisk_sweep runs: %s"
          % (len(grids), len(runs) + len(merges), "FAILED" if errors else "identical"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run programs and diff their stdout against committed plain-text references.

    python3 ci/check_stdout.py REF.txt PROGRAM [ARG...] [REF.txt PROGRAM ...]

Each REF.txt (a name in ci/reference/, the only arguments ending in ".txt")
is followed by the command whose stdout must equal it byte for byte. Every
command runs from the repository root, with WHISK_BENCH_REPS unset so the
paper benches run at their default repetitions. A mismatch prints a unified diff, so
the number that moved shows; after a deliberate change to the output, copy
the program's new stdout over the reference. Exits 1 after listing every
mismatch.
"""
import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference")


def jobs(args):
    """(reference name, command) pairs from the argument list."""
    out = []
    for arg in args:
        if arg.endswith(".txt"):
            out.append((arg, []))
        elif out:
            out[-1][1].append(arg)
        else:
            sys.exit(__doc__)
    if not out or any(not cmd for _, cmd in out):
        sys.exit(__doc__)
    return out


def main():
    todo = jobs(sys.argv[1:])
    env = dict(os.environ)
    env.pop("WHISK_BENCH_REPS", None)
    errors = 0
    for name, cmd in todo:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT, env=env)
        with open(os.path.join(REFERENCE, name)) as f:
            want = f.read()
        if done.returncode != 0:
            print("%s: exit %d\n%s" % (name, done.returncode, done.stderr))
        elif done.stdout != want:
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(True), done.stdout.splitlines(True),
                "ci/reference/" + name, " ".join(cmd)))
        else:
            continue
        errors += 1
    print("%d programs against ci/reference: %s"
          % (len(todo), "%d differ" % errors if errors else "identical"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Shows every correctness check of the benchmark failing on corrupted
output.

    python3 perfbench/selfcheck.py      (after one run.py run has built it)

For each analysis program (analysis-batch and analysis-wide, seed 1) it runs
stird once, confirms the check passes, then corrupts the result three ways -
one output row dropped, one output row added, one .printsize count changed -
and confirms the check reports each. For serve-mixed it runs the wire client
with --corrupt 1 and confirms both the load-count check and the read-back
fixpoint check report. Exits nonzero if any corruption goes unreported.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of generated files

import run  # noqa: E402
import suites  # noqa: E402
import wide  # noqa: E402


def corruptions(job, stdout):
    """Yields (description, stdout) after corrupting one thing each time."""
    rel = next(r for r in job["expect"] if r != "sizes")
    path = os.path.join(job["out"], rel + ".csv")
    with open(path) as f:
        original = f.read()
    lines = original.splitlines(keepends=True)
    if lines:
        with open(path, "w") as f:
            f.write("".join(lines[1:]))
        yield f"{rel}.csv row dropped", stdout
    arity = len(next(iter(job["expect"][rel]), (0, 0)))
    with open(path, "w") as f:
        f.write(original + "\t".join(["-7"] * arity) + "\n")
    yield f"{rel}.csv row added", stdout
    with open(path, "w") as f:
        f.write(original)
    size_rel, n = next(iter(job["expect"]["sizes"].items()))
    yield (f".printsize {size_rel} changed",
           stdout.replace(f"{size_rel}\t{n}\n", f"{size_rel}\t{n + 1}\n"))


def main():
    stird = os.path.join(run.BUILD_DIR, "tools", "stird")
    work = os.path.join(ROOT, ".bench_work", "selfcheck")
    os.makedirs(work, exist_ok=True)
    missed = []
    jobs = suites.prepare(os.path.join(work, "batch"), 1)
    jobs += wide.prepare(os.path.join(work, "wide"), 1)
    for job in jobs:
        _, _, code, stdout = run.run_stird(stird, job)
        if code != 0 or suites.check(job, stdout):
            missed.append(f"{job['name']}: check fails on the real output")
            continue
        for what, out in corruptions(job, stdout):
            reported = suites.check(job, out)
            print(f"{job['name']}: {what}: "
                  f"{'reported' if reported else 'MISSED'}")
            if not reported:
                missed.append(f"{job['name']}: {what}")
    r = subprocess.run(
        [os.path.join(run.BUILD_DIR, "perfbench_serve"), "--server",
         os.path.join(run.BUILD_DIR, "tools", "stird-serve"), "--work", work,
         "--seed", "1", "--seconds", "2", "--trace", "0", "--corrupt", "1"], stdout=subprocess.PIPE, text=True)
    errors = json.loads(r.stdout.strip().splitlines()[-1])["errors"]
    for kind in ("reply counts", "reference fixpoint"):
        hit = any(kind in e for e in errors)
        print(f"serve-mixed: corrupted {kind}: "
              f"{'reported' if hit else 'MISSED'}")
        if not hit:
            missed.append(f"serve-mixed: {kind}")
    if missed:
        print("unreported corruptions: " + "; ".join(missed), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""stird's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds stird (Release) and the benchmark's
own programs into .bench_build/, generates the workload's inputs from the
seed under .bench_work/, runs them through stird's shipped entry points
(`stird`, `stird-serve`), checks every output against computations made apart
from stird, and prints one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones, timed by perfbench_trace around each layer's
public functions. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of generated files

import suites  # noqa: E402
import wide  # noqa: E402

WORKLOADS = ("analysis-batch", "analysis-wide", "serve-mixed")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# Phase-sum check: the separately called compile phases must add up to
# core::Program::fromSource's own total within this share plus a fixed
# allowance per program (the two are timed by different calls).
PHASE_TOLERANCE = 0.10
PHASE_SLACK_S = 0.0005


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds into BUILD_DIR."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a stird checkout")
    log = os.path.join(ROOT, ".bench_build.log")
    with open(log, "w") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=out, stderr=subprocess.STDOUT)
            if r.returncode:
                fail(f"cmake configure failed; see {log}")
        r = subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                            str(min(4, os.cpu_count() or 1)), "--target",
                            "stird_cli", "stird_serve", "perfbench_serve",
                            "perfbench_trace"],
                           stdout=out, stderr=subprocess.STDOUT)
        if r.returncode:
            fail(f"build failed; see {log}")


def steal_seconds():
    """Cumulative hypervisor steal time of the host, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def quantile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, int(q * (len(s) - 1) + 0.5))]


def run_stird(binary, job):
    """One one-shot run, spawn to outputs written. Returns (seconds, peak
    RSS in MB, exit code, stdout)."""
    shutil.rmtree(job["out"], ignore_errors=True)
    os.makedirs(job["out"])
    log = os.path.join(os.path.dirname(job["out"]), "stdout.txt")
    with open(log, "w") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen([binary, job["program"], "-F", job["facts"],
                                 "-D", job["out"], "-j", "1"],
                                stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log) as f:
        stdout = f.read()
    return seconds, usage.ru_maxrss / 1024, proc.returncode, stdout


def over_empty_facts(job):
    """The job's program over empty fact files: a run that only starts,
    parses, compiles, generates its tree and writes empty outputs."""
    pdir = os.path.dirname(job["out"])
    facts = os.path.join(pdir, "empty-facts")
    os.makedirs(facts, exist_ok=True)
    for name in os.listdir(job["facts"]):
        open(os.path.join(facts, name), "w").close()
    return dict(job, facts=facts, out=os.path.join(pdir, "empty-out"))


def analysis(jobs, seconds):
    """Whole rounds of every program, in a fixed order, until `seconds`
    have passed; every run's outputs are checked. Each program's run is
    preceded by a set-up run of it over empty fact files."""
    stird = os.path.join(BUILD_DIR, "tools", "stird")
    errors, attempted, failed, rss = [], 0, 0, 0.0
    empty = [over_empty_facts(job) for job in jobs]

    def one(job):
        nonlocal attempted, failed, rss
        secs, mb, code, stdout = run_stird(stird, job)
        attempted += 1
        rss = max(rss, mb)
        if code != 0:
            failed += 1
            errors.append(f"{job['name']}: exit code {code}")
        else:
            errors.extend(suites.check(job, stdout))
        return secs

    def setup(job):
        secs, _, code, _ = run_stird(stird, job)
        if code != 0:
            errors.append(f"{job['name']} over empty facts: exit code {code}")
        return secs

    times = {job["name"]: [] for job in jobs}
    setups = {job["name"]: [] for job in jobs}
    t0 = time.monotonic()
    while time.monotonic() - t0 < seconds:
        for job, bare in zip(jobs, empty):
            setups[job["name"]].append(setup(bare))
            times[job["name"]].append(one(job))
    medians = {name: statistics.median(v) for name, v in times.items()}
    by_suite = {}
    for job in jobs:
        by_suite[job["suite"]] = by_suite.get(job["suite"], 0) + medians[job["name"]]
    print("per-suite median sums (s): " + json.dumps(by_suite),
          file=sys.stderr)
    # Every figure comes from the per-program medians, so one slow
    # repetition moves none of them.
    round_s = sum(medians.values())
    metrics = {
        # Set-up of a one-shot run: spawn, parse, compile and tree
        # generation, which a run over empty fact files does and no more.
        "setup_s": (sum(statistics.median(v) for v in setups.values()), "s"),
        "round_s": (round_s, "s"),
        "result_p50_ms": (quantile(medians.values(), 0.5) * 1e3, "ms"),
        "result_p90_ms": (quantile(medians.values(), 0.9) * 1e3, "ms"),
        "requests_per_s": (len(jobs) / round_s, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, attempted, failed, errors


def serve(work, seed, seconds, trace):
    """The serve-mixed client run; returns its JSON report."""
    r = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench_serve"),
         "--server", os.path.join(BUILD_DIR, "tools", "stird-serve"),
         "--work", work, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def prepare(workload, work, seed):
    """The workload's one-shot jobs (programs with facts and references)."""
    if workload == "analysis-batch":
        return suites.prepare(work, seed)
    if workload == "analysis-wide":
        return wide.prepare(work, seed)
    return []


def end_to_end(workload, work, seed, seconds):
    if workload == "serve-mixed":
        report = serve(work, seed, seconds, trace=False)
        if report is None:
            fail("serve-mixed client failed")
        attempted = report["loads"] + report["queries"] + 1
        metrics = {
            "setup_s": (report["setup_s"], "s"),
            "round_s": (report["round_s"], "s"),
            "result_p50_ms": (report["load_p50_ms"], "ms"),
            "result_p90_ms": (report["load_p90_ms"], "ms"),
            "requests_per_s": ((report["loads"] + report["queries"])
                               / report["seconds"], "1/s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
        print(f"query p50/p90 (us): {report['query_p50_us']:.1f} / "
              f"{report['query_p90_us']:.1f}", file=sys.stderr)
        return metrics, attempted, report["failed"], report["errors"]
    return analysis(prepare(workload, work, seed), seconds)


def unit_of(name):
    """A per-layer metric's unit, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                         ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(workload, work, seed, seconds):
    """Traced mode: the layer tracer over the workload's programs, plus the
    serve-mixed stream (inc/srv layers) and a traced serving session."""
    jobs = prepare(workload, work, seed)
    jobs_file = os.path.join(work, "jobs.txt")
    with open(jobs_file, "w") as f:
        for job in jobs:
            f.write(f"{job['program']}\t{job['facts']}\n")
        if workload == "serve-mixed":
            f.write("@serve\n")
    reps = {"analysis-batch": 3, "analysis-wide": 7, "serve-mixed": 9}[workload]
    out_dir = os.path.join(work, "trace-out")
    os.makedirs(out_dir, exist_ok=True)
    errors = []
    r = subprocess.run(
        [os.path.join(BUILD_DIR, "perfbench_trace"), "--jobs", jobs_file,
         "--work", out_dir, "--seed", str(seed), "--reps", str(reps),
         "--spans", os.path.join(work, "spans.jsonl")],
        stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail("layer tracer failed")
    layers = json.loads(r.stdout.strip().splitlines()[-1])
    programs = max(1, len(jobs) + (workload == "serve-mixed"))
    gap = abs(layers["phase_sum_s"] - layers["core.compile_s"])
    if gap > PHASE_TOLERANCE * layers["core.compile_s"] + PHASE_SLACK_S * programs:
        errors.append(f"compile phases sum to {layers['phase_sum_s']:.6f} s "
                      f"but core::Program::fromSource took "
                      f"{layers['core.compile_s']:.6f} s")
    serve_seconds = seconds if workload == "serve-mixed" else min(seconds, 5)
    report = serve(work, seed, serve_seconds, trace=True)
    if report is None:
        fail("serve-mixed client failed")
    errors += report["errors"]
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()
               if name != "phase_sum_s"}
    metrics.update({
        "srv.cache_hit_ratio": (report["cache_hit_ratio"], "ratio"),
        "srv.queue_wait_p50_us": (report["queue_wait_p50_us"], "us"),
        "srv.query_p50_us": (report["query_p50_us"], "us"),
        "srv.query_p90_us": (report["query_p90_us"], "us"),
        "srv.query_p99_us": (report["query_p99_us"], "us"),
        "srv.query_p999_us": (report["query_p999_us"], "us"),
    })
    attempted = report["loads"] + report["queries"] + 1 + len(jobs)
    return metrics, attempted, report["failed"], errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    steal0 = steal_seconds()
    if args.trace:
        metrics, attempted, failed, errors = per_layer(
            args.workload, work, args.seed, args.seconds)
        metrics["host.steal_s"] = (steal_seconds() - steal0, "s")
    else:
        metrics, attempted, failed, errors = end_to_end(
            args.workload, work, args.seed, args.seconds)
        print(f"host steal over the run: {steal_seconds() - steal0:.2f} s",
              file=sys.stderr)
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()

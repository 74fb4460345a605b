#!/usr/bin/env python3
"""Records one row of the performance trajectory: runs perfbench/run.py
several times per workload and writes BENCH_<n>_<short-sha>.json.

    python3 tools/bench_record.py                      # this checkout
    python3 tools/bench_record.py --checkout ../other  # another tree

Every row uses the same settings, so rows compare with each other: all
three workloads, seed 1, 5 runs each at the run length BENCHMARK.json fixes
(run_seconds), then 3 traced runs (--trace 1) of the same length. The file
records the host, compiler, build type and commit of the measured checkout
(`-dirty` when tracked files differ from HEAD), every run's end-to-end
metrics, per metric the median and the interquartile range, and under
`layers` the median of each per-layer metric over the traced runs, with
each traced run's pass count (the timing medians span that many passes;
counts come from the last one). Under `wall_times` it records the wall
time of the quick `run_all` grid and of the Tier-1 ctest run, 3 runs each
(median, interquartile range and every run), from a Release build of the
whole checkout under .bench_build/release. <n> is --index, else one past
the highest index already recorded. The file goes to the root of the
repository holding this script.
"""

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep_dense", "corpus_periodic", "adversary_search")
SEED = 1
RUNS = 5
TRACED_RUNS = 3
WALL_RUNS = 3


def fail(message):
    print("bench_record: " + message, file=sys.stderr)
    sys.exit(2)


def git(checkout, *args):
    return subprocess.run(["git", "-C", checkout] + list(args),
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def commit_of(checkout):
    """(full commit id, short id), both suffixed -dirty when tracked files
    differ from HEAD."""
    sha = git(checkout, "rev-parse", "HEAD")
    dirty = git(checkout, "status", "--porcelain", "--untracked-files=no")
    suffix = "-dirty" if dirty else ""
    return sha + suffix, sha[:7] + suffix


def build_dir(checkout):
    """The perfbench build of `checkout`. Must match build_root() in
    perfbench/run.py, which owns where that build lives."""
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = path if os.path.isabs(path) else os.path.join(checkout, path)
    return os.path.join(base, "perfbench")


def cache_entry(checkout, name):
    """A value from the benchmark build's CMakeCache.txt; fails when the
    cache or the entry is missing rather than guess."""
    path = os.path.join(build_dir(checkout), "CMakeCache.txt")
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        fail("no %s after the runs; cannot tell the compiler and build "
             "type" % path)
    fail("%s has no %s entry" % (path, name))
    return None


def compiler_of(checkout):
    path = cache_entry(checkout, "CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, check=True).stdout
        return out.splitlines()[0].strip()
    except (OSError, subprocess.CalledProcessError, IndexError):
        return path


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            match = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            if match:
                cpu = match.group(1).strip()
    except OSError:
        pass
    return {"cpu": cpu, "logical_cpus": os.cpu_count(),
            "os": platform.system() + " " + platform.release(),
            "machine": platform.machine()}


def benchmark_spec(checkout):
    for base in (checkout, ROOT):
        path = os.path.join(base, "BENCHMARK.json")
        if os.path.isfile(path):
            with open(path) as f:
                return json.load(f)
    fail("no BENCHMARK.json in %s or %s" % (checkout, ROOT))
    return None


def run_once(checkout, workload, seed, seconds, trace=0):
    """One perfbench run; returns its result object (last stdout line) and
    its stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]), proc.stdout
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("%s run produced no result (exit %d)" %
             (workload, proc.returncode))
    return None, None


def traced_passes(stdout, workload):
    """The traced pass count the driver reports on its summary line."""
    match = re.search(r"traced passes (\d+)", stdout)
    if not match:
        fail("%s traced run reported no traced pass count" % workload)
    return int(match.group(1))


def layer_row(checkout, workload, seconds):
    """Median of each per-layer metric over TRACED_RUNS traced runs."""
    results = []
    passes = []
    for i in range(TRACED_RUNS):
        result, stdout = run_once(checkout, workload, SEED, seconds, trace=1)
        passes.append(traced_passes(stdout, workload))
        print("%s traced run %d/%d: %d traced passes" % (
            workload, i + 1, TRACED_RUNS, passes[-1]), flush=True)
        results.append(result)
    layers = {"correct": all(r["correct"] for r in results),
              "traced_passes": passes,
              "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        layers["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values)}
    return layers


def summarize(values):
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def release_build(checkout):
    """Configures and builds the whole checkout (Release, tests included)
    next to the perfbench build; returns the build directory."""
    path = os.path.join(os.path.dirname(build_dir(checkout)), "release")
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", checkout, "-B", path,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", path, "-j", jobs]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            fail("%s failed" % " ".join(cmd))
    return path


def timed(cmd, cwd):
    """Wall seconds of one run of `cmd`; fails when it exits nonzero."""
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))
    return elapsed


def wall_times(checkout):
    """WALL_RUNS timed runs each of the quick run_all grid (into a fresh
    results directory) and of the Tier-1 ctest run."""
    build = release_build(checkout)
    jobs = str(os.cpu_count() or 1)
    runs = {"run_all_quick_s": [], "tier1_ctest_s": []}
    for i in range(WALL_RUNS):
        with tempfile.TemporaryDirectory() as results:
            runs["run_all_quick_s"].append(timed(
                [os.path.join(build, "run_all"), "--profile", "quick",
                 "--results-dir", results], build))
        runs["tier1_ctest_s"].append(timed(
            ["ctest", "-j", jobs, "--output-on-failure"], build))
        print("wall run %d/%d: run_all quick %.2f s, ctest %.2f s" % (
            i + 1, WALL_RUNS, runs["run_all_quick_s"][-1],
            runs["tier1_ctest_s"][-1]), flush=True)
    return {name: dict(unit="s", runs=values, **summarize(values))
            for name, values in runs.items()}


def next_index():
    indices = [int(m.group(1)) for path in
               glob.glob(os.path.join(ROOT, "BENCH_*_*.json"))
               for m in [re.match(r"BENCH_(\d+)_", os.path.basename(path))]
               if m]
    return max(indices, default=0) + 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=ROOT,
                        help="tree to measure (default: this repository)")
    parser.add_argument("--index", type=int)
    args = parser.parse_args()
    checkout = os.path.abspath(args.checkout)
    commit, short = commit_of(checkout)
    spec = benchmark_spec(checkout)
    seconds = spec["run_seconds"]

    rows = {}
    for workload in WORKLOADS:
        results = []
        for i in range(RUNS):
            result, _ = run_once(checkout, workload, SEED, seconds)
            print("%s run %d/%d: %s" % (
                workload, i + 1, RUNS,
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in result["metrics"].items())),
                flush=True)
            results.append(result)
        row = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "runs": [{k: v["value"] for k, v in r["metrics"].items()}
                        for r in results],
               "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            row["metrics"][metric["name"]] = dict(
                unit=metric["unit"], better=metric["better"],
                **summarize(values))
        row["layers"] = layer_row(checkout, workload, seconds)
        rows[workload] = row

    walls = wall_times(checkout)
    index = args.index if args.index is not None else next_index()
    record = {
        "index": index,
        "commit": commit,
        "host": host_info(),
        "compiler": compiler_of(checkout),
        "build_type": cache_entry(checkout, "CMAKE_BUILD_TYPE"),
        "seed": SEED,
        "seconds": seconds,
        "runs_per_workload": RUNS,
        "traced_runs_per_workload": TRACED_RUNS,
        "wall_runs": WALL_RUNS,
        "wall_times": walls,
        "workloads": rows,
    }
    path = os.path.join(ROOT, "BENCH_%d_%s.json" % (index, short))
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote " + path)
    return 0 if all(row["correct"] and row["layers"]["correct"]
                    for row in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

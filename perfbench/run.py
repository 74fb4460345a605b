#!/usr/bin/env python3
"""Cell-replay benchmark: builds perfbench_driver from this checkout and runs
one workload.

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 10 --trace 0

The driver's last stdout line is the result JSON (correct, attempted,
failed, metrics). Extra modes:

    --selftest   check the benchmark's own gates: a corrupted expected digest
                 must give failed == attempted and a nonzero exit, and a
                 traced run must reproduce the untraced and 1-worker digests
    --record     write the digest of (--workload, --seed) into
                 perfbench/expected_digests.json

Builds go to $CARGO_TARGET_DIR (default .bench_build) under the checkout,
as a plain Release build of the repository's library; nothing is written
outside the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected_digests.json")
WORKLOADS = ("sweep_dense", "corpus_periodic", "adversary_search")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no psllc sources in %s; run from a full checkout" % ROOT)
    build_dir = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def commit_id():
    """The git commit when the checkout is a repository, else a hash of the
    sources the driver is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        start = os.path.join(ROOT, top)
        paths = [start] if os.path.isfile(start) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(start) for f in files)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def run_driver(driver, workload, seed, seconds, trace, expected=EXPECTED,
               capture=False):
    """Runs the driver in a private work directory; returns the completed
    process (stdout captured when `capture`)."""
    work_root = os.path.join(build_root(), "work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="%s-s%d-" % (workload, seed),
                                dir=work_root)
    env = dict(os.environ)
    env.pop("PSLLC_CELL_THREADS", None)  # the default engine, as users run it
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir,
           "--spans-dir", os.path.join(build_root(), "spans"),
           "--commit", commit_id()]
    if expected:
        cmd += ["--expected", expected]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=DRIVER_TIMEOUT_S,
                              capture_output=capture, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def digest_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest "):
            return line.split()[1]
    return None


def selftest(driver):
    ok = True
    workload, seed = "corpus_periodic", 1
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    recorded = expected[workload][str(seed)]
    corrupted = dict(expected)
    corrupted[workload] = dict(expected[workload])
    corrupted[workload][str(seed)] = "%016x" % (int(recorded, 16) ^ 1)
    work_root = os.path.join(build_root(), "work")
    os.makedirs(work_root, exist_ok=True)
    bad_path = os.path.join(work_root, "corrupted_digests.json")
    with open(bad_path, "w") as handle:
        json.dump(corrupted, handle)
    try:
        bad = run_driver(driver, workload, seed, 0, 0, expected=bad_path,
                         capture=True)
    finally:
        os.remove(bad_path)
    result = result_line(bad.stdout)
    corrupt_ok = bad.returncode != 0 and result is not None and \
        not result["correct"] and result["failed"] == result["attempted"]
    print("selftest corrupted digest -> failed_frac 1, exit %d: %s" %
          (bad.returncode, "PASS" if corrupt_ok else "FAIL"))
    ok = ok and corrupt_ok
    for name in WORKLOADS:
        traced = run_driver(driver, name, seed, 0, 1, capture=True)
        result = result_line(traced.stdout)
        good = traced.returncode == 0 and result is not None and \
            result["correct"] and "passes agree" in traced.stdout and \
            digest_line(traced.stdout) == expected[name][str(seed)]
        print("selftest %s traced == untraced == 1 worker == committed: %s" %
              (name, "PASS" if good else "FAIL"))
        ok = ok and good
    return 0 if ok else 1


def record(driver, workload, seed):
    proc = run_driver(driver, workload, seed, 0, 0, expected=None,
                      capture=True)
    value = digest_line(proc.stdout)
    if proc.returncode != 0 or value is None:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("recording %s seed %d failed" % (workload, seed))
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    expected.setdefault(workload, {})[str(seed)] = value
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("%s seed %d: %s" % (workload, seed, value))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    if args.selftest:
        return selftest(driver)
    if args.record:
        return record(driver, args.workload, args.seed)
    try:
        proc = run_driver(driver, args.workload, args.seed, args.seconds,
                          args.trace)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

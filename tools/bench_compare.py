#!/usr/bin/env python3
"""Compares two rows of the performance trajectory.

    python3 tools/bench_compare.py BENCH_20_6028428.json BENCH_22_abc1234.json

Prints, per workload and end-to-end metric of BENCHMARK.json, the median and
interquartile range of the OLD and the NEW row and the change of the median.
It applies the benchmark's rules for a change against its parent:
  - a metric regresses when its NEW median is worse than the OLD median by
    more than the metric's `bound`, a fraction of the OLD median;
  - a workload fails when NEW's share of failed operations
    (`failed / attempted`) exceeds OLD's, or when NEW is not `correct`
    (a digest mismatch).
Exit status: 0 when nothing regresses or fails, 1 when something does, 2 on a
usage error or an unreadable row. Rows recorded on different hosts also
compare the hosts' raw speed; the header line names both.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print("bench_compare: " + message, file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def failed_share(row):
    """The share of a workload's attempted operations that failed."""
    failed = row.get("failed", 0)
    return failed / max(row.get("attempted", 0), failed) if failed else 0.0


def worse_fraction(old, new, better):
    """How much worse `new` is than `old`, as a fraction of `old` (negative
    when it is better)."""
    if old == 0:
        return 0.0
    delta = (old - new) if better == "higher" else (new - old)
    return delta / abs(old)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the reference BENCH_*.json row")
    parser.add_argument("new", help="the BENCH_*.json row to check")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="benchmark declaration with the bounds")
    args = parser.parse_args()
    spec = load(args.spec)
    old, new = load(args.old), load(args.new)
    for name, row in (("old", old), ("new", new)):
        if not isinstance(row.get("workloads"), dict):
            fail("%s row %s has no workloads" % (name, getattr(args, name)))

    print("old: %s (index %s, %s)" % (old.get("commit"), old.get("index"),
                                      old.get("host", {}).get("cpu")))
    print("new: %s (index %s, %s)" % (new.get("commit"), new.get("index"),
                                      new.get("host", {}).get("cpu")))
    regressions = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in old["workloads"] or name not in new["workloads"]:
            fail("workload %s is missing from a row" % name)
        old_row, new_row = old["workloads"][name], new["workloads"][name]
        print("\n%s (failed: old %d of %d, new %d of %d; correct: old %s, "
              "new %s)" % (
                  name, old_row.get("failed", 0), old_row.get("attempted", 0),
                  new_row.get("failed", 0), new_row.get("attempted", 0),
                  old_row.get("correct"), new_row.get("correct")))
        if failed_share(new_row) > failed_share(old_row):
            regressions.append("%s failed share" % name)
        if new_row.get("correct") is not True:
            regressions.append("%s not correct" % name)
        print("  %-12s %12s %10s %12s %10s %8s %6s" % (
            "metric", "old median", "old IQR", "new median", "new IQR",
            "worse", "bound"))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            try:
                o, n = old_row["metrics"][key], new_row["metrics"][key]
            except KeyError:
                fail("metric %s of %s is missing from a row" % (key, name))
            worse = worse_fraction(o["median"], n["median"], metric["better"])
            verdict = ""
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions.append("%s %s" % (name, key))
            print("  %-12s %12.4g %10.3g %12.4g %10.3g %+7.1f%% %5.0f%% %s" % (
                key, o["median"], o["iqr"], n["median"], n["iqr"],
                100 * worse, 100 * metric["bound"], verdict))
    if regressions:
        print("\nregressed or failed: " + ", ".join(regressions))
        return 1
    print("\nno metric regressed beyond its bound, no workload failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs alternating parent/change perfbench pairs and applies the benchmark's
rule for a change against its parent.

    python3 tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload sweep_dense --pairs 10 [--claim replay_mops] [--seed 1]

Each pair runs `perfbench/run.py` once in each checkout, at the run length
BENCHMARK.json fixes (run_seconds); odd pairs run the parent first, even
pairs the change, so a drift of host speed does not favour one side. Every
run is printed as it finishes. Then, per end-to-end metric of
BENCHMARK.json, the tool prints each side's median and quartiles and the
pairs the change won (strictly better), and a verdict:
  - the claimed metric (--claim) holds when the change wins at least 9 of
    every 10 pairs and its median beats the parent's by more than the
    parent's interquartile range;
  - any other metric is `ok` when its median is worse than the parent's by
    at most the metric's `bound` (a fraction of the parent median), `WORSE`
    beyond it, and `unresolved` when either side's interquartile range is
    wider than the bound, so that the runs cannot tell, unless every run of
    the change reads better than every run of the parent.
A pair also fails when the change is not `correct` (a digest mismatch) or
its share of failed operations exceeds the parent's. Exit status: 0 when
every verdict passes, 1 otherwise, 2 on a usage error. Nothing is written
into either checkout except perfbench's own build directory.
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_compare import failed_share, worse_fraction  # noqa: E402
from bench_record import benchmark_spec, run_once, summarize  # noqa: E402

WORKLOADS = ("sweep_dense", "corpus_periodic", "adversary_search")
WIN_SHARE = 0.9


def fail(message):
    print("bench_pairs: " + message, file=sys.stderr)
    sys.exit(2)


def describe(side, result, metrics):
    values = " ".join("%s %.4g" % (m["name"],
                                   result["metrics"][m["name"]]["value"])
                      for m in metrics)
    return "%-6s %s  correct %s failed %d/%d" % (
        side, values, result["correct"], result["failed"],
        result["attempted"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", help="the end-to-end metric claimed to "
                        "improve (default: none)")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")
    checkouts = {}
    for side in ("parent", "change"):
        path = os.path.abspath(getattr(args, side))
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            fail("%s has no perfbench/run.py" % path)
        checkouts[side] = path
    spec = benchmark_spec(checkouts["change"])
    metrics = spec["end_to_end"]
    if args.claim and args.claim not in [m["name"] for m in metrics]:
        fail("--claim %s is not an end-to-end metric of BENCHMARK.json" %
             args.claim)
    seconds = spec["run_seconds"]

    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for side in order:
            result, _ = run_once(checkouts[side], args.workload, args.seed,
                                 seconds)
            runs[side].append(result)
            print("pair %d/%d %s" % (pair + 1, args.pairs,
                                     describe(side, result, metrics)),
                  flush=True)

    problems = []
    for pair, (p, c) in enumerate(zip(runs["parent"], runs["change"])):
        if c["correct"] is not True:
            problems.append("pair %d: change not correct" % (pair + 1))
        if failed_share(c) > failed_share(p):
            problems.append("pair %d: change failed share %d/%d" % (
                pair + 1, c["failed"], c["attempted"]))

    print("\n%s, seed %d, %d pairs of %g s" % (args.workload, args.seed,
                                              args.pairs, seconds))
    print("%-12s %-30s %-30s %6s %7s  %s" % (
        "metric", "parent q1/median/q3", "change q1/median/q3", "wins",
        "gain", "verdict"))
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        stats = {side: summarize(values[side]) for side in values}
        parent, change = stats["parent"], stats["change"]
        wins = sum(1 for p, c in zip(values["parent"], values["change"])
                   if (c > p if better == "higher" else c < p))
        worse = worse_fraction(parent["median"], change["median"], better)
        if name == args.claim:
            gain = -worse * abs(parent["median"])
            holds = wins >= math.ceil(WIN_SHARE * args.pairs) and \
                gain > parent["iqr"]
            verdict = "claim %s (needs %d wins and a median gain > parent " \
                "IQR %.4g)" % ("holds" if holds else "NOT MET",
                               math.ceil(WIN_SHARE * args.pairs),
                               parent["iqr"])
            if not holds:
                problems.append("%s claim not met" % name)
        else:
            bound = metric["bound"] * abs(parent["median"])
            if better == "higher":
                all_better = min(values["change"]) > max(values["parent"])
            else:
                all_better = max(values["change"]) < min(values["parent"])
            if all_better:
                verdict = "ok (every change run better)"
            elif parent["iqr"] > bound or change["iqr"] > bound:
                verdict = "unresolved (an IQR exceeds the %.0f%% bound)" % (
                    100 * metric["bound"])
                problems.append("%s unresolved" % name)
            elif worse > metric["bound"]:
                verdict = "WORSE than the %.0f%% bound" % (
                    100 * metric["bound"])
                problems.append("%s worse" % name)
            else:
                verdict = "ok"
        print("%-12s %-30s %-30s %3d/%-2d %+6.1f%%  %s" % (
            name,
            "%.4g/%.4g/%.4g" % (parent["q1"], parent["median"], parent["q3"]),
            "%.4g/%.4g/%.4g" % (change["q1"], change["median"], change["q3"]),
            wins, args.pairs, -100 * worse, verdict))
    if problems:
        print("\nfailed: " + ", ".join(problems))
        return 1
    print("\nevery verdict passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two sets of perfbench result files.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are directories of result files as written by run.py
(.bench_out/results/<workload>-seed<N>-trace<T>.json), for example copies
taken on the parent commit and on a change.

Deterministic counts (store calls, RPCs, journal records, cache hits,
quorum ops, ...) depend only on the workload, seed and run length. For
every result present in both sets with the same workload, seed, trace mode
and run length, any count that differs is printed and makes the tool exit
with status 1. Wall-time metrics are printed as median and quartiles per
workload with the change of the medians; they never fail the comparison,
since their noise is judged against the bounds in BENCHMARK.json.

Exit status: 0 when every shared count matches, 1 when one differs, 2 on
bad input.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError:
                continue
        meta = doc.get("meta", {})
        if "workload" not in meta or "counts" not in doc:
            continue
        key = (meta["workload"], meta.get("trace", "0"), meta.get("seed"), meta.get("seconds"))
        out[key] = doc
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def compare_counts(old, new):
    differences = 0
    shared = sorted(set(old) & set(new))
    for key in shared:
        a, b = old[key]["counts"], new[key]["counts"]
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                differences += 1
                workload, trace, seed, seconds = key
                print(f"COUNT CHANGED {workload} seed={seed} trace={trace} seconds={seconds}: "
                      f"{name} {a.get(name)} -> {b.get(name)}")
    return shared, differences


def compare_metrics(old, new):
    workloads = sorted({(k[0], k[1]) for k in old} | {(k[0], k[1]) for k in new})
    for workload, trace in workloads:
        olds = [d for k, d in old.items() if (k[0], k[1]) == (workload, trace)]
        news = [d for k, d in new.items() if (k[0], k[1]) == (workload, trace)]
        if not olds or not news:
            continue
        print(f"\n{workload} (trace={trace}): {len(olds)} old runs, {len(news)} new runs")
        print(f"  {'metric':34s} {'old q1/med/q3':>32s} {'new q1/med/q3':>32s} {'delta':>8s}")
        names = sorted(set(olds[0]["metrics"]) & set(news[0]["metrics"]))
        for name in names:
            a = [d["metrics"][name]["value"] for d in olds if name in d["metrics"]]
            b = [d["metrics"][name]["value"] for d in news if name in d["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else float("nan")
            unit = olds[0]["metrics"][name]["unit"]
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"  {name + ' [' + unit + ']':34s} {fmt(qa):>32s} {fmt(qb):>32s} {delta:+7.1f}%")


def main(argv):
    if len(argv) != 3 or not all(os.path.isdir(d) for d in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[1]), load(argv[2])
    if not old or not new:
        print("no result files found", file=sys.stderr)
        return 2
    shared, differences = compare_counts(old, new)
    compare_metrics(old, new)
    print(f"\n{len(shared)} shared runs compared, {differences} deterministic counts changed")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Compare two benchmark result sets: the parent's and a change's.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds <workload>/seed<N>.txt files, the saved standard output
of one run each (sweep.py writes this layout); the metrics and bounds come
from BENCHMARK.json. For every workload it first prints each side's runs,
the runs without a correct result, and the failed jobs. Then, for every
end-to-end metric, it prints each side's median and quartiles over the
correct runs, the share of same-seed pairs the change won (ties count for
neither side), the change in the median, and a verdict:

  failing      the change has a run without a correct result, or a larger
               share of failed jobs than the parent; no gain counts

  better       the change won at least 9/10 of the pairs and the medians
               differ by more than the parent's own quartile distance
  worse        the change's median is worse than the parent's by more
               than the metric's bound
  unresolved   the parent's own spread (quartile distance over median) is
               wider than the bound, and the change did not read better
               on every run than the parent on every run
  within bound none of the above

Exits 1 if any verdict is "worse" or "failing", or a workload has no
correct runs on a side, else 0.
"""

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load_runs(path):
    """{workload: {seed: result}} from a result directory; the result is
    None for a run that printed none."""
    runs = {}
    for w in sorted(os.listdir(path)):
        wdir = os.path.join(path, w)
        if not os.path.isdir(wdir):
            continue
        for f in sorted(os.listdir(wdir)):
            if not (f.startswith("seed") and f.endswith(".txt")):
                continue
            with open(os.path.join(wdir, f)) as fh:
                lines = [l for l in fh.read().splitlines() if l.strip()]
            try:
                res = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                res = None
            runs.setdefault(w, {})[f[4:-4]] = res
    return runs


def failures(runs):
    """(runs without a correct result, failed jobs, attempted jobs)."""
    incorrect = sum(1 for r in runs.values() if not (r and r.get("correct")))
    failed = sum(r["failed"] for r in runs.values() if r)
    attempted = sum(r["attempted"] for r in runs.values() if r)
    return incorrect, failed, attempted


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, better, bound):
    """The choosing-metrics section 8 rule on one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    spread = (p3 - p1) / pm if pm else float("inf")
    if win_share >= 0.9 and abs(cm - pm) > (p3 - p1) and worse_by < 0:
        v = "better"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "within bound"
    return worse_by, win_share, spread, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    runs_a, runs_b = load_runs(args.parent), load_runs(args.change)
    any_bad = False
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in runs_a or w not in runs_b:
            print(f"{w}: missing from {'parent' if w not in runs_a else 'change'}\n")
            any_bad = True
            continue
        fa, fb = failures(runs_a[w]), failures(runs_b[w])
        for side, runs, (incorrect, failed, attempted) in (
                ("parent", runs_a[w], fa), ("change", runs_b[w], fb)):
            print(f"{w}: {side} {len(runs)} runs, {incorrect} without a correct result, "
                  f"{failed} of {attempted} jobs failed")
        share = lambda f: f[1] / f[2] if f[2] else 0.0
        failing = fb[0] > 0 or share(fb) > share(fa)
        a = {s: r for s, r in runs_a[w].items() if r and r.get("correct")}
        b = {s: r for s, r in runs_b[w].items() if r and r.get("correct")}
        if not a or not b:
            print(f"  no correct runs on the {'parent' if not a else 'change'} side\n")
            any_bad = True
            continue
        seeds = sorted(set(a) & set(b))
        print(f"  {len(seeds)} same-seed pairs of correct runs")
        print(f"  {'metric':<20} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
              f"{'won':>5} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            n = m["name"]
            pv = [r["metrics"][n]["value"] for r in a.values()]
            cv = [r["metrics"][n]["value"] for r in b.values()]
            pairs = [(a[s]["metrics"][n]["value"], b[s]["metrics"][n]["value"])
                     for s in seeds]
            worse_by, won, spread, v = verdict(pv, cv, pairs, m["better"], m["bound"])
            if failing:
                v = "failing"
            any_bad |= v in ("worse", "failing")
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"  {n:<20} {'/'.join(f'{x:.4g}' for x in pq):>32} "
                  f"{'/'.join(f'{x:.4g}' for x in cq):>32} {won:>5.0%} "
                  f"{worse_by:>+9.1%} {spread:>7.1%} {m['bound']:>6.0%}  {v}")
        print()
    return 1 if any_bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report its spread.

    python3 perfbench/sweep.py --out .perfbench_out/runs/a            # 10 seeds, every workload
    python3 perfbench/sweep.py --out DIR --workloads text-zipf --seeds 1-5

Run from the repository root. Each run's standard output is saved as
DIR/<workload>/seed<N>.txt (the layout compare.py reads). For every
end-to-end metric the sweep prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median, against the metric's bound
in BENCHMARK.json. Exits non-zero if a run fails or reports an incorrect
result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="result directory")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    metrics = spec["end_to_end"]
    ok = True
    for w in names:
        os.makedirs(os.path.join(args.out, w), exist_ok=True)
        results = []
        for seed in seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            with open(os.path.join(args.out, w, f"seed{seed}.txt"), "w") as f:
                f.write(p.stdout)
            res = last_json(p.stdout) if p.returncode == 0 else None
            if res is None or not res.get("correct"):
                ok = False
                print(f"{w} seed {seed}: FAILED (exit {p.returncode})\n{p.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            results.append(res)
            print(f"{w} seed {seed}: " + " ".join(
                f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics),
                flush=True)
        if len(results) < 2:
            continue
        print(f"\n{w}: {len(results)} runs")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, sp = spread(vals)
            bound = m["bound"]
            flag = "  WIDE" if m["name"] != "setup_s" and sp > bound / 3 else ""
            print(f"  {m['name']:<34} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {sp:>8.3f} "
                  f"{bound / 3:>8.3f}{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

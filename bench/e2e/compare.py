#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs against BENCHMARK.json.

    python3 bench/e2e/compare.py --a base/*.json --b change/*.json [--paired]

Each file holds one or more JSON objects, one per line, each with a
"workload" and a "metrics" object (what `run.py --out FILE` writes). For
every workload and metric present in both sets it prints each set's median
and quartiles and, for the end-to-end metrics, a verdict against the
metric's bound:

  same        the medians differ by less than the tolerance
  worse/better  they differ by more
  unresolved  either set's IQR exceeds the tolerance, and not every run of
              B reads better (or worse) than every run of A

The tolerance is the bound times A's median, and for setup_s at least
0.05 s, so that sub-millisecond set-up times do not give verdicts on timer
noise.

--paired pairs runs that share a seed, in file order within a seed (by file
order when seeds are absent). It claims a gain only with at least 10 pairs,
when B wins at least 9 of every 10 of them, ties counting for neither, and
the medians differ by more than A's IQR. The exit code is 1 when any verdict
is "worse". Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

# Absolute floor of the tolerance, in the metric's unit.
ABS_FLOOR = {"setup_s": 0.05}
# Fewest pairs the --paired rule needs before it claims anything.
MIN_PAIRS = 10


def load_runs(paths):
    """workload -> list of run objects, in file order."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                run = json.loads(line)
                if "workload" not in run or "metrics" not in run:
                    sys.exit(f"compare.py: {path}: run lacks workload/metrics")
                runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def tolerance(metric, median):
    """How far a median may move and still read as the same: the metric's
    bound as a share of the median, but never less than its absolute floor."""
    return max(metric["bound"] * abs(median), ABS_FLOOR.get(metric["name"], 0.0))


def verdict(a, b, metric):
    """Unpaired verdict of set B against set A."""
    qa, qb = quartiles(a), quartiles(b)
    lower_is_better = metric["better"] == "lower"
    better = (lambda x, y: x < y) if lower_is_better else (lambda x, y: x > y)
    if any(q[2] - q[0] > tolerance(metric, q[1]) for q in (qa, qb)):
        if all(better(y, x) for x in a for y in b):
            return "better"
        if all(better(x, y) for x in a for y in b):
            return "worse"
        return "unresolved"
    if abs(qb[1] - qa[1]) <= tolerance(metric, qa[1]):
        return "same"
    return "better" if better(qb[1], qa[1]) else "worse"


def pairs_of(runs_a, runs_b):
    """Pairs the runs of A and B that share a seed, in file order within each
    seed (so repeated runs at one seed all count); by file order when a run
    has no seed."""
    if any("seed" not in r for r in runs_a + runs_b):
        return list(zip(runs_a, runs_b))
    by_seed_a, by_seed_b = {}, {}
    for runs, by_seed in ((runs_a, by_seed_a), (runs_b, by_seed_b)):
        for r in runs:
            by_seed.setdefault(r["seed"], []).append(r)
    pairs = []
    for seed in sorted(set(by_seed_a) & set(by_seed_b)):
        pairs += zip(by_seed_a[seed], by_seed_b[seed])
    return pairs


def paired(runs_a, runs_b, metric, lower_is_better):
    """Paired gain rule: at least MIN_PAIRS pairs, wins >= 9/10 of them and a
    median gap > A's IQR."""
    pairs = pairs_of(runs_a, runs_b)
    wins = losses = 0
    for ra, rb in pairs:
        if metric not in ra["metrics"] or metric not in rb["metrics"]:
            continue
        x, y = ra["metrics"][metric]["value"], rb["metrics"][metric]["value"]
        if x == y:
            continue
        if (y < x) == lower_is_better:
            wins += 1
        else:
            losses += 1
    n = len(pairs)
    qa = quartiles(values(runs_a, metric))
    gap = abs(statistics.median(values(runs_b, metric)) - qa[1])
    if n < MIN_PAIRS:
        claim = f"too few pairs for a claim (need {MIN_PAIRS})"
    elif wins >= 0.9 * n and gap > qa[2] - qa[0]:
        claim = "better"
    else:
        claim = "no gain"
    return f"n={n} {wins}W/{losses}L/{n - wins - losses}T {claim}"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--a", nargs="+", required=True, help="baseline run files")
    p.add_argument("--b", nargs="+", required=True, help="candidate run files")
    p.add_argument("--bench", default=None,
                   help="BENCHMARK.json (default: the repository root's)")
    p.add_argument("--paired", action="store_true")
    args = p.parse_args()

    bench_path = args.bench or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")
    with open(bench_path) as f:
        bench = json.load(f)
    catalogue = [(m, True) for m in bench["end_to_end"]]
    catalogue += [(m, False) for m in bench["per_layer"]]
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)

    worse = False
    header = (f"{'workload':<18} {'metric':<28} {'A q1/med/q3':>32} "
              f"{'B q1/med/q3':>32} {'delta':>8}  verdict")
    print(header)
    for workload in sorted(set(runs_a) & set(runs_b)):
        for m, bounded in catalogue:
            a = values(runs_a[workload], m["name"])
            b = values(runs_b[workload], m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            v = verdict(a, b, m) if bounded else "-"
            if args.paired and bounded:
                v += " | paired " + paired(runs_a[workload], runs_b[workload],
                                           m["name"], m["better"] == "lower")
            worse = worse or v.startswith("worse")
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:<18} {m['name']:<28} {fmt(qa):>32} "
                  f"{fmt(qb):>32} {delta:>+8.2%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

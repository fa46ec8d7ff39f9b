#!/usr/bin/env python3
"""Compare benchmark records of a parent commit and a change.

Records are the JSON lines perfbench/run.py --record appends (one run
each). Collect them in alternating parent/change order, one seed per
pair, e.g. for ten pairs on one workload:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      for side in parent change; do    # swap the order on odd seeds
        (cd $side && python3 perfbench/run.py --workload paper_closed \\
           --seed $seed --seconds 20 --trace 0 --record ../$side.jsonl)
      done
    done

Then:

    compare.py parent.jsonl change.jsonl [--claim wall_s@paper_closed]
    compare.py --spread runs.jsonl

Rules (the benchmark's README spells them out):
  claim          the change wins at least 9/10 of the pairs (ties count
                 for neither side) and the medians differ, in the
                 metric's better direction, by more than the parent's
                 interquartile range;
  no regression  every other end-to-end metric's change median is not
                 worse than the parent median by more than the bound in
                 BENCHMARK.json; when either side's spread (IQR/median)
                 exceeds the bound the pair is "unresolved", unless
                 every change run beats every parent run.
Records whose provenance (host, nproc, compiler, build type,
PBT_THREADS, seed, run length, smoke) differ in anything but the commit
are refused. Exit status: 0 all clear, 1 a regression or unmet claim,
2 refused input.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("record: "):
                line = line[len("record: "):]
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if rec.get("schema") == "pbt-perfbench-v1":
                records.append(rec)
    return records


def setting(rec):
    """Everything that must match between compared runs of one workload."""
    return (json.dumps(rec["provenance"], sort_keys=True), rec["seconds"],
            rec["smoke"], rec["trace"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def by_workload(records):
    out = {}
    for rec in records:
        out.setdefault(rec["workload"], []).append(rec)
    return out


def pairs(parent, change):
    """Matches the i-th parent and change runs of each seed."""
    bucket = {}
    for rec in parent:
        bucket.setdefault(rec["seed"], []).append(rec)
    out = []
    for rec in change:
        queue = bucket.get(rec["seed"])
        if not queue:
            raise ValueError(f"change run with seed {rec['seed']} has no "
                             "parent run of the same seed")
        out.append((queue.pop(0), rec))
    left = sum(len(q) for q in bucket.values())
    if left:
        raise ValueError(f"{left} parent runs have no change run of the "
                         "same seed")
    return out


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def judge_claim(prs, name, direction):
    par = [p["metrics"][name]["value"] for p, _ in prs]
    chg = [c["metrics"][name]["value"] for _, c in prs]
    wins = sum(better(c, p, direction) for p, c in zip(par, chg))
    q1, _, q3 = quartiles(par)
    mp, mc = statistics.median(par), statistics.median(chg)
    met = (wins >= 0.9 * len(prs) and better(mc, mp, direction)
           and abs(mc - mp) > q3 - q1)
    return met, (f"{name}: {'MET' if met else 'NOT MET'} (wins {wins}/"
                 f"{len(prs)}, median {mp:.6g} -> {mc:.6g}, parent IQR "
                 f"{q3 - q1:.6g})")


def judge_bound(prs, name, direction, bound):
    par = [p["metrics"][name]["value"] for p, _ in prs]
    chg = [c["metrics"][name]["value"] for _, c in prs]
    mp, mc = statistics.median(par), statistics.median(chg)
    rel = (mc - mp) / mp if mp else 0.0
    worse = rel if direction == "lower" else -rel
    if all(better(c, p, direction) for c in chg for p in par):
        status = "better"
    elif max(spread(par), spread(chg)) > bound:
        status = "unresolved"
    elif worse > bound:
        status = "REGRESSION"
    else:
        status = "ok"
    return status, f"{name} {status} ({rel:+.1%})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="+", help="parent.jsonl change.jsonl, "
                    "or one file with --spread")
    ap.add_argument("--claim", action="append", default=[],
                    help="METRIC@WORKLOAD the change claims to improve")
    ap.add_argument("--spread", action="store_true",
                    help="print median and IQR/median per metric of one set")
    args = ap.parse_args()

    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    directions = {m["name"]: m["better"]
                  for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    if args.spread:
        for workload, recs in sorted(by_workload(load(args.files[0])).items()):
            names = recs[0]["metrics"].keys()
            cells = []
            for name in names:
                vals = [r["metrics"][name]["value"] for r in recs]
                cells.append(f"{name}={statistics.median(vals):.6g} "
                             f"spread={spread(vals):.3f}")
            print(f"{workload} (n={len(recs)}): " + "  ".join(cells))
        return 0

    if len(args.files) != 2:
        ap.error("give parent and change record files")
    parent = by_workload(load(args.files[0]))
    change = by_workload(load(args.files[1]))
    workloads = {w["name"] for w in bench["workloads"]}
    claims = {}
    for c in args.claim:
        name, _, workload = c.partition("@")
        if name not in directions or workload not in workloads:
            ap.error(f"unknown claim {c}")
        claims.setdefault(workload, []).append(name)

    failed = False
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload}: REFUSED (runs on one side only)")
            return 2
        settings = {setting(r) for r in parent[workload] + change[workload]}
        if len(settings) != 1:
            print(f"{workload}: REFUSED (provenance or settings differ in "
                  f"more than the commit: {sorted(settings)})")
            return 2
        try:
            prs = pairs(parent[workload], change[workload])
        except ValueError as err:
            print(f"{workload}: REFUSED ({err})")
            return 2
        cells = []
        for name in claims.get(workload, []):
            met, text = judge_claim(prs, name, directions[name])
            failed |= not met
            cells.append("claim " + text)
        if prs[0][0]["trace"] == 0:
            for name, bound in bounds.items():
                if name in claims.get(workload, []):
                    continue
                status, text = judge_bound(prs, name, directions[name], bound)
                failed |= status == "REGRESSION"
                cells.append(text)
        print(f"{workload} ({len(prs)} pairs): " + "; ".join(cells))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

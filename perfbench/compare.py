#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload (stdlib only).

Record a set (N runs per workload, seeds 1..N, alternating nothing):

    python3 perfbench/compare.py record --out base.jsonl --runs 10 \
        [--workloads archive-sz,interactive] [--seconds S] [--trace 0]

Compare two recorded sets (A = parent, B = change):

    python3 perfbench/compare.py diff base.jsonl change.jsonl

For every workload x metric, `diff` prints each side's median and
quartiles, the share of pairs B won (run i of A against run i of B, ties
counting for neither), and a verdict:

  unresolved  either side's run-to-run spread (quartile distance over
              median) exceeds the metric's bound, and B does not beat A
              on every pair;
  worse       B's median is worse than A's by more than the bound;
  better      B wins at least 9/10 of the pairs and the medians differ by
              more than A's own quartile distance;
  same        otherwise.

Bounds and directions come from BENCHMARK.json (per_layer metrics have no
bound and are compared on direction only). Each line of a recorded file is
{"workload", "seed", "trace", "result"} with the run's JSON result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return spec, metrics


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def record(args):
    spec, _ = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for w in workloads:
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(seconds),
                                         "--trace", str(args.trace)]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                last = done.stdout.rstrip("\n").split("\n")[-1]
                if done.returncode != 0:
                    sys.exit(f"run failed ({w}, seed {seed}): {last}")
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "trace": args.trace,
                                      "result": json.loads(last)}) + "\n")
                out.flush()
                print(f"{w} seed {seed}: ok", file=sys.stderr)


def load_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def verdict(a, b, better, bound):
    sign = 1 if better == "higher" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    won = wins / len(pairs) if pairs else 0.0
    q1, _, q3 = quartiles(a)
    if bound is not None and max(spread(a), spread(b)) > bound:
        all_better = all(sign * (y - x) > 0 for x in a for y in b)
        return won, "better" if all_better else "unresolved"
    if bound is not None and sign * (mb - ma) < -bound * abs(ma):
        return won, "worse"
    if won >= 0.9 and abs(mb - ma) > (q3 - q1):
        return won, "better"
    return won, "same"


def diff(args):
    _, metrics = load_spec()
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    fmt = "{:<14} {:<30} {:>30} {:>30} {:>6} {:>10}"
    print(fmt.format("workload", "metric", "A median [q1, q3]",
                     "B median [q1, q3]", "B won", "verdict"))
    worst = 0
    for w in sorted(set(a_runs) & set(b_runs)):
        names = sorted(set(a_runs[w][0]["metrics"]) &
                       set(b_runs[w][0]["metrics"]))
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs[w]]
            b = [r["metrics"][name]["value"] for r in b_runs[w]]
            better, bound = metrics.get(name, ("higher", None))
            won, v = verdict(a, b, better, bound)
            cell = lambda v: "{:.4g} [{:.4g}, {:.4g}]".format(
                quartiles(v)[1], quartiles(v)[0], quartiles(v)[2])
            print(fmt.format(w, name, cell(a), cell(b), f"{won:.2f}", v))
            worst = max(worst, v == "worse")
    return 1 if worst else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run the benchmark and record results")
    rec.add_argument("--out", required=True)
    rec.add_argument("--runs", type=int, default=10)
    rec.add_argument("--first-seed", type=int, default=1)
    rec.add_argument("--workloads", default="")
    rec.add_argument("--seconds", type=int, default=0)
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    d = sub.add_parser("diff", help="compare two recorded sets")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "record":
        record(args)
        return 0
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())

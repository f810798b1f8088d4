#!/usr/bin/env python3
"""A/B two exp_suite builds on one workload, in alternating pairs.

  tools/ab_pairs.py PARENT_BIN CHANGE_BIN --workload W --pairs N --secs S
                    [--show M1,M2,...]

Runs N pairs of untraced exp_suite trials, pair i on seed i for both
sides, alternating which side goes first so that slow drift of the host
hits both equally. For every end_to_end metric in BENCHMARK.json it prints
each side's median and quartiles, the pairs the change won, and two
verdicts:

  gain        the test the benchmark applies to a claimed metric: the change
              wins at least nine of ten pairs, and its median beats the
              parent's by more than the distance between the parent's
              quartiles ("-" otherwise);
  regression  against the metric's BENCHMARK.json bound, relative to the
              parent's median: "unresolved" when the parent's quartile
              spread is wider than the bound, unless every change run beats
              every parent run; else "regress" when the change's median is
              worse by more than the bound; else "ok".

--show names further metrics of the same runs, such as the per-layer
freelist_ops_per_attempt, pool_slots or mem_peak_mb, and prints each side's
median of them and the pairs the change won (no verdict), so that a change's
layer attribution comes from the pairs that measured its gain.

Reads BENCHMARK.json, writes nothing; exits 1 if any trial is incorrect or
fails operations, or if any metric prints "regress".
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def trial(binary, workload, seed, secs):
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--secs={secs}", "--trace=0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{binary} seed {seed}: exited {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(sorted(vals), n=4)
    return q1, q2, q3


def no_regression(lower, bound, pv, cv):
    """The regression verdict of one metric (see the module docstring)."""
    p1, p2, p3 = quartiles(pv)
    c2 = statistics.median(cv)
    if p2 == 0:
        worse = 0.0 if c2 == p2 else (math.inf if (c2 > p2) == lower
                                      else -math.inf)
        spread = 0.0
    else:
        worse = ((c2 - p2) if lower else (p2 - c2)) / abs(p2)
        spread = (p3 - p1) / abs(p2)
    all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
    if spread > bound and not all_better:
        return "unresolved"
    return "regress" if worse > bound else "ok"


def fmt(v):
    if v == 0 or abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.4g}"
    return f"{v:.4f}".rstrip("0").rstrip(".")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_bin")
    ap.add_argument("change_bin")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--secs", type=float, default=3.0)
    ap.add_argument("--show", default="",
                    help="comma-separated metrics to report medians of")
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text())
    metrics = spec["end_to_end"]
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    shown = [name for name in args.show.split(",") if name]

    runs = {"parent": [], "change": []}
    bins = {"parent": args.parent_bin, "change": args.change_bin}
    bad = 0
    for seed in range(1, args.pairs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            res = trial(bins[side], args.workload, seed, args.secs)
            if not res["correct"] or res["failed"] != 0:
                bad += 1
                print(f"{side} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']} {res.get('errors', [])}")
            runs[side].append(res["metrics"])
        print(f"pair {seed}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.secs} s")
    print(f"{'metric':14s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'won':>7s}  gain  regression")
    regress = 0
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pv = [r[name]["value"] for r in runs["parent"] if name in r]
        cv = [r[name]["value"] for r in runs["change"] if name in r]
        if len(pv) != args.pairs or len(cv) != args.pairs:
            continue
        if any(math.isinf(v) for v in pv + cv):
            continue
        won = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        p1, p2, p3 = quartiles(pv)
        c1, c2, c3 = quartiles(cv)
        gain = (p2 - c2) if lower else (c2 - p2)
        verdict = ("gain" if won * 10 >= 9 * args.pairs and gain > p3 - p1
                   else "-")
        reg = no_regression(lower, m["bound"], pv, cv)
        regress += reg == "regress"
        side = [f"{fmt(b)} [{fmt(a)}, {fmt(c)}]" for a, b, c in
                ((p1, p2, p3), (c1, c2, c3))]
        rel = f"{100 * (c2 - p2) / p2:+.1f}%" if p2 else "n/a"
        print(f"{name:14s} {side[0]:>32s} {side[1]:>32s} "
              f"{won:>3d}/{args.pairs:<3d}  {verdict:4s}  {reg} ({rel}, "
              f"bound {m['bound']:g})")
    width = max((len(name) for name in shown), default=0)
    if shown:
        print(f"\n{'shown metric':{width}s} {'parent median':>14s} "
              f"{'change median':>14s} {'won':>7s}  change")
    for name in shown:
        pv = [r[name]["value"] for r in runs["parent"] if name in r]
        cv = [r[name]["value"] for r in runs["change"] if name in r]
        if len(pv) != args.pairs or len(cv) != args.pairs:
            print(f"{name:{width}s} not reported by every run")
            continue
        p2, c2 = statistics.median(pv), statistics.median(cv)
        won = "-"
        if name in better:
            lower = better[name] == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
            won = f"{wins}/{args.pairs}"
        rel = f"{100 * (c2 - p2) / p2:+.1f}%" if p2 else "n/a"
        print(f"{name:{width}s} {fmt(p2):>14s} {fmt(c2):>14s} {won:>7s}  "
              f"{rel}")
    return 1 if bad or regress else 0


if __name__ == "__main__":
    sys.exit(main())

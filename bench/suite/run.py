#!/usr/bin/env python3
"""The wflock benchmark: one command for every workload and metric.

Builds bench/suite/exp_suite (CMake, into .bench_build/ at the checkout
root) on first use, runs it, checks its outputs and reports every metric by
name with its unit. Metric names, units, bounds and the gated workloads
come from BENCHMARK.json at the checkout root. Modes:

  run.py --workload W --seed N --seconds S --trace 0|1
      One run. Prints every metric, then, as the last stdout line, one JSON
      object: correct/attempted/failed plus the BENCHMARK.json end_to_end
      metrics (--trace 0) or per_layer metrics (--trace 1).

  run.py [--seconds 10] [--out F.json]
      The suite: every workload, 5 trials each, interleaved across workloads
      (one fresh process each), then one traced trial per workload. Prints
      the median, quartiles and sample counts of every metric and writes all
      raw results to --out.

  run.py --compare BASE.json [--against NEW.json]
      Runs the suite (or reads NEW.json) and judges every (end-to-end
      metric, workload) pair against BASE.json with the BENCHMARK.json
      bounds: ok, REGRESSION, or unresolved when the spread between quartiles
      exceeds the bound. failed_frac may not grow. Fails on any incorrect or
      invalid trial in NEW; sim_clique's deterministic digests must match.

  run.py --smoke
      Every workload for 1 s, untraced and traced; checks that every name in
      BENCHMARK.json is emitted.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build" / "suite"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "exp_suite"

WORKLOADS = ["kv_open_200k", "kv_open_400k", "txn_hot", "txn_disjoint",
             "sim_clique"]
TRIALS = 5
RUN_TIMEOUT_S = 170
MIN_ACHIEVED_RATE = 0.99
# Latency percentiles printed with their sample counts but never gated:
# they swing several-fold between runs on a small shared host.
UNGATED = ["p99_us", "p999_us"]
# Gated by --compare (bound 0) besides the BENCHMARK.json end_to_end
# metrics. It is not in BENCHMARK.json, whose workloads must have no failed
# operation.
FAILED_FRAC = "failed_frac"


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    if not SPEC_PATH.is_file():
        raise BenchError(f"{SPEC_PATH} is missing")
    return json.loads(SPEC_PATH.read_text())


def build():
    """Configures and builds exp_suite once per checkout; a no-op after."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "wfl").is_dir():
        raise BenchError(f"{ROOT} is not a wflock checkout (no src/wfl); "
                         "the benchmark builds the library from source")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(SUITE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "exp_suite",
                        "-j", jobs], check=True, stdout=sys.stderr,
                       stderr=sys.stderr)
    return BINARY


def run_once(workload, seed, seconds, trace, spans_out=None):
    """One exp_suite process; returns its result object plus run.py checks."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--secs={seconds}", f"--trace={1 if trace else 0}"]
    if spans_out:
        cmd.append(f"--spans-out={spans_out}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} seed {seed}: no result within "
                         f"{RUN_TIMEOUT_S} s") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: exp_suite exited "
                         f"{proc.returncode} without a result")
    res = json.loads(lines[-1])
    m = res["metrics"]
    wedged = m.get("wedged_trials", {}).get("value", 0) > 0
    rate = m.get("achieved_rate_ratio", {}).get("value", 1.0)
    if not wedged and rate < MIN_ACHIEVED_RATE:
        res["correct"] = False
        res["errors"].append(f"generator achieved {rate:.4f} of the offered "
                             f"rate (< {MIN_ACHIEVED_RATE}): invalid trial")
    res["wedged"] = wedged
    m[FAILED_FRAC] = {"value": res["failed"] / max(res["attempted"], 1),
                        "unit": "ratio", "n": res["attempted"]}
    return res


def fmt(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    if v == 0 or abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.4g}"
    return f"{v:.4f}".rstrip("0").rstrip(".")


def print_run(res):
    print(f"{res['workload']} seed={res['seed']} correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for name, m in res["metrics"].items():
        n = f"  n={m['n']}" if m["n"] else ""
        print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']}{n}")
    for k, v in res.get("info", {}).items():
        print(f"  {k}: {v}")
    for e in res["errors"]:
        print(f"  ERROR: {e}")


def single_run(args, spec):
    build()
    spans = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = str(OUT / f"spans_{args.workload}_{args.seed}.csv")
    res = run_once(args.workload, args.seed, args.seconds, args.trace, spans)
    print_run(res)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in res["metrics"]]
    if missing and not res["wedged"]:
        raise BenchError(f"{args.workload}: metrics not emitted: {missing}")
    out = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: {"value": res["metrics"][n]["value"],
                        "unit": res["metrics"][n]["unit"]}
                    for n in names if n in res["metrics"]},
    }
    print(json.dumps(out))


def quartiles(vals):
    vals = sorted(vals)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    if any(math.isinf(v) for v in vals):
        mid = vals[len(vals) // 2] if len(vals) % 2 else (
            vals[len(vals) // 2 - 1] + vals[len(vals) // 2]) / 2
        return vals[0], mid, vals[-1]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def summarize(trials):
    """Per workload: per metric median/quartiles over trials."""
    out = {}
    for w in sorted({t["workload"] for t in trials}):
        runs = [t for t in trials if t["workload"] == w]
        names = []
        for t in runs:
            names += [n for n in t["metrics"] if n not in names]
        s = {}
        for n in names:
            vals = [t["metrics"][n]["value"] for t in runs if n in t["metrics"]]
            q1, med, q3 = quartiles(vals)
            unit = next(t["metrics"][n]["unit"] for t in runs if n in t["metrics"])
            samples = statistics.median(
                [t["metrics"][n]["n"] for t in runs if n in t["metrics"]])
            s[n] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                    "trials": len(vals), "samples": samples}
        s["wedged_trials"] = {"unit": "count", "median": sum(t["wedged"] for t in runs),
                              "q1": None, "q3": None, "trials": len(runs),
                              "samples": len(runs)}
        s["incorrect_trials"] = {"unit": "count",
                                 "median": sum(not t["correct"] and not t["wedged"]
                                               for t in runs),
                                 "q1": None, "q3": None, "trials": len(runs),
                                 "samples": len(runs)}
        out[w] = s
    return out


def print_summary(summary, names=None):
    for w, s in summary.items():
        print(f"\n{w}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s}  trials  samples  unit")
        for n, v in s.items():
            if names is not None and n not in names:
                continue
            q1 = fmt(v["q1"]) if v["q1"] is not None else "-"
            q3 = fmt(v["q3"]) if v["q3"] is not None else "-"
            spread = "-"
            if v["q1"] is not None and v["median"] not in (0, None) and \
                    not math.isinf(v["median"]) and not math.isinf(v["q3"]):
                spread = f"{(v['q3'] - v['q1']) / abs(v['median']):.3f}"
            print(f"  {n:34s} {fmt(v['median']):>12s} {q1:>12s} {q3:>12s} "
                  f"{spread:>8s}  {v['trials']:6d}  {fmt(v['samples']):>7s}  "
                  f"{v['unit']}")


def dump(result):
    """JSON with one line per trial and per workload summary (diffable)."""
    parts = []
    for k, v in result.items():
        if isinstance(v, list):
            items = [f"  {json.dumps(x)}" for x in v]
        elif isinstance(v, dict):
            items = [f"  {json.dumps(a)}: {json.dumps(b)}" for a, b in v.items()]
        else:
            parts.append(f" {json.dumps(k)}: {json.dumps(v)}")
            continue
        o, c = ("[", "]") if isinstance(v, list) else ("{", "}")
        parts.append(f" {json.dumps(k)}: {o}\n" + ",\n".join(items) + f"\n {c}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def suite_run(args, spec):
    build()
    OUT.mkdir(exist_ok=True)
    trials = []
    for seed in range(1, TRIALS + 1):
        for w in WORKLOADS:
            log(f"[suite] {w} trial {seed}/{TRIALS} seed {seed}")
            trials.append(run_once(w, seed, args.seconds, False))
    traced = []
    for w in WORKLOADS:
        log(f"[suite] {w} traced trial seed 1")
        traced.append(run_once(w, 1, args.seconds, True,
                               str(OUT / f"spans_{w}.csv")))
    summary = summarize(trials)
    e2e = [m["name"] for m in spec["end_to_end"]] + UNGATED + [
        FAILED_FRAC, "wedged_trials", "incorrect_trials"]
    print("\n== end-to-end (untraced trials)")
    print_summary(summary, e2e)
    print("\n== per-layer (untraced trials; self times come from the traced run)")
    layer = [m["name"] for m in spec["per_layer"]]
    print_summary(summary, layer)
    overhead = {}
    print("\n== traced run (one trial per workload)")
    for res in traced:
        print_run(res)
        w = res["workload"]
        frac = res["metrics"].get("trace_overhead_frac", {}).get("value")
        base = summary[w].get("p50_us", {}).get("median")
        half = res["metrics"].get("p50_us", {}).get("value")
        vs_median = None
        if frac is not None and base and half and not math.isinf(base) \
                and not math.isinf(half):
            vs_median = (1 + frac) * half / base - 1
        overhead[w] = {"in_run": frac, "vs_untraced_median": vs_median}
    print("\n== tracing overhead (traced p50 latency over untraced p50 - 1)")
    for w, o in overhead.items():
        a = fmt(o["in_run"]) if o["in_run"] is not None else "-"
        b = fmt(o["vs_untraced_median"]) if o["vs_untraced_median"] is not None else "-"
        print(f"  {w:18s} same run: {a:>8s}   vs untraced median: {b:>8s}")
    bad = [t for t in trials + traced if not t["correct"] and not t["wedged"]]
    for t in bad:
        log(f"[suite] INCORRECT: {t['workload']} seed {t['seed']}: {t['errors']}")
    result = {"seconds": args.seconds, "trials": trials, "traced": traced,
              "summary": summary, "tracing_overhead": overhead}
    out = Path(args.out) if args.out else OUT / "suite.json"
    out.write_text(dump(result))
    log(f"[suite] wrote {out}")
    return result, not bad


def digests(result):
    return {(t["workload"], t["seed"], k): v for t in result["trials"]
            for k, v in t.get("info", {}).items() if k.startswith("digest")}


def trial_values(result, w, name):
    return [t["metrics"][name]["value"] for t in result["trials"]
            if t["workload"] == w and name in t["metrics"]]


def judge(m, b, n, base_vals, new_vals):
    """Verdict of one (metric, workload) pair: (worse, spread, verdict)."""
    bm, nm, bound = b["median"], n["median"], m["bound"]
    lower = m["better"] == "lower"
    if math.isinf(bm) or math.isinf(nm) or bm == 0:
        worse = 0.0 if bm == nm else (math.inf if (nm > bm) == lower else -math.inf)
        spread = math.inf if math.isinf(bm) else 0.0
    else:
        worse = (nm - bm) / abs(bm) if lower else (bm - nm) / abs(bm)
        spread = max((b["q3"] - b["q1"]) / abs(bm),
                     (n["q3"] - n["q1"]) / abs(nm) if nm else 0)
    all_better = base_vals and new_vals and (
        max(new_vals) < min(base_vals) if lower else min(new_vals) > max(base_vals))
    if spread > bound and not all_better:
        return worse, spread, "unresolved"
    return worse, spread, "REGRESSION" if worse > bound else "ok"


def judge_failed(base_vals, new_vals):
    """failed_frac over all trials may not grow. A base whose trials
    disagree (some failed, some not) cannot resolve a growth."""
    bf = statistics.fmean(base_vals)
    nf = statistics.fmean(new_vals)
    spread = max(base_vals) - min(base_vals)
    if nf <= bf:
        verdict = "ok"
    else:
        verdict = "unresolved" if spread > 0 else "REGRESSION"
    return bf, nf, spread, verdict


def compare(base, new, spec):
    """Judges every (end-to-end metric, workload) pair of new against base."""
    ok = True
    print("\n== compare: median change vs base (+ = worse), spread, bound")
    for w in sorted(base["summary"]):
        if w not in new["summary"]:
            print(f"\n{w}: MISSING from the new results")
            ok = False
            continue
        b, n = base["summary"][w], new["summary"][w]
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b or name not in n:
                continue
            worse, spread, verdict = judge(m, b[name], n[name],
                                           trial_values(base, w, name),
                                           trial_values(new, w, name))
            ok = ok and verdict != "REGRESSION"
            print(f"  {name:16s} {fmt(b[name]['median']):>12s} -> "
                  f"{fmt(n[name]['median']):>12s}  {worse:+8.3f}  "
                  f"spread {spread:6.3f}  bound {m['bound']:.3f}  {verdict}")
        bf, nf, spread, verdict = judge_failed(trial_values(base, w, FAILED_FRAC),
                                               trial_values(new, w, FAILED_FRAC))
        ok = ok and verdict != "REGRESSION"
        print(f"  {FAILED_FRAC:16s} {fmt(bf):>12s} -> {fmt(nf):>12s}  "
              f"{'':8s}  spread {spread:6.3f}  bound {0:.3f}  {verdict}")
        bad = n["incorrect_trials"]["median"]
        if bad:
            print(f"  INCORRECT or invalid trials: {bad}")
            ok = False
    bd, nd = digests(base), digests(new)
    shared = set(bd) & set(nd)
    same = all(bd[k] == nd[k] for k in shared)
    print(f"\nsim_clique digests: {len(shared)} shared seeds, "
          f"{'byte-identical' if same else 'DIFFER'}")
    return ok and same


def smoke(spec):
    """A wedged run is reported but passes: it is the seed's known park()
    lost wake, recorded as failed requests."""
    build()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            res = run_once(w, 1, 1, trace)
            want = layer if trace else e2e
            missing = [n for n in want if n not in res["metrics"]]
            if res["wedged"]:
                status = "wedged (no completion for 1 s)"
            elif missing:
                status = f"MISSING {missing}"
            elif not res["correct"]:
                status = f"INCORRECT {res['errors']}"
            else:
                status = "ok"
            print(f"  {w:18s} trace={int(trace)}  {status}")
            ok = ok and not (missing and not res["wedged"]) and res["correct"]
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", metavar="BASE.json")
    ap.add_argument("--against", metavar="NEW.json")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.workload:
            if args.workload not in WORKLOADS:
                raise BenchError(f"unknown workload {args.workload}; known: {WORKLOADS}")
            single_run(args, spec)
            return 0
        if args.smoke:
            return 0 if smoke(spec) else 1
        if args.compare:
            base = json.loads(Path(args.compare).read_text())
            ok = True
            if args.against:
                new = json.loads(Path(args.against).read_text())
            else:
                new, ok = suite_run(args, spec)
            return 0 if compare(base, new, spec) and ok else 1
        _, ok = suite_run(args, spec)
        return 0 if ok else 1
    except (BenchError, subprocess.CalledProcessError, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

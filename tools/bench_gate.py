#!/usr/bin/env python3
"""Checks one benchmark or experiment JSON document against its gate.

One subcommand per artifact. CI runs exactly these; so can anyone, on a
fresh capture:

  ./build/bench_hotpath --benchmark_min_time=0.1 > hotpath.json
  python3 tools/bench_gate.py hotpath hotpath.json

  hotpath  FILE [--ref BENCH_hotpath.json]   bench_hotpath
  scaling  FILE [--ref BENCH_scaling.json]   bench_scaling
  async    FILE [--ref BENCH_async.json]     bench_async
  service  FILE [--ref BENCH_service.json]   bench_service (reduced sweep)
  crash    FILE                              exp_crash
  crash-mp FILE                              exp_crash_mp

Every document must be wfl-bench-v1. The pinned-trajectory gates fail on a
>5x ops_per_s drop against the checked-in BENCH_*.json: a bound for
structural regressions, not for machine noise. Exits 0 when the gate
passes, 1 with the failed check on stderr otherwise.
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_SLOWDOWN = 5.0


class GateError(Exception):
    pass


def check(cond, msg):
    if not cond:
        raise GateError(msg)


def load(path):
    doc = json.loads(Path(path).read_text())
    check(doc.get("schema") == "wfl-bench-v1",
          f"{path}: schema {doc.get('schema')!r}, expected wfl-bench-v1")
    return doc


def by_name(doc):
    return {e["name"]: e for e in doc["benchmarks"]}


def require(entry, keys):
    for key in keys:
        check(key in entry, f"missing key {key!r} on {entry.get('name')}")


def gate_throughput(name, pinned, current):
    ratio = pinned["ops_per_s"] / max(current["ops_per_s"], 1e-9)
    print(f"{name}: pinned {pinned['ops_per_s']:.3g}, "
          f"current {current['ops_per_s']:.3g} ({ratio:.2f}x slower)")
    check(ratio < MAX_SLOWDOWN,
          f">{MAX_SLOWDOWN:g}x regression vs pinned trajectory on {name}")


def threads_of(name):
    m = re.search(r"/threads:(\d+)$", name)
    check(m is not None, f"no thread count in name: {name}")
    return int(m.group(1))


def hotpath(cur, ref):
    entries = by_name(cur)
    check(len(entries) >= 6, f"expected >=6 benches, got {len(entries)}")
    for e in entries.values():
        require(e, ("name", "threads", "ops_per_s", "p99_ns"))
    uncontended = entries["Hotpath_SingleLock_Uncontended"]
    require(uncontended, ("attempts_per_sec", "pre_reveal_steps",
                          "post_reveal_steps", "total_steps",
                          "freelist_ops_per_attempt",
                          "log_slots_reset_per_attempt"))
    check(uncontended["freelist_ops_per_attempt"] < 0.05,
          "steady-state attempt touched the shared freelist")
    check(uncontended["log_slots_reset_per_attempt"] <= 8,
          "lazy log reset regressed towards O(kThunkLogCap)")
    for r in ref["benchmarks"]:
        c = entries.get(r["name"])
        check(c is not None, f"benchmark disappeared: {r['name']}")
        gate_throughput(r["name"], r, c)
    print("perf smoke OK:", len(entries), "benches")


def scaling(cur, ref):
    entries = by_name(cur)
    check(len(entries) >= 12, f"expected >=12 rows, got {len(entries)}")
    max_threads = 0
    for e in entries.values():
        # The actual worker-thread count must round-trip: every entry names
        # its thread count and the "threads" field must agree.
        n = threads_of(e["name"])
        check(e["threads"] == n,
              f"threads field {e['threads']} != actual {n} on {e['name']}")
        max_threads = max(max_threads, n)
        check(e.get("contention") in ("low", "high"),
              f"missing/bad contention key on {e['name']}")
        # Reservoir-backed p99: the degradation flag must be gone.
        check("p99_is_mean" not in e,
              f"reservoir p99 still flagged as mean on {e['name']}")
        require(e, ("attempts_per_op", "fastpath_hits_per_attempt",
                    "help_claim_skips_per_attempt"))
    check(max_threads >= 4, f"sweep stopped at {max_threads} threads")
    uncontended = entries[
        "Scaling_SingleLock/contention:low/real_time/threads:1"]
    check(uncontended["fastpath_hits_per_attempt"] > 0.99,
          "uncontended single-lock attempts fell off the fast path")
    # Gated at 1 thread and at the pinned capture's max thread count (the
    # current sweep always covers both: it runs to max(4, cores)).
    ref_max = max(threads_of(r["name"]) for r in ref["benchmarks"])
    gated = 0
    for r in ref["benchmarks"]:
        if threads_of(r["name"]) not in (1, ref_max):
            continue
        c = entries.get(r["name"])
        check(c is not None, f"benchmark disappeared: {r['name']}")
        gate_throughput(r["name"], r, c)
        gated += 1
    check(gated >= 8, f"scaling gate covered only {gated} rows")
    print("scaling smoke OK:", len(entries), "rows,",
          f"gated {gated} at threads 1 and {ref_max}")


def async_(cur, ref):
    entries = by_name(cur)
    check(len(entries) >= 3, f"expected >=3 benches, got {len(entries)}")
    for e in entries.values():
        require(e, ("name", "threads", "ops_per_s", "p99_ns"))
    churn = next((e for n, e in entries.items()
                  if n.startswith("Async_InFlightChurn/100000")), None)
    check(churn is not None, f"churn row missing: {sorted(entries)}")
    require(churn, ("in_flight_sessions", "backoff_spin_steps",
                    "parks_per_op", "wakes_per_op", "fiber_reuse_ratio",
                    "steals_per_op", "wake_skip_ratio"))
    # 100k+ submissions held in flight on a fixed pool, with ZERO backoff
    # spin: losers park on the per-lock wait lists instead of spinning.
    check(churn["in_flight_sessions"] >= 100000,
          f"in-flight gauge fell to {churn['in_flight_sessions']}")
    check(churn["backoff_spin_steps"] == 0,
          f"parked path spun: backoff_spin_steps = "
          f"{churn['backoff_spin_steps']}")
    # The worker count is hardware-clamped <= 4: the gauge must come from
    # multiplexing, not thread count.
    check(churn["threads"] <= 4, f"churn ran {churn['threads']} workers")
    rt = entries.get("Async_RoundTrip")
    check(rt is not None and "p999_ns" in rt,
          f"Async_RoundTrip lost its latency reservoir: {rt}")
    print(f"in-flight {churn['in_flight_sessions']:.0f} on "
          f"{churn['threads']} workers, zero backoff spin")
    for r in ref["benchmarks"]:
        c = entries.get(r["name"])
        check(c is not None, f"benchmark disappeared: {r['name']}")
        gate_throughput(r["name"], r, c)
    print("async smoke OK:", len(entries), "benches")


def service(cur, ref):
    entries = by_name(cur)
    backends = {e["backend"] for e in entries.values() if "backend" in e}
    # The wait-free service AND the blocking baselines it is compared to.
    check(len(backends) >= 3, f"open-loop sweep too thin: {backends}")
    check("wflock" in backends, f"no wflock rows: {backends}")
    for e in entries.values():
        require(e, ("backend", "arrival_rate", "achieved_rate", "p99_ns",
                    "p999_ns", "slo_p99_ok", "slo_p999_ok"))
        # Open-loop fidelity: the dispatcher must sustain the offered rate
        # it claims to measure (20% slack for shared runners).
        check(e["achieved_rate"] > 0.8 * e["arrival_rate"],
              f"open loop fell behind: {e['name']}")
    wf = [e for e in entries.values() if e["backend"] == "wflock"]
    check(any("steals_per_op" in e and "wake_skip_ratio" in e for e in wf),
          "wflock rows lost the scheduler gauges")
    # Completion throughput only: tail percentiles on shared runners
    # measure the neighbours, but a >5x drop at a matched (backend, rate)
    # row is structural. A reduced sweep matches a subset of the rates.
    rows = {(e["backend"], e["arrival_rate"]): e for e in entries.values()}
    gated = 0
    for r in ref["benchmarks"]:
        c = rows.get((r["backend"], r["arrival_rate"]))
        if c is None:
            continue
        gate_throughput(r["name"], r, c)
        gated += 1
    check(gated >= 4, f"too few matched (backend, rate) rows: {gated}")
    print("service smoke OK:", len(entries), "rows,", len(backends),
          "backends,", gated, "gated")


def crash(cur, _ref):
    entries = cur["benchmarks"]
    check(len(entries) >= 3, f"expected >=3 backend rows, got {len(entries)}")
    backends = {e["backend"] for e in entries}
    print("backends swept:", sorted(backends))
    check({"wflock", "turek", "spin2pl"} <= backends, f"{backends}")
    for e in entries:
        require(e, ("name", "threads", "ops_per_s", "p99_ns", "backend"))
    print("wfl-bench-v1 OK:", len(entries), "entries")


def crash_mp(cur, _ref):
    rows = cur["benchmarks"]
    backends = {e["backend"] for e in rows}
    check({"wflock", "spin2pl", "mutex2pl"} <= backends, f"{backends}")
    phases = {e["name"].split("phase=")[1] for e in rows
              if e["backend"] == "wflock"}
    check({"insert", "reveal", "thunk"} <= phases, f"phases {phases}")
    for e in rows:
        # The crash must be a real SIGKILL in every seeded run.
        check(e["victim_sigkilled_runs"] == e["seeds"], f"{e}")
        if e["backend"] == "wflock":
            check(e["wedged_runs"] == 0, f"wflock wedged: {e}")
            check(e["torn_runs"] == 0, f"wflock torn: {e}")
            check(e["survivors_finished_runs"] == e["seeds"], f"{e}")
        else:
            check(e["wedged_runs"] == e["seeds"], f"baseline recovered: {e}")
    print("crash-mp smoke OK:", len(rows), "rows,", sorted(backends))


# subcommand -> (gate, pinned reference file or None)
GATES = {
    "hotpath": (hotpath, "BENCH_hotpath.json"),
    "scaling": (scaling, "BENCH_scaling.json"),
    "async": (async_, "BENCH_async.json"),
    "service": (service, "BENCH_service.json"),
    "crash": (crash, None),
    "crash-mp": (crash_mp, None),
}


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("gate", choices=sorted(GATES))
    ap.add_argument("current", help="the freshly captured JSON document")
    ap.add_argument("--ref", help="pinned document (default: the repo's)")
    args = ap.parse_args()
    fn, pinned = GATES[args.gate]
    try:
        cur = load(args.current)
        ref = None
        if pinned is not None:
            ref = load(args.ref or ROOT / pinned)
        fn(cur, ref)
    except (GateError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"bench_gate {args.gate}: FAILED: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

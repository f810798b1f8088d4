// The attempt hot path, pinned: wfl-bench-v1 numbers for the per-attempt
// costs the paper's step model does NOT count — pool traffic, thunk-log
// reset, EBR guard entry — plus the per-phase step counters it does.
//
//   Hotpath_SingleLock_Uncontended   the steady-state cost of one
//                                    uncontended single-lock attempt
//                                    (thin-word publish + compete +
//                                    release: no pool traffic)
//   Hotpath_MultiShard_Uncontended   one uncontended two-lock attempt
//                                    (alloc + insert + compete + remove +
//                                    retire: one guard, one retire). The
//                                    name predates the single pool pair;
//                                    BENCH_hotpath.json keys on it
//   Hotpath_SingleLock_Contended     κ processes hammering one lock
//   Hotpath_IdemReplay/N             descriptor reinit + owner run +
//                                    helper replay of an N-op thunk — the
//                                    lazy-log-reset microcost in isolation
//   Hotpath_MultiLock_View           an L=8 attempt at the configured
//                                    lock budget
//
// Every attempt is a one-shot submit() through a Session, the path
// applications take. Counters (additive wfl-bench-v1 keys, per-attempt
// means unless noted):
//   attempts_per_sec             also the entry's ops_per_s
//   pre_reveal_steps             help + multiInsert own steps (Outcome)
//   post_reveal_steps            run + multiRemove own steps
//   total_steps                  whole attempt
//   freelist_ops_per_attempt     shared-freelist transactions (pops/pushes,
//                                single or batched) per attempt — 0 in the
//                                cached steady state
//   log_slots_reset_per_attempt  thunk-log slots re-inited by reinit —
//                                O(ops used) under the lazy reset,
//                                kThunkLogCap before it
//
// Delays run in kOff mode (the flock-style practical configuration, as in
// exp_throughput): with kTheory delays every attempt costs a fixed
// c0·κ²L²·T spin and the memory-path costs this bench exists to watch
// would vanish into it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bench_json.hpp"
#include "wfl/wfl.hpp"

namespace {

using wfl::Cell;
using wfl::IdemCtx;
using wfl::LockConfig;
using wfl::LockSetView;
using wfl::RealPlat;
using wfl::StaticLockSet;
using Table = wfl::LockTable<RealPlat>;
using Session = wfl::Session<RealPlat>;

LockConfig hot_cfg(std::uint32_t kappa, std::uint32_t max_locks,
                   std::uint32_t thunk_steps = 8) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = max_locks;
  cfg.max_thunk_steps = thunk_steps;
  cfg.delay_mode = wfl::DelayMode::kOff;
  return cfg;
}

// --- shared driver --------------------------------------------------------

struct PhaseSums {
  std::uint64_t attempts = 0;
  std::uint64_t pre = 0;
  std::uint64_t post = 0;
  std::uint64_t total = 0;
};

// One increment of `cell` under `locks` as a one-shot submission.
wfl::Outcome bump(Session& session, LockSetView locks, Cell<RealPlat>& cell) {
  return wfl::submit(session, locks, [&cell](IdemCtx<RealPlat>& m) {
    m.store(cell, m.load(cell) + 1);
  });
}

// One attempt per iteration over a fixed lock set; accumulates the
// Outcome phase counters.
PhaseSums run_attempts(benchmark::State& state, Session& session,
                       LockSetView locks, Cell<RealPlat>& cell) {
  PhaseSums sums;
  for (auto _ : state) {
    const wfl::Outcome o = bump(session, locks, cell);
    benchmark::DoNotOptimize(o.won);
    ++sums.attempts;
    sums.pre += o.pre_reveal_work;
    sums.post += o.post_reveal_work;
    sums.total += o.total_steps;
  }
  return sums;
}

// The pool counters are reported only by the single-process benches, where
// the delta over the timed region is the bench's own.
void report(benchmark::State& state, const PhaseSums& sums,
            double freelist_delta, double log_reset_delta,
            bool with_pool_counters) {
  const auto n = static_cast<double>(sums.attempts ? sums.attempts : 1);
  state.SetItemsProcessed(static_cast<std::int64_t>(sums.attempts));
  state.counters["attempts_per_sec"] = benchmark::Counter(
      static_cast<double>(sums.attempts), benchmark::Counter::kIsRate);
  using C = benchmark::Counter;
  const auto avg = C::kAvgThreads;
  state.counters["pre_reveal_steps"] = C(static_cast<double>(sums.pre) / n, avg);
  state.counters["post_reveal_steps"] =
      C(static_cast<double>(sums.post) / n, avg);
  state.counters["total_steps"] = C(static_cast<double>(sums.total) / n, avg);
  if (with_pool_counters) {
    state.counters["freelist_ops_per_attempt"] = C(freelist_delta / n, avg);
    state.counters["log_slots_reset_per_attempt"] = C(log_reset_delta / n, avg);
  }
}

// --- benchmarks -----------------------------------------------------------

void Hotpath_SingleLock_Uncontended(benchmark::State& state) {
  Table table(hot_cfg(2, 2), 2, 16);
  Session session(table);
  RealPlat::seed_rng(0xB0A710ADULL);
  Cell<RealPlat> cell{0};
  // Warm the slot caches and the EBR pipeline out of the timed region so
  // the counters show the steady state, not the cold start.
  for (int i = 0; i < 512; ++i) {
    bump(session, StaticLockSet<1>({static_cast<std::uint32_t>(i % 16)}),
         cell);
  }
  const std::uint64_t fl0 = table.freelist_ops();
  const std::uint64_t lr0 = table.stats().log_slot_resets;
  const PhaseSums sums =
      run_attempts(state, session, StaticLockSet<1>({0}), cell);
  report(state, sums, static_cast<double>(table.freelist_ops() - fl0),
         static_cast<double>(table.stats().log_slot_resets - lr0), true);
}
BENCHMARK(Hotpath_SingleLock_Uncontended);

void Hotpath_MultiShard_Uncontended(benchmark::State& state) {
  Table table(hot_cfg(2, 2), 2, 16);
  Session session(table);
  RealPlat::seed_rng(0xB0A710ADULL);
  Cell<RealPlat> cell{0};
  const StaticLockSet<2> locks({1, 2});
  for (int i = 0; i < 512; ++i) bump(session, locks, cell);
  const std::uint64_t fl0 = table.freelist_ops();
  const std::uint64_t lr0 = table.stats().log_slot_resets;
  const PhaseSums sums = run_attempts(state, session, locks, cell);
  report(state, sums, static_cast<double>(table.freelist_ops() - fl0),
         static_cast<double>(table.stats().log_slot_resets - lr0), true);
}
BENCHMARK(Hotpath_MultiShard_Uncontended);

// κ processes on one lock. Table shared across the benchmark's threads;
// the mutex-guarded refcount builds it for the first arrival and tears it
// down with the last (works on every Google Benchmark version).
void Hotpath_SingleLock_Contended(benchmark::State& state) {
  static std::mutex mu;
  static std::unique_ptr<Table> table;
  static std::unique_ptr<Cell<RealPlat>> cell;
  static int active = 0;
  {
    std::lock_guard<std::mutex> lk(mu);
    if (active++ == 0) {
      table = std::make_unique<Table>(hot_cfg(8, 2), 8, 16);
      cell = std::make_unique<Cell<RealPlat>>(0);
    }
  }
  RealPlat::seed_rng(0xC047E57ULL +
                     static_cast<std::uint64_t>(state.thread_index()));
  {
    Session session(*table);
    const PhaseSums sums =
        run_attempts(state, session, StaticLockSet<1>({0}), *cell);
    report(state, sums, 0.0, 0.0, false);
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    if (--active == 0) {
      cell.reset();
      table.reset();
    }
  }
}
BENCHMARK(Hotpath_SingleLock_Contended)->Threads(4)->UseRealTime();

// Descriptor reinit + owner run + helper replay of an N-op thunk, no lock
// machinery: isolates what the lazy log reset buys. Before the overhaul,
// every reinit re-initialized all kThunkLogCap slots regardless of N.
void Hotpath_IdemReplay(benchmark::State& state) {
  const auto ops = static_cast<std::uint32_t>(state.range(0));
  auto d = std::make_unique<wfl::Descriptor<RealPlat>>();
  std::vector<std::unique_ptr<Cell<RealPlat>>> cells;
  for (std::uint32_t i = 0; i < ops; ++i) {
    cells.push_back(std::make_unique<Cell<RealPlat>>(0));
  }
  std::uint64_t serial = 1;
  std::uint64_t runs = 0;
  std::uint64_t slots_reset = 0;
  std::uint64_t reinits = 0;
  for (auto _ : state) {
    slots_reset += d->reinit(serial++);
    ++reinits;
    for (int run = 0; run < 2; ++run) {  // owner, then one helper replay
      IdemCtx<RealPlat> m(d->log, d->tag_base);
      for (std::uint32_t i = 0; i < ops; ++i) {
        m.store(*cells[i], static_cast<std::uint32_t>(serial & 0xFFFF));
      }
      d->log.note_used(m.ops_used());
      ++runs;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
  // Measured, not assumed: a regression back to O(kThunkLogCap) shows up
  // here (and trips the CI perf-smoke bound on the uncontended bench).
  state.counters["log_slots_reset_per_attempt"] = benchmark::Counter(
      static_cast<double>(slots_reset) /
      static_cast<double>(reinits ? reinits : 1));
}
BENCHMARK(Hotpath_IdemReplay)->Arg(2)->Arg(32);

// An attempt at the full L = 8 budget.
void Hotpath_MultiLock_View(benchmark::State& state) {
  Table table(hot_cfg(2, 8), 2, 8);
  Session session(table);
  RealPlat::seed_rng(0xB0A710ADULL);
  Cell<RealPlat> cell{0};
  const StaticLockSet<8> locks({0, 1, 2, 3, 4, 5, 6, 7});
  const PhaseSums sums = run_attempts(state, session, locks, cell);
  report(state, sums, 0.0, 0.0, false);
}
BENCHMARK(Hotpath_MultiLock_View);

}  // namespace

WFL_BENCH_JSON_MAIN()

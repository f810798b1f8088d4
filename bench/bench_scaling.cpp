// Contended-path scaling, pinned: wfl-bench-v1 thread sweeps for the
// regime the paper's headline property lives in — wait-free progress
// under contention — which every other pinned capture runs at one thread.
//
// Scenarios (x threads 1..max(4, hardware_concurrency), powers of two;
// on a single-core CI-class container the >1-thread rows measure
// oversubscription, where preempted-attempt helping and the claim
// protocol matter most):
//
//   Scaling_SingleLock/contention:low    each thread owns a private lock —
//                                        the thin-word fast path's steady
//                                        state (fastpath_hits_per_attempt
//                                        must sit at ~1.0)
//   Scaling_SingleLock/contention:high   every thread hammers ONE lock —
//                                        revocation + cooperative-helping
//                                        territory
//   Scaling_MultiLock/contention:low     L=2 attempts inside a per-thread
//                                        private region (descriptor path,
//                                        uncontended)
//   Scaling_MultiLock/contention:high    L=2 attempts over a 4-lock pool
//   Scaling_BatchSubmit/contention:low   batches of 32 single-lock
//                                        PreparedOps through submit_batch
//                                        (guard amortization)
//
// Counters (additive wfl-bench-v1 keys):
//   attempts_per_op            tryLock attempts per completed operation
//   fastpath_hits_per_attempt  thin-word decisions per attempt (table-wide
//                              delta across the timed region)
//   fastpath_revocations_per_attempt, help_claim_skips_per_attempt
//   wfl_threads                reserved: actual worker count (consumed by
//                              the reporter into the "threads" field)
//
// p99_ns comes from merged per-thread latency reservoirs (every 64th op
// is timed end-to-end), NOT from per-iteration wall-time means — see
// bench_json.hpp. Delays run in kOff mode (the practical configuration):
// kTheory's fixed spins would drown exactly the costs this bench watches.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "wfl/wfl.hpp"

namespace {

using wfl::BasicSession;
using wfl::Cell;
using wfl::IdemCtx;
using wfl::LockConfig;
using wfl::LockStats;
using wfl::Outcome;
using wfl::Policy;
using wfl::RealPlat;
using wfl::SpaceSizing;
using wfl::StaticLockSet;
using Table = wfl::LockTable<RealPlat>;

constexpr int kNumLocks = 64;
constexpr int kSampleEvery = 64;  // one latency sample per 64 ops

// Spacing between per-thread private locks/regions: 8 apart up to 8
// threads (the regime the pinned BENCH_scaling.json was captured in),
// shrinking so the assignment stays collision-free up to kNumLocks
// threads instead of silently wrapping "low contention" into shared
// locks on wide machines.
std::uint32_t thread_stride(int threads) {
  const int t = threads < 8 ? 8 : threads;
  const std::uint32_t stride =
      static_cast<std::uint32_t>(kNumLocks / t);
  return stride > 0 ? stride : 1;
}

LockConfig scaling_cfg(int threads, std::uint32_t max_locks) {
  LockConfig cfg;
  // κ is capped at the announcement-array limit; the sweep itself is also
  // capped at kMaxSetCap threads (max_threads below) so the promise holds.
  const auto k = static_cast<std::uint32_t>(threads < 2 ? 2 : threads);
  cfg.kappa = k > wfl::kMaxSetCap ? wfl::kMaxSetCap : k;
  cfg.max_locks = max_locks;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = wfl::DelayMode::kOff;
  return cfg;
}

// Shared fixture across one benchmark's threads (the mutex-guarded
// refcount pattern of bench_hotpath: first arrival builds, last tears
// down).
struct Shared {
  std::mutex mu;
  int active = 0;
  std::unique_ptr<Table> table;
  std::vector<std::unique_ptr<Cell<RealPlat>>> cells;
  LockStats before;

  void enter(int threads, std::uint32_t max_locks) {
    std::lock_guard<std::mutex> lk(mu);
    if (active++ == 0) {
      table = std::make_unique<Table>(scaling_cfg(threads, max_locks),
                                      threads, kNumLocks,
                                      SpaceSizing{.shards = 4});
      cells.clear();
      for (int i = 0; i < kNumLocks; ++i) {
        cells.push_back(std::make_unique<Cell<RealPlat>>(0u));
      }
      before = table->stats();
    }
  }

  // Returns true for the LAST thread out (it owns the delta counters).
  bool exit() {
    std::lock_guard<std::mutex> lk(mu);
    return --active == 0;
  }

  void teardown() {
    std::lock_guard<std::mutex> lk(mu);
    cells.clear();
    table.reset();
  }
};

Shared g_shared;

struct OpSums {
  std::uint64_t ops = 0;
  std::uint64_t attempts = 0;
};

// Common reporting: throughput, attempts/op, fast-path counter deltas
// (last thread out), the latency reservoir, and the actual worker count.
void report(benchmark::State& state, const std::string& base_name,
            const OpSums& sums, std::vector<double>& lat_ns) {
  state.SetItemsProcessed(static_cast<std::int64_t>(sums.ops));
  using C = benchmark::Counter;
  state.counters["attempts_per_op"] =
      C(static_cast<double>(sums.attempts) /
            static_cast<double>(sums.ops ? sums.ops : 1),
        C::kAvgThreads);
  // kAvgThreads: Google Benchmark sums counters across worker threads at
  // merge time; averaging restores the actual count.
  state.counters["wfl_threads"] =
      C(static_cast<double>(state.threads()), C::kAvgThreads);
  // Key the reservoir by the REPORTED instance name (UseRealTime +
  // explicit Threads() registration append these two segments), so each
  // thread count keeps its own latency distribution.
  wfl_bench::LatencyReservoirs::instance().record(
      base_name + "/real_time/threads:" + std::to_string(state.threads()),
      lat_ns);
  lat_ns.clear();
  if (g_shared.exit()) {
    const LockStats now = g_shared.table->stats();
    const LockStats& before = g_shared.before;
    const double attempts = static_cast<double>(now.attempts - before.attempts);
    const double denom = attempts > 0 ? attempts : 1;
    auto per_attempt = [denom](std::uint64_t after, std::uint64_t prior) {
      return C(static_cast<double>(after - prior) / denom);
    };
    state.counters["fastpath_hits_per_attempt"] =
        per_attempt(now.fastpath_hits, before.fastpath_hits);
    state.counters["fastpath_revocations_per_attempt"] =
        per_attempt(now.fastpath_revocations, before.fastpath_revocations);
    state.counters["help_claim_skips_per_attempt"] =
        per_attempt(now.help_claim_skips, before.help_claim_skips);
    g_shared.teardown();
  }
}

// One op per iteration: a single-lock submission on a scenario-chosen
// lock, Policy::retry() so contended ops run to completion.
void single_lock_bench(benchmark::State& state, const std::string& base_name,
                       bool high_contention) {
  g_shared.enter(state.threads(), 2);
  RealPlat::seed_rng(0x5CA1106F + static_cast<std::uint64_t>(
                                     state.thread_index()));
  OpSums sums;
  std::vector<double> lat_ns;
  lat_ns.reserve(1 << 14);
  {
    // Scoped: the session must release its slot before report() may tear
    // the shared table down (last thread out).
    BasicSession<Table> session(*g_shared.table);
    const std::uint32_t lock =
        high_contention ? 0
                        : (static_cast<std::uint32_t>(state.thread_index()) *
                           thread_stride(state.threads())) %
                              static_cast<std::uint32_t>(kNumLocks);
    Cell<RealPlat>* cell = g_shared.cells[lock].get();
    const StaticLockSet<1> locks{lock};
    int until_sample = 1;
    for (auto _ : state) {
      const bool sample = --until_sample == 0;
      std::chrono::steady_clock::time_point t0;
      if (sample) t0 = std::chrono::steady_clock::now();
      const Outcome o = wfl::submit(
          session, locks,
          [cell](IdemCtx<RealPlat>& m) {
            m.store(*cell, m.load(*cell) + 1);
          },
          Policy::retry());
      if (sample) {
        const auto t1 = std::chrono::steady_clock::now();
        lat_ns.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
        until_sample = kSampleEvery;
      }
      ++sums.ops;
      sums.attempts += o.attempts;
    }
  }
  report(state, base_name, sums, lat_ns);
}

void multi_lock_bench(benchmark::State& state, const std::string& base_name,
                      bool high_contention) {
  g_shared.enter(state.threads(), 2);
  RealPlat::seed_rng(0x5CA12070 + static_cast<std::uint64_t>(
                                     state.thread_index()));
  OpSums sums;
  std::vector<double> lat_ns;
  lat_ns.reserve(1 << 14);
  {
    BasicSession<Table> session(*g_shared.table);
    wfl::Xoshiro256 rng(41 * state.thread_index() + 13);
    // High contention: pairs from a 4-lock pool every thread shares. Low:
    // pairs inside a per-thread private region (8 locks up to 8 threads,
    // shrinking with the stride so regions stay disjoint on wide hosts).
    const std::uint32_t stride = thread_stride(state.threads());
    const std::uint32_t region_base =
        high_contention
            ? 0
            : (static_cast<std::uint32_t>(state.thread_index()) * stride) %
                  static_cast<std::uint32_t>(kNumLocks);
    const std::uint32_t region_size =
        high_contention ? 4 : (stride > 1 ? stride : 2);
    int until_sample = 1;
    for (auto _ : state) {
      const auto a = static_cast<std::uint32_t>(rng.next_below(region_size));
      auto b = static_cast<std::uint32_t>(rng.next_below(region_size));
      if (b == a) b = (b + 1) % region_size;
      const StaticLockSet<2> locks{region_base + a, region_base + b};
      Cell<RealPlat>* ca = g_shared.cells[region_base + a].get();
      Cell<RealPlat>* cb = g_shared.cells[region_base + b].get();
      const bool sample = --until_sample == 0;
      std::chrono::steady_clock::time_point t0;
      if (sample) t0 = std::chrono::steady_clock::now();
      const Outcome o = wfl::submit(
          session, locks,
          [ca, cb](IdemCtx<RealPlat>& m) {
            m.store(*ca, m.load(*ca) + 1);
            m.store(*cb, m.load(*cb) + 1);
          },
          Policy::retry());
      if (sample) {
        const auto t1 = std::chrono::steady_clock::now();
        lat_ns.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
        until_sample = kSampleEvery;
      }
      ++sums.ops;
      sums.attempts += o.attempts;
    }
  }
  report(state, base_name, sums, lat_ns);
}

// Batches of 32 single-lock PreparedOps per iteration through
// submit_batch: the guard-amortized path. Ops/s counts individual ops, so
// the entry is directly comparable with Scaling_SingleLock.
void batch_submit_bench(benchmark::State& state,
                        const std::string& base_name) {
  g_shared.enter(state.threads(), 2);
  RealPlat::seed_rng(0x5CA13071 + static_cast<std::uint64_t>(
                                     state.thread_index()));
  OpSums sums;
  std::vector<double> lat_ns;
  lat_ns.reserve(1 << 14);
  {
    BasicSession<Table> session(*g_shared.table);
    using Op = wfl::PreparedOp<RealPlat>;
    constexpr std::size_t kBatch = 32;
    const std::uint32_t lock =
        (static_cast<std::uint32_t>(state.thread_index()) *
         thread_stride(state.threads())) %
        static_cast<std::uint32_t>(kNumLocks);
    Cell<RealPlat>* cell = g_shared.cells[lock].get();
    const StaticLockSet<1> locks{lock};
    std::vector<Op> ops;
    ops.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      ops.push_back(Op(locks, [cell](IdemCtx<RealPlat>& m) {
        m.store(*cell, m.load(*cell) + 1);
      }));
    }
    int until_sample = 1;
    for (auto _ : state) {
      const bool sample = --until_sample == 0;
      std::chrono::steady_clock::time_point t0;
      if (sample) t0 = std::chrono::steady_clock::now();
      const wfl::BatchOutcome o = wfl::submit_batch(
          session, std::span<const Op>(ops.data(), ops.size()),
          Policy::retry());
      if (sample) {
        const auto t1 = std::chrono::steady_clock::now();
        // Per-op latency: the batch took t1-t0 for kBatch ops.
        lat_ns.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            static_cast<double>(kBatch));
        until_sample = kSampleEvery / 8 > 0 ? kSampleEvery / 8 : 1;
      }
      sums.ops += o.ops;
      sums.attempts += o.attempts;
    }
  }
  report(state, base_name, sums, lat_ns);
}

int max_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  int cap = static_cast<int>(hw > 0 ? hw : 1);
  if (cap < 4) cap = 4;  // single-core boxes still sweep to 4
  // κ (and the per-lock announcement arrays) cap at kMaxSetCap: the
  // high-contention scenarios put every thread on ONE lock, so sweeping
  // wider would abort on the point-contention contract.
  if (cap > static_cast<int>(wfl::kMaxSetCap)) {
    cap = static_cast<int>(wfl::kMaxSetCap);
  }
  return cap;
}

void register_scaling_benchmarks() {
  struct Named {
    const char* name;
    void (*fn)(benchmark::State&, const std::string&, bool);
    bool high;
  };
  const Named named[] = {
      {"Scaling_SingleLock/contention:low", single_lock_bench, false},
      {"Scaling_SingleLock/contention:high", single_lock_bench, true},
      {"Scaling_MultiLock/contention:low", multi_lock_bench, false},
      {"Scaling_MultiLock/contention:high", multi_lock_bench, true},
  };
  for (const Named& n : named) {
    auto* b = benchmark::RegisterBenchmark(
        n.name,
        [fn = n.fn, high = n.high, name = std::string(n.name)](
            benchmark::State& st) { fn(st, name, high); });
    b->UseRealTime();
    for (int t = 1; t <= max_threads(); t *= 2) b->Threads(t);
  }
  {
    const std::string name = "Scaling_BatchSubmit/contention:low";
    auto* b = benchmark::RegisterBenchmark(
        name.c_str(),
        [name](benchmark::State& st) { batch_submit_bench(st, name); });
    b->UseRealTime();
    for (int t = 1; t <= max_threads(); t *= 2) b->Threads(t);
  }
}

}  // namespace

WFL_BENCH_JSON_MAIN_WITH(register_scaling_benchmarks)

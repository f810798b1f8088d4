// txn_hot / txn_disjoint: closed-loop transactions through sync submit().
//
// Four threads, each with its own session, loop on submit(Policy::retry())
// under DelayMode::kOff; the async executor is bypassed.
//   txn_hot       transfers (L=2, the apps/bank.hpp body) among 4 shared
//                 accounts: every attempt contends, so helping, the climb,
//                 reveal/eliminate and descriptor retire all run.
//   txn_disjoint  each thread owns a private 8-lock region; half its ops
//                 are single-cell increments (L=1, thin-word fast path),
//                 half transfers inside the region (L=2, descriptor path).
//                 Nothing conflicts, so helping changes should not show here
//                 while fast-path, pool and reclamation changes do.
// Every 16th op is timed from the submit call to its return.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "suite.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/session.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/util/rng.hpp"

namespace suite::txn {

using Plat = wfl::RealPlat;
using Table = wfl::LockTable<Plat>;
using Cell = wfl::Cell<Plat>;

constexpr int kThreads = 4;
constexpr std::uint32_t kHotAccounts = 4;
constexpr std::uint32_t kRegion = 8;
constexpr std::uint32_t kInitial = 1'000'000;
constexpr std::uint64_t kWarmupOps = 20000;  // per thread
constexpr std::uint64_t kSampleMask = 15;    // time every 16th op
// Timed ops per thread per second the sample rings hold: about twice what
// txn_disjoint reaches on a 4-core x86-64 VM.
constexpr double kSamplesPerSec = 200'000;
constexpr std::size_t kSpanCap = 1 << 17;

inline wfl::LockConfig config() {
  wfl::LockConfig cfg;
  cfg.kappa = kThreads;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = wfl::DelayMode::kOff;
  return cfg;
}

struct IncrementThunk {
  Cell* cell;
  SpanRec* span;
  void operator()(wfl::IdemCtx<Plat>& m) const {
    const std::int64_t in = span != nullptr ? now_ns() : 0;
    m.store(*cell, m.load(*cell) + 1);
    if (span != nullptr) span->stamp_thunk(in, now_ns());
  }
};

// Per-thread sample storage for a phase of up to `secs` seconds, allocated
// before the memory baseline.
struct ThreadSlots {
  explicit ThreadSlots(double secs)
      : lat(static_cast<std::size_t>(secs * kSamplesPerSec)),
        late(static_cast<std::size_t>(secs * kSamplesPerSec)) {}
  SampleRing<std::uint32_t> lat;
  SampleRing<std::uint32_t> late;
  std::vector<SpanRec> spans;
  std::size_t nspans = 0;
  OpTotals tot;
  std::uint64_t increments = 0;
};

struct Rig {
  bool hot;
  std::unique_ptr<Table> table;
  std::vector<std::unique_ptr<Cell>> cells;
  std::uint64_t increments = 0;  // completed L=1 ops over the rig's life

  std::uint32_t n_cells() const {
    return hot ? kHotAccounts : kRegion * kThreads;
  }
};

// One op of thread `t`, timed when `sample`; spans recorded when traced.
inline void one_op(Rig& rig, wfl::Session<Plat>& s, wfl::Xoshiro256& rng,
                   int t, ThreadSlots& sl, bool sample, bool traced) {
  const std::int64_t top = sample ? now_ns() : 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  bool inc = false;
  if (rig.hot) {
    a = static_cast<std::uint32_t>(rng.next_below(kHotAccounts));
    b = (a + 1 + static_cast<std::uint32_t>(rng.next_below(kHotAccounts - 1))) %
        kHotAccounts;
  } else {
    const std::uint32_t base = kRegion * static_cast<std::uint32_t>(t);
    inc = rng.next_below(2) == 0;
    a = base + static_cast<std::uint32_t>(rng.next_below(kRegion));
    b = base + (a - base + 1 +
                static_cast<std::uint32_t>(rng.next_below(kRegion - 1))) %
                   kRegion;
  }
  SpanRec* sp = nullptr;
  std::int64_t call = 0;
  if (sample) {
    call = now_ns();
    sl.late.push(clamp_ns(call - top));
    if (traced && sl.nspans < sl.spans.size()) {
      sp = &sl.spans[sl.nspans++];
      sp->base = call;
      sp->gen = clamp_ns(call - top);
    }
  }
  Outcome o;
  if (inc) {
    o = wfl::submit(s, wfl::StaticLockSet<1>{a},
                    IncrementThunk{rig.cells[a].get(), sp},
                    wfl::Policy::retry());
    ++sl.increments;
  } else {
    o = wfl::submit(s, wfl::StaticLockSet<2>{a, b},
                    TransferThunk<Plat>{rig.cells[a].get(), rig.cells[b].get(), sp},
                    wfl::Policy::retry());
  }
  if (sample) {
    const std::int64_t ret = now_ns();
    sl.lat.push(clamp_ns(ret - call));
    if (sp != nullptr) sp->call = clamp_ns(ret - call);
  }
  sl.tot.add(o);
}

// Runs the four threads either for `ops_per_thread` ops each or, when that
// is 0, until `secs` elapse. Reports the time for the threads to start and
// register their sessions, and the measured span.
struct Timing {
  double ready_ms = 0;
  double run_s = 0;
};

inline Timing run_threads(Rig& rig, std::vector<ThreadSlots>& slots,
                          std::uint64_t seed, std::uint64_t ops_per_thread,
                          double secs, bool traced) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // One CPU per thread: migrations between busy cores added ~4 points
      // of run-to-run spread to txn_disjoint on a 4-core host.
      pin_cpus(t % online_cpus(), t % online_cpus());
      wfl::Session<Plat> s(*rig.table);
      wfl::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(t));
      ThreadSlots& sl = slots[static_cast<std::size_t>(t)];
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t k = 0;; ++k) {
        if (ops_per_thread != 0 ? k == ops_per_thread
                                : stop.load(std::memory_order_relaxed)) {
          break;
        }
        one_op(rig, s, rng, t, sl, ops_per_thread == 0 && (k & kSampleMask) == 0,
               traced);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  Timing tm;
  const std::int64_t start = now_ns();
  go.store(true, std::memory_order_release);
  if (ops_per_thread == 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<std::int64_t>(secs * 1e9)));
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& th : pool) th.join();
  const std::int64_t t2 = now_ns();
  for (ThreadSlots& sl : slots) {
    rig.increments += sl.increments;
    sl.increments = 0;
  }
  tm.ready_ms = static_cast<double>(start - t0) / 1e6;
  tm.run_s = static_cast<double>(t2 - start) / 1e9;
  return tm;
}

inline std::unique_ptr<Rig> build(bool hot, std::vector<ThreadSlots>& slots,
                                  std::uint64_t seed, SetupTimes& su) {
  auto rig = std::make_unique<Rig>();
  rig->hot = hot;
  std::int64_t t = now_ns();
  // Two spare registrations: sessions of one phase release their pids
  // before the next phase's threads register.
  rig->table = std::make_unique<Table>(config(), kThreads + 2,
                                       static_cast<int>(rig->n_cells()));
  for (std::uint32_t i = 0; i < rig->n_cells(); ++i) {
    rig->cells.push_back(std::make_unique<Cell>(kInitial));
  }
  const double table_ms = ms_since(t);
  const Timing warm = run_threads(*rig, slots, seed, kWarmupOps, 0, false);
  su.add(table_ms, warm.ready_ms, warm.run_s * 1e3);
  return rig;
}

inline PhaseResult phase(Rig& rig, std::vector<ThreadSlots>& slots,
                         std::uint64_t seed, double secs, bool traced) {
  PhaseResult p;
  for (ThreadSlots& sl : slots) {
    sl.tot = {};
    sl.lat.clear();
    sl.late.clear();
    sl.nspans = 0;
  }
  const LockStats st0 = rig.table->stats();
  const std::uint64_t fl0 = rig.table->freelist_ops();
  Timing tm = run_threads(rig, slots, seed, 0, secs, traced);
  p.hwm_mb = proc_status_mb("VmHWM");
  p.secs = tm.run_s;
  p.st = stats_delta(rig.table->stats(), st0);
  p.freelist_ops = rig.table->freelist_ops() - fl0;
  p.pool_slots = pool_slots(*rig.table);
  for (ThreadSlots& sl : slots) {
    p.tot.merge(sl.tot);
    const std::vector<std::uint32_t> lat = sl.lat.take();
    const std::vector<std::uint32_t> late = sl.late.take();
    p.lat.insert(p.lat.end(), lat.begin(), lat.end());
    p.late.insert(p.late.end(), late.begin(), late.end());
    for (std::size_t i = 0; i < sl.nspans; ++i) p.self.add(sl.spans[i], true);
  }
  p.ops = p.tot.ops;
  return p;
}

// Transfers conserve money; each completed increment adds exactly one.
inline void check(const Rig& rig, Report& r) {
  std::uint64_t sum = 0;
  for (const auto& c : rig.cells) sum += c->peek();
  const std::uint64_t expect =
      std::uint64_t{kInitial} * rig.n_cells() + rig.increments;
  r.check(sum == expect, "cell total " + std::to_string(sum) + " != expected " +
                             std::to_string(expect));
}

}  // namespace suite::txn

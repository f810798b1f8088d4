// Async submission pinned: wfl-bench-v1 numbers for the AsyncExecutor
// (core/async_executor.hpp) — the parked-submission path that carries
// far more in-flight submissions than the machine has threads.
//
//   Async_InFlightChurn/N   the headline: N submissions held in flight
//                           on a fixed worker pool (N >> workers; the
//                           default arg is 100k). Each iteration reaps
//                           one completion and resubmits, so the pool
//                           sustains ~N in-flight for the whole run.
//                           Throughput = completions/s through the
//                           executor under that load.
//   Async_RoundTrip         latency shape: one async_submit + wait()
//                           round trip through the worker pool,
//                           uncontended. Every round trip is timed into
//                           a LatencyReservoirs distribution, so the
//                           pinned p99_ns/p999_ns are real percentiles
//                           (no p99_is_mean degradation)
//   Async_SyncBaseline      the same submission through plain submit()
//                           on the caller's thread — the executor's
//                           overhead reference point
//
// Counters (additive wfl-bench-v1 keys):
//   in_flight_sessions   live session records held by the executor
//                        (submitted, Outcome not yet consumed) — the
//                        sampled FLOOR across all timed iterations, so
//                        the reported level was sustained, not peaked
//   queued_sessions      submitted-and-not-yet-completed at run end
//                        (how far the pool's completion wave trails the
//                        reaper; informational, machine-dependent)
//   backoff_spin_steps   sum of completed ops' Outcome::backoff_steps —
//                        MUST be 0 (no submission path idles between
//                        attempts; kept for the pinned schema)
//   parks_per_op         park events per completed op
//   wakes_per_op         release-event wakeups per completed op
//   steals_per_op        Chase-Lev cross-worker steals per completed op
//   wake_skip_ratio      wake requests resolved WITHOUT a futex syscall
//                        (target already awake/signalled) over all wake
//                        requests — the wake-coalescing hit rate
//   wfl_threads          actual worker count (reserved key: overrides
//                        the entry's thread count)
//
// Workers default to hardware_concurrency clamped to [1, 4]: the gauge
// being pinned is submissions >> threads, not thread scaling (that is
// bench_scaling's job).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "wfl/wfl.hpp"

namespace {

using wfl::AsyncClient;
using wfl::AsyncExecutor;
using wfl::Cell;
using wfl::IdemCtx;
using wfl::LockConfig;
using wfl::Policy;
using wfl::RealPlat;
using Table = wfl::LockTable<RealPlat>;

LockConfig async_cfg() {
  LockConfig cfg;
  cfg.kappa = 8;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = wfl::DelayMode::kOff;
  return cfg;
}

int pool_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return static_cast<int>(hw < 4 ? hw : 4);
}

void Async_InFlightChurn(benchmark::State& state) {
  const auto target = static_cast<std::size_t>(state.range(0));
  const int workers = pool_workers();
  constexpr int kLocks = 256;

  const LockConfig cfg = async_cfg();
  Table space(cfg, workers + 2, kLocks);
  AsyncExecutor<RealPlat> exec(space, {.workers = workers});
  wfl::Session<RealPlat> session(space);
  AsyncClient<RealPlat> client(session);
  std::vector<std::unique_ptr<Cell<RealPlat>>> cells;
  for (int i = 0; i < kLocks; ++i) {
    cells.push_back(std::make_unique<Cell<RealPlat>>(0u));
  }

  wfl::Xoshiro256 rng(0xA51FC);
  auto submit_one = [&] {
    const auto id = static_cast<std::uint32_t>(rng.next_below(kLocks));
    Cell<RealPlat>& cell = *cells[id];
    const wfl::StaticLockSet<1> locks{id};
    return exec.async_submit(
        client, locks,
        [&cell](IdemCtx<RealPlat>& m) { m.store(cell, m.load(cell) + 1); },
        Policy::retry());
  };

  // Prime the pool to the target in-flight level before timing starts.
  std::vector<AsyncExecutor<RealPlat>::Ticket> ring;
  ring.reserve(target);
  for (std::size_t i = 0; i < target; ++i) ring.push_back(submit_one());

  std::uint64_t completions = 0;
  std::uint64_t backoff_spin = 0;
  std::uint64_t live_floor = ~std::uint64_t{0};
  std::size_t idx = 0;
  for (auto _ : state) {
    // Reap one completion, resubmit to hold the in-flight level; yield
    // to the workers when a full scan finds nothing done yet.
    std::size_t scanned = 0;
    for (;;) {
      const wfl::Outcome* o = ring[idx].poll();
      if (o != nullptr) {
        backoff_spin += o->backoff_steps;
        ++completions;
        ring[idx] = submit_one();
        idx = (idx + 1) % ring.size();
        break;
      }
      idx = (idx + 1) % ring.size();
      if (++scanned == ring.size()) {
        scanned = 0;
        std::this_thread::yield();
      }
    }
    // The headline gauge, sampled every iteration and reported as the
    // floor: the executor held at least this many live session records
    // at every reap point of the run.
    const std::uint64_t live = exec.live_ops();
    if (live < live_floor) live_floor = live;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completions));

  const double done = completions > 0 ? static_cast<double>(completions) : 1;
  state.counters["in_flight_sessions"] = static_cast<double>(live_floor);
  state.counters["queued_sessions"] =
      static_cast<double>(exec.in_flight());
  state.counters["backoff_spin_steps"] = static_cast<double>(backoff_spin);
  state.counters["parks_per_op"] = static_cast<double>(exec.parks()) / done;
  state.counters["wakes_per_op"] = static_cast<double>(exec.wakes()) / done;
  // Lock-free scheduler core gauges: cross-worker steals per completed op
  // and the fraction of wake requests the coalescer resolved without a
  // futex syscall (target already awake or signalled).
  state.counters["steals_per_op"] = static_cast<double>(exec.steals()) / done;
  const double posts = static_cast<double>(exec.wake_posts());
  const double skips = static_cast<double>(exec.wake_skips());
  state.counters["wake_skip_ratio"] =
      posts + skips > 0 ? skips / (posts + skips) : 0.0;
  state.counters["wfl_threads"] = workers;

  // Teardown: the remaining in-flight ring is torn down as cancelled work
  // (the executor's drain) rather than attempted to completion.
  client.crash();
}
BENCHMARK(Async_InFlightChurn)
    ->Arg(100000)
    ->Iterations(20000)
    ->Unit(benchmark::kMicrosecond);

void Async_RoundTrip(benchmark::State& state) {
  const LockConfig cfg = async_cfg();
  Table space(cfg, 4, 16);
  AsyncExecutor<RealPlat> exec(space, {.workers = 1});
  wfl::Session<RealPlat> session(space);
  AsyncClient<RealPlat> client(session);
  Cell<RealPlat> cell{0};
  const wfl::StaticLockSet<1> locks{3};

  // One sample per round trip: each iteration IS one latency, so the
  // reservoir holds the full distribution, not a thread-average.
  std::vector<double> lat_ns;
  lat_ns.reserve(1 << 16);
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    auto t = exec.async_submit(
        client, locks,
        [&cell](IdemCtx<RealPlat>& m) { m.store(cell, m.load(cell) + 1); },
        Policy::retry());
    benchmark::DoNotOptimize(t.wait().won);
    const auto t1 = std::chrono::steady_clock::now();
    lat_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["wfl_threads"] = 1;
  wfl_bench::LatencyReservoirs::instance().record("Async_RoundTrip", lat_ns);
}
BENCHMARK(Async_RoundTrip);

void Async_SyncBaseline(benchmark::State& state) {
  const LockConfig cfg = async_cfg();
  Table space(cfg, 4, 16);
  wfl::Session<RealPlat> session(space);
  Cell<RealPlat> cell{0};
  const wfl::StaticLockSet<1> locks{3};

  for (auto _ : state) {
    const wfl::Outcome o = wfl::submit(
        session, locks,
        [&cell](IdemCtx<RealPlat>& m) { m.store(cell, m.load(cell) + 1); },
        Policy::retry());
    benchmark::DoNotOptimize(o.won);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(Async_SyncBaseline);

}  // namespace

WFL_BENCH_JSON_MAIN()

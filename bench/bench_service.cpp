// Open-loop Zipfian KV service bench: the paper's tail-latency claim
// measured the way serving systems measure it.
//
// Every other bench in this repo is a closed loop: the next request waits
// for the previous one, so a slow op silently throttles the offered load
// and the tail hides (coordinated omission). Here a dispatcher thread
// paces a Poisson arrival process at a FIXED rate, each request's latency
// is measured from its *scheduled arrival time* to its completion, and a
// request that arrives while the service is stuck still counts its
// queueing delay — the service does not get to slow the clock down.
//
//   Service_OpenLoop/backend:NAME/<rate>   one row per (backend, rate/s)
//
// The service is a KV front end over LockedHashMap (apps/hashmap.hpp):
// reads are prepared_get, writes are prepared_update — both single-bucket
// PreparedOps (the PR-5 building block), pre-built per key so dispatch is
// a memcpy + submit. Keys are drawn Zipfian (exponent s: hot-key skew
// concentrates contention on a few bucket locks), with a configurable
// read/write mix.
//
// Backends (the LockBackend registry, wfl/baseline/backends.hpp):
//   wflock    async: arrivals map to AsyncExecutor::async_submit on a
//             fixed worker pool; losers park on per-lock wait lists.
//             Completion is stamped inside the thunk, on the worker, as
//             the critical section ends (helper replays can only
//             re-stamp later — inflation, never deflation).
//   turek / spin2pl / mutex2pl   sync: a service pool of the same number
//             of threads claims requests from the arrival queue in FIFO
//             order and runs B::submit(.., Policy::retry()); completion
//             is stamped when submit returns, queueing delay included.
//
// Reported per row (wfl-bench-v1, bench_json.hpp):
//   ops_per_s       sustained completion throughput over the whole run
//   p99_ns/p999_ns  reservoir-backed latency percentiles (scheduled
//                   arrival -> completion)
//   arrival_rate    the nominal offered rate (requests/s)
//   achieved_rate   requests actually dispatched per second — must track
//                   arrival_rate, or the row measured a slower open loop
//                   than it claims
//   slo_p99_ok / slo_p999_ok   1 when the row meets the fixed SLOs
//                   (p99 <= 200us, p999 <= 1ms); "throughput at SLO" for
//                   a backend is the highest swept rate with both = 1
//   steals_per_op / wake_skip_ratio   (wflock only) lock-free scheduler
//                   gauges: Chase-Lev cross-worker steals per op and the
//                   wake-coalescing futex-skip rate
//
// Knobs (environment, since Google Benchmark owns argv):
//   WFL_SERVICE_MS       run length per row in ms of offered load (400)
//   WFL_SERVICE_SKEW     Zipf exponent s (0.99)
//   WFL_SERVICE_READS    read percentage of the mix (90)
//   WFL_SERVICE_THREADS  service pool size (4)
//   WFL_SERVICE_RATES    comma-separated rates/s (50000,200000,400000)
//   WFL_SERVICE_DUMP     1 = print slow requests (>500us), late dispatch
//                        and slow submits to stderr — separates "the
//                        service was slow" from "the load generator was
//                        descheduled" when triaging a bad row
//
// Expected shape: at low rates all backends meet both SLOs. As the rate
// climbs toward the hot bucket's service capacity, the blocking backends'
// tail blows up first — a preempted or delayed lock holder convoys every
// queued arrival behind it — while wflock's helping keeps the tail flat
// until genuine saturation. That ordering (wflock sustains a higher rate
// at the p999 SLO, most visibly at high skew) is the pinned claim of
// BENCH_service.json.
//
// Reading a noisy row: open-loop percentiles measure the whole machine.
// On a small/shared host, multi-ms guest descheduling lands in every
// backend's tail as bursts (latency decays linearly over the ~rate x
// stall arrivals that queued behind the stall); WFL_SERVICE_DUMP
// attributes them (LATE-DISPATCH = the generator stalled, not the
// service). The pinned comparison should come from a quiet interval —
// the CI gate deliberately checks only ops_per_s with wide slack.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_json.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;  // NOLINT: bench file, local scope

constexpr std::uint32_t kBuckets = 512;
constexpr std::uint32_t kKeys = 1024;
constexpr std::uint64_t kSloP99Ns = 200'000;     // 200 us
constexpr std::uint64_t kSloP999Ns = 1'000'000;  // 1 ms

using Clock = std::chrono::steady_clock;

double env_double(const char* name, double dflt) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : dflt;
}

int env_int(const char* name, int dflt) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : dflt;
}

// A fixed pool of 4 service threads, deliberately NOT clamped to the
// core count: oversubscription is part of the experiment. A service
// thread preempted while holding a bucket lock is exactly the
// "arbitrarily delayed process" the paper's wait-freedom is for, and on
// a small machine the kernel supplies those preemptions for free. The
// blocking backends convoy every queued arrival behind the preempted
// holder for a timeslice; wflock's helping completes the stuck op and
// keeps serving.
constexpr int kServiceThreads = 4;

LockConfig service_cfg() {
  LockConfig cfg;
  cfg.kappa = 8;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = LockedHashMap<WflBackend<RealPlat>>::thunk_step_budget();
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

// One precomputed request stream: open-loop means the arrival process is
// fixed before the run and never consults the service.
struct Workload {
  std::vector<std::uint32_t> key_idx;   // index into the live-key table
  std::vector<std::uint8_t> is_read;
  std::vector<std::int64_t> sched_ns;   // arrival offset from run start
};

Workload make_workload(std::size_t n, double rate_per_s, double skew,
                       int read_pct, std::size_t n_keys,
                       std::uint64_t seed) {
  // Zipf CDF over the key table: weight(i) = 1/(i+1)^s, sampled by
  // binary search on a uniform draw.
  std::vector<double> cdf(n_keys);
  double acc = 0.0;
  for (std::size_t i = 0; i < n_keys; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    cdf[i] = acc;
  }
  for (double& c : cdf) c /= acc;

  Workload w;
  w.key_idx.reserve(n);
  w.is_read.reserve(n);
  w.sched_ns.reserve(n);
  Xoshiro256 rng(seed);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    w.key_idx.push_back(static_cast<std::uint32_t>(it - cdf.begin()));
    w.is_read.push_back(rng.next_below(100) <
                                static_cast<std::uint64_t>(read_pct)
                            ? 1
                            : 0);
    // Poisson arrivals: exponential inter-arrival gaps.
    t += -mean_gap_ns * std::log(1.0 - rng.next_double());
    w.sched_ns.push_back(static_cast<std::int64_t>(t));
  }
  return w;
}

std::int64_t since_ns(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Waits until `sched` ns past `start`; returns immediately when the
// dispatcher is running late (the lateness lands in the request's
// measured latency — that is the open-loop contract). Cooperative, not
// a busy spin: on a small machine the dispatcher shares cores with the
// service it is measuring, and spinning here would starve the service
// and measure the OS scheduler instead.
void pace(Clock::time_point start, std::int64_t sched) {
  for (;;) {
    const std::int64_t now = since_ns(start);
    if (now >= sched) return;
    const std::int64_t left = sched - now;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

template <typename B>
void BM_ServiceOpenLoop(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  const int workers = env_int("WFL_SERVICE_THREADS", kServiceThreads);
  const double skew = env_double("WFL_SERVICE_SKEW", 0.99);
  const int read_pct = env_int("WFL_SERVICE_READS", 90);
  const int dur_ms = env_int("WFL_SERVICE_MS", 400);
  const auto n =
      static_cast<std::size_t>(rate * static_cast<double>(dur_ms) / 1000.0);

  using Plat = typename B::Platform;
  BackendConfig bc;
  bc.lock = service_cfg();
  bc.max_procs = workers + 2;
  bc.num_locks = static_cast<int>(kBuckets);
  auto space = B::make_space(bc);
  LockedHashMap<B> map(*space, kBuckets, kKeys + 64);

  // Pre-populate; a key whose chain fills drops out of the sampled table
  // (kMaxChain bounds the critical section, not the key space).
  std::vector<std::uint64_t> live_keys;
  {
    typename B::Session init(*space);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      if (map.put(init, k, static_cast<std::uint32_t>(k)) != kMapFull) {
        live_keys.push_back(k);
      }
    }
  }

  // Per-key prepared ops, built once: dispatch arms a memcpy, not a
  // lock-set validation.
  std::vector<PreparedOp<Plat>> gets;
  std::vector<PreparedOp<Plat>> updates;
  gets.reserve(live_keys.size());
  updates.reserve(live_keys.size());
  for (const std::uint64_t k : live_keys) {
    gets.push_back(map.prepared_get(k));
    updates.push_back(map.prepared_update(k, static_cast<std::uint32_t>(k)));
  }

  const Workload w =
      make_workload(n, rate, skew, read_pct, live_keys.size(),
                    0xC0FFEE + static_cast<std::uint64_t>(rate));

  std::vector<double> lat_ns(n, 0.0);
  double dispatch_span_s = 0.0;
  double steals_per_op = -1.0;
  double wake_skip_ratio = -1.0;

  for (auto _ : state) {
    if constexpr (std::is_same_v<typename B::Space, LockTable<Plat>>) {
      // --- async service: arrivals -> async_submit ---
      // Completion is stamped INSIDE the thunk (on the worker, as the
      // critical section ends): an observer thread polling tickets would
      // add its own scheduling delay to every wflock sample on a small
      // machine. A helper replay can re-stamp a little later; that only
      // ever inflates the recorded latency, never deflates it. Tickets
      // are dropped at submission (ops complete and self-free); the
      // executor's completed() gauge ends the drain.
      AsyncExecutor<Plat> exec(*space, {.workers = workers});
      typename B::Session session(*space);
      AsyncClient<Plat> client(session);
      std::vector<std::atomic<std::int64_t>> done_ns(n);

      const bool dump = env_int("WFL_SERVICE_DUMP", 0) != 0;
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        pace(start, w.sched_ns[i]);
        if (dump) {
          const std::int64_t late = since_ns(start) - w.sched_ns[i];
          if (late > 500'000) {
            std::fprintf(stderr, "LATE-DISPATCH i=%zu late_us=%lld\n", i,
                         static_cast<long long>(late / 1000));
          }
        }
        const PreparedOp<Plat>& op =
            w.is_read[i] ? gets[w.key_idx[i]] : updates[w.key_idx[i]];
        // async_submit wraps its callable in a fresh PreparedOp; hand it
        // a pointer to the long-lived armed closure, not the closure
        // itself (which would not fit the inline storage again).
        const typename PreparedOp<Plat>::Armed* armed = &op.armed();
        std::atomic<std::int64_t>* slot = &done_ns[i];
        const std::int64_t sub0 = dump ? since_ns(start) : 0;
        exec.async_submit(
            client, op.locks(),
            [armed, slot, start](IdemCtx<Plat>& m) {
              (*armed)(m);
              slot->store(since_ns(start), std::memory_order_relaxed);
            },
            Policy::retry());
        if (dump) {
          const std::int64_t sub = since_ns(start) - sub0;
          if (sub > 500'000) {
            std::fprintf(stderr, "SLOW-SUBMIT i=%zu sub_us=%lld\n", i,
                         static_cast<long long>(sub / 1000));
          }
        }
      }
      dispatch_span_s = static_cast<double>(since_ns(start)) * 1e-9;
      while (exec.completed() < n) std::this_thread::yield();
      for (std::size_t i = 0; i < n; ++i) {
        lat_ns[i] = static_cast<double>(
            done_ns[i].load(std::memory_order_relaxed) - w.sched_ns[i]);
      }
      const double done = static_cast<double>(n);
      steals_per_op = static_cast<double>(exec.steals()) / done;
      const double posts = static_cast<double>(exec.wake_posts());
      const double skips = static_cast<double>(exec.wake_skips());
      wake_skip_ratio = posts + skips > 0 ? skips / (posts + skips) : 0.0;
    } else {
      // --- sync service: a fixed pool claims the arrival queue FIFO ---
      std::atomic<std::size_t> published{0};
      std::atomic<std::size_t> next{0};
      std::atomic<bool> closed{false};
      const Clock::time_point start = Clock::now();
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(workers));
      for (int t = 0; t < workers; ++t) {
        pool.emplace_back([&] {
          typename B::Session sess(*space);
          for (;;) {
            std::size_t i = next.load(std::memory_order_relaxed);
            if (i >= published.load(std::memory_order_acquire)) {
              if (closed.load(std::memory_order_acquire) && i >= n) return;
              std::this_thread::yield();
              continue;
            }
            if (!next.compare_exchange_weak(i, i + 1,
                                            std::memory_order_acq_rel)) {
              continue;
            }
            const PreparedOp<Plat>& op =
                w.is_read[i] ? gets[w.key_idx[i]] : updates[w.key_idx[i]];
            B::submit(sess, op.locks(), op.armed(), Policy::retry());
            lat_ns[i] =
                static_cast<double>(since_ns(start) - w.sched_ns[i]);
          }
        });
      }
      const bool dump = env_int("WFL_SERVICE_DUMP", 0) != 0;
      for (std::size_t i = 0; i < n; ++i) {
        pace(start, w.sched_ns[i]);
        if (dump) {
          const std::int64_t late = since_ns(start) - w.sched_ns[i];
          if (late > 500'000) {
            std::fprintf(stderr, "LATE-DISPATCH i=%zu late_us=%lld\n", i,
                         static_cast<long long>(late / 1000));
          }
        }
        published.store(i + 1, std::memory_order_release);
      }
      dispatch_span_s = static_cast<double>(since_ns(start)) * 1e-9;
      closed.store(true, std::memory_order_release);
      for (std::thread& t : pool) t.join();
    }
  }

  if (env_int("WFL_SERVICE_DUMP", 0) != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (lat_ns[i] > 500'000.0) {
        std::fprintf(stderr, "SLOW i=%zu sched_us=%lld lat_us=%.0f\n", i,
                     static_cast<long long>(w.sched_ns[i] / 1000),
                     lat_ns[i] / 1000.0);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.counters["arrival_rate"] = rate;
  state.counters["achieved_rate"] =
      dispatch_span_s > 0 ? static_cast<double>(n) / dispatch_span_s : 0.0;
  const double p99 = wfl_bench::percentile(lat_ns, 0.99);
  const double p999 = wfl_bench::percentile(lat_ns, 0.999);
  // p50 as a counter (the reservoir only emits p99/p999): separates "the
  // whole distribution moved" from "the tail moved".
  state.counters["p50_ns"] = wfl_bench::percentile(lat_ns, 0.50);
  state.counters["slo_p99_ok"] =
      p99 <= static_cast<double>(kSloP99Ns) ? 1.0 : 0.0;
  state.counters["slo_p999_ok"] =
      p999 <= static_cast<double>(kSloP999Ns) ? 1.0 : 0.0;
  if (steals_per_op >= 0.0) {
    state.counters["steals_per_op"] = steals_per_op;
    state.counters["wake_skip_ratio"] = wake_skip_ratio;
  }
  state.counters["wfl_threads"] = workers;
  wfl_bench::LatencyReservoirs::instance().record(
      std::string("Service_OpenLoop/backend:") + B::name() + "/" +
          std::to_string(state.range(0)),
      lat_ns);
}

std::vector<std::int64_t> swept_rates() {
  const char* v = std::getenv("WFL_SERVICE_RATES");
  if (v == nullptr || *v == '\0') return {50000, 200000, 400000};
  std::vector<std::int64_t> rates;
  for (const char* p = v; *p != '\0';) {
    char* end = nullptr;
    const long long r = std::strtoll(p, &end, 10);
    if (end == p) break;
    if (r > 0) rates.push_back(r);
    p = (*end == ',') ? end + 1 : end;
  }
  return rates.empty() ? std::vector<std::int64_t>{50000, 200000, 400000}
                       : rates;
}

void register_service_sweeps() {
  RealBackends::for_each([](auto tag) {
    using B = typename decltype(tag)::type;
    const std::string name =
        std::string("Service_OpenLoop/backend:") + B::name();
    auto* bm = benchmark::RegisterBenchmark(name.c_str(),
                                            BM_ServiceOpenLoop<B>);
    for (const std::int64_t r : swept_rates()) bm->Arg(r);
    bm->Iterations(1)
        ->UseRealTime()  // the dispatcher sleeps between arrivals
        ->Unit(benchmark::kMillisecond);
  });
}

}  // namespace

WFL_BENCH_JSON_MAIN_WITH(register_service_sweeps)

// kv_open_*: an open-loop KV service on the async executor.
//
// Poisson arrivals at a fixed rate; keys Zipf(0.99) over 1024 keys in 512
// LockedHashMap buckets; 90% prepared_get, 10% prepared_update. One
// generator thread (this one) paces the schedule and calls async_submit;
// the executor's worker pool runs the attempts. A request's latency runs
// from its scheduled arrival to the first completion of its thunk, so a
// stalled service still pays for every arrival queued behind the stall.
//
// The generator also reaps tickets in FIFO order for their Outcome (steps,
// attempts) and watches for a wedge: no completion for 1 s while requests
// are outstanding. A wedged executor cannot be shut down (its drain would
// wait forever), so the watchdog prints the executor gauges to stderr,
// reports the whole trial as failed — every request +inf — and ends the
// process.
#pragma once

#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "suite.hpp"
#include "wfl/apps/hashmap.hpp"
#include "wfl/core/async_executor.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/session.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/util/rng.hpp"

namespace suite::kv {

using Plat = wfl::RealPlat;
using Table = wfl::LockTable<Plat>;
using Map = wfl::LockedHashMap<Plat>;
using Exec = wfl::AsyncExecutor<Plat>;
using Op = wfl::PreparedOp<Plat>;
using Ticket = Exec::Ticket;

constexpr std::uint32_t kBuckets = 512;
constexpr std::uint32_t kKeys = 1024;
constexpr double kZipf = 0.99;
constexpr std::uint64_t kReadPct = 90;
constexpr std::uint16_t kReadBit = 0x8000;
constexpr std::int64_t kWedgeNs = 1'000'000'000;
constexpr int kWarmupRequests = 20000;
constexpr int kWarmupWindow = 256;
constexpr int kWorkers = 3;  // executor worker threads

inline wfl::LockConfig config() {
  wfl::LockConfig cfg;
  cfg.kappa = 8;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = Map::thunk_step_budget();
  cfg.delay_mode = wfl::DelayMode::kOff;
  return cfg;
}

// One precomputed arrival stream plus its per-request result slots. All of
// it is allocated and touched before the memory baseline is read.
struct Load {
  std::vector<std::uint16_t> code;   // key index | kReadBit
  std::vector<std::int64_t> sched;   // arrival offset from phase start, ns
  std::vector<std::atomic<std::uint32_t>> lat;  // first completion - sched
  std::vector<std::uint32_t> late;   // call - sched
  std::vector<SpanRec> spans;        // traced phases only

  // `rate` arrivals per second for `secs` seconds.
  Load(double rate, double secs, std::uint64_t seed, bool traced) {
    const auto n = static_cast<std::size_t>(rate * secs);
    std::vector<double> cdf(kKeys);
    double acc = 0.0;
    for (std::uint32_t i = 0; i < kKeys; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipf);
      cdf[i] = acc;
    }
    wfl::Xoshiro256 rng(seed);
    const double gap_ns = 1e9 / rate;
    double t = 0.0;
    code.resize(n);
    sched.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.next_double() * acc;
      const auto k = static_cast<std::uint16_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const bool read = rng.next_below(100) < kReadPct;
      code[i] = static_cast<std::uint16_t>(std::min<std::uint32_t>(k, kKeys - 1) |
                                           (read ? kReadBit : 0));
      t += -gap_ns * std::log(1.0 - rng.next_double());
      sched[i] = static_cast<std::int64_t>(t);
    }
    lat = std::vector<std::atomic<std::uint32_t>>(n);
    late.assign(n, 0);
    if (traced) spans = std::vector<SpanRec>(n);
  }
  std::size_t size() const { return sched.size(); }
};

// The thunk async_submit runs: the map's prepared op, then the first-wins
// completion stamp. Trivially copyable, as async_submit requires.
struct Thunk {
  const Op::Armed* armed;
  std::atomic<std::uint32_t>* lat;  // null during warm-up
  SpanRec* span;                    // null unless traced
  std::int64_t due;

  void operator()(wfl::IdemCtx<Plat>& m) const {
    const std::int64_t in = span != nullptr ? now_ns() : 0;
    (*armed)(m);
    if (lat == nullptr) return;
    const std::int64_t out = now_ns();
    std::uint32_t unset = 0;
    lat->compare_exchange_strong(unset, clamp_ns(out - due),
                                 std::memory_order_relaxed);
    if (span != nullptr) span->stamp_thunk(in, out);
  }
};

// Declared in teardown order: the executor drains and joins first, then
// the client, its session, the map and the table.
struct Rig {
  std::unique_ptr<Table> table;
  std::unique_ptr<Map> map;
  std::vector<std::uint64_t> keys;  // populated keys, indexed by Load::code
  std::vector<Op> gets, updates;
  std::unique_ptr<wfl::Session<Plat>> session;
  std::unique_ptr<wfl::AsyncClient<Plat>> client;
  std::unique_ptr<Exec> exec;

  const Op& op(std::uint16_t code) const {
    const std::size_t k = (code & ~kReadBit) % keys.size();
    return (code & kReadBit) != 0 ? gets[k] : updates[k];
  }
};

// No-progress detector. A wedged executor never completes again, so the
// trial ends here: gauges to stderr, every request failed, process exit.
class Watchdog {
 public:
  Watchdog(const Exec& e, Report& r, std::uint64_t attempted)
      : e_(e), r_(r), attempted_(attempted), seen_(e.completed()),
        since_(now_ns()) {}

  void poll() {
    const std::uint64_t c = e_.completed();
    const std::int64_t t = now_ns();
    if (c != seen_ || e_.in_flight() == 0) {
      seen_ = c;
      since_ = t;
      return;
    }
    if (t - since_ < kWedgeNs) return;
    std::fprintf(stderr,
                 "exp_suite: %s wedged: completed=%llu in_flight=%llu "
                 "parks=%llu wake_posts=%llu wake_skips=%llu steals=%llu\n",
                 r_.workload.c_str(),
                 static_cast<unsigned long long>(e_.completed()),
                 static_cast<unsigned long long>(e_.in_flight()),
                 static_cast<unsigned long long>(e_.parks()),
                 static_cast<unsigned long long>(e_.wake_posts()),
                 static_cast<unsigned long long>(e_.wake_skips()),
                 static_cast<unsigned long long>(e_.steals()));
    r_.attempted = attempted_;
    r_.failed = attempted_;
    r_.add("ops_per_s", 0, "1/s", attempted_);
    for (const char* name : {"p50_us", "p90_us", "p99_us", "p999_us"}) {
      r_.add(name, kInf, "us", attempted_);
    }
    r_.add("wedged_trials", 1, "count");
    r_.print();
    // The wedged workers sleep on a futex no one will post; their
    // executor cannot be destroyed, so leave without running destructors.
    std::_Exit(0);
  }

 private:
  const Exec& e_;
  Report& r_;
  std::uint64_t attempted_;
  std::uint64_t seen_;
  std::int64_t since_;
};

inline void reap(std::deque<Ticket>& q, OpTotals& tot) {
  while (!q.empty()) {
    const Outcome* o = q.front().poll();
    if (o == nullptr) return;
    tot.add(*o);
    q.pop_front();
  }
}

inline void drain(std::deque<Ticket>& q, OpTotals& tot, Watchdog& wd) {
  for (;;) {
    reap(q, tot);
    if (q.empty()) return;
    wd.poll();
    std::this_thread::yield();
  }
}

// Builds table, map and prepared ops (table_ms), the executor and its
// client (exec_ms), then runs a fixed-count warm-up in windows (warm_ms).
inline std::unique_ptr<Rig> build(Report& r, std::uint64_t attempted,
                                  SetupTimes& su) {
  auto rig = std::make_unique<Rig>();
  std::int64_t t = now_ns();
  rig->table = std::make_unique<Table>(config(), kWorkers + 2,
                                       static_cast<int>(kBuckets));
  rig->map = std::make_unique<Map>(*rig->table, kBuckets, kKeys + 64);
  {
    wfl::Session<Plat> init(*rig->table);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      if (rig->map->put(init, k, static_cast<std::uint32_t>(k)) !=
          wfl::kMapFull) {
        rig->keys.push_back(k);
      }
    }
  }
  rig->gets.reserve(rig->keys.size());
  rig->updates.reserve(rig->keys.size());
  for (const std::uint64_t k : rig->keys) {
    rig->gets.push_back(rig->map->prepared_get(k));
    rig->updates.push_back(
        rig->map->prepared_update(k, static_cast<std::uint32_t>(k)));
  }
  const double table_ms = ms_since(t);

  t = now_ns();
  // Workers inherit the creating thread's CPU mask: give them every CPU
  // but the generator's, so pacing never competes with the service for a
  // core (on a small host the scheduler otherwise co-locates them on wakeup
  // and the generator's yields decide the latency).
  pin_cpus(0, online_cpus() - 2);
  rig->exec = std::make_unique<Exec>(*rig->table,
                                     Exec::Options{.workers = kWorkers});
  pin_cpus(online_cpus() - 1, online_cpus() - 1);
  rig->session = std::make_unique<wfl::Session<Plat>>(*rig->table);
  rig->client = std::make_unique<wfl::AsyncClient<Plat>>(*rig->session);
  const double exec_ms = ms_since(t);

  t = now_ns();
  Watchdog wd(*rig->exec, r, attempted);
  std::deque<Ticket> q;
  OpTotals ignored;
  wfl::Xoshiro256 rng(0x5EED);
  for (int i = 0; i < kWarmupRequests; i += kWarmupWindow) {
    for (int j = 0; j < kWarmupWindow; ++j) {
      const Op& op = rig->op(static_cast<std::uint16_t>(
          rng.next_below(rig->keys.size()) |
          (rng.next_below(100) < kReadPct ? kReadBit : 0)));
      q.push_back(rig->exec->async_submit(
          *rig->client, op.locks(), Thunk{&op.armed(), nullptr, nullptr, 0},
          wfl::Policy::retry()));
    }
    drain(q, ignored, wd);
  }
  su.add(table_ms, exec_ms, ms_since(t));
  return rig;
}

// Sleeps through long gaps and yields through short ones, so the kernel
// can still use the generator's CPU.
inline void pace(std::int64_t due) {
  for (;;) {
    const std::int64_t left = due - now_ns();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

inline PhaseResult phase(Rig& rig, Load& load, bool traced, Report& r,
                         std::uint64_t attempted) {
  PhaseResult p;
  Exec& exec = *rig.exec;
  const std::size_t n = load.size();
  const LockStats st0 = rig.table->stats();
  const std::uint64_t fl0 = rig.table->freelist_ops();
  const ExecGauges g0 = ExecGauges::read(exec);
  Watchdog wd(exec, r, attempted);
  std::deque<Ticket> q;
  std::uint64_t live_peak = 0;
  const std::int64_t start = now_ns() + 1'000'000;
  std::int64_t last_call = start;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = start + load.sched[i];
    pace(due);
    const std::int64_t call = now_ns();
    load.late[i] = clamp_ns(call - due);
    const Op& op = rig.op(load.code[i]);
    SpanRec* sp = traced ? &load.spans[i] : nullptr;
    if (sp != nullptr) {
      sp->base = due;
      sp->gen = clamp_ns(call - due);
    }
    q.push_back(exec.async_submit(*rig.client, op.locks(),
                                  Thunk{&op.armed(), &load.lat[i], sp, due},
                                  wfl::Policy::retry()));
    last_call = now_ns();
    if (sp != nullptr) sp->call = clamp_ns(last_call - call);
    reap(q, p.tot);
    if ((i & 255) == 0) {
      live_peak = std::max(live_peak, exec.live_ops());
      wd.poll();
    }
  }
  drain(q, p.tot, wd);
  p.secs = static_cast<double>(now_ns() - start) / 1e9;
  p.hwm_mb = proc_status_mb("VmHWM");
  p.ops = n;
  p.achieved_rate_ratio =
      n > 0 ? static_cast<double>(load.sched[n - 1]) /
                  static_cast<double>(std::max<std::int64_t>(last_call - start, 1))
            : 1.0;
  p.st = stats_delta(rig.table->stats(), st0);
  p.freelist_ops = rig.table->freelist_ops() - fl0;
  p.pool_slots = pool_slots(*rig.table);
  p.ex = ExecGauges::read(exec).since(g0);
  p.ex.live_ops_peak = live_peak;
  p.lat.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = load.lat[i].load(std::memory_order_relaxed);
    if (v != 0) p.lat.push_back(v);
  }
  p.failed = n - p.lat.size();
  p.late = load.late;
  if (traced) {
    for (std::size_t i = 0; i < n; ++i) p.self.add(load.spans[i], false);
  }
  return p;
}

// Map contents are an invariant of the workload: updates write each key's
// own value back, and no request inserts or erases.
inline void check_map(const Rig& rig, Report& r) {
  r.check(rig.map->size() == rig.keys.size(), "map size changed");
  std::size_t wrong = 0;
  for (const std::uint64_t k : rig.keys) {
    std::uint32_t v = 0;
    wrong += rig.map->get(k, &v) && v == k ? 0 : 1;
  }
  r.check(wrong == 0, std::to_string(wrong) + " keys lost their value");
}

}  // namespace suite::kv

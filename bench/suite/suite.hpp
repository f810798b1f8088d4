// Shared plumbing for exp_suite, the wflock benchmark: clocks, exact
// quantiles, the per-run report, memory probes, and the per-layer counter
// deltas every workload reports.
//
// The benchmark measures each layer from outside only: it times calls into
// public functions (async_submit, submit, its own thunk bodies) and reads
// public counters (Outcome, LockStats, LockTable::freelist_ops, the async
// executor's gauges). Nothing here reaches into library internals.
#pragma once

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "wfl/core/config.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/idem/idem.hpp"

namespace suite {

using wfl::LockStats;
using wfl::Outcome;

constexpr double kInf = std::numeric_limits<double>::infinity();

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Interval in ns clamped into [1, UINT32_MAX]: 0 marks "not recorded" in
// the sample arrays, and no interval this benchmark times approaches 4 s
// outside a wedge (which the watchdog reports separately).
inline std::uint32_t clamp_ns(std::int64_t d) {
  if (d < 1) return 1;
  if (d > 0xFFFFFFFFll) return 0xFFFFFFFFu;
  return static_cast<std::uint32_t>(d);
}

// Nearest-rank quantile of the recorded (nonzero) samples; reorders `v`.
// `failed` requests count as +inf (they miss every latency limit), so a
// quantile that lands among them is infinite.
inline double quantile(std::vector<std::uint32_t>& v, double q,
                       std::uint64_t failed = 0) {
  const std::uint64_t n = v.size() + failed;
  if (n == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  if (rank > v.size()) return kInf;
  auto it = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), it, v.end());
  // Samples are whole nanoseconds. Read the quantile inside its 1-ns bin,
  // ties spread evenly over it, so a tight distribution of short spans does
  // not report the same integer every run.
  const std::uint32_t x = *it;
  std::uint64_t below = 0;
  std::uint64_t equal = 0;
  for (const std::uint32_t s : v) {
    below += s < x ? 1 : 0;
    equal += s == x ? 1 : 0;
  }
  return static_cast<double>(x) - 0.5 +
         (static_cast<double>(rank - below) - 0.5) / static_cast<double>(equal);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Fixed-capacity sample ring: closed loops cannot know their op count in
// advance, and growing a vector mid-run would count toward mem_peak_mb.
// Sized for the whole run; should it fill, it keeps the most recent samples.
template <typename T>
class SampleRing {
 public:
  explicit SampleRing(std::size_t cap) : v_(std::max<std::size_t>(cap, 1), T{}) {}
  void push(T x) {
    v_[next_] = x;
    if (++next_ == v_.size()) {
      next_ = 0;
      full_ = true;
    }
  }
  std::vector<T> take() const {
    return {v_.begin(), full_ ? v_.end() : v_.begin() + static_cast<std::ptrdiff_t>(next_)};
  }
  void clear() {
    next_ = 0;
    full_ = false;
  }

 private:
  std::vector<T> v_;
  std::size_t next_ = 0;
  bool full_ = false;
};

inline int online_cpus() {
  return static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

// Restricts the calling thread to CPUs lo..hi (clamped to the online
// ones); threads it creates afterwards inherit the mask. A no-op on a
// single-CPU host.
inline void pin_cpus(int lo, int hi) {
  const int n = online_cpus();
  if (n < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = std::max(lo, 0); c <= std::min(hi, n - 1); ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// /proc/self/status field in MB (VmRSS, VmHWM); 0 when unreadable.
inline double proc_status_mb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const std::size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      kb = std::atof(line + klen + 1);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// Accounting folded from the Outcome of every completed submission.
struct OpTotals {
  std::uint64_t ops = 0;
  std::uint64_t attempts = 0;
  std::uint64_t steps = 0;
  std::uint64_t backoff_steps = 0;
  std::uint64_t pre_sum = 0;
  std::uint64_t post_sum = 0;
  std::uint64_t pre_max = 0;

  void add(const Outcome& o) {
    ++ops;
    attempts += o.attempts;
    steps += o.total_steps;
    backoff_steps += o.backoff_steps;
    pre_sum += o.pre_reveal_work;
    post_sum += o.post_reveal_work;
    pre_max = std::max(pre_max, o.pre_reveal_work);
  }
  void merge(const OpTotals& o) {
    ops += o.ops;
    attempts += o.attempts;
    steps += o.steps;
    backoff_steps += o.backoff_steps;
    pre_sum += o.pre_sum;
    post_sum += o.post_sum;
    pre_max = std::max(pre_max, o.pre_max);
  }
};

inline LockStats stats_delta(const LockStats& a, const LockStats& b) {
  LockStats d;
  d.attempts = a.attempts - b.attempts;
  d.wins = a.wins - b.wins;
  d.helps = a.helps - b.helps;
  d.eliminations = a.eliminations - b.eliminations;
  d.thunk_runs = a.thunk_runs - b.thunk_runs;
  d.t0_overruns = a.t0_overruns - b.t0_overruns;
  d.t1_overruns = a.t1_overruns - b.t1_overruns;
  d.log_slot_resets = a.log_slot_resets - b.log_slot_resets;
  d.fastpath_hits = a.fastpath_hits - b.fastpath_hits;
  d.fastpath_revocations = a.fastpath_revocations - b.fastpath_revocations;
  d.help_claim_skips = a.help_claim_skips - b.help_claim_skips;
  return d;
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Executor gauges (AsyncExecutor's public counters); all zero on the
// workloads that bypass the async executor.
struct ExecGauges {
  std::uint64_t parks = 0, wakes = 0, signals = 0, steals = 0;
  std::uint64_t wake_posts = 0, wake_skips = 0;
  std::uint64_t fibers_created = 0, fibers_reused = 0;
  std::uint64_t live_ops_peak = 0;

  template <typename Exec>
  static ExecGauges read(const Exec& e) {
    ExecGauges g;
    g.parks = e.parks();
    g.wakes = e.wakes();
    g.signals = e.signals();
    g.steals = e.steals();
    g.wake_posts = e.wake_posts();
    g.wake_skips = e.wake_skips();
    g.fibers_created = e.fibers_created();
    g.fibers_reused = e.fibers_reused();
    return g;
  }
  ExecGauges since(const ExecGauges& b) const {
    ExecGauges d = *this;
    d.parks -= b.parks;
    d.wakes -= b.wakes;
    d.signals -= b.signals;
    d.steals -= b.steals;
    d.wake_posts -= b.wake_posts;
    d.wake_skips -= b.wake_skips;
    d.fibers_created -= b.fibers_created;
    d.fibers_reused -= b.fibers_reused;
    return d;
  }
};

// One request's trace, as offsets from its own base time. Spans:
//   open loop:   gen [sched, call]  async_submit [call, ret]
//                queue [ret, thunk in]  thunk [in, in + dur]
//   closed loop: gen [loop top, call] (the client picking its next op)
//                submit [call, ret], which contains queue [call, thunk in]
//                and thunk [in, in + dur]
// The thunk stamps are first-wins (a helper may replay the body), so they
// describe the first run of the critical section.
struct SpanRec {
  std::int64_t base = 0;   // sched (open loop) or call (closed loop)
  std::uint32_t gen = 0;   // gen span length
  std::uint32_t call = 0;  // submission call length
  std::atomic<std::uint32_t> thunk_in{0};   // thunk entry - base
  std::atomic<std::uint32_t> thunk_dur{0};  // first completed run's length

  void stamp_thunk(std::int64_t in, std::int64_t out) {
    std::uint32_t z = 0;
    thunk_in.compare_exchange_strong(z, clamp_ns(in - base),
                                     std::memory_order_relaxed);
    z = 0;
    thunk_dur.compare_exchange_strong(z, clamp_ns(out - in),
                                      std::memory_order_relaxed);
  }
};

// apps/bank.hpp's transfer body (amount 1) with first-wins trace stamps
// around it; shared by txn_* and sim_clique.
template <typename Plat>
struct TransferThunk {
  wfl::Cell<Plat>* src;
  wfl::Cell<Plat>* dst;
  SpanRec* span;
  void operator()(wfl::IdemCtx<Plat>& m) const {
    const std::int64_t in = span != nullptr ? now_ns() : 0;
    const std::uint32_t s = m.load(*src);
    if (s >= 1) {
      m.store(*src, s - 1);
      m.store(*dst, m.load(*dst) + 1);
    }
    if (span != nullptr) span->stamp_thunk(in, now_ns());
  }
};

// Self times of one trace set, per span: a span's duration minus the part
// its child spans cover (only the closed-loop submit span has children).
struct SelfTimes {
  std::vector<std::uint32_t> gen, submit, queue, thunk;
  bool open_loop = false;  // submit holds async_submit calls

  void add(const SpanRec& r, bool closed_loop) {
    const std::uint32_t in = r.thunk_in.load(std::memory_order_relaxed);
    const std::uint32_t dur = r.thunk_dur.load(std::memory_order_relaxed);
    if (in == 0 || dur == 0) return;
    open_loop = !closed_loop;
    const std::int64_t call_end = closed_loop ? r.call : std::int64_t{r.gen} + r.call;
    gen.push_back(std::max<std::uint32_t>(r.gen, 1));
    thunk.push_back(dur);
    if (closed_loop) {
      queue.push_back(in);
      submit.push_back(clamp_ns(std::int64_t{r.call} - in - dur));
    } else {
      // The worker may enter the thunk before async_submit has returned to
      // the generator; the queue span is then empty.
      queue.push_back(clamp_ns(std::int64_t{in} - call_end));
      submit.push_back(std::max<std::uint32_t>(r.call, 1));
    }
  }
};

// Appends up to `cap` traced requests to `f` as span rows (id, span,
// parent, start_ns, end_ns); ids are `prefix` + index, times are relative
// to `t0`.
inline void write_spans(std::FILE* f, const std::vector<SpanRec>& recs,
                        std::size_t n, bool closed_loop, const char* prefix,
                        std::int64_t t0, std::size_t cap) {
  std::size_t written = 0;
  for (std::size_t i = 0; i < n && written < cap; ++i) {
    const SpanRec& r = recs[i];
    const std::int64_t in = r.thunk_in.load(std::memory_order_relaxed);
    const std::int64_t dur = r.thunk_dur.load(std::memory_order_relaxed);
    if (in == 0) continue;
    const std::int64_t b = r.base - t0;
    auto row = [&](const char* span, const char* parent, std::int64_t s,
                   std::int64_t e) {
      std::fprintf(f, "%s%zu,%s,%s,%lld,%lld\n", prefix, i, span, parent,
                   static_cast<long long>(s), static_cast<long long>(e));
    };
    if (closed_loop) {
      row("gen", "", b - r.gen, b);
      row("submit", "", b, b + r.call);
      row("queue", "submit", b, b + in);
      row("thunk", "submit", b + in, b + in + dur);
    } else {
      row("gen", "", b, b + r.gen);
      row("async_submit", "", b + r.gen, b + r.gen + r.call);
      row("queue", "", b + r.gen + r.call, std::max(b + in, b + r.gen + r.call));
      row("thunk", "", b + in, b + in + dur);
    }
    ++written;
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t n;  // samples behind the value (0 = a count or gauge)
};

// Everything one run reports. Printed as the last stdout line (JSON);
// run.py selects the names BENCHMARK.json asks for.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  // Adds a metric, replacing an earlier one of the same name.
  void add(const std::string& name, double v, const char* unit,
           std::uint64_t n = 0) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m = {name, v, unit, n};
        return;
      }
    }
    metrics.push_back({name, v, unit, n});
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }

  void print() const {
    std::string s = "{\"workload\": \"" + workload +
                    "\", \"seed\": " + std::to_string(seed) +
                    ", \"correct\": " + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      s += (i ? ", \"" : "\"") + errors[i] + "\"";
    }
    s += "], \"info\": {";
    for (std::size_t i = 0; i < info.size(); ++i) {
      s += (i ? ", \"" : "\"") + info[i].first + "\": \"" + info[i].second +
           "\"";
    }
    s += "}, \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      char num[64];
      if (std::isinf(m.value)) {
        std::snprintf(num, sizeof num, "Infinity");
      } else {
        std::snprintf(num, sizeof num, "%.17g", m.value);
      }
      s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + m.unit + "\", \"n\": " + std::to_string(m.n) +
           "}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
  }
};

// Setup is repeated and its median reported, so work moved into set-up
// shows without one slow build swinging the number.
struct SetupTimes {
  std::vector<double> table_ms, exec_ms, warm_ms, total_s;
  void add(double table, double exec, double warm) {
    table_ms.push_back(table);
    exec_ms.push_back(exec);
    warm_ms.push_back(warm);
    total_s.push_back((table + exec + warm) / 1e3);
  }
};

// Enough repeats that the median spans about a second of host time on the
// slower set-ups: a single set-up lasts 15-120 ms, and the host's speed
// drifts over hundreds of ms.
constexpr int kSetupRepeats = 25;

inline double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

// What one measured phase leaves behind for the metrics.
struct PhaseResult {
  double secs = 0;               // measured wall time
  double hwm_mb = 0;             // VmHWM when the measured work ended
  std::uint64_t ops = 0;         // completed operations
  std::uint64_t failed = 0;      // requests that never completed
  std::vector<std::uint32_t> lat;   // latency samples, ns
  std::vector<std::uint32_t> late;  // generator lateness samples, ns
  double achieved_rate_ratio = 1.0;
  OpTotals tot;
  LockStats st;
  std::uint64_t freelist_ops = 0;
  std::uint64_t pool_slots = 0;  // descriptor + snapshot pool capacity at end
  ExecGauges ex;
  SelfTimes self;                // traced phases only

  // q-quantile over every request of the phase, in ns; failed requests
  // count as +inf.
  double latency(double q) const {
    std::vector<std::uint32_t> v = lat;
    return quantile(v, q, failed);
  }
  double ops_per_s() const { return ratio(static_cast<double>(ops), secs); }
};

// Pools only grow (a process preempted inside an EBR guard stalls
// reclamation), so their capacity is the reclamation backlog's high-water
// mark — what makes mem_peak_mb swing with scheduling luck.
template <typename Table>
std::uint64_t pool_slots(const Table& t) {
  std::uint64_t n = 0;
  for (std::uint32_t s = 0; s < t.num_shards(); ++s) {
    n += t.shard_desc_capacity(s) + t.shard_snap_capacity(s);
  }
  return n;
}

// End-to-end metrics (BENCHMARK.json end_to_end) of the untraced phase,
// plus the ungated tail percentiles.
inline void add_e2e_metrics(Report& r, const PhaseResult& p,
                            const SetupTimes& su) {
  const std::uint64_t n = p.lat.size() + p.failed;
  r.add("setup_s", median(su.total_s), "s", su.total_s.size());
  r.add("ops_per_s", p.ops_per_s(), "1/s", p.ops);
  r.add("p50_us", p.latency(0.5) / 1e3, "us", n);
  r.add("p90_us", p.latency(0.9) / 1e3, "us", n);
  r.add("p99_us", p.latency(0.99) / 1e3, "us", n);
  r.add("p999_us", p.latency(0.999) / 1e3, "us", n);
  r.add("win_rate", ratio(p.st.wins, static_cast<double>(p.st.attempts)),
        "ratio", p.st.attempts);
  r.add("steps_per_op", ratio(p.tot.steps, static_cast<double>(p.tot.ops)),
        "steps", p.tot.ops);
}

// Per-layer metric set shared by every workload (BENCHMARK.json per_layer).
// `bound` is the paper's kappa^2 L^2 T for max_work_over_bound.
inline void add_layer_metrics(Report& r, PhaseResult& p, double bound) {
  const double ops = static_cast<double>(p.ops);
  const double att = static_cast<double>(p.st.attempts);
  const double done = static_cast<double>(p.tot.ops);
  const LockStats& s = p.st;
  const ExecGauges& g = p.ex;
  r.add("wake_posts_per_op", ratio(g.wake_posts, ops), "ratio");
  r.add("wake_skip_ratio",
        ratio(g.wake_skips, static_cast<double>(g.wake_posts + g.wake_skips)),
        "ratio");
  r.add("steals_per_op", ratio(g.steals, ops), "ratio");
  r.add("parks_per_op", ratio(g.parks, ops), "ratio");
  r.add("wakes_per_op", ratio(g.wakes, ops), "ratio");
  r.add("signals_per_op", ratio(g.signals, ops), "ratio");
  r.add("fiber_reuse_ratio",
        ratio(g.fibers_reused,
              static_cast<double>(g.fibers_reused + g.fibers_created)),
        "ratio");
  r.add("live_ops_peak", static_cast<double>(g.live_ops_peak), "count");
  r.add("wedged_trials", 0, "count");
  r.add("attempts_per_op", ratio(p.tot.attempts, done), "ratio", p.tot.ops);
  r.add("backoff_steps_per_op", ratio(p.tot.backoff_steps, done), "steps",
        p.tot.ops);
  r.add("pre_reveal_steps", ratio(p.tot.pre_sum, done), "steps", p.tot.ops);
  r.add("post_reveal_steps", ratio(p.tot.post_sum, done), "steps", p.tot.ops);
  r.add("max_work_over_bound", ratio(p.tot.pre_max, bound), "ratio", p.tot.ops);
  r.add("helps_per_attempt", ratio(s.helps, att), "ratio");
  r.add("help_claim_skips_per_attempt", ratio(s.help_claim_skips, att),
        "ratio");
  r.add("thunk_runs_per_win", ratio(s.thunk_runs, static_cast<double>(s.wins)),
        "ratio");
  r.add("eliminations_per_attempt", ratio(s.eliminations, att), "ratio");
  r.add("fastpath_hits_per_attempt", ratio(s.fastpath_hits, att), "ratio");
  r.add("fastpath_revocations_per_attempt", ratio(s.fastpath_revocations, att),
        "ratio");
  r.add("t0_overruns", static_cast<double>(s.t0_overruns), "count");
  r.add("t1_overruns", static_cast<double>(s.t1_overruns), "count");
  r.add("log_slots_reset_per_attempt", ratio(s.log_slot_resets, att), "ratio");
  r.add("freelist_ops_per_attempt", ratio(p.freelist_ops, att), "ratio");
  r.add("pool_slots", static_cast<double>(p.pool_slots), "count");
  r.add("achieved_rate_ratio", p.achieved_rate_ratio, "ratio");
  const std::uint64_t nl = p.late.size();
  r.add("gen_late_p99_us", quantile(p.late, 0.99) / 1e3, "us", nl);
}

// Set-up breakdown and memory: VmHWM at the end of the untraced phase
// minus the RSS read once the benchmark's own arrays were touched.
inline void add_setup_metrics(Report& r, const SetupTimes& su, double mem_mb) {
  const std::uint64_t n = su.total_s.size();
  r.add("table_build_ms", median(su.table_ms), "ms", n);
  r.add("executor_build_ms", median(su.exec_ms), "ms", n);
  r.add("warmup_ms", median(su.warm_ms), "ms", n);
  r.add("mem_peak_mb", mem_mb, "MB");
}

// The traced phase's self times, plus the tracing overhead: the traced
// phase's p50 latency over the untraced phase's, same process and set-up.
inline void add_trace_metrics(Report& r, const PhaseResult& traced,
                              const PhaseResult& untraced) {
  SelfTimes t = traced.self;
  const std::uint64_t n = t.thunk.size();
  // The submission call: async_submit on the open loop, sync submit minus
  // its queue and thunk children on the closed ones. The name that does
  // not apply reads 0, as the executor gauges do off the executor.
  const double sub = quantile(t.submit, 0.5);
  r.add("async_submit_ns_p50", t.open_loop ? sub : 0.0, "ns", t.open_loop ? n : 0);
  r.add("submit_self_ns_p50", t.open_loop ? 0.0 : sub, "ns", t.open_loop ? 0 : n);
  r.add("queue_wait_us_p50", quantile(t.queue, 0.5) / 1e3, "us", n);
  r.add("queue_wait_us_p90", quantile(t.queue, 0.9) / 1e3, "us", n);
  r.add("thunk_ns_p50", quantile(t.thunk, 0.5), "ns", n);
  r.add("gen_self_ns_p50", quantile(t.gen, 0.5), "ns", n);
  const double base = untraced.latency(0.5);
  r.add("trace_overhead_frac",
        base > 0 ? traced.latency(0.5) / base - 1.0 : 0.0, "ratio",
        traced.lat.size());
}


}  // namespace suite

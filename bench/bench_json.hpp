// One shared JSON schema for the Google-Benchmark-based microbenchmarks.
//
// Every bench binary that uses WFL_BENCH_JSON_MAIN() emits, on stdout, a
// single JSON document:
//
//   {"schema": "wfl-bench-v1",
//    "benchmarks": [
//      {"name": "...", "threads": N, "ops_per_s": X, "p99_ns": Y}, ...]}
//
// so successive BENCH_*.json captures are directly comparable across
// binaries and across commits (same keys, same units, no console noise on
// stdout). Fields:
//
//   name      benchmark instance name (including /arg suffixes); one entry
//             per name — repetitions are folded into that entry
//   threads   ACTUAL worker-thread count of the run. Google Benchmark's
//             declared thread count by default; a benchmark that manages
//             its own workers overrides it by setting the reserved user
//             counter "wfl_threads" (consumed here, never emitted as an
//             extra key)
//   ops_per_s items/s when the benchmark calls SetItemsProcessed, else
//             iterations/s (mean across repetitions)
//   p99_ns    99th percentile of per-operation latency. Preferred source:
//             a per-thread latency reservoir the benchmark registered
//             through LatencyReservoirs (merged across threads and
//             repetitions — under multi-threaded runs the per-iteration
//             wall time is a thread-average, not a latency, so only a
//             reservoir gives a real tail). Fallback: per-iteration real
//             time across repetitions; with a single repetition that
//             degrades to the mean, flagged by "p99_is_mean": true. The
//             flag is DROPPED whenever a real distribution (reservoir)
//             backed the figure
//   p999_ns   99.9th percentile, same source rules as p99_ns. Only
//             emitted when a reservoir backed it: a fallback p999 from a
//             handful of per-repetition means is noise, not a tail, so
//             absent-key means "no real distribution was registered"
//             (v1-additive; consumers must ignore unknown keys)
//
// Additive (v1-compatible — consumers must ignore unknown keys): any
// user counter a benchmark registers through state.counters is emitted
// as an extra key on its entry (mean across repetitions). The wflock
// benches use this to surface the executor's unified Outcome accounting:
// "attempts_per_op" (tryLock attempts per logical operation, the
// executor's Outcome::attempts) and "win_rate" (1/attempts_per_op).
//
// Backend sweeps: a benchmark registered with a "/backend:NAME" segment in
// its name (the LockBackend registry convention — see
// wfl/baseline/backends.hpp) gets a `"backend": "NAME"` string key on its
// entry, so one capture holds directly comparable rows for every lock
// discipline. Likewise a "/contention:LEVEL" segment (bench_scaling's
// convention: "low" / "high") becomes a `"contention": "LEVEL"` key, so
// thread-sweep captures are filterable by regime.
//
// stdout carries only the JSON document, so
//   ./bench_hotpath > BENCH_hotpath.json
// captures a clean trajectory point. (Pass --benchmark_out=<file>
// --benchmark_out_format=json for Google Benchmark's own verbose schema.)
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wfl_bench {

// Merged per-thread latency reservoirs, keyed by benchmark base name.
// Worker threads push sampled per-op latencies (each under the mutex, once
// per thread at loop exit); the reporter computes the entry's p99_ns from
// the merged distribution — matching entries by base-name prefix, so the
// "/real_time" / "/threads:N" suffixes Google Benchmark appends at report
// time need not be reconstructed by the benchmark.
class LatencyReservoirs {
 public:
  static LatencyReservoirs& instance() {
    static LatencyReservoirs r;
    return r;
  }

  void record(const std::string& base_name,
              const std::vector<double>& ns_samples) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& dst = samples_[base_name];
    dst.insert(dst.end(), ns_samples.begin(), ns_samples.end());
  }

  // Longest base name that is a prefix of `entry_name` at a segment
  // boundary (exact match or followed by '/'); nullptr when none matched.
  const std::vector<double>* find(const std::string& entry_name) {
    std::lock_guard<std::mutex> lk(mu_);
    const std::vector<double>* best = nullptr;
    std::size_t best_len = 0;
    for (const auto& [base, samples] : samples_) {
      if (samples.empty() || base.size() < best_len) continue;
      if (entry_name.compare(0, base.size(), base) != 0) continue;
      if (entry_name.size() != base.size() &&
          entry_name[base.size()] != '/') {
        continue;
      }
      best = &samples;
      best_len = base.size();
    }
    return best;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  if (idx == 0) idx = 1;
  if (idx > v.size()) idx = v.size();
  return v[idx - 1];
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

class JsonSchemaReporter : public benchmark::BenchmarkReporter {
 public:
  explicit JsonSchemaReporter(std::ostream& out = std::cout) : out_(&out) {}

  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run_failed(run)) continue;
      // Aggregates (mean/median/...) are derivable from the folded
      // repetition samples; only raw iteration runs are collected.
      if (run.run_type == Run::RT_Aggregate) continue;
      Entry& e = entry_for(run.benchmark_name(), run.threads);
      // Benchmarks that spin up their own workers report the ACTUAL
      // worker count through the reserved "wfl_threads" counter; it
      // overrides the declared count and never appears as an extra key.
      const auto wt = run.counters.find("wfl_threads");
      if (wt != run.counters.end() && wt->second.value >= 1.0) {
        e.threads = static_cast<int>(wt->second.value);
      }
      const double ns = per_op_ns(run);
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        e.ops_per_s_sum += it->second.value;
      } else {
        e.ops_per_s_sum += ns > 0 ? 1e9 / ns : 0.0;
      }
      e.per_op_ns_samples.push_back(ns);
      // Fold user counters (executor Outcome fields and friends) into
      // additive per-entry keys; items_per_second already feeds ops_per_s.
      for (const auto& [cname, counter] : run.counters) {
        if (cname == "items_per_second" || cname == "wfl_threads") continue;
        auto& agg = e.counters[cname];
        agg.first += counter.value;
        agg.second += 1;
      }
    }
  }

  void Finalize() override { emit(); }

  // The runner only calls Finalize() when at least one benchmark ran; an
  // empty filter match would otherwise leave stdout without a document.
  // Idempotent, so calling it after RunSpecifiedBenchmarks is always safe.
  void ensure_emitted() { emit(); }

 private:
  void emit() {
    if (emitted_) return;
    emitted_ = true;
    std::ostream& o = *out_;
    o << "{\"schema\": \"wfl-bench-v1\", \"benchmarks\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      const std::size_t n = e.per_op_ns_samples.size();
      const double ops = n > 0 ? e.ops_per_s_sum / static_cast<double>(n) : 0;
      // p99 source, best first: a registered per-thread latency reservoir
      // (a real distribution — no degradation flag at all), then the
      // per-repetition samples (flagged p99_is_mean when a single
      // repetition reduces it to the mean).
      const std::vector<double>* reservoir =
          LatencyReservoirs::instance().find(e.name);
      double p99 = 0.0;
      if (reservoir != nullptr) {
        p99 = percentile(*reservoir, 0.99);
      } else if (n > 0) {
        p99 = percentile(e.per_op_ns_samples, 0.99);
      }
      o << "  {\"name\": \"" << json_escape(e.name) << "\""
        << ", \"threads\": " << e.threads
        << ", \"ops_per_s\": " << ops
        << ", \"p99_ns\": " << p99;
      if (reservoir == nullptr) {
        o << ", \"p99_is_mean\": " << (n > 1 ? "false" : "true");
      } else {
        // A real distribution also supports a deeper tail figure;
        // without one, p999 of a few repetition means would be noise.
        o << ", \"p999_ns\": " << percentile(*reservoir, 0.999);
      }
      const std::string backend = segment_of(e.name, "backend:");
      if (!backend.empty()) {
        o << ", \"backend\": \"" << json_escape(backend) << "\"";
      }
      const std::string contention = segment_of(e.name, "contention:");
      if (!contention.empty()) {
        o << ", \"contention\": \"" << json_escape(contention) << "\"";
      }
      for (const auto& [cname, agg] : e.counters) {
        if (agg.second == 0) continue;
        o << ", \"" << json_escape(cname)
          << "\": " << agg.first / static_cast<double>(agg.second);
      }
      o << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    o << "]}\n";
  }

  struct Entry {
    std::string name;
    int threads = 1;
    double ops_per_s_sum = 0.0;              // across repetitions
    std::vector<double> per_op_ns_samples;   // one per repetition
    // user counter -> (value sum, sample count); emitted as mean
    std::map<std::string, std::pair<double, int>> counters;
  };

  // "List_InsertErase/backend:turek/..." with key "backend:" -> "turek";
  // "" when the key segment is absent.
  static std::string segment_of(const std::string& name,
                                const std::string& key) {
    const std::size_t at = name.find(key);
    if (at == std::string::npos) return {};
    const std::size_t start = at + key.size();
    const std::size_t end = name.find('/', start);
    return name.substr(start,
                       end == std::string::npos ? end : end - start);
  }

  Entry& entry_for(const std::string& name, int threads) {
    for (Entry& e : entries_) {
      if (e.name == name && e.threads == threads) return e;
    }
    entries_.push_back(Entry{name, threads, 0.0, {}});
    return entries_.back();
  }

  // Run-failure check across Google Benchmark versions: 1.7 exposes
  // `bool error_occurred`, 1.8+ replaced it with the `skipped` enum.
  template <typename R>
  static bool run_failed(const R& run) {
    if constexpr (requires { run.error_occurred; }) {
      return run.error_occurred;
    } else if constexpr (requires { run.skipped; }) {
      return static_cast<int>(run.skipped) != 0;
    } else {
      return false;
    }
  }

  // Per-iteration wall time in nanoseconds, from the raw seconds counters
  // (unit-independent).
  static double per_op_ns(const Run& run) {
    if (run.iterations == 0) return 0.0;
    return run.real_accumulated_time * 1e9 /
           static_cast<double>(run.iterations);
  }

  std::ostream* out_;
  std::vector<Entry> entries_;
  bool emitted_ = false;
};

// `register_extra` runs after Initialize and before the run: the hook for
// runtime benchmark registration (backend-registry sweeps register one
// instance per backend through it).
template <typename Register>
int run_with_json_schema(int argc, char** argv, Register&& register_extra) {
  benchmark::Initialize(&argc, argv);
  register_extra();
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Sole display reporter: stdout carries exactly one JSON document. The
  // runner invokes Finalize() when the last benchmark completes.
  JsonSchemaReporter json(std::cout);
  json.SetOutputStream(&std::cerr);  // runner's own notes go to stderr
  json.SetErrorStream(&std::cerr);
  benchmark::RunSpecifiedBenchmarks(&json);
  json.ensure_emitted();  // zero matched benchmarks still emit "[]"
  benchmark::Shutdown();
  return 0;
}

inline int run_with_json_schema(int argc, char** argv) {
  return run_with_json_schema(argc, argv, [] {});
}

}  // namespace wfl_bench

#define WFL_BENCH_JSON_MAIN()                                 \
  int main(int argc, char** argv) {                           \
    return ::wfl_bench::run_with_json_schema(argc, argv);     \
  }

// Main with a runtime registration hook (backend-registry sweeps).
#define WFL_BENCH_JSON_MAIN_WITH(register_fn)                              \
  int main(int argc, char** argv) {                                        \
    return ::wfl_bench::run_with_json_schema(argc, argv, (register_fn));   \
  }

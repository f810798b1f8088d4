// Campaign driver: seed -> mutate -> replay -> oracle -> retain/shrink.
//
// The loop is the classic coverage-guided shape (AFL / NodeFz), specialized
// to schedules: the corpus holds Traces, the mutator edits grant/crash
// genomes, coverage is the feature map over StatsSlab deltas + rare-branch
// site taps, and the oracles are the repo's own checkers. Everything is
// deterministic given CampaignOptions::seed: the RNG stream is one
// Xoshiro, mutants are pure functions of (parent, seed draw), replays are
// pure functions of the trace. Re-running a campaign re-finds the same
// findings in the same order.
//
// Checked replay: every corpus-retained trace (and every minimized
// reproducer) is re-run bit-identically on CheckedPlat with the
// vector-clock race auditor attached. For the race_* seeded faults this IS
// the detector — the fault arms a PR 7-style engine-model mutation
// (dropped fence / downgraded order) that only the happens-before audit
// can see; the plain SimPlat replay is oblivious to it by construction.
//
// Wall-clock budget (max_ms) uses steady_clock and is therefore the one
// intentionally nondeterministic knob; CI uses it only as a backstop on
// top of a deterministic iteration budget.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "wfl/check/race.hpp"
#include "wfl/fuzz/corpus.hpp"
#include "wfl/fuzz/coverage.hpp"
#include "wfl/fuzz/mutate.hpp"
#include "wfl/fuzz/shrink.hpp"
#include "wfl/fuzz/trace.hpp"
#include "wfl/fuzz/workload.hpp"
#include "wfl/platform/checked.hpp"
#include "wfl/util/rng.hpp"

namespace wfl::fuzz {

// Bit-identical CheckedPlat replay with the race auditor attached. Arms the
// trace's engine-model mutation (race_* faults) for the duration; any
// findings the auditor raises are folded into the oracle verdict. Reuses an
// already-installed engine (the _checked test binaries install one at
// startup) or lazily installs a campaign-local one.
inline RunResult run_trace_checked(const Trace& t) {
  race::RaceEngine* eng = race::engine();
  if (eng == nullptr) {
    static race::RaceEngine local;
    local.install();
    eng = &local;
  }
  const std::optional<FaultSpec> f = parse_fault(t.fault);
  if (f.has_value() && f->engine_mutation) eng->set_mutation(f->mutation);
  eng->clear_findings();
  RunResult r = run_trace<CheckedPlat>(t);
  if (!eng->findings().empty()) {
    std::ostringstream os;
    eng->report(os);
    detail::fail(r, "race auditor findings in checked replay:\n" + os.str());
    r.ok = false;
  }
  eng->set_mutation({});
  eng->clear_findings();
  return r;
}

struct CampaignOptions {
  std::uint64_t iters = 400;     // mutation-loop budget (deterministic)
  std::uint64_t max_ms = 0;      // wall-clock backstop, 0 = none
  std::uint64_t seed = 1;        // campaign RNG seed
  std::string fault;             // seeded fault name, "" = clean campaign
  std::string corpus_in;         // extra seed traces (directory), optional
  std::string out_dir;           // minimized reproducers written here
  bool stop_on_finding = true;   // CI mode: first finding ends the run
  int shrink_budget = 250;       // predicate replays per minimization
  bool verbose = false;
};

struct Finding {
  Trace reproducer;              // minimized
  std::string failure;           // first oracle violation
  std::uint64_t found_at_iter = 0;
  int shrink_evals = 0;
};

struct CampaignResult {
  std::uint64_t iters_run = 0;
  std::uint64_t checked_replays = 0;
  std::size_t corpus_size = 0;
  std::size_t feature_bits = 0;
  std::vector<Finding> findings;
};

namespace detail {

// Built-in seed traces: the schedule families the existing suites already
// exercise (uniform, stall-burst, crash-at-slot), expressed as genomes.
// TraceSchedule's uniform tail means an empty prefix IS a UniformSchedule;
// bursts and crashes are literal genome entries.
inline std::vector<Trace> seed_traces(const std::string& fault) {
  std::vector<Trace> seeds;
  // Fault campaigns seed only the workload family that can express the
  // fault: mutators never change a trace's workload kind, so seeds from
  // unrelated families just dilute the mutation budget — enough that the
  // lost_wake gate stopped converging when the pressure family landed.
  // Clean campaigns (and soak) keep the full pool.
  std::vector<WorkloadKind> kinds = {
      WorkloadKind::kEngine, WorkloadKind::kAsync,
      WorkloadKind::kEnginePressure, WorkloadKind::kEngineWide};
  if (const std::optional<FaultSpec> f = parse_fault(fault); f.has_value()) {
    if (f->hook == Fault::kSkipRevalidate) {
      kinds = {WorkloadKind::kEngineWide};  // the token move's re-check
    } else if (f->hook != Fault::kNone) {
      kinds = {WorkloadKind::kAsync};  // executor wake-path hooks
    } else if (f->engine_mutation) {
      kinds = {WorkloadKind::kEngine, WorkloadKind::kEnginePressure};
    }
  }
  for (const WorkloadKind wk : kinds) {
    const FamilyShape shape = family_shape(wk);
    auto seed = [&](std::uint64_t sim_seed, std::uint64_t tail_seed) {
      Trace t;
      t.workload = wk;
      t.locks = shape.locks;
      t.procs = shape.procs;
      t.fault = fault;
      t.seed = sim_seed;
      t.tail_seed = tail_seed;
      t.slot_cap = shape.slot_cap;
      return t;
    };
    for (std::uint64_t s = 1; s <= 3; ++s) {  // plain uniform, 3 streams
      seeds.push_back(seed(s, s * 0x9E3779B97F4A7C15ULL + 1));
    }
    {  // stall-burst prefix: each pid monopolizes a 24-slot burst
      Trace t = seed(7, 0xD1B54A32D192ED03ULL);
      for (int p = 0; p < t.procs; ++p) {
        for (int i = 0; i < 24; ++i) {
          t.grants.push_back(static_cast<std::uint16_t>(p));
        }
      }
      seeds.push_back(t);
    }
    // Crash slots: early/mid/late in the round traffic, plus one deep in
    // the async workload's quiet-tail window (where the victim's parked
    // tail op is what the cancellation sweep must claim).
    for (const std::uint64_t slot : {40ULL, 400ULL, 2000ULL, 7000ULL}) {
      Trace t = seed(11, slot * 0xBF58476D1CE4E5B9ULL + 3);
      t.crashes.push_back({static_cast<int>(t.procs - 1), slot});
      seeds.push_back(t);
    }
  }
  return seeds;
}

// Failure class: the message up to the first ':' or newline. Shrinking
// preserves the class, not the full text — a candidate that fails a
// DIFFERENT oracle is a different bug and must not hijack the
// minimization (classic ddmin slippage).
inline std::string failure_kind(const std::string& failure) {
  const std::size_t cut = failure.find_first_of(":\n");
  return cut == std::string::npos ? failure : failure.substr(0, cut);
}

inline void log_finding(std::ostream& log, const Finding& f) {
  log << "FINDING (iter " << f.found_at_iter << "): " << f.failure << "\n"
      << "minimized reproducer (" << f.shrink_evals << " shrink evals):\n"
      << f.reproducer.save_string()
      << "[reproducer: seed=" << f.reproducer.seed
      << " slot=" << (f.reproducer.crashes.empty()
                          ? f.reproducer.slot_cap
                          : f.reproducer.crashes.front().slot)
      << " pid=" << (f.reproducer.crashes.empty()
                         ? -1
                         : f.reproducer.crashes.front().pid)
      << "]\n";
}

}  // namespace detail

class Campaign {
 public:
  explicit Campaign(const CampaignOptions& opts, std::ostream& log)
      : opts_(opts), log_(log), rng_(opts.seed) {}

  CampaignResult run() {
    const auto start = std::chrono::steady_clock::now();
    auto out_of_time = [&] {
      if (opts_.max_ms == 0) return false;
      const auto el = std::chrono::steady_clock::now() - start;
      return std::chrono::duration_cast<std::chrono::milliseconds>(el)
                 .count() >= static_cast<long>(opts_.max_ms);
    };

    // Seeding: built-in families plus any user corpus; every seed is
    // evaluated like a mutant (so failing seeds are found immediately and
    // their coverage primes the map).
    Corpus user;
    if (!opts_.corpus_in.empty()) user.load_dir(opts_.corpus_in);
    std::vector<Trace> seeds = detail::seed_traces(opts_.fault);
    for (std::size_t i = 0; i < user.size(); ++i) {
      Trace t = user.at(i);
      t.fault = opts_.fault;  // campaign fault overrides the file's
      seeds.push_back(t);
    }
    for (const Trace& t : seeds) {
      evaluate(t, /*iter=*/0);
      if ((opts_.stop_on_finding && !result_.findings.empty()) ||
          out_of_time()) {
        return finish();
      }
    }
    if (corpus_.empty()) corpus_.add(seeds.front());  // can't happen; belt

    // Mutation loop.
    for (std::uint64_t i = 1; i <= opts_.iters; ++i) {
      if (out_of_time()) break;
      const Trace& parent = corpus_.pick(rng_);
      Trace m = mutate(parent, rng_.next());
      m.fault = opts_.fault;
      result_.iters_run = i;
      evaluate(m, i);
      if (opts_.stop_on_finding && !result_.findings.empty()) break;
    }
    return finish();
  }

 private:
  CampaignResult finish() {
    result_.corpus_size = corpus_.size();
    result_.feature_bits = map_.bits_set();
    return result_;
  }

  void evaluate(const Trace& t, std::uint64_t iter) {
    const RunResult plain = run_trace<SimPlat>(t);
    const int fresh = map_.add(plain);
    std::string failure = plain.failure;
    bool failed = !plain.ok;

    if (!failed && fresh > 0) {
      // Interesting: retain, then audit the retained trace bit-identically
      // on CheckedPlat (this is also where race_* faults are caught).
      corpus_.add(t);
      const RunResult checked = run_trace_checked(t);
      ++result_.checked_replays;
      if (!checked.ok) {
        failed = true;
        failure = checked.failure;
      }
      if (opts_.verbose) {
        log_ << "iter " << iter << ": +" << fresh << " bits, corpus "
             << corpus_.size() << "\n";
      }
    }
    if (!failed) return;

    // Shrink against the layer that actually detected the failure, and
    // only accept candidates failing with the SAME failure class. In a
    // fault campaign a candidate must also pass with the fault stripped —
    // the reproducer's claim that the schedule alone is innocent. A fault
    // that moves step counts would otherwise let the slot-cap pass stop
    // just above the faulted run, below what the fault-free run needs.
    const bool via_checked = plain.ok;
    const std::string kind = detail::failure_kind(failure);
    const bool faulted = !opts_.fault.empty();
    FailPredicate pred = [via_checked, kind, faulted, this](const Trace& c) {
      RunResult r;
      if (via_checked) {
        r = run_trace_checked(c);
        ++result_.checked_replays;
      } else {
        r = run_trace<SimPlat>(c);
      }
      if (r.ok || detail::failure_kind(r.failure) != kind) return false;
      if (!faulted) return true;
      Trace clean = c;
      clean.fault.clear();
      return run_trace<SimPlat>(clean).ok;
    };
    ShrinkStats st;
    Finding f;
    f.reproducer = shrink(t, pred, opts_.shrink_budget, &st,
                          /*shrink_slot_cap=*/kind != "wedge");
    f.found_at_iter = iter;
    f.shrink_evals = st.evals;
    // Re-derive the minimized trace's failure string (the message the
    // regression test will assert on), preferring the detecting layer.
    const RunResult rmin =
        via_checked ? run_trace_checked(f.reproducer)
                    : run_trace<SimPlat>(f.reproducer);
    f.failure = rmin.failure.empty() ? failure : rmin.failure;
    if (via_checked) {
      ++result_.checked_replays;
    } else {
      // Every failing trace also gets the bit-identical audited replay:
      // the race engine sees the same schedule the finding came from.
      run_trace_checked(f.reproducer);
      ++result_.checked_replays;
    }
    detail::log_finding(log_, f);
    if (!opts_.out_dir.empty()) {
      std::filesystem::path dir(opts_.out_dir);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      const std::string name =
          "repro_" + std::to_string(result_.findings.size()) + ".trace";
      std::ofstream os(dir / name);
      if (os) {
        f.reproducer.save(os);
        log_ << "wrote " << (dir / name).string() << "\n";
      }
    }
    result_.findings.push_back(std::move(f));
  }

  CampaignOptions opts_;
  std::ostream& log_;
  Xoshiro256 rng_;
  Corpus corpus_;
  FeatureMap map_;
  CampaignResult result_;
};

inline CampaignResult run_campaign(const CampaignOptions& opts,
                                   std::ostream& log) {
  return Campaign(opts, log).run();
}

}  // namespace wfl::fuzz

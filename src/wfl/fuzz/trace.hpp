// Serializable schedule traces: the fuzzer's genome.
//
// A simulated execution is a pure function of (seed, grant sequence): the
// Simulator consults its Schedule once per slot and everything else —
// per-process RNG streams, step counts, memory effects — follows
// deterministically. A Trace captures exactly that pair plus the workload
// shape, so any execution the campaign ever saw (random exploration,
// mutant, shrunk reproducer) is a small text artifact that replays
// bit-identically on any machine, under SimPlat or CheckedPlat alike.
//
// Replay semantics (TraceSchedule): slot i takes grants[i] while the
// explicit prefix lasts, then falls back to uniform draws from a
// dedicated Xoshiro(tail_seed) stream. The fallback matters for two
// reasons: mutants may truncate or extend the prefix freely without the
// schedule running dry mid-run, and the shrinker exploits it — deleting
// grants from the tail is always legal. Crash entries are applied the
// same way CrashSchedule applies them (bounded redraw, then a
// deterministic scan), so a trace subsumes the crash-injection model and
// stays a pure function of construction data + slot index: the replayed
// adversary is still oblivious.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "wfl/sim/sim.hpp"
#include "wfl/util/rng.hpp"

namespace wfl::fuzz {

// Which harness replays the trace (fuzz/workload.hpp).
enum class WorkloadKind : std::uint8_t {
  kEngine = 0,     // direct submit() rounds: fast path, helping, crashes
  kAsync,          // AsyncExecutor inline mode: park/wake, cancellation
  kEngineSharded,  // sharded-table engine rounds: shard-straddling lock
                   // sets (cross-shard helping), own-lane
                   // fast-path reuse (cooldown expiry), hot-lock helping
                   // bursts (stale-claim revocation)
};

inline const char* workload_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kAsync: return "async";
    case WorkloadKind::kEngineSharded: return "engine_sharded";
    default: return "engine";
  }
}

struct Trace {
  static constexpr const char* kMagic = "wfl-fuzz-trace-v1";

  WorkloadKind workload = WorkloadKind::kEngine;
  int procs = 4;
  int locks = 2;
  std::uint64_t seed = 1;       // Simulator seed (per-process RNG streams)
  std::uint64_t tail_seed = 1;  // uniform fallback beyond the grant prefix
  std::uint64_t slot_cap = 200000;  // replay budget; overrun = wedge finding
  std::string fault;                // seeded-fault name, "" = clean tree
  std::vector<CrashSchedule::Crash> crashes;
  std::vector<std::uint16_t> grants;  // explicit slot->pid prefix

  bool operator==(const Trace& o) const {
    if (workload != o.workload || procs != o.procs || locks != o.locks ||
        seed != o.seed || tail_seed != o.tail_seed ||
        slot_cap != o.slot_cap || fault != o.fault ||
        grants != o.grants || crashes.size() != o.crashes.size()) {
      return false;
    }
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      if (crashes[i].pid != o.crashes[i].pid ||
          crashes[i].slot != o.crashes[i].slot) {
        return false;
      }
    }
    return true;
  }

  // Line-oriented text; field order fixed so serialization is canonical
  // (corpus dedup hashes the serialized form).
  void save(std::ostream& os) const {
    os << kMagic << "\n"
       << "workload " << workload_name(workload) << "\n"
       << "procs " << procs << "\n"
       << "locks " << locks << "\n"
       << "seed " << seed << "\n"
       << "tail_seed " << tail_seed << "\n"
       << "slot_cap " << slot_cap << "\n";
    if (!fault.empty()) os << "fault " << fault << "\n";
    for (const auto& c : crashes) {
      os << "crash " << c.pid << " " << c.slot << "\n";
    }
    os << "grants";
    for (std::uint16_t g : grants) os << " " << g;
    os << "\n";
  }

  std::string save_string() const {
    std::ostringstream os;
    save(os);
    return os.str();
  }

  // Returns false (leaving *this unspecified) on malformed input.
  bool load(std::istream& is) {
    *this = Trace{};
    grants.clear();
    crashes.clear();
    fault.clear();
    std::string line;
    if (!std::getline(is, line) || line != kMagic) return false;
    bool saw_grants = false;
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      std::istringstream ls(line);
      std::string key;
      ls >> key;
      if (key == "workload") {
        std::string v;
        ls >> v;
        if (v == "engine") {
          workload = WorkloadKind::kEngine;
        } else if (v == "async") {
          workload = WorkloadKind::kAsync;
        } else if (v == "engine_sharded") {
          workload = WorkloadKind::kEngineSharded;
        } else {
          return false;
        }
      } else if (key == "procs") {
        if (!(ls >> procs) || procs < 1 || procs > 1024) return false;
      } else if (key == "locks") {
        if (!(ls >> locks) || locks < 1 || locks > 65536) return false;
      } else if (key == "seed") {
        if (!(ls >> seed)) return false;
      } else if (key == "tail_seed") {
        if (!(ls >> tail_seed)) return false;
      } else if (key == "slot_cap") {
        if (!(ls >> slot_cap) || slot_cap == 0) return false;
      } else if (key == "fault") {
        if (!(ls >> fault)) return false;
      } else if (key == "crash") {
        CrashSchedule::Crash c{};
        if (!(ls >> c.pid >> c.slot)) return false;
        crashes.push_back(c);
      } else if (key == "grants") {
        unsigned g = 0;
        while (ls >> g) grants.push_back(static_cast<std::uint16_t>(g));
        saw_grants = true;
      } else {
        return false;  // unknown key: refuse rather than mis-replay
      }
    }
    if (!saw_grants) return false;
    for (std::uint16_t g : grants) {
      if (static_cast<int>(g) >= procs) return false;
    }
    for (const auto& c : crashes) {
      if (c.pid < 0 || c.pid >= procs) return false;
    }
    return crashes.size() < static_cast<std::size_t>(procs);
  }

  bool load_string(const std::string& s) {
    std::istringstream is(s);
    return load(is);
  }
};

// Replays a Trace's grant prefix, then uniform tail draws; applies crash
// entries with CrashSchedule's own redraw discipline.
class TraceSchedule final : public Schedule {
 public:
  // `apply_crashes = false` replays the grant stream WITHOUT the crash
  // filter: the async workload interprets the trace's crashes
  // cooperatively (the victim must keep running to cancel itself), so
  // filtering the victim out of the schedule would strand it mid-cycle —
  // a wedge with no bug. The engine workload keeps the filter (paper's
  // crash model: the victim simply never runs again).
  explicit TraceSchedule(const Trace& t, bool apply_crashes = true)
      : trace_(&t), apply_crashes_(apply_crashes), tail_rng_(t.tail_seed),
        crash_rng_(t.tail_seed ^ kCrashStream) {}

  int next() override {
    const std::uint64_t slot = slot_++;
    int pick;
    if (slot < trace_->grants.size()) {
      pick = static_cast<int>(trace_->grants[slot]);
    } else {
      pick = static_cast<int>(tail_rng_.next_below(
          static_cast<std::uint64_t>(trace_->procs)));
    }
    // Same bounded-redraw-then-scan as CrashSchedule: stays a pure
    // function of (trace, slot), i.e. oblivious.
    for (int tries = 0; crashed_at(pick, slot) && tries < trace_->procs;
         ++tries) {
      pick = static_cast<int>(crash_rng_.next_below(
          static_cast<std::uint64_t>(trace_->procs)));
    }
    for (int off = 0; crashed_at(pick, slot) && off < trace_->procs; ++off) {
      pick = (pick + 1) % trace_->procs;
    }
    return pick;
  }

 private:
  static constexpr std::uint64_t kCrashStream = 0x9E3779B97F4A7C15ULL;

  bool crashed_at(int pid, std::uint64_t slot) const {
    if (!apply_crashes_) return false;
    for (const auto& c : trace_->crashes) {
      if (c.pid == pid && slot >= c.slot) return true;
    }
    return false;
  }

  const Trace* trace_;
  bool apply_crashes_;
  Xoshiro256 tail_rng_;
  Xoshiro256 crash_rng_;
  std::uint64_t slot_ = 0;
};

// Wraps any schedule and records every grant, turning an exploratory run
// (uniform, stall-burst, crash-composed) into a replayable Trace prefix.
class TraceRecorder final : public Schedule {
 public:
  explicit TraceRecorder(Schedule& inner) : inner_(&inner) {}

  int next() override {
    const int pid = inner_->next();
    grants_.push_back(static_cast<std::uint16_t>(pid));
    return pid;
  }

  const std::vector<std::uint16_t>& grants() const { return grants_; }

 private:
  Schedule* inner_;
  std::vector<std::uint16_t> grants_;
};

}  // namespace wfl::fuzz

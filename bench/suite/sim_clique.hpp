// sim_clique: the paper's Algorithm 3 (DelayMode::kTheory) under the
// deterministic simulator. kappa = 4 processes repeatedly transfer between
// the same L = 2 locks (thunk budget T = 8) under an oblivious stall-burst
// schedule, each op submit(Policy::retry()).
//
// Every count this workload reports — attempts, wins, own steps, helps,
// eliminations, overruns — is a pure function of the seed and the op count,
// so it repeats bit for bit on any machine; the "digest" info line carries
// them for that comparison. The paper's two claims become checks:
// the Wilson-99 lower bound of the per-attempt win rate must clear
// 1/(kappa L), and no attempt may overrun its T0/T1 delay budget.
// Wall-clock metrics (ops_per_s, p50_us) time the simulated ops and so
// move with the engine's per-step cost.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "suite.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/session.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"

namespace suite::sim {

using Plat = wfl::SimPlat;
using Table = wfl::LockTable<Plat>;
using Cell = wfl::Cell<Plat>;

constexpr std::uint32_t kKappa = 4;
constexpr std::uint32_t kL = 2;
constexpr std::uint32_t kT = 8;
constexpr std::uint64_t kBurst = 4096;
constexpr std::uint32_t kInitial = 1'000'000;
constexpr int kWarmupOps = 5;  // per process, in each set-up
// Simulated ops (all processes) per requested second, measured on a
// 4-vCPU x86-64 VM (~1.5M simulated steps/s). Sizes a phase from --secs
// while keeping its counts a function of the arguments alone.
constexpr double kOpsPerSec = 330;

inline wfl::LockConfig config() {
  wfl::LockConfig cfg;
  cfg.kappa = kKappa;
  cfg.max_locks = kL;
  cfg.max_thunk_steps = kT;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  cfg.delay_mode = wfl::DelayMode::kTheory;
  return cfg;
}

struct ProcSlots {
  std::vector<std::uint32_t> lat;
  std::vector<std::uint32_t> late;
  std::vector<SpanRec> spans;
  OpTotals tot;
};

// One simulated execution: a fresh table, two account cells and a
// simulator with kKappa processes of `ops` transfers each.
struct Episode {
  std::unique_ptr<Table> table;
  Cell a{kInitial};
  Cell b{kInitial};
  std::unique_ptr<wfl::Simulator> sim;
  std::vector<ProcSlots>* slots = nullptr;  // null: do not record
  int ops = 0;
  bool traced = false;
  std::int64_t start = 0;  // run() start

  void body(int p) {
    wfl::Session<Plat> s(*table);
    ProcSlots* sl = slots != nullptr ? &(*slots)[static_cast<std::size_t>(p)]
                                     : nullptr;
    for (int k = 0; k < ops; ++k) {
      const std::int64_t top = now_ns();
      const bool fwd = ((p + k) & 1) == 0;
      const std::int64_t call = now_ns();
      SpanRec* sp = nullptr;
      if (sl != nullptr && traced) {
        sp = &sl->spans[static_cast<std::size_t>(k)];
        sp->base = call;
        sp->gen = clamp_ns(call - top);
      }
      const Outcome o = wfl::submit(
          s, wfl::StaticLockSet<2>{0, 1},
          TransferThunk<Plat>{fwd ? &a : &b, fwd ? &b : &a, sp},
          wfl::Policy::retry());
      if (sl == nullptr) continue;
      const std::int64_t ret = now_ns();
      const auto i = static_cast<std::size_t>(k);
      sl->lat[i] = clamp_ns(ret - call);
      sl->late[i] = clamp_ns(call - top);
      if (sp != nullptr) sp->call = clamp_ns(ret - call);
      sl->tot.add(o);
    }
  }

  // Builds table and cells (returns ms) — the simulator comes separately
  // so set-up can time the two layers apart.
  double build_table() {
    const std::int64_t t = now_ns();
    table = std::make_unique<Table>(config(), static_cast<int>(kKappa),
                                    static_cast<int>(kL));
    return ms_since(t);
  }
  double build_sim(std::uint64_t seed) {
    const std::int64_t t = now_ns();
    sim = std::make_unique<wfl::Simulator>(seed);
    for (int p = 0; p < static_cast<int>(kKappa); ++p) {
      sim->add_process([this, p] { body(p); });
    }
    return ms_since(t);
  }
  bool run(std::uint64_t seed) {
    wfl::StallBurstSchedule sched(static_cast<int>(kKappa), seed ^ 0xBEEF,
                                  kBurst);
    start = now_ns();
    return sim->run(sched, ~std::uint64_t{0} >> 1);
  }
};

inline void setup(SetupTimes& su, int i) {
  Episode e;
  e.ops = kWarmupOps;
  const double table_ms = e.build_table();
  const double sim_ms = e.build_sim(0x5E7u + static_cast<std::uint64_t>(i));
  const std::int64_t t = now_ns();
  WFL_CHECK(e.run(0x5E7u + static_cast<std::uint64_t>(i)));
  su.add(table_ms, sim_ms, ms_since(t));
}

inline int ops_per_proc(double secs) {
  return std::max(1, static_cast<int>(std::lround(secs * kOpsPerSec / kKappa)));
}

inline void size_slots(std::vector<ProcSlots>& slots, int ops, bool traced) {
  slots.resize(kKappa);
  for (ProcSlots& sl : slots) {
    sl.lat.assign(static_cast<std::size_t>(ops), 0);
    sl.late.assign(static_cast<std::size_t>(ops), 0);
    if (traced) sl.spans = std::vector<SpanRec>(static_cast<std::size_t>(ops));
  }
}

inline double wilson_lower(double wins, double n, double z = 2.576) {
  if (n <= 0) return 0.0;
  const double p = wins / n;
  const double z2 = z * z;
  return (p + z2 / (2 * n) -
          z * std::sqrt(p * (1 - p) / n + z2 / (4 * n * n))) /
         (1 + z2 / n);
}

inline PhaseResult phase(std::vector<ProcSlots>& slots, std::uint64_t seed,
                         int ops, bool traced, Report& r) {
  PhaseResult p;
  Episode e;
  e.ops = ops;
  e.slots = &slots;
  e.traced = traced;
  e.build_table();
  e.build_sim(seed);
  const bool finished = e.run(seed);
  p.secs = static_cast<double>(now_ns() - e.start) / 1e9;
  p.hwm_mb = proc_status_mb("VmHWM");
  r.check(finished, "simulation did not finish");
  r.check(std::uint64_t{e.a.peek()} + e.b.peek() == 2ull * kInitial,
          "transfers did not conserve the balance");
  p.st = e.table->stats();
  p.freelist_ops = e.table->freelist_ops();
  p.pool_slots = pool_slots(*e.table);
  for (ProcSlots& sl : slots) {
    p.tot.merge(sl.tot);
    p.lat.insert(p.lat.end(), sl.lat.begin(), sl.lat.end());
    p.late.insert(p.late.end(), sl.late.begin(), sl.late.end());
    for (std::size_t i = 0; i < sl.spans.size(); ++i) {
      p.self.add(sl.spans[i], true);
    }
  }
  p.ops = p.tot.ops;

  const LockStats& s = p.st;
  r.check(s.t0_overruns == 0 && s.t1_overruns == 0, "delay overruns");
  const double floor = 1.0 / (kKappa * kL);
  const double lower = wilson_lower(static_cast<double>(s.wins),
                                    static_cast<double>(s.attempts));
  r.check(lower >= floor, "win rate below 1/(kappa L) at 99% confidence");
  r.info.push_back({traced ? "digest_traced" : "digest",
                    "ops=" + std::to_string(p.tot.ops) +
                        " attempts=" + std::to_string(s.attempts) +
                        " wins=" + std::to_string(s.wins) +
                        " steps=" + std::to_string(p.tot.steps) +
                        " helps=" + std::to_string(s.helps) +
                        " eliminations=" + std::to_string(s.eliminations) +
                        " thunk_runs=" + std::to_string(s.thunk_runs) +
                        " pre_max=" + std::to_string(p.tot.pre_max) +
                        " overruns=" +
                        std::to_string(s.t0_overruns + s.t1_overruns)});
  r.info.push_back({"win_rate_wilson99_lower", std::to_string(lower)});
  return p;
}

}  // namespace suite::sim

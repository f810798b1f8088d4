// Fuzz workload harnesses: replay a Trace, evaluate the oracles, report
// features.
//
// Four workloads cover the runtime stacks the campaign targets:
//
//   * kEngine — direct submit() rounds over a small lock clique under
//     DelayMode::kOff with the fast path and cooperative helping on:
//     thin-word publish/revoke, expiring help claims, and EBR cooldowns
//     all live here. Trace crashes are applied at the SCHEDULE level
//     (the victim's fiber simply never runs again), which is the paper's
//     crash model verbatim — mid-attempt, mid-fast-path-publish and
//     mid-help-claim crash points fall out of slot granularity.
//
//   * kEnginePressure — the same engine harness over 8 locks and 6 procs
//     with deliberately small pools (reclamation pressure walks the EBR
//     epochs fast enough for cooldown tokens to expire inside a run) and a
//     three-beat lock pattern: own-lane singles (fast-path
//     publish/release, then a re-acquire that lands inside or just past
//     the EBR cooldown — kSiteCooldownResume), neighbouring pairs
//     {l, l+1} (descriptors whose helpers read them under the table's one
//     guard), and all-procs hot-lock beats run at claim_patience 2, where
//     overlapping help-claim tenures go stale inside a run —
//     kSiteClaimExpiry (see EngineShape::claim_patience for why the
//     production threshold is out of reach of any bounded schedule). The
//     plain engine workload (2 locks, 4 procs) never reaches these
//     branches, so they were dead weight in the feature map until this
//     config.
//
//   * kEngineWide — the same engine harness over 8 locks and 6 procs with
//     attempts of up to kMaxLocksPerAttempt locks. Even rounds take an
//     ascending window of 3..8 locks whose width and start move with proc
//     and round, so rivals' lock sets overlap in part — a shared middle
//     and private ends, the shape of a tree erase or a graph
//     neighbourhood. Odd rounds are the validate-in-thunk beat of
//     LockedList: read a token's lane without a lock, lock {src, dst},
//     and move the token only if the thunk still finds it on src. The
//     kSkipRevalidate fault drops that re-check; the token oracle below
//     catches it.
//
//   * kAsync — AsyncExecutor inline mode (workers = 0, the
//     sim-deterministic configuration): park/wake, wake-one signal
//     delivery, and cancellation sweeps. Crashes here are COOPERATIVE: a
//     victim checks its crash slot between pipeline rounds, then stops
//     submitting, abandons its outstanding tickets, and cancel_client()s
//     itself mid-traffic. Schedule-level crashes would be unsound for
//     this workload: in inline mode any fiber may be driving another
//     client's cycle when it stops being scheduled, which strands that
//     op's inline latch — a wedge with no bug, i.e. a false positive.
//     The cooperative model keeps every cancellation path (including the
//     post-run drain the kShutdownHang fault sabotages) honestly
//     reachable, while the slot-granular crash point still rides the
//     trace.
//
// Oracles, in the order they are consulted:
//   1. wedge — the Simulator watchdog (report mode) at the trace's
//      slot_cap: survivors/waiters failing to finish is a finding, never
//      a ctest hang;
//   2. MutexAudit — Definition 4.3 mutual exclusion + idempotence, with
//      crash slack exactly as the crash suites apply it;
//   3. conservation — shared counter vs. reported wins, and (engine_wide)
//      each lane's token count vs. the tokens whose lane names it;
//   4. linearizability — LinChecker over the per-round register
//      increments (crash-free runs with histories inside the DFS budget);
//   5. (separately, fuzz/campaign.hpp) a bit-identical CheckedPlat
//      replay of retained/failing traces with the full race auditor.
//
// Everything lives on the harness main frame — sessions, clients,
// tickets, result slots. Fiber stacks hold only PODs and references, so
// a run that ends with suspended fibers (a schedule-level crash victim,
// or a wedge finding) still tears down leak-free: RAII on the main frame
// abandons crash-parked slots and drains in-flight ops.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "wfl/check/linchk.hpp"
#include "wfl/check/mutex_audit.hpp"
#include "wfl/core/async_executor.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/session.hpp"
#include "wfl/fuzz/coverage.hpp"
#include "wfl/fuzz/sites.hpp"
#include "wfl/fuzz/trace.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"

namespace wfl::fuzz {

// Seeded faults a trace may carry (the `fault` line). Two g_fault hooks
// live in async_executor.hpp and one in the engine_wide token move below;
// the race_* entries arm engine-model mutations during the CheckedPlat
// replay instead.
struct FaultSpec {
  Fault hook = Fault::kNone;
  bool engine_mutation = false;
  race::RaceEngine::Mutation mutation{};
};

inline std::optional<FaultSpec> parse_fault(const std::string& name) {
  FaultSpec f;
  if (name.empty()) return f;
  if (name == "lost_wake") {
    f.hook = Fault::kLostWake;
    return f;
  }
  if (name == "shutdown_hang") {
    f.hook = Fault::kShutdownHang;
    return f;
  }
  if (name == "skip_revalidate") {
    f.hook = Fault::kSkipRevalidate;
    return f;
  }
  using Mutation = race::RaceEngine::Mutation;
  if (name == "race_drop_fence") {
    f.engine_mutation = true;
    f.mutation = {Mutation::Kind::kDropFence, race::Site::kEbrPublishFence,
                  std::memory_order_relaxed};
    return f;
  }
  if (name == "race_downgrade_thin") {
    f.engine_mutation = true;
    f.mutation = {Mutation::Kind::kDowngradeOrder, race::Site::kThinPublish,
                  std::memory_order_relaxed};
    return f;
  }
  if (name == "race_downgrade_ebr_exit") {
    f.engine_mutation = true;
    f.mutation = {Mutation::Kind::kDowngradeOrder, race::Site::kEbrExit,
                  std::memory_order_relaxed};
    return f;
  }
  return std::nullopt;
}

// Simulator::run checks its own slot budget BEFORE the watchdog prologue,
// so the harness always runs "unbounded" and lets the armed watchdog (at
// the trace's slot_cap) be the real bound — that way a wedge produces the
// dump instead of a silent budget exit.
inline constexpr std::uint64_t kNoSlotCap = ~std::uint64_t{0};

// Each family's geometry: the locks, procs and slot cap its built-in seed
// traces carry (campaign.hpp), and the lock count the pressure and wide
// beats are written for — their harnesses take it from here, not from a
// trace. The slot cap is ~3x the longest seed run: generous enough that no
// live schedule trips it, small enough that a wedged replay (and each
// failing shrink candidate after one) costs milliseconds, not the file
// format's default.
struct FamilyShape {
  int locks;
  int procs;
  std::uint64_t slot_cap;
};

inline constexpr FamilyShape family_shape(WorkloadKind k) {
  switch (k) {
    // 8 lanes: the pressure own-lane beat really is per-process, and the
    // widest window spans kMaxLocksPerAttempt. 6 procs: the hot-lock beat
    // needs enough simultaneous helpers that claim tenures overlap at
    // all, and six windows per round cover every width from 3 to 8.
    case WorkloadKind::kEnginePressure: return {8, 6, 30000};
    // A wide run takes ~30k slots, and up to ~85k when a crashed winner's
    // 8-lock section is re-run by every later attempt that meets it.
    case WorkloadKind::kEngineWide: return {8, 6, 250000};
    default: return {2, 4, 30000};
  }
}

namespace detail {

inline LockConfig fuzz_cfg(int procs) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs);
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 16;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  cfg.delay_mode = DelayMode::kOff;  // fast path + helping + async live here
  return cfg;
}

inline void fail(RunResult& r, const std::string& what) {
  if (r.ok) {
    r.ok = false;
    r.failure = what;
  }
}

// Per-round lock-set choice plus the table geometry it runs against; the
// engine harness body is shared between the plain, pressure and wide
// configs. `pick` writes up to max_locks ascending ids and returns the
// count.
struct EngineShape {
  int rounds;
  int locks;
  SpaceSizing sizing;
  std::uint32_t (*pick)(int p, int r, int locks, std::uint32_t* ids);
  // Per-round acquisition policy. The pressure config retries its hot-lock
  // beat until it wins: claim tenures only ever overlap (the precondition
  // for skip accumulation and eventually kSiteClaimExpiry) when rivals
  // restart attempts densely enough to observe each other mid-drive, and
  // a bounded attempts() budget under a hostile schedule never gets
  // there.
  Policy (*policy)(int r);
  // Help-claim patience for this config (LockConfig::claim_patience).
  // The production default (16) makes kSiteClaimExpiry structurally
  // unreachable in a bounded run: expiry needs one claim tenure to absorb
  // patience+1 foreign observations, but every observer that skips also
  // duels the claimed descriptor with a fresh uniform priority afterwards,
  // so the descriptor dies (or the claimer finishes) an order of magnitude
  // earlier — measured across >10k adversarial grant genomes the best
  // single tenure absorbed 8. The pressure config runs patience 2 so the
  // revoke-and-drive branch is under real coverage pressure; the branch
  // body is identical at every threshold.
  std::uint32_t claim_patience;
  // LockConfig::max_locks and max_thunk_steps. A thunk is
  // MutexAudit::guard (4L + 2 steps) plus the register load and store;
  // plain and pressure keep their historical 2 and 16.
  std::uint32_t max_locks;
  std::uint32_t max_thunk_steps;
  // Odd rounds run the token move (TokenBeat) instead of `pick`.
  bool token_beat;
};

// Plain clique: odd rounds take the {0,1} pair, even rounds spread.
inline std::uint32_t pick_engine_plain(int p, int r, int locks,
                                       std::uint32_t* ids) {
  if (r % 2 == 1 && locks >= 2) {
    ids[0] = 0;
    ids[1] = 1;
    return 2;
  }
  ids[0] = static_cast<std::uint32_t>((p + r) % locks);
  return 1;
}

// Pressure three-beat (see header): own lane, neighbouring pair, hot lock.
// Pairs use l in [0, locks-2] so ids stay ascending without wrapping.
// The hot beat is FOUR consecutive rounds, not one: a lone hot round ends
// as soon as each proc wins once, so help-claim tenures barely overlap;
// sustained single-lock pressure is what stacks a second and third
// observation onto a live claim before its holder finishes the drive.
inline std::uint32_t pick_engine_pressure(int p, int r, int locks,
                                          std::uint32_t* ids) {
  switch (r % 6) {
    case 0:
      ids[0] = static_cast<std::uint32_t>(p % locks);
      return 1;
    case 1: {
      const std::uint32_t l =
          static_cast<std::uint32_t>((p + r) % (locks - 1));
      ids[0] = l;
      ids[1] = l + 1;
      return 2;
    }
    default:
      ids[0] = 0;
      return 1;
  }
}

// Wide windows: an ascending run of 3..8 locks (needs locks >= 8). Width
// and start both move with proc and round, so the six procs of a round
// take every width, and rivals' windows share some locks but not all.
inline std::uint32_t pick_engine_wide(int p, int r, int locks,
                                      std::uint32_t* ids) {
  const int width = 3 + (p + r) % 6;
  const int start = (2 * p + r) % (locks - width + 1);
  for (int i = 0; i < width; ++i) {
    ids[i] = static_cast<std::uint32_t>(start + i);
  }
  return static_cast<std::uint32_t>(width);
}

inline Policy policy_attempts4(int) { return Policy::attempts(4); }
inline Policy policy_pressure(int r) {
  return r % 6 >= 2 ? Policy::retry() : Policy::attempts(4);
}

inline EngineShape plain_shape(const Trace& t) {
  return {/*rounds=*/6,         /*locks=*/t.locks,
          SpaceSizing{},        &pick_engine_plain,
          &policy_attempts4,    /*claim_patience=*/16,
          /*max_locks=*/2,      /*max_thunk_steps=*/16,
          /*token_beat=*/false};
}

inline EngineShape pressure_shape() {
  EngineShape sh = plain_shape(Trace{});
  sh.rounds = 12;  // two full own/pair/hot*4 beats (see pick_engine_pressure)
  sh.locks = family_shape(WorkloadKind::kEnginePressure).locks;
  // Small pools: reclamation pressure is what walks the EBR epochs fast
  // enough for cooldown tokens to expire inside a run.
  sh.sizing.snap_pool_capacity = 1280;
  sh.sizing.desc_pool_capacity = 384;
  sh.pick = &pick_engine_pressure;
  sh.policy = &policy_pressure;
  sh.claim_patience = 2;  // see EngineShape — keeps expiry reachable
  return sh;
}

inline EngineShape wide_shape() {
  EngineShape sh = plain_shape(Trace{});
  sh.rounds = 8;  // four window rounds, four token moves
  sh.locks = family_shape(WorkloadKind::kEngineWide).locks;
  sh.pick = &pick_engine_wide;
  sh.max_locks = kMaxLocksPerAttempt;
  sh.max_thunk_steps = MutexAudit<SimPlat>::thunk_ops(kMaxLocksPerAttempt) + 2;
  sh.token_beat = true;
  return sh;
}

// The token move of the wide shape's odd rounds. `src` came from an
// unlocked read of `where`, so by the time the thunk runs another move may
// have taken the token elsewhere: the thunk re-checks under {src, dst} and
// moves only a token still on src. Lives on the harness main frame, like
// the lock ids, so a late helped replay reads the op's own values.
template <typename Plat>
struct TokenMove {
  Cell<Plat>* where = nullptr;  // the token's lane
  Cell<Plat>* from = nullptr;   // token counts of lanes src and dst
  Cell<Plat>* to = nullptr;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;

  void run(IdemCtx<Plat>& m) const {
    const std::uint32_t at = m.load(*where);
    if (at != src && !fault_on(Fault::kSkipRevalidate)) return;
    m.store(*where, dst);
    m.store(*from, m.load(*from) - 1);
    m.store(*to, m.load(*to) + 1);
  }
};

// The wide shape's token state: each token's lane, and per lane the number
// of tokens on it. Token k starts on lane 3k.
template <typename Plat>
struct TokenBeat {
  static constexpr std::uint32_t kTokens = 3;
  std::uint32_t locks;
  std::deque<Cell<Plat>> where, on_lane;
  std::vector<TokenMove<Plat>> moves;  // one per op slot

  TokenBeat(int num_locks, std::size_t nops)
      : locks(static_cast<std::uint32_t>(num_locks)), moves(nops) {
    for (std::uint32_t l = 0; l < locks; ++l) on_lane.emplace_back(0u);
    for (std::uint32_t k = 0; k < kTokens; ++k) {
      const std::uint32_t lane = (3 * k) % locks;
      where.emplace_back(lane);
      on_lane[lane].init(on_lane[lane].peek() + 1);
    }
  }

  // Proc p's move in round r: reads its token's lane WITHOUT a lock (a
  // stepped read that may be stale by the time the thunk runs), picks
  // another lane, and writes the ascending pair to `ids`.
  const TokenMove<Plat>* arm(int p, int r, std::size_t slot,
                             std::uint32_t* ids) {
    const auto pr = static_cast<std::uint32_t>(p + r);
    Cell<Plat>& w = where[pr % kTokens];
    TokenMove<Plat>& tm = moves[slot];
    tm.src = w.load_direct();
    tm.dst = (tm.src + 1 + pr % (locks - 1)) % locks;
    tm.where = &w;
    tm.from = &on_lane[tm.src];
    tm.to = &on_lane[tm.dst];
    ids[0] = std::min(tm.src, tm.dst);
    ids[1] = std::max(tm.src, tm.dst);
    return &tm;
  }

  // Sum over lanes of |lane count - tokens whose lane names it|.
  std::uint64_t imbalance() const {
    std::uint64_t off = 0;
    for (std::uint32_t l = 0; l < locks; ++l) {
      std::uint32_t tokens = 0;
      for (const Cell<Plat>& w : where) tokens += w.peek() == l ? 1 : 0;
      const std::uint32_t counted = on_lane[l].peek();
      off += counted > tokens ? counted - tokens : tokens - counted;
    }
    return off;
  }
};

}  // namespace detail

// --- engine workload --------------------------------------------------------

template <typename Plat>
RunResult run_engine_shape(const Trace& t, const detail::EngineShape& sh) {
  const int kRounds = sh.rounds;
  const int procs = t.procs;
  const int locks = sh.locks;
  LockConfig cfg = detail::fuzz_cfg(procs);
  cfg.claim_patience = sh.claim_patience;
  cfg.max_locks = sh.max_locks;
  cfg.max_thunk_steps = sh.max_thunk_steps;

  RunResult result;
  SiteTable sites;
  SiteScope site_scope(sites);

  LockTable<Plat> space(cfg, procs, locks, sh.sizing);
  MutexAudit<Plat> audit(locks);
  // One register per lock, indexed by an op's FIRST lock id: every writer
  // of regs[l] holds lock l (single-lock ops on l, or a pair whose lowest
  // lock is l), so each register individually sees a mutually excluded
  // writer set. One shared register would NOT be protected — a lock-0-only
  // op and a lock-1-only op are allowed to run concurrently.
  std::deque<Cell<Plat>> regs;
  for (int l = 0; l < locks; ++l) regs.emplace_back(0u);

  // Main-frame result slots (plain memory; written between model steps).
  const std::size_t nops = static_cast<std::size_t>(procs) * kRounds;
  std::vector<std::uint8_t> op_won(nops, 0);
  std::vector<std::uint32_t> op_first_lock(nops, 0);
  std::vector<std::uint32_t> op_val(nops, 0);
  std::vector<std::uint64_t> op_invoke(nops, 0), op_response(nops, 0);
  // Per-op lock-id storage that outlives the SUBMIT, not just the fiber
  // frame: a helper that pinned the descriptor may replay the thunk after
  // the owner's attempt returned and its stack slots were reused for the
  // next round — a replay reading reused ids would guard the WRONG cells
  // (and its single-shot stores can land, since fresh cells share the
  // initial word). The audit would then report a phantom collision.
  std::vector<std::uint32_t> op_ids(nops * kMaxLocksPerAttempt, 0);
  std::optional<detail::TokenBeat<Plat>> beat;
  if (sh.token_beat) beat.emplace(locks, nops);

  // Sessions on the main frame: a schedule-crashed victim's slot is
  // abandoned by ~Session, not by a destructor on a suspended stack.
  std::deque<Session<Plat>> sessions;
  for (int p = 0; p < procs; ++p) sessions.emplace_back(space);

  Simulator sim(t.seed);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      // (The fiber's inline capture storage is 128 bytes: read the round
      // and lock counts through `sh` rather than capturing copies.)
      for (int r = 0; r < sh.rounds; ++r) {
        const std::size_t slot = static_cast<std::size_t>(p) * sh.rounds +
                                 static_cast<std::size_t>(r);
        std::uint32_t* ids = &op_ids[slot * kMaxLocksPerAttempt];
        std::uint32_t n;
        const detail::TokenMove<Plat>* mv = nullptr;
        if (beat.has_value() && r % 2 == 1) {
          mv = beat->arm(p, r, slot, ids);
          n = 2;
        } else {
          n = sh.pick(p, r, sh.locks, ids);
        }
        op_first_lock[slot] = ids[0];
        result.lock_set_sizes |= 1u << n;
        StaticLockSet<> ls(std::span<const std::uint32_t>(ids, n), cfg);
        MutexAudit<Plat>* aud = &audit;
        Cell<Plat>* reg = &regs[ids[0]];
        std::uint32_t* val_out = &op_val[slot];
        const std::uint32_t* idp = ids;  // stable for late helped replays
        const std::uint32_t idn = n;
        op_invoke[slot] = sim.slots_used();
        const Outcome out = submit(
            sessions[static_cast<std::size_t>(p)], ls,
            [aud, reg, val_out, idp, idn, mv](IdemCtx<Plat>& m) {
              aud->guard(m, {idp, idn});
              const std::uint32_t v = m.load(*reg);
              m.store(*reg, v + 1);
              *val_out = v;  // idempotent: replays rewrite the agreed value
              if (mv != nullptr) mv->run(m);
            },
            sh.policy(r));
        op_response[slot] = sim.slots_used();
        op_won[slot] = out.won ? 1 : 0;
      }
    });
  }

  sim.enable_watchdog(t.slot_cap, /*fail_hard=*/false);
  TraceSchedule sched(t);
  for (;;) {
    bool survivors_done = true;
    for (int p = 0; p < procs; ++p) {
      bool victim = false;
      for (const auto& c : t.crashes) victim = victim || c.pid == p;
      if (!victim && !sim.is_finished(p)) survivors_done = false;
    }
    if (survivors_done) break;
    if (sim.watchdog_fired() ||
        !sim.run(sched, kNoSlotCap, sim.finished_count() + 1)) {
      result.wedged = true;
      detail::fail(result, "wedge: survivors unfinished at slot cap\n" +
                               sim.watchdog_dump());
      break;
    }
  }
  result.slots = sim.slots_used();

  // --- oracles ---
  std::vector<std::uint64_t> wins_by_first_lock(
      static_cast<std::size_t>(locks), 0);
  std::uint64_t total_wins = 0;
  for (std::size_t i = 0; i < nops; ++i) {
    if (op_won[i] != 0) {
      ++wins_by_first_lock[op_first_lock[i]];
      ++total_wins;
    }
  }
  const std::uint64_t slack = t.crashes.size();  // <= 1 in-flight per victim
  const auto rep = audit.audit(wins_by_first_lock, slack,
                               /*allow_inflight_flags=*/true);
  if (rep.flag_violations != 0) {
    detail::fail(result, "mutual exclusion violated (busy-flag collision)");
  }
  if (rep.lost_updates != 0) detail::fail(result, "lost critical sections");
  if (rep.duplicated_runs != 0) {
    detail::fail(result, "duplicated critical sections");
  }
  const std::uint64_t max_raised =
      t.crashes.empty() ? 0 : sh.max_locks * slack;
  if (rep.raised_flags > max_raised) {
    detail::fail(result, "busy flags raised beyond crash in-flight bound");
  }
  // Conservation, per register: one increment per win on that register's
  // lock, plus (globally) at most one unrecorded in-flight win per victim.
  std::uint64_t excess = 0;
  for (int l = 0; l < locks; ++l) {
    const std::uint64_t counted = regs[static_cast<std::size_t>(l)].peek();
    const std::uint64_t wins_l = wins_by_first_lock[static_cast<std::size_t>(l)];
    if (counted < wins_l) {
      detail::fail(result, "register conservation violated (lost increment)");
    } else {
      excess += counted - wins_l;
    }
  }
  if (excess > slack) {
    detail::fail(result, "register conservation violated (extra increments)");
  }
  // Token conservation: each lane's count equals the tokens whose lane
  // names it. A victim's won move can stop part-way (lane stored, counts
  // not yet), leaving at most two lanes off by one each.
  if (beat.has_value() && beat->imbalance() > 2 * slack) {
    detail::fail(result,
                 "token conservation violated (lane count != tokens on it)");
  }
  // Linearizability of register 0's won increments (complete histories
  // only; all writers of regs[0] hold lock 0).
  const std::uint64_t wins0 = wins_by_first_lock[0];
  if (result.ok && t.crashes.empty() && wins0 > 0 && wins0 <= 63) {
    std::vector<LinOp> hist;
    for (std::size_t i = 0; i < nops; ++i) {
      if (op_won[i] == 0 || op_first_lock[i] != 0) continue;
      LinOp op;
      op.proc = static_cast<int>(i) / kRounds;
      op.invoke = op_invoke[i];
      op.response = op_response[i];
      op.kind = RegisterModel::kCas;
      op.arg = op_val[i];
      op.arg2 = op_val[i] + 1;
      op.ret = 1;
      hist.push_back(op);
    }
    LinChecker<RegisterModel> chk;
    if (!chk.check(hist)) {
      detail::fail(result, "increment history not linearizable");
    }
  }

  RunResult::append_stats(result.features, space.stats());
  RunResult::append_sites(result.features, sites);
  result.features.push_back(result.slots);
  result.features.push_back(result.wedged ? 1 : 0);
  result.features.push_back(0);  // async-only lanes stay fixed-width
  result.features.push_back(0);
  result.features.push_back(0);
  return result;
}

template <typename Plat>
RunResult run_engine_trace(const Trace& t) {
  return run_engine_shape<Plat>(t, detail::plain_shape(t));
}

template <typename Plat>
RunResult run_engine_pressure_trace(const Trace& t) {
  return run_engine_shape<Plat>(t, detail::pressure_shape());
}

template <typename Plat>
RunResult run_engine_wide_trace(const Trace& t) {
  return run_engine_shape<Plat>(t, detail::wide_shape());
}

// --- async workload ---------------------------------------------------------

template <typename Plat>
RunResult run_async_trace(const Trace& t) {
  constexpr int kRounds = 3;
  constexpr int kPipeline = 3;
  // Quiet-tail phase (after a barrier, so no round traffic overlaps): each
  // survivor submits one ONE-SHOT op and one retry op on the hot lock, then
  // drives a short parking window before its crash point. The tail is what
  // makes the seeded wake-path faults observable at all: with retry-only
  // traffic every op eventually wins and its own release event wakes the
  // next parked waiter, so a dropped re-delivery (kLostWake) is always
  // surplus. A one-shot op, though, can exhaust its policy WHILE holding an
  // absorbed signal — complete()'s re-delivery is then the last baton on
  // the lock, and dropping it strands a parked waiter with no rescue
  // traffic behind it. Likewise a victim crashing here can leave a PARKED
  // op for cancel_client to claim — the exact sweep kShutdownHang skips.
  constexpr int kTail = 3;  // two one-shot ops + one retry op
  constexpr int kParkWindow = 96;
  constexpr int kCrashHold = 160;  // max slots a due crash waits for a park
  const int procs = t.procs;
  const int locks = t.locks;
  const LockConfig cfg = detail::fuzz_cfg(procs);

  RunResult result;
  SiteTable sites;
  SiteScope site_scope(sites);

  LockTable<Plat> space(cfg, procs, locks);
  MutexAudit<Plat> audit(locks);
  // One register per lock, indexed by an op's FIRST lock id (same scheme
  // as the engine workload): cold-lock-only round ops have a writer set
  // disjoint from the lock-0 ops', so a single shared register would not
  // be mutually excluded.
  std::deque<Cell<Plat>> regs;
  for (int l = 0; l < locks; ++l) regs.emplace_back(0u);

  const std::size_t per_proc =
      static_cast<std::size_t>(kRounds) * kPipeline + 1 + kTail;
  const std::size_t nops = static_cast<std::size_t>(procs) * per_proc;
  std::vector<std::uint8_t> op_won(nops, 0), op_waited(nops, 0);
  std::vector<std::uint8_t> op_once(nops, 0);
  std::vector<std::uint32_t> op_first_lock(nops, 0), op_val(nops, 0);
  std::vector<std::uint64_t> op_invoke(nops, 0), op_response(nops, 0);
  std::vector<std::uint8_t> crashed(static_cast<std::size_t>(procs), 0);
  // Per-op lock-id storage that outlives fibers (audit spans point here).
  std::vector<std::uint32_t> op_ids(nops * 2, 0);

  std::deque<Session<Plat>> sessions;
  std::deque<AsyncClient<Plat>> clients;
  for (int p = 0; p < procs; ++p) {
    sessions.emplace_back(space);
    clients.emplace_back(sessions.back());
  }
  // Executor after sessions, tickets after executor: tickets die first.
  AsyncExecutor<Plat> exec(space, {.workers = 0});
  std::vector<typename AsyncExecutor<Plat>::Ticket> tickets(nops);

  Simulator sim(t.seed);
  // Fiber stacks hold only a frame pointer + two scalars: the fiber
  // FixedFunction has 128 bytes of inline capture storage, far less than
  // the ~18 references this harness needs.
  struct Frame {
    Simulator* sim;
    AsyncExecutor<Plat>* exec;
    std::deque<AsyncClient<Plat>>* clients;
    std::vector<typename AsyncExecutor<Plat>::Ticket>* tickets;
    MutexAudit<Plat>* audit;
    std::deque<Cell<Plat>>* regs;
    std::uint8_t* op_won;
    std::uint8_t* op_waited;
    std::uint8_t* op_once;
    std::uint32_t* op_first_lock;
    std::uint32_t* op_val;
    std::uint64_t* op_invoke;
    std::uint64_t* op_response;
    std::uint8_t* crashed;
    std::uint32_t* op_ids;
    const LockConfig* cfg;
    int locks;
    int procs;
    std::size_t per_proc;
    // Quiet-tail barrier: every fiber bumps this exactly once (on crash or
    // on finishing its rounds); tails begin only when all have. Plain
    // atomic — harness bookkeeping, not model state.
    std::atomic<int> arrived{0};
    // Second barrier between the cold flurry and the hot tail.
    std::atomic<int> arrived2{0};
  };
  Frame frame{&sim,          &exec,
              &clients,      &tickets,
              &audit,        &regs,
              op_won.data(), op_waited.data(),
              op_once.data(),
              op_first_lock.data(), op_val.data(),
              op_invoke.data(),     op_response.data(),
              crashed.data(),       op_ids.data(),
              &cfg,          locks,
              procs,         per_proc};
  for (int p = 0; p < procs; ++p) {
    std::uint64_t crash_slot = ~std::uint64_t{0};
    for (const auto& c : t.crashes) {
      if (c.pid == p) crash_slot = c.slot;
    }
    sim.add_process([fr = &frame, p, crash_slot] {
      auto& client = (*fr->clients)[static_cast<std::size_t>(p)];
      bool arrived_done = false;   // barrier bumps owed unless already paid
      bool arrived2_done = false;
      auto crash_now = [fr, p, &client, &arrived_done, &arrived2_done] {
        fr->crashed[static_cast<std::size_t>(p)] = 1;
        if (!arrived_done) {
          fr->arrived.fetch_add(1, std::memory_order_relaxed);
          arrived_done = true;
        }
        if (!arrived2_done) {
          fr->arrived2.fetch_add(1, std::memory_order_relaxed);
          arrived2_done = true;
        }
        fr->exec->cancel_client(client);
      };
      // Crash hold: once past its crash slot the victim steps WITHOUT
      // driving cycles (running its own ops to completion would destroy
      // the state under test) until the executor shows a parked op, then
      // cancels — landing the sweep's parked-claim (the branch the
      // kShutdownHang fault skips) on the window it exists for. Parks are
      // rare transients, so an unconditional crash nearly always lands on
      // queued/running ops; the hold is bounded, crashing anyway after
      // the grace expires.
      auto crash_due = [fr, crash_slot, &crash_now] {
        if (fr->sim->slots_used() < crash_slot) return false;
        for (int g = 0; g < kCrashHold; ++g) {
          if (fr->exec->parks() > fr->exec->wakes()) break;
          Plat::step();
        }
        crash_now();
        return true;
      };
      for (int r = 0; r < kRounds; ++r) {
        // Cooperative crash: stop submitting, abandon outstanding
        // tickets, cancel pending work mid-traffic (see header).
        if (crash_due()) return;
        const std::size_t base = static_cast<std::size_t>(p) * fr->per_proc +
                                 static_cast<std::size_t>(r) * kPipeline;
        for (int j = 0; j < kPipeline; ++j) {
          const std::size_t slot = base + static_cast<std::size_t>(j);
          std::uint32_t* ids = &fr->op_ids[slot * 2];
          std::uint32_t n;
          if ((p + r + j) % 3 == 2 && fr->locks >= 2) {
            ids[0] = 0;
            ids[1] = 1;
            n = 2;
          } else if ((p + r + j) % 3 == 1 && fr->locks >= 2) {
            // Cold-lock-only ops: their wait nodes hear NOTHING from the
            // hot lock, so once cold-lock round traffic dries up there is
            // no rescue for a stranded cold waiter. A crashed client's
            // parked cold op that the sweep fails to claim (kShutdownHang)
            // later swallows the final cold baton and the live waiter
            // behind it wedges — on lock 0 the all-hot quiet tail would
            // always re-rescue it.
            ids[0] = 1;
            n = 1;
          } else {
            ids[0] = 0;  // hot lock: park/wake chains form here
            n = 1;
          }
          fr->op_first_lock[slot] = ids[0];
          StaticLockSet<2> ls(std::span<const std::uint32_t>(ids, n),
                              *fr->cfg);
          MutexAudit<Plat>* aud = fr->audit;
          Cell<Plat>* reg = &(*fr->regs)[ids[0]];
          std::uint32_t* val_out = &fr->op_val[slot];
          const std::uint32_t* idp = ids;
          const std::uint32_t idn = n;
          // Cold-only ops get a LONG critical section (padding loads). An
          // op parks only when its losing attempt reaches the park CAS
          // before the holder's release event lands — short bodies make
          // that window nearly unhittable (the release arrives mid-help
          // and converts the park into an immediate retry). Long cold
          // holds make cold losers park routinely, which is the raw
          // material for every parked-claim scenario the sweep owns.
          const int pad = (n == 1 && ids[0] == 1) ? 8 : 0;
          fr->op_invoke[slot] = fr->sim->slots_used();
          (*fr->tickets)[slot] = fr->exec->async_submit(
              client, ls,
              [aud, reg, val_out, idp, idn, pad](IdemCtx<Plat>& m) {
                aud->guard(m, {idp, idn});
                const std::uint32_t v = m.load(*reg);
                for (int x = 0; x < pad; ++x) (void)m.load(*reg);
                m.store(*reg, v + 1);
                *val_out = v;
              },
              Policy::retry());
        }
        // The mid-pipeline crash point: submitted-but-unawaited ops may
        // be queued or parked right now — exactly the work the
        // cancellation sweep must rescue (and the kShutdownHang fault
        // strands).
        if (crash_due()) return;
        for (int j = 0; j < kPipeline; ++j) {
          // Crash point between waits: ops of this client may be PARKED
          // right now (they lost to round traffic while we waited on an
          // earlier ticket) — the state the cancellation sweep's
          // parked-claim exists for.
          if (crash_due()) return;
          const std::size_t slot = base + static_cast<std::size_t>(j);
          const Outcome& out = (*fr->tickets)[slot].wait();
          fr->op_response[slot] = fr->sim->slots_used();
          fr->op_won[slot] = out.won ? 1 : 0;
          fr->op_waited[slot] = 1;
        }
      }
      // Quiet-tail barrier: wait for every fiber (crashed ones counted at
      // their crash point) so no round traffic can rescue a stranded tail
      // waiter. Spinning drives leftover cycles rather than burning slots.
      fr->arrived.fetch_add(1, std::memory_order_relaxed);
      arrived_done = true;
      while (fr->arrived.load(std::memory_order_relaxed) < fr->procs) {
        // Crash point: a fast fiber spends thousands of slots here while
        // stragglers finish rounds — without a check, every crash slot
        // in that span would collapse onto the first tail-window check.
        if (fr->sim->slots_used() >= crash_slot) {
          crash_now();
          return;
        }
        if (fr->exec->run_ready(1) == 0) Plat::step();
      }
      // Cold flurry: one long-critical-section cold op per survivor,
      // submitted together right after the barrier — the LAST cold-lock
      // traffic in the run. Long holds make the losers park densely; a
      // victim crashing here holds its cancellation until ITS OWN op is
      // parked (Ticket::parked), leaving exactly the state the sweep's
      // parked-claim must rescue. Once the flurry resolves nothing ever
      // posts a cold-lock event again, so a wake swallowed by an
      // unclaimed dead op (kShutdownHang skips the claim; the woken dead
      // op cancel-completes without re-posting) permanently strands the
      // parked waiter behind it — and that waiter's flurry wait below
      // wedges the run at the watchdog.
      const std::size_t fslot = static_cast<std::size_t>(p) * fr->per_proc +
                                static_cast<std::size_t>(kRounds) * kPipeline;
      if (fr->locks >= 2) {
        std::uint32_t* ids = &fr->op_ids[fslot * 2];
        ids[0] = 1;
        fr->op_first_lock[fslot] = 1;
        StaticLockSet<2> ls(std::span<const std::uint32_t>(ids, 1),
                            *fr->cfg);
        MutexAudit<Plat>* aud = fr->audit;
        Cell<Plat>* reg = &(*fr->regs)[1];
        std::uint32_t* val_out = &fr->op_val[fslot];
        const std::uint32_t* idp = ids;
        fr->op_invoke[fslot] = fr->sim->slots_used();
        (*fr->tickets)[fslot] = fr->exec->async_submit(
            client, ls,
            [aud, reg, val_out, idp](IdemCtx<Plat>& m) {
              aud->guard(m, {idp, 1});
              const std::uint32_t v = m.load(*reg);
              for (int x = 0; x < 8; ++x) (void)m.load(*reg);
              m.store(*reg, v + 1);
              *val_out = v;
            },
            Policy::retry());
        for (int s = 0; s < kParkWindow; ++s) {
          if (fr->sim->slots_used() >= crash_slot) {
            if ((*fr->tickets)[fslot].parked()) {
              crash_now();
              return;
            }
            Plat::step();
            continue;
          }
          if (fr->exec->run_ready(1) == 0) Plat::step();
        }
        if (fr->sim->slots_used() >= crash_slot) {
          crash_now();
          return;
        }
        const Outcome& fout = (*fr->tickets)[fslot].wait();
        fr->op_response[fslot] = fr->sim->slots_used();
        fr->op_won[fslot] = fout.won ? 1 : 0;
        fr->op_waited[fslot] = 1;
      }
      // Second barrier: the hot tail begins only after every cold-flurry
      // wait resolves, so no hot-tail traffic overlaps a cold strand.
      fr->arrived2.fetch_add(1, std::memory_order_relaxed);
      arrived2_done = true;
      while (fr->arrived2.load(std::memory_order_relaxed) < fr->procs) {
        if (fr->sim->slots_used() >= crash_slot) {
          crash_now();
          return;
        }
        if (fr->exec->run_ready(1) == 0) Plat::step();
      }
      const std::size_t tb = static_cast<std::size_t>(p) * fr->per_proc +
                             static_cast<std::size_t>(kRounds) * kPipeline + 1;
      for (int k = 0; k < kTail; ++k) {
        const std::size_t slot = tb + static_cast<std::size_t>(k);
        std::uint32_t* ids = &fr->op_ids[slot * 2];
        ids[0] = 0;  // everyone on the hot lock: the wake chain under test
        fr->op_first_lock[slot] = 0;
        fr->op_once[slot] = (k + 1 < kTail) ? 1 : 0;
        StaticLockSet<2> ls(std::span<const std::uint32_t>(ids, 1), *fr->cfg);
        MutexAudit<Plat>* aud = fr->audit;
        Cell<Plat>* reg = &(*fr->regs)[0];
        std::uint32_t* val_out = &fr->op_val[slot];
        const std::uint32_t* idp = ids;
        fr->op_invoke[slot] = fr->sim->slots_used();
        (*fr->tickets)[slot] = fr->exec->async_submit(
            client, ls,
            [aud, reg, val_out, idp](IdemCtx<Plat>& m) {
              aud->guard(m, {idp, 1});
              const std::uint32_t v = m.load(*reg);
              m.store(*reg, v + 1);
              *val_out = v;
            },
            k + 1 < kTail ? Policy::one_shot() : Policy::retry());
      }
      // Parking window: let the tail ops lose and park under contention.
      // A crashing client holds its cancellation until the executor
      // actually has a parked op: past its crash slot it stops driving
      // cycles (running its own retry op to completion would destroy the
      // very state under test) and steps until a park is visible, then
      // cancels — landing the sweep's parked-claim (and the kShutdownHang
      // fault that skips it) exactly on the window it exists for. The
      // hold is bounded by the window; the ticket waits below keep the
      // unconditional fallback so a pending crash always lands.
      for (int s = 0; s < kParkWindow; ++s) {
        if (fr->sim->slots_used() >= crash_slot) {
          if (fr->exec->parks() > fr->exec->wakes()) {
            crash_now();
            return;
          }
          Plat::step();
          continue;
        }
        if (fr->exec->run_ready(1) == 0) Plat::step();
      }
      for (int k = 0; k < kTail; ++k) {
        if (fr->sim->slots_used() >= crash_slot) {
          crash_now();
          return;
        }
        const std::size_t slot = tb + static_cast<std::size_t>(k);
        const Outcome& out = (*fr->tickets)[slot].wait();
        fr->op_response[slot] = fr->sim->slots_used();
        fr->op_won[slot] = out.won ? 1 : 0;
        fr->op_waited[slot] = 1;
      }
    });
  }

  sim.enable_watchdog(t.slot_cap, /*fail_hard=*/false);
  TraceSchedule sched(t, /*apply_crashes=*/false);  // cooperative crashes
  if (!sim.run(sched, kNoSlotCap)) {
    result.wedged = true;
    detail::fail(result, "wedge: async waiters unfinished at slot cap\n" +
                             sim.watchdog_dump());
  }
  result.slots = sim.slots_used();

  // Post-run drain: a crashed client's leftovers must cancel out within
  // a bounded number of sweeps — the kShutdownHang detector. (Runs with
  // the trace's fault still armed; the caller owns the FaultScope.)
  for (int p = 0; p < procs; ++p) {
    if (crashed[static_cast<std::size_t>(p)] != 0) {
      exec.cancel_client(clients[static_cast<std::size_t>(p)]);
    }
  }
  for (int iter = 0; iter < 64 && exec.in_flight() != 0; ++iter) {
    exec.run_ready(0);
    for (int p = 0; p < procs; ++p) {
      if (crashed[static_cast<std::size_t>(p)] != 0) {
        exec.cancel_client(clients[static_cast<std::size_t>(p)]);
      }
    }
  }
  if (!result.wedged && exec.in_flight() != 0) {
    detail::fail(result,
                 "async drain wedged: " + std::to_string(exec.in_flight()) +
                     " ops still in flight after cancellation sweeps");
  }

  // --- oracles ---
  std::vector<std::uint64_t> wins_by_first_lock(
      static_cast<std::size_t>(locks), 0);
  std::uint64_t total_wins = 0;
  bool any_crash = false;
  for (int p = 0; p < procs; ++p) any_crash |= crashed[p] != 0;
  for (std::size_t i = 0; i < nops; ++i) {
    // A retry-policy op that was waited must have won; abandoned or
    // undrained ops may be cancelled, and one-shot tail ops may lose.
    if (op_waited[i] != 0 && op_won[i] == 0 && op_once[i] == 0 &&
        !result.wedged) {
      detail::fail(result, "awaited retry-policy submission lost");
    }
    if (op_won[i] != 0) {
      ++wins_by_first_lock[op_first_lock[i]];
      ++total_wins;
    }
  }
  if (!result.wedged) {
    // Thunks may also have run for abandoned ops (cancellation raced a
    // win) — those are wins the ticket side never recorded. Bound the
    // slack by the victims' possible outstanding ops.
    const std::uint64_t slack =
        any_crash ? static_cast<std::uint64_t>(t.crashes.size()) * per_proc
                  : 0;
    const auto rep = audit.audit(wins_by_first_lock, slack,
                                 /*allow_inflight_flags=*/true);
    if (rep.flag_violations != 0) {
      detail::fail(result, "mutual exclusion violated (busy-flag collision)");
    }
    if (rep.lost_updates != 0) detail::fail(result, "lost critical sections");
    if (rep.duplicated_runs != 0) {
      detail::fail(result, "duplicated critical sections");
    }
    if (!any_crash && rep.raised_flags != 0) {
      detail::fail(result, "busy flag raised after quiescent drain");
    }
    for (int l = 0; l < locks; ++l) {
      const std::uint64_t counted = regs[static_cast<std::size_t>(l)].peek();
      const std::uint64_t wins = wins_by_first_lock[static_cast<std::size_t>(l)];
      if (counted < wins || counted > wins + slack) {
        detail::fail(result, "register conservation violated");
      }
    }
    if (result.ok && !any_crash && total_wins > 0 && total_wins <= 63) {
      // Linearizability of register 0's increments only: every writer of
      // regs[0] holds lock 0; cold-lock ops write their own register.
      std::vector<LinOp> hist;
      for (std::size_t i = 0; i < nops; ++i) {
        if (op_won[i] == 0 || op_waited[i] == 0 || op_first_lock[i] != 0) {
          continue;
        }
        LinOp op;
        op.proc = static_cast<int>(i / per_proc);
        op.invoke = op_invoke[i];
        op.response = op_response[i];
        op.kind = RegisterModel::kCas;
        op.arg = op_val[i];
        op.arg2 = op_val[i] + 1;
        op.ret = 1;
        hist.push_back(op);
      }
      LinChecker<RegisterModel> chk;
      if (!chk.check(hist)) {
        detail::fail(result, "increment history not linearizable");
      }
    }
  }

  RunResult::append_stats(result.features, space.stats());
  RunResult::append_sites(result.features, sites);
  result.features.push_back(result.slots);
  result.features.push_back(result.wedged ? 1 : 0);
  result.features.push_back(exec.parks());
  result.features.push_back(exec.wakes());
  result.features.push_back(exec.signals());

  // Teardown safety: whatever happened above (including a wedge with
  // suspended fibers), complete every op before tickets/executor die.
  // The seeded fault must not gate this final drain — it is cleanup, not
  // oracle — so suspend it for the rest of this scope.
  const Fault armed = g_fault.exchange(Fault::kNone);
  for (auto& c : clients) exec.cancel_client(c);
  for (int iter = 0; iter < 64 && exec.in_flight() != 0; ++iter) {
    exec.run_ready(0);
    for (auto& c : clients) exec.cancel_client(c);
  }
  if (exec.in_flight() != 0) {
    // A wedged run left ops stranded on suspended fibers (kRunning
    // mid-cycle, or waiters spinning in Ticket::wait). run_ready cannot
    // reach those from here — only the fibers themselves can. Resume the
    // simulation with the fault disarmed and every client cancelled:
    // each stranded cycle concludes its attempt, sees its dead client,
    // and cancel-completes; each waiter's op goes kDone and the wait
    // returns. Bounded, because cancellation needs no lock-table
    // progress. Without this, ~AsyncExecutor's shutdown drain would spin
    // forever and a wedge finding could never be torn down.
    RoundRobinSchedule rescue(procs);
    sim.run(rescue, sim.slots_used() + 16 * t.slot_cap + 65536);
    for (int iter = 0; iter < 64 && exec.in_flight() != 0; ++iter) {
      exec.run_ready(0);
      for (auto& c : clients) exec.cancel_client(c);
    }
    WFL_CHECK_MSG(exec.in_flight() == 0,
                  "async rescue drain failed: executor teardown would hang");
  }
  g_fault.store(armed);
  return result;
}

// --- dispatch + checked replay ---------------------------------------------

// Plain replay: arms the trace's g_fault hook (if any) for the duration.
template <typename Plat>
RunResult run_trace(const Trace& t) {
  const std::optional<FaultSpec> f = parse_fault(t.fault);
  if (!f.has_value()) {
    RunResult r;
    detail::fail(r, "unknown fault name: " + t.fault);
    return r;
  }
  FaultScope scope(f->hook);
  switch (t.workload) {
    case WorkloadKind::kAsync: return run_async_trace<Plat>(t);
    case WorkloadKind::kEnginePressure:
      return run_engine_pressure_trace<Plat>(t);
    case WorkloadKind::kEngineWide: return run_engine_wide_trace<Plat>(t);
    default: return run_engine_trace<Plat>(t);
  }
}

}  // namespace wfl::fuzz

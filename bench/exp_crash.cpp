// E14 — availability under a crash: the motivation for wait-free locks,
// measured.
//
// Setup (identical across disciplines — ONE driver, templated on the
// LockBackend registry): 4 processes contend on a pair of locks via
// one-shot submissions of the same counter-increment thunk; at a fixed
// slot, one process is crash-failed by the (oblivious) CrashSchedule — the
// model's "arbitrarily delayed" taken to the limit. We measure what
// happens to the survivors:
//
//   * wflock (this paper): attempts keep completing in bounded own-steps;
//     any won-but-unfinished thunk of the victim is completed by the first
//     overlapping attempt (celebrateIfWon), so the data stays consistent
//     and post-crash success rates stay at their fair level.
//   * turek (lock-free helping): survivors help the victim's operation to
//     completion and release its locks on its behalf; post-crash progress
//     continues (lock-free), though with no fairness bound.
//   * spin2pl try-lock: if the crash lands while the victim HOLDS a lock,
//     the lock is held forever; every later attempt on it fails. Attempts
//     still *terminate* (bounded patience), but post-crash success on the
//     contended pair drops to zero — blocked, in the way that matters.
//
// Because whether the crash slot lands inside the victim's critical
// section is schedule luck, the experiment sweeps seeds and reports, per
// backend: how many runs left a lock permanently held ("wedged"), the
// survivors' post-crash completed operations, and whether every survivor
// finished its loop.
//
// Output: human table on stderr; stdout carries one wfl-bench-v1 JSON
// document with a "backend" key per row (exp_json.hpp), which the CI
// smoke job parses.
#include <cstdio>
#include <memory>
#include <vector>

#include "exp_json.hpp"
#include "wfl/util/cli.hpp"
#include "wfl/util/stats.hpp"
#include "wfl/util/table.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;

constexpr int kProcs = 4;
constexpr int kVictim = kProcs - 1;

struct CrashOutcome {
  std::uint64_t pre_crash_successes = 0;   // survivors, slots <= crash
  std::uint64_t post_crash_successes = 0;  // survivors, slots > crash
  bool survivors_finished = false;
  bool wedged = false;  // some lock permanently unavailable at the end
};

// One seeded run of one backend: every process submits one-shot attempts
// on the same lock pair {0,1} for a fixed window of 2·crash_slot global
// slots; the victim is crashed halfway through. Successes are split into
// the pre-crash and post-crash halves (equal slot length), so post/pre is
// a per-backend availability ratio that is meaningful even though the
// disciplines' attempts cost wildly different step counts.
template <typename B>
CrashOutcome run_crash(std::uint64_t seed, std::uint64_t crash_slot) {
  BackendConfig bc;
  bc.lock.kappa = kProcs;
  bc.lock.max_locks = 2;
  bc.lock.max_thunk_steps = 4;
  bc.lock.c0 = 8.0;
  bc.lock.c1 = 8.0;
  bc.max_procs = kProcs;
  bc.num_locks = 2;
  auto space = B::make_space(bc);
  auto counter = std::make_unique<Cell<SimPlat>>(0u);
  Cell<SimPlat>* cnt = counter.get();

  Simulator sim(seed);
  UniformSchedule inner(kProcs, seed);
  CrashSchedule sched(inner, kProcs, {{kVictim, crash_slot}}, seed ^ 0xE14);

  // Sessions live on this frame, not the fibers: registration is off the
  // attempt path, and RAII release at scope exit abandons the crash-parked
  // victim's slot on its behalf (see BasicSession).
  std::vector<typename B::Session> sessions;
  sessions.reserve(kProcs);
  for (int p = 0; p < kProcs; ++p) sessions.emplace_back(*space);

  const std::uint64_t end_slot = 2 * crash_slot;
  std::vector<std::uint64_t> pre(kProcs, 0), post(kProcs, 0);
  for (int p = 0; p < kProcs; ++p) {
    sim.add_process([&, p] {
      const StaticLockSet<2> locks{0, 1};
      while (Simulator::current()->slots_used() < end_slot) {
        const Outcome o = B::submit(
            sessions[static_cast<std::size_t>(p)], locks,
            [cnt](IdemCtx<SimPlat>& m) { m.store(*cnt, m.load(*cnt) + 1); },
            Policy::one_shot());
        if (o.won && p != kVictim) {
          if (Simulator::current()->slots_used() > crash_slot) {
            ++post[static_cast<std::size_t>(p)];
          } else {
            ++pre[static_cast<std::size_t>(p)];
          }
        }
      }
    });
  }

  CrashOutcome out;
  out.survivors_finished = true;
  for (;;) {
    bool done = true;
    for (int p = 0; p < kProcs; ++p) {
      if (p != kVictim && !sim.is_finished(p)) done = false;
    }
    if (done) break;
    if (!sim.run(sched, 64 * end_slot, sim.finished_count() + 1)) {
      out.survivors_finished = false;
      break;
    }
  }
  for (int p = 0; p < kProcs; ++p) {
    if (p == kVictim) continue;
    out.pre_crash_successes += pre[static_cast<std::size_t>(p)];
    out.post_crash_successes += post[static_cast<std::size_t>(p)];
  }
  // Wedged iff the space still reports a held lock after all survivors
  // drained (only blocking backends expose the notion — nothing is ever
  // "held" across a crash in the helping/wait-free disciplines).
  if constexpr (requires { space->any_held(); }) {
    out.wedged = space->any_held();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int seeds = static_cast<int>(cli.flag_int("seeds", 12));
  const std::uint64_t crash_slot =
      static_cast<std::uint64_t>(cli.flag_int("crash-slot", 60'000));
  cli.done();

  std::fprintf(
      stderr,
      "E14: availability under a crash (4 processes, lock pair {0,1}, "
      "victim crashed at slot %llu of a %llu-slot window, %d seeds)\n\n",
      static_cast<unsigned long long>(crash_slot),
      static_cast<unsigned long long>(2 * crash_slot), seeds);

  Table t({"backend", "progress", "survivors finished", "pre-crash wins",
           "post-crash wins", "post/pre", "wedged runs",
           "post in wedged runs", "verdict"});
  wfl_bench::ExpJson json;

  bool ok = true;
  SimBackends<SimPlat>::for_each([&](auto tag) {
    using B = typename decltype(tag)::type;
    const bool expect_progress = B::progress() != BackendProgress::kBlocking;
    int finished = 0, wedged = 0;
    std::uint64_t pre = 0, post = 0, post_when_wedged = 0;
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
      const CrashOutcome o = run_crash<B>(seed, crash_slot);
      finished += o.survivors_finished ? 1 : 0;
      wedged += o.wedged ? 1 : 0;
      pre += o.pre_crash_successes;
      post += o.post_crash_successes;
      if (o.wedged) post_when_wedged += o.post_crash_successes;
      if (o.wedged || !o.survivors_finished) {
        // Same one-line format the fuzz campaign prints, so any wedge seen
        // here can be replayed by hand with the same three coordinates.
        std::fprintf(stderr,
                     "  %s: [reproducer: seed=%llu slot=%llu pid=%d]\n",
                     B::name(), static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(crash_slot), kVictim);
      }
    }
    const double ratio =
        pre == 0 ? 0.0 : static_cast<double>(post) / static_cast<double>(pre);
    // "Progress preserved" = the post-crash half of the window is at least
    // half as productive as the pre-crash half (it is usually *more*
    // productive: one less contender).
    const bool progressed = finished == seeds && ratio >= 0.5;
    char fbuf[32], wbuf[32];
    std::snprintf(fbuf, sizeof fbuf, "%d/%d", finished, seeds);
    std::snprintf(wbuf, sizeof wbuf, "%d/%d", wedged, seeds);
    t.cell(B::name())
        .cell(progress_name(B::progress()))
        .cell(fbuf)
        .cell(pre)
        .cell(post)
        .cell(ratio, 2)
        .cell(wbuf)
        .cell(post_when_wedged)
        .cell(expect_progress
                  ? (progressed ? "progress preserved" : "STALLED (!)")
                  : (wedged > 0 ? "wedges when victim dies in CS"
                                : "crash missed the CS this sweep"));
    t.end_row();
    json.add(std::string("crash_availability/") + B::name(), B::name())
        .field("pre_crash_wins", static_cast<double>(pre))
        .field("post_crash_wins", static_cast<double>(post))
        .field("post_pre_ratio", ratio)
        .field("wedged_runs", wedged)
        .field("survivors_finished_runs", finished)
        .field("seeds", seeds);
    if (expect_progress && !progressed) ok = false;
    // In a wedged blocking run the pair is held forever from the crash on:
    // post-crash successes there must be negligible (boundary attempts
    // that completed just after the crash slot are tolerated).
    if (!expect_progress && wedged > 0) {
      const double leak = static_cast<double>(post_when_wedged) /
                          static_cast<double>(pre == 0 ? 1 : pre);
      if (leak > 0.05) ok = false;
    }
  });
  t.print(stderr);

  std::fprintf(
      stderr, "\nE14 verdict: %s\n",
      ok ? "wait-free and lock-free disciplines keep survivors productive "
           "through a crash; blocking 2PL wedges when the victim dies "
           "holding a lock"
         : "UNEXPECTED — see table");
  json.emit();
  return ok ? 0 : 1;
}

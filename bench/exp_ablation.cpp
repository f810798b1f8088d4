// E9/E10 — why Algorithm 3 has a help phase and fixed delays.
//
// A scripted *adaptive player adversary* (the model's player: it sees the
// full history, including revealed priorities, and decides when the victim
// starts its attempt) attacks a victim on a single lock:
//
//   The victim polls the lock's active set and starts its attempt exactly
//   when it observes a revealed competitor with a top-decile priority.
//
// E10 (helping): with the help phase ON, the victim runs that strong
// competitor to completion *before* revealing its own priority (Lemma 6.4)
// — the attack is neutralized and the 1/C_p floor holds. With the help
// phase OFF the victim competes head-on against a priority it was chosen
// to lose to, and its success rate collapses below the floor.
//
// E9 (delays): with delays ON the victim's reveal sits at a fixed offset
// from its start (Observation 6.7); with delays OFF the reveal time leaks
// timing the adversary can steer around (footnote 4's stretching attack:
// flood the lock with filler attempts when the observed competitor is
// weak, stay quiet when it is strong). The delta is smaller than E10's —
// the paper introduces delays to close a leak, not a crater — and the
// table reports whatever the attack extracts.
//
// Every row states the verdict it expects: the floor is lost only with the
// help phase off. exp_ablation exits nonzero when any row's verdict
// differs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "wfl/sim/player.hpp"
#include "wfl/util/cli.hpp"
#include "wfl/util/table.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;
using Space = LockTable<SimPlat>;

constexpr auto kNoop = [](IdemCtx<SimPlat>&) {};

constexpr std::int64_t kStrongThreshold =
    priority_top_fraction(0.125);  // top 12.5% of the priority range

struct ArmResult {
  SuccessRate overall;
  SuccessRate when_attack_landed;  // episodes started onto a strong rival
};

// One experiment arm. The victim is the adaptive player for its own start
// time; `stretch` additionally runs the E9 filler-flood strategy.
ArmResult run_arm(bool help_on, bool delays_on, bool stretch, int episodes,
                  std::uint64_t seed) {
  LockConfig cfg;
  cfg.kappa = 4;  // victim + blocker + 2 fillers
  cfg.max_locks = 1;
  // Long filler thunks are part of the E10 attack: a rival that celebrates
  // a recent winner's thunk mid-run() stays *active* for those T steps,
  // which is the window the victim races its own insert+reveal into. With
  // trivial thunks the window (~a dozen steps) closes before any detect-
  // then-start adversary can reveal, and the ambush cannot land at all.
  cfg.max_thunk_steps = 24;
  cfg.help_phase = help_on;
  cfg.delay_mode = delays_on ? DelayMode::kTheory : DelayMode::kOff;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  auto space = std::make_unique<Space>(cfg, 4, 1);
  // Scratch cells for the fillers' long thunks; guarded by lock 0 like
  // everything else in this single-lock arena.
  auto scratch0 = std::make_unique<Cell<SimPlat>>(0u);
  auto scratch1 = std::make_unique<Cell<SimPlat>>(0u);
  Cell<SimPlat>* scratch[2] = {scratch0.get(), scratch1.get()};

  ArmResult res;
  bool stop = false;       // plain: single-threaded sim
  bool want_filler = false;

  Simulator sim(seed);
  // Victim: the adaptive player. It polls the lock's field and starts its
  // attempt at the instant a *fresh* strong priority appears (edge
  // detection, not state detection: a strong rival is only dangerous for
  // the duration of its run(), so the attack must race into that window,
  // and every poll spent on an already-seen value wastes it).
  sim.add_process([&] {
    Session<SimPlat> session(*space);
    PlayerObserver<SimPlat> spy(session);
    const StaticLockSet<1> ids({0});
    std::int64_t last_strong = -1;
    for (int e = 0; e < episodes; ++e) {
      const bool strong_seen =
          spy.wait_for(0, 600, [&](const FieldView& v) {
            if (stretch && v.revealed_members > 0 &&
                v.strongest_priority <= kStrongThreshold) {
              // Weak rival revealed: flood (E9's stretching lever) and
              // keep waiting for a strong one.
              want_filler = true;
            }
            const bool fresh = v.strongest_priority > kStrongThreshold &&
                               v.strongest_priority != last_strong;
            if (fresh) last_strong = v.strongest_priority;
            return fresh;
          });
      const bool won = submit(session, ids, kNoop).won;
      res.overall.add(won);
      if (strong_seen) res.when_attack_landed.add(won);
    }
    stop = true;
  });
  // Blocker: the rival the adversary watches. Attempts continuously.
  sim.add_process([&] {
    Session<SimPlat> session(*space);
    const StaticLockSet<1> ids({0});
    Xoshiro256 rng(seed * 3 + 1);
    while (!stop) {
      submit(session, ids, kNoop);
      const std::uint64_t think = rng.next_below(32);
      SimPlat::idle_steps(think);
    }
  });
  // Fillers: in the stretch arms they idle until the strategy calls for
  // contention; otherwise they attempt continuously with *long* thunks —
  // every filler win a rival celebrates mid-run() keeps that rival active
  // longer, which is the window the E10 race needs (see cfg comment).
  for (int f = 0; f < 2; ++f) {
    sim.add_process([&, f] {
      Session<SimPlat> session(*space);
      const StaticLockSet<1> ids({0});
      Cell<SimPlat>* cell = scratch[f];
      Xoshiro256 rng(seed * 7 + 13 + static_cast<std::uint64_t>(f));
      const auto long_thunk = [cell](IdemCtx<SimPlat>& m) {
        for (int i = 0; i < 11; ++i) {
          m.store(*cell, m.load(*cell) + 1);
        }
      };
      while (!stop) {
        if (!stretch) {
          submit(session, ids, long_thunk);
          const std::uint64_t think = rng.next_below(16);
          SimPlat::idle_steps(think);
        } else if (want_filler) {
          want_filler = false;
          submit(session, ids, kNoop);
        } else {
          SimPlat::step();
        }
      }
    });
  }
  UniformSchedule sched(4, seed ^ 0xDEAD);
  WFL_CHECK(sim.run(sched, 16'000'000'000ull));
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int episodes = static_cast<int>(cli.flag_int("episodes", 400));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 3));
  const std::string only = cli.flag_string("ablate", "all");
  cli.done();

  std::printf("E9/E10: ablations under a scripted adaptive player "
              "adversary (single lock, C_p = kappa = 4, floor = 1/4)\n\n");

  Table t({"arm", "overall rate", "attack-landed rate", "landed n",
           "floor 1/C_p", "verdict"});
  const double floor = 0.25;
  bool ok = true;  // every row's verdict is the one it expects
  double delays_on_rate = 0, delays_off_rate = 0;

  auto add_row = [&](const char* name, const ArmResult& r,
                     bool expect_floor) {
    const bool held = r.overall.wilson_upper() >= floor;
    t.cell(name).cell(r.overall.rate(), 3)
        .cell(r.when_attack_landed.rate(), 3)
        .cell(r.when_attack_landed.trials()).cell(floor, 2)
        .cell(expect_floor ? (held ? "floor held" : "FLOOR LOST")
                           : (held ? "floor held (!)" : "floor lost — "
                                                        "as predicted"));
    t.end_row();
    ok = ok && held == expect_floor;
  };

  if (only == "all" || only == "help") {
    add_row("help ON, delays ON (paper)",
            run_arm(true, true, false, episodes, seed), true);
    add_row("help OFF (E10 attack)",
            run_arm(false, false, false, episodes, seed + 1), false);
    add_row("help ON, delays OFF (same attack)",
            run_arm(true, false, false, episodes, seed + 1), true);
  }
  if (only == "all" || only == "delays") {
    const auto d_on = run_arm(true, true, true, episodes, seed + 2);
    add_row("delays ON + stretch adversary (E9)", d_on, true);
    delays_on_rate = d_on.overall.rate();
    const auto d_off = run_arm(true, false, true, episodes, seed + 2);
    add_row("delays OFF + stretch adversary (E9)", d_off, true);
    delays_off_rate = d_off.overall.rate();
  }
  t.print();

  if (only == "all" || only == "delays") {
    std::printf("\nE9: stretch-adversary rate delta (on - off) = %+.3f — the"
                " delays close a timing side channel;\n    the paper's bound"
                " only *requires* them, the attack surface here is narrow.\n",
                delays_on_rate - delays_off_rate);
  }
  std::printf("\nE9/E10 verdict: %s\n",
              ok ? "helping is what defeats the known-priority ambush "
                   "(E10); baseline floors hold"
                 : "UNEXPECTED — a row's verdict differs from the one it "
                   "expects");
  return ok ? 0 : 1;
}

// E12 — two refinements of the fairness theorem that the headline
// experiments don't isolate:
//
// (a) History-independence (Thm 1.1: an attempt succeeds w.p. >= 1/C_p
//     "independently of p's other attempts"). A victim process runs a long
//     series of attempts under steady symmetric contention. The theorem
//     promises a floor on each attempt's win probability whatever came
//     before, not that outcomes are uncorrelated, so the gate is a
//     conditional floor: pooled over the seeds, the win rate after a win
//     and the win rate after a loss must each reach 1/C_p at the Wilson-99
//     lower bound. A lag-1 test of serial dependence does not fit: with a
//     few dozen losses per seed the loss->loss cell is expected to hold
//     about one count, so a chi-square's approximation fails. The one-sided
//     Fisher exact p that a win makes the next win likelier is printed,
//     and does not gate.
//
// (b) Adaptivity (Thm 6.9 is stated per-descriptor: success >= 1/C_p where
//     C_p sums the *actual* per-lock contention bounds, not the global
//     worst case κ·L). We pin a victim on one lock and vary only how many
//     background processes share that lock; the victim's success rate must
//     track 1/(k+1) as k varies, even though the space-wide κ stays fixed
//     at its maximum — i.e. you pay for the contention you experience, not
//     for the bound you declared. Each row's Wilson-99 lower bound must
//     reach 1/(k+1); with k = 0 the victim must win every attempt.
//
// exp_independence exits 1 when either gate fails.
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "wfl/wfl.hpp"
#include "wfl/util/cli.hpp"
#include "wfl/util/stats.hpp"
#include "wfl/util/table.hpp"

namespace wfl {
namespace {

LockConfig one_lock_cfg(std::uint32_t kappa) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = 1;
  cfg.max_thunk_steps = 2;
  cfg.delay_mode = DelayMode::kTheory;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  return cfg;
}

// --- (a) independence ----------------------------------------------------

struct IndepResult {
  SuccessRate rate;
  // The victim's outcomes by the outcome of its previous attempt.
  SuccessRate after_win, after_loss;
};

IndepResult run_independence(int procs, int victim_attempts,
                             std::uint64_t seed) {
  const LockConfig cfg = one_lock_cfg(static_cast<std::uint32_t>(procs));
  LockTable<SimPlat> space(cfg, procs, 1);
  auto counter = std::make_unique<Cell<SimPlat>>(0u);
  Cell<SimPlat>* cnt = counter.get();
  std::atomic<bool> stop{false};  // raw control flag, not model state
  IndepResult out;

  Simulator sim(seed);
  // Victim: process 0.
  sim.add_process([&] {
    Session<SimPlat> session(space);
    const StaticLockSet<1> ids({0});
    bool have_prev = false;
    bool prev = false;
    for (int i = 0; i < victim_attempts; ++i) {
      const bool won = submit(session, ids, [cnt](IdemCtx<SimPlat>& m) {
                         m.store(*cnt, m.load(*cnt) + 1);
                       }).won;
      out.rate.add(won);
      if (have_prev) (prev ? out.after_win : out.after_loss).add(won);
      prev = won;
      have_prev = true;
    }
    stop.store(true, std::memory_order_relaxed);
  });
  // Steady background contention on the same lock.
  for (int p = 1; p < procs; ++p) {
    sim.add_process([&] {
      Session<SimPlat> session(space);
      const StaticLockSet<1> ids({0});
      while (!stop.load(std::memory_order_relaxed)) {
        submit(session, ids, [cnt](IdemCtx<SimPlat>& m) {
          m.store(*cnt, m.load(*cnt) + 1);
        });
      }
    });
  }
  UniformSchedule sched(procs, seed * 31 + 5);
  WFL_CHECK(sim.run(sched, 8'000'000'000ull));
  return out;
}

// --- (b) adaptivity ------------------------------------------------------

struct AdaptResult {
  SuccessRate rate;
};

// `procs_total` processes exist and κ is declared for all of them, but
// only `k` of them contend the victim's lock; the rest hammer a far-away
// lock. C_p for the victim is therefore k+1.
AdaptResult run_adaptivity(int procs_total, int k, int victim_attempts,
                           std::uint64_t seed) {
  const LockConfig cfg =
      one_lock_cfg(static_cast<std::uint32_t>(procs_total));
  LockTable<SimPlat> space(cfg, procs_total, 2);
  auto c0 = std::make_unique<Cell<SimPlat>>(0u);
  auto c1 = std::make_unique<Cell<SimPlat>>(0u);
  Cell<SimPlat>* cell0 = c0.get();
  Cell<SimPlat>* cell1 = c1.get();
  std::atomic<bool> stop{false};
  AdaptResult out;

  Simulator sim(seed);
  sim.add_process([&] {
    Session<SimPlat> session(space);
    const StaticLockSet<1> ids({0});
    for (int i = 0; i < victim_attempts; ++i) {
      out.rate.add(submit(session, ids, [cell0](IdemCtx<SimPlat>& m) {
                     m.store(*cell0, m.load(*cell0) + 1);
                   }).won);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  for (int p = 1; p < procs_total; ++p) {
    const bool contends = p <= k;
    sim.add_process([&, contends] {
      Session<SimPlat> session(space);
      const StaticLockSet<1> mine({contends ? 0u : 1u});
      Cell<SimPlat>* cell = contends ? cell0 : cell1;
      while (!stop.load(std::memory_order_relaxed)) {
        submit(session, mine, [cell](IdemCtx<SimPlat>& m) {
          m.store(*cell, m.load(*cell) + 1);
        });
      }
    });
  }
  UniformSchedule sched(procs_total, seed * 17 + 3);
  WFL_CHECK(sim.run(sched, 8'000'000'000ull));
  return out;
}

int main_impl(int argc, char** argv) {
  Cli cli(argc, argv);
  const int attempts = static_cast<int>(cli.flag_int("attempts", 400));
  const int seeds = static_cast<int>(cli.flag_int("seeds", 5));
  cli.done();

  std::printf(
      "E12(a): a victim's win rate given its previous outcome\n"
      "(3 processes on one lock, kappa=3; floor 1/C_p = 1/3). Fisher p is\n"
      "the one-sided exact p that a win makes the next win likelier;\n"
      "printed only.\n\n");
  const double floor_a = 1.0 / 3.0;
  Table ta({"seed", "attempts", "succ-rate", "after win", "after loss",
            "losses", "fisher p"});
  SuccessRate after_win, after_loss;
  for (int s = 0; s < seeds; ++s) {
    const IndepResult r =
        run_independence(3, attempts, 1000 + static_cast<std::uint64_t>(s));
    after_win.merge(r.after_win);
    after_loss.merge(r.after_loss);
    ta.cell(1000 + s)
        .cell(r.rate.trials())
        .cell(r.rate.rate(), 3)
        .cell(r.after_win.rate(), 3)
        .cell(r.after_loss.rate(), 3)
        .cell(r.rate.trials() - r.rate.successes())
        .cell(fisher_exact_greater(r.after_win, r.after_loss), 3);
    ta.end_row();
  }
  ta.print();
  bool ok = true;
  Table tc({"previous", "attempts", "win rate", "wilson99-", "floor 1/C_p",
            "floor held"});
  for (const auto& [name, r] : {std::pair{"win", &after_win},
                                std::pair{"loss", &after_loss}}) {
    const bool held = r->wilson_lower() >= floor_a;
    ok = ok && held;
    tc.cell(name)
        .cell(r->trials())
        .cell(r->rate(), 3)
        .cell(r->wilson_lower(), 3)
        .cell(floor_a, 3)
        .cell(held ? "yes" : "NO");
    tc.end_row();
  }
  std::printf("\npooled over %d seeds:\n", seeds);
  tc.print();
  std::printf("Fisher p (pooled, printed only) = %.3g\n\n",
              fisher_exact_greater(after_win, after_loss));

  std::printf(
      "E12(b): adaptivity — victim success tracks its own C_p = k+1, not\n"
      "the declared space-wide kappa (7 processes exist; only k share the\n"
      "victim's lock).\n\n");
  Table tb({"k (sharers)", "C_p", "bound 1/C_p", "measured", "wilson-lo",
            "pass"});
  for (int k = 0; k <= 5; ++k) {
    const AdaptResult r = run_adaptivity(7, k, attempts, 40 + k);
    const double bound = 1.0 / (k + 1);
    // A lone victim (C_p = 1) must win every attempt, which no interval
    // bound can confirm; every other row's Wilson-99 lower bound must
    // reach its floor.
    const bool pass = k == 0 ? r.rate.successes() == r.rate.trials()
                             : r.rate.wilson_lower() >= bound;
    ok = ok && pass;
    tb.cell(k)
        .cell(k + 1)
        .cell(bound, 3)
        .cell(r.rate.rate(), 3)
        .cell(r.rate.wilson_lower(), 3)
        .cell(pass ? "yes" : "NO!");
    tb.end_row();
  }
  tb.print();
  std::printf(
      "\nReading: the measured success probability degrades with the\n"
      "victim's actual contention (column 4 ~ 1/C_p) while kappa stayed\n"
      "fixed — the bound is adaptive, as Thm 6.9 states it.\n");
  std::printf("\nE12 verdict: %s\n",
              ok ? "the 1/C_p floor holds after wins and after losses, and "
                   "tracks each victim's own C_p"
                 : "FLOOR MISSED — a row above is below its 1/C_p floor");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace wfl

int main(int argc, char** argv) { return wfl::main_impl(argc, argv); }

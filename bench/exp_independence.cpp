// E12 — two refinements of the fairness theorem that the headline
// experiments don't isolate:
//
// (a) Independence (Thm 1.1: an attempt succeeds "independently of p's
//     other attempts"). A victim process runs a long series of attempts
//     under steady symmetric contention; we test the outcome sequence for
//     serial dependence with a lag-1 contingency chi-square. Independence
//     predicts chi² ~ χ²(1): values below the 95% critical value 3.84 in
//     the typical seed (we report several seeds; occasional excursions are
//     expected at 5% rate).
//
// (b) Adaptivity (Thm 6.9 is stated per-descriptor: success >= 1/C_p where
//     C_p sums the *actual* per-lock contention bounds, not the global
//     worst case κ·L). We pin a victim on one lock and vary only how many
//     background processes share that lock; the victim's success rate must
//     track 1/(k+1) as k varies, even though the space-wide κ stays fixed
//     at its maximum — i.e. you pay for the contention you experience, not
//     for the bound you declared.
#include <cstdio>
#include <memory>
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

struct Lag1 {
  // Transition counts between consecutive outcomes of the victim.
  std::uint64_t n[2][2] = {{0, 0}, {0, 0}};
  void add(bool prev, bool cur) { ++n[prev ? 1 : 0][cur ? 1 : 0]; }

  // Pearson chi-square on the 2x2 lag-1 contingency table, 1 dof.
  double chi2() const {
    const double a = static_cast<double>(n[0][0]);
    const double b = static_cast<double>(n[0][1]);
    const double c = static_cast<double>(n[1][0]);
    const double d = static_cast<double>(n[1][1]);
    const double N = a + b + c + d;
    const double denom = (a + b) * (c + d) * (a + c) * (b + d);
    if (denom == 0.0 || N == 0.0) return 0.0;
    const double det = a * d - b * c;
    return N * det * det / denom;
  }
};

struct IndepResult {
  SuccessRate rate;
  Lag1 lag;
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
      if (have_prev) out.lag.add(prev, won);
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
      "E12(a): independence of a victim's consecutive attempt outcomes\n"
      "(3 processes on one lock, kappa=3; bound 1/3). chi2 is the lag-1\n"
      "contingency statistic; under independence it exceeds 3.84 only 5%%\n"
      "of the time.\n\n");
  Table ta({"seed", "attempts", "succ-rate", "wilson-lo", "bound",
            "lag1-chi2", "indep@95%"});
  int indep_pass = 0;
  for (int s = 0; s < seeds; ++s) {
    const IndepResult r =
        run_independence(3, attempts, 1000 + static_cast<std::uint64_t>(s));
    const double chi2 = r.lag.chi2();
    const bool ok = chi2 <= 3.841;
    indep_pass += ok ? 1 : 0;
    ta.cell(1000 + s)
        .cell(r.rate.trials())
        .cell(r.rate.rate(), 3)
        .cell(r.rate.wilson_lower(), 3)
        .cell(1.0 / 3.0, 3)
        .cell(chi2, 2)
        .cell(ok ? "yes" : "no");
    ta.end_row();
  }
  ta.print();
  std::printf("independent at 95%% in %d/%d seeds (expect ~95%%).\n\n",
              indep_pass, seeds);

  std::printf(
      "E12(b): adaptivity — victim success tracks its own C_p = k+1, not\n"
      "the declared space-wide kappa (7 processes exist; only k share the\n"
      "victim's lock).\n\n");
  Table tb({"k (sharers)", "C_p", "bound 1/C_p", "measured", "wilson-lo",
            "pass"});
  for (int k = 0; k <= 5; ++k) {
    const AdaptResult r = run_adaptivity(7, k, attempts, 40 + k);
    const double bound = 1.0 / (k + 1);
    // The Wilson lower confidence bound must not sit below the theorem's
    // guarantee by more than noise allows.
    const bool pass = r.rate.wilson_lower() >= bound * 0.92;
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
  return 0;
}

}  // namespace
}  // namespace wfl

int main(int argc, char** argv) { return wfl::main_impl(argc, argv); }

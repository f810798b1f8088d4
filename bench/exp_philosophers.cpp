// E3 — the dining philosophers special case (§1, §3): with wait-free locks
// each attempt to eat succeeds w.p. >= 1/4 in O(1) steps, *independent of
// the table size*, and neighbors of a starved philosopher are unaffected
// because they help it rather than wait for it.
//
// Two experiments:
//   (a) scaling: n ∈ {4..32}, uniform schedule — wflock's per-attempt
//       success rate and steps/meal must stay flat in n; Lehmann–Rabin's
//       rounds/meal stays flat too under a *fair* scheduler (this is not
//       where it breaks);
//   (b) starvation: philosopher 0 is scheduled 200x less often (oblivious
//       weighted schedule). Under Lehmann–Rabin its neighbor can block on a
//       fork the sleeping victim holds — steps-to-meal explodes. Under
//       wflock the neighbor helps the victim's attempt to a decision and
//       moves on: its steps/meal stay near the fair-schedule value. This is
//       the paper's core motivation, measured.
#include <cstdio>
#include <memory>
#include <vector>

#include "wfl/util/cli.hpp"
#include "wfl/util/table.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;
using Space = LockTable<SimPlat>;

LockConfig phil_cfg() {
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 2;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  return cfg;
}

struct WflockResult {
  SuccessRate rate;
  RunningStat steps_per_meal;       // all philosophers
  RunningStat neighbor_steps;       // philosopher 1 only (starvation runs)
};

WflockResult run_wflock(int n, int meals, const std::vector<double>& weights,
                        std::uint64_t seed) {
  auto space = std::make_unique<Space>(phil_cfg(), n, n);
  WflockResult res;
  std::vector<PhilosopherReport> reports(static_cast<std::size_t>(n));
  Simulator sim(seed);
  for (int p = 0; p < n; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(*space);
      const auto [l, r] = forks_of(p, n);
      const StaticLockSet<2> forks({l, r});
      run_philosopher_episodes<SimPlat>(
          p, meals, /*think_max=*/64, seed + static_cast<std::uint64_t>(p),
          [&](int) {
            return submit(session, forks, [](IdemCtx<SimPlat>&) {}).won;
          },
          reports[static_cast<std::size_t>(p)]);
    });
  }
  std::unique_ptr<Schedule> sched;
  if (weights.empty()) {
    sched = std::make_unique<UniformSchedule>(n, seed ^ 0x55);
  } else {
    sched = std::make_unique<WeightedSchedule>(weights, seed ^ 0x55);
  }
  WFL_CHECK(sim.run(*sched, 8'000'000'000ull));
  for (int p = 0; p < n; ++p) {
    const auto& r = reports[static_cast<std::size_t>(p)];
    for (std::uint64_t a = 0; a < r.attempts; ++a) {
      res.rate.add(a < r.meals);  // meals successes out of attempts
    }
    res.steps_per_meal.merge(r.steps_per_meal);
    if (p == 1) res.neighbor_steps.merge(r.steps_per_meal);
  }
  return res;
}

struct LrResult {
  RunningStat rounds_per_meal;   // all philosophers
  RunningStat neighbor_rounds;   // philosopher 1 only
  RunningStat neighbor_steps;    // philosopher 1 own steps per meal
  bool finished = true;
};

LrResult run_lr(int n, int meals, const std::vector<double>& weights,
                std::uint64_t seed, std::uint64_t max_slots) {
  LehmannRabinTable<SimPlat> table(n);
  LrResult res;
  std::vector<RunningStat> rounds(static_cast<std::size_t>(n));
  std::vector<RunningStat> steps(static_cast<std::size_t>(n));
  Simulator sim(seed);
  for (int p = 0; p < n; ++p) {
    sim.add_process([&, p] {
      Xoshiro256 rng(seed + 31 * static_cast<std::uint64_t>(p));
      for (int m = 0; m < meals; ++m) {
        const std::uint64_t before = SimPlat::steps();
        rounds[static_cast<std::size_t>(p)].add(
            static_cast<double>(table.dine(p, 1'000'000)));
        steps[static_cast<std::size_t>(p)].add(
            static_cast<double>(SimPlat::steps() - before));
        const std::uint64_t think = rng.next_below(64);
        SimPlat::idle_steps(think);
      }
    });
  }
  std::unique_ptr<Schedule> sched;
  if (weights.empty()) {
    sched = std::make_unique<UniformSchedule>(n, seed ^ 0x77);
  } else {
    sched = std::make_unique<WeightedSchedule>(weights, seed ^ 0x77);
  }
  res.finished = sim.run(*sched, max_slots);
  for (int p = 0; p < n; ++p) {
    res.rounds_per_meal.merge(rounds[static_cast<std::size_t>(p)]);
    if (p == 1) {
      res.neighbor_rounds.merge(rounds[static_cast<std::size_t>(p)]);
      res.neighbor_steps.merge(steps[static_cast<std::size_t>(p)]);
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int meals = static_cast<int>(cli.flag_int("meals", 30));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 11));
  cli.done();

  std::printf("E3a: table-size independence (uniform schedule)\n\n");
  Table ta({"n", "wfl rate", "wfl floor", "wfl steps/meal", "wfl p-max",
            "LR rounds/meal"});
  bool ok = true;
  std::vector<double> ns, wfl_steps;
  for (int n : {4, 8, 16, 32}) {
    const auto w = run_wflock(n, meals, {}, seed + static_cast<std::uint64_t>(n));
    const auto lr = run_lr(n, meals, {}, seed + 100 + n, 8'000'000'000ull);
    ok = ok && w.rate.wilson_upper() >= 0.25;
    ta.cell(n).cell(w.rate.rate(), 3).cell(0.25, 2)
        .cell(w.steps_per_meal.mean(), 1).cell(w.steps_per_meal.max(), 0)
        .cell(lr.rounds_per_meal.mean(), 2);
    ta.end_row();
    ns.push_back(n);
    wfl_steps.push_back(w.steps_per_meal.mean());
  }
  ta.print();
  const double n_exp = fit_log_log_slope(ns, wfl_steps);
  std::printf("\nfitted exponent of wflock steps/meal vs n: %.3f "
              "(paper: 0 — O(1) independent of n)\n", n_exp);
  ok = ok && n_exp < 0.3;

  std::printf("\nE3b: philosopher 0 starved 200x (oblivious weighted "
              "schedule), n=8 — neighbor's cost\n\n");
  {
    const int n = 8;
    std::vector<double> weights(n, 1.0);
    weights[0] = 0.005;
    const auto w_fair = run_wflock(n, meals, {}, seed + 900);
    const auto w_starve = run_wflock(n, meals, weights, seed + 901);
    const auto lr_fair = run_lr(n, meals, {}, seed + 902, 8'000'000'000ull);
    const auto lr_starve =
        run_lr(n, meals, weights, seed + 903, 8'000'000'000ull);

    Table tb({"system", "schedule", "neighbor steps/meal (mean)",
              "neighbor steps/meal (max)"});
    tb.cell("wflock").cell("fair").cell(w_fair.neighbor_steps.mean(), 1)
        .cell(w_fair.neighbor_steps.max(), 0);
    tb.end_row();
    tb.cell("wflock").cell("starved-0").cell(w_starve.neighbor_steps.mean(), 1)
        .cell(w_starve.neighbor_steps.max(), 0);
    tb.end_row();
    tb.cell("lehmann-rabin").cell("fair").cell(lr_fair.neighbor_steps.mean(), 1)
        .cell(lr_fair.neighbor_steps.max(), 0);
    tb.end_row();
    tb.cell("lehmann-rabin").cell("starved-0")
        .cell(lr_starve.neighbor_steps.mean(), 1)
        .cell(lr_starve.neighbor_steps.max(), 0);
    tb.end_row();
    tb.print();

    const double wfl_blowup =
        w_starve.neighbor_steps.max() / std::max(1.0, w_fair.neighbor_steps.max());
    const double lr_blowup = lr_starve.neighbor_steps.max() /
                             std::max(1.0, lr_fair.neighbor_steps.max());
    std::printf("\nneighbor worst-case blowup under starvation: wflock %.1fx,"
                " lehmann-rabin %.1fx\n", wfl_blowup, lr_blowup);
    std::printf("(wflock's bound is per-attempt and schedule-independent; "
                "LR's neighbor waits on the sleeping fork holder)\n");
    ok = ok && wfl_blowup < lr_blowup;
  }

  std::printf("\nE3 verdict: %s\n",
              ok ? "consistent with the paper (1/4 floor, O(1) steps, "
                   "helping shields neighbors)"
                 : "INCONSISTENT — investigate");
  return ok ? 0 : 1;
}

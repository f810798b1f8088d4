// The paper's running example: dining philosophers with wait-free locks.
//
// Each philosopher needs both adjacent forks (κ = L = 2), so the paper
// guarantees every *attempt* to eat succeeds with probability >= 1/4 and
// takes O(1) steps — independent of the table size. This example runs the
// table under the deterministic simulator with an adversarial (weighted)
// schedule: philosopher 0 is scheduled 100x less often than everyone else
// and still gets fed, because attempts are bounded in its own steps and
// neighbors help it finish.
//
// Build & run:  ./examples/dining_philosophers [n]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "wfl/wfl.hpp"

int main(int argc, char** argv) {
  using Plat = wfl::SimPlat;
  const int n = argc > 1 ? std::atoi(argv[1]) : 8;
  const int meals = 20;

  wfl::LockConfig cfg;
  cfg.kappa = 2;  // at most two philosophers per fork — by topology
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 4;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;

  auto space = std::make_unique<wfl::LockTable<Plat>>(cfg, n, n);
  std::vector<std::unique_ptr<wfl::Cell<Plat>>> meals_eaten;
  for (int i = 0; i < n; ++i) {
    meals_eaten.push_back(std::make_unique<wfl::Cell<Plat>>(0u));
  }

  std::vector<wfl::PhilosopherReport> reports(n);
  wfl::Simulator sim(2024);
  for (int p = 0; p < n; ++p) {
    sim.add_process([&, p] {
      wfl::Session<Plat> session(*space);  // RAII: one per fiber
      const auto [left, right] = wfl::forks_of(p, n);
      wfl::Cell<Plat>& my_meals = *meals_eaten[p];
      const wfl::StaticLockSet<2> forks{left, right};
      wfl::run_philosopher_episodes<Plat>(
          p, meals, /*think_max=*/64, /*rng_seed=*/7000 + p,
          [&](int) {
            return wfl::submit(session, forks,
                               [&my_meals](wfl::IdemCtx<Plat>& m) {
                                 m.store(my_meals, m.load(my_meals) + 1);
                               })
                .won;
          },
          reports[p]);
    });
  }

  // Adversarial-but-oblivious schedule: starve philosopher 0.
  std::vector<double> weights(n, 1.0);
  weights[0] = 0.01;
  wfl::WeightedSchedule sched(weights, 99);
  const bool done = sim.run(sched, 4'000'000'000ull);
  std::printf("table of %d, %d meals each, philosopher 0 starved 100x%s\n\n",
              n, meals, done ? "" : " (slot budget hit!)");

  std::printf("%-6s %-8s %-10s %-12s %-14s\n", "phil", "meals", "attempts",
              "success", "steps/meal");
  for (int p = 0; p < n; ++p) {
    const auto& r = reports[p];
    std::printf("%-6d %-8llu %-10llu %-12.3f %-14.1f\n", p,
                static_cast<unsigned long long>(r.meals),
                static_cast<unsigned long long>(r.attempts),
                static_cast<double>(r.meals) / r.attempts,
                r.steps_per_meal.mean());
  }
  const auto s = space->stats();
  std::printf("\nhelps=%llu eliminations=%llu thunk_runs=%llu overruns=%llu\n",
              static_cast<unsigned long long>(s.helps),
              static_cast<unsigned long long>(s.eliminations),
              static_cast<unsigned long long>(s.thunk_runs),
              static_cast<unsigned long long>(s.t0_overruns + s.t1_overruns));
  bool ok = done;
  for (int p = 0; p < n; ++p) {
    ok = ok && meals_eaten[p]->peek() == static_cast<std::uint32_t>(meals);
  }
  std::printf("%s\n", ok ? "OK: everyone ate exactly their meals"
                         : "MISMATCH");
  return ok ? 0 : 1;
}

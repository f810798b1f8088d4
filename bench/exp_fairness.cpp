// E2 — Theorem 6.9: every tryLock attempt succeeds with probability at
// least 1/C_p (C_p = Σ_{ℓ in lock set} κ_ℓ), against an oblivious scheduler
// and adaptive players.
//
// Workloads:
//   * clique(κ, L): κ processes repeatedly attempt the same L locks —
//     C_p = κ·L, the worst case the theorem prices;
//   * ring(n): dining-philosophers topology — κ = L = 2, C_p = 4, so the
//     floor is the paper's famous 1/4.
// Schedules: uniform random and stall-burst (both oblivious). The table
// reports the measured rate, its Wilson 99% interval, and the floor.
#include <cstdio>
#include <memory>
#include <vector>

#include "wfl/util/cli.hpp"
#include "wfl/util/table.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;
using Space = LockTable<SimPlat>;

// Attempts measure acquisition alone: an empty critical section.
constexpr auto kNoop = [](IdemCtx<SimPlat>&) {};

struct Row {
  std::string workload, schedule;
  std::uint32_t c_p;
  SuccessRate rate;
  std::uint64_t overruns;
};

Row run_clique(std::uint32_t kappa, std::uint32_t L, const char* sched_name,
               int attempts, std::uint64_t seed) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = L;
  cfg.max_thunk_steps = 2;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  auto space = std::make_unique<Space>(cfg, static_cast<int>(kappa),
                                       static_cast<int>(L));
  Row row;
  row.workload = "clique k=" + std::to_string(kappa) + " L=" +
                 std::to_string(L);
  row.schedule = sched_name;
  row.c_p = kappa * L;

  Simulator sim(seed);
  std::vector<SuccessRate> per(kappa);
  for (std::uint32_t p = 0; p < kappa; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(*space);
      StaticLockSet<> ids;
      for (std::uint32_t l = 0; l < L; ++l) ids.insert(l);
      for (int a = 0; a < attempts; ++a) {
        per[p].add(submit(session, ids, kNoop).won);
      }
    });
  }
  std::unique_ptr<Schedule> sched;
  if (std::string(sched_name) == "uniform") {
    sched = std::make_unique<UniformSchedule>(static_cast<int>(kappa),
                                              seed ^ 0xBEEF);
  } else {
    sched = std::make_unique<StallBurstSchedule>(static_cast<int>(kappa),
                                                 seed ^ 0xBEEF, 4096);
  }
  WFL_CHECK(sim.run(*sched, 8'000'000'000ull));
  for (auto& pr : per) row.rate.merge(pr);
  const auto s = space->stats();
  row.overruns = s.t0_overruns + s.t1_overruns;
  return row;
}

Row run_ring(int n, const char* sched_name, int attempts,
             std::uint64_t seed) {
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 2;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  auto space = std::make_unique<Space>(cfg, n, n);
  Row row;
  row.workload = "ring n=" + std::to_string(n);
  row.schedule = sched_name;
  row.c_p = 4;

  Simulator sim(seed);
  std::vector<SuccessRate> per(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(*space);
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(p) * 3 + 1);
      const auto [l, r] = forks_of(p, n);
      const StaticLockSet<2> ids({l, r});
      for (int a = 0; a < attempts; ++a) {
        per[static_cast<std::size_t>(p)].add(
            submit(session, ids, kNoop).won);
        const std::uint64_t think = rng.next_below(64);
        SimPlat::idle_steps(think);
      }
    });
  }
  std::unique_ptr<Schedule> sched;
  if (std::string(sched_name) == "uniform") {
    sched = std::make_unique<UniformSchedule>(n, seed ^ 0xF00D);
  } else {
    sched = std::make_unique<StallBurstSchedule>(n, seed ^ 0xF00D, 4096);
  }
  WFL_CHECK(sim.run(*sched, 8'000'000'000ull));
  for (auto& pr : per) row.rate.merge(pr);
  const auto s = space->stats();
  row.overruns = s.t0_overruns + s.t1_overruns;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int attempts = static_cast<int>(cli.flag_int("attempts", 150));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 7));
  cli.done();

  std::printf("E2: fairness — per-attempt success rate vs the 1/C_p floor "
              "(Theorem 6.9)\n\n");

  std::vector<Row> rows;
  rows.push_back(run_clique(2, 1, "uniform", attempts * 2, seed + 1));
  rows.push_back(run_clique(4, 1, "uniform", attempts * 2, seed + 2));
  rows.push_back(run_clique(8, 1, "uniform", attempts, seed + 3));
  rows.push_back(run_clique(4, 2, "uniform", attempts, seed + 4));
  rows.push_back(run_clique(4, 2, "stall-burst", attempts, seed + 5));
  rows.push_back(run_clique(8, 2, "uniform", attempts / 2, seed + 6));
  rows.push_back(run_ring(8, "uniform", attempts, seed + 7));
  rows.push_back(run_ring(8, "stall-burst", attempts, seed + 8));
  rows.push_back(run_ring(16, "uniform", attempts / 2, seed + 9));

  Table t({"workload", "schedule", "attempts", "rate", "wilson99-",
           "wilson99+", "floor 1/C_p", "floor held", "overruns"});
  bool all_ok = true;
  for (const auto& r : rows) {
    const double floor = 1.0 / r.c_p;
    // The floor "holds" when the Wilson lower bound clears it — i.e. the
    // data show rate >= floor at 99% confidence, not merely fail to
    // refute it.
    const bool held = r.rate.wilson_lower() >= floor;
    all_ok = all_ok && held && r.overruns == 0;
    t.cell(r.workload).cell(r.schedule).cell(r.rate.trials())
        .cell(r.rate.rate(), 3).cell(r.rate.wilson_lower(), 3)
        .cell(r.rate.wilson_upper(), 3).cell(floor, 3)
        .cell(held ? "yes" : "NO").cell(r.overruns);
    t.end_row();
  }
  t.print();
  std::printf("\nE2 verdict: %s\n",
              all_ok ? "all floors held (and zero delay overruns)"
                     : "FLOOR VIOLATION — investigate");
  return all_ok ? 0 : 1;
}

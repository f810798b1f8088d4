// E4 — corollary to Theorem 1.1: retrying failed attempts gives wait-free
// locks with O(κ³L³T) expected steps per acquisition (attempts are
// independent, each succeeds w.p. >= 1/C_p, each costs O(κ²L²T) steps).
//
// Cliques of κ processes retry until success; the table reports the
// attempts-per-acquisition distribution (geometric-shaped, mean <= C_p)
// and the own-steps per acquisition, with fitted exponents vs κ and L
// (paper: <= 3 in each).
#include <cstdio>
#include <memory>
#include <vector>

#include "wfl/util/cli.hpp"
#include "wfl/util/table.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;
using Space = LockTable<SimPlat>;

struct Result {
  RunningStat attempts_per_win;
  RunningStat steps_per_win;
};

Result run_clique(std::uint32_t kappa, std::uint32_t L, int wins_per_proc,
                  std::uint64_t seed) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = L;
  cfg.max_thunk_steps = 2;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  auto space = std::make_unique<Space>(cfg, static_cast<int>(kappa),
                                       static_cast<int>(L));
  Result res;
  std::vector<RunningStat> att(kappa), steps(kappa);
  Simulator sim(seed);
  for (std::uint32_t p = 0; p < kappa; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(*space);
      StaticLockSet<> ids;
      for (std::uint32_t l = 0; l < L; ++l) ids.insert(l);
      for (int w = 0; w < wins_per_proc; ++w) {
        const std::uint64_t before = SimPlat::steps();
        const Outcome o = submit(
            session, ids, [](IdemCtx<SimPlat>&) {}, Policy::attempts(99999));
        WFL_CHECK(o.won);
        att[p].add(static_cast<double>(o.attempts));
        steps[p].add(static_cast<double>(SimPlat::steps() - before));
      }
    });
  }
  UniformSchedule sched(static_cast<int>(kappa), seed ^ 0x9999);
  WFL_CHECK(sim.run(sched, 16'000'000'000ull));
  for (std::uint32_t p = 0; p < kappa; ++p) {
    res.attempts_per_win.merge(att[p]);
    res.steps_per_win.merge(steps[p]);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int wins = static_cast<int>(cli.flag_int("wins", 20));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 5));
  cli.done();

  std::printf("E4: retry-until-success — expected attempts <= C_p, expected "
              "steps O(k^3 L^3 T)\n\n");

  Table t({"kappa", "L", "C_p", "acqs", "attempts/acq", "att max",
           "steps/acq", "steps max"});
  std::vector<double> kappas, steps_by_kappa, ls, steps_by_l;
  for (std::uint32_t kappa : {2u, 3u, 4u, 6u}) {
    const std::uint32_t L = 2;
    auto r = run_clique(kappa, L, wins, seed + kappa);
    t.cell(kappa).cell(L).cell(kappa * L).cell(r.attempts_per_win.count())
        .cell(r.attempts_per_win.mean(), 2).cell(r.attempts_per_win.max(), 0)
        .cell(r.steps_per_win.mean(), 0).cell(r.steps_per_win.max(), 0);
    t.end_row();
    kappas.push_back(kappa);
    steps_by_kappa.push_back(r.steps_per_win.mean());
    WFL_CHECK(r.attempts_per_win.mean() <= kappa * L + 1);
  }
  for (std::uint32_t L : {1u, 2u, 3u}) {
    const std::uint32_t kappa = 3;
    auto r = run_clique(kappa, L, wins, seed + 50 + L);
    t.cell(kappa).cell(L).cell(kappa * L).cell(r.attempts_per_win.count())
        .cell(r.attempts_per_win.mean(), 2).cell(r.attempts_per_win.max(), 0)
        .cell(r.steps_per_win.mean(), 0).cell(r.steps_per_win.max(), 0);
    t.end_row();
    ls.push_back(L);
    steps_by_l.push_back(r.steps_per_win.mean());
  }
  t.print();

  const double ek = fit_log_log_slope(kappas, steps_by_kappa);
  const double el = fit_log_log_slope(ls, steps_by_l);
  std::printf("\nfitted exponent of steps/acquisition: vs kappa = %.2f, "
              "vs L = %.2f (paper bound: <= 3 each)\n", ek, el);
  const bool ok = ek <= 3.3 && el <= 3.3;
  std::printf("\nE4 verdict: %s\n",
              ok ? "consistent with O(k^3 L^3 T) expected acquisition cost"
                 : "INCONSISTENT — investigate");
  return ok ? 0 : 1;
}

// E1 — Theorems 1.1/6.1: a tryLock attempt takes O(κ²L²T) steps.
//
// Under the simulator, cliques of κ processes contend on the same L locks
// and we measure the *work* segments of every attempt exactly (pre-reveal:
// help + multiInsert; post-reveal: run + multiRemove), excluding the delay
// padding. The table reports:
//   * max/mean pre- and post-reveal work per configuration,
//   * the minimum feasible delay constants c0 = max_pre/(κ²L²T) and
//     c1 = max_post/(κLT) — the constants Algorithm 3's delays must beat,
//   * fitted log-log exponents of max work vs κ and vs L (paper: <= 2).
// A second pass runs the default (theory) constants and asserts zero delay
// overruns — the property Observation 6.7 needs.
#include <cstdio>
#include <memory>
#include <vector>

#include "wfl/util/cli.hpp"
#include "wfl/util/table.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;
using Space = LockTable<SimPlat>;

struct ConfigResult {
  std::uint32_t kappa, locks, thunk;
  RunningStat pre, post;
  std::uint64_t overruns = 0;
};

ConfigResult run_config(std::uint32_t kappa, std::uint32_t locks_per,
                        std::uint32_t thunk_ops, int attempts,
                        DelayMode mode, double c, std::uint64_t seed) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = locks_per;
  cfg.max_thunk_steps = thunk_ops;
  cfg.delay_mode = mode;
  cfg.c0 = c;
  cfg.c1 = c;
  auto space = std::make_unique<Space>(cfg, static_cast<int>(kappa),
                                       static_cast<int>(locks_per));
  auto shared = std::make_unique<Cell<SimPlat>>(0u);

  ConfigResult res;
  res.kappa = kappa;
  res.locks = locks_per;
  res.thunk = thunk_ops;

  Simulator sim(seed);
  std::vector<std::vector<Outcome>> infos(kappa);
  for (std::uint32_t p = 0; p < kappa; ++p) {
    sim.add_process([&, p] {
      Session<SimPlat> session(*space);
      StaticLockSet<> ids;
      for (std::uint32_t l = 0; l < locks_per; ++l) ids.insert(l);
      Cell<SimPlat>& c2 = *shared;
      for (int a = 0; a < attempts; ++a) {
        infos[p].push_back(
            submit(session, ids, [&c2, thunk_ops](IdemCtx<SimPlat>& m) {
              // Burn exactly `thunk_ops` instrumented steps.
              for (std::uint32_t i = 0; i + 1 < thunk_ops; i += 2) {
                m.store(c2, m.load(c2) + 1);
              }
            }));
      }
    });
  }
  UniformSchedule sched(static_cast<int>(kappa), seed ^ 0xABCD);
  WFL_CHECK(sim.run(sched, 4'000'000'000ull));
  for (auto& v : infos) {
    for (const auto& i : v) {
      res.pre.add(static_cast<double>(i.pre_reveal_work));
      res.post.add(static_cast<double>(i.post_reveal_work));
    }
  }
  const auto s = space->stats();
  res.overruns = s.t0_overruns + s.t1_overruns;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int attempts = static_cast<int>(cli.flag_int("attempts", 60));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 42));
  cli.done();

  std::printf("E1: step bound O(k^2 L^2 T) — work per attempt, sim, clique\n");
  std::printf("    (delays off: measures the raw work the T0/T1 budgets "
              "must dominate)\n\n");

  Table t({"kappa", "L", "T", "attempts", "pre.mean", "pre.max", "post.mean",
           "post.max", "min c0", "min c1"});
  std::vector<double> kappas, pre_by_kappa, ls, pre_by_l;
  const std::uint32_t thunk_ops = 4;

  for (std::uint32_t kappa : {1u, 2u, 4u, 6u, 8u}) {
    const std::uint32_t L = 2;
    auto r = run_config(kappa, L, thunk_ops, attempts, DelayMode::kOff, 1.0,
                        seed + kappa);
    const double k2l2t =
        static_cast<double>(kappa) * kappa * L * L * thunk_ops;
    const double klt = static_cast<double>(kappa) * L * thunk_ops;
    t.cell(kappa).cell(L).cell(thunk_ops).cell(r.pre.count())
        .cell(r.pre.mean(), 1).cell(r.pre.max(), 0)
        .cell(r.post.mean(), 1).cell(r.post.max(), 0)
        .cell(r.pre.max() / k2l2t, 2).cell(r.post.max() / klt, 2);
    t.end_row();
    kappas.push_back(kappa);
    pre_by_kappa.push_back(r.pre.max());
  }
  for (std::uint32_t L : {1u, 2u, 3u, 4u}) {
    const std::uint32_t kappa = 4;
    auto r = run_config(kappa, L, thunk_ops, attempts, DelayMode::kOff, 1.0,
                        seed + 100 + L);
    const double k2l2t =
        static_cast<double>(kappa) * kappa * L * L * thunk_ops;
    const double klt = static_cast<double>(kappa) * L * thunk_ops;
    t.cell(kappa).cell(L).cell(thunk_ops).cell(r.pre.count())
        .cell(r.pre.mean(), 1).cell(r.pre.max(), 0)
        .cell(r.post.mean(), 1).cell(r.post.max(), 0)
        .cell(r.pre.max() / k2l2t, 2).cell(r.post.max() / klt, 2);
    t.end_row();
    ls.push_back(L);
    pre_by_l.push_back(r.pre.max());
  }
  t.print();

  const double exp_kappa = fit_log_log_slope(kappas, pre_by_kappa);
  const double exp_l = fit_log_log_slope(ls, pre_by_l);
  std::printf("\nfitted exponent of max pre-reveal work:  vs kappa = %.2f "
              "(paper bound: <= 2)\n", exp_kappa);
  std::printf("fitted exponent of max pre-reveal work:  vs L     = %.2f "
              "(paper bound: <= 2)\n", exp_l);

  // Pass 2: theory mode with the library defaults — overruns must be zero,
  // and total attempt length must be pinned to T0 + T1 (+reveal).
  std::printf("\ntheory-mode validation (default c0=c1=24):\n");
  bool ok = true;
  for (std::uint32_t kappa : {2u, 4u}) {
    auto r = run_config(kappa, 2, thunk_ops, attempts / 2, DelayMode::kTheory,
                        24.0, seed + 500 + kappa);
    std::printf("  kappa=%u L=2: overruns=%llu %s\n", kappa,
                static_cast<unsigned long long>(r.overruns),
                r.overruns == 0 ? "(ok)" : "(VIOLATION)");
    ok = ok && r.overruns == 0;
  }
  // The exit status is the printed verdict, so CI can gate on it.
  const bool consistent = ok && exp_kappa <= 2.3 && exp_l <= 2.3;
  std::printf("\nE1 verdict: %s\n",
              consistent ? "consistent with O(k^2 L^2 T)"
                         : "INCONSISTENT — investigate");
  return consistent ? 0 : 1;
}

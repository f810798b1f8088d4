// E8 — Theorem 6.10: without knowing κ and L, the guess-and-double variant
// keeps success probability Ω(1/(C_p · log(κLT))).
//
// Cliques of κ processes run under (a) the known-bounds Algorithm 3 and
// (b) the adaptive variant, DelayMode::kUnknownBounds; the table compares
// their success rates against the known-bounds floor 1/C_p and the
// adaptive floor 1/(C_p·log2(κLT)) — held when the Wilson-99 lower bound
// clears it — plus the rate ratio (paper: bounded by O(log κLT)) and how
// often the seer-eliminates rule fired (tbd-elims: the cost of our TBD
// resolution, DESIGN.md substitution #4).
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "wfl/util/cli.hpp"
#include "wfl/util/table.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;

// Attempts measure acquisition alone: an empty critical section.
constexpr auto kNoop = [](IdemCtx<SimPlat>&) {};

struct RunOut {
  SuccessRate rate;
  std::uint64_t tbd_elims = 0;
};

// A κ-clique on L locks under `mode`: kTheory is the known-bounds
// Algorithm 3, kUnknownBounds the §6.2 variant (which reads none of the
// bounds below except L, the submit-side budget). Each mode keeps its own
// schedule salt.
RunOut run_clique(DelayMode mode, std::uint32_t kappa, std::uint32_t L,
                  int attempts, std::uint64_t seed) {
  LockConfig cfg;
  cfg.kappa = kappa;
  cfg.max_locks = L;
  cfg.max_thunk_steps = 2;
  cfg.c0 = 8.0;
  cfg.c1 = 8.0;
  cfg.delay_mode = mode;
  auto space = std::make_unique<LockTable<SimPlat>>(
      cfg, static_cast<int>(kappa), static_cast<int>(L));
  RunOut out;
  std::vector<SuccessRate> per(kappa);
  Simulator sim(seed);
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
  const std::uint64_t salt = mode == DelayMode::kTheory ? 0x1111 : 0x2222;
  UniformSchedule sched(static_cast<int>(kappa), seed ^ salt);
  WFL_CHECK(sim.run(sched, 8'000'000'000ull));
  for (auto& pr : per) out.rate.merge(pr);
  out.tbd_elims = space->stats().tbd_eliminations;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int attempts = static_cast<int>(cli.flag_int("attempts", 150));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 13));
  cli.done();

  std::printf("E8: unknown bounds — adaptive variant vs known-bounds "
              "(Theorem 6.10)\n\n");

  Table t({"kappa", "L", "known rate", "adaptive rate", "ratio",
           "log2(kLT)", "adaptive floor", "floor held", "tbd-elims"});
  bool ok = true;
  for (auto [kappa, L] : {std::pair<std::uint32_t, std::uint32_t>{2, 2},
                          {4, 1},
                          {4, 2},
                          {8, 2}}) {
    const std::uint64_t s = seed + kappa * 10 + L;
    const auto known = run_clique(DelayMode::kTheory, kappa, L, attempts, s);
    const auto adap =
        run_clique(DelayMode::kUnknownBounds, kappa, L, attempts, s);
    const double log_factor =
        std::log2(static_cast<double>(kappa) * L * 2 + 2);
    const double floor = 1.0 / (static_cast<double>(kappa) * L * log_factor);
    const bool held = adap.rate.wilson_lower() >= floor;
    ok = ok && held;
    t.cell(kappa).cell(L).cell(known.rate.rate(), 3).cell(adap.rate.rate(), 3)
        .cell(known.rate.rate() / std::max(1e-9, adap.rate.rate()), 2)
        .cell(log_factor, 2).cell(floor, 3).cell(held ? "yes" : "NO")
        .cell(adap.tbd_elims);
    t.end_row();
  }
  t.print();
  std::printf("\nE8 verdict: %s\n",
              ok ? "adaptive variant stays within the log(kLT) band"
                 : "BAND VIOLATION — investigate");
  return ok ? 0 : 1;
}

// fuzz_sched — the coverage-guided schedule-fuzzing campaign driver.
//
// Two modes, selected by the seeded fault:
//
//   * clean mode (no fault): the campaign runs its budget against the real
//     implementation. Exit 0 iff ZERO findings and zero watchdog overruns —
//     this is the "the tree is quiet" gate CI runs on every push.
//
//   * fault mode (--fault NAME or WFL_FUZZ_FAULT): a known bug is
//     re-introduced behind its fuzz-only hook (PR 6's lost-wake and
//     shutdown-hang, PR 7's engine-model race mutations) and the SAME
//     campaign budget must rediscover it. Exit 0 iff at least one finding
//     was produced (with its minimized, deterministically replayable
//     reproducer printed) — this is the mutation-testing gate that proves
//     the fuzzer can actually find the class of bug it exists for. One
//     more gate, skip_revalidate, drops the engine_wide family's in-thunk
//     re-check (fuzz/workload.hpp).
//
// Every knob has a flag and an env override (env wins), so CI YAML and a
// long soak invocation can both steer it without rebuilds:
//   WFL_FUZZ_ITERS  mutation budget            (default 400)
//   WFL_FUZZ_MS     wall-clock backstop, ms    (default 0 = off)
//   WFL_FUZZ_SEED   campaign RNG seed          (default 1)
//   WFL_FUZZ_FAULT  seeded fault name          (default none)
//   WFL_FUZZ_CORPUS extra seed-trace directory (default none)
//   WFL_FUZZ_OUT    reproducer output dir      (default none)
//   WFL_FUZZ_SOAK   nonzero = unbounded: keep fuzzing past findings until
//                   the iteration/wall budget ends (report-all mode)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "wfl/fuzz/campaign.hpp"
#include "wfl/util/cli.hpp"

namespace {

std::string env_or(const char* name, std::string def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : def;
}

std::uint64_t env_or_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

}  // namespace

int main(int argc, char** argv) {
  wfl::Cli cli(argc, argv);
  wfl::fuzz::CampaignOptions opts;
  opts.iters = env_or_u64(
      "WFL_FUZZ_ITERS",
      static_cast<std::uint64_t>(cli.flag_int("iters", 400)));
  opts.max_ms = env_or_u64(
      "WFL_FUZZ_MS", static_cast<std::uint64_t>(cli.flag_int("ms", 0)));
  opts.seed = env_or_u64(
      "WFL_FUZZ_SEED", static_cast<std::uint64_t>(cli.flag_int("seed", 1)));
  opts.fault = env_or("WFL_FUZZ_FAULT", cli.flag_string("fault", ""));
  opts.corpus_in = env_or("WFL_FUZZ_CORPUS", cli.flag_string("corpus", ""));
  opts.out_dir = env_or("WFL_FUZZ_OUT", cli.flag_string("out", ""));
  const bool soak =
      env_or_u64("WFL_FUZZ_SOAK",
                 cli.flag_bool("soak", false) ? 1 : 0) != 0;
  opts.verbose = cli.flag_bool("verbose", false);
  cli.done();
  opts.stop_on_finding = !soak;

  const bool fault_mode = !opts.fault.empty();
  if (fault_mode && !wfl::fuzz::parse_fault(opts.fault).has_value()) {
    std::fprintf(stderr, "unknown fault name: %s\n", opts.fault.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "fuzz_sched: %s campaign, iters=%llu ms=%llu seed=%llu%s%s\n",
               fault_mode ? opts.fault.c_str() : "clean",
               static_cast<unsigned long long>(opts.iters),
               static_cast<unsigned long long>(opts.max_ms),
               static_cast<unsigned long long>(opts.seed),
               soak ? " (soak: report-all)" : "",
               opts.corpus_in.empty() ? "" : " (+seed corpus)");

  const wfl::fuzz::CampaignResult r = wfl::fuzz::run_campaign(opts, std::cerr);

  std::fprintf(stderr,
               "fuzz_sched: %llu iters, corpus %zu, %zu coverage bits, "
               "%llu checked replays, %zu finding(s)\n",
               static_cast<unsigned long long>(r.iters_run), r.corpus_size,
               r.feature_bits,
               static_cast<unsigned long long>(r.checked_replays),
               r.findings.size());

  if (fault_mode) {
    // Mutation gate: the seeded bug must be rediscovered.
    if (r.findings.empty()) {
      std::fprintf(stderr,
                   "fuzz_sched: FAIL — seeded fault '%s' not detected "
                   "within budget\n",
                   opts.fault.c_str());
      return 1;
    }
    std::fprintf(stderr, "fuzz_sched: seeded fault '%s' detected\n",
                 opts.fault.c_str());
    return 0;
  }
  // Clean gate: a quiet tree stays quiet.
  if (!r.findings.empty()) {
    std::fprintf(stderr, "fuzz_sched: FAIL — %zu finding(s) on clean tree\n",
                 r.findings.size());
    return 1;
  }
  std::fprintf(stderr, "fuzz_sched: clean\n");
  return 0;
}

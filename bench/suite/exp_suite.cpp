// exp_suite: one run of one workload of the wflock benchmark.
//
//   exp_suite --workload=W --seed=S --secs=10 [--trace=1] [--spans-out=F]
//
// Workloads (the rationale for each is in README.md):
//   kv_open_200k, kv_open_400k   open-loop KV on AsyncExecutor, 3 workers
//   txn_hot, txn_disjoint        closed-loop sync submit, 4 threads
//   sim_clique                   Algorithm 3 under the simulator
//
// A run sets up 25 times (setup_s is their median), then measures. With
// --trace=1 the measured time is split: an untraced half, then a traced
// half whose request spans give the per-layer self times; the traced p50
// against the untraced one is the tracing overhead. --spans-out writes the
// traced spans (first 20000 requests per thread) as CSV.
//
// The last stdout line is a JSON object: correct/attempted/failed, every
// metric with unit and sample count, and info strings (sim_clique's
// deterministic digest). run.py drives this binary and selects metrics.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kv_open.hpp"
#include "sim_clique.hpp"
#include "suite.hpp"
#include "txn.hpp"
#include "wfl/util/cli.hpp"

namespace {

using namespace suite;  // NOLINT: entry-point file, local scope

constexpr std::uint64_t kTraceSeed = 0x7ACE;
constexpr std::size_t kSpansPerThread = 20000;

double kappa2_l2_t(const wfl::LockConfig& c) {
  return static_cast<double>(c.kappa) * c.kappa * c.max_locks * c.max_locks *
         c.max_thunk_steps;
}

// Untraced phase -> end-to-end metrics; the traced phase (if any) or else
// the untraced one -> per-layer metrics.
void report(Report& r, PhaseResult& main, PhaseResult* traced,
            const SetupTimes& su, double rss0, double bound) {
  add_e2e_metrics(r, main, su);
  add_setup_metrics(r, su, main.hwm_mb - rss0);
  if (traced != nullptr) {
    add_layer_metrics(r, *traced, bound);
    add_trace_metrics(r, *traced, main);
  } else {
    add_layer_metrics(r, main, bound);
  }
}

std::FILE* open_spans(const std::string& path) {
  if (path.empty()) return nullptr;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exp_suite: cannot write %s\n", path.c_str());
    return nullptr;
  }
  std::fprintf(f, "id,span,parent,start_ns,end_ns\n");
  return f;
}

void run_kv(Report& r, double rate, std::uint64_t seed, double secs,
            bool trace, const std::string& spans_out) {
  kv::Load main_load(rate, trace ? secs / 2 : secs, seed, false);
  std::unique_ptr<kv::Load> tr_load;
  if (trace) {
    tr_load = std::make_unique<kv::Load>(rate, secs / 2, seed ^ kTraceSeed, true);
  }
  const std::uint64_t attempted =
      main_load.size() + (tr_load ? tr_load->size() : 0);
  const double rss0 = proc_status_mb("VmRSS");

  SetupTimes su;
  std::unique_ptr<kv::Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    rig = kv::build(r, attempted, su);
  }
  PhaseResult main = kv::phase(*rig, main_load, false, r, attempted);
  PhaseResult traced;
  if (trace) traced = kv::phase(*rig, *tr_load, true, r, attempted);
  kv::check_map(*rig, r);
  r.check(main.failed + traced.failed == 0, "requests without a completion");
  r.attempted = attempted;
  r.failed = main.failed + traced.failed;
  report(r, main, trace ? &traced : nullptr, su, rss0,
         kappa2_l2_t(kv::config()));
  if (std::FILE* f = trace ? open_spans(spans_out) : nullptr) {
    write_spans(f, tr_load->spans, tr_load->size(), false, "",
                tr_load->spans.empty() ? 0 : tr_load->spans[0].base,
                kSpansPerThread);
    std::fclose(f);
  }
}

void run_txn(Report& r, bool hot, std::uint64_t seed, double secs, bool trace,
             const std::string& spans_out) {
  std::vector<txn::ThreadSlots> slots;
  slots.reserve(txn::kThreads);
  for (int t = 0; t < txn::kThreads; ++t) {
    slots.emplace_back(trace ? secs / 2 : secs);
    if (trace) slots.back().spans = std::vector<SpanRec>(txn::kSpanCap);
  }
  const double rss0 = proc_status_mb("VmRSS");

  SetupTimes su;
  std::unique_ptr<txn::Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (rig) txn::check(*rig, r);
    rig.reset();
    rig = txn::build(hot, slots, seed ^ 0x5E7u, su);
  }
  PhaseResult main = txn::phase(*rig, slots, seed, trace ? secs / 2 : secs,
                                false);
  PhaseResult traced;
  if (trace) traced = txn::phase(*rig, slots, seed ^ kTraceSeed, secs / 2, true);
  txn::check(*rig, r);
  r.attempted = main.ops + traced.ops;
  report(r, main, trace ? &traced : nullptr, su, rss0,
         kappa2_l2_t(txn::config()));
  if (std::FILE* f = trace ? open_spans(spans_out) : nullptr) {
    const std::int64_t t0 = slots[0].nspans > 0 ? slots[0].spans[0].base : 0;
    for (std::size_t t = 0; t < slots.size(); ++t) {
      const std::string prefix = "t" + std::to_string(t) + "-";
      write_spans(f, slots[t].spans, slots[t].nspans, true, prefix.c_str(), t0,
                  kSpansPerThread);
    }
    std::fclose(f);
  }
}

void run_sim(Report& r, std::uint64_t seed, double secs, bool trace,
             const std::string& spans_out) {
  const int main_ops = sim::ops_per_proc(trace ? secs / 2 : secs);
  const int tr_ops = trace ? sim::ops_per_proc(secs / 2) : 0;
  std::vector<sim::ProcSlots> main_slots;
  std::vector<sim::ProcSlots> tr_slots;
  sim::size_slots(main_slots, main_ops, false);
  if (trace) sim::size_slots(tr_slots, tr_ops, true);
  const double rss0 = proc_status_mb("VmRSS");

  SetupTimes su;
  for (int i = 0; i < kSetupRepeats; ++i) sim::setup(su, i);
  PhaseResult main = sim::phase(main_slots, seed, main_ops, false, r);
  PhaseResult traced;
  if (trace) traced = sim::phase(tr_slots, seed ^ kTraceSeed, tr_ops, true, r);
  r.attempted = main.ops + traced.ops;
  report(r, main, trace ? &traced : nullptr, su, rss0, kappa2_l2_t(sim::config()));
  if (std::FILE* f = trace ? open_spans(spans_out) : nullptr) {
    const std::int64_t t0 = tr_slots[0].spans.empty() ? 0 : tr_slots[0].spans[0].base;
    for (std::size_t p = 0; p < tr_slots.size(); ++p) {
      const std::string prefix = "p" + std::to_string(p) + "-";
      write_spans(f, tr_slots[p].spans, tr_slots[p].spans.size(), true,
                  prefix.c_str(), t0, kSpansPerThread);
    }
    std::fclose(f);
  }
}

}  // namespace

int main(int argc, char** argv) {
  wfl::Cli cli(argc, argv);
  const std::string workload = cli.flag_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.flag_int("seed", 1));
  const double secs = cli.flag_double("secs", 10.0);
  const bool trace = cli.flag_bool("trace", false);
  const std::string spans_out = cli.flag_string("spans-out", "");
  cli.done();
  if (!(secs > 0.0 && secs <= 600.0)) {
    std::fprintf(stderr, "exp_suite: --secs must be in (0, 600]\n");
    return 2;
  }

  Report r;
  r.workload = workload;
  r.seed = seed;
  if (workload == "kv_open_200k") {
    run_kv(r, 200000, seed, secs, trace, spans_out);
  } else if (workload == "kv_open_400k") {
    run_kv(r, 400000, seed, secs, trace, spans_out);
  } else if (workload == "txn_hot") {
    run_txn(r, true, seed, secs, trace, spans_out);
  } else if (workload == "txn_disjoint") {
    run_txn(r, false, seed, secs, trace, spans_out);
  } else if (workload == "sim_clique") {
    run_sim(r, seed, secs, trace, spans_out);
  } else {
    std::fprintf(stderr, "exp_suite: unknown --workload=%s\n",
                 workload.c_str());
    return 2;
  }
  r.print();
  return 0;
}

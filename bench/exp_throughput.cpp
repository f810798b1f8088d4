// E5 — practicality (§7): throughput of the wait-free locks against the §3
// baselines on the bank-transfer workload, real threads.
//
// One driver, every discipline: the Bank substrate is templated on a
// LockBackend, so each row is the registry entry's backend running the
// SAME substrate code under Policy::retry() —
//
//   wflock        — Algorithm 3, practical mode (delays off, retry on fail)
//   turek         — lock-free locks with recursive helping
//   spin2pl       — test-and-set spinlocks, ordered 2PL, bounded trylock
//   mutex2pl      — std::mutex ordered 2PL (blocking)
//
// plus one off-registry configuration row, wflock(fair): Algorithm 3 with
// the paper's delays — the fairness bounds' price tag, paid in T0/T1
// stalls. (Same backend, different BackendConfig; delay modes are config,
// not discipline.)
//
// Output: the human table goes to stderr; stdout carries one wfl-bench-v1
// JSON document (exp_json.hpp) whose entries have a "backend" key, so
//   ./exp_throughput > EXP_throughput.json
// captures machine-comparable rows per (backend, threads).
//
// Numbers are machine-dependent (this table is about *shape*: wflock's
// practical mode should land within a small factor of the blocking
// baselines while keeping per-attempt bounds; the fair mode pays ~T0+T1
// spins per op).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "exp_json.hpp"
#include "wfl/util/cli.hpp"
#include "wfl/util/table.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;
using Plat = RealPlat;

constexpr int kAccounts = 16;
constexpr std::uint32_t kInitial = 1000;

struct RunOut {
  double ops_per_sec = 0;
  double attempts_per_op = 0;
  bool conserved = false;
  std::string note;  // table-only annotation (e.g. the batch size)
};

// Drives `op(thread, a, b, amount) -> attempts` from `threads` threads for
// `secs`, then audits conservation.
template <typename Op, typename Audit>
RunOut drive(int threads, double secs, Op&& op, Audit&& audit,
             std::uint64_t expected) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> attempts{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Plat::seed_rng(4000 + static_cast<std::uint64_t>(t));
      Xoshiro256 rng(t * 7 + 3);
      std::uint64_t local = 0, local_attempts = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(kAccounts));
        auto b = static_cast<std::uint32_t>(rng.next_below(kAccounts));
        if (b == a) b = (b + 1) % kAccounts;
        local_attempts +=
            op(t, a, b, static_cast<std::uint32_t>(rng.next_below(10)));
        ++local;
      }
      ops.fetch_add(local, std::memory_order_relaxed);
      attempts.fetch_add(local_attempts, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  stop.store(true);
  for (auto& th : ts) th.join();
  RunOut out;
  const auto total_ops = ops.load();
  out.ops_per_sec = static_cast<double>(total_ops) / secs;
  out.attempts_per_op =
      total_ops > 0
          ? static_cast<double>(attempts.load()) / static_cast<double>(total_ops)
          : 0.0;
  out.conserved = audit() == expected;
  return out;
}

BackendConfig bank_cfg(int threads) {
  BackendConfig bc;
  bc.lock.kappa = static_cast<std::uint32_t>(threads);
  bc.lock.max_locks = 2;
  bc.lock.max_thunk_steps = 8;
  bc.lock.delay_mode = DelayMode::kOff;
  bc.max_procs = threads;
  bc.num_locks = kAccounts;
  return bc;
}

// The batch row: the same wflock space and substrate, but the inner loop
// submits chunks of 16 transfers through Bank::transfer_batch — the PR-5
// batch entry point that amortizes EBR guard entry and lock-set
// validation instead of re-validating a fresh StaticLockSet per transfer.
RunOut run_bank_batch(int threads, double secs, const BackendConfig& bc) {
  using B = WflBackend<Plat>;
  constexpr int kBatch = 16;
  auto space = B::make_space(bc);
  Bank<B> bank(*space, kAccounts, kInitial);
  std::vector<typename B::Session> sessions;
  sessions.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) sessions.emplace_back(*space);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> attempts{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      Plat::seed_rng(4000 + static_cast<std::uint64_t>(t));
      Xoshiro256 rng(t * 7 + 3);
      using Transfer = typename Bank<B>::Transfer;
      std::uint64_t local = 0, local_attempts = 0;
      std::vector<Transfer> xs(kBatch);
      while (!stop.load(std::memory_order_relaxed)) {
        for (Transfer& x : xs) {
          x.from = static_cast<std::uint32_t>(rng.next_below(kAccounts));
          x.to = static_cast<std::uint32_t>(rng.next_below(kAccounts));
          if (x.to == x.from) x.to = (x.to + 1) % kAccounts;
          x.amount = static_cast<std::uint32_t>(rng.next_below(10));
        }
        const BatchOutcome o = bank.transfer_batch(
            sessions[static_cast<std::size_t>(t)],
            std::span<const Transfer>(xs.data(), xs.size()),
            Policy::retry());
        local += o.ops;
        local_attempts += o.attempts;
      }
      ops.fetch_add(local, std::memory_order_relaxed);
      attempts.fetch_add(local_attempts, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  stop.store(true);
  for (auto& th : ts) th.join();
  RunOut out;
  const auto total_ops = ops.load();
  out.ops_per_sec = static_cast<double>(total_ops) / secs;
  out.attempts_per_op =
      total_ops > 0 ? static_cast<double>(attempts.load()) /
                          static_cast<double>(total_ops)
                    : 0.0;
  out.conserved = bank.total_balance() ==
                  static_cast<std::uint64_t>(kInitial) * kAccounts;
  out.note = " B" + std::to_string(kBatch);
  return out;
}

// One (backend, config, threads) measurement through the generic substrate.
template <typename B>
RunOut run_bank(int threads, double secs, const BackendConfig& bc) {
  auto space = B::make_space(bc);
  Bank<B> bank(*space, kAccounts, kInitial);
  std::vector<typename B::Session> sessions;
  sessions.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) sessions.emplace_back(*space);
  RunOut out = drive(
      threads, secs,
      [&](int tt, std::uint32_t a, std::uint32_t b, std::uint32_t amt) {
        return bank
            .transfer(sessions[static_cast<std::size_t>(tt)], a, b, amt,
                      Policy::retry())
            .attempts;
      },
      [&] { return bank.total_balance(); },
      static_cast<std::uint64_t>(kInitial) * kAccounts);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double secs = cli.flag_double("secs", 0.4);
  cli.done();

  std::fprintf(stderr,
               "E5: bank-transfer throughput (ops/s), %d accounts, "
               "2 locks/op, real threads\n\n", kAccounts);

  // A thread column past the online CPU count measures oversubscription.
  const int cpus =
      static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  bool oversubscribed = false;
  Table t({"strategy", "threads", "ops/s", "attempts/op", "total conserved"});
  wfl_bench::ExpJson json;
  auto record = [&](const std::string& label, const char* backend,
                    int threads, const RunOut& out) {
    oversubscribed |= threads > cpus;
    t.cell(label + out.note)
        .cell(std::to_string(threads) + (threads > cpus ? " oversub" : ""))
        .cell(format_si(out.ops_per_sec))
        .cell(out.attempts_per_op, 2)
        .cell(out.conserved ? "yes" : "NO");
    t.end_row();
    json.add("bank_transfer/" + label, backend, threads)
        .ops_per_s(out.ops_per_sec)
        .field("attempts_per_op", out.attempts_per_op)
        .field("total_conserved", out.conserved ? 1 : 0);
  };

  for (int threads : {1, 2, 4}) {
    // The registry sweep: every lock discipline, same substrate, same cfg.
    RealBackends::for_each([&](auto tag) {
      using B = typename decltype(tag)::type;
      record(B::name(), B::name(), threads,
             run_bank<B>(threads, secs, bank_cfg(threads)));
    });
    {  // wflock(fair): the same backend under the paper's theory delays.
      BackendConfig bc = bank_cfg(threads);
      bc.lock.delay_mode = DelayMode::kTheory;
      bc.lock.c0 = 4.0;
      bc.lock.c1 = 4.0;
      record("wflock_fair", "wflock", threads,
             run_bank<WflBackend<Plat>>(threads, secs, bc));
    }
    // wflock(batch): practical mode through Bank::transfer_batch.
    record("wflock_batch", "wflock", threads,
           run_bank_batch(threads, secs, bank_cfg(threads)));
  }
  t.print(stderr);
  if (oversubscribed) {
    std::fprintf(stderr,
                 "\n(%d online CPUs: rows marked oversub run more threads "
                 "than CPUs and measure oversubscription behavior, which is "
                 "where blocking strategies suffer preemption-holding-lock "
                 "stalls)\n",
                 cpus);
  } else {
    std::fprintf(stderr,
                 "\n(%d online CPUs: no row runs more threads than CPUs)\n",
                 cpus);
  }
  json.emit();
  return 0;
}

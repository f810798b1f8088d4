// Multi-lock transactions: bank transfers under four locking strategies.
//
// Moves money between accounts with atomic two-lock critical sections and
// audits conservation of the total. Runs the same workload over:
//   * wflock        — this paper's wait-free locks (practical mode),
//   * wflock(fair)  — with the paper's fixed delays (theory mode),
//   * turek         — lock-free locks with recursive helping (§3 baseline),
//   * mutex2pl      — ordered two-phase locking over std::mutex.
//
// Build & run:  ./examples/bank_transfer
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace {

constexpr int kThreads = 4;
constexpr int kAccounts = 16;
constexpr int kOpsPerThread = 3000;
constexpr std::uint32_t kInitial = 1000;

// Runs the workload and prints its row; true iff the total was conserved.
template <typename RunOp>
bool run_workload(const char* name, RunOp&& run_op,
                    std::uint64_t expected_total,
                    const std::function<std::uint64_t()>& audit) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      wfl::RealPlat::seed_rng(500 + t);
      wfl::Xoshiro256 rng(t * 13 + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next_below(kAccounts));
        auto b = static_cast<std::uint32_t>(rng.next_below(kAccounts));
        if (b == a) b = (b + 1) % kAccounts;
        const auto amount = static_cast<std::uint32_t>(rng.next_below(10));
        run_op(t, a, b, amount);
      }
    });
  }
  for (auto& th : ts) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t total = audit();
  std::printf("%-14s %8.0f ops/s   total=%llu %s\n", name,
              kThreads * kOpsPerThread / secs,
              static_cast<unsigned long long>(total),
              total == expected_total ? "(conserved)" : "(LOST MONEY!)");
  return total == expected_total;
}

// A baseline backend's row: retried transfers through Bank<B>.
template <typename B>
bool run_baseline(std::uint64_t expected) {
  wfl::BackendConfig cfg;
  cfg.lock.kappa = kThreads;
  cfg.lock.delay_mode = wfl::DelayMode::kOff;
  cfg.max_procs = kThreads;
  cfg.num_locks = kAccounts;
  auto space = B::make_space(cfg);
  wfl::Bank<B> bank(*space, kAccounts, kInitial);
  std::vector<typename B::Session> sessions;
  for (int t = 0; t < kThreads; ++t) sessions.emplace_back(*space);
  return run_workload(
      B::name(),
      [&](int t, std::uint32_t a, std::uint32_t b, std::uint32_t amt) {
        bank.transfer(sessions[t], a, b, amt, wfl::Policy::retry());
      },
      expected, [&] { return bank.total_balance(); });
}

}  // namespace

int main() {
  using Plat = wfl::RealPlat;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kInitial) * kAccounts;
  bool ok = true;

  {  // wflock, practical mode — retry failed attempts
    wfl::LockConfig cfg;
    cfg.kappa = kThreads;
    cfg.max_locks = 2;
    cfg.max_thunk_steps = 8;
    cfg.delay_mode = wfl::DelayMode::kOff;
    wfl::LockTable<Plat> space(cfg, kThreads, kAccounts);
    wfl::Bank<Plat> bank(space, kAccounts, kInitial);
    std::vector<wfl::Session<Plat>> sessions;
    for (int t = 0; t < kThreads; ++t) sessions.emplace_back(space);
    ok &= run_workload(
        "wflock",
        [&](int t, std::uint32_t a, std::uint32_t b, std::uint32_t amt) {
          while (!bank.try_transfer(sessions[t], a, b, amt)) {
          }
        },
        expected, [&] { return bank.total_balance(); });
  }
  {  // wflock, theory mode (paper delays: fairness bounds hold; slower)
    wfl::LockConfig cfg;
    cfg.kappa = kThreads;
    cfg.max_locks = 2;
    cfg.max_thunk_steps = 8;
    cfg.delay_mode = wfl::DelayMode::kTheory;
    cfg.c0 = 4.0;
    cfg.c1 = 4.0;
    wfl::LockTable<Plat> space(cfg, kThreads, kAccounts);
    wfl::Bank<Plat> bank(space, kAccounts, kInitial);
    std::vector<wfl::Session<Plat>> sessions;
    for (int t = 0; t < kThreads; ++t) sessions.emplace_back(space);
    ok &= run_workload(
        "wflock(fair)",
        [&](int t, std::uint32_t a, std::uint32_t b, std::uint32_t amt) {
          while (!bank.try_transfer(sessions[t], a, b, amt)) {
          }
        },
        expected, [&] { return bank.total_balance(); });
  }
  // The two baselines, through the same Bank substrate.
  ok &= run_baseline<wfl::TurekBackend<Plat>>(expected);
  ok &= run_baseline<wfl::Mutex2plBackend>(expected);
  std::printf("bank_transfer: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

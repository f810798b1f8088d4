// Quickstart: the one-pager for wflock.
//
//   * create a LockTable (a family of locks with configured κ/L/T bounds),
//   * open a Session per thread — RAII: registration on construction,
//     automatic release of the process slot on destruction,
//   * build a StaticLockSet — sorted, deduplicated and budget-checked at
//     construction, not deep inside the lock path,
//   * submit(session, locks, thunk, Policy) — the one entry point for
//     one-shot, capped and retry-until-success acquisition, returning the
//     unified Outcome accounting (won / attempts / own steps).
//
// The thunk is a *critical section in idempotent memory*: it reads/writes
// Cell values through the IdemCtx handle, because under the hood other
// threads may help execute it — that's what makes the locks wait-free.
//
// Build & run:  ./examples/quickstart
#include <cstdio>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

int main() {
  using Plat = wfl::RealPlat;
  constexpr int kThreads = 4;
  constexpr int kLocks = 8;
  constexpr std::uint32_t kOps = 10000;

  wfl::LockConfig cfg;
  cfg.kappa = kThreads;       // promise: <= 4 concurrent attempts per lock
  cfg.max_locks = 2;          // promise: <= 2 locks per attempt
  cfg.max_thunk_steps = 8;    // promise: <= 8 shared-memory ops per thunk
  cfg.delay_mode = wfl::DelayMode::kOff;  // practical mode (see README)

  wfl::LockTable<Plat> space(cfg, kThreads, kLocks);

  // Two shared counters, each guarded by one lock id.
  wfl::Cell<Plat> even_count{0};
  wfl::Cell<Plat> odd_count{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Plat::seed_rng(1000 + t);
      wfl::Session<Plat> session(space);  // RAII: one per thread
      const wfl::StaticLockSet<2> locks({0, 1}, cfg);  // both counters
      std::uint64_t attempts = 0;
      for (std::uint32_t i = 0; i < kOps; ++i) {
        // Retry-until-success: each attempt is wait-free, and a failed
        // attempt is retried with fresh randomness (attempts win
        // independently with probability >= 1/(κL)).
        const wfl::Outcome o = wfl::submit(
            session, locks,
            [&](wfl::IdemCtx<Plat>& m) {
              // Critical section: atomic across BOTH counters.
              const auto e = m.load(even_count);
              const auto o_ = m.load(odd_count);
              m.store(even_count, e + 2);
              m.store(odd_count, o_ + 1);
            },
            wfl::Policy::retry());
        attempts += o.attempts;
      }
      std::printf("thread %d: %u wins / %llu attempts (%.1f%% win rate)\n",
                  t, kOps, static_cast<unsigned long long>(attempts),
                  100.0 * kOps / static_cast<double>(attempts));
    });
  }
  for (auto& w : workers) w.join();

  // Every increment happened exactly once, atomically across both cells.
  std::printf("even_count = %u (expected %u)\n", even_count.peek(),
              2 * kThreads * kOps);
  std::printf("odd_count  = %u (expected %u)\n", odd_count.peek(),
              kThreads * kOps);
  const bool ok = even_count.peek() == 2u * kThreads * kOps &&
                  odd_count.peek() == 1u * kThreads * kOps;
  std::printf("%s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}

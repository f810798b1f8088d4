// Fine-grained locking on a data structure — the paper's motivating use
// case (§1): "operations on linked lists ... that require taking a lock on
// a node and its neighbors for the purpose of making a local update."
//
// Four threads hammer a sorted-list set with inserts and erases; every
// mutation tryLocks {predecessor, current} and re-validates inside the
// critical section. The final list is audited against the per-key net
// insertion counts.
//
// Build & run:  ./examples/concurrent_list
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

int main() {
  using Plat = wfl::RealPlat;
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  constexpr int kOpsPerThread = 4000;
  constexpr std::uint32_t kCapacity = 16384;

  wfl::LockConfig cfg;
  cfg.kappa = kThreads + 1;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = wfl::DelayMode::kOff;

  wfl::LockTable<Plat> space(cfg, kThreads, kCapacity);
  wfl::LockedList<Plat> list(space, kCapacity);

  std::atomic<int> net[kKeys] = {};
  std::atomic<std::uint64_t> total_attempts{0};
  std::atomic<std::uint64_t> total_ops{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Plat::seed_rng(42 + t);
      wfl::Session<Plat> session(space);  // RAII: registered for the scope
      wfl::Xoshiro256 rng(77 + t);
      std::uint64_t attempts = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(1 + rng.next_below(kKeys));
        if (rng.next_below(2) == 0) {
          if (list.insert(session, key, &attempts)) ++net[key - 1];
        } else {
          if (list.erase(session, key, &attempts)) --net[key - 1];
        }
      }
      total_attempts.fetch_add(attempts);
      total_ops.fetch_add(kOpsPerThread);
    });
  }
  for (auto& w : workers) w.join();

  const auto keys = list.keys();
  bool ok = true;
  for (std::uint32_t k = 1; k <= kKeys; ++k) {
    const bool present = std::find(keys.begin(), keys.end(), k) != keys.end();
    const int n = net[k - 1].load();
    if (n != (present ? 1 : 0)) {
      std::printf("MISMATCH at key %u: net=%d present=%d\n", k, n, present);
      ok = false;
    }
  }
  std::printf("final set size: %zu keys (sorted & tombstone-free: checked)\n",
              keys.size());
  std::printf("ops: %llu, tryLock attempts: %llu (%.2f attempts/op)\n",
              static_cast<unsigned long long>(total_ops.load()),
              static_cast<unsigned long long>(total_attempts.load()),
              static_cast<double>(total_attempts.load()) / total_ops.load());
  const auto s = space.stats();
  std::printf("lock stats: attempts=%llu wins=%llu helps=%llu\n",
              static_cast<unsigned long long>(s.attempts),
              static_cast<unsigned long long>(s.wins),
              static_cast<unsigned long long>(s.helps));
  std::printf("%s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}

// Example: a tiny transactional key-value store on wait-free locks.
//
// LockedHashMap gives per-bucket locking (put/get/erase lock one bucket,
// swap locks two) on top of a LockTable. This example runs a mixed workload
// from several threads — inserts, lookups, deletes, and atomic two-key
// swaps — and then audits two invariants a torn multi-key operation would
// break:
//
//   * the multiset of values reachable through the "inventory" keys is
//     exactly what the initial population plus completed puts imply
//     (swaps only permute values, so they must conserve the multiset);
//   * per-key accounting from each thread's successful operations matches
//     final membership.
//
// Build & run:  ./examples/kv_store
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

int main() {
  using Plat = wfl::RealPlat;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kInventoryKeys = 24;
  constexpr int kOpsPerThread = 3000;

  wfl::LockConfig cfg;
  cfg.kappa = kThreads + 1;  // workers + the main-thread populator
  cfg.max_locks = 2;         // swap touches two buckets
  cfg.max_thunk_steps = wfl::LockedHashMap<Plat>::thunk_step_budget();
  cfg.delay_mode = wfl::DelayMode::kOff;  // practical mode

  wfl::LockTable<Plat> space(cfg, kThreads + 1, 256);
  wfl::LockedHashMap<Plat> store(space, 256, 4096);

  // Populate: inventory slot i holds value 1000 + i. The scoped session
  // releases its process slot at the end of the block, so the populator's
  // slot is reused by the first worker thread.
  {
    wfl::Session<Plat> session(space);
    for (std::uint64_t k = 1; k <= kInventoryKeys; ++k) {
      if (store.put(session, k, static_cast<std::uint32_t>(1000 + k)) !=
          wfl::kMapOk) {
        std::fprintf(stderr, "populate failed\n");
        return 1;
      }
    }
  }

  // Mixed workload: swaps permute inventory values; puts/erases churn a
  // disjoint per-thread scratch key range (no cross-thread accounting
  // needed there, which keeps the audit exact).
  std::vector<std::thread> workers;
  std::vector<std::uint64_t> swaps_done(kThreads, 0);
  std::vector<std::int64_t> scratch_net(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Plat::seed_rng(42 + static_cast<std::uint64_t>(t));
      wfl::Session<Plat> session(space);
      wfl::Xoshiro256 rng(7 + static_cast<std::uint64_t>(t));
      const std::uint64_t scratch_base = 1000 + 100 * t;
      for (int i = 0; i < kOpsPerThread; ++i) {
        switch (rng.next_below(4)) {
          case 0: {  // atomic two-key swap inside the inventory
            const std::uint64_t a = 1 + rng.next_below(kInventoryKeys);
            std::uint64_t b = 1 + rng.next_below(kInventoryKeys);
            if (b == a) b = 1 + (b % kInventoryKeys);
            if (store.swap(session, a, b) == wfl::kMapOk) {
              ++swaps_done[static_cast<std::size_t>(t)];
            }
            break;
          }
          case 1: {  // scratch put
            const std::uint64_t k = scratch_base + rng.next_below(50);
            const auto r = store.put(session, k, static_cast<std::uint32_t>(i));
            if (r == wfl::kMapOk) ++scratch_net[static_cast<std::size_t>(t)];
            break;
          }
          case 2: {  // scratch erase
            const std::uint64_t k = scratch_base + rng.next_below(50);
            if (store.erase(session, k) == wfl::kMapOk) {
              --scratch_net[static_cast<std::size_t>(t)];
            }
            break;
          }
          default: {  // lookup (locked, so it linearizes with updates)
            const std::uint64_t k = 1 + rng.next_below(kInventoryKeys);
            std::uint32_t v = 0;
            if (store.get_locked(session, k, &v) != wfl::kMapOk) {
              std::fprintf(stderr, "inventory key %llu vanished!\n",
                           static_cast<unsigned long long>(k));
              std::exit(1);
            }
          }
        }
      }
    });
  }
  for (auto& th : workers) th.join();

  // Audit 1: swaps conserve the inventory value multiset.
  std::map<std::uint32_t, int> histogram;
  for (std::uint64_t k = 1; k <= kInventoryKeys; ++k) {
    std::uint32_t v = 0;
    if (!store.get(k, &v)) {
      std::fprintf(stderr, "FAIL: inventory key %llu missing\n",
                   static_cast<unsigned long long>(k));
      return 1;
    }
    ++histogram[v];
  }
  bool multiset_ok = histogram.size() == kInventoryKeys;
  for (std::uint64_t k = 1; k <= kInventoryKeys && multiset_ok; ++k) {
    multiset_ok = histogram[static_cast<std::uint32_t>(1000 + k)] == 1;
  }

  // Audit 2: scratch membership equals per-thread net accounting.
  std::int64_t scratch_total = 0;
  std::uint64_t scratch_present = 0;
  for (int t = 0; t < kThreads; ++t) {
    scratch_total += scratch_net[static_cast<std::size_t>(t)];
    for (std::uint64_t k = 1000 + 100 * t; k < 1000 + 100 * t + 50; ++k) {
      std::uint32_t v = 0;
      if (store.get(k, &v)) ++scratch_present;
    }
  }

  std::uint64_t total_swaps = 0;
  for (const auto s : swaps_done) total_swaps += s;
  std::printf("kv_store: %d threads x %d ops, %llu atomic swaps\n", kThreads,
              kOpsPerThread, static_cast<unsigned long long>(total_swaps));
  std::printf("  inventory multiset conserved: %s\n",
              multiset_ok ? "yes" : "NO — torn swap!");
  std::printf("  scratch membership %llu == net accounting %lld: %s\n",
              static_cast<unsigned long long>(scratch_present),
              static_cast<long long>(scratch_total),
              scratch_present == static_cast<std::uint64_t>(scratch_total)
                  ? "yes"
                  : "NO");
  const bool ok = multiset_ok &&
                  scratch_present == static_cast<std::uint64_t>(scratch_total);
  std::printf("kv_store: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

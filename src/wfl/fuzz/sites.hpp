// Fuzz-campaign instrumentation points: site taps and fault hooks.
//
// Two global registries, both designed around the same cost contract as
// the analysis layer's hooks (check/race.hpp): when no campaign is active
// every call is one relaxed load and a predicted not-taken branch, so
// RealPlat builds and benches pay effectively nothing.
//
//   * WFL_FUZZ_SITE(site) — a coverage tap at a RARE branch. The striped
//     StatsSlab counters already give the fuzzer a cheap per-run feature
//     vector (fastpath_hits/revocations, help_claim_skips,
//     log_slot_resets, ...), but the branches the campaign most wants to
//     steer into — a revocation losing its race, a help claim expiring, a
//     cooldown resuming under traffic, a cancel sweep claiming a parked
//     op — either fold into those aggregates or have no counter at all.
//     A tap gives each of them its own feature-map dimension.
//
//   * wfl::fuzz::fault_on(f) — seeded-fault gates for mutation-testing
//     the campaign itself (DESIGN.md §9.4). A fault re-introduces a real,
//     previously-shipped bug behind a flag that only the fuzz driver and
//     the reproducer regression tests ever raise; the CI gate requires
//     the bounded campaign to find each one. The hooks guard the FIXED
//     code, so a clean tree with no fault enabled runs the exact shipped
//     logic.
//
// This header is include-light on purpose (only <atomic>/<cstdint>): it
// is pulled into core headers (active_set/descriptor/lock_table/attempt/
// process/async_executor) that must not grow dependencies.
#pragma once

#include <atomic>
#include <cstdint>

namespace wfl::fuzz {

// Coverage sites. Order is part of the on-disk feature layout only in the
// sense that RunResult snapshots hits by index; renumbering just reshuffles
// feature hashes (the corpus re-learns), it breaks nothing persistent.
enum Site : int {
  kSiteThinRevocation = 0,  // fast-path release CAS lost to a rival's
                            // observed bit (lock_table.hpp)
  kSiteClaimExpiry,         // a foreign help claim went stale and was
                            // revoked by an impatient helper (attempt.hpp)
  kSiteCooldownResume,      // a fast-path cooldown token's grace period
                            // expired and re-armed the embedded
                            // descriptor (process.hpp)
  kSiteAsyncSignalOnDone,   // complete() observed a pending kSignalled on
                            // its kDone transition and re-delivered it
                            // (async_executor.hpp — the PR 6 lost-wake
                            // fix's re-post branch)
  kSiteAsyncCancelSweep,    // a cancellation sweep claimed a parked op
                            // (async_executor.hpp)
  kSiteCount
};

inline const char* site_name(int s) {
  switch (s) {
    case kSiteThinRevocation: return "thin_revocation";
    case kSiteClaimExpiry: return "claim_expiry";
    case kSiteCooldownResume: return "cooldown_resume";
    case kSiteAsyncSignalOnDone: return "async_signal_on_done";
    case kSiteAsyncCancelSweep: return "async_cancel_sweep";
    default: return "?";
  }
}

// Per-run hit counts. Single-writer-ish by construction under the
// simulator (one OS thread); under real threads the load-then-store bump
// is racy-but-advisory, exactly like StatsSlab (coverage is a heuristic
// signal, never a correctness input).
struct SiteTable {
  std::atomic<std::uint64_t> hits[kSiteCount] = {};

  void reset() {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  }
  std::uint64_t hit_count(int s) const {
    return hits[s].load(std::memory_order_relaxed);
  }
};

inline std::atomic<SiteTable*> g_sites{nullptr};

// RAII installer; the campaign scopes one table per run.
class SiteScope {
 public:
  explicit SiteScope(SiteTable& t) {
    t.reset();
    g_sites.store(&t, std::memory_order_relaxed);
  }
  ~SiteScope() { g_sites.store(nullptr, std::memory_order_relaxed); }
  SiteScope(const SiteScope&) = delete;
  SiteScope& operator=(const SiteScope&) = delete;
};

inline void site_hit(Site s) {
  SiteTable* t = g_sites.load(std::memory_order_relaxed);
  if (t == nullptr) return;  // predicted: no campaign active
  std::atomic<std::uint64_t>& c = t->hits[s];
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// Seeded faults (one at a time; the campaign runs one gate per process).
enum class Fault : std::uint8_t {
  kNone = 0,
  // PR 6 lost-wake: complete() stores kDone unconditionally instead of
  // exchanging, swallowing a kSignalled delivery whose re-post is what
  // keeps the wake-one baton alive when the signalled op never retries.
  kLostWake,
  // PR 6 shutdown hang: the cancellation sweep claims a parked op but
  // the dispatch lands on a pool whose workers already exited, so the
  // claimed, cancelled work never runs and the in-flight drain spins
  // forever. The armed fault diverts sweep-claimed ops to a limbo stack
  // that only drains once the fault is disarmed.
  kShutdownHang,
  // Validate-in-thunk: the engine_wide family's token move (fuzz/
  // workload.hpp) reads a token's lane without a lock, locks {src, dst}
  // and re-checks the lane inside the thunk. The armed fault drops the
  // re-check, so a move whose read went stale takes the token from a lane
  // it has already left.
  kSkipRevalidate,
  // Thunk done word: a run publishes "done" before its logged ops have
  // landed, so a racing run — the owner's own, typically — skips a thunk
  // whose effects are not yet installed (or never will be, if the early
  // run crashes).
  kEarlyDone,
  // Known owner on remove: ActiveSet::remove's climb reuses the empty
  // owner word it just stored for its own level instead of loading it
  // (insert may; remove may not — DESIGN.md §2.1). A slot cleared and
  // claimed again at once then loses its new owner from the snapshot.
  kStaleRemoveOwner,
};

inline std::atomic<Fault> g_fault{Fault::kNone};

inline bool fault_on(Fault f) {
  return g_fault.load(std::memory_order_relaxed) == f;
}

class FaultScope {
 public:
  explicit FaultScope(Fault f) { g_fault.store(f, std::memory_order_relaxed); }
  ~FaultScope() { g_fault.store(Fault::kNone, std::memory_order_relaxed); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
};

}  // namespace wfl::fuzz

// Zero-cost-when-idle coverage tap; keep at RARE branches only — a tap on
// a hot path would still be cheap, but its feature would saturate and
// carry no signal.
#define WFL_FUZZ_SITE(site) ::wfl::fuzz::site_hit(::wfl::fuzz::site)

// Coverage signal for the schedule fuzzer.
//
// No compiler instrumentation: the repo already meters itself. A run's
// "behavior" is summarized by a fixed-layout feature vector assembled
// from (a) LockStats deltas — the striped StatsSlab counters are exact at
// quiescence and each one names a protocol path (fast-path hit vs.
// revocation, helping vs. claim-ceding, lazy log resets), (b) the
// WFL_FUZZ_SITE rare-branch taps (fuzz/sites.hpp), and (c) executor
// gauges for the async workload (parks/wakes/signals). Each (feature
// index, AFL-style log2 bucket of its value) pair hashes to a bit in a
// 64 Kbit map; a run that sets any never-seen bit is "interesting" and
// its trace enters the corpus. Bucketing by magnitude rather than exact
// value is what makes the signal a gradient: 0 -> 1 -> "a few" -> "many"
// hits of a rare branch are distinct features, but 37 vs. 38 are not.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "wfl/core/config.hpp"
#include "wfl/fuzz/sites.hpp"

namespace wfl::fuzz {

// One run's outcome: the oracle verdict and the feature counters.
struct RunResult {
  bool ok = true;
  std::string failure;        // first oracle violation, empty if ok
  std::uint64_t slots = 0;    // slots consumed (wedge signal)
  bool wedged = false;        // watchdog fired (report mode)
  std::vector<std::uint64_t> features;  // fixed layout, see below
  std::uint32_t lock_set_sizes = 0;     // bit L: some op submitted L locks

  // Layout: [LockStats fields..., site hits..., workload extras...].
  static void append_stats(std::vector<std::uint64_t>& v,
                           const LockStats& s) {
    v.push_back(s.attempts);
    v.push_back(s.wins);
    v.push_back(s.helps);
    v.push_back(s.eliminations);
    v.push_back(s.thunk_runs);
    v.push_back(s.log_slot_resets);
    v.push_back(s.fastpath_hits);
    v.push_back(s.fastpath_revocations);
    v.push_back(s.help_claim_skips);
  }
  static void append_sites(std::vector<std::uint64_t>& v,
                           const SiteTable& t) {
    for (int s = 0; s < kSiteCount; ++s) v.push_back(t.hit_count(s));
  }
};

// AFL-style magnitude bucket: 0,1,2,3,4-7,8-15,... -> small dense codes.
inline std::uint32_t bucket(std::uint64_t v) {
  if (v <= 3) return static_cast<std::uint32_t>(v);
  std::uint32_t b = 4;
  for (v >>= 3; v != 0; v >>= 1) ++b;
  return b;
}

class FeatureMap {
 public:
  static constexpr std::size_t kBits = 1u << 16;

  // Folds a run's features in; returns how many NEW bits were set.
  int add(const RunResult& r) {
    int fresh = 0;
    for (std::size_t i = 0; i < r.features.size(); ++i) {
      const std::uint32_t h = mix(static_cast<std::uint32_t>(i),
                                  bucket(r.features[i]));
      const std::size_t bit = h % kBits;
      const std::uint64_t mask = 1ULL << (bit & 63);
      std::uint64_t& word = words_[bit >> 6];
      if ((word & mask) == 0) {
        word |= mask;
        ++fresh;
      }
    }
    return fresh;
  }

  std::size_t bits_set() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) {
      n += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return n;
  }

 private:
  static std::uint32_t mix(std::uint32_t idx, std::uint32_t b) {
    std::uint64_t x = (static_cast<std::uint64_t>(idx) << 32) | b;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(x);
  }

  std::array<std::uint64_t, kBits / 64> words_{};
};

}  // namespace wfl::fuzz

// Deterministic, fast PRNGs.
//
// Priorities in the lock algorithm and schedules in the simulator must be
// reproducible from a seed, so we avoid std::random_device / global state.
// SplitMix64 is used to expand seeds; Xoshiro256** is the workhorse
// generator (passes BigCrush, 4 words of state, ~1ns per draw).
#pragma once

#include <cstdint>

namespace wfl {

// Seed expander; also a decent generator for short sequences.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

class Xoshiro256 {
 public:
  explicit constexpr Xoshiro256(std::uint64_t seed) : s_{} { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  constexpr std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound): r % bound, exactly uniform by rejecting the
  // draws r < (2^64 - bound) % bound (fairness experiments need exactness).
  // That threshold is below bound, so only a draw r < bound needs it
  // computed: one division saved per draw, same outputs.
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= bound || r >= (0 - bound) % bound) return r % bound;
    }
  }

  // Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace wfl

// Unit tests for the utility layer: PRNGs, statistics, FixedFunction.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "wfl/util/fixed_function.hpp"
#include "wfl/util/rng.hpp"
#include "wfl/util/stats.hpp"

namespace wfl {
namespace {

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroDifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRange) {
  Xoshiro256 r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Xoshiro256 r(13);
  const int buckets = 8;
  const int n = 80000;
  std::vector<int> c(buckets, 0);
  for (int i = 0; i < n; ++i) ++c[r.next_below(buckets)];
  for (int b = 0; b < buckets; ++b) {
    EXPECT_NEAR(c[b], n / buckets, n / buckets * 0.1);
  }
}

// The textbook form of next_below: the rejection threshold computed before
// every draw.
std::uint64_t reference_next_below(Xoshiro256& r, std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t x = r.next();
    if (x >= threshold) return x % bound;
  }
}

TEST(Rng, NextBelowMatchesReferenceFormula) {
  // Small bounds, bounds just past a power of two (2^63 + 1 rejects about
  // half of all draws) and the two largest bounds.
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  5,
                                  (std::uint64_t{1} << 32) + 1,
                                  (std::uint64_t{1} << 63) + 1,
                                  ~std::uint64_t{0} - 1,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t bound : bounds) {
    SCOPED_TRACE(bound);
    Xoshiro256 fast(bound);
    Xoshiro256 ref(bound);
    std::uint64_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      if (fast.next_below(bound) != reference_next_below(ref, bound)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(fast.next(), ref.next());  // both consumed the same draws
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 r(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Stats, RunningStatMeanVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, RunningStatMergeMatchesCombined) {
  Xoshiro256 r(5);
  RunningStat a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double() * 10;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Stats, HistogramPercentiles) {
  Histogram h(100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.1);
  EXPECT_NEAR(h.percentile(50), 50.0, 2.0);
  EXPECT_NEAR(h.percentile(90), 90.0, 2.0);
  EXPECT_EQ(h.overflow(), 0u);
  h.add(1e9);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.percentile(100), 1e9);
}

// A bucket midpoint beyond every sample is clamped to the observed range:
// samples all at 1922 in the [1900, 2000) bucket must not read as 1950.
TEST(Stats, HistogramPercentilesStayWithinObservedRange) {
  Histogram h(400000.0, 4000);
  for (int i = 0; i < 10; ++i) h.add(1922.0);
  EXPECT_EQ(h.percentile(50), 1922.0);
  EXPECT_EQ(h.percentile(99), 1922.0);
  // And below: a 7 in the [0, 10) bucket must not read as 5.
  Histogram low(100.0, 10);
  for (int i = 0; i < 4; ++i) low.add(7.0);
  EXPECT_EQ(low.percentile(50), 7.0);
}

TEST(Stats, WilsonBoundsBracketRate) {
  SuccessRate s;
  for (int i = 0; i < 1000; ++i) s.add(i % 4 == 0);  // rate 0.25
  EXPECT_NEAR(s.rate(), 0.25, 1e-9);
  EXPECT_LT(s.wilson_lower(), 0.25);
  EXPECT_GT(s.wilson_upper(), 0.25);
  EXPECT_GT(s.wilson_lower(), 0.2);  // 1000 trials: tight-ish
  EXPECT_LT(s.wilson_upper(), 0.3);
}

TEST(Stats, WilsonDegenerateCases) {
  SuccessRate empty;
  EXPECT_EQ(empty.wilson_lower(), 0.0);
  EXPECT_EQ(empty.wilson_upper(), 1.0);
  SuccessRate all;
  for (int i = 0; i < 50; ++i) all.add(true);
  // Wilson 99% lower bound for 50/50 is ~0.883 — comfortably below 1 but
  // far above a coin flip.
  EXPECT_GT(all.wilson_lower(), 0.85);
  EXPECT_EQ(all.rate(), 1.0);
}

TEST(Stats, LogLogSlopeRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * x * x);  // y = 3x^2
  }
  EXPECT_NEAR(fit_log_log_slope(xs, ys), 2.0, 1e-9);
}

TEST(FixedFunction, CallsStoredLambda) {
  int hits = 0;
  FixedFunction<void(int)> f([&](int k) { hits += k; });
  f(3);
  f(4);
  EXPECT_EQ(hits, 7);
}

TEST(FixedFunction, EmptyIsFalsey) {
  FixedFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  f = [] {};
  EXPECT_TRUE(static_cast<bool>(f));
}

TEST(FixedFunction, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  FixedFunction<void()> f([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  FixedFunction<void()> g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));
  g();
  EXPECT_EQ(*counter, 1);
  g.reset();
  EXPECT_EQ(counter.use_count(), 1);  // destroyed with the callable
}

TEST(FixedFunction, ReturnsValues) {
  FixedFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(20, 22), 42);
}

TEST(FixedFunction, DestructorRunsOnce) {
  auto token = std::make_shared<int>(7);
  {
    FixedFunction<void()> f([token] {});
    FixedFunction<void()> g = std::move(f);
    FixedFunction<void()> h = std::move(g);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace wfl

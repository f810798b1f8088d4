// Statistics helpers for the experiment harnesses.
//
// Everything here is deterministic and allocation-light; experiments feed
// millions of samples through RunningStat/Histogram and then print summary
// tables. Wilson intervals give conservative lower bounds when we check
// success probabilities against the paper's 1/C_p fairness bound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wfl {

// Welford running mean/variance; O(1) memory.
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1)
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-bucket histogram over [0, limit) with overflow bucket; supports
// exact-enough percentiles for step-count distributions. A percentile is
// its bucket's midpoint clamped to the observed [min, max], so it never
// reports a value no sample reached.
class Histogram {
 public:
  Histogram(double limit, std::size_t buckets);

  void add(double x);
  std::uint64_t count() const { return total_; }
  double percentile(double p) const;  // p in [0,100]
  std::uint64_t overflow() const { return overflow_; }

 private:
  double limit_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Bernoulli success counter with Wilson score interval.
class SuccessRate {
 public:
  void add(bool success) {
    ++trials_;
    if (success) ++successes_;
  }
  void merge(const SuccessRate& o) {
    trials_ += o.trials_;
    successes_ += o.successes_;
  }

  std::uint64_t trials() const { return trials_; }
  std::uint64_t successes() const { return successes_; }
  double rate() const;
  // Wilson score interval bounds at confidence given by z (z=2.576 ~ 99%).
  double wilson_lower(double z = 2.576) const;
  double wilson_upper(double z = 2.576) const;

 private:
  std::uint64_t trials_ = 0;
  std::uint64_t successes_ = 0;
};

// Least-squares slope of log(y) on log(x): the fitted exponent b in
// y = a * x^b. Used to check the κ and L exponents of the step bounds.
double fit_log_log_slope(const std::vector<double>& xs,
                         const std::vector<double>& ys);

std::string format_si(double v);  // 12.3k / 4.56M style

}  // namespace wfl

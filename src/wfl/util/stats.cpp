#include "wfl/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "wfl/util/assert.hpp"

namespace wfl {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double limit, std::size_t buckets)
    : limit_(limit),
      width_(limit / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  WFL_CHECK(limit > 0 && buckets > 0);
}

void Histogram::add(double x) {
  if (x < 0) x = 0;
  min_ = total_ == 0 ? x : std::min(min_, x);
  max_ = total_ == 0 ? x : std::max(max_, x);
  ++total_;
  if (x >= limit_) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<std::size_t>(x / width_)];
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double target = static_cast<double>(total_) * p / 100.0;
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      const double mid = (static_cast<double>(i) + 0.5) * width_;
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;  // answered by the overflow bucket
}

double SuccessRate::rate() const {
  if (trials_ == 0) return 0.0;
  return static_cast<double>(successes_) / static_cast<double>(trials_);
}

double SuccessRate::wilson_lower(double z) const {
  if (trials_ == 0) return 0.0;
  const double n = static_cast<double>(trials_);
  const double p = rate();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return std::max(0.0, (center - margin) / denom);
}

double SuccessRate::wilson_upper(double z) const {
  if (trials_ == 0) return 1.0;
  const double n = static_cast<double>(trials_);
  const double p = rate();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return std::min(1.0, (center + margin) / denom);
}

double fit_log_log_slope(const std::vector<double>& xs,
                         const std::vector<double>& ys) {
  WFL_CHECK(xs.size() == ys.size() && xs.size() >= 2);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] <= 0 || ys[i] <= 0) continue;
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  WFL_CHECK(n >= 2);
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  WFL_CHECK(denom != 0.0);
  return (dn * sxy - sx * sy) / denom;
}

std::string format_si(double v) {
  char buf[32];
  const char* suffix = "";
  double scaled = v;
  if (v >= 1e9) {
    scaled = v / 1e9;
    suffix = "G";
  } else if (v >= 1e6) {
    scaled = v / 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    scaled = v / 1e3;
    suffix = "k";
  }
  std::snprintf(buf, sizeof(buf), "%.3g%s", scaled, suffix);
  return buf;
}

}  // namespace wfl

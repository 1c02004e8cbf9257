#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"

namespace varuna {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Percentile(std::span<double> samples, double q) {
  VARUNA_CHECK(!samples.empty());
  VARUNA_CHECK(q >= 0.0 && q <= 1.0);
  const double position = q * static_cast<double>(samples.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(lower);
  std::nth_element(samples.begin(), nth, samples.end());
  // After the selection everything past `nth` is >= it, so the next order
  // statistic is the smallest of that upper part.
  const double upper = nth + 1 == samples.end() ? *nth : *std::min_element(nth + 1, samples.end());
  return *nth * (1.0 - fraction) + upper * fraction;
}

double Mean(const std::vector<double>& samples) {
  VARUNA_CHECK(!samples.empty());
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace varuna

// Running statistics (Welford) and small helpers used by the profiler, the
// fail-stutter detector and experiment harnesses.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace varuna {

// One Welford mean update: the mean of `count` samples, given the mean of the
// first `count - 1` and the newest sample `x`. RunningStats and every
// mean-only chain share it, so equal inputs round equally.
inline double WelfordMean(double mean, double x, int64_t count) {
  return mean + (x - mean) / static_cast<double>(count);
}

// Numerically stable streaming mean/variance/min/max.
class RunningStats {
 public:
  void Add(double x) {
    if (count_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ = WelfordMean(mean_, x, count_);
    m2_ += delta * (x - mean_);
  }

  int64_t count() const { return count_; }
  double mean() const { return mean_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentile of a sample set (linear interpolation between order statistics).
// `q` in [0, 1]. Requires a non-empty span of finite samples. Leaves
// `samples` untouched and allocates nothing: an exact radix select finds the
// two neighbouring order statistics, so the result is bit-identical to
// interpolating over the sorted samples.
double Percentile(std::span<const double> samples, double q);

// Mean of a sample set. Requires non-empty.
double Mean(const std::vector<double>& samples);

}  // namespace varuna

#endif  // SRC_COMMON_STATS_H_

// Running statistics (Welford) and small helpers used by the profiler, the
// fail-stutter detector and experiment harnesses.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace varuna {

// Numerically stable streaming mean/variance/min/max.
class RunningStats {
 public:
  void Add(double x);

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
// `q` in [0, 1]. Requires a non-empty span. Reorders `samples` in place
// (a selection, not a full sort) and makes no copy: a caller that still needs
// the original order passes a scratch copy. Bit-identical to interpolating
// over the sorted samples.
double Percentile(std::span<double> samples, double q);

// Mean of a sample set. Requires non-empty.
double Mean(const std::vector<double>& samples);

}  // namespace varuna

#endif  // SRC_COMMON_STATS_H_

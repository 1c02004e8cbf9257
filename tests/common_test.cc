#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/gantt.h"
#include "src/common/units.h"

namespace varuna {
namespace {

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  auto r = Result<int>::Error("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "boom");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.NextUint64() == b.NextUint64();
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.Gaussian(2.0, 3.0));
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.Exponential(5.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.2);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(17);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) {
    samples.push_back(rng.LogNormalMedian(10.0, 0.5));
  }
  EXPECT_NEAR(Percentile(samples, 0.5), 10.0, 0.5);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.Bernoulli(0.3);
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ForkIndependent) {
  Rng a(21);
  Rng fork = a.Fork();
  EXPECT_NE(a.NextUint64(), fork.NextUint64());
}

TEST(StatsTest, RunningStatsBasic) {
  RunningStats stats;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 4);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_NEAR(stats.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.5), 2.5);
  std::vector<double> unsorted = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(unsorted, 0.5), 2.5);
}

// The pre-selection definition: copy, fully sort, interpolate between the two
// neighbouring order statistics.
double SortedPercentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] * (1.0 - fraction) + samples[upper] * fraction;
}

TEST(StatsTest, PercentileMatchesSortedReferenceBitForBit) {
  Rng rng(2024);
  for (int size = 1; size <= 257; ++size) {
    // Continuous draws, then draws from a handful of values so that ties
    // land on and around the selected order statistics.
    for (const bool ties : {false, true}) {
      std::vector<double> samples;
      for (int i = 0; i < size; ++i) {
        samples.push_back(ties ? static_cast<double>(rng.UniformInt(0, 4)) * 0.1
                               : rng.LogNormalMedian(1.0, 0.5));
      }
      for (const double q : {0.0, 0.25, 0.5, 0.995, 1.0}) {
        std::vector<double> scratch = samples;
        EXPECT_EQ(Percentile(scratch, q), SortedPercentile(samples, q))
            << "size=" << size << " ties=" << ties << " q=" << q;
      }
    }
  }
}

TEST(StatsTest, PercentileReordersInPlaceWithoutLosingSamples) {
  std::vector<double> samples = {5.0, 3.0, 9.0, 1.0, 3.0, 7.0};
  std::vector<double> before = samples;
  EXPECT_EQ(Percentile(samples, 0.5), 4.0);
  std::sort(samples.begin(), samples.end());
  std::sort(before.begin(), before.end());
  EXPECT_EQ(samples, before);
}

TEST(StatsTest, MeanOfSamples) { EXPECT_DOUBLE_EQ(Mean({2.0, 4.0, 9.0}), 5.0); }

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(GbpsToBytesPerSec(8.0), 1e9);
  EXPECT_DOUBLE_EQ(kGiB, 1073741824.0);
  EXPECT_DOUBLE_EQ(kHour, 3600.0);
}

TEST(TableTest, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22.5"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22.5  |"), std::string::npos);
}

TEST(GanttTest, RendersBarsAndAxis) {
  GanttChart chart;
  chart.AddRow({"S1", {{0.0, 2.0, "F1"}, {2.0, 4.0, "B1"}}});
  chart.AddRow({"S2", {{1.0, 3.0, "F1"}}});
  const std::string out = chart.Render(40);
  EXPECT_NE(out.find("S1"), std::string::npos);
  EXPECT_NE(out.find("F1"), std::string::npos);
  EXPECT_NE(out.find("B1"), std::string::npos);
  // Gap before S2's bar rendered as dots.
  EXPECT_NE(out.find("|."), std::string::npos);
}

TEST(GanttTest, EmptyChartRendersNothing) {
  GanttChart chart;
  EXPECT_EQ(chart.Render(40), "");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(3.0, 0), "3");
}

}  // namespace
}  // namespace varuna

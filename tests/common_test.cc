#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
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

// Property: a skip that succeeds leaves the stream exactly where n Gaussian()
// calls would, and every skipped value lay within the bound; a skip that fails
// leaves the stream untouched. Entry states with and without a cached second
// value, odd and even n.
TEST(RngTest, SkipGaussiansWithinMatchesDrawing) {
  Rng params(2024);
  int skipped = 0;
  int refused = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const uint64_t seed = params.NextUint64();
    const int prefix = static_cast<int>(params.UniformInt(0, 3));  // Odd: a cached value.
    const int n = static_cast<int>(params.UniformInt(0, 17));
    const double bound = params.Uniform(0.5, 4.5);
    Rng skipper(seed);
    Rng drawer(seed);
    for (int i = 0; i < prefix; ++i) {
      skipper.Gaussian();
      drawer.Gaussian();
    }
    if (skipper.SkipGaussiansWithin(n, bound)) {
      ++skipped;
      for (int i = 0; i < n; ++i) {
        EXPECT_LE(std::abs(drawer.Gaussian()), bound) << "seed " << seed << " n " << n;
      }
    } else {
      ++refused;
    }
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(skipper.Gaussian(), drawer.Gaussian()) << "seed " << seed << " n " << n;
    }
    ASSERT_EQ(skipper.NextUint64(), drawer.NextUint64());
  }
  // Both outcomes are exercised.
  EXPECT_GT(skipped, 200);
  EXPECT_GT(refused, 200);
}

// Gaussians() is Gaussian() in a loop, bit for bit, for lengths around the
// two-pass chunk, entered with and without a cached value; the Gaussian()
// after it checks the cache hand-back.
TEST(RngTest, GaussiansMatchDrawing) {
  Rng params(606);
  for (const int n : {0, 1, 2, 15, 16, 17, 127, 128, 129, 200, 255, 256, 257, 1000}) {
    for (const bool cached : {false, true}) {
      const uint64_t seed = params.NextUint64();
      Rng batched(seed);
      Rng drawer(seed);
      if (cached) {
        (void)batched.Gaussian();
        (void)drawer.Gaussian();
      }
      std::vector<double> values(static_cast<size_t>(n));
      batched.Gaussians(values);
      for (const double value : values) {
        ASSERT_EQ(value, drawer.Gaussian()) << "n " << n << " cached " << cached;
      }
      ASSERT_EQ(batched.Gaussian(), drawer.Gaussian()) << "n " << n << " cached " << cached;
      ASSERT_EQ(batched.NextUint64(), drawer.NextUint64());
    }
  }
}

// GaussianBatch's first pass advances the stream as Gaussian() does, so other
// draws may interleave with it: a random mix of Draws, uniforms and
// NextLogUniforms, evaluated at random points, matches drawing in order.
TEST(RngTest, GaussianBatchInterleavesWithOtherDraws) {
  Rng params(9);
  for (int trial = 0; trial < 300; ++trial) {
    const uint64_t seed = params.NextUint64();
    Rng batched(seed);
    Rng drawer(seed);
    const int prefix = static_cast<int>(params.UniformInt(0, 1));
    for (int i = 0; i < prefix; ++i) {
      ASSERT_EQ(batched.Gaussian(), drawer.Gaussian());
    }
    GaussianBatch batch;
    int drawn = 0;  // Draws since the last Evaluate.
    std::vector<double> expected;
    std::vector<double> others;
    std::vector<double> expected_others;
    const int steps = static_cast<int>(params.UniformInt(1, 400));
    for (int step = 0; step < steps; ++step) {
      switch (params.UniformInt(0, 3)) {
        case 0:
        case 1:
          batch.Draw(batched);
          ++drawn;
          expected.push_back(drawer.Gaussian());
          break;
        case 2:
          others.push_back(batched.NextDouble());
          expected_others.push_back(drawer.NextDouble());
          break;
        default:
          others.push_back(batched.NextLogUniform());
          expected_others.push_back(drawer.NextLogUniform());
          break;
      }
      if (drawn == GaussianBatch::kCapacity || params.UniformInt(0, 40) == 0) {
        const std::span<const double> values = batch.Evaluate(batched);
        ASSERT_EQ(std::vector<double>(values.begin(), values.end()), expected) << trial;
        expected.clear();
        drawn = 0;
      }
    }
    const std::span<const double> values = batch.Evaluate(batched);
    ASSERT_EQ(std::vector<double>(values.begin(), values.end()), expected) << trial;
    EXPECT_EQ(others, expected_others);
    ASSERT_EQ(batched.Gaussian(), drawer.Gaussian()) << trial;
    ASSERT_EQ(batched.NextUint64(), drawer.NextUint64()) << trial;
  }
}

// The value halves of the two-pass draws are the per-draw expressions.
TEST(RngTest, ValueExpressionsMatchTheDraws) {
  Rng drawer(12);
  Rng replay(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(drawer.LogNormalMedian(3e-4, 0.35), Rng::LogNormalOf(3e-4, 0.35, replay.Gaussian()));
    EXPECT_EQ(drawer.Exponential(0.25), Rng::ExponentialOf(0.25, replay.NextLogUniform()));
  }
}

// The stream contract, enforced by the type: an Rng is never copied, so a
// stream cannot fork silently; it moves (to a sink) or forks via Fork().
TEST(RngContract, IsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<Rng>);
  static_assert(!std::is_copy_assignable_v<Rng>);
  static_assert(std::is_nothrow_move_constructible_v<Rng>);
  static_assert(std::is_nothrow_move_assignable_v<Rng>);
  // The move carries the whole state, cached Gaussian included.
  Rng source(31);
  Rng twin(31);
  source.Gaussian();
  twin.Gaussian();
  Rng moved = std::move(source);
  EXPECT_EQ(moved.Gaussian(), twin.Gaussian());
  EXPECT_EQ(moved.NextUint64(), twin.NextUint64());
}

// A by-value Rng parameter (a sink that stores its stream) takes only a moved
// or fresh stream, never a copy of the caller's.
TEST(RngContract, SinksTakeAMovedStream) {
  static_assert(!std::is_convertible_v<Rng&, Rng>);
  static_assert(!std::is_convertible_v<const Rng&, Rng>);
  static_assert(std::is_convertible_v<Rng&&, Rng>);
  Rng caller(8);
  Rng reference(8);
  const auto sink = [](Rng stored) { return stored.NextUint64(); };
  EXPECT_EQ(sink(std::move(caller)), reference.NextUint64());
}

// Whether each stream-advancing member compiles on an expression of type R:
// Rng& is a named stream, Rng (an xvalue through declval) an unnamed one.
template <typename R>
struct Draws {
  static constexpr bool kNextUint64 = requires { std::declval<R>().NextUint64(); };
  static constexpr bool kNextDouble = requires { std::declval<R>().NextDouble(); };
  static constexpr bool kUniformInt = requires { std::declval<R>().UniformInt(0, 1); };
  static constexpr bool kUniform = requires { std::declval<R>().Uniform(0.0, 1.0); };
  static constexpr bool kGaussian = requires { std::declval<R>().Gaussian(); };
  static constexpr bool kGaussianScaled = requires { std::declval<R>().Gaussian(0.0, 1.0); };
  static constexpr bool kGaussians =
      requires(std::span<double> out) { std::declval<R>().Gaussians(out); };
  static constexpr bool kSkipGaussiansWithin =
      requires { std::declval<R>().SkipGaussiansWithin(1, 1.0); };
  static constexpr bool kNextLogUniform = requires { std::declval<R>().NextLogUniform(); };
  static constexpr bool kExponential = requires { std::declval<R>().Exponential(1.0); };
  static constexpr bool kLogNormalMedian =
      requires { std::declval<R>().LogNormalMedian(1.0, 1.0); };
  static constexpr bool kBernoulli = requires { std::declval<R>().Bernoulli(0.5); };
  static constexpr bool kFork = requires { std::declval<R>().Fork(); };
};

// A draw on a temporary is a stream that lives for one expression, seeded by
// whatever that expression happens to hold: every draw needs a named Rng.
TEST(RngContract, DrawsNeedANamedStream) {
  using Named = Draws<Rng&>;
  static_assert(Named::kNextUint64 && Named::kNextDouble && Named::kUniformInt &&
                Named::kUniform && Named::kGaussian && Named::kGaussianScaled &&
                Named::kGaussians && Named::kSkipGaussiansWithin &&
                Named::kNextLogUniform && Named::kExponential &&
                Named::kLogNormalMedian && Named::kBernoulli && Named::kFork);
  using Temporary = Draws<Rng>;
  static_assert(!Temporary::kNextUint64);
  static_assert(!Temporary::kNextDouble);
  static_assert(!Temporary::kUniformInt);
  static_assert(!Temporary::kUniform);
  static_assert(!Temporary::kGaussian);
  static_assert(!Temporary::kGaussianScaled);
  static_assert(!Temporary::kGaussians);
  static_assert(!Temporary::kSkipGaussiansWithin);
  static_assert(!Temporary::kNextLogUniform);
  static_assert(!Temporary::kExponential);
  static_assert(!Temporary::kLogNormalMedian);
  static_assert(!Temporary::kBernoulli);
  static_assert(!Temporary::kFork);
  // Forking a named stream advances it by exactly one draw.
  Rng parent(5);
  Rng reference(5);
  Rng child = parent.Fork();
  Rng expected_child(reference.NextUint64());
  EXPECT_EQ(child.NextUint64(), expected_child.NextUint64());
  EXPECT_EQ(parent.NextUint64(), reference.NextUint64());
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

// The reference definition: copy, fully sort, interpolate between the two
// neighbouring order statistics. The sort puts -0.0 before +0.0 (they compare
// equal, so either order is a valid sort) to make the reference's bits
// deterministic.
double SortedPercentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end(), [](double a, double b) {
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  });
  const double position = q * static_cast<double>(samples.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] * (1.0 - fraction) + samples[upper] * fraction;
}

// Input families for the property test: each draws `size` samples.
enum class SampleShape {
  kLogNormal,    // Continuous, positive.
  kCalibration,  // A tight cluster plus ~2 % far stall outliers.
  kAllEqual,
  kHeavyTies,    // Five distinct values.
  kMixedSign,    // Negative and positive, including both zeros.
  kSubnormal,    // Mixed-sign subnormals and zeros.
  kNearMax,      // Magnitudes near DBL_MAX, both signs.
};

std::vector<double> DrawSamples(SampleShape shape, int size, Rng* rng) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(size));
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  for (int i = 0; i < size; ++i) {
    switch (shape) {
      case SampleShape::kLogNormal:
        samples.push_back(rng->LogNormalMedian(1.0, 0.5));
        break;
      case SampleShape::kCalibration: {
        double time = rng->LogNormalMedian(1.2e-4, 0.2) + 4.0e-4;
        if (rng->Bernoulli(0.02)) {
          time += rng->Exponential(0.25);
        }
        samples.push_back(time);
        break;
      }
      case SampleShape::kAllEqual:
        samples.push_back(0.3);
        break;
      case SampleShape::kHeavyTies:
        samples.push_back(static_cast<double>(rng->UniformInt(0, 4)) * 0.1);
        break;
      case SampleShape::kMixedSign: {
        const int64_t pick = rng->UniformInt(0, 9);
        samples.push_back(pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng->Uniform(-1e3, 1e3));
        break;
      }
      case SampleShape::kSubnormal:
        samples.push_back(tiny * static_cast<double>(rng->UniformInt(-1000, 1000)) *
                          (rng->Bernoulli(0.1) ? -1.0 : 1.0));
        break;
      case SampleShape::kNearMax:
        samples.push_back((rng->Bernoulli(0.5) ? -huge : huge) *
                          (1.0 - rng->Uniform(0.0, 1e-3) * static_cast<double>(rng->UniformInt(0, 2))));
        break;
    }
  }
  return samples;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(StatsTest, PercentileMatchesSortedReferenceBitForBit) {
  Rng rng(2024);
  const SampleShape shapes[] = {SampleShape::kLogNormal,  SampleShape::kCalibration,
                                SampleShape::kAllEqual,   SampleShape::kHeavyTies,
                                SampleShape::kMixedSign,  SampleShape::kSubnormal,
                                SampleShape::kNearMax};
  const double qs[] = {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.995, 1.0};
  for (int size = 1; size <= 1000; ++size) {
    for (const SampleShape shape : shapes) {
      const std::vector<double> samples = DrawSamples(shape, size, &rng);
      for (const double q : qs) {
        const double expected = SortedPercentile(samples, q);
        const double actual = Percentile(samples, q);
        ASSERT_EQ(Bits(actual), Bits(expected))
            << "size=" << size << " shape=" << static_cast<int>(shape) << " q=" << q
            << " actual=" << actual << " expected=" << expected;
      }
    }
  }
}

TEST(StatsTest, PercentileLeavesInputUntouched) {
  Rng rng(5);
  const std::vector<double> samples = DrawSamples(SampleShape::kCalibration, 200, &rng);
  std::vector<double> copy = samples;
  for (const double q : {0.0, 0.5, 0.995, 1.0}) {
    (void)Percentile(copy, q);
  }
  ASSERT_EQ(copy.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(Bits(copy[i]), Bits(samples[i])) << "index " << i;
  }
}

TEST(StatsDeathTest, PercentileRejectsNonFiniteSamples) {
  // A few samples are gathered and sorted at once; many go through the
  // counting passes. Both must reject a non-finite sample.
  for (const size_t size : {4, 200}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      std::vector<double> samples(size, 1.0);
      for (size_t i = 0; i < size; ++i) {
        samples[i] = static_cast<double>(i);
      }
      samples[size / 2 + 1] = bad;
      EXPECT_DEATH((void)Percentile(samples, 0.5), "finite") << "size=" << size;
    }
  }
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

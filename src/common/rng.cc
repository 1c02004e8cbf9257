#include "src/common/rng.h"

#include <algorithm>
#include <iterator>

namespace varuna {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Relative headroom on the skip's u1 floor. A pair's computed values are
// within a few ulps of the exact radius bound; 1e-9 absorbs that rounding
// many times over while rejecting only a vanishing sliver of admissible pairs.
constexpr double kSkipFloorSafety = 1.0 + 1e-9;

// Angle buckets of GaussianBatch::Evaluate: pi/8 wide, so each lies inside
// one octant and libm's sin/cos take the same range branch across most of it.
constexpr int kAngleBuckets = 16;

// The one Box-Muller definition: a pair's radius from its first uniform, and
// its two values (radius * cos(angle), radius * sin(angle)) from the radius
// and its second uniform. GaussianPair, SkipGaussiansWithin's trailing pair
// and GaussianBatch all compute through these.
double PairRadius(double u1) { return std::sqrt(-2.0 * std::log(u1)); }

struct PairValues {
  double cos_value;
  double sin_value;
};

PairValues BoxMuller(double radius, double u2) {
  const double theta = 2.0 * M_PI * u2;
  return {radius * std::cos(theta), radius * std::sin(theta)};
}

}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed expansion per the xoshiro authors' recommendation.
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(&sm);
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) & {
  VARUNA_CHECK_LE(lo, hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // Full-width range [INT64_MIN, INT64_MAX].
    return static_cast<int64_t>(NextUint64());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t draw = NextUint64();
  while (draw >= limit) {
    draw = NextUint64();
  }
  return lo + static_cast<int64_t>(draw % range);
}

double Rng::Uniform(double lo, double hi) & { return lo + (hi - lo) * NextDouble(); }

double Rng::GaussianPair() & {
  const double u1 = NextLogUniform();
  const double u2 = NextDouble();
  const PairValues pair = BoxMuller(PairRadius(u1), u2);
  cached_gaussian_ = pair.sin_value;
  has_cached_gaussian_ = true;
  return pair.cos_value;
}

double Rng::Gaussian(double mean, double stddev) & { return mean + stddev * Gaussian(); }

void Rng::Gaussians(std::span<double> out) & {
  GaussianBatch batch;
  for (size_t begin = 0; begin < out.size(); begin += GaussianBatch::kCapacity) {
    const size_t count = std::min<size_t>(GaussianBatch::kCapacity, out.size() - begin);
    for (size_t i = 0; i < count; ++i) {
      batch.Draw(*this);
    }
    const std::span<const double> values = batch.Evaluate(*this);
    std::copy(values.begin(), values.end(), out.begin() + static_cast<std::ptrdiff_t>(begin));
  }
}

std::span<const double> GaussianBatch::Evaluate(Rng& rng) {
  const size_t pairs = static_cast<size_t>(pairs_);
  std::array<double, kMaxPairs> radius;
  for (size_t p = 0; p < pairs; ++p) {
    radius[p] = PairRadius(u1_[p]);
  }
  // Counting sort of the pairs by angle bucket; u2 < 1, so every bucket index
  // is below kAngleBuckets.
  std::array<uint8_t, kMaxPairs> bucket;
  std::array<int, kAngleBuckets + 1> next{};
  for (size_t p = 0; p < pairs; ++p) {
    bucket[p] = static_cast<uint8_t>(u2_[p] * kAngleBuckets);
    ++next[bucket[p] + 1u];
  }
  for (int b = 1; b < kAngleBuckets; ++b) {
    next[static_cast<size_t>(b)] += next[static_cast<size_t>(b - 1)];
  }
  std::array<uint8_t, kMaxPairs> order;
  for (size_t p = 0; p < pairs; ++p) {
    order[static_cast<size_t>(next[bucket[p]]++)] = static_cast<uint8_t>(p);
  }
  const size_t first = static_cast<size_t>(first_pair_slot_);
  for (size_t i = 0; i < pairs; ++i) {
    const size_t p = order[i];
    const PairValues pair = BoxMuller(radius[p], u2_[p]);
    values_[first + 2 * p] = pair.cos_value;
    values_[first + 2 * p + 1] = pair.sin_value;
  }
  const size_t count = static_cast<size_t>(count_);
  if (first + 2 * pairs > count) {
    rng.cached_gaussian_ = values_[count];
    rng.has_cached_gaussian_ = true;
  }
  count_ = 0;
  pairs_ = 0;
  first_pair_slot_ = 0;
  return std::span<const double>(values_.data(), count);
}

bool Rng::SkipGaussiansWithin(int n, double bound) & {
  VARUNA_CHECK_GE(n, 0);
  VARUNA_CHECK_GE(bound, 0.0);
  // Both values of a Box-Muller pair are bounded in magnitude by its radius
  // sqrt(-2 ln u1), so radius <= bound exactly when u1 >= e^(-bound^2 / 2).
  const double u1_floor = std::exp(-0.5 * bound * bound) * kSkipFloorSafety;
  const uint64_t saved[4] = {state_[0], state_[1], state_[2], state_[3]};
  const bool saved_has_cached = has_cached_gaussian_;
  const auto rejected = [&] {
    std::copy(std::begin(saved), std::end(saved), state_);
    has_cached_gaussian_ = saved_has_cached;
    return false;
  };
  int remaining = n;
  if (remaining > 0 && has_cached_gaussian_) {
    if (!(std::abs(cached_gaussian_) <= bound)) {
      return false;
    }
    has_cached_gaussian_ = false;
    --remaining;
  }
  for (; remaining >= 2; remaining -= 2) {
    const double u1 = NextLogUniform();
    NextDouble();  // u2: only the angle, and |cos|, |sin| <= 1 either way.
    if (!(u1 >= u1_floor)) {
      return rejected();
    }
  }
  if (remaining == 1) {
    // The last draw opens a pair whose partner Gaussian() would cache.
    const double u1 = NextLogUniform();
    const double u2 = NextDouble();
    if (!(u1 >= u1_floor)) {
      return rejected();
    }
    cached_gaussian_ = BoxMuller(PairRadius(u1), u2).sin_value;
    has_cached_gaussian_ = true;
  }
  return true;
}

Rng Rng::Fork() & { return Rng(NextUint64()); }

}  // namespace varuna

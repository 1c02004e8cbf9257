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

// A Box-Muller pair is (radius * cos(angle), radius * sin(angle)).
double PairRadius(double u1) { return std::sqrt(-2.0 * std::log(u1)); }
double PairAngle(double u2) { return 2.0 * M_PI * u2; }

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

double Rng::NextPairU1() & {
  double u1 = NextDouble();
  while (u1 <= 1e-300) {
    u1 = NextDouble();
  }
  return u1;
}

double Rng::GaussianPair() & {
  const double u1 = NextPairU1();
  const double u2 = NextDouble();
  const double radius = PairRadius(u1);
  const double theta = PairAngle(u2);
  cached_gaussian_ = radius * std::sin(theta);
  has_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) & { return mean + stddev * Gaussian(); }

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
    const double u1 = NextPairU1();
    NextDouble();  // u2: only the angle, and |cos|, |sin| <= 1 either way.
    if (!(u1 >= u1_floor)) {
      return rejected();
    }
  }
  if (remaining == 1) {
    // The last draw opens a pair whose partner Gaussian() would cache.
    const double u1 = NextPairU1();
    const double u2 = NextDouble();
    if (!(u1 >= u1_floor)) {
      return rejected();
    }
    cached_gaussian_ = PairRadius(u1) * std::sin(PairAngle(u2));
    has_cached_gaussian_ = true;
  }
  return true;
}

double Rng::Exponential(double mean) & {
  VARUNA_CHECK_GT(mean, 0.0);
  double u = NextDouble();
  while (u <= 1e-300) {
    u = NextDouble();
  }
  return -mean * std::log(u);
}

Rng Rng::Fork() & { return Rng(NextUint64()); }

}  // namespace varuna

// Deterministic random number generation for the simulators. A single seeded
// Rng drives every stochastic choice (jitter, preemptions, compute noise) so
// that experiments are reproducible run-to-run.
//
// Rng is move-only and every member that advances the stream is
// lvalue-qualified, so a stream never forks silently: a copy, or a draw on a
// temporary, fails to compile. Split a stream with Fork(), never by copying;
// hand one to a sink with std::move. A draw on a moved-from Rng is left to
// clang-tidy's bugprone-use-after-move.
//
// The per-draw functions are defined here so the hot loops that call them
// (calibration, heartbeats, transfer jitter) inline them; the out-of-line
// Box-Muller pair lives in rng.cc.
//
// Batch samplers draw in two passes (GaussianBatch): they walk the stream in
// the per-draw order first, with no libm call, then evaluate the values. The
// values are the per-draw ones bit for bit: the same uniforms in the same
// order feed the same expression (LogNormalOf, ExponentialOf, one Box-Muller
// definition), and only the order of independent evaluations changes.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <span>

#include "src/common/check.h"

namespace varuna {

// xoshiro256** — small, fast, high-quality; plenty for simulation workloads.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

  uint64_t NextUint64() & {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1): the 53 high bits.
  double NextDouble() & { return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53; }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) &;

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi) &;

  // Standard normal via Box-Muller (cached second value).
  double Gaussian() & {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    return GaussianPair();
  }
  double Gaussian(double mean, double stddev) &;
  // Fills `out` with out.size() Gaussian() draws, in order and bit for bit,
  // in two passes (GaussianBatch).
  void Gaussians(std::span<double> out) &;

  // Advances the stream exactly as `n` Gaussian() calls would, but only if
  // every one of those `n` values has |value| <= `bound`; otherwise leaves the
  // stream untouched and returns false. A caller whose decision provably
  // cannot fire while its draws stay within `bound` uses this to skip the
  // transcendental work and falls back to drawing when it returns false.
  // Requires n >= 0 and bound >= 0.
  bool SkipGaussiansWithin(int n, double bound) &;

  // Uniform in (1e-300, 1): redrawn while it would overflow a log. Each
  // Box-Muller pair's first uniform and each Exponential() draw one.
  double NextLogUniform() & {
    double u = NextDouble();
    while (u <= 1e-300) {
      u = NextDouble();
    }
    return u;
  }

  // Exponential with the given mean (not rate). Requires mean > 0.
  double Exponential(double mean) & {
    VARUNA_CHECK_GT(mean, 0.0);
    return ExponentialOf(mean, NextLogUniform());
  }
  // The Exponential(mean) value of one NextLogUniform() draw `u`.
  static double ExponentialOf(double mean, double u) { return -mean * std::log(u); }

  // Log-normal such that the *median* of the distribution is `median` and the
  // underlying normal has standard deviation `sigma`. Used for heavy-tailed
  // network jitter.
  double LogNormalMedian(double median, double sigma) & {
    VARUNA_CHECK_GT(median, 0.0);
    return LogNormalOf(median, sigma, Gaussian());
  }
  // The LogNormalMedian(median, sigma) value of one Gaussian() draw `g`.
  static double LogNormalOf(double median, double sigma, double g) {
    return median * std::exp(sigma * g);
  }

  // True with probability p.
  bool Bernoulli(double p) & { return NextDouble() < p; }

  // Spawns an independent stream (for parallel-in-concept subsystems that must
  // not perturb each other's draws when one of them changes).
  Rng Fork() &;

 private:
  friend class GaussianBatch;

  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // Draws a fresh Box-Muller pair: returns the cosine value, caches the sine.
  double GaussianPair() &;

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

// Gaussian() draws in two passes, bit for bit. Pass 1, Draw(), advances the
// stream exactly as one Gaussian() call: it takes the cached value or draws a
// Box-Muller pair's two uniforms, and calls no libm function. Between Draws
// the caller may draw uniforms (Bernoulli, NextLogUniform) from the same Rng,
// but no Gaussian. Pass 2, Evaluate(), computes every radius, then the
// sines and cosines with the pairs grouped by angle, so that libm's range
// branches stay predictable, and hands a pair left open back to the Rng's
// cache, where Gaussian() would have left it. Holds up to kCapacity draws and
// never allocates; default-constructed arrays stay uninitialized on purpose.
class GaussianBatch {
 public:
  static constexpr int kCapacity = 128;

  // Pass 1: one Gaussian() worth of stream. Requires fewer than kCapacity
  // Draws since the last Evaluate.
  void Draw(Rng& rng) {
    if (count_ == 0 && rng.has_cached_gaussian_) {
      rng.has_cached_gaussian_ = false;
      values_[0] = rng.cached_gaussian_;
      first_pair_slot_ = 1;
    } else if (((count_ - first_pair_slot_) & 1) == 0) {
      u1_[static_cast<size_t>(pairs_)] = rng.NextLogUniform();
      u2_[static_cast<size_t>(pairs_)] = rng.NextDouble();
      ++pairs_;
    }
    ++count_;
  }

  // Pass 2: the drawn values in draw order, valid until the next Draw. The
  // batch is empty afterwards.
  std::span<const double> Evaluate(Rng& rng);

 private:
  static constexpr int kMaxPairs = (kCapacity + 1) / 2;

  int count_ = 0;
  int pairs_ = 0;
  // Slot of the first pair's cosine: 1 when the first draw took the cache.
  int first_pair_slot_ = 0;
  std::array<double, kMaxPairs> u1_;
  std::array<double, kMaxPairs> u2_;
  // One slot past kCapacity for the sine of a pair left open.
  std::array<double, kCapacity + 1> values_;
};

}  // namespace varuna

#endif  // SRC_COMMON_RNG_H_

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
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

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

  // Advances the stream exactly as `n` Gaussian() calls would, but only if
  // every one of those `n` values has |value| <= `bound`; otherwise leaves the
  // stream untouched and returns false. A caller whose decision provably
  // cannot fire while its draws stay within `bound` uses this to skip the
  // transcendental work and falls back to drawing when it returns false.
  // Requires n >= 0 and bound >= 0.
  bool SkipGaussiansWithin(int n, double bound) &;

  // Exponential with the given mean (not rate). Requires mean > 0.
  double Exponential(double mean) &;

  // Log-normal such that the *median* of the distribution is `median` and the
  // underlying normal has standard deviation `sigma`. Used for heavy-tailed
  // network jitter.
  double LogNormalMedian(double median, double sigma) & {
    VARUNA_CHECK_GT(median, 0.0);
    return median * std::exp(sigma * Gaussian());
  }

  // True with probability p.
  bool Bernoulli(double p) & { return NextDouble() < p; }

  // Spawns an independent stream (for parallel-in-concept subsystems that must
  // not perturb each other's draws when one of them changes).
  Rng Fork() &;

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // A Box-Muller pair's first uniform, redrawn while it would overflow the log.
  double NextPairU1() &;
  // Draws a fresh Box-Muller pair: returns the cosine value, caches the sine.
  double GaussianPair() &;

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace varuna

#endif  // SRC_COMMON_RNG_H_

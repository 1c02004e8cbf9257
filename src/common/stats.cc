#include "src/common/stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/check.h"

namespace varuna {

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
constexpr int kDigitBits = 8;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
// A window holding at most this many samples is gathered and sorted.
constexpr size_t kGatherMax = 32;
// The first window spans the probes kProbeSpread either side of the rank's
// place among kProbes evenly spaced samples.
constexpr size_t kProbes = 15;
constexpr size_t kProbeSpread = 4;

// Order-preserving key: keys compare as unsigned integers exactly like the
// finite doubles compare with <. Non-negative values get the sign bit set,
// negative ones have every bit flipped. The one refinement is -0.0 sorting
// just below +0.0, which equal each other, so no order statistic's value
// moves.
uint64_t OrderKey(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  return bits ^ (static_cast<uint64_t>(static_cast<int64_t>(bits) >> 63) | kSignBit);
}

double FromOrderKey(uint64_t key) {
  return std::bit_cast<double>(
      key ^ (static_cast<uint64_t>(static_cast<int64_t>(~key) >> 63) | kSignBit));
}

// Every finite double's key lies in [key(-DBL_MAX), key(+DBL_MAX)]; the
// infinities and NaNs map outside it.
void CheckFinite(uint64_t min_key, uint64_t max_key) {
  VARUNA_CHECK(min_key >= 0x0010000000000000ULL && max_key <= 0xffefffffffffffffULL)
      << "Percentile needs finite samples";
}

// The keys ranked `first` and `second` among the at most kGatherMax keys in
// [lo, hi], copied to the stack and sorted.
std::pair<uint64_t, uint64_t> Gather(std::span<const double> samples, uint64_t lo, uint64_t hi,
                                     size_t first, size_t second) {
  // One slot of slack: every key is stored, and only the ones inside the
  // window advance the cursor.
  std::array<uint64_t, kGatherMax + 1> keys{};
  size_t gathered = 0;
  for (const double x : samples) {
    const uint64_t key = OrderKey(x);
    keys[gathered] = key;
    gathered += key - lo <= hi - lo ? 1 : 0;
  }
  std::sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(gathered));
  CheckFinite(keys[0], keys[gathered - 1]);
  return {keys[first], keys[second]};
}

// The largest key at or below `boundary` and the smallest key above it.
std::pair<uint64_t, uint64_t> SplitAt(std::span<const double> samples, uint64_t boundary) {
  uint64_t lower_key = 0;
  uint64_t upper_key = ~uint64_t{0};
  for (const double x : samples) {
    const uint64_t key = OrderKey(x);
    // All ones when the key lies past the boundary; a mask, not a branch,
    // because which side a key falls on is a coin toss.
    const uint64_t past = uint64_t{0} - static_cast<uint64_t>(key > boundary);
    lower_key = std::max(lower_key, key & ~past);
    upper_key = std::min(upper_key, key | ~past);
  }
  return {lower_key, upper_key};
}

// Keys of the order statistics `rank` and min(rank + 1, n - 1): an MSD radix
// select over the keys that reads `samples` once per pass and never moves
// them. Each pass counts the keys below the window [lo, hi] and histograms
// the ones inside it by the 8 bits under the window's span, then narrows the
// window to the bucket holding the ranks. The first window is a guess from a
// few probes, so outliers far from the rank do not cost resolution; a wrong
// guess costs one pass, since the counts are exact whatever the window.
std::pair<uint64_t, uint64_t> SelectNeighbours(std::span<const double> samples, size_t rank) {
  const size_t n = samples.size();
  const size_t upper_rank = std::min(rank + 1, n - 1);
  if (n <= kGatherMax) {
    return Gather(samples, 0, ~uint64_t{0}, rank, upper_rank);
  }
  std::array<uint64_t, kProbes> probes{};
  for (size_t j = 0; j < kProbes; ++j) {
    probes[j] = OrderKey(samples[j * (n - 1) / (kProbes - 1)]);
  }
  std::sort(probes.begin(), probes.end());
  const size_t at = (rank * (kProbes - 1) + (n - 1) / 2) / (n - 1);
  uint64_t lo = probes[at > kProbeSpread ? at - kProbeSpread : 0];
  uint64_t hi = probes[std::min(at + kProbeSpread, kProbes - 1)];
  // Over every sample, kept across passes; the first pass screens out
  // non-finite samples with them.
  uint64_t min_key = ~uint64_t{0};
  uint64_t max_key = 0;
  for (;;) {
    const uint64_t span = hi - lo;
    const int shift = std::max(0, static_cast<int>(std::bit_width(span)) - kDigitBits);
    std::array<uint32_t, kBuckets> counts{};
    size_t below = 0;
    for (const double x : samples) {
      const uint64_t key = OrderKey(x);
      min_key = std::min(min_key, key);
      max_key = std::max(max_key, key);
      below += key < lo ? 1 : 0;
      const uint64_t offset = key - lo;
      counts[(offset >> shift) & (kBuckets - 1)] += offset <= span ? 1 : 0;
    }
    CheckFinite(min_key, max_key);
    // Narrow to where `rank` lies: under the window, in one of its buckets
    // or over it. When `upper_rank` lies past that part, `rank` is the
    // largest key up to the part's end and `upper_rank` the next key.
    size_t count = 0;
    if (rank < below) {
      if (upper_rank >= below) {
        return SplitAt(samples, lo - 1);
      }
      hi = lo - 1;
      lo = min_key;
      count = below;
      below = 0;
    } else {
      size_t digit = 0;
      size_t start = below;
      while (digit < kBuckets && start + counts[digit] <= rank) {
        start += counts[digit++];
      }
      if (digit == kBuckets) {
        lo = hi + 1;
        hi = max_key;
        count = n - start;
      } else {
        const uint64_t bucket_lo = lo + (uint64_t{digit} << shift);
        const uint64_t bucket_hi =
            (hi - bucket_lo) >> shift == 0 ? hi : bucket_lo + ((uint64_t{1} << shift) - 1);
        if (upper_rank >= start + counts[digit]) {
          return SplitAt(samples, bucket_hi);
        }
        lo = bucket_lo;
        hi = bucket_hi;
        count = counts[digit];
      }
      below = start;
    }
    if (lo == hi) {
      return {lo, lo};
    }
    if (count <= kGatherMax) {
      return Gather(samples, lo, hi, rank - below, upper_rank - below);
    }
  }
}

}  // namespace

double Percentile(std::span<const double> samples, double q) {
  VARUNA_CHECK(!samples.empty());
  VARUNA_CHECK(q >= 0.0 && q <= 1.0);
  VARUNA_CHECK_LE(samples.size(), std::numeric_limits<uint32_t>::max());
  const double position = q * static_cast<double>(samples.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  const auto [lower_key, upper_key] = SelectNeighbours(samples, lower);
  return FromOrderKey(lower_key) * (1.0 - fraction) + FromOrderKey(upper_key) * fraction;
}

double Mean(const std::vector<double>& samples) {
  VARUNA_CHECK(!samples.empty());
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace varuna

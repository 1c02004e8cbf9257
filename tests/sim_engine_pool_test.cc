// Property tests for the slot-pool event engine: seeded random schedules,
// including events scheduled from inside callbacks, run in RunUntil windows
// against a reference model -- a log of every scheduled event in schedule
// (= seq) order, stable-sorted on `when` -- with CheckInvariants() holding
// after every window.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/callback.h"
#include "src/sim/engine.h"

namespace varuna {
namespace {

// Captures are inline by type: an oversized or owning closure must not
// convert to a SmallCallback, while the largest plain capture still does.
using Oversized = decltype([payload = std::array<unsigned char, 72>{}] { (void)payload; });
using Largest = decltype([payload = std::array<unsigned char, 64>{}] { (void)payload; });
static_assert(sizeof(Oversized) == 72);
static_assert(!std::is_convertible_v<Oversized, SmallCallback>);
static_assert(!std::is_convertible_v<std::function<void()>, SmallCallback>);
static_assert(std::is_convertible_v<Largest, SmallCallback>);

constexpr double kGrid = 0.25;  // Event times sit on this grid, forcing ties.

// One engine plus the log of everything it was asked to run. Callbacks record
// their token and may schedule children, some at now().
class Harness {
 public:
  struct Logged {
    double when = 0.0;
    int token = 0;
  };

  explicit Harness(uint64_t seed) : rng_(seed) {}

  // Schedules one event: 1 in 8 at exactly now(), the rest at an absolute
  // grid time up to 16 grid steps ahead.
  void ScheduleRandom(int generation) {
    const double base = std::ceil(engine_.now() / kGrid) * kGrid;
    const double when = rng_.NextUint64() % 8 == 0
                            ? engine_.now()
                            : base + kGrid * static_cast<double>(rng_.NextUint64() % 16);
    const int token = static_cast<int>(log_.size());
    log_.push_back({when, token});
    engine_.ScheduleAt(when, [this, token, generation] {
      fired_.push_back(token);
      if (generation < 3) {
        for (uint64_t child = rng_.NextUint64() % 3; child > 0; --child) {
          ScheduleRandom(generation + 1);
        }
      }
    });
  }

  // Tokens with when <= until, in (when, seq) order: log_ is already in seq
  // order, so a stable sort on `when` alone yields it.
  std::vector<int> ExpectedUpTo(double until) const {
    std::vector<Logged> due;
    for (const Logged& entry : log_) {
      if (entry.when <= until) {
        due.push_back(entry);
      }
    }
    std::stable_sort(due.begin(), due.end(),
                     [](const Logged& a, const Logged& b) { return a.when < b.when; });
    std::vector<int> tokens;
    for (const Logged& entry : due) {
      tokens.push_back(entry.token);
    }
    return tokens;
  }

  SimEngine& engine() { return engine_; }
  Rng& rng() { return rng_; }
  const std::vector<int>& fired() const { return fired_; }
  size_t scheduled() const { return log_.size(); }

 private:
  SimEngine engine_;
  Rng rng_;
  std::vector<Logged> log_;
  std::vector<int> fired_;
};

TEST(SimEnginePoolTest, RandomScheduleRunMatchesReferenceModel) {
  for (const uint64_t seed : {1ull, 7ull, 1234ull, 987654321ull}) {
    SCOPED_TRACE(seed);
    Harness harness(seed);
    SimEngine& engine = harness.engine();
    for (int window = 0; window < 400; ++window) {
      for (uint64_t n = harness.rng().NextUint64() % 12; n > 0; --n) {
        harness.ScheduleRandom(0);
      }
      // Every other window ends exactly on a grid time, so events at `until`
      // must fire inside it.
      const double until =
          window % 2 == 0
              ? std::ceil(engine.now() / kGrid) * kGrid +
                    kGrid * static_cast<double>(harness.rng().NextUint64() % 8)
              : engine.now() + harness.rng().Uniform(0.0, 2.0);
      engine.RunUntil(until);
      EXPECT_DOUBLE_EQ(engine.now(), until);
      const std::vector<int> expected = harness.ExpectedUpTo(until);
      ASSERT_EQ(harness.fired(), expected);
      EXPECT_EQ(engine.pending_events(), harness.scheduled() - expected.size());
      engine.CheckInvariants();
    }
    engine.Run();
    EXPECT_EQ(harness.fired(), harness.ExpectedUpTo(engine.now()));
    EXPECT_EQ(harness.fired().size(), harness.scheduled());
    EXPECT_EQ(engine.pending_events(), 0u);
    engine.CheckInvariants();
  }
}

TEST(SimEnginePoolTest, StressedQueueKeepsInvariantsUnderChurn) {
  // Heavy churn at a single timestamp cluster: every third event schedules a
  // follow-up at now(), so slots are freed and reused mid-drain while the
  // 4-ary sift paths run, with the full invariant sweep after every phase.
  SimEngine engine;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) {
      if (i % 3 == 0) {
        engine.Schedule(0.5 + 0.001 * (i % 7), [&] {
          ++fired;
          engine.Schedule(0.0, [&] { ++fired; });
        });
      } else {
        engine.Schedule(0.5 + 0.001 * (i % 7), [&] { ++fired; });
      }
    }
    engine.CheckInvariants();
    engine.RunUntil(engine.now() + 1.0);
    engine.CheckInvariants();
    EXPECT_EQ(engine.pending_events(), 0u);
  }
  EXPECT_EQ(fired, 50 * (100 + 34));
}

}  // namespace
}  // namespace varuna

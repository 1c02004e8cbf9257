#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/sim/engine.h"

namespace varuna {
namespace {

TEST(SimEngineTest, RunsEventsInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.Schedule(3.0, [&] { order.push_back(3); });
  engine.Schedule(1.0, [&] { order.push_back(1); });
  engine.Schedule(2.0, [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(SimEngineTest, TieBreaksByScheduleOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.Schedule(1.0, [&] { order.push_back(1); });
  engine.Schedule(1.0, [&] { order.push_back(2); });
  engine.Schedule(1.0, [&] { order.push_back(3); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimEngineTest, NestedScheduling) {
  SimEngine engine;
  std::vector<double> times;
  engine.Schedule(1.0, [&] {
    times.push_back(engine.now());
    engine.Schedule(0.5, [&] { times.push_back(engine.now()); });
  });
  engine.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(SimEngineTest, RunUntilStopsAtDeadline) {
  SimEngine engine;
  int count = 0;
  // Self-rescheduling ticker. Callbacks are trivially copyable by type, so
  // the events capture the std::function by reference.
  std::function<void()> tick = [&] {
    ++count;
    engine.Schedule(1.0, [&tick] { tick(); });
  };
  engine.Schedule(1.0, [&tick] { tick(); });
  engine.RunUntil(5.5);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(engine.now(), 5.5);
  engine.RunUntil(7.0);
  EXPECT_EQ(count, 7);  // Ticks at 6.0 and 7.0 both fire.
}

TEST(SimEngineTest, InvariantsHoldDuringNestedScheduling) {
  SimEngine engine;
  engine.Schedule(1.0, [&] {
    engine.CheckInvariants();
    engine.Schedule(0.0, [&] { engine.CheckInvariants(); });
    engine.Schedule(5.0, [&] { engine.CheckInvariants(); });
    EXPECT_EQ(engine.pending_events(), 2u);
    engine.CheckInvariants();
  });
  engine.Run();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_processed(), 3u);
  engine.CheckInvariants();
}

TEST(SimEngineTest, EventsProcessedCounter) {
  SimEngine engine;
  for (int i = 0; i < 5; ++i) {
    engine.Schedule(i, [] {});
  }
  engine.Run();
  EXPECT_EQ(engine.events_processed(), 5u);
}

TEST(SimEngineTest, ResetRestoresPristineState) {
  SimEngine engine;
  int fired = 0;
  engine.Schedule(1.0, [&] { ++fired; });
  engine.Schedule(2.0, [&] { ++fired; });
  engine.Schedule(9.0, [&] { ++fired; });
  engine.RunUntil(5.0);
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_EQ(fired, 2);
  engine.Reset();
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_processed(), 0u);
  engine.CheckInvariants();
  // The engine must be fully usable again from time zero.
  engine.Schedule(0.5, [&] { ++fired; });
  engine.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(engine.now(), 0.5);
}

}  // namespace
}  // namespace varuna

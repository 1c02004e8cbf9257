#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/pipeline/schedule.h"
#include "src/pipeline/validate.h"

namespace varuna {
namespace {

// --- Positive sweep: every generator output validates --------------------
// Pins Figure-4 semantics across the whole (kind, depth, m) grid the
// subsystems actually use.

class ValidateSweepTest : public ::testing::TestWithParam<ScheduleKind> {};

TEST_P(ValidateSweepTest, GeneratedSchedulesSatisfyInvariants) {
  for (const int depth : {1, 2, 4, 8}) {
    for (const int microbatches : {1, 3, 8}) {
      const Schedule schedule = GenerateSchedule(GetParam(), depth, microbatches);
      const ScheduleValidation validation = ValidateSchedule(schedule);
      EXPECT_TRUE(validation.ok())
          << ToString(GetParam()) << " depth=" << depth << " m=" << microbatches << "\n"
          << validation.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ValidateSweepTest,
                         ::testing::Values(ScheduleKind::kVaruna, ScheduleKind::kGpipe,
                                           ScheduleKind::kOneFOneB, ScheduleKind::kDeepSpeed),
                         [](const ::testing::TestParamInfo<ScheduleKind>& param_info) {
                           return ToString(param_info.param);
                         });

// --- Negative tests: corrupted schedules are rejected ---------------------

// Expects at least one violation whose text contains `needle`.
void ExpectRejected(const Schedule& schedule, const std::string& needle) {
  const ScheduleValidation validation = ValidateSchedule(schedule);
  ASSERT_FALSE(validation.ok()) << "corruption not detected (wanted: " << needle << ")";
  EXPECT_NE(validation.ToString().find(needle), std::string::npos)
      << "violations:\n"
      << validation.ToString();
}

TEST(ValidateNegativeTest, ShapeMismatchRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 4, 3);
  schedule.ops.pop_back();
  ExpectRejected(schedule, "stages");
}

TEST(ValidateNegativeTest, MissingBackwardRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kGpipe, 2, 3);
  auto& ops = schedule.ops[0];
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].type == PipeOpType::kBackward) {
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  ExpectRejected(schedule, "backward missing");
}

TEST(ValidateNegativeTest, DuplicatedForwardRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kGpipe, 2, 3);
  schedule.ops[1].push_back(PipeOp{PipeOpType::kForward, 2});
  ExpectRejected(schedule, "forward duplicated");
}

TEST(ValidateNegativeTest, BackwardBeforeForwardRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 2, 3);
  // Swap the last stage's F(0),B(0) pair so the backward runs first.
  std::swap(schedule.ops[1][0], schedule.ops[1][1]);
  ExpectRejected(schedule, "after backward");
}

TEST(ValidateNegativeTest, RecomputeAfterBackwardRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kOneFOneB, 2, 3);
  auto& ops = schedule.ops[0];
  // Move the first recompute behind its backward.
  for (size_t i = 0; i + 1 < ops.size(); ++i) {
    if (ops[i].type == PipeOpType::kRecompute) {
      std::swap(ops[i], ops[i + 1]);
      break;
    }
  }
  ExpectRejected(schedule, "recompute");
}

TEST(ValidateNegativeTest, LastStageRecomputeRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 3, 3);
  auto& ops = schedule.ops[2];
  // Insert a recompute before the final backward on the last stage.
  ops.insert(ops.end() - 1, PipeOp{PipeOpType::kRecompute, 2});
  ExpectRejected(schedule, "forbidden");
}

TEST(ValidateNegativeTest, GpipeForwardAfterBackwardRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kGpipe, 2, 3);
  auto& ops = schedule.ops[0];
  // Move the final forward to the end of the op list (into the drain phase),
  // leaving multiset completeness intact.
  PipeOp moved{PipeOpType::kForward, 2};
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i] == moved) {
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  ops.push_back(moved);
  ExpectRejected(schedule, "all forwards first");
}

TEST(ValidateNegativeTest, GpipeFifoDrainRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kGpipe, 1, 2);
  // Rebuild stage 0 draining FIFO instead of LIFO: F0 F1 R0 B0 B1 — B1 should
  // have run before B0 (and without recomputing B1's evicted activations).
  schedule.ops[0] = {PipeOp{PipeOpType::kForward, 0}, PipeOp{PipeOpType::kForward, 1},
                     PipeOp{PipeOpType::kRecompute, 0}, PipeOp{PipeOpType::kBackward, 0},
                     PipeOp{PipeOpType::kBackward, 1}};
  ExpectRejected(schedule, "LIFO");
}

TEST(ValidateNegativeTest, OneFOneBWarmupTooShortRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kOneFOneB, 4, 8);
  // Delay stage 0's last warmup forward until after the first backward pair;
  // forwards stay in ascending order but the warmup is now one short.
  auto& ops = schedule.ops[0];
  const PipeOp warmup_f = ops[3];
  ASSERT_EQ(warmup_f.type, PipeOpType::kForward);
  ops.erase(ops.begin() + 3);
  ops.insert(ops.begin() + 5, warmup_f);
  ExpectRejected(schedule, "warmup");
}

TEST(ValidateNegativeTest, VarunaWarmupMismatchRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 4, 12);
  // Stage 0 warms up with 3(P-1) = 9 forwards. Delay the ninth until after the
  // first R,B pair: forwards stay ascending and every R still sits right
  // before its B, so only the warmup count is wrong.
  auto& ops = schedule.ops[0];
  const PipeOp warmup_f = ops[8];
  ASSERT_EQ(warmup_f, (PipeOp{PipeOpType::kForward, 8}));
  ASSERT_EQ(ops[9], (PipeOp{PipeOpType::kRecompute, 0}));
  ops.erase(ops.begin() + 8);
  ops.insert(ops.begin() + 10, warmup_f);
  const ScheduleValidation validation = ValidateSchedule(schedule);
  ASSERT_EQ(validation.violations.size(), 1u) << validation.ToString();
  ExpectRejected(schedule, "warmup of 8 leading forwards, expected 9");
}

TEST(ValidateNegativeTest, DeepSpeedParityBreakRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kDeepSpeed, 2, 3);
  // Two forward-slots in a row break the even/odd grid.
  auto& ops = schedule.ops[0];
  ops.insert(ops.begin() + 1, PipeOp{PipeOpType::kIdleForward, -1});
  ExpectRejected(schedule, "slot");
}

// Both corruptions keep the even/odd slot parity, so only the padding pin
// (exactly the first P-1-s backward slots and last P-1-s forward slots idle)
// can reject them.
TEST(ValidateNegativeTest, DeepSpeedPaddingMismatchRejected) {
  {
    // P=4, Nm=2, stage 0 idles 3 backward and 3 forward slots: F0 iB F1 iB
    // iF iB iF R0 B0 iF R1 B1. Drop one warmup idle-B together with the
    // drain idle-F after it.
    Schedule schedule = GenerateSchedule(ScheduleKind::kDeepSpeed, 4, 2);
    auto& ops = schedule.ops[0];
    ASSERT_EQ(ops[3], (PipeOp{PipeOpType::kIdleBackward, -1}));
    ASSERT_EQ(ops[4], (PipeOp{PipeOpType::kIdleForward, -1}));
    ops.erase(ops.begin() + 3, ops.begin() + 5);
    const ScheduleValidation validation = ValidateSchedule(schedule);
    ASSERT_EQ(validation.violations.size(), 2u) << validation.ToString();
    ExpectRejected(schedule, "stage 0: 2 idleB slots, 2 of them leading; expected exactly 3");
    ExpectRejected(schedule, "stage 0: 2 idleF slots, 2 of them trailing; expected exactly 3");
  }
  {
    // P=3, Nm=4, stage 0: F0 iB F1 iB F2 R0 B0 ... Move the second warmup
    // idle-B one backward slot later: F0 iB F1 R0 B0 F2 iB ...
    Schedule schedule = GenerateSchedule(ScheduleKind::kDeepSpeed, 3, 4);
    auto& ops = schedule.ops[0];
    ASSERT_EQ(ops[3], (PipeOp{PipeOpType::kIdleBackward, -1}));
    ASSERT_EQ(ops[4], (PipeOp{PipeOpType::kForward, 2}));
    ASSERT_EQ(ops[5], (PipeOp{PipeOpType::kRecompute, 0}));
    ASSERT_EQ(ops[6], (PipeOp{PipeOpType::kBackward, 0}));
    ops[3] = PipeOp{PipeOpType::kRecompute, 0};
    ops[4] = PipeOp{PipeOpType::kBackward, 0};
    ops[5] = PipeOp{PipeOpType::kForward, 2};
    ops[6] = PipeOp{PipeOpType::kIdleBackward, -1};
    const ScheduleValidation validation = ValidateSchedule(schedule);
    ASSERT_EQ(validation.violations.size(), 1u) << validation.ToString();
    ExpectRejected(schedule, "stage 0: 2 idleB slots, 1 of them leading; expected exactly 2");
  }
}

// Dropping a stage-0 recompute leaves the micro-batch without its R, which
// interior stages and GPipe's evicted micro-batches all require.
TEST(ValidateNegativeTest, MissingRecomputeRejected) {
  for (const ScheduleKind kind :
       {ScheduleKind::kVaruna, ScheduleKind::kGpipe, ScheduleKind::kOneFOneB}) {
    Schedule schedule = GenerateSchedule(kind, 3, 4);
    auto& ops = schedule.ops[0];
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].type == PipeOpType::kRecompute) {
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    ExpectRejected(schedule, kind == ScheduleKind::kGpipe
                                 ? "GPipe must recompute evicted activations"
                                 : "interior stage must recompute before its backward");
  }
}

// Swapping stage 1's first two R,B pairs keeps every pair adjacent and every
// slot in place, so only the ascending backward order can reject it.
TEST(ValidateNegativeTest, InteriorBackwardsOutOfOrderRejected) {
  for (const ScheduleKind kind : {ScheduleKind::kVaruna, ScheduleKind::kDeepSpeed}) {
    Schedule schedule = GenerateSchedule(kind, 3, 4);
    auto& ops = schedule.ops[1];
    std::vector<size_t> pairs;
    for (size_t i = 0; i < ops.size() && pairs.size() < 2; ++i) {
      if (ops[i].type == PipeOpType::kRecompute) {
        pairs.push_back(i);
      }
    }
    ASSERT_EQ(pairs.size(), 2u);
    std::swap(ops[pairs[0]], ops[pairs[1]]);
    std::swap(ops[pairs[0] + 1], ops[pairs[1] + 1]);
    ExpectRejected(schedule, "stage 1: op " + std::to_string(pairs[1] + 1) +
                                 ": B0 out of ascending order (previous backward was B1)");
  }
}

// The last stage's loss gradient is local, so each forward's backward runs at
// once; a second forward in flight breaks the F(m),B(m) alternation even
// though the warmup and the backward order still hold.
TEST(ValidateNegativeTest, OneFOneBLastStageAlternationRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kOneFOneB, 2, 3);
  schedule.ops[1] = {PipeOp{PipeOpType::kForward, 0}, PipeOp{PipeOpType::kBackward, 0},
                     PipeOp{PipeOpType::kForward, 1}, PipeOp{PipeOpType::kForward, 2},
                     PipeOp{PipeOpType::kBackward, 1}, PipeOp{PipeOpType::kBackward, 2}};
  const ScheduleValidation validation = ValidateSchedule(schedule);
  ASSERT_EQ(validation.violations.size(), 1u) << validation.ToString();
  ExpectRejected(schedule, "stage 1: ops 2-3: expected F1,B1 alternation");
}

// One hand-built stage list per row, each breaking one rule the cases above
// leave unexercised.
TEST(ValidateNegativeTest, HandBuiltStageListsRejected) {
  constexpr PipeOpType kF = PipeOpType::kForward;
  constexpr PipeOpType kR = PipeOpType::kRecompute;
  constexpr PipeOpType kB = PipeOpType::kBackward;
  constexpr PipeOpType kIdleF = PipeOpType::kIdleForward;
  constexpr PipeOpType kIdleB = PipeOpType::kIdleBackward;
  struct Row {
    ScheduleKind kind;
    int depth;
    int microbatches;
    int stage;
    std::vector<PipeOp> ops;
    std::string needle;
  };
  const std::vector<Row> rows = {
      {ScheduleKind::kGpipe, 1, 3, 0,
       {{kF, 0}, {kF, 1}, {kF, 2}, {kB, 2}, {kR, 1}, {kR, 0}, {kB, 1}, {kB, 0}},
       "stage 0: op 4: R1 not immediately followed by B1"},
      {ScheduleKind::kGpipe, 1, 3, 0,
       {{kF, 0}, {kF, 2}, {kF, 1}, {kB, 2}, {kR, 1}, {kB, 1}, {kR, 0}, {kB, 0}},
       "stage 0: op 2: F1 out of ascending order (previous forward was F2)"},
      {ScheduleKind::kGpipe, 1, 2, 0, {{kF, 1}, {kB, 1}, {kR, 0}, {kB, 0}},
       "stage 0: micro-batch 0: forward missing"},
      {ScheduleKind::kGpipe, 1, 2, 0, {{kR, 0}, {kB, 0}, {kF, 0}, {kF, 1}, {kB, 1}},
       "stage 0: micro-batch 0: recompute (op 0) before forward (op 2)"},
      {ScheduleKind::kVaruna, 2, 2, 1, {{kF, 0}, {kB, 0}, {kF, 1}},
       "stage 1: expected 4 ops (F,B alternation), found 3"},
      {ScheduleKind::kDeepSpeed, 2, 2, 0,
       {{kF, 0}, {kIdleB, -1}, {kF, 1}, {kB, 0}, {kIdleF, -1}, {kR, 1}, {kB, 1}},
       "stage 0: micro-batch 0: interior stage must recompute before its backward"},
      {ScheduleKind::kDeepSpeed, 2, 2, 0,
       {{kF, 0}, {kIdleB, -1}, {kIdleB, -1}, {kF, 1}, {kR, 0}, {kB, 0}, {kIdleF, -1}, {kR, 1},
        {kB, 1}},
       "stage 0: op 2: idleB in a forward slot"},
      {ScheduleKind::kDeepSpeed, 2, 2, 0,
       {{kF, 0}, {kIdleB, -1}, {kF, 1}, {kR, 0}, {kB, 0}, {kIdleF, 0}, {kR, 1}, {kB, 1}},
       "stage 0: op 5: idle op with micro-batch 0"},
  };
  for (const Row& row : rows) {
    Schedule schedule = GenerateSchedule(row.kind, row.depth, row.microbatches);
    schedule.ops[static_cast<size_t>(row.stage)] = row.ops;
    ExpectRejected(schedule, row.needle);
  }
}

TEST(ValidateNegativeTest, IdleOpOutsideDeepSpeedRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 2, 2);
  schedule.ops[0].push_back(PipeOp{PipeOpType::kIdleForward, -1});
  ExpectRejected(schedule, "idle op");
}

TEST(ValidateNegativeTest, MicrobatchOutOfRangeRejected) {
  Schedule schedule = GenerateSchedule(ScheduleKind::kGpipe, 1, 2);
  schedule.ops[0][0].microbatch = 7;
  ExpectRejected(schedule, "out of range");
}

TEST(ValidateNegativeTest, ReportsAllViolations) {
  // A thoroughly corrupted schedule yields one violation per defect, not just
  // the first.
  Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 2, 2);
  schedule.ops[0].push_back(PipeOp{PipeOpType::kIdleForward, -1});
  schedule.ops[1].push_back(PipeOp{PipeOpType::kForward, 0});
  const ScheduleValidation validation = ValidateSchedule(schedule);
  EXPECT_GE(validation.violations.size(), 2u) << validation.ToString();
}

}  // namespace
}  // namespace varuna

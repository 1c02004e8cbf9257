#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/pipeline/schedule.h"

namespace varuna {
namespace {

// Counts ops of a type for one stage.
int Count(const Schedule& schedule, int stage, PipeOpType type) {
  int count = 0;
  for (const PipeOp& op : schedule.ops[static_cast<size_t>(stage)]) {
    count += op.type == type;
  }
  return count;
}

// Validates the universal invariants every synchronous schedule must satisfy.
void CheckScheduleInvariants(const Schedule& schedule) {
  for (int s = 0; s < schedule.depth; ++s) {
    const auto& ops = schedule.ops[static_cast<size_t>(s)];
    std::set<int> forwards;
    std::set<int> backwards;
    std::set<int> recomputes;
    int last_forward = -1;
    for (const PipeOp& op : ops) {
      switch (op.type) {
        case PipeOpType::kForward:
          // Forwards strictly in micro-batch order.
          EXPECT_GT(op.microbatch, last_forward) << "stage " << s;
          last_forward = op.microbatch;
          EXPECT_TRUE(forwards.insert(op.microbatch).second);
          break;
        case PipeOpType::kRecompute:
          // Recompute only after this stage's own forward, before backward.
          EXPECT_TRUE(forwards.count(op.microbatch)) << "stage " << s;
          EXPECT_FALSE(backwards.count(op.microbatch)) << "stage " << s;
          EXPECT_TRUE(recomputes.insert(op.microbatch).second);
          break;
        case PipeOpType::kBackward:
          EXPECT_TRUE(forwards.count(op.microbatch)) << "stage " << s;
          EXPECT_TRUE(backwards.insert(op.microbatch).second);
          break;
        case PipeOpType::kIdleForward:
        case PipeOpType::kIdleBackward:
          break;
      }
    }
    // Every micro-batch forwarded and backwarded exactly once.
    EXPECT_EQ(static_cast<int>(forwards.size()), schedule.num_microbatches) << "stage " << s;
    EXPECT_EQ(static_cast<int>(backwards.size()), schedule.num_microbatches) << "stage " << s;
  }
}

class AllSchedulesTest : public ::testing::TestWithParam<ScheduleKind> {};

TEST_P(AllSchedulesTest, InvariantsHold) {
  for (const int depth : {1, 2, 4, 8}) {
    for (const int microbatches : {1, 3, 5, 16}) {
      const Schedule schedule = GenerateSchedule(GetParam(), depth, microbatches);
      EXPECT_EQ(schedule.depth, depth);
      EXPECT_EQ(schedule.num_microbatches, microbatches);
      CheckScheduleInvariants(schedule);
    }
  }
}

TEST_P(AllSchedulesTest, ExecutableWithoutDeadlock) {
  for (const int depth : {2, 4, 6}) {
    for (const int microbatches : {2, 5, 12}) {
      // GenerateSchedule CHECK-fails on a schedule that would deadlock (its
      // eval_order cannot be compiled); the walk then covers every op.
      const Schedule schedule = GenerateSchedule(GetParam(), depth, microbatches);
      EXPECT_GT(ScheduleMakespanUnits(schedule), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllSchedulesTest,
                         ::testing::Values(ScheduleKind::kVaruna, ScheduleKind::kGpipe,
                                           ScheduleKind::kOneFOneB, ScheduleKind::kDeepSpeed),
                         [](const ::testing::TestParamInfo<ScheduleKind>& param_info) {
                           return ToString(param_info.param);
                         });

TEST(VarunaScheduleTest, LastStageNeverRecomputes) {
  for (const int depth : {2, 4, 8}) {
    const Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, depth, 8);
    EXPECT_EQ(Count(schedule, depth - 1, PipeOpType::kRecompute), 0);
  }
}

TEST(VarunaScheduleTest, LastStageAlternatesForwardBackward) {
  const Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 4, 5);
  const auto& ops = schedule.ops[3];
  ASSERT_EQ(ops.size(), 10u);
  for (int m = 0; m < 5; ++m) {
    EXPECT_EQ(ops[static_cast<size_t>(2 * m)], (PipeOp{PipeOpType::kForward, m}));
    EXPECT_EQ(ops[static_cast<size_t>(2 * m) + 1], (PipeOp{PipeOpType::kBackward, m}));
  }
}

TEST(VarunaScheduleTest, NonLastStagesRecomputeEveryMicrobatch) {
  const Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 4, 5);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(Count(schedule, s, PipeOpType::kRecompute), 5);
  }
}

TEST(VarunaScheduleTest, RecomputeImmediatelyPrecedesBackward) {
  // Rule 2: after R(m), the next op must be B(m).
  const Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 6, 12);
  for (int s = 0; s < schedule.depth - 1; ++s) {
    const auto& ops = schedule.ops[static_cast<size_t>(s)];
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].type == PipeOpType::kRecompute) {
        ASSERT_LT(i + 1, ops.size());
        EXPECT_EQ(ops[i + 1].type, PipeOpType::kBackward);
        EXPECT_EQ(ops[i + 1].microbatch, ops[i].microbatch);
      }
    }
  }
}

TEST(VarunaScheduleTest, BeatsGpipeMakespanFigure4) {
  // Figure 4: 4 stages, 5 micro-batches — "Varuna ... uses 1 less time unit".
  const double varuna = ScheduleMakespanUnits(GenerateSchedule(ScheduleKind::kVaruna, 4, 5));
  const double gpipe = ScheduleMakespanUnits(GenerateSchedule(ScheduleKind::kGpipe, 4, 5));
  EXPECT_LT(varuna, gpipe);
}

TEST(VarunaScheduleTest, NeverWorseThanGpipeAcrossConfigs) {
  for (const int depth : {2, 4, 8}) {
    for (const int microbatches : {4, 8, 24}) {
      const double varuna =
          ScheduleMakespanUnits(GenerateSchedule(ScheduleKind::kVaruna, depth, microbatches));
      const double gpipe =
          ScheduleMakespanUnits(GenerateSchedule(ScheduleKind::kGpipe, depth, microbatches));
      EXPECT_LE(varuna, gpipe + 1e-9) << depth << "x" << microbatches;
    }
  }
}

TEST(VarunaScheduleTest, InterspersedForwards) {
  // Unlike GPipe, interior stages interleave forwards with backward work
  // (the property that enables opportunistic scheduling under jitter).
  const Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 4, 5);
  const auto& ops = schedule.ops[2];  // Stage 3 of 4 in Figure 4.
  bool seen_backward = false;
  bool forward_after_backward = false;
  for (const PipeOp& op : ops) {
    seen_backward |= op.type == PipeOpType::kBackward;
    forward_after_backward |= seen_backward && op.type == PipeOpType::kForward;
  }
  EXPECT_TRUE(forward_after_backward);
}

// The steady-state bubble in closed form: in unit time the Varuna schedule's
// makespan is 4 Nm + 3(P-1) - min(Nm, 3) for P >= 2. An interior stage spends
// F + R + B = 4 units per micro-batch, so fill and drain cost 3(P-1) units
// less a credit that saturates at three micro-batches. A single stage never
// recomputes: Nm x (F + B). The grid is every shape with P <= 24 and
// Nm <= 3P + 16, plus sampled deep ones; it keeps the cached ops near 16 MB.
TEST(VarunaScheduleTest, UnitMakespanClosedForm) {
  const auto expected = [](int depth, int microbatches) {
    if (depth == 1) {
      return 3.0 * microbatches;
    }
    return 4.0 * microbatches + 3.0 * (depth - 1) - std::min(microbatches, 3);
  };
  const auto check = [&](int depth, int microbatches) {
    const double makespan =
        ScheduleMakespanUnits(GenerateSchedule(ScheduleKind::kVaruna, depth, microbatches));
    EXPECT_EQ(makespan, expected(depth, microbatches)) << "P=" << depth << " Nm=" << microbatches;
  };
  for (int depth = 1; depth <= 24; ++depth) {
    for (int microbatches = 1; microbatches <= 3 * depth + 16; ++microbatches) {
      check(depth, microbatches);
    }
  }
  for (const int depth : {32, 48, 64, 104}) {
    for (const int microbatches : {1, 2, 3, 3 * depth - 2, 3 * depth + 40, 512}) {
      check(depth, microbatches);
    }
  }
}

// The unit-time makespans of the other three kinds are closed forms too:
//   GPipe:     4 Nm + 3(P-1) - 1. Every stage but the last recomputes all but
//              the newest micro-batch, so even P = 1 pays Nm - 1 recomputes.
//   1F1B:      3 Nm at P = 1, else 4 Nm + 3(P-1) - min(Nm, 2).
//   DeepSpeed: 3 Nm at P = 1, else 4 Nm + 4(P-1); its slot loop adds one
//              idle unit per stage of fill.
// The grid is every shape with P <= 16 and Nm <= 3P + 16 for each kind, plus
// sampled deep ones; the three kinds' cached ops together stay near the
// Varuna grid's 16 MB.
TEST(ScheduleUnitMakespanTest, ClosedFormsForGpipeOneFOneBAndDeepSpeed) {
  const struct {
    ScheduleKind kind;
    double (*expected)(int depth, int microbatches);
  } kinds[] = {
      {ScheduleKind::kGpipe,
       [](int depth, int microbatches) {
         return 4.0 * microbatches + 3.0 * (depth - 1) - 1.0;
       }},
      {ScheduleKind::kOneFOneB,
       [](int depth, int microbatches) {
         if (depth == 1) {
           return 3.0 * microbatches;
         }
         return 4.0 * microbatches + 3.0 * (depth - 1) - std::min(microbatches, 2);
       }},
      {ScheduleKind::kDeepSpeed,
       [](int depth, int microbatches) {
         if (depth == 1) {
           return 3.0 * microbatches;
         }
         return 4.0 * microbatches + 4.0 * (depth - 1);
       }},
  };
  for (const auto& [kind, expected] : kinds) {
    const auto check = [&](int depth, int microbatches) {
      const double makespan = ScheduleMakespanUnits(GenerateSchedule(kind, depth, microbatches));
      EXPECT_EQ(makespan, expected(depth, microbatches))
          << ToString(kind) << " P=" << depth << " Nm=" << microbatches;
    };
    for (int depth = 1; depth <= 16; ++depth) {
      for (int microbatches = 1; microbatches <= 3 * depth + 16; ++microbatches) {
        check(depth, microbatches);
      }
    }
    for (const int depth : {24, 48, 104}) {
      for (const int microbatches : {1, 2, 3, 3 * depth - 2, 512}) {
        check(depth, microbatches);
      }
    }
  }
}

TEST(GpipeScheduleTest, AllForwardsBeforeBackwards) {
  const Schedule schedule = GenerateSchedule(ScheduleKind::kGpipe, 4, 5);
  for (int s = 0; s < 4; ++s) {
    const auto& ops = schedule.ops[static_cast<size_t>(s)];
    for (int m = 0; m < 5; ++m) {
      EXPECT_EQ(ops[static_cast<size_t>(m)], (PipeOp{PipeOpType::kForward, m}));
    }
    // Backwards run in reverse order; latest micro-batch skips recompute.
    EXPECT_EQ(ops[5], (PipeOp{PipeOpType::kBackward, 4}));
    EXPECT_EQ(ops[6], (PipeOp{PipeOpType::kRecompute, 3}));
  }
}

TEST(OneFOneBScheduleTest, WarmupDepthMatchesStage) {
  const int depth = 4;
  const Schedule schedule = GenerateSchedule(ScheduleKind::kOneFOneB, depth, 8);
  for (int s = 0; s < depth; ++s) {
    const auto& ops = schedule.ops[static_cast<size_t>(s)];
    int warmup = 0;
    while (warmup < static_cast<int>(ops.size()) &&
           ops[static_cast<size_t>(warmup)].type == PipeOpType::kForward) {
      ++warmup;
    }
    EXPECT_EQ(warmup, depth - s) << "stage " << s;  // P-1-s warmup + 1 steady F.
  }
}

TEST(DeepSpeedScheduleTest, HasIdleSlots) {
  const Schedule schedule = GenerateSchedule(ScheduleKind::kDeepSpeed, 4, 8);
  int idles = 0;
  for (int s = 0; s < schedule.depth; ++s) {
    idles += Count(schedule, s, PipeOpType::kIdleForward) +
             Count(schedule, s, PipeOpType::kIdleBackward);
  }
  EXPECT_GT(idles, 0);
}

TEST(DeepSpeedScheduleTest, SlowerThanOneFOneB) {
  const double deepspeed =
      ScheduleMakespanUnits(GenerateSchedule(ScheduleKind::kDeepSpeed, 4, 8));
  const double one_f_one_b =
      ScheduleMakespanUnits(GenerateSchedule(ScheduleKind::kOneFOneB, 4, 8));
  EXPECT_GE(deepspeed, one_f_one_b);
}

TEST(ScheduleRenderTest, GanttMentionsEveryStage) {
  const Schedule schedule = GenerateSchedule(ScheduleKind::kVaruna, 4, 5);
  const std::string gantt = RenderScheduleGantt(schedule);
  for (int s = 1; s <= 4; ++s) {
    EXPECT_NE(gantt.find("S" + std::to_string(s)), std::string::npos);
  }
}

// The eval_order contract, checked on every ScheduleGoldenTest shape: each
// stage appears once per op, and walking the order, every forward at s > 0
// comes after the same micro-batch's forward at s - 1 and every backward after
// the op it waits on. Any order meeting this is correct, so the test pins the
// contract, not the bytes.
TEST(ScheduleEvalOrderTest, EveryOpFollowsItsDependencies) {
  for (const ScheduleKind kind : {ScheduleKind::kVaruna, ScheduleKind::kGpipe,
                                  ScheduleKind::kOneFOneB, ScheduleKind::kDeepSpeed}) {
    for (const int depth : {1, 2, 3, 4, 6, 8, 12, 16}) {
      for (const int num_microbatches : {1, 2, 3, 5, 8, 13, 32, 64}) {
        const Schedule& schedule = GenerateSchedule(kind, depth, num_microbatches);
        const std::string shape = ToString(kind) + " P=" + std::to_string(depth) +
                                  " Nm=" + std::to_string(num_microbatches);
        const auto at = [num_microbatches](int s, int mb) {
          return static_cast<size_t>(s) * static_cast<size_t>(num_microbatches) +
                 static_cast<size_t>(mb);
        };
        const size_t cells = static_cast<size_t>(depth) * static_cast<size_t>(num_microbatches);
        std::vector<bool> forwarded(cells, false);
        std::vector<bool> backwarded(cells, false);
        std::vector<size_t> cursor(static_cast<size_t>(depth), 0);
        for (const uint16_t s : schedule.eval_order) {
          ASSERT_LT(s, depth) << shape;
          const std::vector<PipeOp>& ops = schedule.ops[s];
          ASSERT_LT(cursor[s], ops.size()) << shape << " stage " << s;
          const PipeOp& op = ops[cursor[s]++];
          if (op.type == PipeOpType::kForward) {
            EXPECT_TRUE(s == 0 || forwarded[at(s - 1, op.microbatch)]) << shape << " stage " << s;
            forwarded[at(s, op.microbatch)] = true;
          } else if (op.type == PipeOpType::kBackward) {
            EXPECT_TRUE(s == depth - 1 ? forwarded[at(s, op.microbatch)]
                                       : backwarded[at(s + 1, op.microbatch)])
                << shape << " stage " << s;
            backwarded[at(s, op.microbatch)] = true;
          }
        }
        for (int s = 0; s < depth; ++s) {
          EXPECT_EQ(cursor[static_cast<size_t>(s)], schedule.ops[static_cast<size_t>(s)].size())
              << shape << " stage " << s;
        }
      }
    }
  }
}

// A cached schedule lives for the process, so each generator reserves its
// stage lists' exact sizes: no list keeps a growing vector's slack.
TEST(ScheduleTest, StageListsCarryNoSpareCapacity) {
  std::vector<std::pair<int, int>> shapes = {{8, 100}, {36, 2048}};
  for (const int depth : {1, 2, 3, 4, 6, 8, 12, 16}) {
    for (const int num_microbatches : {1, 2, 3, 5, 8, 13, 32, 64}) {
      shapes.emplace_back(depth, num_microbatches);
    }
  }
  for (const ScheduleKind kind : {ScheduleKind::kVaruna, ScheduleKind::kGpipe,
                                  ScheduleKind::kOneFOneB, ScheduleKind::kDeepSpeed}) {
    for (const auto& [depth, num_microbatches] : shapes) {
      const Schedule& schedule = GenerateSchedule(kind, depth, num_microbatches);
      for (int s = 0; s < depth; ++s) {
        const std::vector<PipeOp>& ops = schedule.ops[static_cast<size_t>(s)];
        EXPECT_EQ(ops.capacity(), ops.size()) << ToString(kind) << " P=" << depth
                                              << " Nm=" << num_microbatches << " stage " << s;
      }
    }
  }
}

TEST(ScheduleEvalOrderTest, CopiesKeepTheOrder) {
  const Schedule copy = GenerateSchedule(ScheduleKind::kVaruna, 4, 5);
  EXPECT_EQ(copy.eval_order.size(), ScheduleOpCount(copy));
  EXPECT_EQ(ScheduleMakespanUnits(copy),
            ScheduleMakespanUnits(GenerateSchedule(ScheduleKind::kVaruna, 4, 5)));
}

TEST(ScheduleEvalOrderDeathTest, HandBuiltScheduleWithoutOrderAborts) {
  Schedule schedule;
  schedule.depth = 1;
  schedule.num_microbatches = 1;
  schedule.ops = {{PipeOp{PipeOpType::kForward, 0}, PipeOp{PipeOpType::kBackward, 0}}};
  EXPECT_DEATH(ScheduleMakespanUnits(schedule), "eval_order");
}

TEST(ScheduleTest, OnlyVarunaIsOpportunistic) {
  EXPECT_TRUE(GenerateSchedule(ScheduleKind::kVaruna, 2, 2).opportunistic);
  EXPECT_FALSE(GenerateSchedule(ScheduleKind::kGpipe, 2, 2).opportunistic);
  EXPECT_FALSE(GenerateSchedule(ScheduleKind::kOneFOneB, 2, 2).opportunistic);
  EXPECT_FALSE(GenerateSchedule(ScheduleKind::kDeepSpeed, 2, 2).opportunistic);
}

// Golden generator output: an FNV-1a over every schedule's kind, depth, Nm,
// opportunistic flag and each stage's (type, micro-batch) ops. The constants
// were recorded from the generators as they stand; a change to any emitted
// op, anywhere in the grid, moves its row. A generator rewrite must leave
// every row untouched.
uint64_t MixU64(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t HashSchedule(const Schedule& schedule, uint64_t hash) {
  hash = MixU64(hash, static_cast<uint64_t>(schedule.kind));
  hash = MixU64(hash, static_cast<uint64_t>(schedule.depth));
  hash = MixU64(hash, static_cast<uint64_t>(schedule.num_microbatches));
  hash = MixU64(hash, schedule.opportunistic ? 1 : 0);
  for (const std::vector<PipeOp>& stage : schedule.ops) {
    hash = MixU64(hash, stage.size());
    for (const PipeOp& op : stage) {
      hash = MixU64(hash, static_cast<uint64_t>(op.type));
      hash = MixU64(hash, static_cast<uint64_t>(static_cast<int64_t>(op.microbatch)));
    }
  }
  return hash;
}

TEST(ScheduleGoldenTest, GeneratorOutputIsPinned) {
  struct Row {
    ScheduleKind kind;
    int depth;
    uint64_t hash;  // Over Nm in kMicrobatches, ascending.
  };
  constexpr int kMicrobatches[] = {1, 2, 3, 5, 8, 13, 32, 64};
  const Row rows[] = {
      {ScheduleKind::kVaruna, 1, 0x52fcabbbe843ec85ULL},
      {ScheduleKind::kVaruna, 2, 0x0ec09fc93692c393ULL},
      {ScheduleKind::kVaruna, 3, 0xffa950277ed2a6c5ULL},
      {ScheduleKind::kVaruna, 4, 0x645139c3ef09db53ULL},
      {ScheduleKind::kVaruna, 6, 0x64006338a60e1493ULL},
      {ScheduleKind::kVaruna, 8, 0xd629dffbe377e693ULL},
      {ScheduleKind::kVaruna, 12, 0xc4999612bab46213ULL},
      {ScheduleKind::kVaruna, 16, 0x1dc2c1db9ce7b953ULL},
      {ScheduleKind::kGpipe, 1, 0x26d42596cf3c7293ULL},
      {ScheduleKind::kGpipe, 2, 0x348a81c6842fa145ULL},
      {ScheduleKind::kGpipe, 3, 0x743ce4390e008d13ULL},
      {ScheduleKind::kGpipe, 4, 0x8c806f0ea98e0745ULL},
      {ScheduleKind::kGpipe, 6, 0xd754b8d4730ebec5ULL},
      {ScheduleKind::kGpipe, 8, 0xaa95db821249d0c5ULL},
      {ScheduleKind::kGpipe, 12, 0x25552a6bf401a245ULL},
      {ScheduleKind::kGpipe, 16, 0x3e149df49f39edc5ULL},
      {ScheduleKind::kOneFOneB, 1, 0xcf870da8bd7847c5ULL},
      {ScheduleKind::kOneFOneB, 2, 0xfb807ef468d2f913ULL},
      {ScheduleKind::kOneFOneB, 3, 0x27995c53220f41c5ULL},
      {ScheduleKind::kOneFOneB, 4, 0x8461c84a6368ac13ULL},
      {ScheduleKind::kOneFOneB, 6, 0x44b6f8f5de7478d3ULL},
      {ScheduleKind::kOneFOneB, 8, 0x80fb201070d7c113ULL},
      {ScheduleKind::kOneFOneB, 12, 0x1064132e9cd54853ULL},
      {ScheduleKind::kOneFOneB, 16, 0x06f93607034b5453ULL},
      {ScheduleKind::kDeepSpeed, 1, 0x15edbf3ec4431e05ULL},
      {ScheduleKind::kDeepSpeed, 2, 0x2a0a73c67a5d7dfbULL},
      {ScheduleKind::kDeepSpeed, 3, 0xbb1b72581506b175ULL},
      {ScheduleKind::kDeepSpeed, 4, 0x0be9bb6ebb0b4263ULL},
      {ScheduleKind::kDeepSpeed, 6, 0xa9336af592e477dbULL},
      {ScheduleKind::kDeepSpeed, 8, 0xe07a574a342defd3ULL},
      {ScheduleKind::kDeepSpeed, 12, 0x6b037a63dd59b223ULL},
      {ScheduleKind::kDeepSpeed, 16, 0x6e4a683dc25b0253ULL},
  };
  for (const Row& row : rows) {
    uint64_t hash = 14695981039346656037ULL;
    for (const int num_microbatches : kMicrobatches) {
      hash = HashSchedule(GenerateSchedule(row.kind, row.depth, num_microbatches), hash);
    }
    EXPECT_EQ(hash, row.hash) << ToString(row.kind) << " P=" << row.depth;
  }
}

// The slot-loop kinds at the depths the shipped models reach (up to 104
// stages): Nm runs over the small edge cases, the band around 3P where
// Varuna's warmup stops being capped by Nm, and 1024 where the op table allows.
// Varuna's rows were recorded from the event-driven rule simulation that its
// closed form replaced, 1F1B's and DeepSpeed's from the generators before they
// joined the slot loop (DeepSpeed's was a slot-grid simulation). Each kind
// caches about 30 MB of ops (ScheduleOpCount x 8 bytes), so P = 104 skips
// Nm = 1024, and so does DeepSpeed at P = 100: its idle padding adds P(P-1)
// ops per schedule.
TEST(ScheduleGoldenTest, DeepVarunaGridIsPinned) {
  struct Row {
    ScheduleKind kind;
    int depth;
    uint64_t hash;  // Over the Nm grid below, ascending.
  };
  const Row rows[] = {
      {ScheduleKind::kVaruna, 20, 0xf66a582e0e0ff4f6ULL},
      {ScheduleKind::kVaruna, 24, 0xc6d0f9f0e039a83aULL},
      {ScheduleKind::kVaruna, 32, 0x6d151aa10927ac7dULL},
      {ScheduleKind::kVaruna, 36, 0x94e0b579e22baa11ULL},
      {ScheduleKind::kVaruna, 48, 0x6f67596d7ede2c4aULL},
      {ScheduleKind::kVaruna, 49, 0x64d4786c4d96b3b3ULL},
      {ScheduleKind::kVaruna, 64, 0xa8c2c18015bbf023ULL},
      {ScheduleKind::kVaruna, 72, 0x430ddd5159ec069bULL},
      {ScheduleKind::kVaruna, 96, 0xe8ba5dbc39ee4e96ULL},
      {ScheduleKind::kVaruna, 100, 0x01075d57070c8346ULL},
      {ScheduleKind::kVaruna, 104, 0xb0be7c8a599227f7ULL},
      {ScheduleKind::kOneFOneB, 20, 0x141a5f0c1254a085ULL},
      {ScheduleKind::kOneFOneB, 24, 0xef78116d6e1b8df1ULL},
      {ScheduleKind::kOneFOneB, 32, 0x12ffa975e6a68786ULL},
      {ScheduleKind::kOneFOneB, 36, 0x02537df6be931af2ULL},
      {ScheduleKind::kOneFOneB, 48, 0x713f608dc9a260d9ULL},
      {ScheduleKind::kOneFOneB, 49, 0x07c5ca459cbdbf78ULL},
      {ScheduleKind::kOneFOneB, 64, 0xc1ee3c4c3f97dc18ULL},
      {ScheduleKind::kOneFOneB, 72, 0xd89846e69fd931a0ULL},
      {ScheduleKind::kOneFOneB, 96, 0xdeb06f32246ee041ULL},
      {ScheduleKind::kOneFOneB, 100, 0x1b2be47927dd8359ULL},
      {ScheduleKind::kOneFOneB, 104, 0x04f07494469de45bULL},
      {ScheduleKind::kDeepSpeed, 20, 0xca0d8df16a4b8664ULL},
      {ScheduleKind::kDeepSpeed, 24, 0xccb148a906400f23ULL},
      {ScheduleKind::kDeepSpeed, 32, 0x203c5093dea222cfULL},
      {ScheduleKind::kDeepSpeed, 36, 0x95c664816377fb43ULL},
      {ScheduleKind::kDeepSpeed, 48, 0xdb1f1f8a569cd2b0ULL},
      {ScheduleKind::kDeepSpeed, 49, 0x142a0d6f3e7e7c1dULL},
      {ScheduleKind::kDeepSpeed, 64, 0xaa67500ed6aa2a55ULL},
      {ScheduleKind::kDeepSpeed, 72, 0x13b30fec6c0a5a39ULL},
      {ScheduleKind::kDeepSpeed, 96, 0x303b38f987a9b39cULL},
      {ScheduleKind::kDeepSpeed, 100, 0xbf8f7cf3eb6766cbULL},
      {ScheduleKind::kDeepSpeed, 104, 0x3422cea807ea8513ULL},
  };
  for (const Row& row : rows) {
    const int p = row.depth;
    std::vector<int> grid = {1, 2, p - 1, 3 * p - 4, 3 * p - 3, 3 * p - 2, 3 * p - 1, 3 * p + 7};
    if (p <= (row.kind == ScheduleKind::kDeepSpeed ? 96 : 100)) {
      grid.push_back(1024);
    }
    uint64_t hash = 14695981039346656037ULL;
    for (const int num_microbatches : grid) {
      hash = HashSchedule(GenerateSchedule(row.kind, p, num_microbatches), hash);
    }
    EXPECT_EQ(hash, row.hash) << ToString(row.kind) << " P=" << p << ": new hash 0x" << std::hex
                              << hash;
  }
}

// Golden unit-time evaluation: an FNV-1a over the bits of every grid shape's
// ScheduleMakespanUnits and its 120-column Gantt, over the ScheduleGoldenTest
// grid. Recorded before the unit-time executor was rewritten; any change to
// an op's unit start or end moves the row.
uint64_t MixString(uint64_t hash, const std::string& text) {
  hash = MixU64(hash, text.size());
  for (const char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(ScheduleUnitTimeGoldenTest, MakespanAndGanttArePinned) {
  struct Row {
    ScheduleKind kind;
    int depth;
    uint64_t hash;  // Over Nm in kMicrobatches, ascending.
  };
  constexpr int kMicrobatches[] = {1, 2, 3, 5, 8, 13, 32, 64};
  const Row rows[] = {
      {ScheduleKind::kVaruna, 1, 0x53be7d3fd36574dfULL},
      {ScheduleKind::kVaruna, 2, 0x8c777050741a6936ULL},
      {ScheduleKind::kVaruna, 3, 0x672a27a0309a8936ULL},
      {ScheduleKind::kVaruna, 4, 0x28e9ad85e59d8c31ULL},
      {ScheduleKind::kVaruna, 6, 0x1ae8d9498cefed9dULL},
      {ScheduleKind::kVaruna, 8, 0x379a6aa06d6f8e3cULL},
      {ScheduleKind::kVaruna, 12, 0x6cc3077b60dfa796ULL},
      {ScheduleKind::kVaruna, 16, 0xb7b12f892aa6ce67ULL},
      {ScheduleKind::kGpipe, 1, 0xfbd87d8f71e54173ULL},
      {ScheduleKind::kGpipe, 2, 0x492ecfda3c5cf8b4ULL},
      {ScheduleKind::kGpipe, 3, 0x6d6768ec1c1b720eULL},
      {ScheduleKind::kGpipe, 4, 0x5ee64ee35aedfaaeULL},
      {ScheduleKind::kGpipe, 6, 0x21e770c5f294b87cULL},
      {ScheduleKind::kGpipe, 8, 0xe7719ba8402a1441ULL},
      {ScheduleKind::kGpipe, 12, 0x8ba7ea799337d5f4ULL},
      {ScheduleKind::kGpipe, 16, 0x11b41f39e61867d7ULL},
      {ScheduleKind::kOneFOneB, 1, 0x53be7d3fd36574dfULL},
      {ScheduleKind::kOneFOneB, 2, 0xe3b6878c7fc953a3ULL},
      {ScheduleKind::kOneFOneB, 3, 0x7586c0fa61700381ULL},
      {ScheduleKind::kOneFOneB, 4, 0xb49c1a8af6b1a927ULL},
      {ScheduleKind::kOneFOneB, 6, 0xa327efe450ad3d34ULL},
      {ScheduleKind::kOneFOneB, 8, 0xf2477d5e47e5f80bULL},
      {ScheduleKind::kOneFOneB, 12, 0xbd33010b8f7104f1ULL},
      {ScheduleKind::kOneFOneB, 16, 0x7c4b1d9842e97e6bULL},
      {ScheduleKind::kDeepSpeed, 1, 0x53be7d3fd36574dfULL},
      {ScheduleKind::kDeepSpeed, 2, 0xf41a661a0f7ac53bULL},
      {ScheduleKind::kDeepSpeed, 3, 0x0d813b9609c508f3ULL},
      {ScheduleKind::kDeepSpeed, 4, 0xf6022b240720aa16ULL},
      {ScheduleKind::kDeepSpeed, 6, 0x363095fceb94e3f1ULL},
      {ScheduleKind::kDeepSpeed, 8, 0x4671fff568b23e31ULL},
      {ScheduleKind::kDeepSpeed, 12, 0x055afb34f915ca54ULL},
      {ScheduleKind::kDeepSpeed, 16, 0x3fd981b96aa16650ULL},
  };
  for (const Row& row : rows) {
    uint64_t hash = 14695981039346656037ULL;
    for (const int num_microbatches : kMicrobatches) {
      const Schedule& schedule = GenerateSchedule(row.kind, row.depth, num_microbatches);
      const double makespan = ScheduleMakespanUnits(schedule);
      uint64_t bits = 0;
      std::memcpy(&bits, &makespan, sizeof(bits));
      hash = MixU64(hash, bits);
      hash = MixString(hash, RenderScheduleGantt(schedule, 120));
    }
    EXPECT_EQ(hash, row.hash) << ToString(row.kind) << " P=" << row.depth << ": new hash 0x"
                              << std::hex << hash;
  }
}

}  // namespace
}  // namespace varuna

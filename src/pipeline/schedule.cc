#include "src/pipeline/schedule.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"
#include "src/common/gantt.h"
#include "src/pipeline/schedule_cache.h"
#include "src/pipeline/validate.h"

namespace varuna {
namespace {

// Unit times used for schedule generation and Figure-4 style accounting:
// forward and recompute take 1, backward takes 2 (paper Figure 4 caption).
constexpr double kUnitForward = 1.0;
constexpr double kUnitRecompute = 1.0;
constexpr double kUnitBackward = 2.0;

double UnitDuration(PipeOpType type) {
  switch (type) {
    case PipeOpType::kForward:
      return kUnitForward;
    case PipeOpType::kRecompute:
      return kUnitRecompute;
    case PipeOpType::kBackward:
      return kUnitBackward;
    case PipeOpType::kIdleForward:
      return kUnitForward;
    case PipeOpType::kIdleBackward:
      return kUnitRecompute + kUnitBackward;
  }
  return 0.0;
}

Schedule GenerateGpipe(int depth, int num_microbatches) {
  Schedule schedule;
  schedule.kind = ScheduleKind::kGpipe;
  schedule.depth = depth;
  schedule.num_microbatches = num_microbatches;
  schedule.ops.resize(static_cast<size_t>(depth));
  for (int s = 0; s < depth; ++s) {
    auto& ops = schedule.ops[static_cast<size_t>(s)];
    for (int m = 0; m < num_microbatches; ++m) {
      ops.push_back(PipeOp{PipeOpType::kForward, m});
    }
    // Backwards in reverse micro-batch order (LIFO activation stack); the
    // most recent micro-batch skips recompute — its activations are live.
    for (int m = num_microbatches - 1; m >= 0; --m) {
      if (m != num_microbatches - 1) {
        ops.push_back(PipeOp{PipeOpType::kRecompute, m});
      }
      ops.push_back(PipeOp{PipeOpType::kBackward, m});
    }
  }
  return schedule;
}

// 1F1B and Varuna (§3.2) share one loop: after a warmup of back-to-back
// forwards, each stage runs F(next) while forwards remain, then R(b) and B(b)
// (no R on the last stage, whose activations are still live). The kinds
// differ only in the warmup. 1F1B fills the pipeline: P-1-s forwards. Varuna's
// just-in-time recompute lets stage s run forwards until its first recompute
// starts at unit time 3P-3-2s, which leaves 3(P-1-s) forward slots; the
// loop's first F takes the last of them (DESIGN.md has the derivation).
Schedule GenerateOneFOneBLoop(ScheduleKind kind, int depth, int num_microbatches) {
  const bool varuna = kind == ScheduleKind::kVaruna;
  Schedule schedule;
  schedule.kind = kind;
  schedule.depth = depth;
  schedule.num_microbatches = num_microbatches;
  schedule.opportunistic = varuna;
  schedule.ops.resize(static_cast<size_t>(depth));
  for (int s = 0; s < depth; ++s) {
    auto& ops = schedule.ops[static_cast<size_t>(s)];
    const bool last = s == depth - 1;
    // Exact size: the cached schedule lives for the process, so no spare capacity.
    ops.reserve(static_cast<size_t>(num_microbatches) * (last ? 2 : 3));
    const int warmup = varuna ? std::max(0, std::min(3 * (depth - 1 - s), num_microbatches) - 1)
                              : std::min(depth - 1 - s, num_microbatches);
    int next_f = 0;
    int next_b = 0;
    for (; next_f < warmup; ++next_f) {
      ops.push_back(PipeOp{PipeOpType::kForward, next_f});
    }
    while (next_b < num_microbatches) {
      if (next_f < num_microbatches) {
        ops.push_back(PipeOp{PipeOpType::kForward, next_f});
        ++next_f;
      }
      if (!last) {
        ops.push_back(PipeOp{PipeOpType::kRecompute, next_b});
      }
      ops.push_back(PipeOp{PipeOpType::kBackward, next_b});
      ++next_b;
    }
  }
  return schedule;
}

// DeepSpeed-style even/odd slotting: each stage alternates a forward slot and
// a backward slot (staggered by one slot per stage). Slots whose op is not
// ready are materialised as idle ops — this reproduces the engine's fixed
// slot grid, which idles through warmup backward slots and drain forward
// slots instead of compacting them.
Schedule GenerateDeepSpeed(int depth, int num_microbatches) {
  Schedule schedule;
  schedule.kind = ScheduleKind::kDeepSpeed;
  schedule.depth = depth;
  schedule.num_microbatches = num_microbatches;
  schedule.ops.resize(static_cast<size_t>(depth));

  std::vector<int> next_f(static_cast<size_t>(depth), 0);
  std::vector<int> next_b(static_cast<size_t>(depth), 0);
  // Global slot at which each stage finished F/B of each micro-batch.
  std::vector<std::vector<int>> f_slot(static_cast<size_t>(depth),
                                       std::vector<int>(static_cast<size_t>(num_microbatches), -1));
  std::vector<std::vector<int>> b_slot(static_cast<size_t>(depth),
                                       std::vector<int>(static_cast<size_t>(num_microbatches), -1));

  auto all_done = [&] {
    for (int s = 0; s < depth; ++s) {
      if (next_b[static_cast<size_t>(s)] < num_microbatches) {
        return false;
      }
    }
    return true;
  };

  for (int slot = 0; !all_done(); ++slot) {
    VARUNA_CHECK_LT(slot, 4 * (num_microbatches + depth) + 16) << "DeepSpeed generator stuck";
    for (int s = 0; s < depth; ++s) {
      if (slot < s || next_b[static_cast<size_t>(s)] >= num_microbatches) {
        continue;  // Not started yet / already finished: no idle padding.
      }
      auto& ops = schedule.ops[static_cast<size_t>(s)];
      const bool forward_slot = (slot - s) % 2 == 0;
      const bool last = s == depth - 1;
      if (forward_slot) {
        const int m = next_f[static_cast<size_t>(s)];
        const bool available =
            m < num_microbatches && (s == 0 || f_slot[static_cast<size_t>(s) - 1][static_cast<size_t>(m)] >= 0);
        if (available) {
          ops.push_back(PipeOp{PipeOpType::kForward, m});
          // Record completion *after* the whole stage row is processed; using
          // >= 0 visibility within the same slot would let a stage consume an
          // activation produced in the same slot. Stages are processed in
          // ascending order, so guard with < slot via a deferred write:
          f_slot[static_cast<size_t>(s)][static_cast<size_t>(m)] = slot;
          ++next_f[static_cast<size_t>(s)];
        } else if (next_f[static_cast<size_t>(s)] < num_microbatches ||
                   next_b[static_cast<size_t>(s)] < num_microbatches) {
          ops.push_back(PipeOp{PipeOpType::kIdleForward, -1});
        }
      } else {
        const int m = next_b[static_cast<size_t>(s)];
        const bool ready =
            m < num_microbatches &&
            (last ? f_slot[static_cast<size_t>(s)][static_cast<size_t>(m)] >= 0 &&
                        f_slot[static_cast<size_t>(s)][static_cast<size_t>(m)] < slot
                  : b_slot[static_cast<size_t>(s) + 1][static_cast<size_t>(m)] >= 0 &&
                        b_slot[static_cast<size_t>(s) + 1][static_cast<size_t>(m)] < slot);
        if (ready) {
          if (!last) {
            ops.push_back(PipeOp{PipeOpType::kRecompute, m});
          }
          ops.push_back(PipeOp{PipeOpType::kBackward, m});
          b_slot[static_cast<size_t>(s)][static_cast<size_t>(m)] = slot;
          ++next_b[static_cast<size_t>(s)];
        } else {
          ops.push_back(PipeOp{PipeOpType::kIdleBackward, -1});
        }
      }
    }
  }
  return schedule;
}

// --- Dependency order and unit-time execution ----------------------------

// Compiles Schedule::eval_order by running the schedule once on booleans:
// each stage drains as far as its next op's input is produced, in ascending
// then descending sweeps until nothing progresses. The ascending sweep
// resolves forward chains and the descending one backward chains, so the
// pass count stays O(1) instead of O(P). The only schedule-deadlock check.
std::vector<uint16_t> CompileEvalOrder(const Schedule& schedule) {
  const int depth = schedule.depth;
  VARUNA_CHECK_LE(depth, std::numeric_limits<uint16_t>::max()) << "eval_order stages are uint16_t";
  const size_t microbatches = static_cast<size_t>(schedule.num_microbatches);
  const auto at = [microbatches](int s, int mb) {
    return static_cast<size_t>(s) * microbatches + static_cast<size_t>(mb);
  };
  std::vector<size_t> cursor(static_cast<size_t>(depth), 0);
  std::vector<uint8_t> f_done(static_cast<size_t>(depth) * microbatches, 0);
  std::vector<uint8_t> b_done(static_cast<size_t>(depth) * microbatches, 0);
  std::vector<uint16_t> order;
  order.reserve(ScheduleOpCount(schedule));

  // A recompute follows its own forward on the stage; idles wait on nothing.
  auto ready = [&](int s, const PipeOp& op) {
    if (op.type == PipeOpType::kForward) {
      return s == 0 || f_done[at(s - 1, op.microbatch)] != 0;
    }
    if (op.type == PipeOpType::kBackward) {
      return (s == depth - 1 ? f_done[at(s, op.microbatch)]
                             : b_done[at(s + 1, op.microbatch)]) != 0;
    }
    return true;
  };
  auto drain_stage = [&](int s) {
    const std::vector<PipeOp>& ops = schedule.ops[static_cast<size_t>(s)];
    size_t& i = cursor[static_cast<size_t>(s)];
    const size_t first = i;
    for (; i < ops.size() && ready(s, ops[i]); ++i) {
      if (ops[i].type == PipeOpType::kForward) {
        f_done[at(s, ops[i].microbatch)] = 1;
      } else if (ops[i].type == PipeOpType::kBackward) {
        b_done[at(s, ops[i].microbatch)] = 1;
      }
      order.push_back(static_cast<uint16_t>(s));
    }
    return i != first;
  };
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (int s = 0; s < depth; ++s) {
      progressed |= drain_stage(s);
    }
    for (int s = depth - 1; s >= 0; --s) {
      progressed |= drain_stage(s);
    }
  }
  VARUNA_CHECK_EQ(order.size(), ScheduleOpCount(schedule))
      << ToString(schedule.kind) << " schedule deadlock: ops left unresolved";
  return order;
}

struct OpTrace {
  int stage;
  PipeOp op;
  double start;
  double end;
};

// Executes the schedule with unit times, strict per-stage op order and zero
// communication latency; returns per-op start/end times in eval_order.
std::vector<OpTrace> ExecuteUnits(const Schedule& schedule) {
  VARUNA_CHECK_EQ(schedule.eval_order.size(), ScheduleOpCount(schedule))
      << "schedule has no compiled eval_order";
  const int depth = schedule.depth;
  const size_t microbatches = static_cast<size_t>(schedule.num_microbatches);
  const auto at = [microbatches](int s, int mb) {
    return static_cast<size_t>(s) * microbatches + static_cast<size_t>(mb);
  };
  std::vector<size_t> cursor(static_cast<size_t>(depth), 0);
  std::vector<double> free_at(static_cast<size_t>(depth), 0.0);
  std::vector<double> f_done(static_cast<size_t>(depth) * microbatches);
  std::vector<double> b_done(static_cast<size_t>(depth) * microbatches);
  std::vector<OpTrace> trace;
  trace.reserve(schedule.eval_order.size());
  for (const uint16_t s : schedule.eval_order) {
    const PipeOp& op = schedule.ops[s][cursor[s]++];
    double ready = 0.0;
    if (op.type == PipeOpType::kForward && s > 0) {
      ready = f_done[at(s - 1, op.microbatch)];
    } else if (op.type == PipeOpType::kBackward) {
      ready = s == depth - 1 ? f_done[at(s, op.microbatch)] : b_done[at(s + 1, op.microbatch)];
    }
    const double start = std::max(free_at[s], ready);
    const double end = start + UnitDuration(op.type);
    free_at[s] = end;
    if (op.type == PipeOpType::kForward) {
      f_done[at(s, op.microbatch)] = end;
    } else if (op.type == PipeOpType::kBackward) {
      b_done[at(s, op.microbatch)] = end;
    }
    trace.push_back(OpTrace{s, op, start, end});
  }
  return trace;
}

Schedule GenerateScheduleUncached(ScheduleKind kind, int depth, int num_microbatches) {
  switch (kind) {
    case ScheduleKind::kVaruna:
    case ScheduleKind::kOneFOneB:
      return GenerateOneFOneBLoop(kind, depth, num_microbatches);
    case ScheduleKind::kGpipe:
      return GenerateGpipe(depth, num_microbatches);
    case ScheduleKind::kDeepSpeed:
      return GenerateDeepSpeed(depth, num_microbatches);
  }
  VARUNA_CHECK(false) << "unknown schedule kind";
  return {};
}

}  // namespace

std::string ToString(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kVaruna:
      return "Varuna";
    case ScheduleKind::kGpipe:
      return "GPipe";
    case ScheduleKind::kOneFOneB:
      return "1F1B";
    case ScheduleKind::kDeepSpeed:
      return "DeepSpeed";
  }
  return "?";
}

Schedule ScheduleCache::Generate(ScheduleKind kind, int depth, int num_microbatches) {
  Schedule schedule = GenerateScheduleUncached(kind, depth, num_microbatches);
  // varuna-verify: a generator bug must never reach the executor — validate
  // once per (kind, depth, m) before the schedule enters the memo.
  const ScheduleValidation validation = ValidateSchedule(schedule);
  VARUNA_CHECK(validation.ok()) << "generated " << ToString(kind)
                                << " schedule violates invariants:\n"
                                << validation.ToString();
  schedule.eval_order = CompileEvalOrder(schedule);
  return schedule;
}

size_t ScheduleOpCount(const Schedule& schedule) {
  size_t count = 0;
  for (const std::vector<PipeOp>& stage : schedule.ops) {
    count += stage.size();
  }
  return count;
}

const Schedule& GenerateSchedule(ScheduleKind kind, int depth, int num_microbatches) {
  return ScheduleCache::Process().Get(kind, depth, num_microbatches);
}

std::string RenderScheduleGantt(const Schedule& schedule, int width) {
  const std::vector<OpTrace> trace = ExecuteUnits(schedule);
  GanttChart chart;
  std::vector<GanttRow> rows(static_cast<size_t>(schedule.depth));
  for (int s = 0; s < schedule.depth; ++s) {
    rows[static_cast<size_t>(s)].name = "S" + std::to_string(s + 1);
  }
  for (const auto& item : trace) {
    std::string label;
    switch (item.op.type) {
      case PipeOpType::kForward:
        label = "F" + std::to_string(item.op.microbatch + 1);
        break;
      case PipeOpType::kRecompute:
        label = "R" + std::to_string(item.op.microbatch + 1);
        break;
      case PipeOpType::kBackward:
        label = "B" + std::to_string(item.op.microbatch + 1);
        break;
      case PipeOpType::kIdleForward:
      case PipeOpType::kIdleBackward:
        label = "-";
        break;
    }
    rows[static_cast<size_t>(item.stage)].bars.push_back(GanttBar{item.start, item.end, label});
  }
  for (auto& row : rows) {
    chart.AddRow(std::move(row));
  }
  return chart.Render(width);
}

double ScheduleMakespanUnits(const Schedule& schedule) {
  double makespan = 0.0;
  for (const auto& item : ExecuteUnits(schedule)) {
    makespan = std::max(makespan, item.end);
  }
  return makespan;
}

}  // namespace varuna

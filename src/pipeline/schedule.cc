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
    // Exact size: the cached schedule lives for the process, so no spare capacity.
    ops.reserve(3 * static_cast<size_t>(num_microbatches) - 1);
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

// 1F1B, Varuna (§3.2) and DeepSpeed share one slot loop; schedule.h gives
// each kind's lag. A pair with j >= Nm has no forward and one with j < lag no
// backward. DeepSpeed fills those halves with idle ops, because its engine
// keeps a fixed even/odd slot grid (F(j) in global slot s+2j, B(k) in
// 2P-1-s+2k); the other kinds compact them away. Varuna's just-in-time
// recompute lets stage s run forwards until its first recompute starts at
// unit time 3P-3-2s, which leaves 3(P-1-s) forward slots; the first pair's F
// takes the last of them. DESIGN.md has both derivations.
Schedule GenerateOneFOneBLoop(ScheduleKind kind, int depth, int num_microbatches) {
  const bool varuna = kind == ScheduleKind::kVaruna;
  const bool padded = kind == ScheduleKind::kDeepSpeed;
  Schedule schedule;
  schedule.kind = kind;
  schedule.depth = depth;
  schedule.num_microbatches = num_microbatches;
  schedule.opportunistic = varuna;
  schedule.ops.resize(static_cast<size_t>(depth));
  for (int s = 0; s < depth; ++s) {
    auto& ops = schedule.ops[static_cast<size_t>(s)];
    const bool last = s == depth - 1;
    const int lag = varuna ? std::max(0, std::min(3 * (depth - 1 - s), num_microbatches) - 1)
                           : depth - 1 - s;
    // Exact size: the cached schedule lives for the process, so no spare capacity.
    ops.reserve(static_cast<size_t>(num_microbatches) * (last ? 2 : 3) +
                (padded ? 2 * static_cast<size_t>(lag) : 0));
    for (int j = 0; j < lag + num_microbatches; ++j) {
      if (j < num_microbatches) {
        ops.push_back(PipeOp{PipeOpType::kForward, j});
      } else if (padded) {
        ops.push_back(PipeOp{PipeOpType::kIdleForward, -1});
      }
      if (j >= lag) {
        if (!last) {
          ops.push_back(PipeOp{PipeOpType::kRecompute, j - lag});
        }
        ops.push_back(PipeOp{PipeOpType::kBackward, j - lag});
      } else if (padded) {
        ops.push_back(PipeOp{PipeOpType::kIdleBackward, -1});
      }
    }
  }
  return schedule;
}

// --- Dependency order and unit-time execution ----------------------------

// Compiles Schedule::eval_order by running the schedule once on booleans:
// each stage drains as far as its next op's input is produced, in ascending
// then descending sweeps until nothing progresses. The ascending sweep
// resolves forward chains and the descending one backward chains. The loop
// guarantees only that each pass either issues at least one op or ends it;
// the pass count is not bounded by a constant (interleaved 1F1B dependencies
// can need dozens of sweep pairs). The only schedule-deadlock check: a pass
// that makes no progress with ops left fails the CHECK below.
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
    case ScheduleKind::kDeepSpeed:
      return GenerateOneFOneBLoop(kind, depth, num_microbatches);
    case ScheduleKind::kGpipe:
      return GenerateGpipe(depth, num_microbatches);
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

// Static pipeline schedules. A Schedule is a per-stage ordered list of
// micro-batch operations; generators produce the shapes of the systems the
// paper compares (§3.2, §7.1.2). Varuna, 1F1B and DeepSpeed share one slot
// loop: stage s runs lag + Nm slot pairs, pair j holding F(j) and then
// R(j-lag), B(j-lag) (no R on the last stage). The kinds set only lag and
// whether empty half-pairs are padded:
//   * Varuna  — the §3.2 rules (just-in-time recompute, backward priority,
//               no last-stage recompute) in closed form: lag
//               max(0, min(3(P-1-s), Nm) - 1), so interior stage s leads with
//               min(3(P-1-s), Nm) forwards instead of min(P-s, Nm),
//               Figure 4 top.
//   * 1F1B    — PipeDream/Megatron steady-state one-forward-one-backward with
//               warmup and drain, lag P-1-s (run synchronously, as
//               Megatron-1F1B).
//   * DeepSpeed — even/odd slotted forward/backward alternation, lag P-1-s:
//               the fixed slot grid idles stage s's first P-1-s backward and
//               last P-1-s forward slots, materialised as explicit idle ops.
//   * GPipe   — its own loop: all forwards, then reverse-order
//               recompute+backward, Figure 4 bottom.
#ifndef SRC_PIPELINE_SCHEDULE_H_
#define SRC_PIPELINE_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace varuna {

enum class PipeOpType {
  kForward,
  kRecompute,
  kBackward,
  // DeepSpeed slot idles: occupy the stage for one forward / one
  // recompute+backward duration without doing work.
  kIdleForward,
  kIdleBackward,
};

struct PipeOp {
  PipeOpType type = PipeOpType::kForward;
  int microbatch = -1;  // -1 for idle ops.

  bool operator==(const PipeOp&) const = default;
};

enum class ScheduleKind { kVaruna, kGpipe, kOneFOneB, kDeepSpeed };

std::string ToString(ScheduleKind kind);

struct Schedule {
  ScheduleKind kind = ScheduleKind::kVaruna;
  int depth = 0;
  int num_microbatches = 0;
  // ops[stage] is the stage's op order. Stage depth-1 is the last stage.
  std::vector<std::vector<PipeOp>> ops;

  // True when the executor may deviate from the order to stay work-conserving
  // under jitter (§3.2: Varuna only).
  bool opportunistic = false;

  // The stage of every op, in one dependency order: each op comes after the
  // op before it on its stage and after the op it waits on (a forward waits
  // on the previous stage's forward of its micro-batch; a backward on the
  // next stage's backward, or on its own forward on the last stage), and each
  // stage's ops appear in list order. Compiled once by GenerateSchedule, so
  // the unit-time evaluator and FastSimulator are one linear walk; empty on a
  // hand-built schedule, which both evaluators reject.
  std::vector<uint16_t> eval_order;
};

// Total op count over all stages: the length of a compiled eval_order.
size_t ScheduleOpCount(const Schedule& schedule);

// The static schedule for `kind` with `depth` stages and `num_microbatches`
// micro-batches, validated and with its eval_order compiled; a schedule that
// would deadlock aborts here. Requires 1 <= depth <= 65535 and
// num_microbatches >= 1. Thread-safe; the reference lives as long as the
// process (ScheduleCache::Process()).
const Schedule& GenerateSchedule(ScheduleKind kind, int depth, int num_microbatches);

// Renders a schedule as a unit-time ASCII Gantt (Tf = Tr = 1, Tb = 2), for
// Figure 4-style output and debugging.
std::string RenderScheduleGantt(const Schedule& schedule, int width = 120);

// Makespan of the schedule in unit times (Tf = Tr = 1, Tb = 2), assuming zero
// communication latency and strict per-stage op order — the metric behind
// "Varuna uses 1 less time unit compared to Gpipe" in Figure 4. One walk over
// eval_order, O(ops); CHECK-fails on a schedule without a compiled order.
double ScheduleMakespanUnits(const Schedule& schedule);

}  // namespace varuna

#endif  // SRC_PIPELINE_SCHEDULE_H_

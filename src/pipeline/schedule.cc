#include "src/pipeline/schedule.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

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

// --- Varuna generation (§3.2) --------------------------------------------
//
// The rule-based tool is realised as a unit-time simulation with zero
// communication latency. Rules:
//  1. Recompute at stage k-1 becomes *allowed* the moment stage k starts the
//     backward pass of that micro-batch (backward takes 2 units >= Tf, so a
//     promptly started recompute finishes before the gradient arrives).
//  2. Once a recompute finishes, the stage commits to that micro-batch's
//     backward before doing anything else (a second activation set would
//     double activation memory).
//  3. Backward is preferred over forward whenever ready.
// The last stage never recomputes: each forward is immediately followed by
// its backward, so activations are still live (this is what lets Varuna pack
// the LM head into the final stage).
class VarunaGenerator {
 public:
  VarunaGenerator(int depth, int num_microbatches)
      : depth_(depth), num_microbatches_(num_microbatches), stages_(static_cast<size_t>(depth)) {
    for (auto& stage : stages_) {
      stage.act_arrived.assign(static_cast<size_t>(num_microbatches), false);
      stage.grad_arrived.assign(static_cast<size_t>(num_microbatches), false);
      stage.recompute_allowed.assign(static_cast<size_t>(num_microbatches), false);
      stage.recompute_done.assign(static_cast<size_t>(num_microbatches), false);
      stage.backward_done.assign(static_cast<size_t>(num_microbatches), false);
    }
    // Stage 0 owns the input data.
    for (int m = 0; m < num_microbatches; ++m) {
      stages_[0].act_arrived[static_cast<size_t>(m)] = true;
    }
    remaining_backwards_ = static_cast<int64_t>(depth) * num_microbatches;
  }

  Schedule Run() {
    // Event loop over op completions: stages re-enter the ready worklist when
    // a completion targets them or their running op finishes; between bursts,
    // AdvanceTime jumps to the next interesting instant.
    for (int s = 0; s < depth_; ++s) {
      ready_.push_back(s);
    }
    while (!Done()) {
      bool progress = false;
      while (!ready_.empty()) {
        const int s = ready_.back();
        ready_.pop_back();
        // A stage may start several ops back-to-back at the same instant only
        // after time advances, so one attempt per wakeup suffices.
        progress |= TryStart(s);
      }
      if (!progress || ready_.empty()) {
        AdvanceTime();
      }
    }
    Schedule schedule;
    schedule.kind = ScheduleKind::kVaruna;
    schedule.depth = depth_;
    schedule.num_microbatches = num_microbatches_;
    schedule.opportunistic = true;
    schedule.ops.resize(static_cast<size_t>(depth_));
    for (int s = 0; s < depth_; ++s) {
      schedule.ops[static_cast<size_t>(s)] = stages_[static_cast<size_t>(s)].emitted;
    }
    return schedule;
  }

 private:
  struct StageState {
    std::vector<bool> act_arrived;
    std::vector<bool> grad_arrived;
    std::vector<bool> recompute_allowed;
    std::vector<bool> recompute_done;
    std::vector<bool> backward_done;
    int next_fwd = 0;
    int pending_backward = -1;  // Rule 2: micro-batch whose B must run next.
    bool owes_forward = false;  // Set after each backward: let one forward through.
    double busy_until = 0.0;
    // Micro-batches whose backward (gradient + recompute) is ready to run.
    std::set<int> ready_backward;
    // Micro-batches whose just-in-time recompute window has opened (rule 1).
    std::set<int> allowed_recompute;
    std::vector<PipeOp> emitted;
  };

  bool IsLast(int s) const { return s == depth_ - 1; }

  bool Done() const { return remaining_backwards_ == 0; }

  // Starts one op on stage s if it is free and something is runnable at now_.
  bool TryStart(int s) {
    StageState& stage = stages_[static_cast<size_t>(s)];
    if (stage.busy_until > now_) {
      return false;
    }

    // Rule 2: committed to a backward after its recompute.
    if (stage.pending_backward >= 0) {
      const int m = stage.pending_backward;
      if (stage.grad_arrived[static_cast<size_t>(m)]) {
        StartBackward(s, m);
        return true;
      }
      return false;  // Block until the gradient shows up.
    }

    const bool forward_ready = stage.next_fwd < num_microbatches_ &&
                               stage.act_arrived[static_cast<size_t>(stage.next_fwd)];

    // Steady-state interleave: after a backward completes, one pending forward
    // is let through before the next recompute+backward pair. Without this,
    // transient gradient backlogs make rule 3 drain backwards in bursts,
    // starving downstream stages of forwards and locking the pipeline into a
    // lossy oscillation; with it, each stage settles into the bubble-free
    // F-R-B cycle and forwards stay "interspersed throughout the schedule"
    // (§3.2) — which is also what opportunistic scheduling feeds on.
    if (forward_ready && stage.owes_forward) {
      StartForward(s, stage.next_fwd);
      return true;
    }

    // Rule 3: prefer a ready backward.
    if (!stage.ready_backward.empty()) {
      StartBackward(s, *stage.ready_backward.begin());
      return true;
    }

    // Rule 1: just-in-time recompute (enabled by downstream backward start).
    if (!IsLast(s) && !stage.allowed_recompute.empty()) {
      StartRecompute(s, *stage.allowed_recompute.begin());
      return true;
    }

    // Otherwise run the next forward if its activation arrived.
    if (forward_ready) {
      StartForward(s, stage.next_fwd);
      return true;
    }
    return false;
  }

  void StartForward(int s, int m) {
    StageState& stage = stages_[static_cast<size_t>(s)];
    stage.owes_forward = false;
    stage.emitted.push_back(PipeOp{PipeOpType::kForward, m});
    stage.busy_until = now_ + kUnitForward;
    stage.next_fwd = m + 1;
    const double completion = stage.busy_until;
    if (!IsLast(s)) {
      // Activation handed to the next stage at completion (zero latency).
      completions_.push(Completion{completion, s + 1, m, CompletionKind::kActivation});
    } else {
      // Last stage: loss gradient is local, and activations are still live, so
      // the backward is immediately ready (no recompute).
      completions_.push(Completion{completion, s, m, CompletionKind::kGradient});
      stage.recompute_done[static_cast<size_t>(m)] = true;
    }
  }

  void StartRecompute(int s, int m) {
    StageState& stage = stages_[static_cast<size_t>(s)];
    stage.allowed_recompute.erase(m);
    stage.emitted.push_back(PipeOp{PipeOpType::kRecompute, m});
    stage.busy_until = now_ + kUnitRecompute;
    completions_.push(Completion{stage.busy_until, s, m, CompletionKind::kRecompute});
  }

  void StartBackward(int s, int m) {
    StageState& stage = stages_[static_cast<size_t>(s)];
    stage.ready_backward.erase(m);
    stage.allowed_recompute.erase(m);
    --remaining_backwards_;
    stage.emitted.push_back(PipeOp{PipeOpType::kBackward, m});
    stage.busy_until = now_ + kUnitBackward;
    stage.pending_backward = -1;
    stage.owes_forward = true;
    stage.backward_done[static_cast<size_t>(m)] = true;  // Marked at start; completion event
                                                          // delivers the downstream gradient.
    if (s > 0) {
      // Rule 1, just-in-time: the upstream recompute should *complete* right
      // when this backward's gradient arrives, i.e. start one recompute-time
      // before this backward ends — not earlier, so the slot before it stays
      // free for a forward (this is what keeps the steady state bubble-free).
      completions_.push(Completion{stage.busy_until - kUnitRecompute, s - 1, m,
                                        CompletionKind::kRecomputeAllowed});
      completions_.push(Completion{stage.busy_until, s - 1, m, CompletionKind::kGradient});
    }
  }

  void AdvanceTime() {
    // Jump to the earliest pending completion or op finish, apply every
    // completion due at (or before) that instant, and wake the stages whose
    // state changed.
    double next = std::numeric_limits<double>::infinity();
    for (const auto& stage : stages_) {
      if (stage.busy_until > now_) {
        next = std::min(next, stage.busy_until);
      }
    }
    if (!completions_.empty()) {
      next = std::min(next, completions_.top().when);
    }
    VARUNA_CHECK(next < std::numeric_limits<double>::infinity()) << "Varuna generator stuck";
    now_ = next;
    for (int s = 0; s < depth_; ++s) {
      if (stages_[static_cast<size_t>(s)].busy_until == now_) {
        Wake(s);
      }
    }
    while (!completions_.empty() && completions_.top().when <= now_) {
      const Completion completion = completions_.top();
      completions_.pop();
      ApplyCompletion(completion);
      Wake(completion.stage);
    }
  }

  void Wake(int s) {
    if (std::find(ready_.begin(), ready_.end(), s) == ready_.end()) {
      ready_.push_back(s);
    }
  }

  enum class CompletionKind { kActivation, kGradient, kRecompute, kRecomputeAllowed };
  struct Completion {
    double when;
    int stage;
    int microbatch;
    CompletionKind kind;

    bool operator>(const Completion& other) const { return when > other.when; }
  };

  void ApplyCompletion(const Completion& completion) {
    StageState& stage = stages_[static_cast<size_t>(completion.stage)];
    switch (completion.kind) {
      case CompletionKind::kActivation:
        stage.act_arrived[static_cast<size_t>(completion.microbatch)] = true;
        break;
      case CompletionKind::kGradient: {
        const size_t m = static_cast<size_t>(completion.microbatch);
        stage.grad_arrived[m] = true;
        const bool recompute_ok =
            completion.stage == depth_ - 1 || stage.recompute_done[m];
        if (recompute_ok && !stage.backward_done[m]) {
          stage.ready_backward.insert(completion.microbatch);
        }
        break;
      }
      case CompletionKind::kRecompute:
        stage.recompute_done[static_cast<size_t>(completion.microbatch)] = true;
        stage.pending_backward = completion.microbatch;  // Rule 2.
        if (stage.grad_arrived[static_cast<size_t>(completion.microbatch)] &&
            !stage.backward_done[static_cast<size_t>(completion.microbatch)]) {
          stage.ready_backward.insert(completion.microbatch);
        }
        break;
      case CompletionKind::kRecomputeAllowed:
        stage.recompute_allowed[static_cast<size_t>(completion.microbatch)] = true;
        if (!stage.recompute_done[static_cast<size_t>(completion.microbatch)] &&
            !stage.backward_done[static_cast<size_t>(completion.microbatch)]) {
          stage.allowed_recompute.insert(completion.microbatch);
        }
        break;
    }
  }

  int depth_;
  int num_microbatches_;
  std::vector<StageState> stages_;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> completions_;
  std::vector<int> ready_;  // Stages to re-examine before advancing time.
  int64_t remaining_backwards_ = 0;
  double now_ = 0.0;
};

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

Schedule GenerateOneFOneB(int depth, int num_microbatches) {
  Schedule schedule;
  schedule.kind = ScheduleKind::kOneFOneB;
  schedule.depth = depth;
  schedule.num_microbatches = num_microbatches;
  schedule.ops.resize(static_cast<size_t>(depth));
  for (int s = 0; s < depth; ++s) {
    auto& ops = schedule.ops[static_cast<size_t>(s)];
    const bool last = s == depth - 1;
    const int warmup = std::min(depth - 1 - s, num_microbatches);
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
      return VarunaGenerator(depth, num_microbatches).Run();
    case ScheduleKind::kGpipe:
      return GenerateGpipe(depth, num_microbatches);
    case ScheduleKind::kOneFOneB:
      return GenerateOneFOneB(depth, num_microbatches);
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

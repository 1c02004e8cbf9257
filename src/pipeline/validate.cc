#include "src/pipeline/validate.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace varuna {
namespace {

const char* OpName(PipeOpType type) {
  switch (type) {
    case PipeOpType::kForward:
      return "F";
    case PipeOpType::kRecompute:
      return "R";
    case PipeOpType::kBackward:
      return "B";
    case PipeOpType::kIdleForward:
      return "idleF";
    case PipeOpType::kIdleBackward:
      return "idleB";
  }
  return "?";
}

bool IsIdle(PipeOpType type) {
  return type == PipeOpType::kIdleForward || type == PipeOpType::kIdleBackward;
}

// Accumulates violations with a uniform "stage S: ..." prefix.
class Reporter {
 public:
  explicit Reporter(ScheduleValidation* out) : out_(out) {}

  template <typename... Parts>
  void Violation(int stage, const Parts&... parts) {
    std::ostringstream message;
    message << "stage " << stage << ": ";
    (message << ... << parts);
    out_->violations.push_back(message.str());
  }

  template <typename... Parts>
  void Global(const Parts&... parts) {
    std::ostringstream message;
    (message << ... << parts);
    out_->violations.push_back(message.str());
  }

 private:
  ScheduleValidation* out_;
};

// Per-stage, per-micro-batch op positions, gathered in one pass. Position -1
// means "not seen"; -2 means "seen more than once".
struct StageIndex {
  std::vector<int> forward_at;
  std::vector<int> recompute_at;
  std::vector<int> backward_at;

  explicit StageIndex(int num_microbatches)
      : forward_at(static_cast<size_t>(num_microbatches), -1),
        recompute_at(static_cast<size_t>(num_microbatches), -1),
        backward_at(static_cast<size_t>(num_microbatches), -1) {}

  static void Record(std::vector<int>* slots, int microbatch, int position) {
    int& slot = (*slots)[static_cast<size_t>(microbatch)];
    slot = slot == -1 ? position : -2;
  }
};

// --- Universal invariants --------------------------------------------------

// Checks shape, op legality, multiset completeness and F < R < B ordering for
// one stage; returns the index for the kind-specific passes.
StageIndex CheckStageUniversal(const Schedule& schedule, int s, Reporter* report) {
  const auto& ops = schedule.ops[static_cast<size_t>(s)];
  const int microbatches = schedule.num_microbatches;
  StageIndex index(microbatches);

  int last_forward = -1;
  for (size_t i = 0; i < ops.size(); ++i) {
    const PipeOp& op = ops[i];
    const int position = static_cast<int>(i);
    if (IsIdle(op.type)) {
      if (schedule.kind != ScheduleKind::kDeepSpeed) {
        report->Violation(s, "op ", position, ": idle op in a ", ToString(schedule.kind),
                          " schedule");
      }
      if (op.microbatch != -1) {
        report->Violation(s, "op ", position, ": idle op with micro-batch ", op.microbatch);
      }
      continue;
    }
    if (op.microbatch < 0 || op.microbatch >= microbatches) {
      report->Violation(s, "op ", position, ": ", OpName(op.type), " micro-batch ",
                        op.microbatch, " out of range [0, ", microbatches, ")");
      continue;
    }
    switch (op.type) {
      case PipeOpType::kForward:
        if (op.microbatch <= last_forward) {
          report->Violation(s, "op ", position, ": F", op.microbatch,
                            " out of ascending order (previous forward was F", last_forward,
                            ")");
        }
        last_forward = std::max(last_forward, op.microbatch);
        StageIndex::Record(&index.forward_at, op.microbatch, position);
        break;
      case PipeOpType::kRecompute:
        StageIndex::Record(&index.recompute_at, op.microbatch, position);
        break;
      case PipeOpType::kBackward:
        StageIndex::Record(&index.backward_at, op.microbatch, position);
        break;
      default:
        break;
    }
  }

  for (int m = 0; m < microbatches; ++m) {
    const int f = index.forward_at[static_cast<size_t>(m)];
    const int r = index.recompute_at[static_cast<size_t>(m)];
    const int b = index.backward_at[static_cast<size_t>(m)];
    if (f == -1) {
      report->Violation(s, "micro-batch ", m, ": forward missing");
    } else if (f == -2) {
      report->Violation(s, "micro-batch ", m, ": forward duplicated");
    }
    if (b == -1) {
      report->Violation(s, "micro-batch ", m, ": backward missing");
    } else if (b == -2) {
      report->Violation(s, "micro-batch ", m, ": backward duplicated");
    }
    if (r == -2) {
      report->Violation(s, "micro-batch ", m, ": recompute duplicated");
    }
    // Ordering: F before (optional) R before B.
    if (f >= 0 && b >= 0 && f > b) {
      report->Violation(s, "micro-batch ", m, ": forward (op ", f, ") after backward (op ", b,
                        ")");
    }
    if (r >= 0) {
      if (f >= 0 && f > r) {
        report->Violation(s, "micro-batch ", m, ": recompute (op ", r, ") before forward (op ",
                          f, ")");
      }
      if (b >= 0 && r > b) {
        report->Violation(s, "micro-batch ", m, ": recompute (op ", r, ") after backward (op ",
                          b, ")");
      }
    }
  }
  return index;
}

// --- Kind-specific invariants ----------------------------------------------

// A recompute must sit immediately before its own backward (Varuna rule 2;
// also how GPipe/1F1B/DeepSpeed emit their LIFO / steady-state pairs).
void CheckRecomputeAdjacent(const Schedule& schedule, int s, Reporter* report) {
  const auto& ops = schedule.ops[static_cast<size_t>(s)];
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].type != PipeOpType::kRecompute) {
      continue;
    }
    if (i + 1 >= ops.size() || ops[i + 1].type != PipeOpType::kBackward ||
        ops[i + 1].microbatch != ops[i].microbatch) {
      report->Violation(s, "op ", i, ": R", ops[i].microbatch,
                        " not immediately followed by B", ops[i].microbatch);
    }
  }
}

// The number of `type` ops that open [first, last).
template <typename Iterator>
int LeadingRun(Iterator first, Iterator last, PipeOpType type) {
  return static_cast<int>(
      std::find_if(first, last, [type](const PipeOp& op) { return op.type != type; }) - first);
}

// The warmup is the run of forwards before the stage's first other op.
void CheckWarmup(const Schedule& schedule, int s, int expected, Reporter* report) {
  const auto& ops = schedule.ops[static_cast<size_t>(s)];
  const int warmup = LeadingRun(ops.begin(), ops.end(), PipeOpType::kForward);
  if (warmup != expected) {
    report->Violation(s, "warmup of ", warmup, " leading forwards, expected ", expected);
  }
}

void CheckNoRecompute(const Schedule& schedule, int s, const char* why, Reporter* report) {
  for (size_t i = 0; i < schedule.ops[static_cast<size_t>(s)].size(); ++i) {
    const PipeOp& op = schedule.ops[static_cast<size_t>(s)][i];
    if (op.type == PipeOpType::kRecompute) {
      report->Violation(s, "op ", i, ": R", op.microbatch, " forbidden (", why, ")");
    }
  }
}

void CheckVaruna(const Schedule& schedule, const std::vector<StageIndex>& indices,
                 Reporter* report) {
  const int last = schedule.depth - 1;
  // Last stage: no recompute (activations are live — §3.2), and strict
  // F(m),B(m) alternation: the loss gradient is local, so each forward's
  // backward runs immediately.
  CheckNoRecompute(schedule, last, "Varuna last stage never recomputes", report);
  const auto& last_ops = schedule.ops[static_cast<size_t>(last)];
  const size_t expected = 2 * static_cast<size_t>(schedule.num_microbatches);
  if (last_ops.size() != expected) {
    report->Violation(last, "expected ", expected, " ops (F,B alternation), found ",
                      last_ops.size());
  } else {
    for (int m = 0; m < schedule.num_microbatches; ++m) {
      const PipeOp want_f{PipeOpType::kForward, m};
      const PipeOp want_b{PipeOpType::kBackward, m};
      if (!(last_ops[static_cast<size_t>(2 * m)] == want_f) ||
          !(last_ops[static_cast<size_t>(2 * m) + 1] == want_b)) {
        report->Violation(last, "ops ", 2 * m, "-", 2 * m + 1, ": expected F", m, ",B", m,
                          " alternation");
        break;
      }
    }
  }
  // Interior stages: every micro-batch is recomputed, R immediately before B,
  // and stage s runs forwards until its just-in-time first recompute at unit
  // time 3P-3-2s, which leaves 3(P-1-s) forward slots.
  for (int s = 0; s < last; ++s) {
    CheckRecomputeAdjacent(schedule, s, report);
    CheckWarmup(schedule, s, std::min(3 * (last - s), schedule.num_microbatches), report);
    const std::vector<int>& recompute_at = indices[static_cast<size_t>(s)].recompute_at;
    for (int m = 0; m < schedule.num_microbatches; ++m) {
      if (recompute_at[static_cast<size_t>(m)] == -1) {
        report->Violation(s, "micro-batch ", m, ": interior stage must recompute before its backward");
      }
    }
  }
}

void CheckGpipe(const Schedule& schedule, const std::vector<StageIndex>& indices,
                Reporter* report) {
  const int newest = schedule.num_microbatches - 1;
  for (int s = 0; s < schedule.depth; ++s) {
    const auto& ops = schedule.ops[static_cast<size_t>(s)];
    // Phase split: all forwards, then reverse-order recompute+backward.
    bool backward_phase = false;
    int previous_backward = schedule.num_microbatches;
    for (size_t i = 0; i < ops.size(); ++i) {
      const PipeOp& op = ops[i];
      if (op.type == PipeOpType::kForward) {
        if (backward_phase) {
          report->Violation(s, "op ", i, ": F", op.microbatch,
                            " after backward work began (GPipe runs all forwards first)");
        }
      } else {
        backward_phase = true;
      }
      if (op.type == PipeOpType::kBackward) {
        if (op.microbatch >= previous_backward) {
          report->Violation(s, "op ", i, ": B", op.microbatch,
                            " out of LIFO order (previous backward was B", previous_backward,
                            ")");
        }
        previous_backward = op.microbatch;
      }
      if (op.type == PipeOpType::kRecompute && op.microbatch == newest) {
        report->Violation(s, "op ", i, ": R", op.microbatch,
                          " — the most recent micro-batch's activations are still live");
      }
    }
    // All older micro-batches left the activation stack and must recompute.
    CheckRecomputeAdjacent(schedule, s, report);
    const std::vector<int>& recompute_at = indices[static_cast<size_t>(s)].recompute_at;
    for (int m = 0; m < newest; ++m) {
      if (recompute_at[static_cast<size_t>(m)] == -1) {
        report->Violation(s, "micro-batch ", m, ": GPipe must recompute evicted activations");
      }
    }
  }
}

void CheckOneFOneB(const Schedule& schedule, Reporter* report) {
  const int last = schedule.depth - 1;
  CheckNoRecompute(schedule, last, "1F1B last stage never recomputes", report);
  for (int s = 0; s < schedule.depth; ++s) {
    const auto& ops = schedule.ops[static_cast<size_t>(s)];
    // Warmup: min(depth - s, m) leading forwards (P-1-s pipeline-fill + the
    // first steady-state forward).
    CheckWarmup(schedule, s, std::min(schedule.depth - s, schedule.num_microbatches), report);
    // Backwards drain in ascending (FIFO) order.
    int previous_backward = -1;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].type != PipeOpType::kBackward) {
        continue;
      }
      if (ops[i].microbatch <= previous_backward) {
        report->Violation(s, "op ", i, ": B", ops[i].microbatch,
                          " out of ascending order (previous backward was B", previous_backward,
                          ")");
      }
      previous_backward = ops[i].microbatch;
    }
    if (s != last) {
      CheckRecomputeAdjacent(schedule, s, report);
    }
  }
}

// DeepSpeed's grid idles only at one end of a stage's forward or backward
// slots: exactly the `expected` slots that open [first, last) are `idle`.
template <typename Iterator>
void CheckIdlePadding(int s, Iterator first, Iterator last, PipeOpType idle, int expected,
                      const char* end, Reporter* report) {
  const int run = LeadingRun(first, last, idle);
  const auto idles =
      std::count_if(first, last, [idle](const PipeOp& op) { return op.type == idle; });
  if (run != expected || idles != expected) {
    report->Violation(s, idles, " ", OpName(idle), " slots, ", run, " of them ", end,
                      "; expected exactly ", expected, ", all ", end);
  }
}

void CheckDeepSpeed(const Schedule& schedule, Reporter* report) {
  const int last = schedule.depth - 1;
  CheckNoRecompute(schedule, last, "DeepSpeed last stage never recomputes", report);
  for (int s = 0; s < schedule.depth; ++s) {
    const auto& ops = schedule.ops[static_cast<size_t>(s)];
    // Slot parity: the op list decomposes into strictly alternating
    // forward-slots and backward-slots, starting with a forward slot (the
    // engine's fixed grid staggers stage s by s slots but always begins on a
    // forward slot). Each slot is recorded by its first op.
    std::vector<PipeOp> forward_slots;
    std::vector<PipeOp> backward_slots;
    bool expect_forward_slot = true;
    size_t i = 0;
    while (i < ops.size()) {
      const PipeOp& op = ops[i];
      if (expect_forward_slot) {
        if (op.type != PipeOpType::kForward && op.type != PipeOpType::kIdleForward) {
          report->Violation(s, "op ", i, ": ", OpName(op.type), " in a forward slot");
          break;
        }
        forward_slots.push_back(op);
        ++i;
      } else {
        backward_slots.push_back(op);
        if (op.type == PipeOpType::kIdleBackward) {
          ++i;
        } else if (op.type == PipeOpType::kRecompute) {
          // CheckRecomputeAdjacent reports malformed pairs; consume both.
          if (i + 1 < ops.size() && ops[i + 1].type == PipeOpType::kBackward) {
            i += 2;
          } else {
            break;
          }
        } else if (op.type == PipeOpType::kBackward) {
          if (s != last) {
            report->Violation(s, "op ", i, ": B", op.microbatch,
                              " without its recompute in a backward slot");
          }
          ++i;
        } else {
          report->Violation(s, "op ", i, ": ", OpName(op.type), " in a backward slot");
          break;
        }
      }
      expect_forward_slot = !expect_forward_slot;
    }
    CheckRecomputeAdjacent(schedule, s, report);
    if (i < ops.size()) {
      continue;  // The grid is already broken; its padding means nothing.
    }
    // Stage s's forward F(j) fills global slot s+2j and its backward B(k)
    // slot 2P-1-s+2k, so the grid idles exactly its first P-1-s backward
    // slots (filling) and its last P-1-s forward slots (draining).
    const int lag = last - s;
    CheckIdlePadding(s, backward_slots.begin(), backward_slots.end(), PipeOpType::kIdleBackward,
                     lag, "leading", report);
    CheckIdlePadding(s, forward_slots.rbegin(), forward_slots.rend(), PipeOpType::kIdleForward,
                     lag, "trailing", report);
  }
}

}  // namespace

std::string ScheduleValidation::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) {
      out << "\n";
    }
    out << violations[i];
  }
  return out.str();
}

ScheduleValidation ValidateSchedule(const Schedule& schedule) {
  ScheduleValidation result;
  Reporter report(&result);

  if (schedule.depth < 1) {
    report.Global("depth ", schedule.depth, " < 1");
    return result;
  }
  if (schedule.num_microbatches < 1) {
    report.Global("num_microbatches ", schedule.num_microbatches, " < 1");
    return result;
  }
  if (schedule.ops.size() != static_cast<size_t>(schedule.depth)) {
    report.Global("ops has ", schedule.ops.size(), " stages, depth is ", schedule.depth);
    return result;
  }

  std::vector<StageIndex> indices;
  indices.reserve(static_cast<size_t>(schedule.depth));
  for (int s = 0; s < schedule.depth; ++s) {
    indices.push_back(CheckStageUniversal(schedule, s, &report));
  }
  switch (schedule.kind) {
    case ScheduleKind::kVaruna:
      CheckVaruna(schedule, indices, &report);
      break;
    case ScheduleKind::kGpipe:
      CheckGpipe(schedule, indices, &report);
      break;
    case ScheduleKind::kOneFOneB:
      CheckOneFOneB(schedule, &report);
      break;
    case ScheduleKind::kDeepSpeed:
      CheckDeepSpeed(schedule, &report);
      break;
  }
  return result;
}

}  // namespace varuna

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

// What one stage's op list must look like, from (kind, depth, stage, Nm).
struct StageContract {
  int warmup;          // Forwards that open the list, before any other op.
  int must_recompute;  // R(m) is required for m < this and forbidden for m >= it.
  bool lifo;           // GPipe: all forwards first, backwards drain descending.
  bool alternates;     // Exactly F0 B0 F1 B1 ...: the last stage outside GPipe.
  int idle_slots;      // DeepSpeed's idle slots at each end of the grid; -1 bans idle ops.
};

// Varuna's just-in-time recompute lets interior stage s run forwards until its
// first recompute at unit time 3P-3-2s, which leaves 3(P-1-s) forward slots;
// 1F1B fills the pipeline with P-1-s forwards plus its first steady-state one;
// DeepSpeed's grid puts a backward slot after every forward slot. Outside
// GPipe the last stage's activations are live (§3.2), so it never recomputes
// and runs each forward's backward at once; interior stages recompute every
// micro-batch. GPipe evicts every micro-batch but the newest.
StageContract ContractFor(ScheduleKind kind, int depth, int s, int num_microbatches) {
  const bool last = s == depth - 1;
  const int lag = depth - 1 - s;
  const int recompute = last ? 0 : num_microbatches;
  switch (kind) {
    case ScheduleKind::kVaruna:
      return {std::max(1, std::min(3 * lag, num_microbatches)), recompute, false, last, -1};
    case ScheduleKind::kOneFOneB:
      return {std::min(lag + 1, num_microbatches), recompute, false, last, -1};
    case ScheduleKind::kDeepSpeed:
      return {1, recompute, false, last, lag};
    case ScheduleKind::kGpipe:
      return {num_microbatches, num_microbatches - 1, true, false, -1};
  }
  return {};
}

// Where a micro-batch's ops sit in the stage's list: -1 not seen, -2 seen
// more than once.
struct MicrobatchOps {
  int forward_at = -1;
  int recompute_at = -1;
  int backward_at = -1;
};

// Records the op at `position` in `*at`. Returns true on its first sighting;
// the first repeat is reported and poisons the slot.
bool FirstSighting(int* at, int position, int s, int m, const char* what, Reporter* report) {
  if (*at == -1) {
    *at = position;
    return true;
  }
  if (*at >= 0) {
    *at = -2;
    report->Violation(s, "micro-batch ", m, ": ", what, " duplicated");
  }
  return false;
}

// DeepSpeed's even/odd grid: the op list decomposes into strictly alternating
// forward slots (F or idle-F) and backward slots (R,B pair, bare B on the last
// stage, or idle-B), starting with a forward slot. Stage s's forward F(j)
// fills global slot s+2j and its backward B(k) slot 2P-1-s+2k, so exactly its
// first P-1-s backward slots (filling) and last P-1-s forward slots
// (draining) idle.
class SlotGrid {
 public:
  // Consumes the op at `position`; returns false once the grid is broken.
  bool Step(const PipeOp& op, int position, int s, Reporter* report) {
    if (in_pair_) {  // The B that closes an R,B backward slot.
      in_pair_ = false;
      forward_slot_ = true;
      return op.type == PipeOpType::kBackward;  // Otherwise the R is unpaired.
    }
    if (forward_slot_) {
      forward_slot_ = false;
      if (op.type == PipeOpType::kForward) {
        trailing_idle_forwards_ = 0;
      } else if (op.type == PipeOpType::kIdleForward) {
        ++idle_forwards_;
        ++trailing_idle_forwards_;
      } else {
        report->Violation(s, "op ", position, ": ", OpName(op.type), " in a forward slot");
        return false;
      }
      return true;
    }
    if (op.type == PipeOpType::kIdleBackward) {
      ++idle_backwards_;
      if (!backward_work_) {
        ++leading_idle_backwards_;
      }
      forward_slot_ = true;
      return true;
    }
    backward_work_ = true;
    if (op.type == PipeOpType::kRecompute) {
      in_pair_ = true;
    } else if (op.type == PipeOpType::kBackward) {
      // Bare only on the last stage; the required-recompute rule reports a
      // bare B on an interior stage.
      forward_slot_ = true;
    } else {
      report->Violation(s, "op ", position, ": ", OpName(op.type), " in a backward slot");
      return false;
    }
    return true;
  }

  // Checks the idle padding of a grid that consumed the whole list.
  void Finish(int s, int expected, Reporter* report) const {
    if (in_pair_) {
      return;  // An unpaired R ends the list: the grid is broken.
    }
    ReportPadding(s, idle_backwards_, leading_idle_backwards_, PipeOpType::kIdleBackward,
                  expected, "leading", report);
    ReportPadding(s, idle_forwards_, trailing_idle_forwards_, PipeOpType::kIdleForward,
                  expected, "trailing", report);
  }

 private:
  static void ReportPadding(int s, int idles, int run, PipeOpType idle, int expected,
                            const char* end, Reporter* report) {
    if (run != expected || idles != expected) {
      report->Violation(s, idles, " ", OpName(idle), " slots, ", run, " of them ", end,
                        "; expected exactly ", expected, ", all ", end);
    }
  }

  bool forward_slot_ = true;
  bool in_pair_ = false;
  bool backward_work_ = false;  // A non-idle backward slot has been seen.
  int idle_forwards_ = 0;
  int trailing_idle_forwards_ = 0;
  int idle_backwards_ = 0;
  int leading_idle_backwards_ = 0;
};

// Checks stage s in one walk of its op list. `seen` holds Nm default entries
// on entry and on return.
void CheckStage(const Schedule& schedule, int s, std::vector<MicrobatchOps>* seen,
                Reporter* report) {
  const std::vector<PipeOp>& ops = schedule.ops[static_cast<size_t>(s)];
  const int microbatches = schedule.num_microbatches;
  const StageContract contract = ContractFor(schedule.kind, schedule.depth, s, microbatches);

  bool alternating = contract.alternates;
  const size_t alternation_size = 2 * static_cast<size_t>(microbatches);
  if (alternating && ops.size() != alternation_size) {
    report->Violation(s, "expected ", alternation_size, " ops (F,B alternation), found ",
                      ops.size());
    alternating = false;
  }
  SlotGrid grid;
  bool grid_intact = contract.idle_slots >= 0;
  int warmup = 0;
  int last_forward = -1;
  int previous_backward = contract.lifo ? microbatches : -1;

  // Read through a local pointer: the report calls could otherwise make the
  // compiler reload `seen` on every op.
  MicrobatchOps* const table = seen->data();
  for (size_t i = 0; i < ops.size(); ++i) {
    const PipeOp& op = ops[i];
    const int position = static_cast<int>(i);
    // Structural checks: they see every op, legal or not.
    if (op.type == PipeOpType::kForward && warmup == position) {
      ++warmup;
    } else if (op.type == PipeOpType::kForward && contract.lifo) {
      report->Violation(s, "op ", position, ": F", op.microbatch,
                        " after backward work began (GPipe runs all forwards first)");
    }
    if (alternating) {
      const int m = position / 2;
      const PipeOp want{position % 2 == 0 ? PipeOpType::kForward : PipeOpType::kBackward, m};
      if (!(op == want)) {
        report->Violation(s, "ops ", 2 * m, "-", 2 * m + 1, ": expected F", m, ",B", m,
                          " alternation");
        alternating = false;
      }
    }
    if (grid_intact) {
      grid_intact = grid.Step(op, position, s, report);
    }

    // Op legality, then the micro-batch's own ops.
    if (IsIdle(op.type)) {
      if (contract.idle_slots < 0) {
        report->Violation(s, "op ", position, ": idle op in a ", ToString(schedule.kind),
                          " schedule");
      }
      if (op.microbatch != -1) {
        report->Violation(s, "op ", position, ": idle op with micro-batch ", op.microbatch);
      }
      continue;
    }
    const int m = op.microbatch;
    if (m < 0 || m >= microbatches) {
      report->Violation(s, "op ", position, ": ", OpName(op.type), " micro-batch ", m,
                        " out of range [0, ", microbatches, ")");
      continue;
    }
    MicrobatchOps& at = table[m];
    if (op.type == PipeOpType::kForward) {
      if (m <= last_forward) {
        report->Violation(s, "op ", position, ": F", m,
                          " out of ascending order (previous forward was F", last_forward, ")");
      }
      last_forward = std::max(last_forward, m);
      if (FirstSighting(&at.forward_at, position, s, m, "forward", report)) {
        if (at.backward_at >= 0) {
          report->Violation(s, "micro-batch ", m, ": forward (op ", position,
                            ") after backward (op ", at.backward_at, ")");
        }
        if (at.recompute_at >= 0) {
          report->Violation(s, "micro-batch ", m, ": recompute (op ", at.recompute_at,
                            ") before forward (op ", position, ")");
        }
      }
    } else if (op.type == PipeOpType::kRecompute) {
      if (m >= contract.must_recompute) {
        if (contract.lifo) {
          report->Violation(s, "op ", position, ": R", m,
                            " — the most recent micro-batch's activations are still live");
        } else {
          report->Violation(s, "op ", position, ": R", m, " forbidden (",
                            ToString(schedule.kind), " last stage never recomputes)");
        }
      }
      if (i + 1 >= ops.size() || !(ops[i + 1] == PipeOp{PipeOpType::kBackward, m})) {
        report->Violation(s, "op ", position, ": R", m, " not immediately followed by B", m);
      }
      if (FirstSighting(&at.recompute_at, position, s, m, "recompute", report) &&
          at.backward_at >= 0) {
        report->Violation(s, "micro-batch ", m, ": recompute (op ", position,
                          ") after backward (op ", at.backward_at, ")");
      }
    } else {  // The backward: idle ops were handled above.
      if (contract.lifo ? m >= previous_backward : m <= previous_backward) {
        report->Violation(s, "op ", position, ": B", m, " out of ",
                          contract.lifo ? "LIFO" : "ascending",
                          " order (previous backward was B", previous_backward, ")");
      }
      previous_backward = m;
      FirstSighting(&at.backward_at, position, s, m, "backward", report);
    }
  }

  if (warmup != contract.warmup) {
    report->Violation(s, "warmup of ", warmup, " leading forwards, expected ", contract.warmup);
  }
  if (grid_intact) {
    grid.Finish(s, contract.idle_slots, report);
  }
  for (int m = 0; m < microbatches; ++m) {
    MicrobatchOps& at = (*seen)[static_cast<size_t>(m)];
    if (at.forward_at == -1) {
      report->Violation(s, "micro-batch ", m, ": forward missing");
    }
    if (at.backward_at == -1) {
      report->Violation(s, "micro-batch ", m, ": backward missing");
    }
    if (at.recompute_at == -1 && m < contract.must_recompute) {
      report->Violation(s, "micro-batch ", m,
                        contract.lifo ? ": GPipe must recompute evicted activations"
                                      : ": interior stage must recompute before its backward");
    }
    at = MicrobatchOps{};
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

  std::vector<MicrobatchOps> seen(static_cast<size_t>(schedule.num_microbatches));
  for (int s = 0; s < schedule.depth; ++s) {
    CheckStage(schedule, s, &seen, &report);
  }
  return result;
}

}  // namespace varuna

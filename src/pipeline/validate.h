// Runtime invariant validation for pipeline schedules (varuna-verify).
//
// Every generated Schedule is checked against the structural contract of its
// ScheduleKind before it is handed to the executor: the paper's Figure-4
// semantics (forward before recompute before backward, last-stage
// no-recompute, GPipe's LIFO drain, DeepSpeed's even/odd slot grid) are only
// as trustworthy as the generators, and the generators are compact loops whose
// correctness rests on arguments a small edit can break silently (the Varuna
// warmup count, DeepSpeed's padding). ValidateSchedule() returns a report listing
// every violation instead of aborting, so tests can assert that corrupted
// schedules are *rejected*; GenerateSchedule() CHECK-fails on a non-ok report.
#ifndef SRC_PIPELINE_VALIDATE_H_
#define SRC_PIPELINE_VALIDATE_H_

#include <string>
#include <vector>

#include "src/pipeline/schedule.h"

namespace varuna {

struct ScheduleValidation {
  // Human-readable descriptions of every invariant violation found. Empty
  // means the schedule satisfies its kind's full contract.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }

  // Violations joined with newlines (empty string when ok).
  std::string ToString() const;
};

// Checks the shape, then walks each stage's op list once against a stage
// contract derived from (kind, depth, stage, num_microbatches):
//   * shape: ops has exactly `depth` stages, depth/num_microbatches >= 1;
//   * completeness: every micro-batch runs exactly one forward and one
//     backward per stage, and at most one recompute; real ops carry a
//     micro-batch index in [0, num_microbatches);
//   * order: each micro-batch's forward precedes its recompute precedes its
//     backward; forwards run in ascending micro-batch order;
//   * warmup: the stage opens with exactly this many forwards — Varuna
//     max(1, min(3(depth - 1 - s), m)) (just-in-time recompute, rule 1),
//     1F1B min(depth - s, m), DeepSpeed 1, GPipe m;
//   * backward order: descending (LIFO) for GPipe, ascending for the others;
//   * recomputes: GPipe recomputes every micro-batch but the newest (its
//     activations are still live) on every stage; the other kinds recompute
//     every micro-batch on interior stages and none on the last stage; every
//     R(m) is immediately followed by B(m) (rule 2);
//   * the last stage of every kind but GPipe strictly alternates F(m),B(m);
//     GPipe runs all forwards before any backward work;
//   * idle ops appear only in DeepSpeed schedules, in its even/odd slot grid:
//     each stage's list decomposes into strictly alternating forward slots
//     (F or idle-F) and backward slots (R+B pair, bare B on the last stage,
//     or idle-B), starting with a forward slot, and exactly stage s's first
//     depth-1-s backward slots and last depth-1-s forward slots are idle.
ScheduleValidation ValidateSchedule(const Schedule& schedule);

}  // namespace varuna

#endif  // SRC_PIPELINE_VALIDATE_H_

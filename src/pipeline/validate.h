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

// Checks the universal synchronous-pipeline invariants plus the kind-specific
// contract:
//   * shape: ops has exactly `depth` stages, depth/num_microbatches >= 1;
//   * per-stage op multiset completeness: every micro-batch runs exactly one
//     forward and one backward per stage, and at most one recompute;
//   * order: each micro-batch's forward precedes its recompute precedes its
//     backward; forwards are emitted in ascending micro-batch order;
//   * idle ops only appear in DeepSpeed schedules, and real ops carry a
//     micro-batch index in [0, num_microbatches);
//   * kVaruna — last stage never recomputes and strictly alternates
//     F(m),B(m); interior stages recompute every micro-batch with R(m)
//     immediately followed by B(m) (rule 2), and interior stage s leads with
//     min(3(depth - 1 - s), m) forwards (just-in-time recompute, rule 1);
//   * kGpipe — all forwards precede all backward work, backwards drain in
//     LIFO (descending) order, and only the most recent micro-batch skips
//     recompute (its activations are still live) on every stage;
//   * kOneFOneB — min(depth - stage, m) leading warmup forwards, backwards in
//     ascending order, last stage never recomputes, interior stages pair
//     R(m) immediately before B(m);
//   * kDeepSpeed — even/odd slot parity: each stage's op list decomposes into
//     strictly alternating forward-slots (F or idle-F) and backward-slots
//     (R+B pair, bare B on the last stage, or idle-B), starting with a
//     forward slot; exactly stage s's first depth-1-s backward slots and
//     last depth-1-s forward slots are idle; last stage never recomputes.
ScheduleValidation ValidateSchedule(const Schedule& schedule);

}  // namespace varuna

#endif  // SRC_PIPELINE_VALIDATE_H_

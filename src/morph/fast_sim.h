// Parametrized simulator (§4.4). Given the calibrated primitives and a
// candidate configuration (P, D, m, Nm + the cut-point-to-stage mapping), it
// simulates one full mini-batch — Nm micro-batches through the Varuna
// schedule followed by the allreduce — and outputs the estimated
// time-per-mini-batch. It deliberately shares no code with the DES testbed:
// it consumes only calibrated scalars, which is what makes Table 7 a genuine
// accuracy test. Runtime is O(P * Nm), fast enough to sweep every P on each
// morphing event (§7.2).
//
// The simulator owns flat, row-major scratch buffers (indexed [s * Nm + mb])
// that are resized per call, so sweeping hundreds of candidates allocates O(1)
// instead of ~6 nested vector<vector<double>> per candidate. Each replay is one
// walk over the schedule's compiled eval_order, and every value it reads was
// written earlier in the same call. Estimates are a pure function of (schedule,
// config, calibration): the stall RNG is seeded per candidate, never carried
// across calls, so a ConfigSearch reuses one simulator for every candidate and
// a candidate's estimate never depends on which candidates came before it.
#ifndef SRC_MORPH_FAST_SIM_H_
#define SRC_MORPH_FAST_SIM_H_

#include <cstdint>
#include <vector>

#include "src/model/cutpoints.h"
#include "src/morph/calibration.h"
#include "src/pipeline/schedule.h"

namespace varuna {

struct FastSimConfig {
  const ModelSections* sections = nullptr;
  const Partition* partition = nullptr;
  int data_parallel = 1;
  int microbatch_size = 1;
  // Node packing of the placement: with g GPUs per node and pipeline-major
  // placement, the hop from stage s to s+1 stays on-node unless (s+1) % g == 0.
  int gpus_per_node = 1;
  // Cross-partition shared-state sync (tied embeddings etc.) per mini-batch.
  double shared_sync_bytes = 0.0;
};

struct FastSimResult {
  double minibatch_s = 0.0;
  double pipeline_s = 0.0;
  double allreduce_s = 0.0;
  double sync_s = 0.0;
};

class FastSimulator {
 public:
  explicit FastSimulator(const Calibration* calibration) : calibration_(calibration) {}

  // Non-const: reuses the member scratch buffers. The result depends only on
  // the arguments and the calibration, never on prior calls.
  FastSimResult EstimateMinibatch(const Schedule& schedule, const FastSimConfig& config);

  // Analytic lower bound on EstimateMinibatch(...).minibatch_s for the same
  // config at `num_microbatches`, for any schedule kind, computed from the
  // calibrated scalars alone (no schedule needed). It is the longest of the
  // per-stage critical paths plus the shared-state sync, where stage s's path
  // is:
  //   * fill: sum over j < s of (f_j + send_j). Every stage's first op is
  //     F(0), which waits on the previous stage's F(0) and the send;
  //   * serial work: Nm * (f_s + b_s), plus (Nm - 1) * f_s of recompute on a
  //     non-last stage. Nm - 1 is the fewest recomputes any kind emits (GPipe
  //     skips the last micro-batch's);
  //   * drain: max over j <= s of (allreduce_j + sum over j <= i < s of
  //     (send_i + b_i)). The stage's last op is a backward, which every
  //     earlier stage must also run, one send later each, before its
  //     allreduce.
  // Stalls, idle slots and schedule bubbles only ever add time, so the bound
  // never exceeds the simulated value; ConfigSearch uses it to order its
  // candidates and to skip simulating those that cannot beat the incumbent
  // best. O(P) single pass, allocation-free, pure.
  double LowerBoundMinibatch(const FastSimConfig& config, int num_microbatches) const;

 private:
  // Stage s's calibrated scalars: forward, backward and allreduce summed over
  // its sections in ascending order, and the send to stage s + 1 (0 on the
  // last stage). EstimateMinibatch and LowerBoundMinibatch both read them
  // here, so the bound's scalars are bit-equal to the simulator's.
  struct StageScalars {
    double fwd = 0.0;
    double bwd = 0.0;
    double allreduce = 0.0;
    double send = 0.0;
    bool cross_node = false;  // The hop to stage s + 1 leaves the node.
  };
  StageScalars Stage(const FastSimConfig& config, int s) const;

  const Calibration* calibration_;

  // Per-stage primitives, length `depth`.
  std::vector<double> fwd_;
  std::vector<double> bwd_;
  std::vector<double> send_;  // To next stage.
  std::vector<double> allreduce_;
  std::vector<uint8_t> hop_cross_node_;
  // Per-(stage, micro-batch) state, flat row-major, length depth * Nm. The
  // walk writes each forward/backward end time before any op reads it.
  std::vector<double> fwd_stall_;
  std::vector<double> bwd_stall_;
  std::vector<double> f_done_;
  std::vector<double> b_done_;
  // Walk state, length `depth`: the next op index on each stage (the walk
  // cursor) and the time each stage frees up.
  std::vector<size_t> cursor_;
  std::vector<double> free_at_;
};

}  // namespace varuna

#endif  // SRC_MORPH_FAST_SIM_H_

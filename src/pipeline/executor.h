// Discrete-event pipeline executor — the "testbed" on which configurations
// are actually run. It executes any static Schedule over a Placement on a
// Cluster, sampling per-op compute noise, per-message network jitter and tail
// stalls, fail-stutter slow factors, and the end-of-mini-batch data-parallel
// allreduce plus cross-partition shared-state sync. Varuna schedules may
// deviate opportunistically (run a ready forward when the scheduled op's
// inputs are late, §3.2).
//
// Performance: one executor instance owns an ExecutorScratch (sim engine,
// worker table, flag arena, flow-count table) that is reset — not reallocated
// — between mini-batches, so a long training session reaches a steady state
// where Run() performs no heap allocations (asserted by the executor tests
// via scratch_growths(), which also watches the engine's pool and heap).
#ifndef SRC_PIPELINE_EXECUTOR_H_
#define SRC_PIPELINE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/common/rng.h"
#include "src/pipeline/schedule.h"
#include "src/pipeline/stage_timing.h"

namespace varuna {

struct ExecutorOptions {
  // Log-normal sigma of per-op compute-time noise (kernel timing variance).
  double compute_noise_sigma = 0.01;
  // Sample network jitter/stalls (true) or use means only (false).
  bool sample_network = true;
  // Varuna overlaps activation/gradient sends with compute via dedicated
  // communication threads (§6). Primitive implementations (the public GPipe,
  // DeepSpeed's slotted engine) block the stage while sending.
  bool overlap_communication = true;
  // Bytes allreduced over each pipeline's process group at mini-batch end for
  // cross-partition shared state (tied embeddings, loss-scale flag; §5.2).
  double shared_state_sync_bytes = 0.0;
  // 200B-style CPU-offloaded optimizer: bytes moved GPU<->CPU per stage at
  // mini-batch end (§7.1.1), at PCIe bandwidth.
  bool cpu_offload_optimizer = false;
  double cpu_offload_bytes_per_stage = 0.0;
  // Record a Gantt trace of replica 0 (Figure 7).
  bool record_trace = false;
};

struct ExecTraceOp {
  int stage = 0;
  PipeOp op;
  double start = 0.0;
  double end = 0.0;
};

struct MinibatchResult {
  double total_time_s = 0.0;      // Pipeline + allreduce + shared sync (+ offload).
  double pipeline_time_s = 0.0;   // Until the last worker finished its ops.
  double allreduce_time_s = 0.0;  // Slowest stage ring allreduce.
  double sync_time_s = 0.0;       // Shared-state sync + optimizer offload.
  double examples = 0.0;          // m * Nm * D.
  // Mean busy fraction across workers during the pipeline phase.
  double mean_busy_fraction = 0.0;
  std::vector<ExecTraceOp> trace;        // Replica 0, if record_trace.
  double trace_allreduce_start = 0.0;    // For Gantt rendering.
  double trace_allreduce_end = 0.0;

  double ExamplesPerSecond() const { return examples / total_time_s; }
  double ExamplesPerSecondPerGpu(int gpus) const { return ExamplesPerSecond() / gpus; }
};

// Reusable per-executor working set (sim engine, worker table, flag arena);
// defined in executor.cc — callers only see the counters surfaced below.
struct ExecutorScratch;

class PipelineExecutor {
 public:
  PipelineExecutor(const Cluster* cluster, Rng* rng);
  ~PipelineExecutor();
  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  // Runs one mini-batch: `schedule` on `placement` with per-stage `timings`
  // (micro-batch size is baked into the timings; `microbatch_size` is used
  // only for the examples count).
  MinibatchResult Run(const Schedule& schedule, const Placement& placement,
                      const std::vector<StageTiming>& timings, int microbatch_size,
                      const ExecutorOptions& options = {});

  // --- Perf counters, accumulated across Run() calls ------------------------
  // Simulation events fired on this executor's engine.
  uint64_t events_processed() const { return events_processed_; }
  // Runs whose working set outgrew the retained scratch capacity (each one
  // implies allocations); stays flat once the workload shape stabilises.
  uint64_t scratch_growths() const;

 private:
  const Cluster* cluster_;
  Rng* rng_;
  std::unique_ptr<ExecutorScratch> scratch_;
  uint64_t events_processed_ = 0;
};

}  // namespace varuna

#endif  // SRC_PIPELINE_EXECUTOR_H_

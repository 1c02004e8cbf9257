// Per-stage GPU memory accounting (§2 "Memory optimization", §7.1.2).
// Mixed-precision training with Adam needs up to 16 bytes per parameter
// (fp16 param+grad, fp32 master+momentum+variance). Activation cost depends
// on the system: gradient checkpointing keeps only per-micro-batch input
// activations plus one recomputed working set; PipeDream additionally stashes
// P weight versions and full output activations, which is what makes it OOM
// on massive models (Table 6).
#ifndef SRC_PIPELINE_MEMORY_H_
#define SRC_PIPELINE_MEMORY_H_

#include "src/model/cutpoints.h"
#include "src/model/transformer.h"
#include "src/pipeline/schedule.h"

namespace varuna {

struct MemoryBudget {
  double gpu_memory_bytes = 0.0;

  bool operator==(const MemoryBudget&) const = default;
};

struct MemoryEstimate {
  double parameter_state_bytes = 0.0;  // 16 B per parameter (or 4 B with CPU offload).
  double weight_versions_bytes = 0.0;  // Extra stashed weight copies (PipeDream).
  double input_stash_bytes = 0.0;      // Stashed boundary activations.
  double working_set_bytes = 0.0;      // Live activations of in-flight micro-batches.
  double total() const {
    return parameter_state_bytes + weight_versions_bytes + input_stash_bytes +
           working_set_bytes;
  }
};

struct MemoryModelInputs {
  // Parameters resident on the stage.
  double stage_params = 0.0;
  // Boundary (input) activation bytes per example for the stage.
  double input_activation_bytes_per_example = 0.0;
  // Full forward activation footprint of the stage per example (what a
  // recompute materialises). Derived from the model spec + layers per stage.
  double full_activation_bytes_per_example = 0.0;
  int microbatch_size = 1;    // m
  int num_microbatches = 1;   // Nm
  int pipeline_depth = 1;     // P
  int stage_index = 0;        // 0-based
  // Varuna's 200B trick (§7.1.1): keep fp32 optimizer state in CPU memory.
  bool cpu_offload_optimizer = false;
};

// The memory-model inputs of `stage` of `partition`, a balanced grouping of
// `spec`'s `sections`: stage 0 stashes the token-id batch, later stages a
// boundary hidden state, and a stage's full activations scale with its
// section count.
MemoryModelInputs StageMemoryInputs(const TransformerSpec& spec, const ModelSections& sections,
                                    const Partition& partition, int stage, int microbatch_size,
                                    int num_microbatches, bool cpu_offload_optimizer);

// Memory footprint of one stage under the given pipeline system.
MemoryEstimate EstimateStageMemory(ScheduleKind kind, const MemoryModelInputs& inputs);

// PipeDream (asynchronous 1F1B): keeps one weight version per in-flight
// micro-batch — up to P at stage 0 — and stores full activations instead of
// recomputing. This is why "PipeDream, because of its storing P copies of
// parameters ... cannot fit massive models in GPU memory" (Table 6).
MemoryEstimate EstimatePipeDreamStageMemory(const MemoryModelInputs& inputs);

// True if the estimate fits the usable fraction (memory.cc) of the budget.
bool Fits(const MemoryEstimate& estimate, const MemoryBudget& budget);

// Full per-example activation footprint of a transformer block (live tensors
// during a forward pass): QKV, scores, context, MLP intermediate, residuals.
double BlockFullActivationBytes(const TransformerSpec& spec);

// Smallest pipeline depth at which every stage of the partitioned model fits
// the budget, or an error if even depth == sections.num_sections() does not
// fit. Uses the balanced partitioner internally.
Result<int> MinFittingDepth(ScheduleKind kind, const TransformerSpec& spec,
                            const ModelSections& sections, int microbatch_size,
                            int num_microbatches, const MemoryBudget& budget,
                            bool cpu_offload_optimizer = false);

}  // namespace varuna

#endif  // SRC_PIPELINE_MEMORY_H_

#include "src/pipeline/memory.h"

#include <algorithm>
#include <sstream>

namespace varuna {
namespace {

// Fraction usable by the job (CUDA context, fragmentation, comm buffers).
constexpr double kUsableFraction = 0.92;

}  // namespace

MemoryModelInputs StageMemoryInputs(const TransformerSpec& spec, const ModelSections& sections,
                                    const Partition& partition, int stage, int microbatch_size,
                                    int num_microbatches, bool cpu_offload_optimizer) {
  const int begin = partition.stage_begin[static_cast<size_t>(stage)];
  const int end = partition.stage_begin[static_cast<size_t>(stage) + 1];
  const double blocks_per_section = static_cast<double>(spec.num_layers) / sections.num_sections();
  MemoryModelInputs inputs;
  inputs.stage_params = partition.stage_params[static_cast<size_t>(stage)];
  inputs.input_activation_bytes_per_example =
      stage == 0 ? 4.0 * spec.seq_len : spec.BoundaryActivationBytes();
  inputs.full_activation_bytes_per_example =
      BlockFullActivationBytes(spec) * blocks_per_section * (end - begin);
  inputs.microbatch_size = microbatch_size;
  inputs.num_microbatches = num_microbatches;
  inputs.pipeline_depth = partition.depth();
  inputs.stage_index = stage;
  inputs.cpu_offload_optimizer = cpu_offload_optimizer;
  return inputs;
}

MemoryEstimate EstimateStageMemory(ScheduleKind kind, const MemoryModelInputs& inputs) {
  MemoryEstimate estimate;
  // fp16 param + fp16 grad + fp32 master + fp32 Adam m/v = 16 B/param; with
  // CPU offload only the fp16 param + grad stay resident.
  estimate.parameter_state_bytes =
      inputs.stage_params * (inputs.cpu_offload_optimizer ? 4.0 : 16.0);

  const double m = inputs.microbatch_size;
  const double input_act = inputs.input_activation_bytes_per_example * m;
  const double full_act = inputs.full_activation_bytes_per_example * m;

  switch (kind) {
    case ScheduleKind::kVaruna:
    case ScheduleKind::kGpipe:
    case ScheduleKind::kDeepSpeed: {
      // Gradient checkpointing: stash the input activation of every in-flight
      // micro-batch + one recomputed full working set (rule 2 of the Varuna
      // schedule guarantees at most one recomputed set). Backpressure keeps at
      // most ~2P micro-batches in flight on the GPU; stashes beyond that
      // window are boundary-sized tensors parked in host RAM (the 200B run
      // keeps bulky state CPU-side, §7.1.1).
      const int window = std::min(inputs.num_microbatches, 2 * inputs.pipeline_depth);
      estimate.input_stash_bytes = input_act * window;
      estimate.working_set_bytes = full_act;
      break;
    }
    case ScheduleKind::kOneFOneB:
      // Megatron-1F1B with checkpointing: at most P - stage in-flight
      // micro-batches hold stashed inputs; one recomputed working set.
      estimate.input_stash_bytes =
          input_act * std::min(inputs.num_microbatches,
                               inputs.pipeline_depth - inputs.stage_index);
      estimate.working_set_bytes = full_act;
      break;
  }
  return estimate;
}

MemoryEstimate EstimatePipeDreamStageMemory(const MemoryModelInputs& inputs) {
  MemoryEstimate estimate;
  estimate.parameter_state_bytes = inputs.stage_params * 16.0;
  const int in_flight =
      std::min(inputs.num_microbatches, inputs.pipeline_depth - inputs.stage_index);
  // One extra fp16 weight copy per in-flight micro-batch beyond the current.
  estimate.weight_versions_bytes = inputs.stage_params * 2.0 * std::max(0, in_flight - 1);
  const double m = inputs.microbatch_size;
  // Full activations stashed (no recompute) for each in-flight micro-batch.
  estimate.working_set_bytes = inputs.full_activation_bytes_per_example * m * in_flight;
  estimate.input_stash_bytes = inputs.input_activation_bytes_per_example * m * in_flight;
  return estimate;
}

bool Fits(const MemoryEstimate& estimate, const MemoryBudget& budget) {
  return estimate.total() <= budget.gpu_memory_bytes * kUsableFraction;
}

double BlockFullActivationBytes(const TransformerSpec& spec) {
  const double s = spec.seq_len;
  const double h = spec.hidden;
  // fp16 live tensors per block: input (1), QKV (3), attention scores
  // (s*s*heads, stored once), context (1), attn-out (1), LN outputs (2),
  // MLP intermediate (4), MLP out (1), residual adds (2) => ~15 s*h tensors
  // plus the score matrix.
  return 2.0 * (15.0 * s * h + s * s * spec.heads / 8.0);
}

Result<int> MinFittingDepth(ScheduleKind kind, const TransformerSpec& spec,
                            const ModelSections& sections, int microbatch_size,
                            int num_microbatches, const MemoryBudget& budget,
                            bool cpu_offload_optimizer) {
  for (int depth = 1; depth <= sections.num_sections(); ++depth) {
    Result<Partition> partition = PartitionModel(sections, depth);
    if (!partition.ok()) {
      continue;
    }
    bool fits = true;
    for (int stage = 0; stage < depth && fits; ++stage) {
      fits = Fits(EstimateStageMemory(kind, StageMemoryInputs(spec, sections, partition.value(),
                                                              stage, microbatch_size,
                                                              num_microbatches,
                                                              cpu_offload_optimizer)),
                  budget);
    }
    if (fits) {
      return depth;
    }
  }
  std::ostringstream message;
  message << spec.name << " does not fit at any pipeline depth up to "
          << sections.num_sections() << " with m=" << microbatch_size;
  return Result<int>::Error(message.str());
}

}  // namespace varuna

// Megatron-style intra-layer (tensor) model parallelism cost model
// (Observation 1, §3.1; baselines in §7.1.1 and Table 4). Each layer's
// matmuls are split across a tensor-parallel group of T GPUs; every layer
// requires two synchronous allreduces in each of the forward, backward and
// recompute passes — communication that cannot overlap with compute. Groups
// of T are combined with data parallelism over the remaining GPUs.
#ifndef SRC_PARALLEL_INTRA_LAYER_H_
#define SRC_PARALLEL_INTRA_LAYER_H_

#include "src/cluster/cluster.h"
#include "src/common/result.h"
#include "src/model/transformer.h"

namespace varuna {

struct IntraLayerConfig {
  int tensor_parallel = 1;  // T: GPUs a single layer is split across.
  int data_parallel = 1;    // D: replicas of the T-way sharded model.
  int microbatch_size = 1;  // m: examples per accumulation step per replica.
  double total_batch = 0.0; // Mini-batch size (examples) per optimizer step.
};

struct IntraLayerResult {
  bool fits_memory = false;
  double minibatch_s = 0.0;
  double compute_s = 0.0;        // GPU compute on the critical path.
  double tensor_comm_s = 0.0;    // Synchronous intra-layer allreduces.
  double examples_per_s = 0.0;
  double examples_per_s_per_gpu = 0.0;
  int gpus_used = 0;
};

// Evaluates the Megatron configuration on the given cluster. The first
// T * D active GPUs are used, in node order (tensor-parallel groups packed
// onto nodes first — the placement Megatron itself requires for efficiency).
Result<IntraLayerResult> EvaluateIntraLayer(const TransformerSpec& spec,
                                            const Cluster& cluster,
                                            const IntraLayerConfig& config);

}  // namespace varuna

#endif  // SRC_PARALLEL_INTRA_LAYER_H_

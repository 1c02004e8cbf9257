#include "src/parallel/intra_layer.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"
#include "src/common/units.h"

namespace varuna {

Result<IntraLayerResult> EvaluateIntraLayer(const TransformerSpec& spec,
                                            const Cluster& cluster,
                                            const IntraLayerConfig& config) {
  VARUNA_CHECK_GE(config.tensor_parallel, 1);
  VARUNA_CHECK_GE(config.data_parallel, 1);
  VARUNA_CHECK_GE(config.microbatch_size, 1);
  VARUNA_CHECK_GT(config.total_batch, 0.0);

  const int t = config.tensor_parallel;
  const int d = config.data_parallel;
  const std::vector<GpuId> pool = cluster.ActiveGpus();
  if (static_cast<int>(pool.size()) < t * d) {
    std::ostringstream message;
    message << "intra-layer " << t << "x" << d << " needs " << t * d << " GPUs, have "
            << pool.size();
    return Result<IntraLayerResult>::Error(message.str());
  }

  IntraLayerResult result;
  result.gpus_used = t * d;
  const GpuSpec& gpu = cluster.Gpu(pool[0]);

  // --- Memory: parameters shard T ways; activations shard likewise.
  const double params_per_gpu = spec.TotalParams() / t;
  const double state_bytes = 16.0 * params_per_gpu;
  const double act_bytes =
      2.0 * 20.0 * spec.seq_len * static_cast<double>(spec.hidden) / t * config.microbatch_size *
      spec.num_layers / 8.0;  // Checkpointed: ~1/8 of full activations live.
  result.fits_memory = state_bytes + act_bytes <= 0.92 * gpu.memory_bytes;

  // --- Compute per accumulation step: each GPU runs 1/T of every layer's
  // matmuls at per-layer kernel granularity (sharded kernels are smaller, so
  // they run further from peak efficiency).
  const double m = config.microbatch_size;
  const double layer_work = spec.LayerFwdFlops() * m / t;
  const double fwd = spec.num_layers * gpu.ComputeTime(layer_work) +
                     gpu.ComputeTime(spec.HeadFwdFlops() * m / t);
  const double step_compute = 4.0 * fwd;  // Forward + recompute + 2x backward.

  // --- Synchronous tensor-parallel allreduces: 2 per layer per pass, 3
  // passes with recompute (§3.1: "two allreduces each in the forward,
  // backward, and recompute passes").
  const std::vector<GpuId> group(pool.begin(), pool.begin() + t);
  const double allreduce_bytes = spec.IntraLayerAllReduceBytes() * m;
  const double per_allreduce = cluster.network().MeanAllReduceTime(group, allreduce_bytes, 1);
  const double step_comm = 6.0 * spec.num_layers * per_allreduce;

  // --- Gradient accumulation steps to reach the mini-batch.
  const double steps = std::max(1.0, config.total_batch / (m * d));

  // --- Data-parallel allreduce of the sharded gradients (fp16), one ring per
  // shard; all T rings cross the NICs concurrently.
  double dp_allreduce = 0.0;
  if (d > 1) {
    std::vector<GpuId> ring;
    for (int r = 0; r < d; ++r) {
      ring.push_back(pool[static_cast<size_t>(r) * t]);
    }
    const int gpus_per_node = cluster.topology().Node(cluster.topology().NodeOf(pool[0])).num_gpus;
    dp_allreduce = cluster.network().MeanAllReduceTime(ring, 2.0 * params_per_gpu,
                                                       std::max(1, gpus_per_node));
  }

  result.compute_s = steps * step_compute;
  result.tensor_comm_s = steps * step_comm;
  result.minibatch_s = result.compute_s + result.tensor_comm_s + dp_allreduce;
  result.examples_per_s = config.total_batch / result.minibatch_s;
  result.examples_per_s_per_gpu = result.examples_per_s / result.gpus_used;
  return result;
}

}  // namespace varuna

#include "src/varuna/experiment.h"

#include <cmath>
#include <sstream>

#include "src/cluster/placement.h"
#include "src/common/check.h"
#include "src/model/cutpoints.h"
#include "src/model/op_graph.h"
#include "src/model/tracer.h"
#include "src/pipeline/memory.h"
#include "src/pipeline/stage_timing.h"

namespace varuna {
namespace {

ScheduleKind ScheduleFor(SystemUnderTest system) {
  switch (system) {
    case SystemUnderTest::kVaruna:
      return ScheduleKind::kVaruna;
    case SystemUnderTest::kGpipe:
      return ScheduleKind::kGpipe;
    case SystemUnderTest::kOneFOneB:
    case SystemUnderTest::kPipeDreamAsync:
      return ScheduleKind::kOneFOneB;
    case SystemUnderTest::kDeepSpeed:
      return ScheduleKind::kDeepSpeed;
  }
  return ScheduleKind::kVaruna;
}

}  // namespace

std::string ToString(SystemUnderTest system) {
  switch (system) {
    case SystemUnderTest::kVaruna:
      return "Varuna";
    case SystemUnderTest::kGpipe:
      return "GPipe";
    case SystemUnderTest::kOneFOneB:
      return "Megatron-1F1B";
    case SystemUnderTest::kDeepSpeed:
      return "DeepSpeed";
    case SystemUnderTest::kPipeDreamAsync:
      return "PipeDream";
  }
  return "?";
}

PipelineEvalResult EvaluatePipeline(const PipelineEvalRequest& request) {
  PipelineEvalResult result;
  const TransformerSpec& spec = request.spec;
  const int depth = request.pipeline_depth;
  const int replicas = request.data_parallel;
  const int m = request.microbatch_size;
  VARUNA_CHECK_GE(depth, 1);
  VARUNA_CHECK_GE(replicas, 1);

  const OpGraph graph = BuildTransformerOpGraph(spec);
  const Result<ModelSections> sections = IdentifyCutPoints(graph, spec.num_layers);
  if (!sections.ok()) {
    result.infeasible_reason = sections.error();
    return result;
  }
  const Result<Partition> partition = PartitionModel(sections.value(), depth);
  if (!partition.ok()) {
    result.infeasible_reason = partition.error();
    return result;
  }

  result.num_microbatches =
      static_cast<int>(std::ceil(request.total_batch / (static_cast<double>(m) * replicas)));
  result.gpus_used = depth * replicas;

  // --- Memory feasibility per stage.
  MemoryBudget budget;
  budget.gpu_memory_bytes = request.vm.gpu.memory_bytes;
  for (int stage = 0; stage < depth; ++stage) {
    const MemoryModelInputs inputs =
        StageMemoryInputs(spec, sections.value(), partition.value(), stage, m,
                          result.num_microbatches, request.cpu_offload_optimizer);
    const MemoryEstimate estimate =
        request.system == SystemUnderTest::kPipeDreamAsync
            ? EstimatePipeDreamStageMemory(inputs)
            : EstimateStageMemory(ScheduleFor(request.system), inputs);
    if (!Fits(estimate, budget)) {
      std::ostringstream reason;
      reason << "OOM: stage " << stage << " needs "
             << estimate.total() / kGiB << " GiB (" << request.vm.gpu.memory_bytes / kGiB
             << " GiB available)";
      result.infeasible_reason = reason.str();
      return result;
    }
  }

  // --- Build the cluster and placement.
  FabricSpec fabric = request.fabric;
  fabric.per_flow_bandwidth_bps /= request.network_slowdown;
  Cluster cluster(fabric);
  VmType vm = request.vm;
  vm.node.nic_bandwidth_bps /= request.network_slowdown;
  const int vms_needed = (depth * replicas + vm.node.num_gpus - 1) / vm.node.num_gpus;
  cluster.AddVms(vm, vms_needed);
  const Result<Placement> placement = PlaceJob(cluster, depth, replicas);
  VARUNA_CHECK(placement.ok()) << placement.error();

  // --- Execute.
  const Schedule& schedule =
      GenerateSchedule(ScheduleFor(request.system), depth, result.num_microbatches);
  const std::vector<StageTiming> timings =
      ComputeStageTimings(sections.value(), partition.value(), vm.gpu, m);
  const TraceReport trace = TraceCrossPartitionState(graph, sections.value(), TraceOptions());

  ExecutorOptions options;
  // The public GPipe and DeepSpeed's slotted engine send synchronously;
  // Varuna and Megatron overlap communication with compute.
  options.overlap_communication = request.system != SystemUnderTest::kGpipe &&
                                  request.system != SystemUnderTest::kDeepSpeed;
  options.shared_state_sync_bytes = depth > 1 ? trace.TotalSyncBytes() : 0.0;
  options.cpu_offload_optimizer = request.cpu_offload_optimizer;
  if (request.cpu_offload_optimizer) {
    options.cpu_offload_bytes_per_stage = 12.0 * spec.TotalParams() / depth;
  }
  options.record_trace = request.record_trace;

  Rng rng(request.seed);
  PipelineExecutor executor(&cluster, &rng);
  double total_time = 0.0;
  for (int run = 0; run < request.runs; ++run) {
    result.last_run = executor.Run(schedule, placement.value(), timings, m, options);
    total_time += result.last_run.total_time_s;
  }

  result.feasible = true;
  result.minibatch_s = total_time / request.runs;
  const double batch = static_cast<double>(m) * result.num_microbatches * replicas;
  result.examples_per_s = batch / result.minibatch_s;
  result.examples_per_s_per_gpu = result.examples_per_s / result.gpus_used;
  // Useful work: forward + backward only (the paper removes the 33% recompute).
  result.tflops_per_gpu =
      result.examples_per_s_per_gpu * 3.0 * spec.TotalFwdFlops() / 1e12;
  return result;
}

}  // namespace varuna

// Quickstart: the 60-second tour of the Varuna library.
//
//  1. Describe a model (GPT-2 2.5B) and derive its profiled op graph.
//  2. Auto-partition it: identify cut-points, trace cross-partition state.
//  3. Build a commodity spot cluster and place a 9x4 job.
//  4. Generate the Varuna micro-batch schedule and run one mini-batch on the
//     discrete-event testbed.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart
#include <cstdio>

#include "src/varuna/varuna.h"

int main() {
  using namespace varuna;

  // 1. The model, as the profiler would see it.
  const TransformerSpec spec = Gpt2_2_5B();
  std::printf("model: %s — %.2fB parameters, %d layers, hidden %d\n", spec.name.c_str(),
              spec.TotalParams() / 1e9, spec.num_layers, spec.hidden);

  const OpGraph graph = BuildTransformerOpGraph(spec);
  const ModelSections sections = IdentifyCutPoints(graph, spec.num_layers).value();
  std::printf("auto-partitioner: %d cut-point sections (boundary activation %.2f MiB/example)\n",
              sections.num_sections(), spec.BoundaryActivationBytes() / kMiB);

  // 2. Cross-partition dependencies the tracer would flag (§5.2).
  const TraceReport trace = TraceCrossPartitionState(graph, sections, TraceOptions());
  for (const SharedTensor& tensor : trace.shared) {
    std::printf("tracer: shared tensor '%s' (%.1f MB synced per mini-batch)\n",
                tensor.name.c_str(), tensor.sync_bytes / 1e6);
  }

  // 3. A commodity cluster of 1-GPU spot VMs, and a 9x4 placement.
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 36);
  const int depth = 9;
  const int replicas = 4;
  const Placement placement = PlaceJob(cluster, depth, replicas).value();
  const Partition partition = PartitionModel(sections, depth).value();
  std::printf("placement: %dx%d on %d active GPUs\n", depth, replicas,
              cluster.NumActiveGpus());

  // 4. One mini-batch (batch 2400, micro-batch 4) through the Varuna schedule.
  const int m = 4;
  const int num_microbatches = 2400 / (m * replicas);
  const Schedule& schedule = GenerateSchedule(ScheduleKind::kVaruna, depth, num_microbatches);
  const auto timings = ComputeStageTimings(sections, partition, Nc6V3().gpu, m);

  Rng rng(1);
  PipelineExecutor executor(&cluster, &rng);
  ExecutorOptions options;
  options.shared_state_sync_bytes = trace.TotalSyncBytes();
  const MinibatchResult result =
      executor.Run(schedule, placement, timings, m, options);

  std::printf("\nmini-batch of %.0f examples: %.1f s "
              "(pipeline %.1f s, allreduce %.2f s, shared sync %.2f s)\n",
              result.examples, result.total_time_s, result.pipeline_time_s,
              result.allreduce_time_s, result.sync_time_s);
  std::printf("throughput: %.1f ex/s total, %.2f ex/s/GPU, GPU busy %.0f%%\n",
              result.ExamplesPerSecond(), result.ExamplesPerSecondPerGpu(depth * replicas),
              100.0 * result.mean_busy_fraction);
  return 0;
}

#include <gtest/gtest.h>

#include <cstring>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/model/cutpoints.h"
#include "src/model/op_graph.h"
#include "src/model/transformer.h"
#include "src/pipeline/executor.h"
#include "src/pipeline/schedule.h"
#include "src/pipeline/stage_timing.h"

namespace varuna {
namespace {

struct TestJob {
  Cluster cluster;
  Placement placement;
  std::vector<StageTiming> timings;
  Schedule schedule;
  int microbatch = 4;

  TestJob(const TransformerSpec& spec, ScheduleKind kind, int depth, int replicas,
          int microbatches, int m, const VmType& vm, const FabricSpec& fabric)
      : cluster(fabric), microbatch(m) {
    const int vms_needed = (depth * replicas + vm.node.num_gpus - 1) / vm.node.num_gpus;
    cluster.AddVms(vm, vms_needed);
    auto placed = PlaceJob(cluster, depth, replicas);
    placement = placed.value();
    const OpGraph graph = BuildTransformerOpGraph(spec);
    const auto sections = IdentifyCutPoints(graph, spec.num_layers);
    const auto partition = PartitionModel(sections.value(), depth);
    timings = ComputeStageTimings(sections.value(), partition.value(), vm.gpu, m);
    schedule = GenerateSchedule(kind, depth, microbatches);
  }
};

TEST(StageTimingTest, BackwardRoughlyTwiceForward) {
  const TransformerSpec spec = Gpt2_2_5B();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  const auto partition = PartitionModel(sections.value(), 9);
  const auto timings = ComputeStageTimings(sections.value(), partition.value(), GpuSpec(), 4);
  ASSERT_EQ(timings.size(), 9u);
  for (const auto& timing : timings) {
    EXPECT_GT(timing.forward_s, 0.0);
    EXPECT_NEAR(timing.backward_s / timing.forward_s, 2.0, 0.15);
    EXPECT_DOUBLE_EQ(timing.recompute_s, timing.forward_s);
  }
  // Interior stages send one boundary activation per example.
  EXPECT_NEAR(timings[0].send_activation_bytes, 4 * spec.BoundaryActivationBytes(), 1.0);
  EXPECT_DOUBLE_EQ(timings.back().send_activation_bytes, 0.0);
}

TEST(StageTimingTest, LargerMicrobatchMoreEfficient) {
  const TransformerSpec spec = BertLarge();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  const auto partition = PartitionModel(sections.value(), 4);
  const auto t4 = ComputeStageTimings(sections.value(), partition.value(), GpuSpec(), 4);
  const auto t8 = ComputeStageTimings(sections.value(), partition.value(), GpuSpec(), 8);
  // Per-example forward time shrinks with m.
  EXPECT_LT(t8[1].forward_s / 8.0, t4[1].forward_s / 4.0);
}

TEST(ExecutorTest, DeterministicWithoutNoise) {
  TestJob job(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 2, 8, 4, Nc6V3(), CommodityFabric());
  ExecutorOptions options;
  options.compute_noise_sigma = 0.0;
  options.sample_network = false;
  Rng rng1(1);
  Rng rng2(2);
  PipelineExecutor executor1(&job.cluster, &rng1);
  PipelineExecutor executor2(&job.cluster, &rng2);
  const auto r1 = executor1.Run(job.schedule, job.placement, job.timings, 4, options);
  const auto r2 = executor2.Run(job.schedule, job.placement, job.timings, 4, options);
  EXPECT_DOUBLE_EQ(r1.total_time_s, r2.total_time_s);
  EXPECT_GT(r1.total_time_s, 0.0);
}

TEST(ExecutorTest, ExampleAccounting) {
  TestJob job(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 3, 8, 4, Nc6V3(), CommodityFabric());
  Rng rng(1);
  PipelineExecutor executor(&job.cluster, &rng);
  const auto result = executor.Run(job.schedule, job.placement, job.timings, 4);
  EXPECT_DOUBLE_EQ(result.examples, 4.0 * 8 * 3);
  EXPECT_GT(result.ExamplesPerSecond(), 0.0);
}

TEST(ExecutorTest, MoreMicrobatchesImproveEfficiency) {
  // Bubble fraction ~ P/Nm: throughput per example improves with Nm.
  Rng rng(1);
  TestJob small(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 1, 9, 4, Nc6V3(), CommodityFabric());
  TestJob large(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 1, 54, 4, Nc6V3(), CommodityFabric());
  ExecutorOptions options;
  options.compute_noise_sigma = 0.0;
  options.sample_network = false;
  PipelineExecutor executor_small(&small.cluster, &rng);
  PipelineExecutor executor_large(&large.cluster, &rng);
  const auto few = executor_small.Run(small.schedule, small.placement, small.timings, 4, options);
  const auto many = executor_large.Run(large.schedule, large.placement, large.timings, 4, options);
  EXPECT_GT(many.ExamplesPerSecond(), 1.2 * few.ExamplesPerSecond());
}

TEST(ExecutorTest, VarunaBeatsGpipeUnderJitter) {
  // Observation 3 / Table 5: the Varuna schedule tolerates jitter better.
  double varuna_total = 0.0;
  double gpipe_total = 0.0;
  Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    TestJob varuna(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 1, 18, 4, Nc6V3(), CommodityFabric());
    TestJob gpipe(Gpt2_2_5B(), ScheduleKind::kGpipe, 9, 1, 18, 4, Nc6V3(), CommodityFabric());
    PipelineExecutor executor_v(&varuna.cluster, &rng);
    varuna_total += executor_v.Run(varuna.schedule, varuna.placement, varuna.timings, 4)
                        .total_time_s;
    PipelineExecutor executor_g(&gpipe.cluster, &rng);
    gpipe_total += executor_g.Run(gpipe.schedule, gpipe.placement, gpipe.timings, 4)
                       .total_time_s;
  }
  EXPECT_LT(varuna_total, gpipe_total);
}

TEST(ExecutorTest, SlowGpuStretchesMinibatch) {
  // With Nm >> P the steady state is gated by the slowest stage (§4.6:
  // "even a single slow GPU would slow down the entire job").
  TestJob job(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 1, 54, 4, Nc6V3(), CommodityFabric());
  ExecutorOptions options;
  options.compute_noise_sigma = 0.0;
  options.sample_network = false;
  Rng rng(1);
  PipelineExecutor executor(&job.cluster, &rng);
  const double baseline = executor.Run(job.schedule, job.placement, job.timings, 4, options)
                              .total_time_s;
  job.cluster.SetSlowFactor(job.cluster.VmOfGpu(job.placement.At(0, 4)), 1.3);
  const double degraded = executor.Run(job.schedule, job.placement, job.timings, 4, options)
                              .total_time_s;
  EXPECT_GT(degraded, 1.12 * baseline);
}

TEST(ExecutorTest, AllReduceGrowsWithReplicas) {
  ExecutorOptions options;
  options.compute_noise_sigma = 0.0;
  options.sample_network = false;
  Rng rng(1);
  TestJob d2(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 2, 8, 4, Nc6V3(), CommodityFabric());
  TestJob d6(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 6, 8, 4, Nc6V3(), CommodityFabric());
  PipelineExecutor e2(&d2.cluster, &rng);
  PipelineExecutor e6(&d6.cluster, &rng);
  const auto r2 = e2.Run(d2.schedule, d2.placement, d2.timings, 4, options);
  const auto r6 = e6.Run(d6.schedule, d6.placement, d6.timings, 4, options);
  EXPECT_GT(r6.allreduce_time_s, r2.allreduce_time_s);
}

TEST(ExecutorTest, SharedStateSyncAddsTailTime) {
  TestJob job(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 1, 8, 4, Nc6V3(), CommodityFabric());
  ExecutorOptions options;
  options.compute_noise_sigma = 0.0;
  options.sample_network = false;
  Rng rng(1);
  PipelineExecutor executor(&job.cluster, &rng);
  const double plain = executor.Run(job.schedule, job.placement, job.timings, 4, options)
                           .total_time_s;
  options.shared_state_sync_bytes = 4.0 * Gpt2_2_5B().EmbeddingParams();
  const auto synced = executor.Run(job.schedule, job.placement, job.timings, 4, options);
  EXPECT_GT(synced.total_time_s, plain);
  EXPECT_GT(synced.sync_time_s, 0.0);
}

TEST(ExecutorTest, TraceCoversAllStages) {
  TestJob job(Gpt2_2_5B(), ScheduleKind::kVaruna, 6, 2, 6, 4, Nc6V3(), CommodityFabric());
  ExecutorOptions options;
  options.record_trace = true;
  Rng rng(1);
  PipelineExecutor executor(&job.cluster, &rng);
  const auto result = executor.Run(job.schedule, job.placement, job.timings, 4, options);
  // Replica 0: 6 stages x (F + B [+ R for non-last]) x 6 microbatches.
  EXPECT_EQ(result.trace.size(), 6u * 6 * 3 - 6 /*last stage has no R*/);
  bool saw_last_stage = false;
  for (const auto& op : result.trace) {
    EXPECT_GE(op.end, op.start);
    saw_last_stage |= op.stage == 5;
  }
  EXPECT_TRUE(saw_last_stage);
  EXPECT_GE(result.trace_allreduce_end, result.trace_allreduce_start);
}

TEST(ExecutorTest, HyperclusterFasterThanCommodity) {
  ExecutorOptions options;
  options.compute_noise_sigma = 0.0;
  options.sample_network = false;
  Rng rng(1);
  TestJob commodity(Gpt2_8_3B(), ScheduleKind::kVaruna, 18, 3, 16, 4, Nc6V3(),
                    CommodityFabric());
  TestJob hyper(Gpt2_8_3B(), ScheduleKind::kVaruna, 18, 3, 16, 4, Dgx2(), HyperclusterFabric());
  PipelineExecutor ec(&commodity.cluster, &rng);
  PipelineExecutor eh(&hyper.cluster, &rng);
  const auto rc = ec.Run(commodity.schedule, commodity.placement, commodity.timings, 4, options);
  const auto rh = eh.Run(hyper.schedule, hyper.placement, hyper.timings, 4, options);
  EXPECT_LT(rh.total_time_s, rc.total_time_s);
}

TEST(ExecutorTest, OpportunismRecoversStallTime) {
  // §3.2's runtime deviation: with tail stalls on gradient transfers, the
  // opportunistic executor beats the same static schedule without deviation.
  TestJob job(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 1, 100, 4, Nc6V3(), CommodityFabric());
  Schedule strict = job.schedule;
  strict.opportunistic = false;
  Rng rng_a(5);
  Rng rng_b(5);
  PipelineExecutor opportunistic_exec(&job.cluster, &rng_a);
  PipelineExecutor strict_exec(&job.cluster, &rng_b);
  double opportunistic_total = 0.0;
  double strict_total = 0.0;
  for (int run = 0; run < 4; ++run) {
    opportunistic_total +=
        opportunistic_exec.Run(job.schedule, job.placement, job.timings, 4).total_time_s;
    strict_total += strict_exec.Run(strict, job.placement, job.timings, 4).total_time_s;
  }
  EXPECT_LT(opportunistic_total, strict_total);
}

TEST(ExecutorTest, BlockingSendsSlowerThanOverlapped) {
  // §6: Varuna overlaps sends with compute; primitive implementations stall.
  TestJob job(Gpt2_2_5B(), ScheduleKind::kGpipe, 6, 1, 24, 4, Nc6V3(), CommodityFabric());
  ExecutorOptions overlapped;
  overlapped.compute_noise_sigma = 0.0;
  overlapped.sample_network = false;
  ExecutorOptions blocking = overlapped;
  blocking.overlap_communication = false;
  Rng rng(1);
  PipelineExecutor executor(&job.cluster, &rng);
  const double fast = executor.Run(job.schedule, job.placement, job.timings, 4, overlapped)
                          .total_time_s;
  const double slow = executor.Run(job.schedule, job.placement, job.timings, 4, blocking)
                          .total_time_s;
  EXPECT_GT(slow, 1.05 * fast);
}

TEST(ExecutorTest, CpuOffloadAddsTransferTime) {
  TestJob job(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 1, 8, 4, Nc6V3(), CommodityFabric());
  ExecutorOptions options;
  options.compute_noise_sigma = 0.0;
  options.sample_network = false;
  Rng rng(1);
  PipelineExecutor executor(&job.cluster, &rng);
  const double plain = executor.Run(job.schedule, job.placement, job.timings, 4, options)
                           .total_time_s;
  options.cpu_offload_optimizer = true;
  options.cpu_offload_bytes_per_stage = 12.0 * Gpt2_2_5B().TotalParams() / 9.0;
  const double offloaded = executor.Run(job.schedule, job.placement, job.timings, 4, options)
                               .total_time_s;
  EXPECT_GT(offloaded, plain);
}

TEST(ExecutorTest, SteadyStateRunsAreAllocationFree) {
  // The zero-alloc contract of the scratch working set: after the first
  // mini-batch sizes it, repeat runs of the same shape must not grow it.
  // Callbacks cannot spill (SmallCallback captures are inline by type), so
  // scratch_growths() is the whole contract -- it must also see the engine.
  TestJob job(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 2, 8, 4, Nc6V3(), CommodityFabric());
  Rng rng(11);
  PipelineExecutor executor(&job.cluster, &rng);
  (void)executor.Run(job.schedule, job.placement, job.timings, 4);
  const uint64_t warm_growths = executor.scratch_growths();
  const uint64_t warm_events = executor.events_processed();
  EXPECT_EQ(warm_growths, 1u);
  EXPECT_GT(warm_events, 0u);
  for (int i = 0; i < 3; ++i) {
    (void)executor.Run(job.schedule, job.placement, job.timings, 4);
  }
  EXPECT_EQ(executor.scratch_growths(), warm_growths);
  EXPECT_GT(executor.events_processed(), warm_events);

  // Engine-only growth must be counted too. A GPipe stage runs all its
  // forwards back to back; with 1000x slower activation links every one of
  // them is still in flight when the last starts, so the engine's pool and
  // heap -- and nothing else in the scratch -- outgrow the fast-link runs.
  TestJob gpipe(Gpt2_2_5B(), ScheduleKind::kGpipe, 4, 1, 32, 4, Nc6V3(), CommodityFabric());
  PipelineExecutor gpipe_executor(&gpipe.cluster, &rng);
  std::vector<StageTiming> slow_links = gpipe.timings;
  for (StageTiming& timing : slow_links) {
    timing.send_activation_bytes *= 1000.0;
  }
  for (int i = 0; i < 2; ++i) {
    (void)gpipe_executor.Run(gpipe.schedule, gpipe.placement, gpipe.timings, 4);
  }
  EXPECT_EQ(gpipe_executor.scratch_growths(), 1u);
  for (int i = 0; i < 2; ++i) {
    (void)gpipe_executor.Run(gpipe.schedule, gpipe.placement, slow_links, 4);
  }
  EXPECT_EQ(gpipe_executor.scratch_growths(), 2u);
}

TEST(ExecutorTest, ReusedExecutorMatchesFreshExecutors) {
  // Scratch reuse must be invisible: a persistent executor fed N mini-batches
  // produces bit-identical results to N fresh executors drawing from the same
  // Rng stream. Noise and network sampling stay ON so the comparison covers
  // the full draw sequence, not just the deterministic path.
  TestJob job(Gpt2_2_5B(), ScheduleKind::kVaruna, 9, 2, 8, 4, Nc6V3(), CommodityFabric());
  ExecutorOptions options;
  options.record_trace = true;

  Rng persistent_rng(42);
  PipelineExecutor persistent(&job.cluster, &persistent_rng);
  std::vector<MinibatchResult> reused;
  for (int i = 0; i < 3; ++i) {
    reused.push_back(persistent.Run(job.schedule, job.placement, job.timings, 4, options));
  }

  Rng fresh_rng(42);
  for (int i = 0; i < 3; ++i) {
    PipelineExecutor fresh(&job.cluster, &fresh_rng);
    const MinibatchResult expect = fresh.Run(job.schedule, job.placement, job.timings, 4, options);
    EXPECT_DOUBLE_EQ(reused[i].total_time_s, expect.total_time_s);
    EXPECT_DOUBLE_EQ(reused[i].pipeline_time_s, expect.pipeline_time_s);
    EXPECT_DOUBLE_EQ(reused[i].allreduce_time_s, expect.allreduce_time_s);
    EXPECT_DOUBLE_EQ(reused[i].sync_time_s, expect.sync_time_s);
    EXPECT_DOUBLE_EQ(reused[i].mean_busy_fraction, expect.mean_busy_fraction);
    ASSERT_EQ(reused[i].trace.size(), expect.trace.size());
    for (size_t op = 0; op < expect.trace.size(); ++op) {
      EXPECT_DOUBLE_EQ(reused[i].trace[op].start, expect.trace[op].start);
      EXPECT_DOUBLE_EQ(reused[i].trace[op].end, expect.trace[op].end);
    }
  }
}

// --- Golden executor outputs. ------------------------------------------------
//
// Bit-exact digests of every MinibatchResult field, every trace op and the
// engine's event count over a grid of schedules, shapes and executor options.
// The engine's (when, seq) firing order drives every Rng draw, so any change
// to it -- or to the executor's dispatch -- shows here first, before it blurs
// into a campaign fingerprint.

uint64_t MixBits(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t MixDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return MixBits(hash, bits);
}

uint64_t HashResult(const MinibatchResult& result, uint64_t hash) {
  hash = MixDouble(hash, result.total_time_s);
  hash = MixDouble(hash, result.pipeline_time_s);
  hash = MixDouble(hash, result.allreduce_time_s);
  hash = MixDouble(hash, result.sync_time_s);
  hash = MixDouble(hash, result.examples);
  hash = MixDouble(hash, result.mean_busy_fraction);
  hash = MixBits(hash, result.trace.size());
  for (const ExecTraceOp& op : result.trace) {
    hash = MixBits(hash, static_cast<uint64_t>(op.stage));
    hash = MixBits(hash, static_cast<uint64_t>(op.op.type));
    hash = MixBits(hash, static_cast<uint64_t>(static_cast<int64_t>(op.op.microbatch)));
    hash = MixDouble(hash, op.start);
    hash = MixDouble(hash, op.end);
  }
  hash = MixDouble(hash, result.trace_allreduce_start);
  return MixDouble(hash, result.trace_allreduce_end);
}

TEST(ExecutorGoldenTest, OutputsArePinned) {
  struct Row {
    ScheduleKind kind;
    int replicas;
    int depth;
    int microbatches;
    uint64_t hash;  // Over noise x overlap x stutter, in loop order.
  };
  const Row rows[] = {
      {ScheduleKind::kVaruna, 1, 4, 8, 0x804a535e702c3dbeULL},
      {ScheduleKind::kVaruna, 2, 3, 5, 0x049951a4ffd94faaULL},
      {ScheduleKind::kVaruna, 4, 4, 20, 0x3489f8c16cb67894ULL},
      {ScheduleKind::kGpipe, 1, 4, 8, 0x0700bebff7d937aeULL},
      {ScheduleKind::kGpipe, 2, 3, 5, 0x6f8ff055f7929372ULL},
      {ScheduleKind::kGpipe, 4, 4, 20, 0x7a4a990ef5806e40ULL},
      {ScheduleKind::kOneFOneB, 1, 4, 8, 0x0fb4fd7ddf9eea50ULL},
      {ScheduleKind::kOneFOneB, 2, 3, 5, 0x893780e2b2e88ecfULL},
      {ScheduleKind::kOneFOneB, 4, 4, 20, 0xf78fc93a91a57fdaULL},
      {ScheduleKind::kDeepSpeed, 1, 4, 8, 0x0882c966b40c687eULL},
      {ScheduleKind::kDeepSpeed, 2, 3, 5, 0xc0d3dcf54f685d3aULL},
      {ScheduleKind::kDeepSpeed, 4, 4, 20, 0x5a3e9c449d4bd9d0ULL},
  };
  for (const Row& row : rows) {
    TestJob job(Gpt2_2_5B(), row.kind, row.depth, row.replicas, row.microbatches, 4, Nc6V3(),
                CommodityFabric());
    const VmId stutterer = job.cluster.VmOfGpu(job.placement.At(0, row.depth - 1));
    Rng rng(2024);
    PipelineExecutor executor(&job.cluster, &rng);
    uint64_t hash = 14695981039346656037ULL;
    for (const bool noise : {true, false}) {
      for (const bool overlap : {true, false}) {
        for (const double slow : {1.0, 1.5}) {
          ExecutorOptions options;
          options.compute_noise_sigma = noise ? 0.01 : 0.0;
          options.sample_network = noise;
          options.overlap_communication = overlap;
          options.record_trace = true;
          job.cluster.SetSlowFactor(stutterer, slow);
          hash = HashResult(executor.Run(job.schedule, job.placement, job.timings, 4, options),
                            hash);
          hash = MixBits(hash, executor.events_processed());
        }
      }
    }
    EXPECT_EQ(hash, row.hash) << ToString(row.kind) << " D=" << row.replicas
                              << " P=" << row.depth << " Nm=" << row.microbatches
                              << ": new hash 0x" << std::hex << hash;
  }
}

}  // namespace
}  // namespace varuna

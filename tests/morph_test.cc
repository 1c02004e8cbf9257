#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/model/op_graph.h"
#include "src/morph/calibration.h"
#include "src/morph/config_search.h"
#include "src/morph/fast_sim.h"
#include "src/pipeline/executor.h"
#include "src/pipeline/stage_timing.h"

namespace varuna {
namespace {

struct Fixture {
  TransformerSpec spec;
  OpGraph graph;
  ModelSections sections;
  Cluster cluster;
  Calibration calibration;

  explicit Fixture(TransformerSpec model_spec, int vms = 16,
                   const VmType& vm = Nc6V3())
      : spec(std::move(model_spec)),
        graph(BuildTransformerOpGraph(spec)),
        sections(IdentifyCutPoints(graph, spec.num_layers).value()),
        cluster(CommodityFabric()) {
    cluster.AddVms(vm, vms);
    Rng rng(99);
    calibration = Calibrate(sections, cluster, CalibrationOptions(), &rng).value();
  }
};

TEST(CalibrationTest, MeasuresAllSections) {
  Fixture fx(Gpt2_2_5B());
  EXPECT_EQ(static_cast<int>(fx.calibration.sections().size()), 54);
  // The tables are flat, indexed like the sorted profiled sizes {1, 2, 4, 8, 16}.
  ASSERT_EQ(fx.calibration.microbatch_sizes(), (std::vector<int>{1, 2, 4, 8, 16}));
  const size_t m4 = 2;
  for (const auto& section : fx.calibration.sections()) {
    ASSERT_EQ(section.forward_s.size(), 5u);
    EXPECT_GT(section.forward_s.at(m4), 0.0);
    EXPECT_GT(section.backward_s.at(m4), section.forward_s.at(m4));
    EXPECT_GT(section.send_inter_s.at(m4), 0.0);
  }
}

TEST(CalibrationTest, ProfiledSizesReadBackExactly) {
  Fixture fx(Gpt2_2_5B());
  const std::vector<int>& sizes = fx.calibration.microbatch_sizes();
  for (int i = 0; i < static_cast<int>(fx.calibration.sections().size()); ++i) {
    const SectionCalibration& section = fx.calibration.sections()[static_cast<size_t>(i)];
    for (size_t k = 0; k < sizes.size(); ++k) {
      EXPECT_DOUBLE_EQ(fx.calibration.ForwardTime(i, sizes[k]), section.forward_s[k]);
      EXPECT_DOUBLE_EQ(fx.calibration.BackwardTime(i, sizes[k]), section.backward_s[k]);
      EXPECT_DOUBLE_EQ(fx.calibration.SendTime(i, sizes[k], false), section.send_intra_s[k]);
      EXPECT_DOUBLE_EQ(fx.calibration.SendTime(i, sizes[k], true), section.send_inter_s[k]);
    }
  }
}

TEST(CalibrationTest, FingerprintFollowsTheProfiledValues) {
  Fixture fx(Gpt2Medium(), 4);
  Rng same(99);
  const Calibration again =
      Calibrate(fx.sections, fx.cluster, CalibrationOptions(), &same).value();
  EXPECT_EQ(again.Fingerprint(), fx.calibration.Fingerprint());
  Rng other(100);
  const Calibration reseeded =
      Calibrate(fx.sections, fx.cluster, CalibrationOptions(), &other).value();
  EXPECT_NE(reseeded.Fingerprint(), fx.calibration.Fingerprint());
  Calibration assigned;
  EXPECT_NE(assigned.Fingerprint(), reseeded.Fingerprint());
  assigned = reseeded;
  EXPECT_EQ(assigned.Fingerprint(), reseeded.Fingerprint());
}

// Nonsense options are refused with an error instead of aborting or
// silently collapsing profiled points.
class CalibrationOptionsTest : public ::testing::Test {
 protected:
  bool Accepts(const CalibrationOptions& options) {
    Rng rng(1);
    return Calibrate(fx_.sections, fx_.cluster, options, &rng).ok();
  }

  Fixture fx_{Gpt2Medium(), 4};
};

TEST_F(CalibrationOptionsTest, AcceptsTheDefaults) { EXPECT_TRUE(Accepts(CalibrationOptions())); }

TEST_F(CalibrationOptionsTest, RejectsEmptyMicrobatchSizes) {
  CalibrationOptions options;
  options.microbatch_sizes = {};
  EXPECT_FALSE(Accepts(options));
}

TEST_F(CalibrationOptionsTest, RejectsDuplicateMicrobatchSizes) {
  CalibrationOptions options;
  options.microbatch_sizes = {4, 1, 4};
  EXPECT_FALSE(Accepts(options));
}

TEST_F(CalibrationOptionsTest, RejectsNonPositiveMicrobatchSizes) {
  CalibrationOptions options;
  options.microbatch_sizes = {2, 0};
  EXPECT_FALSE(Accepts(options));
  options.microbatch_sizes = {-1, 2};
  EXPECT_FALSE(Accepts(options));
}

TEST_F(CalibrationOptionsTest, RejectsZeroSamples) {
  CalibrationOptions options;
  options.samples = 0;
  EXPECT_FALSE(Accepts(options));
}

TEST_F(CalibrationOptionsTest, RejectsZeroNetworkSamples) {
  CalibrationOptions options;
  options.network_samples = 0;
  EXPECT_FALSE(Accepts(options));
}

TEST_F(CalibrationOptionsTest, RejectsAModelWithNoSections) {
  Rng rng(1);
  const Result<Calibration> result =
      Calibrate(ModelSections(), fx_.cluster, CalibrationOptions(), &rng);
  EXPECT_FALSE(result.ok());
  // Refused before any draw.
  Rng fresh(1);
  EXPECT_EQ(rng.NextUint64(), fresh.NextUint64());
}

TEST(CalibrationTest, CloseToGroundTruthCompute) {
  Fixture fx(Gpt2_2_5B());
  const GpuSpec gpu = Nc6V3().gpu;
  for (const int m : {1, 4, 16}) {
    const double truth = gpu.ComputeTime(fx.sections.fwd_flops[1] * m);
    EXPECT_NEAR(fx.calibration.ForwardTime(1, m) / truth, 1.0, 0.03) << "m=" << m;
  }
}

TEST(CalibrationTest, InterpolatesUnprofiledSizes) {
  Fixture fx(Gpt2_2_5B());
  const double t2 = fx.calibration.ForwardTime(1, 2);
  const double t3 = fx.calibration.ForwardTime(1, 3);
  const double t4 = fx.calibration.ForwardTime(1, 4);
  EXPECT_GT(t3, t2);
  EXPECT_LT(t3, t4);
}

TEST(CalibrationTest, AllReduceModelExtrapolatesRingSizes) {
  Fixture fx(Gpt2_2_5B());
  const double bytes = 2.0 * fx.calibration.sections()[1].params;
  const double d2 = fx.calibration.allreduce().Predict(bytes, 2);
  const double d8 = fx.calibration.allreduce().Predict(bytes, 8);
  // Ring model: time grows with D but stays under the 2S/bw asymptote + latency.
  EXPECT_GT(d8, d2);
  const double truth = fx.cluster.network().MeanAllReduceTime(
      {0, 1, 2, 3, 4, 5, 6, 7}, bytes, 1);
  EXPECT_NEAR(d8 / truth, 1.0, 0.35);  // Fitted with k-concurrent contention.
}

TEST(CalibrationTest, FailsOnTinyCluster) {
  TransformerSpec spec = Gpt2Medium();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const ModelSections sections = IdentifyCutPoints(graph, spec.num_layers).value();
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 2);
  Rng rng(1);
  EXPECT_FALSE(Calibrate(sections, cluster, CalibrationOptions(), &rng).ok());
}

// The Table 7 property: fast-simulator estimates within ~5% of the testbed.
class SimulatorAccuracyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (P, D)

TEST_P(SimulatorAccuracyTest, EstimateWithinFivePercent) {
  const int depth = std::get<0>(GetParam());
  const int replicas = std::get<1>(GetParam());
  Fixture fx(Gpt2_2_5B(), depth * replicas + 2);
  const int m = 4;
  const int num_microbatches =
      static_cast<int>(std::ceil(2400.0 / (m * replicas)));
  const Partition partition = PartitionModel(fx.sections, depth).value();
  const Schedule schedule =
      GenerateSchedule(ScheduleKind::kVaruna, depth, num_microbatches);

  // Estimate (Varuna's product simulator).
  FastSimulator simulator(&fx.calibration);
  FastSimConfig sim_config;
  sim_config.sections = &fx.sections;
  sim_config.partition = &partition;
  sim_config.data_parallel = replicas;
  sim_config.microbatch_size = m;
  sim_config.gpus_per_node = 1;
  const double estimated = simulator.EstimateMinibatch(schedule, sim_config).minibatch_s;

  // "Actual": the noisy DES testbed, averaged over a few mini-batches.
  const Placement placement = PlaceJob(fx.cluster, depth, replicas).value();
  const auto timings = ComputeStageTimings(fx.sections, partition, Nc6V3().gpu, m);
  Rng rng(7);
  PipelineExecutor executor(&fx.cluster, &rng);
  double actual = 0.0;
  const int runs = 8;  // The testbed is noisy; average like the paper's runs.
  for (int run = 0; run < runs; ++run) {
    actual += executor.Run(schedule, placement, timings, m).total_time_s;
  }
  actual /= runs;

  EXPECT_NEAR(estimated / actual, 1.0, 0.05)
      << "P=" << depth << " D=" << replicas << " est=" << estimated << " act=" << actual;
}

INSTANTIATE_TEST_SUITE_P(Configs, SimulatorAccuracyTest,
                         ::testing::Values(std::make_tuple(6, 2), std::make_tuple(9, 2),
                                           std::make_tuple(9, 4), std::make_tuple(18, 2),
                                           std::make_tuple(27, 1)),
                         [](const auto& param_info) {
                           return "P" + std::to_string(std::get<0>(param_info.param)) + "xD" +
                                  std::to_string(std::get<1>(param_info.param));
                         });

TEST(CalibrationTest, StallDecompositionConsistent) {
  // Detected tail stalls split into detection offset + exponential scale;
  // the parts must re-assemble into the conditional mean.
  Fixture fx(Gpt2_2_5B());
  const SendStallModel& tail = fx.calibration.send_stall();
  ASSERT_GT(tail.probability, 0.0);
  EXPECT_GT(tail.scale_s, 0.0);
  EXPECT_NEAR(tail.offset_s + tail.scale_s, tail.mean_s, 1e-9);
  // The profiled tail should resemble the fabric's ground truth: probability
  // below the injected 2% (threshold misses small stalls), conditional scale
  // near the injected 250 ms exponential.
  EXPECT_LT(tail.probability, 0.022);
  EXPECT_GT(tail.probability, 0.005);
  EXPECT_NEAR(tail.scale_s, 0.25, 0.12);
}

// --- Golden fast-simulator outputs. -------------------------------------------
//
// Bit-exact digests of every FastSimResult field and of LowerBoundMinibatch
// over a grid of schedules, shapes, replica counts (1-4 stall replays), node
// packings and shared-state sync. Any change to the evaluation order's
// arithmetic, the stall draws or the per-stage primitives moves a row.

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

TEST(FastSimGoldenTest, EstimatesArePinned) {
  struct Row {
    ScheduleKind kind;
    int depth;
    uint64_t hash;  // Over Nm x D x gpus_per_node x shared sync, in loop order.
  };
  const Row rows[] = {
      {ScheduleKind::kVaruna, 1, 0xa316ee82d9d3e93dULL},
      {ScheduleKind::kVaruna, 2, 0xf21e0936648a32fdULL},
      {ScheduleKind::kVaruna, 4, 0xfb85f89f31b289ffULL},
      {ScheduleKind::kVaruna, 8, 0x3db4ec5cd4e6e256ULL},
      {ScheduleKind::kVaruna, 16, 0xb33c0102ead210caULL},
      {ScheduleKind::kGpipe, 1, 0xc87ba7b84a777f45ULL},
      {ScheduleKind::kGpipe, 2, 0x9210b75ffdc6451dULL},
      {ScheduleKind::kGpipe, 4, 0xb1d50f1abea45873ULL},
      {ScheduleKind::kGpipe, 8, 0x89ed37d8547c22e4ULL},
      {ScheduleKind::kGpipe, 16, 0x674bbea57f8d83afULL},
      {ScheduleKind::kOneFOneB, 1, 0xa316ee82d9d3e93dULL},
      {ScheduleKind::kOneFOneB, 2, 0xe9ba55f02b156fdaULL},
      {ScheduleKind::kOneFOneB, 4, 0x317c57566d44bedcULL},
      {ScheduleKind::kOneFOneB, 8, 0x7650d518b7a1f8ebULL},
      {ScheduleKind::kOneFOneB, 16, 0xf12afc01df1fb74aULL},
      {ScheduleKind::kDeepSpeed, 1, 0xa316ee82d9d3e93dULL},
      {ScheduleKind::kDeepSpeed, 2, 0x83757ea67c3245faULL},
      {ScheduleKind::kDeepSpeed, 4, 0x18e5da189f37c289ULL},
      {ScheduleKind::kDeepSpeed, 8, 0x9c4fca1c01bb068dULL},
      {ScheduleKind::kDeepSpeed, 16, 0x5317b2e930d31d3eULL},
  };
  Fixture fx(Gpt2_2_5B());
  FastSimulator simulator(&fx.calibration);
  for (const Row& row : rows) {
    const Partition partition = PartitionModel(fx.sections, row.depth).value();
    uint64_t hash = 14695981039346656037ULL;
    for (const int num_microbatches : {1, 3, 8, 32}) {
      const Schedule& schedule = GenerateSchedule(row.kind, row.depth, num_microbatches);
      for (const int replicas : {1, 2, 4, 8}) {
        for (const int gpus_per_node : {1, 4}) {
          for (const double shared_sync_bytes : {0.0, 2.0e8}) {
            FastSimConfig config;
            config.sections = &fx.sections;
            config.partition = &partition;
            config.data_parallel = replicas;
            config.microbatch_size = 4;
            config.gpus_per_node = gpus_per_node;
            config.shared_sync_bytes = shared_sync_bytes;
            const FastSimResult result = simulator.EstimateMinibatch(schedule, config);
            hash = MixDouble(hash, result.minibatch_s);
            hash = MixDouble(hash, result.pipeline_s);
            hash = MixDouble(hash, result.allreduce_s);
            hash = MixDouble(hash, result.sync_s);
            hash = MixDouble(hash, simulator.LowerBoundMinibatch(config, num_microbatches));
          }
        }
      }
    }
    EXPECT_EQ(hash, row.hash) << ToString(row.kind) << " P=" << row.depth << ": new hash 0x"
                              << std::hex << hash;
  }
}

TEST(ConfigSearchTest, PicksSaturatingMicrobatch) {
  Fixture fx(Gpt2_2_5B());
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  const int m = search.PickMicrobatchSize(0.05);
  EXPECT_GE(m, 2);
  EXPECT_LE(m, 16);
}

TEST(ConfigSearchTest, RespectsMemoryFloor) {
  // 8.3B cannot run at shallow depth on 16 GB GPUs.
  Fixture fx(Gpt2_8_3B(), 40);
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  SearchConstraints constraints;
  constraints.total_batch = 512;
  constraints.budget.gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  const auto sweep = search.Sweep(36, constraints);
  ASSERT_TRUE(sweep.ok());
  for (const JobConfig& config : sweep.value()) {
    EXPECT_GE(config.pipeline_depth, 10);
    EXPECT_LE(config.gpus_used, 36);
  }
}

TEST(ConfigSearchTest, KeepsTotalBatchFixed) {
  Fixture fx(Gpt2_2_5B(), 40);
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  SearchConstraints constraints;
  constraints.total_batch = 2400;
  constraints.budget.gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  const auto sweep = search.Sweep(36, constraints);
  ASSERT_TRUE(sweep.ok());
  for (const JobConfig& config : sweep.value()) {
    EXPECT_GE(config.ActualBatch(), 2400.0);
    EXPECT_LE(config.ActualBatch(), 2400.0 * 1.1);  // Ceil rounding only.
  }
}

TEST(ConfigSearchTest, DeepPipelineWinsAtScale) {
  // Observation 2 / Table 3: with many GPUs, a deeper pipeline (smaller D)
  // can beat the shallowest feasible pipeline because the data-parallel
  // allreduce bandwidth scales as 2N/P.
  Fixture fx(Gpt2_2_5B(), 104);
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  SearchConstraints constraints;
  constraints.total_batch = 8192;
  constraints.budget.gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  const auto best100 = search.Best(100, constraints);
  ASSERT_TRUE(best100.ok());
  const auto sweep = search.Sweep(100, constraints);
  ASSERT_TRUE(sweep.ok());
  int min_depth = 1000;
  for (const JobConfig& config : sweep.value()) {
    min_depth = std::min(min_depth, config.pipeline_depth);
  }
  EXPECT_GT(best100.value().pipeline_depth, min_depth);
}

TEST(ConfigSearchTest, ErrorsWhenNothingFits) {
  Fixture fx(Gpt2_8_3B(), 16);
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  SearchConstraints constraints;
  constraints.total_batch = 512;
  constraints.budget.gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  EXPECT_FALSE(search.Best(4, constraints).ok());
}

}  // namespace
}  // namespace varuna

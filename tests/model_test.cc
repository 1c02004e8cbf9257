#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/common/units.h"
#include "src/model/cutpoints.h"
#include "src/model/op_graph.h"
#include "src/model/tracer.h"
#include "src/model/transformer.h"

namespace varuna {
namespace {

TEST(TransformerSpecTest, ParameterCountsMatchPaper) {
  // Named sizes should land near their labels.
  EXPECT_NEAR(BertLarge().TotalParams() / 1e6, 340, 40);
  EXPECT_NEAR(Gpt2Medium().TotalParams() / 1e6, 355, 55);
  EXPECT_NEAR(Gpt2_2_5B().TotalParams() / 1e9, 2.5, 0.3);
  EXPECT_NEAR(Gpt2_8_3B().TotalParams() / 1e9, 8.3, 0.4);
  EXPECT_NEAR(Gpt2_20B().TotalParams() / 1e9, 20.0, 1.0);
  EXPECT_NEAR(Gpt2_200B().TotalParams() / 1e9, 200.0, 5.0);
}

TEST(TransformerSpecTest, BoundaryActivationMatchesPaperQuote) {
  // §3.1: for 2.5B GPT-2 the per-example input activation is ~3.75 MB.
  EXPECT_NEAR(Gpt2_2_5B().BoundaryActivationBytes() / kMiB, 3.75, 0.01);
}

TEST(TransformerSpecTest, IntraLayerTransferMatchesPaperQuote) {
  // §3.1: GPT-2 2.5B, 54 layers, 6 allreduces/layer, each moving
  // 2 * hidden * seq fp16 values -> ~2.4 GB per example per GPU.
  const TransformerSpec spec = Gpt2_2_5B();
  const double total = spec.num_layers * 6.0 * spec.IntraLayerAllReduceBytes();
  EXPECT_NEAR(total / 1e9, 2.4, 0.2);
}

TEST(OpGraphTest, TotalsMatchSpec) {
  const TransformerSpec spec = Gpt2_2_5B();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  EXPECT_NEAR(graph.TotalParams() / spec.TotalParams(), 1.0, 0.01);
  EXPECT_NEAR(graph.TotalFwdFlops() / spec.TotalFwdFlops(), 1.0, 0.01);
  EXPECT_EQ(graph.size(), 1 + 5 * spec.num_layers + 2);
}

TEST(OpGraphTest, BlockBoundaryHasSmallestActivation) {
  const OpGraph graph = BuildTransformerOpGraph(Gpt2_2_5B());
  // Within block 0 (ops 1..5), mlp_out (op 5) has the smallest output.
  double boundary = graph.op(5).out_activation_bytes;
  for (int i = 1; i < 5; ++i) {
    EXPECT_GT(graph.op(i).out_activation_bytes, boundary);
  }
}

TEST(CutPointsTest, SectionsBalancedOnHomogeneousModel) {
  const TransformerSpec spec = Gpt2_8_3B();  // 72 layers.
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  ASSERT_TRUE(sections.ok());
  const ModelSections& s = sections.value();
  EXPECT_EQ(s.num_sections(), 72);
  double min_flops = s.fwd_flops[1];
  double max_flops = s.fwd_flops[1];
  for (int i = 1; i + 1 < s.num_sections(); ++i) {  // Interior sections.
    min_flops = std::min(min_flops, s.fwd_flops[static_cast<size_t>(i)]);
    max_flops = std::max(max_flops, s.fwd_flops[static_cast<size_t>(i)]);
  }
  EXPECT_LT(max_flops / min_flops, 1.25);
}

TEST(CutPointsTest, BoundariesLandOnBlockBoundaries) {
  const TransformerSpec spec = Gpt2_2_5B();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  ASSERT_TRUE(sections.ok());
  // Every interior boundary op should be an mlp_out (lowest activation).
  const ModelSections& s = sections.value();
  for (size_t i = 1; i + 1 < s.boundaries.size(); ++i) {
    const std::string& name = graph.op(s.boundaries[i] - 1).name;
    EXPECT_NE(name.find("mlp_out"), std::string::npos) << name;
  }
}

TEST(CutPointsTest, RejectsTooManySections) {
  const OpGraph graph = BuildTransformerOpGraph(Gpt2Medium());
  EXPECT_FALSE(IdentifyCutPoints(graph, graph.size() + 1).ok());
  EXPECT_FALSE(IdentifyCutPoints(graph, 0).ok());
}

TEST(PartitionTest, BalancedStages) {
  const TransformerSpec spec = Gpt2_8_3B();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  ASSERT_TRUE(sections.ok());
  const auto partition = PartitionModel(sections.value(), 18);
  ASSERT_TRUE(partition.ok());
  const Partition& p = partition.value();
  EXPECT_EQ(p.depth(), 18);
  // 72 layers over 18 stages: interior stages hold 4 blocks each.
  double total_params = 0.0;
  for (int stage = 0; stage < p.depth(); ++stage) {
    total_params += p.stage_params[static_cast<size_t>(stage)];
  }
  EXPECT_NEAR(total_params / spec.TotalParams(), 1.0, 0.01);
  // Interior stage compute balanced within 30%.
  for (int stage = 1; stage + 1 < p.depth(); ++stage) {
    EXPECT_NEAR(p.stage_fwd_flops[static_cast<size_t>(stage)] /
                    p.stage_fwd_flops[1],
                1.0, 0.3);
  }
}

TEST(PartitionTest, SendsBoundaryActivations) {
  const TransformerSpec spec = Gpt2_2_5B();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  ASSERT_TRUE(sections.ok());
  const auto partition = PartitionModel(sections.value(), 9);
  ASSERT_TRUE(partition.ok());
  for (const double bytes : partition.value().send_activation_bytes) {
    EXPECT_NEAR(bytes, spec.BoundaryActivationBytes(), 1.0);
  }
}

TEST(PartitionTest, DepthOneAndFullDepth) {
  const OpGraph graph = BuildTransformerOpGraph(Gpt2Medium());
  const auto sections = IdentifyCutPoints(graph, 24);
  ASSERT_TRUE(sections.ok());
  EXPECT_TRUE(PartitionModel(sections.value(), 1).ok());
  EXPECT_TRUE(PartitionModel(sections.value(), 24).ok());
  EXPECT_FALSE(PartitionModel(sections.value(), 25).ok());
}

TEST(PartitionTest, LastStageWeightPacksHeadIntoFinalStage) {
  // With the last-stage discount, the final stage can afford more compute.
  const TransformerSpec spec = Gpt2_2_5B();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  ASSERT_TRUE(sections.ok());
  PartitionOptions discounted;
  discounted.last_stage_weight = 0.75;
  PartitionOptions uniform;
  uniform.last_stage_weight = 1.0;
  const auto with_discount = PartitionModel(sections.value(), 9, discounted);
  const auto without = PartitionModel(sections.value(), 9, uniform);
  ASSERT_TRUE(with_discount.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_GE(with_discount.value().stage_fwd_flops.back(),
            without.value().stage_fwd_flops.back());
}

// An independent per-depth DP, as PartitionModel computed it before the
// depths shared one table: the stage begins minimising the maximum stage
// compute, the last stage weighted by `last_stage_weight`.
std::vector<int> ReferenceStageBegins(const ModelSections& sections, int depth,
                                      double last_stage_weight) {
  const size_t k = static_cast<size_t>(sections.num_sections());
  const size_t stages = static_cast<size_t>(depth);
  std::vector<double> prefix(k + 1, 0.0);
  for (size_t i = 0; i < k; ++i) prefix[i + 1] = prefix[i] + sections.fwd_flops[i];
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> cost(stages + 1, std::vector<double>(k + 1, inf));
  std::vector<std::vector<size_t>> split(stages + 1, std::vector<size_t>(k + 1, 0));
  cost[0][0] = 0.0;
  for (size_t p = 1; p <= stages; ++p) {
    const double weight = p == stages ? last_stage_weight : 1.0;
    for (size_t i = p; i <= k - (stages - p); ++i) {
      for (size_t j = p - 1; j < i; ++j) {
        if (cost[p - 1][j] == inf) continue;
        const double candidate = std::max(cost[p - 1][j], weight * (prefix[i] - prefix[j]));
        if (candidate < cost[p][i]) {
          cost[p][i] = candidate;
          split[p][i] = j;
        }
      }
    }
  }
  std::vector<int> begins(stages + 1, static_cast<int>(k));
  for (size_t p = stages; p >= 1; --p) {
    begins[p - 1] = static_cast<int>(split[p][static_cast<size_t>(begins[p])]);
  }
  return begins;
}

// One DP for every depth gives each depth the partition of its own DP, for
// every model the benches and sessions partition.
TEST(PartitionTest, EveryDepthMatchesAPerDepthDp) {
  const std::vector<TransformerSpec> specs = {BertLarge(), Bert72(),   Gpt2Medium(), Gpt2_2_5B(),
                                              Gpt2_8_3B(), Gpt2_20B(), Gpt2_200B()};
  for (const TransformerSpec& spec : specs) {
    const auto sections = IdentifyCutPoints(BuildTransformerOpGraph(spec), spec.num_layers);
    ASSERT_TRUE(sections.ok()) << spec.name;
    const std::vector<Partition> every = PartitionModelAtEveryDepth(sections.value());
    ASSERT_EQ(every.size(), static_cast<size_t>(sections.value().num_sections())) << spec.name;
    for (int depth = 1; depth <= static_cast<int>(every.size()); ++depth) {
      const Partition& shared = every[static_cast<size_t>(depth) - 1];
      EXPECT_EQ(shared.stage_begin, ReferenceStageBegins(sections.value(), depth, 0.75))
          << spec.name << " depth " << depth;
      const Partition alone = PartitionModel(sections.value(), depth).value();
      EXPECT_EQ(shared.stage_begin, alone.stage_begin) << spec.name << " depth " << depth;
      EXPECT_EQ(shared.stage_fwd_flops, alone.stage_fwd_flops) << spec.name << " depth " << depth;
      EXPECT_EQ(shared.stage_params, alone.stage_params) << spec.name << " depth " << depth;
      EXPECT_EQ(shared.send_activation_bytes, alone.send_activation_bytes)
          << spec.name << " depth " << depth;
    }
  }
}

TEST(TracerTest, FindsTiedEmbedding) {
  const TransformerSpec spec = Gpt2_2_5B();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  ASSERT_TRUE(sections.ok());
  TraceOptions options;
  options.mixed_precision_loss_scaler = false;
  const TraceReport report = TraceCrossPartitionState(graph, sections.value(), options);
  ASSERT_EQ(report.shared.size(), 1u);
  EXPECT_EQ(report.shared[0].kind, SharedTensor::Kind::kTiedParameter);
  EXPECT_EQ(report.shared[0].sections.front(), 0);
  EXPECT_EQ(report.shared[0].sections.back(), sections.value().num_sections() - 1);
  // fp32 gradient of the embedding table.
  EXPECT_NEAR(report.shared[0].sync_bytes, 4.0 * spec.EmbeddingParams(), 1.0);
}

TEST(TracerTest, NoTiedEmbeddingWhenUntied) {
  TransformerSpec spec = Gpt2Medium();
  spec.tied_embeddings = false;
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  ASSERT_TRUE(sections.ok());
  TraceOptions options;
  options.mixed_precision_loss_scaler = false;
  const TraceReport report = TraceCrossPartitionState(graph, sections.value(), options);
  EXPECT_TRUE(report.shared.empty());
}

TEST(TracerTest, FlagsLibraryGlobals) {
  const TransformerSpec spec = Gpt2Medium();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, spec.num_layers);
  ASSERT_TRUE(sections.ok());
  TraceOptions options;
  options.mixed_precision_loss_scaler = true;
  options.global_norm_optimizer = true;
  const TraceReport report = TraceCrossPartitionState(graph, sections.value(), options);
  int library_globals = 0;
  for (const auto& tensor : report.shared) {
    if (tensor.kind == SharedTensor::Kind::kLibraryGlobal) {
      ++library_globals;
      EXPECT_EQ(static_cast<int>(tensor.sections.size()), sections.value().num_sections());
    }
  }
  EXPECT_EQ(library_globals, 2);
}

TEST(TracerTest, SingleSectionHasNoTiedSharing) {
  const TransformerSpec spec = Gpt2Medium();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const auto sections = IdentifyCutPoints(graph, 1);
  ASSERT_TRUE(sections.ok());
  TraceOptions options;
  options.mixed_precision_loss_scaler = false;
  EXPECT_TRUE(TraceCrossPartitionState(graph, sections.value(), options).shared.empty());
}

}  // namespace
}  // namespace varuna

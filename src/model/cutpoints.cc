#include "src/model/cutpoints.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

namespace varuna {
namespace {

// Fills the derived per-section profile fields from the boundary list.
void FillSectionProfile(const OpGraph& graph, ModelSections* sections) {
  const int k = static_cast<int>(sections->boundaries.size()) - 1;
  sections->fwd_flops.resize(static_cast<size_t>(k));
  sections->params.resize(static_cast<size_t>(k));
  sections->boundary_activation_bytes.resize(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const int begin = sections->boundaries[static_cast<size_t>(i)];
    const int end = sections->boundaries[static_cast<size_t>(i) + 1];
    sections->fwd_flops[static_cast<size_t>(i)] = graph.RangeFwdFlops(begin, end);
    sections->params[static_cast<size_t>(i)] = graph.RangeParams(begin, end);
    sections->boundary_activation_bytes[static_cast<size_t>(i)] =
        graph.op(end - 1).out_activation_bytes;
  }
}

}  // namespace

Result<ModelSections> IdentifyCutPoints(const OpGraph& graph, int num_sections) {
  if (num_sections < 1) {
    return Result<ModelSections>::Error("num_sections must be >= 1");
  }
  if (graph.size() < num_sections) {
    std::ostringstream message;
    message << "op graph has " << graph.size() << " ops; cannot form " << num_sections
            << " sections";
    return Result<ModelSections>::Error(message.str());
  }

  // Cut-points live inside the model's repetitive structure (§5.1: massive
  // models "inherently use repetitive structures"): pre-block ops (embedding)
  // attach to the first section and post-block ops (LM head, loss) to the
  // last. Targets are therefore equal shares of *block* compute, and
  // candidate boundaries are ends of block ops only.
  std::vector<double> block_prefix(static_cast<size_t>(graph.size()) + 1, 0.0);
  int first_block_op = -1;
  int last_block_op = -1;
  for (int i = 0; i < graph.size(); ++i) {
    const bool in_block = graph.op(i).layer >= 0;
    block_prefix[static_cast<size_t>(i) + 1] =
        block_prefix[static_cast<size_t>(i)] + (in_block ? graph.op(i).fwd_flops : 0.0);
    if (in_block) {
      if (first_block_op < 0) {
        first_block_op = i;
      }
      last_block_op = i;
    }
  }
  if (first_block_op < 0 || last_block_op - first_block_op + 1 < num_sections) {
    // Degenerate graph (no repetitive structure): fall back to one op per cut.
    if (graph.size() < num_sections) {
      return Result<ModelSections>::Error("graph too small for requested sections");
    }
    first_block_op = 0;
    last_block_op = graph.size() - 1;
    for (int i = 0; i < graph.size(); ++i) {
      block_prefix[static_cast<size_t>(i) + 1] =
          block_prefix[static_cast<size_t>(i)] + graph.op(i).fwd_flops;
    }
  }

  const double block_total = block_prefix[static_cast<size_t>(graph.size())];
  const double section_target = block_total / num_sections;

  ModelSections sections;
  sections.boundaries.push_back(0);
  for (int cut = 1; cut < num_sections; ++cut) {
    const double target = cut * section_target;
    // Candidate boundaries: block-op ends whose cumulative block compute is
    // within 60% of a section of the target. Among them pick the lowest
    // output activation, breaking ties toward the target.
    const double slack = 0.6 * section_target;
    int best = -1;
    double best_activation = std::numeric_limits<double>::infinity();
    double best_distance = std::numeric_limits<double>::infinity();
    const int min_end = std::max(sections.boundaries.back() + 1, first_block_op + 1);
    // Leave room for the remaining cuts (one block op each minimum).
    const int max_end = last_block_op + 1 - (num_sections - cut);
    for (int end = min_end; end <= max_end; ++end) {
      if (graph.op(end - 1).layer < 0) {
        continue;
      }
      const double cumulative = block_prefix[static_cast<size_t>(end)];
      if (std::abs(cumulative - target) > slack) {
        continue;
      }
      const double activation = graph.op(end - 1).out_activation_bytes;
      const double distance = std::abs(cumulative - target);
      if (activation < best_activation ||
          (activation == best_activation && distance < best_distance)) {
        best = end;
        best_activation = activation;
        best_distance = distance;
      }
    }
    if (best < 0) {
      // No block op inside the slack window (heavily skewed graphs): fall back
      // to the block-op end closest to the target within the legal range.
      for (int end = min_end; end <= max_end; ++end) {
        if (graph.op(end - 1).layer < 0) {
          continue;
        }
        if (best < 0 || std::abs(block_prefix[static_cast<size_t>(end)] - target) <
                            std::abs(block_prefix[static_cast<size_t>(best)] - target)) {
          best = end;
        }
      }
      if (best < 0) {
        best = min_end;  // Last resort; keeps boundaries strictly increasing.
      }
    }
    sections.boundaries.push_back(best);
  }
  sections.boundaries.push_back(graph.size());

  FillSectionProfile(graph, &sections);
  return sections;
}

namespace {

// Sections [stage_begin[p], stage_begin[p + 1]) as stage p, with its profile.
Partition MakePartition(const ModelSections& sections, std::vector<int> stage_begin) {
  const int depth = static_cast<int>(stage_begin.size()) - 1;
  Partition partition;
  partition.stage_begin = std::move(stage_begin);
  partition.stage_fwd_flops.resize(static_cast<size_t>(depth));
  partition.stage_params.resize(static_cast<size_t>(depth));
  partition.send_activation_bytes.resize(static_cast<size_t>(depth) - 1);
  for (int p = 0; p < depth; ++p) {
    const int begin = partition.stage_begin[static_cast<size_t>(p)];
    const int end = partition.stage_begin[static_cast<size_t>(p) + 1];
    double flops = 0.0;
    double params = 0.0;
    for (int i = begin; i < end; ++i) {
      flops += sections.fwd_flops[static_cast<size_t>(i)];
      params += sections.params[static_cast<size_t>(i)];
    }
    partition.stage_fwd_flops[static_cast<size_t>(p)] = flops;
    partition.stage_params[static_cast<size_t>(p)] = params;
    if (p + 1 < depth) {
      partition.send_activation_bytes[static_cast<size_t>(p)] =
          sections.boundary_activation_bytes[static_cast<size_t>(end) - 1];
    }
  }
  return partition;
}

// The balanced partitions at depths first_depth..last_depth, in order, from
// one DP. Requires 1 <= first_depth <= last_depth <= sections.num_sections().
std::vector<Partition> PartitionDepths(const ModelSections& sections, int first_depth,
                                       int last_depth, const PartitionOptions& options) {
  const int k = sections.num_sections();
  std::vector<double> prefix(static_cast<size_t>(k) + 1, 0.0);
  for (int i = 0; i < k; ++i) {
    prefix[static_cast<size_t>(i) + 1] =
        prefix[static_cast<size_t>(i)] + sections.fwd_flops[static_cast<size_t>(i)];
  }
  auto range_flops = [&](int begin, int end) {
    return prefix[static_cast<size_t>(end)] - prefix[static_cast<size_t>(begin)];
  };

  // DP over contiguous partitions. Stage weights are 1 except the last stage
  // (no recompute), so the rows of the stages before the last are the same at
  // every depth: cost[p][i] is the best max-stage cost splitting the first i
  // sections into p weight-1 stages, split[p][i] where the p-th one begins.
  // Row p feeds the last stage at depths above p, which need i <= k - depth + p.
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> cost(static_cast<size_t>(last_depth),
                                        std::vector<double>(static_cast<size_t>(k) + 1, kInfinity));
  std::vector<std::vector<int>> split(static_cast<size_t>(last_depth),
                                      std::vector<int>(static_cast<size_t>(k) + 1, -1));
  cost[0][0] = 0.0;
  // Candidate stage [j, i) after p - 1 stages over the first j sections.
  auto relax = [&](int p, int j, int i, double weight, double* best, int* best_begin) {
    const double before = cost[static_cast<size_t>(p) - 1][static_cast<size_t>(j)];
    if (before == kInfinity) {
      return;
    }
    const double candidate = std::max(before, weight * range_flops(j, i));
    if (candidate < *best) {
      *best = candidate;
      *best_begin = j;
    }
  };
  for (int p = 1; p < last_depth; ++p) {
    for (int i = p; i <= k - std::max(first_depth, p + 1) + p; ++i) {
      for (int j = p - 1; j < i; ++j) {
        relax(p, j, i, 1.0, &cost[static_cast<size_t>(p)][static_cast<size_t>(i)],
              &split[static_cast<size_t>(p)][static_cast<size_t>(i)]);
      }
    }
  }

  std::vector<Partition> partitions;
  partitions.reserve(static_cast<size_t>(last_depth - first_depth) + 1);
  for (int depth = first_depth; depth <= last_depth; ++depth) {
    double best = kInfinity;
    int last_begin = -1;
    for (int j = depth - 1; j < k; ++j) {
      relax(depth, j, k, options.last_stage_weight, &best, &last_begin);
    }
    std::vector<int> stage_begin(static_cast<size_t>(depth) + 1, 0);
    stage_begin[static_cast<size_t>(depth)] = k;
    stage_begin[static_cast<size_t>(depth) - 1] = last_begin;
    for (int p = depth - 1; p >= 1; --p) {
      const int end = stage_begin[static_cast<size_t>(p)];
      stage_begin[static_cast<size_t>(p) - 1] =
          split[static_cast<size_t>(p)][static_cast<size_t>(end)];
    }
    partitions.push_back(MakePartition(sections, std::move(stage_begin)));
  }
  return partitions;
}

}  // namespace

Result<Partition> PartitionModel(const ModelSections& sections, int depth,
                                 const PartitionOptions& options) {
  const int k = sections.num_sections();
  if (depth < 1 || depth > k) {
    std::ostringstream message;
    message << "pipeline depth " << depth << " must be in [1, " << k << "] (number of cut-point"
            << " sections)";
    return Result<Partition>::Error(message.str());
  }
  return std::move(PartitionDepths(sections, depth, depth, options).front());
}

std::vector<Partition> PartitionModelAtEveryDepth(const ModelSections& sections,
                                                  const PartitionOptions& options) {
  const int k = sections.num_sections();
  return k < 1 ? std::vector<Partition>() : PartitionDepths(sections, 1, k, options);
}

}  // namespace varuna

// Cut-point identification and partitioning (§5.1). Cut-points slice the op
// graph into K roughly compute-equal sections ending at low-activation ops;
// at run time, contiguous sections are grouped into P <= K pipeline stages
// balanced in forward compute.
#ifndef SRC_MODEL_CUTPOINTS_H_
#define SRC_MODEL_CUTPOINTS_H_

#include <vector>

#include "src/common/result.h"
#include "src/model/op_graph.h"

namespace varuna {

// K sections delimited by K+1 op-index boundaries. boundary[0] == 0 and
// boundary[K] == graph.size(); section i covers ops [boundary[i], boundary[i+1]).
struct ModelSections {
  std::vector<int> boundaries;
  // Per-section profile, derived from the graph at identification time.
  std::vector<double> fwd_flops;
  std::vector<double> params;
  // Activation bytes per example crossing the boundary *after* section i
  // (output of its last op). The final entry is the loss scalar.
  std::vector<double> boundary_activation_bytes;

  int num_sections() const { return static_cast<int>(fwd_flops.size()); }
};

// Splits the graph into `num_sections` sections. Near each equal-compute
// target the op with the smallest output activation is chosen (§5.1: "picks
// those with lowest activation size to maintain a high compute-communication
// ratio"). Fails if the graph has fewer ops than sections.
Result<ModelSections> IdentifyCutPoints(const OpGraph& graph, int num_sections);

struct PartitionOptions {
  // Relative weight of the last stage's compute when balancing. Varuna's
  // schedule never recomputes on the last stage (§3.2), so a unit of forward
  // work there costs 3 time units (F+B) instead of 4 (F+R+B); balancing with
  // weight 0.75 lets the partitioner pack the LM head into the final stage.
  double last_stage_weight = 0.75;
};

// Contiguous grouping of sections into P stages.
struct Partition {
  // stage_begin has P+1 entries over section indices.
  std::vector<int> stage_begin;
  std::vector<double> stage_fwd_flops;
  std::vector<double> stage_params;
  // Activation bytes per example sent from stage s to stage s+1 (P-1 entries).
  std::vector<double> send_activation_bytes;

  int depth() const { return static_cast<int>(stage_fwd_flops.size()); }
};

// Balanced contiguous partition of the sections into `depth` stages
// (minimises the maximum weighted stage compute; O(K^2 P) DP).
Result<Partition> PartitionModel(const ModelSections& sections, int depth,
                                 const PartitionOptions& options = {});

// PartitionModel at every depth 1..K from one O(K^3) DP: entry d - 1 is the
// partition at depth d. The rows of the stages before the last are shared
// between depths; only the last stage's row differs.
std::vector<Partition> PartitionModelAtEveryDepth(const ModelSections& sections,
                                                  const PartitionOptions& options = {});

}  // namespace varuna

#endif  // SRC_MODEL_CUTPOINTS_H_

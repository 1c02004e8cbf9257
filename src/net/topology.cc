#include "src/net/topology.h"

namespace varuna {

NodeId Topology::AddNode(const NodeSpec& spec) {
  VARUNA_CHECK_GT(spec.num_gpus, 0);
  const NodeId id = num_nodes();
  nodes_.push_back(spec);
  for (int g = 0; g < spec.num_gpus; ++g) {
    gpu_to_node_.push_back(id);
  }
  return id;
}

std::vector<GpuId> Topology::GpusOfNode(NodeId node) const {
  std::vector<GpuId> gpus;
  for (GpuId g = 0; g < num_gpus(); ++g) {
    if (gpu_to_node_[static_cast<size_t>(g)] == node) {
      gpus.push_back(g);
    }
  }
  return gpus;
}

}  // namespace varuna

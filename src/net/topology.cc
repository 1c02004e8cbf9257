#include "src/net/topology.h"

namespace varuna {

NodeId Topology::AddNode(const NodeSpec& spec) {
  VARUNA_CHECK_GT(spec.num_gpus, 0);
  const NodeId id = num_nodes();
  nodes_.push_back(spec);
  for (int g = 0; g < spec.num_gpus; ++g) {
    gpu_to_node_.push_back(id);
  }
  // Assign the node's link class: reuse an existing class whose link-relevant
  // fields match bit-for-bit, else mint a new one. Clusters have a handful of
  // VM types, so a linear scan over classes is cheaper than any hashing.
  int link_class = -1;
  for (int c = 0; c < num_link_classes(); ++c) {
    const NodeSpec& rep = nodes_[static_cast<size_t>(link_class_specs_[static_cast<size_t>(c)])];
    if (rep.intra_bandwidth_bps == spec.intra_bandwidth_bps &&
        rep.intra_latency_s == spec.intra_latency_s &&
        rep.nic_bandwidth_bps == spec.nic_bandwidth_bps) {
      link_class = c;
      break;
    }
  }
  if (link_class < 0) {
    link_class = num_link_classes();
    link_class_specs_.push_back(id);
  }
  node_link_class_.push_back(link_class);
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

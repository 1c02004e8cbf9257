#include "src/net/topology.h"

#include <cmath>
#include <utility>

namespace varuna {

Result<std::monostate> FabricSpec::Validate() const {
  const bool stalls = stall_probability > 0.0;
  // (holds, message); each message starts with the field it constrains.
  const std::pair<bool, const char*> rules[] = {
      // A negative sigma would silently mean "no jitter".
      {std::isfinite(jitter_sigma) && jitter_sigma >= 0.0,
       "jitter_sigma must be >= 0 and finite"},
      {stall_probability >= 0.0 && stall_probability <= 1.0,
       "stall_probability must be in [0, 1]"},
      // Otherwise the first stall drawn would abort mid-run.
      {!stalls || (std::isfinite(stall_mean_s) && stall_mean_s > 0.0),
       "stall_mean_s must be > 0 and finite when stall_probability > 0"},
      {jitter_sigma == 0.0 || base_latency_s > 0.0,
       "base_latency_s must be > 0 when jitter_sigma > 0"},
  };
  for (const auto& [holds, message] : rules) {
    if (!holds) {
      return Result<std::monostate>::Error(message);
    }
  }
  return std::monostate{};
}

Topology::Topology(FabricSpec fabric)
    : fabric_(fabric),
      fabric_mean_latency_s_(fabric.base_latency_s +
                             fabric.stall_probability * fabric.stall_mean_s) {
  const Result<std::monostate> valid = fabric_.Validate();
  VARUNA_CHECK(valid.ok()) << "invalid FabricSpec: " << valid.error();
}

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

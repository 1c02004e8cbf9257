// Cluster network topology: nodes (VMs) with some number of GPUs each,
// an intra-node interconnect (PCIe or NVLink), a NIC, and a shared data-center
// fabric. This is the paper's "commodity networking" model: VM pairs may be
// routed through multiple levels of bottleneck switches (§7 experimental
// setup), which we capture as a fabric bandwidth cap and added latency/jitter.
//
// Hot-path contract: the testbed executor resolves link parameters once per
// simulated message and once per ring hop, so a node pair's link parameters
// (same-node intra link vs cross-node NIC+fabric) come from flat storage —
// node specs are immutable once added, the fabric's expected latency is
// folded at construction, and PairClass() resolves a pair with two unchecked
// loads.
// AddNode() is append-only (GpuIds stay stable across morphs and sessions add
// nodes continuously), so everything derived from existing nodes stays valid
// forever; nothing here is ever invalidated.
#ifndef SRC_NET_TOPOLOGY_H_
#define SRC_NET_TOPOLOGY_H_

#include <vector>

#include "src/common/check.h"

namespace varuna {

using GpuId = int;
using NodeId = int;

struct NodeSpec {
  int num_gpus = 1;
  // Intra-node GPU-to-GPU link (PCIe ~ 100 Gbps on NC24, NVLink 2.4 Tbps on DGX-2).
  double intra_bandwidth_bps = 0.0;  // bytes/sec
  double intra_latency_s = 0.0;
  // NIC shared by all GPUs of the node.
  double nic_bandwidth_bps = 0.0;  // bytes/sec
};

struct FabricSpec {
  // Per-flow cap through the data-center fabric (bottleneck switches). A flow
  // never gets more than min(src NIC share, dst NIC share, fabric cap).
  double per_flow_bandwidth_bps = 0.0;  // bytes/sec
  double base_latency_s = 0.0;          // propagation + switching, mean
  // Log-normal jitter sigma applied to cross-node latency samples. 0 = none.
  double jitter_sigma = 0.0;
  // Occasional long-tail stall: with probability `stall_probability` a
  // transfer is delayed by an extra Exponential(stall_mean_s). Models TCP
  // retransmits / incast on oversubscribed switches.
  double stall_probability = 0.0;
  double stall_mean_s = 0.0;
};

// Link-class parameters of one (node, node) pair, resolved for the cost
// models: either the intra-node link or the NIC/fabric class.
struct LinkClass {
  // Same-node: the intra link bandwidth. Cross-node: min of the two NIC
  // bandwidths, *before* dividing by concurrent flows and capping at the
  // fabric per-flow limit (both depend on the caller's flow count).
  double bandwidth_bps = 0.0;
  // Mean one-way latency of the class (cross-node folds the expected stall).
  double latency_s = 0.0;
  bool crosses_node = false;
};

class Topology {
 public:
  explicit Topology(FabricSpec fabric)
      : fabric_(fabric),
        fabric_mean_latency_s_(fabric.base_latency_s +
                               fabric.stall_probability * fabric.stall_mean_s) {}

  // Adds a node; returns its id. GPUs get consecutive global ids.
  NodeId AddNode(const NodeSpec& spec);

  // Removes nothing — preempted VMs are handled at the cluster layer by
  // excluding their GPUs from placements; the topology stays append-only so
  // GpuIds remain stable across morphs.

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_gpus() const { return static_cast<int>(gpu_to_node_.size()); }

  NodeId NodeOf(GpuId gpu) const {
    VARUNA_CHECK_GE(gpu, 0);
    VARUNA_CHECK_LT(gpu, num_gpus());
    return gpu_to_node_[static_cast<size_t>(gpu)];
  }

  const NodeSpec& Node(NodeId node) const {
    VARUNA_CHECK_GE(node, 0);
    VARUNA_CHECK_LT(node, num_nodes());
    return nodes_[static_cast<size_t>(node)];
  }

  // Global GPU ids hosted by `node`.
  std::vector<GpuId> GpusOfNode(NodeId node) const;

  bool SameNode(GpuId a, GpuId b) const { return NodeOf(a) == NodeOf(b); }

  const FabricSpec& fabric() const { return fabric_; }

  // --- Hot-path accessors (per-message cost resolution) ---------------------
  // Unchecked GpuId -> NodeId map; callers pass ids they obtained from the
  // topology itself (placements only hold valid ids).
  NodeId NodeOfFast(GpuId gpu) const { return gpu_to_node_[static_cast<size_t>(gpu)]; }

  // Class parameters of the (NodeOf(src), NodeOf(dst)) pair: two unchecked
  // loads and a branch, no bounds re-validation.
  LinkClass PairClass(NodeId a, NodeId b) const {
    const NodeSpec& node_a = nodes_[static_cast<size_t>(a)];
    if (a == b) {
      return LinkClass{node_a.intra_bandwidth_bps, node_a.intra_latency_s, false};
    }
    const NodeSpec& node_b = nodes_[static_cast<size_t>(b)];
    const double nic = node_a.nic_bandwidth_bps < node_b.nic_bandwidth_bps
                           ? node_a.nic_bandwidth_bps
                           : node_b.nic_bandwidth_bps;
    return LinkClass{nic, fabric_mean_latency_s_, true};
  }

 private:
  FabricSpec fabric_;
  // E[latency] of one cross-node message: base + stall_probability * mean
  // stall, folded once at construction.
  double fabric_mean_latency_s_ = 0.0;
  std::vector<NodeSpec> nodes_;
  std::vector<NodeId> gpu_to_node_;
};

}  // namespace varuna

#endif  // SRC_NET_TOPOLOGY_H_

// VM types from the paper's evaluation (§7): Azure NC6_v3 (1 GPU) and
// NC24_v3 (4 GPUs) low-priority VMs on 10 Gbps Ethernet, and DGX-2 nodes
// (16 GPUs, NVLink, 200 Gbps Infiniband) forming the "hypercluster".
#ifndef SRC_CLUSTER_VM_H_
#define SRC_CLUSTER_VM_H_

#include <string>

#include "src/cluster/gpu.h"
#include "src/common/units.h"
#include "src/net/topology.h"

namespace varuna {

struct VmType {
  std::string name;
  NodeSpec node;  // Network characteristics contributed to the topology.
  GpuSpec gpu;    // All GPUs of a VM are identical.
};

// Azure NC6_v3: 1x V100, 10 Gbps NIC.
VmType Nc6V3();

// Azure NC24_v3: 4x V100 on PCIe, 10 Gbps NIC shared by the 4 GPUs.
VmType Nc24V3();

// DGX-2: 16x V100 on NVLink (2.4 Tbps all-to-all), 200 Gbps Infiniband.
VmType Dgx2();

// Fabric presets.
FabricSpec CommodityFabric();     // Multi-level bottleneck switches, jitter, tail stalls.
FabricSpec HyperclusterFabric();  // Infiniband: high bandwidth, microsecond latency.

}  // namespace varuna

#endif  // SRC_CLUSTER_VM_H_

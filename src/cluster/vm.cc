#include "src/cluster/vm.h"

namespace varuna {

VmType Nc6V3() {
  VmType vm;
  vm.name = "NC6_v3";
  vm.node.num_gpus = 1;
  vm.node.intra_bandwidth_bps = GbpsToBytesPerSec(96.0);  // PCIe 3.0 x16 ~ 12 GB/s
  vm.node.intra_latency_s = 10.0 * kMicrosecond;
  vm.node.nic_bandwidth_bps = GbpsToBytesPerSec(10.0);
  return vm;
}

VmType Nc24V3() {
  VmType vm = Nc6V3();
  vm.name = "NC24_v3";
  vm.node.num_gpus = 4;
  return vm;
}

VmType Dgx2() {
  VmType vm;
  vm.name = "DGX-2";
  vm.node.num_gpus = 16;
  // NVLink via NVSwitch: 2.4 Tbps all-to-all (~300 GB/s per GPU).
  vm.node.intra_bandwidth_bps = GbpsToBytesPerSec(2400.0);
  vm.node.intra_latency_s = 3.0 * kMicrosecond;
  vm.node.nic_bandwidth_bps = GbpsToBytesPerSec(200.0);  // Infiniband.
  return vm;
}

FabricSpec CommodityFabric() {
  FabricSpec fabric;
  // VMs share a region with no locality guarantee; flows are routed through
  // multiple levels of oversubscribed switches (§7 setup), so a single flow
  // rarely sees the full 10 Gbps NIC rate.
  fabric.per_flow_bandwidth_bps = GbpsToBytesPerSec(5.0);
  fabric.base_latency_s = 300.0 * kMicrosecond;
  fabric.jitter_sigma = 0.35;
  // TCP tail stalls: retransmission timeouts on oversubscribed switches park
  // a flow for RTO_min-scale delays (~250 ms), a few times per hundred
  // transfers. These are the latency spikes Varuna's opportunistic schedule
  // is designed to ride out (§3.2).
  fabric.stall_probability = 0.02;
  fabric.stall_mean_s = 250.0 * kMillisecond;
  return fabric;
}

FabricSpec HyperclusterFabric() {
  FabricSpec fabric;
  fabric.per_flow_bandwidth_bps = GbpsToBytesPerSec(100.0);
  fabric.base_latency_s = 5.0 * kMicrosecond;
  fabric.jitter_sigma = 0.05;
  fabric.stall_probability = 0.0;
  fabric.stall_mean_s = 0.0;
  return fabric;
}

}  // namespace varuna

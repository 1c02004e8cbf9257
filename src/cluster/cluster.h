// The cluster holds VM instances (each contributing a topology node), their
// liveness (spot preemptions) and performance state (fail-stutter slowdowns).
// The topology is append-only so GpuIds stay stable; preempted VMs are simply
// excluded from the active set — replacement capacity arrives as new VMs.
#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cluster/vm.h"
#include "src/common/check.h"
#include "src/net/network.h"
#include "src/net/topology.h"

namespace varuna {

using VmId = int;

struct VmInstance {
  VmType type;
  NodeId node = -1;
  bool active = true;
  // Compute-time multiplier; > 1 while the VM is fail-stuttering (§4.6).
  double slow_factor = 1.0;
};

class Cluster {
 public:
  explicit Cluster(const FabricSpec& fabric) : topology_(fabric), network_(&topology_) {}

  VmId AddVm(const VmType& type);

  // Convenience: add `count` identical VMs.
  void AddVms(const VmType& type, int count);

  // Deactivates `vm` and notifies every registered observer, in registration
  // order. Idempotent: preempting an already-inactive VM is a no-op and does
  // not re-notify (chaos kills and market reclaims can race on the same VM).
  void Preempt(VmId vm);
  bool IsActive(VmId vm) const { return Vm(vm).active; }

  // Observers fire synchronously from Preempt() exactly once per VM death.
  // Registration order is the notification order, so runs stay deterministic.
  // Used by the checkpoint store (local shards die with their VM) and the
  // fail-stutter injector (a preempted VM must leave the exclusion set).
  using PreemptionObserver = std::function<void(VmId)>;
  void AddPreemptionObserver(PreemptionObserver observer);

  void SetSlowFactor(VmId vm, double factor);

  // Bumped by every change a placement's measurement can observe: AddVm, an
  // effective Preempt and SetSlowFactor. Reads never move it, so a caller
  // that cached something derived from cluster state re-derives it only when
  // the generation it recorded is stale.
  uint64_t generation() const { return generation_; }

  int num_vms() const { return static_cast<int>(vms_.size()); }
  const VmInstance& Vm(VmId vm) const {
    VARUNA_CHECK_GE(vm, 0);
    VARUNA_CHECK_LT(vm, num_vms());
    return vms_[static_cast<size_t>(vm)];
  }

  VmId VmOfGpu(GpuId gpu) const {
    VARUNA_CHECK_GE(gpu, 0);
    VARUNA_CHECK_LT(gpu, static_cast<GpuId>(gpu_to_vm_.size()));
    return gpu_to_vm_[static_cast<size_t>(gpu)];
  }
  const GpuSpec& Gpu(GpuId gpu) const { return Vm(VmOfGpu(gpu)).type.gpu; }
  double SlowFactor(GpuId gpu) const { return Vm(VmOfGpu(gpu)).slow_factor; }
  bool GpuActive(GpuId gpu) const { return Vm(VmOfGpu(gpu)).active; }

  // Active GPUs ordered by node, which makes contiguous slices node-packed —
  // the property the placement policy relies on.
  std::vector<GpuId> ActiveGpus() const;
  // Maintained count, equal to ActiveGpus().size() without building it.
  int NumActiveGpus() const { return num_active_gpus_; }

  const Topology& topology() const { return topology_; }
  const Network& network() const { return network_; }

 private:
  Topology topology_;
  Network network_;
  std::vector<VmInstance> vms_;
  std::vector<VmId> gpu_to_vm_;
  std::vector<PreemptionObserver> preemption_observers_;
  uint64_t generation_ = 0;
  int num_active_gpus_ = 0;
};

}  // namespace varuna

#endif  // SRC_CLUSTER_CLUSTER_H_

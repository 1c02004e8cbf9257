#include "src/cluster/cluster.h"

#include "src/common/check.h"

namespace varuna {

VmId Cluster::AddVm(const VmType& type) {
  const VmId id = num_vms();
  VmInstance instance;
  instance.type = type;
  instance.node = topology_.AddNode(type.node);
  vms_.push_back(instance);
  for (int g = 0; g < type.node.num_gpus; ++g) {
    gpu_to_vm_.push_back(id);
  }
  num_active_gpus_ += type.node.num_gpus;
  ++generation_;
  return id;
}

void Cluster::AddVms(const VmType& type, int count) {
  for (int i = 0; i < count; ++i) {
    AddVm(type);
  }
}

void Cluster::Preempt(VmId vm) {
  VARUNA_CHECK_GE(vm, 0);
  VARUNA_CHECK_LT(vm, num_vms());
  if (!vms_[static_cast<size_t>(vm)].active) {
    return;  // Already dead; observers were notified the first time.
  }
  vms_[static_cast<size_t>(vm)].active = false;
  num_active_gpus_ -= vms_[static_cast<size_t>(vm)].type.node.num_gpus;
  ++generation_;
  for (const PreemptionObserver& observer : preemption_observers_) {
    observer(vm);
  }
}

void Cluster::AddPreemptionObserver(PreemptionObserver observer) {
  preemption_observers_.push_back(std::move(observer));
}

void Cluster::SetSlowFactor(VmId vm, double factor) {
  VARUNA_CHECK_GE(vm, 0);
  VARUNA_CHECK_LT(vm, num_vms());
  VARUNA_CHECK_GE(factor, 1.0);
  vms_[static_cast<size_t>(vm)].slow_factor = factor;
  ++generation_;
}

std::vector<GpuId> Cluster::ActiveGpus() const {
  std::vector<GpuId> gpus;
  for (GpuId g = 0; g < static_cast<GpuId>(gpu_to_vm_.size()); ++g) {
    if (GpuActive(g)) {
      gpus.push_back(g);
    }
  }
  return gpus;
}

}  // namespace varuna

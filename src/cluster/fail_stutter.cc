#include "src/cluster/fail_stutter.h"

#include <vector>

#include "src/common/check.h"

namespace varuna {

void FailStutterInjector::Start() {
  VARUNA_CHECK(!started_) << "FailStutterInjector started twice";
  started_ = true;
  cluster_->AddPreemptionObserver([this](VmId vm) { OnVmPreempted(vm); });
  if (options_.autonomous_onsets) {
    ScheduleNextOnset();
  }
}

void FailStutterInjector::ScheduleNextOnset() {
  engine_->Schedule(rng_.Exponential(kMeanStutterOnsetIntervalS), [this] { Onset(); });
}

VmId FailStutterInjector::PickVictim() {
  std::vector<VmId> candidates;
  for (VmId vm = 0; vm < cluster_->num_vms(); ++vm) {
    if (cluster_->IsActive(vm) && cluster_->Vm(vm).slow_factor == 1.0 &&
        degraded_.count(vm) == 0) {
      candidates.push_back(vm);
    }
  }
  if (candidates.empty()) {
    return -1;
  }
  return candidates[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
}

void FailStutterInjector::BeginEpisode(VmId victim, double factor, double duration_s) {
  const int64_t generation = next_generation_++;
  degraded_[victim] = generation;
  ++episodes_started_;
  cluster_->SetSlowFactor(victim, factor);
  engine_->Schedule(duration_s, [this, victim, generation] { EndEpisode(victim, generation); });
}

void FailStutterInjector::EndEpisode(VmId victim, int64_t generation) {
  const auto it = degraded_.find(victim);
  if (it == degraded_.end() || it->second != generation) {
    return;  // Victim preempted (or superseded) meanwhile; nothing to undo.
  }
  degraded_.erase(it);
  ++episodes_ended_;
  cluster_->SetSlowFactor(victim, 1.0);
}

void FailStutterInjector::OnVmPreempted(VmId vm) {
  // The fix for the stale-exclusion leak: a preempted victim leaves the set
  // immediately. Its pending EndEpisode event becomes a generation-mismatch
  // no-op, and the slot never pins future accounting.
  if (degraded_.erase(vm) > 0) {
    ++episodes_cleared_by_preemption_;
  }
}

void FailStutterInjector::Onset() {
  const VmId victim = PickVictim();
  if (victim >= 0) {
    const double factor = rng_.Uniform(kMinSlowFactor, kMaxSlowFactor);
    BeginEpisode(victim, factor, rng_.Exponential(kMeanStutterDurationS));
  }
  ScheduleNextOnset();
}

int FailStutterInjector::Burst(int count, double slow_factor, double duration_s) {
  VARUNA_CHECK_GT(slow_factor, 1.0);
  VARUNA_CHECK_GT(duration_s, 0.0);
  int started = 0;
  for (int i = 0; i < count; ++i) {
    const VmId victim = PickVictim();
    if (victim < 0) {
      break;
    }
    BeginEpisode(victim, slow_factor, duration_s);
    ++started;
  }
  return started;
}

}  // namespace varuna

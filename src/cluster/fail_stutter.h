// Fail-stutter fault injection (§4.6): on pre-emptible VMs, individual
// machines intermittently run slower than the rest, "often by as much as 30%".
// The injector randomly degrades active VMs for exponentially-distributed
// episodes; the manager is expected to notice via heartbeat outliers.
//
// The injector tracks its current victims in an explicit exclusion set (so it
// never stacks episodes on one VM, and never stomps a slow factor some other
// injector — e.g. the chaos engine — set). A VM that is preempted mid-episode
// is removed from the set immediately via the cluster's preemption observer;
// without that, dead VMs would accumulate in the exclusion set forever (the
// same stale-id leak class as the PR-1 SimEngine cancel bug).
#ifndef SRC_CLUSTER_FAIL_STUTTER_H_
#define SRC_CLUSTER_FAIL_STUTTER_H_

#include <cstdint>
#include <map>
#include <utility>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/sim/engine.h"

namespace varuna {

// Autonomous episodes draw their slow factor uniformly in [kMinSlowFactor, kMaxSlowFactor].
constexpr double kMinSlowFactor = 1.15;
constexpr double kMaxSlowFactor = 1.35;
// Autonomous onsets arrive across the whole cluster with exponential gaps of
// this mean, and each episode lasts Exponential(kMeanStutterDurationS).
constexpr double kMeanStutterOnsetIntervalS = 2.0 * kHour;
constexpr double kMeanStutterDurationS = 30.0 * kMinute;

struct FailStutterOptions {
  // false disables the autonomous onset process (chaos campaigns then drive
  // episodes exclusively through Burst()).
  bool autonomous_onsets = true;
};

class FailStutterInjector {
 public:
  FailStutterInjector(SimEngine* engine, Cluster* cluster, Rng rng, FailStutterOptions options)
      : engine_(engine), cluster_(cluster), rng_(std::move(rng)), options_(options) {}

  // Begins injecting and registers the preemption observer. Call once before
  // running the engine.
  void Start();

  // Chaos hook: degrades up to `count` currently-healthy VMs by `slow_factor`
  // for `duration_s` each, immediately. Returns how many episodes started.
  int Burst(int count, double slow_factor, double duration_s);

  bool IsDegraded(VmId vm) const { return degraded_.count(vm) > 0; }
  int active_episodes() const { return static_cast<int>(degraded_.size()); }
  int64_t episodes_started() const { return episodes_started_; }
  int64_t episodes_ended() const { return episodes_ended_; }
  int64_t episodes_cleared_by_preemption() const { return episodes_cleared_by_preemption_; }

 private:
  void ScheduleNextOnset();
  void Onset();
  // Picks an active, healthy (factor 1.0), not-already-degraded VM; -1 if none.
  VmId PickVictim();
  void BeginEpisode(VmId victim, double factor, double duration_s);
  void EndEpisode(VmId victim, int64_t generation);
  void OnVmPreempted(VmId vm);

  SimEngine* engine_;
  Cluster* cluster_;
  Rng rng_;
  FailStutterOptions options_;
  bool started_ = false;
  // Current victims, keyed by episode generation so a stale end-of-episode
  // event (its VM preempted meanwhile) is a detectable no-op.
  std::map<VmId, int64_t> degraded_;
  int64_t next_generation_ = 0;
  int64_t episodes_started_ = 0;
  int64_t episodes_ended_ = 0;
  int64_t episodes_cleared_by_preemption_ = 0;
};

}  // namespace varuna

#endif  // SRC_CLUSTER_FAIL_STUTTER_H_

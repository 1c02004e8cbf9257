// Stochastic spot-VM market. Azure low-priority capacity fluctuates with
// data-center load; the paper (Fig. 3) observes that 1-GPU VMs are far more
// available than 4-GPU VMs. We model per-pool capacity as a mean-reverting
// process; granted VMs additionally face a baseline preemption hazard.
//
// The market only *signals* grants and preemptions, through observers; gluing
// those to a Cluster (and to job morphing) is the manager's job.
#ifndef SRC_CLUSTER_SPOT_MARKET_H_
#define SRC_CLUSTER_SPOT_MARKET_H_

#include <functional>
#include <vector>

#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/sim/engine.h"

namespace varuna {

struct SpotPoolDynamics {
  // Long-run mean fraction of `max_vms` that is obtainable.
  double mean_availability = 0.7;
  // Mean-reversion speed (1/s) and volatility of the availability process.
  double reversion_rate = 1.0 / 3600.0;
  double volatility = 0.15;  // Per sqrt(hour).
  // Baseline per-VM preemption hazard (1/s), independent of capacity drops.
  double preemption_hazard = 1.0 / (8.0 * 3600.0);
  // How many VM grants the provisioning API returns per tick at most.
  int max_grants_per_tick = 8;
  // Eviction hysteresis: capacity wiggles smaller than this are absorbed
  // (real spot markets evict in bursts when capacity genuinely drops, not on
  // every fluctuation). -1 = auto: max(2, max_vms / 32).
  int reclaim_slack_vms = -1;
};

class SpotMarket {
 public:
  using MarketVmId = int;

  SpotMarket(SimEngine* engine, Rng rng, SimTime tick_interval = 60.0);

  // Registers a pool of up to `max_vms` VMs of `type`. Returns the pool index.
  int AddPool(const VmType& type, int max_vms, const SpotPoolDynamics& dynamics);

  // Sets the standing demand for a pool (the manager "periodically keeps
  // trying to grow the cluster", §4.6). Grants never exceed demand.
  void SetDemand(int pool, int vms);

  // Changes the pool's long-run mean availability (capacity regime change —
  // e.g. a datacenter-wide load spike). The availability process reverts
  // toward the new mean at the configured rate.
  void SetMeanAvailability(int pool, double mean);

  // Chaos hooks (src/chaos): adversarial event timings the organic dynamics
  // cannot be steered into on demand.
  //
  // Immediately reclaims up to `count` granted VMs from the pool (uniformly at
  // random via the market Rng, so storms replay deterministically). Returns
  // how many were actually preempted.
  int ForcePreempt(int pool, int count);
  // Instantly collapses the pool's availability to `fraction` of max_vms and
  // reclaims every granted VM above the new capacity (no hysteresis — this
  // models a datacenter-wide eviction wave, not a wiggle). The mean is left
  // unchanged, so availability reverts afterwards unless the caller also
  // lowers it with SetMeanAvailability().
  void CrashAvailability(int pool, double fraction);

  // Subscribers to the grant/preemption stream, fired in registration order
  // for every pool: a grant observer when a requested VM is allocated, a
  // preempt observer when a granted VM is reclaimed (capacity drop, baseline
  // hazard or a chaos hook). Observers cannot be removed or replaced, so one
  // subscriber never steals another's events.
  using GrantObserver = std::function<void(int pool, MarketVmId, const VmType&)>;
  using PreemptObserver = std::function<void(int pool, MarketVmId)>;
  void AddGrantObserver(GrantObserver observer);
  void AddPreemptObserver(PreemptObserver observer);

  // Starts the tick loop. Must be called once before running the engine.
  void Start();

  int GrantedVms(int pool) const;
  int GrantedGpus(int pool) const;
  // Current obtainable capacity (VM count) of the pool.
  int Capacity(int pool) const;
  int PoolMaxVms(int pool) const;
  // The pool's true stochastic parameters. For the oracle-mode availability
  // predictor and diagnostics only — online policy code must *learn* from the
  // observed stream instead (the liveput predictor contract, DESIGN.md §4).
  const SpotPoolDynamics& PoolDynamics(int pool) const;

 private:
  struct GrantedVm {
    MarketVmId id;
    int pool;
  };
  struct Pool {
    VmType type;
    int max_vms = 0;
    SpotPoolDynamics dynamics;
    double availability = 0.0;  // In [0, 1].
    int demand = 0;
    int granted = 0;
  };

  void Tick();
  void PreemptOne(int pool);

  SimEngine* engine_;
  Rng rng_;
  SimTime tick_interval_;
  std::vector<Pool> pools_;
  std::vector<GrantedVm> granted_;
  MarketVmId next_vm_id_ = 0;
  std::vector<GrantObserver> grant_observers_;
  std::vector<PreemptObserver> preempt_observers_;
  bool started_ = false;
};

}  // namespace varuna

#endif  // SRC_CLUSTER_SPOT_MARKET_H_

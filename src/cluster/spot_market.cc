#include "src/cluster/spot_market.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace varuna {

SpotMarket::SpotMarket(SimEngine* engine, Rng rng, SimTime tick_interval)
    : engine_(engine), rng_(std::move(rng)), tick_interval_(tick_interval) {
  VARUNA_CHECK_GT(tick_interval, 0.0);
}

int SpotMarket::AddPool(const VmType& type, int max_vms, const SpotPoolDynamics& dynamics) {
  VARUNA_CHECK_GT(max_vms, 0);
  Pool pool;
  pool.type = type;
  pool.max_vms = max_vms;
  pool.dynamics = dynamics;
  pool.availability = dynamics.mean_availability;
  pools_.push_back(pool);
  return static_cast<int>(pools_.size()) - 1;
}

void SpotMarket::SetDemand(int pool, int vms) {
  VARUNA_CHECK_GE(vms, 0);
  pools_.at(static_cast<size_t>(pool)).demand = vms;
}

void SpotMarket::SetMeanAvailability(int pool, double mean) {
  VARUNA_CHECK(mean >= 0.0 && mean <= 1.0);
  pools_.at(static_cast<size_t>(pool)).dynamics.mean_availability = mean;
}

int SpotMarket::ForcePreempt(int pool, int count) {
  VARUNA_CHECK_GE(count, 0);
  Pool& p = pools_.at(static_cast<size_t>(pool));
  int preempted = 0;
  while (preempted < count && p.granted > 0) {
    PreemptOne(pool);
    ++preempted;
  }
  return preempted;
}

void SpotMarket::CrashAvailability(int pool, double fraction) {
  VARUNA_CHECK(fraction >= 0.0 && fraction <= 1.0);
  Pool& p = pools_.at(static_cast<size_t>(pool));
  p.availability = fraction;
  const int capacity = Capacity(pool);
  while (p.granted > capacity) {
    PreemptOne(pool);
  }
}

void SpotMarket::Start() {
  VARUNA_CHECK(!started_) << "SpotMarket started twice";
  started_ = true;
  engine_->Schedule(tick_interval_, [this] { Tick(); });
}

void SpotMarket::AddGrantObserver(GrantObserver observer) {
  grant_observers_.push_back(std::move(observer));
}

void SpotMarket::AddPreemptObserver(PreemptObserver observer) {
  preempt_observers_.push_back(std::move(observer));
}

int SpotMarket::GrantedVms(int pool) const { return pools_.at(static_cast<size_t>(pool)).granted; }

int SpotMarket::GrantedGpus(int pool) const {
  const Pool& p = pools_.at(static_cast<size_t>(pool));
  return p.granted * p.type.node.num_gpus;
}

int SpotMarket::Capacity(int pool) const {
  const Pool& p = pools_.at(static_cast<size_t>(pool));
  return static_cast<int>(std::lround(p.availability * p.max_vms));
}

int SpotMarket::PoolMaxVms(int pool) const {
  return pools_.at(static_cast<size_t>(pool)).max_vms;
}

const SpotPoolDynamics& SpotMarket::PoolDynamics(int pool) const {
  return pools_.at(static_cast<size_t>(pool)).dynamics;
}

void SpotMarket::PreemptOne(int pool) {
  // Reclaim a uniformly random granted VM from the pool.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < granted_.size(); ++i) {
    if (granted_[i].pool == pool) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return;
  }
  const size_t victim =
      candidates[static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
  const MarketVmId id = granted_[victim].id;
  granted_.erase(granted_.begin() + static_cast<long>(victim));
  --pools_[static_cast<size_t>(pool)].granted;
  for (const PreemptObserver& observer : preempt_observers_) {
    observer(pool, id);
  }
}

void SpotMarket::Tick() {
  const double dt = tick_interval_;
  for (size_t pool_index = 0; pool_index < pools_.size(); ++pool_index) {
    Pool& pool = pools_[pool_index];
    // Mean-reverting availability (Ornstein-Uhlenbeck, Euler step, clamped).
    const SpotPoolDynamics& dyn = pool.dynamics;
    const double noise = dyn.volatility * std::sqrt(dt / 3600.0) * rng_.Gaussian();
    pool.availability += dyn.reversion_rate * (dyn.mean_availability - pool.availability) * dt +
                         noise;
    pool.availability = std::clamp(pool.availability, 0.0, 1.0);

    // Baseline preemption hazard per granted VM.
    const double preempt_probability = 1.0 - std::exp(-dyn.preemption_hazard * dt);
    const int granted_before = pool.granted;
    for (int v = 0; v < granted_before; ++v) {
      if (rng_.Bernoulli(preempt_probability)) {
        PreemptOne(static_cast<int>(pool_index));
      }
    }

    // Capacity drops reclaim VMs beyond what the pool can sustain, with
    // hysteresis: small wiggles are absorbed, genuine drops evict in a burst.
    const int capacity = Capacity(static_cast<int>(pool_index));
    const int slack = dyn.reclaim_slack_vms >= 0 ? dyn.reclaim_slack_vms
                                                 : std::max(2, pool.max_vms / 32);
    if (pool.granted > capacity + slack) {
      while (pool.granted > capacity) {
        PreemptOne(static_cast<int>(pool_index));
      }
    }

    // Fill demand up to capacity, rate-limited per tick.
    int grants = std::min({pool.demand - pool.granted, capacity - pool.granted,
                           pool.dynamics.max_grants_per_tick});
    while (grants-- > 0) {
      const MarketVmId id = next_vm_id_++;
      granted_.push_back(GrantedVm{id, static_cast<int>(pool_index)});
      ++pool.granted;
      for (const GrantObserver& observer : grant_observers_) {
        observer(static_cast<int>(pool_index), id, pool.type);
      }
    }
  }
  engine_->Schedule(tick_interval_, [this] { Tick(); });
}

}  // namespace varuna

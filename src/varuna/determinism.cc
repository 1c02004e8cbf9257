#include "src/varuna/determinism.h"

#include <cstring>
#include <memory>
#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/spot_market.h"
#include "src/cluster/vm.h"
#include "src/common/units.h"
#include "src/sim/engine.h"

namespace varuna {
namespace {

// FNV-1a, 64-bit.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }

  void U64(uint64_t value) { Bytes(&value, sizeof(value)); }

  void F64(double value) {
    // Hash the IEEE-754 bit pattern: the determinism contract is bit-identity,
    // not approximate equality.
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }

  void Str(const std::string& value) {
    U64(value.size());
    Bytes(value.data(), value.size());
  }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// One name per ReplayRecord member, in declaration order: a member added to
// the record without a name here is a compile error, so nothing can join the
// replay contract unhashed.
void HashReplayRecord(const ReplayRecord& record, Fnv1a* fnv) {
  const auto& [minibatches_done, morphs, preemptions_hit, checkpoints, examples_processed,
               preemptions_survived, restarts, heartbeat_timeouts, morph_retries,
               reprovision_retries, degraded_intervals, shards_lost, minibatches_rolled_back,
               examples_rolled_back, last_restore_step, proactive_morphs, premigrated_shards,
               events, samples] = record;
  fnv->U64(static_cast<uint64_t>(minibatches_done));
  fnv->U64(static_cast<uint64_t>(morphs));
  fnv->U64(static_cast<uint64_t>(preemptions_hit));
  fnv->U64(static_cast<uint64_t>(checkpoints));
  fnv->F64(examples_processed);
  fnv->U64(static_cast<uint64_t>(preemptions_survived));
  fnv->U64(static_cast<uint64_t>(restarts));
  fnv->U64(static_cast<uint64_t>(heartbeat_timeouts));
  fnv->U64(static_cast<uint64_t>(morph_retries));
  fnv->U64(static_cast<uint64_t>(reprovision_retries));
  fnv->U64(static_cast<uint64_t>(degraded_intervals));
  fnv->U64(static_cast<uint64_t>(shards_lost));
  fnv->U64(static_cast<uint64_t>(minibatches_rolled_back));
  fnv->F64(examples_rolled_back);
  fnv->U64(static_cast<uint64_t>(last_restore_step));
  fnv->U64(static_cast<uint64_t>(proactive_morphs));
  fnv->U64(static_cast<uint64_t>(premigrated_shards));
  fnv->U64(events.size());
  for (const TimelineEvent& event : events) {
    fnv->F64(event.time_s);
  }
  for (const TimelineEvent& event : events) {
    fnv->Str(event.kind);
  }
  fnv->U64(samples.size());
  for (const TimelineSample& sample : samples) {
    fnv->F64(sample.time_s);
  }
  for (const TimelineSample& sample : samples) {
    fnv->F64(sample.examples_per_s);
  }
}

}  // namespace

DeterminismScenario DefaultDeterminismScenario(uint64_t seed) {
  DeterminismScenario scenario;
  scenario.spec = Gpt2_2_5B();
  scenario.options.total_batch = 2400;
  scenario.options.demand_vms = 30;
  scenario.options.checkpoint_every_minibatches = 5;
  scenario.options.seed = seed;
  return scenario;
}

uint64_t ElasticTrace::Fingerprint() const {
  Fnv1a fnv;
  fnv.U64(events_processed);
  fnv.F64(final_now_s);
  HashReplayRecord(*this, &fnv);
  return fnv.hash();
}

ElasticTrace CaptureElasticTrace(const SimEngine& engine, const ElasticTrainer& trainer) {
  return ElasticTrace{trainer.stats(), engine.events_processed(), engine.now()};
}

ElasticTrace RunElasticScenario(const DeterminismScenario& scenario) {
  SimEngine engine;
  Cluster cluster(CommodityFabric());
  // The market's Rng fork derives from the scenario seed so that two runs of
  // the same scenario share every stochastic draw.
  SpotMarket market(&engine, Rng(scenario.options.seed * 7919 + 17), 60.0);

  SpotPoolDynamics dynamics;
  dynamics.mean_availability = scenario.mean_availability;
  dynamics.volatility = scenario.volatility;
  dynamics.preemption_hazard = scenario.preemption_hazard_per_s;
  dynamics.max_grants_per_tick = 64;
  const int pool = market.AddPool(Nc6V3(), scenario.max_vms, dynamics);

  ElasticTrainer trainer(&engine, &cluster, &market, pool, Nc6V3(), scenario.spec,
                         scenario.options);
  trainer.Start();
  market.Start();
  engine.RunUntil(scenario.horizon_s);
  engine.CheckInvariants();
  trainer.CheckInvariants();
  return CaptureElasticTrace(engine, trainer);
}

}  // namespace varuna

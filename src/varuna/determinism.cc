#include "src/varuna/determinism.h"

#include "src/common/fnv1a.h"

namespace varuna {
namespace {

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
    fnv->Str(Name(event.kind));
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

}  // namespace varuna

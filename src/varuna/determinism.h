// Determinism harness (varuna-verify). The DES contract — equal-timestamp
// events fire in scheduling order, all randomness flows from one seeded Rng —
// promises that a fixed seed yields a *bit-identical* execution. The paper's
// elasticity claims (§4.3, Figure 8) are measured on exactly such runs, so a
// nondeterminism bug (iteration over pointer-keyed maps, wall-clock reads,
// uninitialised floats) would silently invalidate every number downstream.
//
// A session is run by the chaos campaign runner (src/chaos/chaos.h); with an
// empty ChaosPlan that is a plain seeded session. CaptureElasticTrace
// snapshots it into a trace whose fingerprint covers event counts, simulated
// times and the whole manager timeline at full double precision. Running the
// same session twice must produce traces for which `a == b` and
// `a.Fingerprint() == b.Fingerprint()` both hold.
#ifndef SRC_VARUNA_DETERMINISM_H_
#define SRC_VARUNA_DETERMINISM_H_

#include <cstdint>

#include "src/manager/elastic_trainer.h"
#include "src/sim/engine.h"

namespace varuna {

// Everything observable about one run, at full precision: the engine's
// counters plus the session's ReplayRecord, which is the replay contract.
// Two runs of the same session must compare equal member-by-member.
struct ElasticTrace : ReplayRecord {
  uint64_t events_processed = 0;
  double final_now_s = 0.0;

  bool operator==(const ElasticTrace&) const = default;

  // FNV-1a over the raw bit patterns of the engine counters and the record
  // (doubles hashed via their IEEE-754 bits, so "bit-identical" means exactly
  // that). Timeline events contribute their times and kinds, samples their
  // times and rates.
  uint64_t Fingerprint() const;
};

// Snapshots the observable state of a finished (or paused) session into a
// trace.
ElasticTrace CaptureElasticTrace(const SimEngine& engine, const ElasticTrainer& trainer);

}  // namespace varuna

#endif  // SRC_VARUNA_DETERMINISM_H_

// Determinism harness (varuna-verify). The DES contract — equal-timestamp
// events fire in scheduling order, all randomness flows from one seeded Rng —
// promises that a fixed seed yields a *bit-identical* execution. The paper's
// elasticity claims (§4.3, Figure 8) are measured on exactly such runs, so a
// nondeterminism bug (iteration over pointer-keyed maps, wall-clock reads,
// uninitialised floats) would silently invalidate every number downstream.
//
// RunElasticScenario() runs a full elastic-training session (spot market,
// preemptions, morphing, checkpoints) and captures a trace fingerprint that
// covers event counts, simulated times and the whole manager timeline at full
// double precision. Running the same scenario twice must produce traces for
// which `a == b` and `a.Fingerprint() == b.Fingerprint()` both hold.
#ifndef SRC_VARUNA_DETERMINISM_H_
#define SRC_VARUNA_DETERMINISM_H_

#include <cstdint>

#include "src/manager/elastic_trainer.h"
#include "src/model/transformer.h"
#include "src/sim/engine.h"

namespace varuna {

struct DeterminismScenario {
  TransformerSpec spec;
  // Spot-pool shape: churn on, so the trace exercises preemption + morph
  // paths, not just the steady state.
  int max_vms = 30;
  double mean_availability = 0.9;
  double volatility = 0.1;
  double preemption_hazard_per_s = 1.0 / (6.0 * 3600.0);
  // Session horizon in simulated seconds.
  double horizon_s = 2.0 * 3600.0;
  TrainerOptions options;  // options.seed seeds the whole run.
};

// Canned scenario used by tests and CI: GPT-2 2.5B on a churning 30-VM pool.
DeterminismScenario DefaultDeterminismScenario(uint64_t seed);

// Everything observable about one run, at full precision: the engine's
// counters plus the session's ReplayRecord, which is the replay contract.
// Two runs of the same scenario must compare equal member-by-member.
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
// trace. Shared by RunElasticScenario and the chaos campaign runner, so both
// fingerprint runs the same way.
ElasticTrace CaptureElasticTrace(const SimEngine& engine, const ElasticTrainer& trainer);

ElasticTrace RunElasticScenario(const DeterminismScenario& scenario);

}  // namespace varuna

#endif  // SRC_VARUNA_DETERMINISM_H_

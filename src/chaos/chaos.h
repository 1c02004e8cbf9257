// Chaos campaign engine (varuna-verify): seeded, deterministic fault
// injection against a full elastic-training session on the DES. A ChaosPlan
// is a list of timed actions — preemption storms, targeted kills of VMs
// holding checkpoint shards mid-flush, fail-stutter bursts, heartbeat
// drops, checkpoint-shard corruption, mid-morph preemptions and capacity
// crashes — either scripted or drawn from a seeded Rng. The ChaosEngine
// schedules them on the same engine the manager runs on, so every campaign
// is bit-replayable: same seed + same plan => identical ElasticTrace
// fingerprint (src/varuna/determinism.h). The property tests in
// tests/chaos_test.cc run dozens of random campaigns per seed and assert the
// recovery invariants the manager must hold under ANY fault interleaving.
#ifndef SRC_CHAOS_CHAOS_H_
#define SRC_CHAOS_CHAOS_H_

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fail_stutter.h"
#include "src/cluster/spot_market.h"
#include "src/common/rng.h"
#include "src/manager/elastic_trainer.h"
#include "src/model/transformer.h"
#include "src/sim/engine.h"
#include "src/varuna/determinism.h"

namespace varuna {

enum class ChaosActionKind : uint8_t {
  // Reclaims `count` granted VMs through the market (announced), spread over
  // `duration_s` — the classic eviction wave inside a checkpoint window.
  kPreemptionStorm,
  // Waits (polling, up to `duration_s`) until some checkpoint shards are
  // mid-flush, then kills up to `count` of their owner VMs directly at the
  // cluster — *unannounced*, so the manager must discover the deaths via
  // heartbeat timeout and resume must fall back over the lost shards.
  kTargetedShardKill,
  // Degrades `count` healthy VMs by slow factor 1 + `magnitude` for
  // `duration_s` each (FailStutterInjector::Burst).
  kFailStutterBurst,
  // Mutes heartbeats of `count` placement VMs for `duration_s`. The VMs keep
  // computing; the manager must decide via the timeout policy.
  kHeartbeatLoss,
  // Corrupts `count` shards of the newest usable checkpoint, forcing resume
  // to fall back to an older complete one.
  kCorruptShard,
  // Arms `count` market preemptions that fire in the middle of the *next*
  // restore window (killing a morph in flight).
  kMidMorphPreempt,
  // Collapses pool availability to `magnitude` (fraction of max) for
  // `duration_s`, then lets it revert — the degraded-mode trigger.
  kCapacityCrash,
};

struct ChaosAction {
  double at_s = 0.0;
  ChaosActionKind kind = ChaosActionKind::kPreemptionStorm;
  int count = 1;
  double duration_s = 300.0;
  double magnitude = 0.0;
};

struct ChaosPlan {
  std::vector<ChaosAction> actions;

  static ChaosPlan Scripted(std::vector<ChaosAction> actions);
  // Draws `num_actions` actions with kinds, times and intensities from `rng`,
  // spread over [5%, 90%] of the horizon.
  static ChaosPlan Random(Rng* rng, double horizon_s, int num_actions);
};

// Schedules a plan's actions against a live session. All randomness flows
// from the injected Rng; all timing from the shared SimEngine.
class ChaosEngine {
 public:
  ChaosEngine(SimEngine* engine, Cluster* cluster, SpotMarket* market, int market_pool,
              ElasticTrainer* trainer, FailStutterInjector* stutter,
              double baseline_mean_availability, Rng rng, ChaosPlan plan);

  // Schedules every action and hooks the trainer's morph observer (for
  // kMidMorphPreempt). Call once before running the engine.
  void Start();

  int64_t vms_killed() const { return vms_killed_; }
  int64_t shards_corrupted() const { return shards_corrupted_; }

 private:
  void Fire(const ChaosAction& action);
  // Feeds the trainer's oracle predictor the storm schedule (no-op for the
  // reactive and online-predictor policies).
  void ForecastAction(const ChaosAction& action);
  // Polls until shards are mid-flush (or `deadline_s` passes), then kills up
  // to `count` owner VMs unannounced.
  void PollShardKill(double deadline_s, int count);
  void OnMorph(double restore_delay_s);

  SimEngine* engine_;
  Cluster* cluster_;
  SpotMarket* market_;
  int market_pool_;
  ElasticTrainer* trainer_;
  FailStutterInjector* stutter_;
  double baseline_mean_availability_;
  Rng rng_;
  ChaosPlan plan_;
  bool started_ = false;
  int armed_mid_morph_ = 0;
  int64_t vms_killed_ = 0;
  int64_t shards_corrupted_ = 0;
};

// A full self-contained campaign: scenario shape + trainer options + plan.
struct ChaosCampaignSpec {
  TransformerSpec spec;  // Defaults to Gpt2Medium() (set in the factories).
  int max_vms = 20;
  double mean_availability = 0.9;
  double volatility = 0.1;
  double preemption_hazard_per_s = 1.0 / (6.0 * 3600.0);
  double horizon_s = 1.5 * 3600.0;
  TrainerOptions options;  // options.seed seeds the whole campaign.
  ChaosPlan plan;
};

// Campaign with sensible defaults and an empty plan (callers script it).
ChaosCampaignSpec DefaultChaosCampaign(uint64_t seed);
// Campaign whose plan (kinds, times, intensities) is drawn from `seed` — the
// property-test generator.
ChaosCampaignSpec RandomChaosCampaign(uint64_t seed);
// Storm-heavy head-to-head testbed: elevated baseline hazard plus several
// seeded preemption storms over a longer horizon and a sparser checkpoint
// cadence — the regime where reactive recovery bleeds rollbacks and the
// liveput policy (spec.options.morph_policy, default reactive) can pay off.
ChaosCampaignSpec StormyChaosCampaign(uint64_t seed);
// StormyChaosCampaign with the fast recovery path switched on: delta
// checkpoint chains and locality-aware restore pricing. Same storms on the
// same seed, so before/after downtime comparisons isolate the recovery path.
// A separate factory (rather than a Stormy default) keeps the recorded
// stormy orderings and goldens valid.
ChaosCampaignSpec FastRecoveryStormCampaign(uint64_t seed);

struct ChaosReport {
  ElasticTrace trace;
  uint64_t fingerprint = 0;
  SessionStats stats;
  int64_t vms_killed_by_chaos = 0;
  int64_t shards_corrupted_by_chaos = 0;
};

// Builds engine + cluster + market + trainer + injectors, runs the campaign
// to its horizon, validates engine and manager invariants, and returns the
// fingerprinted report. Deterministic: same spec => identical report. The one
// seeded-session runner: with an empty plan the stutter injector and the chaos
// engine schedule nothing and draw nothing, so the report is that of a plain
// elastic session.
ChaosReport RunChaosCampaign(const ChaosCampaignSpec& spec);

}  // namespace varuna

#endif  // SRC_CHAOS_CHAOS_H_

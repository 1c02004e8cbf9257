// The Varuna manager (§4.6) driving an elastic training session on the
// simulated cluster: it wires its own spot-market pool to the cluster,
// calibrates once before its first configuration, picks configurations with
// the O(G) search, runs mini-batches on the DES testbed, checkpoints
// continuously, watches heartbeats for fail-stutter outliers and timeouts,
// morphs on preemptions and on growth opportunities, and records the Figure-8
// timeline.
//
// Each evaluation (grant, heartbeats, provision tick, deferred preemption
// morph, backoff retry) yields one typed Decision, and Apply alone carries a
// decision out. A provision tick makes at most one config choice (one sweep,
// one argmax); the proactive and growth checks both read it.
//
// Recovery paths (hardened against the src/chaos campaigns):
//  * Heartbeat timeout — a VM that misses `kHeartbeatTimeoutBeats`
//    consecutive heartbeat evaluations (unannounced death, or chaos-dropped
//    heartbeats) is declared dead; the job rolls back to the newest usable
//    checkpoint and reconfigures without it.
//  * Re-provisioning backoff — when no configuration fits (capacity collapse),
//    retries are scheduled with exponential backoff and seeded jitter rather
//    than busy-spinning on the market.
//  * Morph retry budget — a restore window killed by another preemption
//    retries; after `kMaxMorphAttempts` consecutive recovery failures the
//    manager stops assuming the optimal config will ever place and falls back.
//  * Degraded mode — when capacity collapses below what the optimal search can
//    use, the manager re-searches with the CPU-offload memory model (slower,
//    but feasible at shallower depths) instead of stalling; it morphs back to
//    the normal mode as soon as a provision tick finds capacity for it.
// All of it is driven by the one seeded Rng, so chaos campaigns replay
// bit-identically (src/varuna/determinism.h).
#ifndef SRC_MANAGER_ELASTIC_TRAINER_H_
#define SRC_MANAGER_ELASTIC_TRAINER_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/cluster/spot_market.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/manager/checkpoint.h"
#include "src/model/cutpoints.h"
#include "src/model/op_graph.h"
#include "src/model/tracer.h"
#include "src/model/transformer.h"
#include "src/morph/calibration.h"
#include "src/morph/config_search.h"
#include "src/morph/liveput.h"
#include "src/pipeline/executor.h"
#include "src/sim/engine.h"

namespace varuna {

struct TrainerOptions {
  double total_batch = 8192.0;
  int demand_vms = 120;  // Standing spot demand the manager maintains.
  int checkpoint_every_minibatches = 10;
  // How often the manager looks for growth / better configurations.
  double provision_check_interval_s = 900.0;
  CalibrationOptions calibration;
  CheckpointOptions checkpoint;
  MemoryBudget budget;  // gpu_memory_bytes <= 0: the VM's GPU memory.
  // --- Liveput policy (src/morph/liveput.h). -------------------------------
  // kReactive reproduces the paper's recover-after-preemption behavior
  // exactly; the proactive modes add liveput-weighted config selection and
  // risk-triggered pre-migration checkpoints on top, falling back to the
  // reactive path bit-for-bit while the predictor is cold.
  MorphPolicy morph_policy = MorphPolicy::kReactive;
  // Horizon H the liveput objective scores survival over.
  double liveput_horizon_s = 900.0;
  PredictorOptions predictor;
  uint64_t seed = 1;

  // Rejects a knob above (nested ones included) outside the range the manager
  // runs with, naming it in the error; the ElasticTrainer constructor aborts.
  Result<std::monostate> Validate() const;
};

// What the manager decided, or (kDegraded, kRecover) which memory model a
// reconfiguration moved it to. Name() is hashed into every trace fingerprint,
// so the names are part of the replay contract; three kinds share "morph".
enum class DecisionKind {
  kConfigure,         // "configure": place the stopped job on current capacity.
  kPreemptionMorph,   // "morph": coalesced recovery from preemption hits.
  kGrowthMorph,       // "morph": spare capacity admits a faster config.
  kDegradedExit,      // "morph": the normal memory model fits again.
  kProactiveMorph,    // "proactive-morph": the liveput objective pays.
  kReplace,           // "replace": fail-stutter VMs leave the placement.
  kHeartbeatTimeout,  // "heartbeat-timeout": silent VMs are declared dead.
  kDegraded,          // "degraded": entered the CPU-offload memory model.
  kRecover,           // "recover": left it.
};
std::string_view Name(DecisionKind kind);
std::ostream& operator<<(std::ostream& os, DecisionKind kind);

// One manager decision and what it removes from the placement.
struct Decision {
  DecisionKind kind = DecisionKind::kConfigure;
  std::vector<GpuId> gpus = {};  // kReplace: the stuttering GPUs.
  std::vector<VmId> vms = {};    // kHeartbeatTimeout: the VMs declared dead.
};

struct TimelineEvent {
  double time_s = 0.0;
  DecisionKind kind = DecisionKind::kConfigure;
  int pipeline_depth = 0;
  int data_parallel = 0;
  int gpus_available = 0;

  bool operator==(const TimelineEvent&) const = default;
};

struct TimelineSample {
  double time_s = 0.0;
  double examples_per_s = 0.0;
  double examples_per_s_per_gpu = 0.0;
  int pipeline_depth = 0;
  int data_parallel = 0;
  int gpus_in_use = 0;
  int gpus_available = 0;
  bool checkpointing = false;

  bool operator==(const TimelineSample&) const = default;
};

// The bit-identical replay contract (§4.3, Figure 8): everything a seeded
// session must reproduce exactly. ElasticTrace (src/varuna/determinism.h)
// copies this record whole and ElasticTrace::Fingerprint takes it apart with
// one structured binding, so a member added here fails to compile until it is
// hashed too. Members are declared in hash order; state that may vary with
// cache warmth or tuning, or that is derivable from the record, belongs in
// SessionStats instead.
struct ReplayRecord {
  int64_t minibatches_done = 0;
  int morphs = 0;
  int preemptions_hit = 0;  // Preemptions that interrupted the job.
  int checkpoints = 0;
  double examples_processed = 0.0;
  // Preemptions after which training subsequently made progress again — the
  // paper's headline "training survives" counter.
  int preemptions_survived = 0;
  // --- Recovery counters (chaos campaigns assert against these). -----------
  int restarts = 0;             // Rollback-and-restore recoveries.
  int heartbeat_timeouts = 0;   // VMs declared dead via heartbeats.
  int morph_retries = 0;        // Restore windows re-attempted.
  int reprovision_retries = 0;  // Backoff reconfiguration retries.
  int degraded_intervals = 0;   // Entries into degraded mode.
  int64_t shards_lost = 0;      // Shards that died with their VM.
  // Conservation ledger: every mini-batch completion is attempted; a restore
  // rolls the uncheckpointed tail back. attempted == done + rolled_back
  // always (ElasticTrainer::CheckInvariants), so no sample is ever silently
  // lost and re-work is bounded by the checkpoint cadence.
  int64_t minibatches_rolled_back = 0;
  double examples_rolled_back = 0.0;
  int64_t last_restore_step = -1;  // Checkpoint id of the latest restore.
  // --- Liveput policy decisions (src/morph/liveput.h). ---------------------
  // Morphs initiated by the liveput objective ahead of any preemption.
  int proactive_morphs = 0;
  // Checkpoint shards written early by the pre-migration trigger (expected
  // rollback re-work exceeded the checkpoint stall cost).
  int64_t premigrated_shards = 0;
  std::vector<TimelineEvent> events;    // The manager timeline, in order.
  std::vector<TimelineSample> samples;  // Throughput samples, in order.

  bool operator==(const ReplayRecord&) const = default;
};

// A session's counters: the replay record plus reporting/perf state that is
// never fingerprinted. Fields that mirror another owner's counter (the
// ConfigSearch cache counters, the executor's, the predictor's and the
// checkpoint store's, shards_lost included) are filled from their owners by
// ElasticTrainer::stats() when read; the trainer never writes them.
struct SessionStats : ReplayRecord {
  // Advisory fail-stutter detections; thresholds may be tuned without
  // invalidating recorded traces.
  int stutters_detected = 0;
  // Time spent restoring / waiting for capacity — derivable from the event
  // timeline.
  double stalled_s = 0.0;
  // Exactly minibatches_done + minibatches_rolled_back.
  int64_t minibatches_attempted = 0;
  // Exactly examples_processed + examples_rolled_back.
  double examples_attempted = 0.0;
  // Deepest single rollback, derivable from the ledger events.
  int64_t max_rollback_minibatches = 0;
  // Morph-decision cost trackers (the ConfigSearch counters):
  // the candidate table keeps each (P, D, m, Nm) candidate's feasibility,
  // bound and fast-sim result, so a morph to a previously-unseen G
  // re-simulates only genuinely new tuples, bound-pruned candidates skip
  // simulation entirely, and a revisited G costs hash probes only. A sweep
  // hits when it simulates nothing and misses otherwise. Cache warmth, not
  // state.
  uint64_t sweep_cache_hits = 0;
  uint64_t sweep_cache_misses = 0;
  uint64_t candidate_memo_hits = 0;
  uint64_t candidate_memo_misses = 0;
  uint64_t candidates_pruned = 0;  // Bound-pruned, unsimulated.
  // Simulation-core perf counters (the persistent executor's; reported by
  // the benches).
  uint64_t executor_events = 0;           // DES events fired.
  uint64_t executor_scratch_growths = 0;  // Arena growths.
  // Always 0: SimEngine callbacks are inline by type, so none can spill, and
  // Network prices each ring with a direct walk, so no ring memo exists. Kept
  // only because e2ebench reports them; they retire with the
  // pipeline.executor.heap_fallbacks and net.ring.hit_ratio metrics in the
  // next benchmark change.
  uint64_t executor_heap_fallbacks = 0;
  uint64_t net_ring_cache_hits = 0;
  uint64_t net_ring_cache_misses = 0;
  // --- Liveput policy counters (src/morph/liveput.h). ----------------------
  // Bytes moved by pre-migration checkpoints — derivable from
  // premigrated_shards and the model size.
  double premigrated_bytes = 0.0;
  // Predictor observation count; pure instrumentation.
  int64_t predictor_updates = 0;
  // Searches where the liveput argmax differed from the throughput argmax.
  // Advisory — horizon/threshold tuning may change it without invalidating
  // recorded traces.
  int64_t liveput_wins = 0;
  // --- Fast recovery path (delta checkpoints / locality-aware restore). ---
  // Delta checkpoint records written (mirror of the store counter; derivable
  // from the checkpoint sequence).
  int64_t delta_checkpoints = 0;
  // Superseded/inert records garbage-collected by the store.
  int64_t checkpoint_records_pruned = 0;
  // Restore seconds by source, summed over restores — derivable from the
  // event timeline and cluster state. e2ebench and bench_chaos_campaigns
  // read them.
  double restore_setup_s = 0.0;
  double restore_ssd_s = 0.0;    // Surviving-owner SSD reads.
  double restore_peer_s = 0.0;   // Peer transfers over the fabric.
  double restore_cloud_s = 0.0;  // Cloud object reads.
};

class ElasticTrainer {
 public:
  ElasticTrainer(SimEngine* engine, Cluster* cluster, SpotMarket* market, int market_pool,
                 const VmType& vm_type, const TransformerSpec& spec, TrainerOptions options);

  // Registers the market observers and kicks off the session. Call once, then
  // run the engine (RunUntil for a bounded experiment).
  void Start();

  // The session's counters, with the mirrors of other owners' counters (see
  // SessionStats) read from those owners now.
  SessionStats stats() const;
  bool job_running() const { return running_; }
  const std::optional<JobConfig>& current_config() const { return config_; }
  const CheckpointStore& checkpoints() const { return checkpoints_; }

  // --- Chaos hooks (src/chaos; also usable from tests). --------------------
  // Drops `vm`'s heartbeats for `duration_s` simulated seconds. The VM keeps
  // computing; the manager just stops hearing from it and must decide via the
  // timeout policy.
  void MuteHeartbeats(VmId vm, double duration_s);
  // Distinct VMs hosting the current placement (empty when not running).
  std::vector<VmId> PlacementVms() const;
  // Mutable store access for shard-corruption injection.
  CheckpointStore* mutable_checkpoints() { return &checkpoints_; }
  // Observer fired when a reconfiguration succeeds, with the restore delay
  // about to be paid (0 for a fresh configure). The chaos engine uses it to
  // land mid-morph preemptions inside the restore window.
  using MorphObserver = std::function<void(double restore_delay_s)>;
  void set_morph_observer(MorphObserver observer) { morph_observer_ = std::move(observer); }

  // Oracle storm forecast (src/chaos feeds scripted storms through this).
  // No-op unless the policy is kOracleProactive: the online predictor must
  // learn from the observed stream alone.
  void ForecastStorm(double at_s, int vms);
  const AvailabilityPredictor& predictor() const { return predictor_; }

  // Aborts via VARUNA_CHECK if the manager state or the conservation ledger
  // is inconsistent. O(session) on the stats vectors — call from tests and
  // campaign teardown, not hot loops.
  void CheckInvariants() const;

 private:
  void OnVmPreempted(SpotMarket::MarketVmId id);

  // The one bring-up step: calibrates once (from a fork of the session Rng)
  // when at least 4 GPUs are active, then builds the config search. Returns
  // whether the search exists; every configure path asks it first.
  bool EnsureSearch();
  // Blacklists what `decision` removes, stops the job unless it was decided
  // while stopped, rolls back if it lost state, and reconfigures.
  void Apply(const Decision& decision);
  // Picks the best config for current capacity and (re)starts the job.
  void Reconfigure(DecisionKind kind);
  void ScheduleNextMinibatch(double extra_delay);
  void OnMinibatchDone(int64_t epoch);
  // A heartbeat timeout (silent VMs sorted) or a stutter replace, if due.
  std::optional<Decision> EvaluateHeartbeats();
  // The tick reschedules itself, then applies ProvisionTick's decision.
  void ScheduleProvisionTick();
  // Heals the blacklist; decides configure, degraded exit, proactive morph
  // or growth.
  std::optional<Decision> ProvisionTick();
  void BlacklistVm(VmId vm);

  // Rolls the session back to the newest usable checkpoint; updates the
  // conservation ledger.
  void RollbackToCheckpoint();
  // Schedules a jittered exponential-backoff reconfiguration retry (no-op if
  // one is already pending).
  void ScheduleReprovisionRetry();
  double BackoffDelay();
  // True while `vm`'s heartbeats are muted by chaos.
  bool HeartbeatsMuted(VmId vm) const;
  SearchConstraints MakeConstraints(bool degraded) const;
  // The liveput policy is live: proactive mode requested AND the predictor
  // has warmed past its gates. Everywhere this is false — reactive policy,
  // cold predictor, stable market — the manager's decision sequence is
  // bit-identical to the reactive path (property-tested).
  bool ProactiveEngaged() const {
    return options_.morph_policy != MorphPolicy::kReactive && !predictor_.Cold();
  }
  // The liveput objective at the current recovery cost.
  LiveputObjective Objective() const;
  // Config selection: throughput argmax (Best) reactively, liveput argmax
  // over the sweep when the proactive policy is engaged.
  Result<JobConfig> ChooseConfig(int gpus, const SearchConstraints& constraints);
  // The provision tick's proactive test for `best`, a liveput argmax that
  // reshapes the current config: its score materially beats the incumbent's
  // and the projected gain over the horizon pays for the restore stall.
  bool ProactiveMorphPays(const JobConfig& best) const;
  // Stops the running job ahead of a reconfiguration: in-flight mini-batches
  // are superseded and the stall clock starts.
  void StopJob();
  int PlacementVmsUsed() const;
  // What one placement hit costs right now: expected rollback re-work (half
  // the checkpoint cadence at the measured rate) plus the restore stall. The
  // liveput objective amortizes survival risk by this, not the whole horizon.
  double RecoveryCostS() const;
  // Record-aware restore estimate on the current placement (one VM presumed
  // lost, the rest warm): the stall of an involuntary hit, and the stall a
  // proactive morph must pay for. Equals RestoreDuration while the
  // fast-recovery options are disabled.
  double EstimatedRestoreSeconds(int data_parallel) const;
  // Measured mini-batch duration for the current placement (re-measured when
  // the placement or any member's slow factor changes). O(1) while the
  // cluster generation is the one the cached value was checked against.
  double MeasuredMinibatchSeconds();
  // Installs `placement` and rebuilds the roster arrays derived from it.
  void SetPlacement(Placement placement);

  int AvailableGpus() const;
  void RecordSample(double examples_per_s, bool checkpointing);
  void RecordEvent(DecisionKind kind);

  SimEngine* engine_;
  Cluster* cluster_;
  SpotMarket* market_;
  int market_pool_;
  VmType vm_type_;
  TransformerSpec spec_;
  TrainerOptions options_;
  Rng rng_;
  // Persistent testbed: its scratch (engine pool, worker table, flag arena)
  // is reused across every measurement of the session.
  PipelineExecutor executor_;

  ModelSections sections_;
  double shared_sync_bytes_ = 0.0;
  std::optional<Calibration> calibration_;
  std::unique_ptr<ConfigSearch> search_;
  CheckpointStore checkpoints_;
  // Availability estimator for the liveput policy. Always fed (cheap counts,
  // no Rng draws, no engine events), only *consulted* when engaged.
  AvailabilityPredictor predictor_;

  std::map<SpotMarket::MarketVmId, VmId> market_to_vm_;
  std::vector<GpuId> blacklist_;

  bool running_ = false;
  bool minibatch_in_flight_ = false;
  bool preemption_morph_pending_ = false;
  // Bumped on every reconfiguration/stop; in-flight mini-batch completions
  // from an older epoch are ignored (the preempted run's events still fire).
  int64_t epoch_ = 0;
  std::optional<JobConfig> config_;
  std::optional<Placement> placement_;
  // The placement's GPUs in pipeline-major order with each one's VM, rebuilt
  // by SetPlacement: the per-mini-batch paths walk these flat arrays.
  std::vector<GpuId> roster_gpus_;
  std::vector<VmId> roster_vms_;
  std::optional<Partition> partition_;
  double cached_minibatch_s_ = 0.0;
  std::vector<double> cached_slow_factors_;
  // Cluster generation at which cached_minibatch_s_ was last confirmed.
  uint64_t cached_generation_ = 0;
  int64_t last_checkpointed_minibatch_ = -1;
  // Capacity at the last growth evaluation; the growth check only reruns when
  // availability moved materially (morphs are not free).
  int last_growth_check_gpus_ = 0;
  double stall_started_ = -1.0;

  // --- Recovery state. -----------------------------------------------------
  bool degraded_ = false;
  // True from a successful Reconfigure until the first mini-batch of the new
  // epoch completes — a preemption in this window is a failed morph.
  bool restore_in_flight_ = false;
  int consecutive_recovery_failures_ = 0;
  bool reprovision_retry_pending_ = false;
  // Indexed by VmId, grown on first write: the simulated-time deadline until
  // which each muted VM stays silent (0 = never muted), and each VM's
  // consecutive missed heartbeats.
  std::vector<double> heartbeat_mute_until_;
  std::vector<int> missed_heartbeats_;
  // Per-mini-batch scratch, reused so heartbeats and the slow-factor check
  // do not allocate: reporting GPUs with their heartbeat times (paired by
  // index), and the placement's current slow factors.
  std::vector<GpuId> heartbeat_gpus_;
  std::vector<double> heartbeat_times_;
  std::vector<double> slow_factors_;
  // (mini-batch id, examples committed) for every committed-and-not-rolled-
  // back mini-batch, in order: rollbacks refund exactly what each lost
  // mini-batch committed, even across morphs that changed ActualBatch().
  std::deque<std::pair<int64_t, double>> committed_ledger_;
  // Preemptions hit since the last committed mini-batch; they count as
  // "survived" once training makes progress again.
  int unsurvived_preemptions_ = 0;

  MorphObserver morph_observer_;

  SessionStats stats_;
};

}  // namespace varuna

#endif  // SRC_MANAGER_ELASTIC_TRAINER_H_

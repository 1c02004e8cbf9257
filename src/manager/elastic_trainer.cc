#include "src/manager/elastic_trainer.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/pipeline/stage_timing.h"

namespace varuna {
namespace {

// Log-normal sigma of a heartbeat's reported compute time around its VM's
// slow factor.
constexpr double kHeartbeatNoiseSigma = 0.01;
// The heartbeat fast path skips draws whose Gaussian stays within this many
// sigmas (a pair falls outside with probability about 4e-6).
constexpr double kHeartbeatSkipBound = 5.0;
// Relative headroom over the float rounding of the fast path's spread bound.
constexpr double kHeartbeatSkipMargin = 1e-9;
// Heartbeats carry per-micro-batch compute times and are evaluated at every
// mini-batch boundary. A VM whose compute heartbeat exceeds
// median * threshold is blacklisted.
constexpr double kStutterThreshold = 1.12;
// Planned morphs require at least this relative throughput gain.
constexpr double kMorphImprovementThreshold = 0.10;
// A VM missing this many consecutive heartbeat evaluations is declared
// dead (process crash / unannounced preemption / partition).
constexpr int kHeartbeatTimeoutBeats = 3;
// Exponential backoff for re-provisioning retries after a failed
// reconfiguration: base * 2^k, capped, with +/-25% seeded jitter.
constexpr double kReprovisionBackoffBaseS = 60.0;
constexpr double kReprovisionBackoffMaxS = 1800.0;
// Consecutive recovery failures (failed searches/placements, killed restore
// windows) before the manager gives up on the optimal configuration and
// tries the degraded fallback immediately.
constexpr int kMaxMorphAttempts = 4;
// Pre-migration cost model: checkpoint early when the expected rollback
// re-work (hit probability before the cadence checkpoint × uncovered work
// seconds) exceeds this multiple of the checkpoint's own stall cost.
constexpr double kPremigrateCostRatio = 3.0;
// Proactive morphs need this relative liveput gain over the current config
// (and the projected gain must also pay for the restore stall).
constexpr double kLiveputGainThreshold = 0.5;
// Log-normal sigma of each mini-batch's duration around the cached executor
// measurement it replays.
constexpr double kMinibatchNoiseSigma = 0.02;

// Decisions that lost the job's state, which a checkpoint restores.
bool LosesState(DecisionKind kind) {
  return kind == DecisionKind::kPreemptionMorph || kind == DecisionKind::kHeartbeatTimeout;
}

}  // namespace

std::string_view Name(DecisionKind kind) {
  // Indexed by DecisionKind, in declaration order.
  static constexpr std::string_view kNames[] = {
      "configure", "morph", "morph", "morph", "proactive-morph",
      "replace", "heartbeat-timeout", "degraded", "recover"};
  static_assert(std::size(kNames) == static_cast<size_t>(DecisionKind::kRecover) + 1);
  return kNames[static_cast<size_t>(kind)];
}

std::ostream& operator<<(std::ostream& os, DecisionKind kind) { return os << Name(kind); }

Result<std::monostate> TrainerOptions::Validate() const {
  const auto positive = [](double value) { return std::isfinite(value) && value > 0.0; };
  // (holds, message); each message starts with the field it constrains.
  const std::pair<bool, const char*> rules[] = {
      // ConfigSearch::Sweep refuses the same range.
      {total_batch > 0.0 && total_batch <= kMaxTotalBatch,
       "total_batch must be > 0 and at most 2^30 - 1"},
      {demand_vms >= 1, "demand_vms must be >= 1"},
      {checkpoint_every_minibatches >= 1, "checkpoint_every_minibatches must be >= 1"},
      // A zero interval would reschedule ProvisionTick at `now` forever.
      {positive(provision_check_interval_s), "provision_check_interval_s must be > 0 and finite"},
      {positive(liveput_horizon_s), "liveput_horizon_s must be > 0 and finite"},
      {positive(predictor.window_s), "predictor.window_s must be > 0 and finite"},
      // NaN would switch decay off while ElevatedRisk() still gates on the
      // decayed count; <= 0 is the documented "no decay".
      {!std::isnan(predictor.decay_tau_s),
       "predictor.decay_tau_s must be a number (<= 0 means no decay)"},
      // NaN would switch the exposure warm-up gate off.
      {!std::isnan(predictor.min_exposure_windows),
       "predictor.min_exposure_windows must be a number"},
      // <= 0 means the VM's GPU memory; NaN fits no stage and +inf fits all.
      {std::isfinite(budget.gpu_memory_bytes), "budget.gpu_memory_bytes must be finite"},
      {checkpoint.full_checkpoint_every >= 1, "checkpoint.full_checkpoint_every must be >= 1"},
  };
  for (const auto& [holds, message] : rules) {
    if (!holds) {
      return Result<std::monostate>::Error(message);
    }
  }
  // Calibrate() refuses what this refuses, and EnsureSearch would retry it
  // forever.
  const Result<std::monostate> calibration_valid = calibration.Validate();
  if (!calibration_valid.ok()) {
    return Result<std::monostate>::Error("calibration." + calibration_valid.error());
  }
  return std::monostate{};
}

ElasticTrainer::ElasticTrainer(SimEngine* engine, Cluster* cluster, SpotMarket* market,
                               int market_pool, const VmType& vm_type,
                               const TransformerSpec& spec, TrainerOptions options)
    : engine_(engine),
      cluster_(cluster),
      market_(market),
      market_pool_(market_pool),
      vm_type_(vm_type),
      spec_(spec),
      options_(options),
      rng_(options.seed),
      executor_(cluster, &rng_),
      checkpoints_(engine, options.checkpoint, cluster),
      predictor_(options.predictor) {
  const Result<std::monostate> valid = options_.Validate();
  VARUNA_CHECK(valid.ok()) << "invalid TrainerOptions: " << valid.error();
  // Only the cut points and the cross-partition state need the op graph, so
  // it lives for the constructor alone.
  const OpGraph graph = BuildTransformerOpGraph(spec);
  sections_ = IdentifyCutPoints(graph, spec.num_layers).value();
  shared_sync_bytes_ = TraceCrossPartitionState(graph, sections_, TraceOptions()).TotalSyncBytes();
  if (options_.budget.gpu_memory_bytes <= 0.0) {
    options_.budget.gpu_memory_bytes = vm_type.gpu.memory_bytes;
  }
  if (options_.morph_policy == MorphPolicy::kOracleProactive) {
    // Upper-bound mode: the predictor is handed the pool's true hazard (the
    // one thing the online estimator has to learn) plus any storm forecasts
    // the chaos scripts feed through ForecastStorm().
    predictor_.EnableOracle(market_->PoolDynamics(market_pool_).preemption_hazard);
  }
}

void ElasticTrainer::Start() {
  // One observer per market signal, deaf to every other tenant's pool: it
  // first feeds the availability estimator (the pool's announced stream, never
  // the market's hidden dynamics), then hands the event to the control path.
  // Feeding the estimator draws no randomness and schedules no events, so the
  // reactive decision sequence stays bit-identical.
  market_->AddGrantObserver([this](int pool, SpotMarket::MarketVmId id, const VmType& type) {
    if (pool == market_pool_) {
      predictor_.ObserveGrant(engine_->now());
      market_to_vm_[id] = cluster_->AddVm(type);
      if (!running_ && EnsureSearch()) {
        Apply({DecisionKind::kConfigure});
      }
    }
  });
  market_->AddPreemptObserver([this](int pool, SpotMarket::MarketVmId id) {
    if (pool == market_pool_) {
      predictor_.ObservePreemption(engine_->now());
      OnVmPreempted(id);
    }
  });
  // Physical-layer bookkeeping for *every* VM death, announced or not: local
  // checkpoint shards die with their VM. The control path deliberately does
  // not hang off this observer — unannounced deaths must be discovered
  // through missed heartbeats, which is the recovery path under test.
  cluster_->AddPreemptionObserver([this](VmId vm) { checkpoints_.OnVmLost(vm); });
  market_->SetDemand(market_pool_, options_.demand_vms);
  stall_started_ = engine_->now();
  ScheduleProvisionTick();
}

SessionStats ElasticTrainer::stats() const {
  SessionStats stats = stats_;
  if (search_) {
    const ConfigSearchStats search = search_->stats();
    stats.sweep_cache_hits = search.sweep_cache_hits;
    stats.sweep_cache_misses = search.sweep_cache_misses;
    stats.candidate_memo_hits = search.candidate_memo_hits;
    stats.candidate_memo_misses = search.candidate_memo_misses;
    stats.candidates_pruned = search.candidates_pruned;
  }
  stats.executor_events = executor_.events_processed();
  stats.executor_scratch_growths = executor_.scratch_growths();
  stats.predictor_updates = predictor_.updates();
  stats.shards_lost = checkpoints_.shards_lost();
  stats.delta_checkpoints = checkpoints_.delta_checkpoints_written();
  stats.checkpoint_records_pruned = checkpoints_.records_pruned();
  return stats;
}

int ElasticTrainer::AvailableGpus() const {
  // The blacklist holds each GPU at most once.
  return cluster_->NumActiveGpus() -
         static_cast<int>(std::count_if(blacklist_.begin(), blacklist_.end(),
                                        [this](GpuId gpu) { return cluster_->GpuActive(gpu); }));
}

void ElasticTrainer::OnVmPreempted(SpotMarket::MarketVmId id) {
  const auto it = market_to_vm_.find(id);
  if (it == market_to_vm_.end()) {
    return;
  }
  const VmId vm = it->second;
  market_to_vm_.erase(it);
  cluster_->Preempt(vm);

  // Did the preempted VM host part of the job? The manager notices via the
  // missing heartbeat (one timeout interval later), which naturally coalesces
  // a burst of evictions into a single restore + morph.
  if (!running_ || std::find(roster_vms_.begin(), roster_vms_.end(), vm) == roster_vms_.end()) {
    return;
  }
  ++stats_.preemptions_hit;
  ++unsurvived_preemptions_;
  if (restore_in_flight_) {
    // The restore window itself was killed; the coming morph is a retry.
    ++stats_.morph_retries;
    ++consecutive_recovery_failures_;
  }
  StopJob();
  if (!preemption_morph_pending_) {
    preemption_morph_pending_ = true;
    // Within the retry budget, re-morph quickly; past it, assume the market is
    // churning faster than we can restore and back off.
    const double delay =
        consecutive_recovery_failures_ >= kMaxMorphAttempts ? BackoffDelay() : 30.0;
    engine_->Schedule(delay, [this] {
      preemption_morph_pending_ = false;
      if (!running_) {  // Else something else already reconfigured.
        Apply({DecisionKind::kPreemptionMorph});
      }
    });
  }
}

void ElasticTrainer::RollbackToCheckpoint() {
  // Per-shard tracking makes LatestUsable() the true resume frontier: shards
  // whose owners died mid-flush were already demoted by OnVmLost, so this
  // falls back to the newest checkpoint with no holes.
  const int64_t restorable = checkpoints_.LatestUsable();
  const int64_t target = std::max<int64_t>(restorable, 0);
  const int64_t lost = std::max<int64_t>(0, stats_.minibatches_done - target);
  ++stats_.restarts;
  stats_.last_restore_step = restorable;
  if (lost > 0) {
    // Refund exactly what each lost mini-batch committed (ActualBatch varies
    // across morphs, so a flat total_batch refund would leak examples).
    double lost_examples = 0.0;
    while (!committed_ledger_.empty() && committed_ledger_.back().first >= target) {
      lost_examples += committed_ledger_.back().second;
      committed_ledger_.pop_back();
    }
    stats_.minibatches_done -= lost;
    stats_.minibatches_rolled_back += lost;
    stats_.max_rollback_minibatches = std::max(stats_.max_rollback_minibatches, lost);
    stats_.examples_processed -= lost_examples;
    stats_.examples_rolled_back += lost_examples;
  }
  // The next checkpoint must re-cover everything after the restore point.
  last_checkpointed_minibatch_ = std::min(last_checkpointed_minibatch_, restorable);
}

bool ElasticTrainer::EnsureSearch() {
  if (search_) {
    return true;
  }
  if (cluster_->NumActiveGpus() < 4) {
    return false;  // Wait for enough capacity to calibrate.
  }
  Rng calibration_rng = rng_.Fork();
  Result<Calibration> calibration =
      Calibrate(sections_, *cluster_, options_.calibration, &calibration_rng);
  if (!calibration.ok()) {
    return false;
  }
  calibration_ = std::move(calibration).value();
  // No pool: a session searches on its own thread, so parallelism belongs at
  // campaign grain, one session per worker.
  search_ = std::make_unique<ConfigSearch>(&spec_, &sections_, &calibration_.value());
  return true;
}

SearchConstraints ElasticTrainer::MakeConstraints(bool degraded) const {
  SearchConstraints constraints;
  constraints.total_batch = options_.total_batch;
  constraints.budget = options_.budget;
  constraints.gpus_per_node = vm_type_.node.num_gpus;
  constraints.shared_sync_bytes = shared_sync_bytes_;
  // Degraded mode forces the CPU-offload memory model: slower steps, but the
  // smaller per-GPU footprint lets shallower pipelines fit when capacity has
  // collapsed below what the normal model can place.
  constraints.cpu_offload_optimizer = degraded;
  // Sweep unpruned when proactive: bound pruning keeps only candidates that
  // can win on *time*, which would hide the slow-but-small configs the
  // liveput argmax may prefer.
  constraints.prune = !ProactiveEngaged();
  return constraints;
}

int ElasticTrainer::PlacementVmsUsed() const {
  const int gpus_per_vm = std::max(1, vm_type_.node.num_gpus);
  return (config_->gpus_used + gpus_per_vm - 1) / gpus_per_vm;
}

double ElasticTrainer::EstimatedRestoreSeconds(int data_parallel) const {
  // An involuntary hit restores onto roughly the current placement minus the
  // dead VM: everyone else is warm and keeps their SSD shards.
  const std::vector<VmId> vms = PlacementVms();
  const int warm = std::max(0, static_cast<int>(vms.size()) - 1);
  return checkpoints_.RestoreSeconds(checkpoints_.LatestUsable(), spec_.TotalParams(),
                                     data_parallel, vms, warm);
}

double ElasticTrainer::RecoveryCostS() const {
  // Zero rework until the first measurement, zero restore before any config.
  const double rework_s =
      0.5 * static_cast<double>(options_.checkpoint_every_minibatches) * cached_minibatch_s_;
  return config_.has_value() ? rework_s + EstimatedRestoreSeconds(config_->data_parallel)
                             : rework_s;
}

LiveputObjective ElasticTrainer::Objective() const {
  return LiveputObjective(&predictor_, options_.liveput_horizon_s,
                          std::max(1, vm_type_.node.num_gpus), RecoveryCostS());
}

Result<JobConfig> ElasticTrainer::ChooseConfig(int gpus, const SearchConstraints& constraints) {
  if (!ProactiveEngaged()) {
    return search_->Best(gpus, constraints);
  }
  const Result<std::vector<JobConfig>> sweep = search_->Sweep(gpus, constraints);
  if (!sweep.ok()) {
    return Result<JobConfig>::Error(sweep.error());
  }
  if (sweep.value().empty()) {
    return Result<JobConfig>::Error("no feasible configuration");
  }
  const JobConfig* liveput_best = Objective().BestLiveput(sweep.value());
  // Throughput argmax with the same tie-break (the earliest (P, m) of the
  // fastest wins) — what Best() would have picked.
  const JobConfig* throughput_best = &*std::max_element(
      sweep.value().begin(), sweep.value().end(), [](const JobConfig& a, const JobConfig& b) {
        return a.est_examples_per_s < b.est_examples_per_s;
      });
  if (!(*liveput_best == *throughput_best)) {
    ++stats_.liveput_wins;
  }
  return *liveput_best;
}

bool ElasticTrainer::ProactiveMorphPays(const JobConfig& best) const {
  const LiveputObjective objective = Objective();
  // Score the incumbent with its *measured* rate (what we would actually keep
  // earning) and the candidate with its estimate; both survival-weighted.
  const double current_rate = config_->ActualBatch() / std::max(1e-9, cached_minibatch_s_);
  const double current_score = objective.Score(
      current_rate, predictor_.PlacementSurvival(PlacementVmsUsed(), options_.liveput_horizon_s));
  const double best_score = objective.Score(best);
  // Cost model: the examples the liveput gain buys over the horizon must pay
  // for the examples forgone during the morph stall, the record-aware
  // checkpoint restore.
  return best_score > (1.0 + kLiveputGainThreshold) * current_score &&
         (best_score - current_score) * options_.liveput_horizon_s >
             current_rate * EstimatedRestoreSeconds(best.data_parallel);
}

void ElasticTrainer::StopJob() {
  // Reconfigure clears stall_started_ whenever it sets running_, so a running
  // job has no stall open.
  VARUNA_CHECK(running_);
  VARUNA_CHECK_LT(stall_started_, 0.0);
  running_ = false;
  minibatch_in_flight_ = false;
  ++epoch_;
  stall_started_ = engine_->now();
}

void ElasticTrainer::ForecastStorm(double at_s, int vms) {
  if (options_.morph_policy != MorphPolicy::kOracleProactive) {
    return;  // The online predictor must learn from the observed stream.
  }
  predictor_.ForecastStorm(at_s, vms);
}

void ElasticTrainer::Apply(const Decision& decision) {
  const DecisionKind kind = decision.kind;
  for (const GpuId gpu : decision.gpus) {
    BlacklistVm(cluster_->VmOfGpu(gpu));
  }
  stats_.stutters_detected += static_cast<int>(decision.gpus.size());
  for (const VmId vm : decision.vms) {
    missed_heartbeats_[static_cast<size_t>(vm)] = 0;
    // A VM the manager cannot reach is a VM whose local shards it cannot
    // read; treat them as lost even if the VM is merely partitioned.
    checkpoints_.OnVmLost(vm);
    BlacklistVm(vm);
    ++stats_.heartbeat_timeouts;
    ++unsurvived_preemptions_;
  }
  if (kind == DecisionKind::kHeartbeatTimeout && restore_in_flight_) {
    ++stats_.morph_retries;
    ++consecutive_recovery_failures_;
  }
  if (kind == DecisionKind::kProactiveMorph) {
    ++stats_.proactive_morphs;
  }
  // A configure and a preemption morph are decided while the job is stopped.
  if (kind != DecisionKind::kConfigure && kind != DecisionKind::kPreemptionMorph) {
    StopJob();
  }
  if (LosesState(kind)) {
    RollbackToCheckpoint();
  }
  Reconfigure(kind);
}

void ElasticTrainer::BlacklistVm(VmId vm) {
  for (const GpuId gpu : cluster_->topology().GpusOfNode(cluster_->Vm(vm).node)) {
    if (std::find(blacklist_.begin(), blacklist_.end(), gpu) == blacklist_.end()) {
      blacklist_.push_back(gpu);
    }
  }
}

void ElasticTrainer::Reconfigure(DecisionKind kind) {
  if (!EnsureSearch()) {
    ScheduleReprovisionRetry();  // Not even enough capacity to calibrate.
    return;
  }
  const int gpus = AvailableGpus();
  const bool was_degraded = degraded_;
  // Outgoing placement, captured before a successful attempt() overwrites it:
  // the VMs carried across the morph restore warm.
  const std::vector<VmId> outgoing_vms = PlacementVms();

  const auto attempt = [&](bool degraded) {
    const Result<JobConfig> best = ChooseConfig(gpus, MakeConstraints(degraded));
    if (!best.ok()) {
      return false;
    }
    Result<Placement> placement = PlaceJob(*cluster_, best.value().pipeline_depth,
                                           best.value().data_parallel, blacklist_);
    if (!placement.ok()) {
      return false;
    }
    config_ = best.value();
    SetPlacement(std::move(placement).value());
    return true;
  };

  const bool normal = attempt(/*degraded=*/false);
  if (!normal && !attempt(/*degraded=*/true)) {
    // Not enough capacity for any configuration, even degraded: stay stalled
    // and retry with backoff (grants and ProvisionTick also retry).
    ++consecutive_recovery_failures_;
    ScheduleReprovisionRetry();
    return;
  }
  degraded_ = !normal;

  ++epoch_;
  last_growth_check_gpus_ = gpus;
  partition_ = search_->CopyPartition(config_->pipeline_depth);
  cached_minibatch_s_ = 0.0;  // Force re-measurement.
  cached_slow_factors_.clear();

  double restore_delay = 0.0;
  if (LosesState(kind) || stats_.minibatches_done > 0) {
    // Every morph, voluntary or not, restores from the newest usable
    // checkpoint chain; VMs carried across the morph count as warm.
    const std::vector<VmId> incoming_vms = PlacementVms();
    int warm_vms = 0;
    for (const VmId vm : incoming_vms) {
      if (std::binary_search(outgoing_vms.begin(), outgoing_vms.end(), vm)) {
        ++warm_vms;
      }
    }
    RestoreBreakdown breakdown;
    restore_delay = checkpoints_.RestoreSeconds(checkpoints_.LatestUsable(), spec_.TotalParams(),
                                                config_->data_parallel, incoming_vms, warm_vms,
                                                &breakdown);
    stats_.restore_setup_s += breakdown.setup_s;
    stats_.restore_ssd_s += breakdown.ssd_s;
    stats_.restore_peer_s += breakdown.peer_s;
    stats_.restore_cloud_s += breakdown.cloud_s;
  }
  if (stall_started_ >= 0.0) {
    stats_.stalled_s += engine_->now() - stall_started_;
    stall_started_ = -1.0;
  }
  stats_.stalled_s += restore_delay;
  ++stats_.morphs;
  running_ = true;
  restore_in_flight_ = true;
  if (was_degraded && !degraded_) {
    RecordEvent(DecisionKind::kRecover);
  } else if (!was_degraded && degraded_) {
    ++stats_.degraded_intervals;
    RecordEvent(DecisionKind::kDegraded);
  }
  RecordEvent(kind);
  if (morph_observer_) {
    morph_observer_(restore_delay);
  }
  ScheduleNextMinibatch(restore_delay);
}

double ElasticTrainer::BackoffDelay() {
  const int failures = std::min(consecutive_recovery_failures_, 16);
  const double delay =
      std::min(std::ldexp(kReprovisionBackoffBaseS, failures), kReprovisionBackoffMaxS);
  // Seeded jitter decorrelates retry storms without breaking replayability.
  return delay * rng_.Uniform(0.75, 1.25);
}

void ElasticTrainer::ScheduleReprovisionRetry() {
  if (reprovision_retry_pending_) {
    return;
  }
  reprovision_retry_pending_ = true;
  ++stats_.reprovision_retries;
  engine_->Schedule(BackoffDelay(), [this] {
    reprovision_retry_pending_ = false;
    if (!running_) {  // Else a grant or provision tick already recovered the job.
      Apply({DecisionKind::kConfigure});
    }
  });
}

void ElasticTrainer::SetPlacement(Placement placement) {
  placement_ = std::move(placement);
  roster_gpus_.clear();
  roster_vms_.clear();
  for (const std::vector<GpuId>& pipeline : placement_->gpus) {
    for (const GpuId gpu : pipeline) {
      roster_gpus_.push_back(gpu);
      roster_vms_.push_back(cluster_->VmOfGpu(gpu));
    }
  }
}

double ElasticTrainer::MeasuredMinibatchSeconds() {
  // Nothing the check below reads has changed since it last kept the cache.
  if (cached_minibatch_s_ > 0.0 && cached_generation_ == cluster_->generation()) {
    return cached_minibatch_s_;
  }
  slow_factors_.clear();
  bool placement_intact = true;
  for (const VmId vm : roster_vms_) {
    const VmInstance& instance = cluster_->Vm(vm);
    slow_factors_.push_back(instance.slow_factor);
    placement_intact = placement_intact && instance.active;
  }
  cached_generation_ = cluster_->generation();
  if (cached_minibatch_s_ > 0.0 && (slow_factors_ == cached_slow_factors_ || !placement_intact)) {
    // A dead VM in the placement means the job is limping toward a heartbeat
    // timeout; keep the cadence rather than re-measuring a broken pipeline.
    return cached_minibatch_s_;
  }
  // The sweep already generated+validated this shape; the memo hands it back.
  const Schedule& schedule =
      GenerateSchedule(ScheduleKind::kVaruna, config_->pipeline_depth, config_->num_microbatches);
  const std::vector<StageTiming> timings = ComputeStageTimings(
      sections_, partition_.value(), vm_type_.gpu, config_->microbatch_size);
  ExecutorOptions exec_options;
  exec_options.shared_state_sync_bytes = shared_sync_bytes_;
  exec_options.cpu_offload_optimizer = degraded_;
  if (degraded_) {
    exec_options.cpu_offload_bytes_per_stage =
        12.0 * spec_.TotalParams() / config_->pipeline_depth;
  }
  const MinibatchResult result = executor_.Run(schedule, placement_.value(), timings,
                                               config_->microbatch_size, exec_options);
  cached_minibatch_s_ = result.total_time_s;
  cached_slow_factors_.swap(slow_factors_);
  return cached_minibatch_s_;
}

void ElasticTrainer::ScheduleNextMinibatch(double extra_delay) {
  if (!running_ || minibatch_in_flight_) {
    return;
  }
  double duration = rng_.LogNormalMedian(MeasuredMinibatchSeconds(), kMinibatchNoiseSigma);
  bool checkpoint_due = stats_.minibatches_done - last_checkpointed_minibatch_ >=
                        options_.checkpoint_every_minibatches;
  bool premigration = false;
  if (!checkpoint_due && ProactiveEngaged() &&
      stats_.minibatches_done > last_checkpointed_minibatch_) {
    // Pre-migration (liveput policy) under a marginal cost model. This
    // decision recurs at every mini-batch boundary, so the comparison is
    // "checkpoint now" vs "defer one mini-batch": deferring risks a hit
    // *during the next mini-batch* destroying the uncovered tail plus that
    // mini-batch; checkpointing costs one foreground stall. The restore
    // stall is excluded on both sides — a hit pays it either way.
    const int64_t uncovered = stats_.minibatches_done - last_checkpointed_minibatch_;
    const double hit_probability =
        1.0 - predictor_.PlacementSurvival(PlacementVmsUsed(), duration);
    const double rework_s = static_cast<double>(uncovered + 1) * duration;
    // A pre-migration resets the cadence clock, replacing the upcoming
    // cadence checkpoint — so late in the window it is nearly free and only
    // the brought-forward fraction of the stall is a real extra cost.
    const int64_t cadence = options_.checkpoint_every_minibatches;
    const double stall_s = checkpoints_.CheckpointStallEstimate(spec_.TotalParams(),
                                                                config_->data_parallel) *
                           static_cast<double>(cadence - std::min(uncovered, cadence)) /
                           static_cast<double>(cadence);
    if (predictor_.ElevatedRisk() && hit_probability * rework_s > kPremigrateCostRatio * stall_s) {
      checkpoint_due = true;
      premigration = true;
    }
  }
  if (checkpoint_due) {
    // Each data-parallel replica's stage-0 VM owns that replica's shard; the
    // store needs the owners to demote shards when their VM dies mid-flush.
    std::vector<VmId> shard_owners;
    shard_owners.reserve(static_cast<size_t>(config_->data_parallel));
    for (int replica = 0; replica < config_->data_parallel; ++replica) {
      shard_owners.push_back(cluster_->VmOfGpu(placement_->At(replica, 0)));
    }
    duration += checkpoints_.BeginCheckpoint(stats_.minibatches_done, spec_.TotalParams(),
                                             config_->data_parallel, shard_owners,
                                             premigration);
    last_checkpointed_minibatch_ = stats_.minibatches_done;
    ++stats_.checkpoints;
    if (premigration) {
      stats_.premigrated_shards += config_->data_parallel;
      // A premigrated delta record moves only the changed fraction.
      stats_.premigrated_bytes += checkpoints_.last_checkpoint_bytes();
    }
  }
  minibatch_in_flight_ = true;
  RecordSample(config_->ActualBatch() / duration, /*checkpointing=*/checkpoint_due);
  engine_->Schedule(extra_delay + duration,
                    [this, epoch = epoch_] { OnMinibatchDone(epoch); });
}

void ElasticTrainer::OnMinibatchDone(int64_t epoch) {
  if (epoch != epoch_) {
    return;  // A reconfiguration superseded this mini-batch while in flight.
  }
  minibatch_in_flight_ = false;
  if (!running_) {
    return;
  }
  const int64_t minibatch_id = stats_.minibatches_done;
  const double batch = config_->ActualBatch();
  ++stats_.minibatches_attempted;
  ++stats_.minibatches_done;
  stats_.examples_attempted += batch;
  stats_.examples_processed += batch;
  committed_ledger_.emplace_back(minibatch_id, batch);
  if (restore_in_flight_) {
    // First commit of the new configuration: the recovery stuck.
    restore_in_flight_ = false;
    consecutive_recovery_failures_ = 0;
  }
  if (unsurvived_preemptions_ > 0) {
    stats_.preemptions_survived += unsurvived_preemptions_;
    unsurvived_preemptions_ = 0;
  }
  if (const std::optional<Decision> decision = EvaluateHeartbeats()) {
    Apply(*decision);  // Replaces the configuration.
    return;
  }
  ScheduleNextMinibatch(0.0);
}

bool ElasticTrainer::HeartbeatsMuted(VmId vm) const {
  const auto index = static_cast<size_t>(vm);
  return index < heartbeat_mute_until_.size() && heartbeat_mute_until_[index] > engine_->now();
}

void ElasticTrainer::MuteHeartbeats(VmId vm, double duration_s) {
  VARUNA_CHECK_GE(vm, 0);
  VARUNA_CHECK_GT(duration_s, 0.0);
  const auto index = static_cast<size_t>(vm);
  if (index >= heartbeat_mute_until_.size()) {
    heartbeat_mute_until_.resize(index + 1, 0.0);
  }
  double& deadline = heartbeat_mute_until_[index];
  deadline = std::max(deadline, engine_->now() + duration_s);
}

std::vector<VmId> ElasticTrainer::PlacementVms() const {
  if (!placement_.has_value()) {
    return {};
  }
  std::vector<VmId> vms = roster_vms_;
  std::sort(vms.begin(), vms.end());
  vms.erase(std::unique(vms.begin(), vms.end()), vms.end());
  return vms;
}

std::optional<Decision> ElasticTrainer::EvaluateHeartbeats() {
  // Each task reports its per-micro-batch compute time; with identical
  // stages+replicas, outliers against the median expose fail-stutter VMs.
  // VMs that died unannounced (or whose heartbeats chaos dropped) report
  // nothing at all and accumulate missed beats toward the timeout.
  heartbeat_gpus_.clear();
  heartbeat_times_.clear();
  std::vector<VmId> silent;
  for (size_t i = 0; i < roster_gpus_.size(); ++i) {
    const VmId vm = roster_vms_[i];
    const VmInstance& instance = cluster_->Vm(vm);
    if (!instance.active || HeartbeatsMuted(vm)) {
      if (std::find(silent.begin(), silent.end(), vm) == silent.end()) {
        silent.push_back(vm);
      }
      continue;
    }
    heartbeat_gpus_.push_back(roster_gpus_[i]);
    heartbeat_times_.push_back(instance.slow_factor);  // Scaled by its draw below.
    if (static_cast<size_t>(vm) < missed_heartbeats_.size()) {
      missed_heartbeats_[static_cast<size_t>(vm)] = 0;
    }
  }
  // Heartbeat i reports slow_i * e^(sigma g_i). While every |g_i| <= B, each
  // time lies in [min_slow e^(-sigma B), max_slow e^(sigma B)], so if
  // max_slow e^(sigma B) <= threshold * min_slow e^(-sigma B) the spread
  // check below cannot fire: the draws are advanced unread.
  const auto [min_slow, max_slow] =
      std::minmax_element(heartbeat_times_.begin(), heartbeat_times_.end());
  const double spread_bound = std::exp(kHeartbeatNoiseSigma * kHeartbeatSkipBound);
  const bool quiet =
      heartbeat_times_.empty() ||
      (*max_slow * spread_bound * (1.0 + kHeartbeatSkipMargin) <=
           kStutterThreshold * *min_slow / spread_bound &&
       rng_.SkipGaussiansWithin(static_cast<int>(heartbeat_times_.size()), kHeartbeatSkipBound));
  if (!quiet) {
    for (double& time : heartbeat_times_) {
      time *= rng_.LogNormalMedian(1.0, kHeartbeatNoiseSigma);
    }
  }
  std::vector<VmId> dead;
  for (const VmId vm : silent) {
    const auto index = static_cast<size_t>(vm);
    if (index >= missed_heartbeats_.size()) {
      missed_heartbeats_.resize(index + 1, 0);
    }
    if (++missed_heartbeats_[index] >= kHeartbeatTimeoutBeats) {
      dead.push_back(vm);
    }
  }
  if (!dead.empty()) {
    std::sort(dead.begin(), dead.end());
    return Decision{DecisionKind::kHeartbeatTimeout, {}, std::move(dead)};
  }
  if (quiet) {
    return std::nullopt;
  }
  // Every time lies in [min, max] and the median is at least min, so when
  // max <= threshold * min nobody can exceed threshold * median.
  const auto [min_time, max_time] =
      std::minmax_element(heartbeat_times_.begin(), heartbeat_times_.end());
  if (*max_time <= kStutterThreshold * *min_time) {
    return std::nullopt;
  }
  const double median = Percentile(heartbeat_times_, 0.5);
  std::vector<GpuId> stutterers;
  for (size_t i = 0; i < heartbeat_gpus_.size(); ++i) {
    if (heartbeat_times_[i] > kStutterThreshold * median) {
      stutterers.push_back(heartbeat_gpus_[i]);
    }
  }
  if (stutterers.empty()) {
    return std::nullopt;
  }
  // Omit the slow VMs from future placements and re-place.
  return Decision{DecisionKind::kReplace, std::move(stutterers)};
}

void ElasticTrainer::ScheduleProvisionTick() {
  engine_->Schedule(options_.provision_check_interval_s, [this] {
    ScheduleProvisionTick();
    if (const std::optional<Decision> decision = ProvisionTick()) {
      Apply(*decision);
    }
  });
}

std::optional<Decision> ElasticTrainer::ProvisionTick() {
  // Exposure accrues between market events too (a quiet market is evidence of
  // stability). Pure counter arithmetic: no draws, no events.
  predictor_.ObserveQuiet(engine_->now());
  // Heal the blacklist: VMs recover from stutter episodes; give them another
  // chance if they are no longer slow. Entries for dead VMs are dropped too
  // (they can never be placed again), which keeps the list bounded, and muted
  // VMs stay blacklisted until their heartbeats come back.
  std::erase_if(blacklist_, [this](GpuId gpu) {
    const VmId vm = cluster_->VmOfGpu(gpu);
    if (!cluster_->IsActive(vm)) {
      return true;
    }
    return cluster_->SlowFactor(gpu) == 1.0 && !HeartbeatsMuted(vm);
  });

  if (!running_) {
    return EnsureSearch() ? std::optional(Decision{DecisionKind::kConfigure}) : std::nullopt;
  }
  const int available = AvailableGpus();
  if (degraded_ && search_->Best(available, MakeConstraints(false)).ok()) {
    // Degraded mode is a stopgap: leave it the moment the normal memory model
    // fits again (the sweep is memoized, so re-asking is cheap).
    return Decision{DecisionKind::kDegradedExit};
  }
  // The proactive check reruns every tick, because the predictor state moves
  // even when capacity does not. The growth check reruns only when
  // availability moved materially since its last evaluation (morphs are not
  // free). Both read one choice: the liveput argmax when engaged, else the
  // throughput argmax.
  const bool engaged = ProactiveEngaged();
  const bool capacity_moved = std::abs(available - last_growth_check_gpus_) >=
                              std::max(4, last_growth_check_gpus_ / 12);
  if (!engaged && !capacity_moved) {
    return std::nullopt;
  }
  const Result<JobConfig> best = ChooseConfig(available, MakeConstraints(degraded_));
  const bool reshapes = best.ok() && (best.value().pipeline_depth != config_->pipeline_depth ||
                                      best.value().data_parallel != config_->data_parallel);
  if (engaged && reshapes && ProactiveMorphPays(best.value())) {
    return Decision{DecisionKind::kProactiveMorph};
  }
  // Growth: if spare capacity admits a materially better configuration,
  // checkpoint and morph into it. A declined proactive check falls through to
  // here — liveput must never *slow down* regrowth after a storm drains the
  // placement.
  if (!capacity_moved) {
    return std::nullopt;
  }
  last_growth_check_gpus_ = available;
  const double current_rate = config_->ActualBatch() / std::max(1e-9, cached_minibatch_s_);
  if (reshapes &&
      best.value().est_examples_per_s > (1.0 + kMorphImprovementThreshold) * current_rate) {
    return Decision{DecisionKind::kGrowthMorph};
  }
  return std::nullopt;
}

void ElasticTrainer::CheckInvariants() const {
  checkpoints_.CheckInvariants();
  // Conservation: every attempted mini-batch is either committed or rolled
  // back — no silent sample loss, re-work bounded by the checkpoint cadence.
  VARUNA_CHECK_EQ(stats_.minibatches_attempted,
                  stats_.minibatches_done + stats_.minibatches_rolled_back);
  const double example_drift = std::abs(
      stats_.examples_attempted - (stats_.examples_processed + stats_.examples_rolled_back));
  VARUNA_CHECK_LE(example_drift, 1e-6 * std::max(1.0, stats_.examples_attempted));
  // The ledger mirrors the committed set exactly, in order.
  VARUNA_CHECK_EQ(static_cast<int64_t>(committed_ledger_.size()), stats_.minibatches_done);
  for (size_t i = 1; i < committed_ledger_.size(); ++i) {
    VARUNA_CHECK_LT(committed_ledger_[i - 1].first, committed_ledger_[i].first);
  }
  VARUNA_CHECK_GE(stats_.minibatches_done, 0);
  VARUNA_CHECK_GE(stats_.examples_processed, -1e-9);
  // Survived recoveries come from announced evictions (preemptions_hit) and
  // from unannounced kills discovered via heartbeat timeout.
  VARUNA_CHECK_GE(stats_.preemptions_hit + stats_.heartbeat_timeouts,
                  stats_.preemptions_survived);
  if (running_) {
    VARUNA_CHECK(config_.has_value());
    VARUNA_CHECK(placement_.has_value());
    VARUNA_CHECK(partition_.has_value());
  }
}

// Both record the running configuration, so config_ is set.
void ElasticTrainer::RecordSample(double examples_per_s, bool checkpointing) {
  stats_.samples.push_back({engine_->now(), examples_per_s,
                            examples_per_s / config_->gpus_used, config_->pipeline_depth,
                            config_->data_parallel, config_->gpus_used,
                            cluster_->NumActiveGpus(), checkpointing});
}

void ElasticTrainer::RecordEvent(DecisionKind kind) {
  stats_.events.push_back({engine_->now(), kind, config_->pipeline_depth, config_->data_parallel,
                           cluster_->NumActiveGpus()});
}

}  // namespace varuna

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

}  // namespace

Result<std::monostate> TrainerOptions::Validate() const {
  const auto positive = [](double value) { return std::isfinite(value) && value > 0.0; };
  // (holds, message); each message starts with the field it constrains.
  const std::pair<bool, const char*> rules[] = {
      {positive(total_batch), "total_batch must be > 0 and finite"},
      {demand_vms >= 1, "demand_vms must be >= 1"},
      {checkpoint_every_minibatches >= 1, "checkpoint_every_minibatches must be >= 1"},
      // A zero interval would reschedule ProvisionTick at `now` forever.
      {positive(provision_check_interval_s), "provision_check_interval_s must be > 0 and finite"},
      {std::isfinite(minibatch_noise_sigma) && minibatch_noise_sigma >= 0.0,
       "minibatch_noise_sigma must be >= 0 and finite"},
      {search_threads >= 1, "search_threads must be >= 1"},
      {positive(liveput_horizon_s), "liveput_horizon_s must be > 0 and finite"},
      {positive(predictor.window_s), "predictor.window_s must be > 0 and finite"},
      {checkpoint.full_checkpoint_every >= 1, "checkpoint.full_checkpoint_every must be >= 1"},
  };
  for (const auto& [holds, message] : rules) {
    if (!holds) {
      return Result<std::monostate>::Error(message);
    }
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
      graph_(BuildTransformerOpGraph(spec)),
      sections_(IdentifyCutPoints(graph_, spec.num_layers).value()),
      checkpoints_(engine, options.checkpoint, cluster),
      predictor_(options.predictor) {
  const Result<std::monostate> valid = options_.Validate();
  VARUNA_CHECK(valid.ok()) << "invalid TrainerOptions: " << valid.error();
  const TraceReport trace = TraceCrossPartitionState(graph_, sections_, TraceOptions());
  shared_sync_bytes_ = trace.TotalSyncBytes();
  if (options_.budget.gpu_memory_bytes <= 0.0) {
    options_.budget.gpu_memory_bytes = vm_type.gpu.memory_bytes;
  }
  predictor_.SetDemandHint(options_.demand_vms);
  if (options_.morph_policy == MorphPolicy::kOracleProactive) {
    // Upper-bound mode: the predictor is handed the pool's true hazard (the
    // one thing the online estimator has to learn) plus any storm forecasts
    // the chaos scripts feed through ForecastStorm().
    predictor_.EnableOracle(market_->PoolDynamics(market_pool_).preemption_hazard);
  }
}

void ElasticTrainer::Start() {
  // The availability estimator taps the market's announced grant/preemption
  // stream through passive observers — it sees the whole pool, not just the
  // placement, and never the market's hidden dynamics. Observers draw no
  // randomness and schedule no events, so feeding the predictor leaves the
  // reactive decision sequence bit-identical.
  market_->AddGrantObserver(
      [this](int pool, SpotMarket::MarketVmId /*id*/, const VmType& /*type*/) {
        if (pool == market_pool_) {
          predictor_.ObserveGrant(engine_->now());
          stats_.predictor_updates = predictor_.updates();
        }
      });
  market_->AddPreemptObserver([this](int pool, SpotMarket::MarketVmId /*id*/) {
    if (pool == market_pool_) {
      predictor_.ObservePreemption(engine_->now());
      stats_.predictor_updates = predictor_.updates();
    }
  });
  market_->set_grant_handler(
      [this](SpotMarket::MarketVmId id, const VmType& type) { OnVmGranted(id, type); });
  market_->set_preempt_handler([this](SpotMarket::MarketVmId id) { OnVmPreempted(id); });
  // Physical-layer bookkeeping for *every* VM death, announced or not: local
  // checkpoint shards die with their VM. The control path deliberately does
  // not hang off this observer — unannounced deaths must be discovered
  // through missed heartbeats, which is the recovery path under test.
  cluster_->AddPreemptionObserver([this](VmId vm) {
    checkpoints_.OnVmLost(vm);
    stats_.shards_lost = checkpoints_.shards_lost();
  });
  market_->SetDemand(market_pool_, options_.demand_vms);
  stall_started_ = engine_->now();
  engine_->Schedule(options_.provision_check_interval_s, [this] { ProvisionTick(); });
}

int ElasticTrainer::AvailableGpus() const {
  int count = 0;
  for (const GpuId gpu : cluster_->ActiveGpus()) {
    if (std::find(blacklist_.begin(), blacklist_.end(), gpu) == blacklist_.end()) {
      ++count;
    }
  }
  return count;
}

void ElasticTrainer::OnVmGranted(SpotMarket::MarketVmId id, const VmType& type) {
  market_to_vm_[id] = cluster_->AddVm(type);
  if (!running_) {
    TryBootstrap();
  }
}

void ElasticTrainer::OnVmPreempted(SpotMarket::MarketVmId id) {
  const auto it = market_to_vm_.find(id);
  if (it == market_to_vm_.end()) {
    return;
  }
  const VmId vm = it->second;
  market_to_vm_.erase(it);
  cluster_->Preempt(vm);

  if (!running_ || !placement_.has_value()) {
    return;
  }
  // Did the preempted VM host part of the job? The manager notices via the
  // missing heartbeat (one timeout interval later), which naturally coalesces
  // a burst of evictions into a single restore + morph.
  for (const VmId member : roster_vms_) {
    if (member == vm) {
      ++stats_.preemptions_hit;
      ++unsurvived_preemptions_;
      if (restore_in_flight_) {
        // The restore window itself was killed; the coming morph is a retry.
        ++stats_.morph_retries;
        ++consecutive_recovery_failures_;
      }
      running_ = false;
      minibatch_in_flight_ = false;
      ++epoch_;
      if (stall_started_ < 0.0) {
        stall_started_ = engine_->now();
      }
      if (!preemption_morph_pending_) {
        preemption_morph_pending_ = true;
        // Within the retry budget, re-morph quickly; past it, assume the
        // market is churning faster than we can restore and back off.
        const double delay =
            consecutive_recovery_failures_ >= kMaxMorphAttempts ? BackoffDelay() : 30.0;
        engine_->Schedule(delay, [this] { DeferredPreemptionMorph(); });
      }
      return;
    }
  }
}

void ElasticTrainer::DeferredPreemptionMorph() {
  preemption_morph_pending_ = false;
  if (running_) {
    return;  // Something else already reconfigured.
  }
  RollbackToCheckpoint();
  Reconfigure("morph", /*lost_state=*/true);
}

int64_t ElasticTrainer::RollbackToCheckpoint() {
  // Per-shard tracking makes LatestUsable() the true resume frontier: shards
  // whose owners died mid-flush were already demoted by OnVmLost, so this
  // falls back to the newest checkpoint with no holes.
  const int64_t restorable = checkpoints_.LatestUsable();
  const int64_t target = std::max<int64_t>(restorable, 0);
  const int64_t lost = std::max<int64_t>(0, stats_.minibatches_done - target);
  ++stats_.restarts;
  stats_.last_restore_step = restorable;
  stats_.shards_lost = checkpoints_.shards_lost();
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
  return restorable;
}

void ElasticTrainer::TryBootstrap() {
  if (calibration_.has_value()) {
    Reconfigure("configure", /*lost_state=*/false);
    return;
  }
  if (cluster_->NumActiveGpus() < 4) {
    return;  // Wait for enough capacity to calibrate.
  }
  Rng calibration_rng = rng_.Fork();
  Result<Calibration> calibration =
      Calibrate(sections_, *cluster_, options_.calibration, &calibration_rng);
  if (!calibration.ok()) {
    return;
  }
  calibration_ = std::move(calibration).value();
  if (options_.search_threads > 1 && !search_pool_) {
    search_pool_ = std::make_unique<ThreadPool>(options_.search_threads);
  }
  search_ = std::make_unique<ConfigSearch>(&spec_, &sections_, &calibration_.value(),
                                           search_pool_.get());
  Reconfigure("configure", /*lost_state=*/false);
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
  if (!config_.has_value()) {
    return 0;
  }
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
  double cost = 0.0;
  if (config_.has_value()) {
    cost += EstimatedRestoreSeconds(config_->data_parallel);
  }
  if (cached_minibatch_s_ > 0.0) {
    cost += 0.5 * static_cast<double>(options_.checkpoint_every_minibatches) *
            cached_minibatch_s_;
  }
  return cost;
}

double ElasticTrainer::EstimatedHandoffSeconds(const JobConfig& config) const {
  const int gpus_per_vm = std::max(1, vm_type_.node.num_gpus);
  const int needed = std::max(1, (config.gpus_used + gpus_per_vm - 1) / gpus_per_vm);
  const int cold = std::max(0, needed - PlacementVmsUsed());
  const double cold_fraction = static_cast<double>(cold) / static_cast<double>(needed);
  const double setup = kWarmRestoreSetupS + (kRestoreSetupS - kWarmRestoreSetupS) * cold_fraction;
  if (cold == 0 || !placement_.has_value()) {
    return setup;  // Pure repack: state reshuffles in place during rebuild.
  }
  // The cold VMs' share of the live state moves in `cold` parallel streams;
  // price one representative cross-node flow (the real flows are priced in
  // BeginLiveHandoff once PlaceJob names the incoming VMs).
  const GpuId src = roster_gpus_.front();
  GpuId dst = src;
  for (const GpuId gpu : cluster_->ActiveGpus()) {
    if (!cluster_->topology().SameNode(gpu, src)) {
      dst = gpu;
      break;
    }
  }
  const double total_bytes =
      kCheckpointBytesPerParam * spec_.TotalParams() * cold_fraction;
  const double per_stream_bytes = total_bytes / static_cast<double>(cold);
  const double transfer =
      cluster_->network().MeanTransferTime(src, dst, per_stream_bytes, cold);
  return std::max(setup, transfer);
}

double ElasticTrainer::BeginLiveHandoff(const std::vector<VmId>& outgoing,
                                        const std::vector<VmId>& incoming) {
  ++stats_.live_handoffs;
  std::vector<VmId> cold;
  for (const VmId vm : incoming) {
    if (!std::binary_search(outgoing.begin(), outgoing.end(), vm)) {
      cold.push_back(vm);
    }
  }
  const double incoming_count = static_cast<double>(std::max<size_t>(1, incoming.size()));
  const double setup =
      kWarmRestoreSetupS + (kRestoreSetupS - kWarmRestoreSetupS) *
                               static_cast<double>(cold.size()) / incoming_count;
  if (cold.empty()) {
    return setup;  // Same VM set, new shape: state reshuffles locally.
  }
  // The cold VMs' share of the state streams from the outgoing placement,
  // one flow per cold VM, all concurrent, overlapped with the process-group
  // rebuild of the warm survivors.
  const double total_bytes = kCheckpointBytesPerParam * spec_.TotalParams() *
                             static_cast<double>(cold.size()) / incoming_count;
  const double per_stream_bytes = total_bytes / static_cast<double>(cold.size());
  std::vector<std::pair<GpuId, GpuId>> flows;
  flows.reserve(cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    const VmId src_vm = outgoing[i % outgoing.size()];
    flows.emplace_back(
        cluster_->topology().GpusOfNode(cluster_->Vm(src_vm).node).front(),
        cluster_->topology().GpusOfNode(cluster_->Vm(cold[i]).node).front());
  }
  const double transfer =
      cluster_->network().MeanParallelTransferTime(flows, per_stream_bytes);
  // One completion event per stream: the bytes land when the transfer does;
  // a morph that supersedes this one (epoch moved on) aborts the transfer
  // and lands nothing.
  const int concurrent = static_cast<int>(flows.size());
  for (const auto& [src, dst] : flows) {
    const double stream_s =
        cluster_->network().MeanTransferTime(src, dst, per_stream_bytes, concurrent);
    engine_->Schedule(stream_s, [this, epoch = epoch_, per_stream_bytes] {
      if (epoch == epoch_) {
        stats_.handoff_bytes += per_stream_bytes;
      }
    });
  }
  return std::max(setup, transfer);
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
  const LiveputObjective objective(&predictor_, options_.liveput_horizon_s,
                                   std::max(1, vm_type_.node.num_gpus), RecoveryCostS());
  const JobConfig* liveput_best = objective.BestLiveput(sweep.value());
  // Throughput argmax with the same tie-break (strict >, earliest (P, m)
  // wins) — what Best() would have picked.
  const JobConfig* throughput_best = &sweep.value().front();
  for (const JobConfig& config : sweep.value()) {
    if (config.est_examples_per_s > throughput_best->est_examples_per_s) {
      throughput_best = &config;
    }
  }
  if (!(*liveput_best == *throughput_best)) {
    ++stats_.liveput_wins;
  }
  return *liveput_best;
}

bool ElasticTrainer::EvaluateProactiveMorph(int available_gpus) {
  const Result<std::vector<JobConfig>> sweep =
      search_->Sweep(available_gpus, MakeConstraints(degraded_));
  SyncSearchStats();
  if (!sweep.ok() || sweep.value().empty()) {
    return false;
  }
  const LiveputObjective objective(&predictor_, options_.liveput_horizon_s,
                                   std::max(1, vm_type_.node.num_gpus), RecoveryCostS());
  const JobConfig* best = objective.BestLiveput(sweep.value());
  if (best->pipeline_depth == config_->pipeline_depth &&
      best->data_parallel == config_->data_parallel) {
    return false;
  }
  // Score the incumbent with its *measured* rate (what we would actually keep
  // earning) and the candidate with its estimate; both survival-weighted.
  const double current_rate = config_->ActualBatch() / std::max(1e-9, cached_minibatch_s_);
  const double current_score = objective.Score(
      current_rate, predictor_.PlacementSurvival(PlacementVmsUsed(), options_.liveput_horizon_s));
  const double best_score = objective.Score(*best);
  if (best_score <= (1.0 + kLiveputGainThreshold) * current_score) {
    return false;
  }
  // Cost model: the examples the liveput gain buys over the horizon must pay
  // for the examples forgone during the morph stall — the live handoff when
  // enabled (a voluntary morph moves state peer-to-peer), the record-aware
  // checkpoint restore otherwise.
  const double restore_s = options_.checkpoint.live_handoff
                               ? EstimatedHandoffSeconds(*best)
                               : EstimatedRestoreSeconds(best->data_parallel);
  if ((best_score - current_score) * options_.liveput_horizon_s <=
      current_rate * restore_s) {
    return false;
  }
  ++stats_.proactive_morphs;
  running_ = false;
  minibatch_in_flight_ = false;
  ++epoch_;
  stall_started_ = engine_->now();
  Reconfigure("proactive-morph", /*lost_state=*/false);
  return true;
}

void ElasticTrainer::ForecastStorm(double at_s, int vms) {
  if (options_.morph_policy != MorphPolicy::kOracleProactive) {
    return;  // The online predictor must learn from the observed stream.
  }
  predictor_.ForecastStorm(at_s, vms);
}

void ElasticTrainer::Reconfigure(const std::string& event_kind, bool lost_state) {
  if (!search_) {
    TryBootstrap();
    if (!search_) {
      ScheduleReprovisionRetry();  // Not even enough capacity to calibrate.
    }
    return;
  }
  const int gpus = AvailableGpus();
  const bool was_degraded = degraded_;
  // Outgoing placement, captured before a successful attempt() overwrites it:
  // the live-handoff path sources state from these VMs.
  const std::vector<VmId> outgoing_vms = PlacementVms();

  const auto attempt = [&](bool degraded) {
    const Result<JobConfig> best = ChooseConfig(gpus, MakeConstraints(degraded));
    SyncSearchStats();
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
    running_ = false;
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
  if (lost_state || stats_.minibatches_done > 0) {
    const std::vector<VmId> incoming_vms = PlacementVms();
    const bool outgoing_intact =
        !outgoing_vms.empty() &&
        std::all_of(outgoing_vms.begin(), outgoing_vms.end(),
                    [this](VmId vm) { return cluster_->IsActive(vm); });
    if (!lost_state && options_.checkpoint.live_handoff &&
        stats_.minibatches_done > 0 && outgoing_intact) {
      // Voluntary morph with the outgoing placement still alive: hand the
      // live state over peer-to-peer instead of a checkpoint round trip.
      restore_delay = BeginLiveHandoff(outgoing_vms, incoming_vms);
    } else {
      // Involuntary (or handoff-ineligible) morph restores from the newest
      // usable checkpoint chain; VMs carried across the morph count as warm.
      int warm_vms = 0;
      for (const VmId vm : incoming_vms) {
        if (std::binary_search(outgoing_vms.begin(), outgoing_vms.end(), vm)) {
          ++warm_vms;
        }
      }
      RestoreBreakdown breakdown;
      restore_delay = checkpoints_.RestoreSeconds(
          checkpoints_.LatestUsable(), spec_.TotalParams(), config_->data_parallel,
          incoming_vms, warm_vms, &breakdown);
      stats_.restore_chain_records += breakdown.chain_records;
      stats_.restore_setup_s += breakdown.setup_s;
      stats_.restore_ssd_s += breakdown.ssd_s;
      stats_.restore_peer_s += breakdown.peer_s;
      stats_.restore_cloud_s += breakdown.cloud_s;
      stats_.restore_shards_ssd += breakdown.shards_ssd;
      stats_.restore_shards_peer += breakdown.shards_peer;
      stats_.restore_shards_cloud += breakdown.shards_cloud;
      stats_.restore_shards_premigrated += breakdown.shards_premigrated;
    }
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
    RecordEvent("recover");
  } else if (!was_degraded && degraded_) {
    ++stats_.degraded_intervals;
    RecordEvent("degraded");
  }
  RecordEvent(event_kind);
  if (morph_observer_) {
    morph_observer_(event_kind, restore_delay);
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
    if (running_) {
      return;  // A grant or provision tick already recovered the job.
    }
    if (!search_) {
      TryBootstrap();
      if (!search_) {
        ScheduleReprovisionRetry();
      }
      return;
    }
    Reconfigure("configure", stats_.minibatches_done > 0);
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
  // Snapshot the simulation-core counters (bench JSON reads them off stats()).
  stats_.executor_events = executor_.events_processed();
  stats_.executor_scratch_growths = executor_.scratch_growths();
  return cached_minibatch_s_;
}

void ElasticTrainer::ScheduleNextMinibatch(double extra_delay) {
  if (!running_ || minibatch_in_flight_) {
    return;
  }
  double duration = MeasuredMinibatchSeconds();
  if (options_.minibatch_noise_sigma > 0.0) {
    duration = rng_.LogNormalMedian(duration, options_.minibatch_noise_sigma);
  }
  bool checkpointing = false;
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
    stats_.delta_checkpoints = checkpoints_.delta_checkpoints_written();
    stats_.checkpoint_records_pruned = checkpoints_.records_pruned();
    checkpointing = true;
    if (premigration) {
      stats_.premigrated_shards += config_->data_parallel;
      // A premigrated delta record moves only the changed fraction.
      stats_.premigrated_bytes += checkpoints_.last_checkpoint_bytes();
    }
  }
  minibatch_in_flight_ = true;
  RecordSample(config_->ActualBatch() / duration, checkpointing);
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
  ProcessHeartbeats();
  if (epoch != epoch_ || !running_) {
    return;  // Heartbeat processing replaced the configuration.
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

void ElasticTrainer::ProcessHeartbeats() {
  // Each task reports its per-micro-batch compute time; with identical
  // stages+replicas, outliers against the median expose fail-stutter VMs.
  // VMs that died unannounced (or whose heartbeats chaos dropped) report
  // nothing at all and accumulate missed beats toward the timeout.
  if (!running_ || !placement_.has_value()) {
    return;
  }
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
    HandleHeartbeatTimeout(dead);
    return;
  }
  if (quiet) {
    return;
  }
  // Every time lies in [min, max] and the median is at least min, so when
  // max <= threshold * min nobody can exceed threshold * median.
  const auto [min_time, max_time] =
      std::minmax_element(heartbeat_times_.begin(), heartbeat_times_.end());
  if (*max_time <= kStutterThreshold * *min_time) {
    return;
  }
  const double median = Percentile(heartbeat_times_, 0.5);
  std::vector<GpuId> stutterers;
  for (size_t i = 0; i < heartbeat_gpus_.size(); ++i) {
    if (heartbeat_times_[i] > kStutterThreshold * median) {
      stutterers.push_back(heartbeat_gpus_[i]);
    }
  }
  if (stutterers.empty()) {
    return;
  }
  // Omit the slow VMs' GPUs from future placements and re-place.
  for (const GpuId gpu : stutterers) {
    const VmId vm = cluster_->VmOfGpu(gpu);
    for (const GpuId sibling : cluster_->ActiveGpus()) {
      if (cluster_->VmOfGpu(sibling) == vm &&
          std::find(blacklist_.begin(), blacklist_.end(), sibling) == blacklist_.end()) {
        blacklist_.push_back(sibling);
      }
    }
  }
  stats_.stutters_detected += static_cast<int>(stutterers.size());
  running_ = false;
  minibatch_in_flight_ = false;
  ++epoch_;
  stall_started_ = engine_->now();
  Reconfigure("replace", /*lost_state=*/false);
}

void ElasticTrainer::HandleHeartbeatTimeout(const std::vector<VmId>& dead) {
  for (const VmId vm : dead) {
    missed_heartbeats_[static_cast<size_t>(vm)] = 0;
    // A VM the manager cannot reach is a VM whose local shards it cannot
    // read; treat them as lost even if the VM is merely partitioned.
    checkpoints_.OnVmLost(vm);
    for (const GpuId gpu : cluster_->topology().GpusOfNode(cluster_->Vm(vm).node)) {
      if (std::find(blacklist_.begin(), blacklist_.end(), gpu) == blacklist_.end()) {
        blacklist_.push_back(gpu);
      }
    }
    ++stats_.heartbeat_timeouts;
    ++unsurvived_preemptions_;
  }
  if (restore_in_flight_) {
    ++stats_.morph_retries;
    ++consecutive_recovery_failures_;
  }
  running_ = false;
  minibatch_in_flight_ = false;
  ++epoch_;
  if (stall_started_ < 0.0) {
    stall_started_ = engine_->now();
  }
  RollbackToCheckpoint();
  Reconfigure("heartbeat-timeout", /*lost_state=*/true);
}

void ElasticTrainer::ProvisionTick() {
  engine_->Schedule(options_.provision_check_interval_s, [this] { ProvisionTick(); });
  // Exposure accrues between market events too (a quiet market is evidence of
  // stability). Pure counter arithmetic: no draws, no events.
  predictor_.ObserveQuiet(engine_->now());
  stats_.predictor_updates = predictor_.updates();
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
    TryBootstrap();
    if (!running_ && search_) {
      Reconfigure("configure", stats_.minibatches_done > 0);
    }
    return;
  }
  const int available = AvailableGpus();
  if (degraded_) {
    // Degraded mode is a stopgap: leave it the moment the normal memory model
    // fits again (the sweep is memoized, so re-asking is cheap).
    const Result<JobConfig> normal = search_->Best(available, MakeConstraints(false));
    SyncSearchStats();
    if (normal.ok()) {
      running_ = false;
      minibatch_in_flight_ = false;
      ++epoch_;
      stall_started_ = engine_->now();
      Reconfigure("morph", /*lost_state=*/false);
      return;
    }
  }
  if (ProactiveEngaged()) {
    // Proactive pass first: the predictor state moves even when capacity does
    // not, so this reruns every tick. When it declines to morph, fall through
    // to the ordinary growth gate — liveput must never *slow down* regrowth
    // after a storm drains the placement.
    if (EvaluateProactiveMorph(available)) {
      return;
    }
  }
  // Growth: if spare capacity admits a materially better configuration,
  // checkpoint and morph into it. The sweep only reruns when availability
  // moved materially since the last evaluation.
  if (std::abs(available - last_growth_check_gpus_) <
      std::max(4, last_growth_check_gpus_ / 12)) {
    return;
  }
  last_growth_check_gpus_ = available;
  const Result<JobConfig> best = ChooseConfig(available, MakeConstraints(degraded_));
  SyncSearchStats();
  if (!best.ok()) {
    return;
  }
  const double current_rate = config_->ActualBatch() / std::max(1e-9, cached_minibatch_s_);
  if (best.value().est_examples_per_s > (1.0 + kMorphImprovementThreshold) * current_rate &&
      (best.value().pipeline_depth != config_->pipeline_depth ||
       best.value().data_parallel != config_->data_parallel)) {
    running_ = false;
    minibatch_in_flight_ = false;
    ++epoch_;
    stall_started_ = engine_->now();
    Reconfigure("morph", /*lost_state=*/false);
  }
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
  VARUNA_CHECK_EQ(stats_.shards_lost, checkpoints_.shards_lost());
  if (running_) {
    VARUNA_CHECK(config_.has_value());
    VARUNA_CHECK(placement_.has_value());
    VARUNA_CHECK(partition_.has_value());
  }
}

void ElasticTrainer::RecordSample(double examples_per_s, bool checkpointing) {
  TimelineSample sample;
  sample.time_s = engine_->now();
  sample.examples_per_s = examples_per_s;
  sample.pipeline_depth = config_.has_value() ? config_->pipeline_depth : 0;
  sample.data_parallel = config_.has_value() ? config_->data_parallel : 0;
  sample.gpus_in_use = config_.has_value() ? config_->gpus_used : 0;
  sample.examples_per_s_per_gpu =
      sample.gpus_in_use > 0 ? examples_per_s / sample.gpus_in_use : 0.0;
  sample.gpus_available = cluster_->NumActiveGpus();
  sample.checkpointing = checkpointing;
  stats_.samples.push_back(sample);
}

void ElasticTrainer::SyncSearchStats() {
  const ConfigSearchStats stats = search_->stats();
  stats_.sweep_cache_hits = stats.sweep_cache_hits;
  stats_.sweep_cache_misses = stats.sweep_cache_misses;
  stats_.candidate_memo_hits = stats.candidate_memo_hits;
  stats_.candidate_memo_misses = stats.candidate_memo_misses;
  stats_.candidates_pruned = stats.candidates_pruned;
}

void ElasticTrainer::RecordEvent(const std::string& kind) {
  TimelineEvent event;
  event.time_s = engine_->now();
  event.kind = kind;
  event.pipeline_depth = config_.has_value() ? config_->pipeline_depth : 0;
  event.data_parallel = config_.has_value() ? config_->data_parallel : 0;
  event.gpus_available = cluster_->NumActiveGpus();
  stats_.events.push_back(event);
}

}  // namespace varuna

#include "src/chaos/chaos.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/cluster/vm.h"
#include "src/common/check.h"
#include "src/common/units.h"

namespace varuna {
namespace {

// Poll cadence for the mid-flush shard hunt. Coarse enough to stay cheap,
// fine enough to land inside a flush window (tens of seconds at the default
// checkpoint bandwidths).
constexpr double kShardPollIntervalS = 5.0;

}  // namespace

ChaosPlan ChaosPlan::Scripted(std::vector<ChaosAction> actions) {
  ChaosPlan plan;
  plan.actions = std::move(actions);
  return plan;
}

ChaosPlan ChaosPlan::Random(Rng* rng, double horizon_s, int num_actions) {
  VARUNA_CHECK_GT(horizon_s, 0.0);
  ChaosPlan plan;
  for (int i = 0; i < num_actions; ++i) {
    ChaosAction action;
    action.at_s = rng->Uniform(0.05, 0.90) * horizon_s;
    action.kind = static_cast<ChaosActionKind>(rng->UniformInt(0, 6));
    switch (action.kind) {
      case ChaosActionKind::kPreemptionStorm:
        action.count = static_cast<int>(rng->UniformInt(1, 5));
        action.duration_s = rng->Uniform(10.0, 120.0);
        break;
      case ChaosActionKind::kTargetedShardKill:
        action.count = static_cast<int>(rng->UniformInt(1, 8));
        action.duration_s = rng->Uniform(120.0, 900.0);
        break;
      case ChaosActionKind::kFailStutterBurst:
        action.count = static_cast<int>(rng->UniformInt(1, 4));
        action.magnitude = rng->Uniform(0.15, 0.5);
        action.duration_s = rng->Uniform(300.0, 1800.0);
        break;
      case ChaosActionKind::kHeartbeatLoss:
        action.count = static_cast<int>(rng->UniformInt(1, 3));
        action.duration_s = rng->Uniform(60.0, 600.0);
        break;
      case ChaosActionKind::kCorruptShard:
        action.count = static_cast<int>(rng->UniformInt(1, 2));
        break;
      case ChaosActionKind::kMidMorphPreempt:
        action.count = static_cast<int>(rng->UniformInt(1, 2));
        break;
      case ChaosActionKind::kCapacityCrash:
        action.magnitude = rng->Uniform(0.05, 0.5);
        action.duration_s = rng->Uniform(600.0, 2400.0);
        break;
    }
    plan.actions.push_back(action);
  }
  return plan;
}

ChaosEngine::ChaosEngine(SimEngine* engine, Cluster* cluster, SpotMarket* market,
                         int market_pool, ElasticTrainer* trainer,
                         FailStutterInjector* stutter, double baseline_mean_availability,
                         Rng rng, ChaosPlan plan)
    : engine_(engine),
      cluster_(cluster),
      market_(market),
      market_pool_(market_pool),
      trainer_(trainer),
      stutter_(stutter),
      baseline_mean_availability_(baseline_mean_availability),
      rng_(std::move(rng)),
      plan_(std::move(plan)) {}

void ChaosEngine::Start() {
  VARUNA_CHECK(!started_) << "ChaosEngine started twice";
  started_ = true;
  trainer_->set_morph_observer([this](double restore_delay_s) { OnMorph(restore_delay_s); });
  for (const ChaosAction& action : plan_.actions) {
    VARUNA_CHECK_GE(action.at_s, 0.0);
    engine_->Schedule(action.at_s, [this, action] { Fire(action); });
    ForecastAction(action);
  }
}

void ChaosEngine::ForecastAction(const ChaosAction& action) {
  // Storm forecasts for the oracle-proactive upper bound. The trainer drops
  // them unless its policy is kOracleProactive, so reactive and online-
  // predictor campaigns are untouched.
  switch (action.kind) {
    case ChaosActionKind::kPreemptionStorm:
      // Mirror Fire()'s spread: each kill is its own forecast entry.
      for (int i = 0; i < action.count; ++i) {
        const double delay =
            action.count > 1 ? action.duration_s * i / (action.count - 1) : 0.0;
        trainer_->ForecastStorm(action.at_s + delay, 1);
      }
      break;
    case ChaosActionKind::kMidMorphPreempt:
      // Fires mid-restore of the next morph after arming — timing unknowable
      // in advance, so forecast at the arming time (conservative).
      trainer_->ForecastStorm(action.at_s, action.count);
      break;
    case ChaosActionKind::kCapacityCrash: {
      const double fraction = std::clamp(action.magnitude, 0.0, 1.0);
      const int kills = static_cast<int>(
          std::ceil((1.0 - fraction) * market_->PoolMaxVms(market_pool_)));
      trainer_->ForecastStorm(action.at_s, kills);
      break;
    }
    default:
      break;  // Stutter/heartbeat/corruption actions do not evict VMs.
  }
}

void ChaosEngine::Fire(const ChaosAction& action) {
  switch (action.kind) {
    case ChaosActionKind::kPreemptionStorm: {
      // Spread the kills over the window; each is a separate announced
      // market reclaim, so the manager's coalescing is genuinely exercised.
      for (int i = 0; i < action.count; ++i) {
        const double delay =
            action.count > 1 ? action.duration_s * i / (action.count - 1) : 0.0;
        engine_->Schedule(delay,
                          [this] { vms_killed_ += market_->ForcePreempt(market_pool_, 1); });
      }
      break;
    }
    case ChaosActionKind::kTargetedShardKill:
      PollShardKill(engine_->now() + action.duration_s, action.count);
      break;
    case ChaosActionKind::kFailStutterBurst:
      if (stutter_ != nullptr) {
        stutter_->Burst(action.count, 1.0 + std::max(0.05, action.magnitude),
                        action.duration_s);
      }
      break;
    case ChaosActionKind::kHeartbeatLoss: {
      const std::vector<VmId> vms = trainer_->PlacementVms();
      if (vms.empty()) {
        break;
      }
      for (int i = 0; i < action.count; ++i) {
        const VmId vm = vms[static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(vms.size()) - 1))];
        trainer_->MuteHeartbeats(vm, action.duration_s);
      }
      break;
    }
    case ChaosActionKind::kCorruptShard: {
      const int64_t target = trainer_->checkpoints().LatestUsable();
      if (target < 0) {
        break;
      }
      const CheckpointRecord* record = trainer_->checkpoints().Record(target);
      VARUNA_CHECK(record != nullptr);
      const int num_shards = static_cast<int>(record->shards.size());
      for (int i = 0; i < action.count; ++i) {
        const int shard = static_cast<int>(rng_.UniformInt(0, num_shards - 1));
        if (trainer_->mutable_checkpoints()->CorruptShard(target, shard)) {
          ++shards_corrupted_;
        }
      }
      break;
    }
    case ChaosActionKind::kMidMorphPreempt:
      armed_mid_morph_ += action.count;
      break;
    case ChaosActionKind::kCapacityCrash: {
      const double fraction = std::clamp(action.magnitude, 0.0, 1.0);
      market_->CrashAvailability(market_pool_, fraction);
      // Pin the mean down for the window so the process does not revert
      // immediately, then release it.
      market_->SetMeanAvailability(market_pool_, fraction);
      engine_->Schedule(action.duration_s, [this] {
        market_->SetMeanAvailability(market_pool_, baseline_mean_availability_);
      });
      break;
    }
  }
}

void ChaosEngine::PollShardKill(double deadline_s, int count) {
  const std::vector<VmId> owners = trainer_->checkpoints().ShardOwnersInFlight();
  if (!owners.empty()) {
    int killed = 0;
    for (const VmId vm : owners) {
      if (killed >= count) {
        break;
      }
      if (!cluster_->IsActive(vm)) {
        continue;
      }
      // Unannounced: straight at the cluster, behind the market's back. The
      // manager must notice via missed heartbeats; the checkpoint store's
      // preemption observer demotes the mid-flush shards to kLost.
      cluster_->Preempt(vm);
      ++killed;
    }
    vms_killed_ += killed;
    if (killed > 0) {
      return;
    }
  }
  if (engine_->now() + kShardPollIntervalS > deadline_s) {
    return;  // Window closed without catching a flush in flight.
  }
  engine_->Schedule(kShardPollIntervalS,
                    [this, deadline_s, count] { PollShardKill(deadline_s, count); });
}

void ChaosEngine::OnMorph(double restore_delay_s) {
  if (armed_mid_morph_ <= 0 || restore_delay_s <= 0.0) {
    return;
  }
  const int count = armed_mid_morph_;
  armed_mid_morph_ = 0;
  // Land in the middle of the restore window, killing the morph in flight.
  engine_->Schedule(restore_delay_s * 0.5, [this, count] {
    vms_killed_ += market_->ForcePreempt(market_pool_, count);
  });
}

ChaosCampaignSpec DefaultChaosCampaign(uint64_t seed) {
  ChaosCampaignSpec spec;
  spec.spec = Gpt2Medium();
  spec.options.total_batch = 1024;
  spec.options.demand_vms = spec.max_vms;
  spec.options.checkpoint_every_minibatches = 4;
  spec.options.provision_check_interval_s = 600.0;
  spec.options.seed = seed;
  return spec;
}

ChaosCampaignSpec RandomChaosCampaign(uint64_t seed) {
  ChaosCampaignSpec spec = DefaultChaosCampaign(seed);
  // The plan generator forks off a distinct stream so the campaign seed
  // simultaneously drives the session (via options.seed) and the plan.
  Rng plan_rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  const int num_actions = 2 + static_cast<int>(plan_rng.UniformInt(0, 4));
  spec.plan = ChaosPlan::Random(&plan_rng, spec.horizon_s, num_actions);
  return spec;
}

ChaosCampaignSpec StormyChaosCampaign(uint64_t seed) {
  ChaosCampaignSpec spec = DefaultChaosCampaign(seed);
  // Elevated baseline churn plus scripted eviction waves over a longer
  // horizon. Sparse checkpoint cadence so a storm that lands between
  // checkpoints rolls back real work — the gap pre-migration closes.
  spec.preemption_hazard_per_s = 1.0 / (2.5 * 3600.0);
  spec.horizon_s = 2.0 * 3600.0;
  spec.options.checkpoint_every_minibatches = 16;
  Rng storm_rng(seed * 2654435761ULL + 99991ULL);
  const int num_storms = 3 + static_cast<int>(storm_rng.UniformInt(0, 2));
  for (int i = 0; i < num_storms; ++i) {
    ChaosAction storm;
    storm.kind = ChaosActionKind::kPreemptionStorm;
    storm.at_s = storm_rng.Uniform(0.10, 0.85) * spec.horizon_s;
    storm.count = static_cast<int>(storm_rng.UniformInt(2, 6));
    storm.duration_s = storm_rng.Uniform(30.0, 240.0);
    spec.plan.actions.push_back(storm);
  }
  std::sort(spec.plan.actions.begin(), spec.plan.actions.end(),
            [](const ChaosAction& a, const ChaosAction& b) { return a.at_s < b.at_s; });
  return spec;
}

ChaosCampaignSpec FastRecoveryStormCampaign(uint64_t seed) {
  ChaosCampaignSpec spec = StormyChaosCampaign(seed);
  // Same storms, same seeds — only the recovery machinery differs: full
  // snapshot every 4th cadence with ~25% deltas between, and restores priced
  // per shard from the cheapest live source.
  spec.options.checkpoint.full_checkpoint_every = 4;
  spec.options.checkpoint.locality_aware_restore = true;
  return spec;
}

ChaosReport RunChaosCampaign(const ChaosCampaignSpec& spec) {
  SimEngine engine;
  Cluster cluster(CommodityFabric());
  SpotMarket market(&engine, Rng(spec.options.seed * 7919 + 17), 60.0);

  SpotPoolDynamics dynamics;
  dynamics.mean_availability = spec.mean_availability;
  dynamics.volatility = spec.volatility;
  dynamics.preemption_hazard = spec.preemption_hazard_per_s;
  dynamics.max_grants_per_tick = 64;
  const int pool = market.AddPool(Nc6V3(), spec.max_vms, dynamics);

  ElasticTrainer trainer(&engine, &cluster, &market, pool, Nc6V3(), spec.spec, spec.options);

  // The plan drives every stutter episode through Burst().
  FailStutterInjector stutter(&engine, &cluster, Rng(spec.options.seed * 31337 + 7),
                              FailStutterOptions{.autonomous_onsets = false});

  ChaosEngine chaos(&engine, &cluster, &market, pool, &trainer, &stutter,
                    spec.mean_availability, Rng(spec.options.seed * 104729 + 3), spec.plan);

  // Registration order is part of the determinism contract: the trainer's
  // checkpoint observer attaches before the stutter injector's.
  trainer.Start();
  stutter.Start();
  chaos.Start();
  market.Start();
  engine.RunUntil(spec.horizon_s);

  engine.CheckInvariants();
  trainer.CheckInvariants();

  ChaosReport report;
  report.trace = CaptureElasticTrace(engine, trainer);
  report.fingerprint = report.trace.Fingerprint();
  report.stats = trainer.stats();
  report.vms_killed_by_chaos = chaos.vms_killed();
  report.shards_corrupted_by_chaos = chaos.shards_corrupted();
  return report;
}

}  // namespace varuna

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/cluster/cluster.h"
#include "src/cluster/vm.h"
#include "src/common/stats.h"
#include "src/manager/checkpoint.h"
#include "src/manager/elastic_trainer.h"
#include "src/model/transformer.h"
#include "src/sim/engine.h"
#include "tests/seeded_session.h"

namespace varuna {
namespace {

TEST(CheckpointStoreTest, LocalThenCloud) {
  SimEngine engine;
  CheckpointOptions options;
  CheckpointStore store(&engine, options);
  EXPECT_EQ(store.LatestComplete(), -1);
  const double stall = store.BeginCheckpoint(7, 2.5e9, 5);
  // Sharded write: 14 B/param * 2.5e9 / 5 replicas / 1 GB/s = 7 s.
  EXPECT_NEAR(stall, 7.0, 0.1);
  // Usable from the owners' local SSDs, not yet complete in cloud storage.
  EXPECT_EQ(store.LatestUsable(), 7);
  EXPECT_EQ(store.LatestComplete(), -1);
  engine.Run();  // Background upload completes.
  EXPECT_EQ(store.LatestComplete(), 7);
}

TEST(CheckpointStoreTest, MoreReplicasShardFaster) {
  SimEngine engine;
  CheckpointStore store(&engine, CheckpointOptions());
  const double d1 = store.BeginCheckpoint(0, 1e9, 1);
  const double d8 = store.BeginCheckpoint(1, 1e9, 8);
  EXPECT_NEAR(d1 / d8, 8.0, 0.01);
}

TEST(CheckpointStoreTest, RestoreIncludesSetupCost) {
  SimEngine engine;
  CheckpointOptions options;
  CheckpointStore store(&engine, options);
  EXPECT_GE(store.RestoreDuration(1e9, 4), kRestoreSetupS);
}

struct SessionFixture {
  SimEngine engine;
  Cluster cluster{CommodityFabric()};
  SpotMarket market{&engine, Rng(17), 60.0};
  int pool = 0;
  std::unique_ptr<ElasticTrainer> trainer;

  explicit SessionFixture(const TransformerSpec& spec, int max_vms, TrainerOptions options,
                          SpotPoolDynamics dynamics = {}) {
    pool = market.AddPool(Nc6V3(), max_vms, dynamics);
    trainer = std::make_unique<ElasticTrainer>(&engine, &cluster, &market, pool, Nc6V3(), spec,
                                               options);
    trainer->Start();
    market.Start();
  }
};

SpotPoolDynamics StableDynamics() {
  SpotPoolDynamics dynamics;
  dynamics.mean_availability = 1.0;
  dynamics.volatility = 0.0;
  dynamics.preemption_hazard = 0.0;
  dynamics.max_grants_per_tick = 64;
  return dynamics;
}

TEST(ElasticTrainerTest, BootstrapsAndTrains) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 40;
  SessionFixture fx(Gpt2_2_5B(), 40, options, StableDynamics());
  fx.engine.RunUntil(4.0 * kHour);
  EXPECT_TRUE(fx.trainer->job_running());
  EXPECT_GT(fx.trainer->stats().minibatches_done, 10);
  EXPECT_GT(fx.trainer->stats().examples_processed, 10 * 2400.0);
  ASSERT_TRUE(fx.trainer->current_config().has_value());
  EXPECT_LE(fx.trainer->current_config()->gpus_used, 40);
}

TEST(ElasticTrainerTest, WritesCheckpointsPeriodically) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 30;
  options.checkpoint_every_minibatches = 5;
  SessionFixture fx(Gpt2_2_5B(), 30, options, StableDynamics());
  fx.engine.RunUntil(4.0 * kHour);
  const auto& stats = fx.trainer->stats();
  EXPECT_GT(stats.checkpoints, 3);
  EXPECT_NEAR(static_cast<double>(stats.minibatches_done) / stats.checkpoints, 5.0, 2.0);
}

TEST(ElasticTrainerTest, SurvivesPreemptions) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 40;
  options.checkpoint_every_minibatches = 5;
  SpotPoolDynamics dynamics = StableDynamics();
  dynamics.preemption_hazard = 1.0 / (6.0 * kHour);  // Aggressive churn.
  SessionFixture fx(Gpt2_2_5B(), 40, options, dynamics);
  fx.engine.RunUntil(12.0 * kHour);
  const auto& stats = fx.trainer->stats();
  EXPECT_GT(stats.preemptions_hit, 0);
  EXPECT_GT(stats.morphs, 1);
  EXPECT_GT(stats.minibatches_done, 20);
  EXPECT_GE(stats.examples_processed, 0.0);
}

TEST(ElasticTrainerTest, DetectsFailStutter) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 36;
  SessionFixture fx(Gpt2_2_5B(), 36, options, StableDynamics());
  fx.engine.RunUntil(2.0 * kHour);
  ASSERT_TRUE(fx.trainer->job_running());
  // Degrade one VM by 30%; the manager should notice within a mini-batch or
  // two and replace it.
  fx.cluster.SetSlowFactor(3, 1.3);
  fx.engine.RunUntil(4.0 * kHour);
  EXPECT_GT(fx.trainer->stats().stutters_detected, 0);
  bool replaced = false;
  for (const auto& event : fx.trainer->stats().events) {
    replaced |= event.kind == DecisionKind::kReplace;
  }
  EXPECT_TRUE(replaced);
}

// The mini-batch time is cached across mini-batches; a slow-factor change on
// a placement VM must still force a re-measure (the cluster generation moved,
// so the executor runs again) and, past the threshold, the stutter must still
// be detected. Each sample carries its own mini-batch noise, so the slowdown
// shows in the median of a window of samples.
TEST(ElasticTrainerTest, SlowFactorChangeForcesRemeasure) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 36;
  SessionFixture fx(Gpt2_2_5B(), 36, options, StableDynamics());
  const auto median_steady_rate = [&fx](double from_s) {
    std::vector<double> rates;
    for (const TimelineSample& sample : fx.trainer->stats().samples) {
      if (sample.time_s > from_s && !sample.checkpointing) {
        rates.push_back(sample.examples_per_s);
      }
    }
    return rates.empty() ? 0.0 : Percentile(rates, 0.5);
  };
  fx.engine.RunUntil(1.5 * kHour);
  ASSERT_TRUE(fx.trainer->job_running());
  // A quiet stretch keeps the cached measurement: the executor stays idle.
  const uint64_t cached_events = fx.trainer->stats().executor_events;
  ASSERT_GT(cached_events, 0u);
  fx.engine.RunUntil(2.0 * kHour);
  ASSERT_EQ(fx.trainer->stats().executor_events, cached_events);
  const double healthy = median_steady_rate(1.5 * kHour);
  ASSERT_GT(healthy, 0.0);
  const VmId vm = fx.trainer->PlacementVms().front();
  // Below the stutter threshold: the job keeps its placement, re-measures
  // and runs slower.
  fx.cluster.SetSlowFactor(vm, 1.05);
  fx.engine.RunUntil(2.5 * kHour);
  EXPECT_EQ(fx.trainer->stats().stutters_detected, 0);
  EXPECT_GT(fx.trainer->stats().executor_events, cached_events);
  EXPECT_LT(median_steady_rate(2.0 * kHour), healthy);
  // Past it: detected and replaced.
  fx.cluster.SetSlowFactor(vm, 1.3);
  fx.engine.RunUntil(3.0 * kHour);
  EXPECT_GT(fx.trainer->stats().stutters_detected, 0);
  bool replaced = false;
  for (const auto& event : fx.trainer->stats().events) {
    replaced |= event.kind == DecisionKind::kReplace;
  }
  EXPECT_TRUE(replaced);
}

TEST(ElasticTrainerTest, GrowsWhenCapacityArrives) {
  TrainerOptions options;
  options.total_batch = 8192;
  options.demand_vms = 20;
  options.provision_check_interval_s = 600.0;
  SessionFixture fx(Gpt2_2_5B(), 80, options, StableDynamics());
  fx.engine.RunUntil(2.0 * kHour);
  ASSERT_TRUE(fx.trainer->current_config().has_value());
  const int gpus_before = fx.trainer->current_config()->gpus_used;
  // Raise demand; the market grants more VMs; the provision tick should morph
  // into a bigger configuration.
  fx.market.SetDemand(fx.pool, 80);
  fx.engine.RunUntil(6.0 * kHour);
  ASSERT_TRUE(fx.trainer->current_config().has_value());
  EXPECT_GT(fx.trainer->current_config()->gpus_used, gpus_before);
  EXPECT_GT(fx.trainer->stats().morphs, 1);
}

TEST(ElasticTrainerTest, TimelineRecordsSamplesAndEvents) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 30;
  SessionFixture fx(Gpt2_2_5B(), 30, options, StableDynamics());
  fx.engine.RunUntil(2.0 * kHour);
  const auto& stats = fx.trainer->stats();
  ASSERT_FALSE(stats.samples.empty());
  ASSERT_FALSE(stats.events.empty());
  EXPECT_EQ(stats.events.front().kind, DecisionKind::kConfigure);
  for (const auto& sample : stats.samples) {
    EXPECT_GT(sample.examples_per_s, 0.0);
    EXPECT_GT(sample.gpus_in_use, 0);
  }
}

// Two tenants share one market. Throughout the session the trainer's cluster
// holds only the VMs its own pool granted, and the job is placed on them.
TEST(ElasticTrainerTest, OwnsOnlyItsOwnPool) {
  SimEngine engine;
  Cluster cluster(CommodityFabric());
  SpotMarket market(&engine, Rng(17), 60.0);
  const int own_pool = market.AddPool(Nc6V3(), 8, StableDynamics());
  const int other_pool = market.AddPool(Nc24V3(), 8, StableDynamics());
  TrainerOptions options;
  options.total_batch = 1024;
  options.demand_vms = 8;
  ElasticTrainer trainer(&engine, &cluster, &market, own_pool, Nc6V3(), Gpt2Medium(), options);
  trainer.Start();
  market.SetDemand(other_pool, 4);
  int own_grants = 0;
  const auto expect_own_vms_only = [&] {
    ASSERT_EQ(cluster.num_vms(), own_grants);  // The pools are stable: nothing is reclaimed.
    for (VmId vm = 0; vm < cluster.num_vms(); ++vm) {
      EXPECT_EQ(cluster.Vm(vm).type.name, Nc6V3().name);
    }
    for (const VmId vm : trainer.PlacementVms()) {
      EXPECT_LT(vm, cluster.num_vms());
      EXPECT_TRUE(cluster.IsActive(vm));
    }
  };
  // Registered after Start(), so it sees each grant after the trainer has.
  market.AddGrantObserver([&](int pool, SpotMarket::MarketVmId, const VmType&) {
    own_grants += pool == own_pool ? 1 : 0;
    expect_own_vms_only();
  });
  market.Start();
  engine.RunUntil(2.0 * kHour);
  expect_own_vms_only();
  EXPECT_TRUE(trainer.job_running());
  EXPECT_EQ(market.GrantedVms(other_pool), 4);
  EXPECT_EQ(cluster.num_vms(), 8);
  EXPECT_EQ(cluster.NumActiveGpus(), 8);
}

// Each kind's Name(), byte for byte. The names are hashed into every trace
// fingerprint, so renaming one moves every pinned digest; the three morph
// kinds share one name, and the replay input streams it through operator<<.
TEST(DecisionKindTest, NamesArePinned) {
  const std::pair<DecisionKind, std::string_view> names[] = {
      {DecisionKind::kConfigure, "configure"},
      {DecisionKind::kPreemptionMorph, "morph"},
      {DecisionKind::kGrowthMorph, "morph"},
      {DecisionKind::kDegradedExit, "morph"},
      {DecisionKind::kProactiveMorph, "proactive-morph"},
      {DecisionKind::kReplace, "replace"},
      {DecisionKind::kHeartbeatTimeout, "heartbeat-timeout"},
      {DecisionKind::kDegraded, "degraded"},
      {DecisionKind::kRecover, "recover"},
  };
  static_assert(std::size(names) == static_cast<size_t>(DecisionKind::kRecover) + 1);
  for (const auto& [kind, name] : names) {
    EXPECT_EQ(Name(kind), name);
    std::ostringstream streamed;
    streamed << kind;
    EXPECT_EQ(streamed.str(), name);
  }
}

// One row per rule TrainerOptions::Validate enforces: each breaks exactly one
// knob of otherwise default options, and the error must name that knob.
TEST(TrainerOptionsTest, ValidateRejectsEachOutOfRangeKnob) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    std::string field;
    void (*mutate)(TrainerOptions&);
  } rows[] = {
      {"total_batch", [](TrainerOptions& o) { o.total_batch = 0.0; }},
      {"total_batch", [](TrainerOptions& o) { o.total_batch = kInf; }},
      {"total_batch", [](TrainerOptions& o) { o.total_batch = kNan; }},
      {"total_batch", [](TrainerOptions& o) { o.total_batch = 1e12; }},
      {"total_batch", [](TrainerOptions& o) { o.total_batch = kMaxTotalBatch + 1.0; }},
      {"provision_check_interval_s",
       [](TrainerOptions& o) { o.provision_check_interval_s = 0.0; }},
      {"provision_check_interval_s",
       [](TrainerOptions& o) { o.provision_check_interval_s = -1.0; }},
      {"provision_check_interval_s",
       [](TrainerOptions& o) { o.provision_check_interval_s = kInf; }},
      {"demand_vms", [](TrainerOptions& o) { o.demand_vms = 0; }},
      {"checkpoint_every_minibatches",
       [](TrainerOptions& o) { o.checkpoint_every_minibatches = 0; }},
      {"liveput_horizon_s", [](TrainerOptions& o) { o.liveput_horizon_s = 0.0; }},
      {"predictor.window_s", [](TrainerOptions& o) { o.predictor.window_s = 0.0; }},
      {"predictor.decay_tau_s", [](TrainerOptions& o) { o.predictor.decay_tau_s = kNan; }},
      {"predictor.min_exposure_windows",
       [](TrainerOptions& o) { o.predictor.min_exposure_windows = kNan; }},
      {"budget.gpu_memory_bytes", [](TrainerOptions& o) { o.budget.gpu_memory_bytes = kNan; }},
      {"budget.gpu_memory_bytes", [](TrainerOptions& o) { o.budget.gpu_memory_bytes = kInf; }},
      {"checkpoint.full_checkpoint_every",
       [](TrainerOptions& o) { o.checkpoint.full_checkpoint_every = 0; }},
      {"calibration.microbatch_sizes",
       [](TrainerOptions& o) { o.calibration.microbatch_sizes.clear(); }},
      {"calibration.microbatch_sizes",
       [](TrainerOptions& o) { o.calibration.microbatch_sizes = {4, 0, 8}; }},
      {"calibration.microbatch_sizes",
       [](TrainerOptions& o) { o.calibration.microbatch_sizes = {2, 8, 2}; }},
      {"calibration.network_samples",
       [](TrainerOptions& o) { o.calibration.network_samples = 0; }},
  };
  for (const auto& row : rows) {
    TrainerOptions options;
    row.mutate(options);
    const Result<std::monostate> valid = options.Validate();
    ASSERT_FALSE(valid.ok()) << row.field;
    EXPECT_EQ(valid.error().rfind(row.field + " must be", 0), 0u) << valid.error();
  }
}

// Every option set the repo ships validates, so the constructor check can
// never abort a canned scenario; neither can the edge values tests use.
TEST(TrainerOptionsTest, EveryCannedOptionSetValidates) {
  std::vector<std::pair<std::string, TrainerOptions>> canned = {
      {"default", TrainerOptions()},
      {"seeded-session", SeededSession(1).options},
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    canned.emplace_back("chaos-default", DefaultChaosCampaign(seed).options);
    canned.emplace_back("chaos-random", RandomChaosCampaign(seed).options);
    canned.emplace_back("chaos-stormy", StormyChaosCampaign(seed).options);
    canned.emplace_back("chaos-fast-recovery", FastRecoveryStormCampaign(seed).options);
  }
  // As bench/fig8_morphing_timeline.cc sets them.
  TrainerOptions fig8;
  fig8.total_batch = 8192;
  fig8.demand_vms = 160;
  fig8.checkpoint_every_minibatches = 10;
  fig8.provision_check_interval_s = 1800.0;
  fig8.seed = 11;
  canned.emplace_back("fig8", fig8);
  // As examples/spot_training.cpp sets them with its default 96 VMs.
  TrainerOptions spot;
  spot.total_batch = 8192;
  spot.demand_vms = 96;
  spot.checkpoint_every_minibatches = 10;
  spot.provision_check_interval_s = 1200.0;
  canned.emplace_back("spot_training", spot);
  // The inclusive edge of every integer rule, total_batch's upper bound, and
  // the <= 0 values that mean "the VM's GPU memory" and "no decay".
  TrainerOptions edges;
  edges.total_batch = kMaxTotalBatch;
  edges.demand_vms = 1;
  edges.checkpoint_every_minibatches = 1;
  edges.checkpoint.full_checkpoint_every = 1;
  edges.budget.gpu_memory_bytes = -1.0;
  edges.predictor.decay_tau_s = -1.0;
  canned.emplace_back("edges", edges);
  for (const auto& [name, options] : canned) {
    const Result<std::monostate> valid = options.Validate();
    EXPECT_TRUE(valid.ok()) << name << ": " << valid.error();
  }
}

// A zero provision interval would reschedule ProvisionTick at `now` forever,
// so SimEngine::RunUntil would never return; building the trainer aborts
// instead.
TEST(TrainerOptionsDeathTest, ZeroProvisionIntervalAbortsAtConstruction) {
  TrainerOptions options;
  options.provision_check_interval_s = 0.0;
  EXPECT_DEATH(SessionFixture(Gpt2Medium(), 4, options), "provision_check_interval_s");
}

}  // namespace
}  // namespace varuna

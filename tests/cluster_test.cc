#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fail_stutter.h"
#include "src/cluster/placement.h"
#include "src/cluster/spot_market.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/sim/engine.h"

namespace varuna {
namespace {

TEST(GpuSpecTest, EfficiencyCurveMatchesPaperDatapoint) {
  // §4.1: "in BERT-large, m = 8 performs 26% better than m = 4" per example.
  // BERT-large block forward work per example ~= 24 s h^2 = 1.29e10 FLOPs.
  GpuSpec gpu;
  const double per_example = 1.29e10;
  const double t4 = gpu.ComputeTime(4 * per_example) / 4.0;
  const double t8 = gpu.ComputeTime(8 * per_example) / 8.0;
  EXPECT_NEAR(t4 / t8, 1.26, 0.12);
}

TEST(GpuSpecTest, ComputeTimeMonotone) {
  GpuSpec gpu;
  EXPECT_LT(gpu.ComputeTime(1e10), gpu.ComputeTime(2e10));
  EXPECT_DOUBLE_EQ(gpu.ComputeTime(0.0), 0.0);
}

TEST(GpuSpecTest, EfficiencySaturates) {
  GpuSpec gpu;
  EXPECT_LT(gpu.AchievedFlops(1e14), gpu.peak_flops * gpu.max_efficiency);
  EXPECT_GT(gpu.AchievedFlops(1e14), 0.95 * gpu.peak_flops * gpu.max_efficiency);
}

TEST(ClusterTest, AddAndPreemptVms) {
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc24V3(), 2);
  EXPECT_EQ(cluster.num_vms(), 2);
  EXPECT_EQ(cluster.NumActiveGpus(), 8);
  cluster.Preempt(0);
  EXPECT_EQ(cluster.NumActiveGpus(), 4);
  EXPECT_EQ(cluster.ActiveGpus(), (std::vector<GpuId>{4, 5, 6, 7}));
  EXPECT_FALSE(cluster.GpuActive(0));
  EXPECT_TRUE(cluster.GpuActive(4));
}

TEST(ClusterTest, SlowFactorPerVm) {
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 3);
  cluster.SetSlowFactor(1, 1.3);
  EXPECT_DOUBLE_EQ(cluster.SlowFactor(0), 1.0);
  EXPECT_DOUBLE_EQ(cluster.SlowFactor(1), 1.3);
}

// Over random change sequences the maintained active count matches the
// materialized set, and the generation moves on every effective change but
// not on a repeated Preempt or on reads.
TEST(ClusterTest, GenerationAndActiveCountTrackEveryChange) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Cluster cluster(CommodityFabric());
    for (int step = 0; step < 200; ++step) {
      const uint64_t before = cluster.generation();
      const int op = static_cast<int>(rng.UniformInt(0, 2));
      bool effective = false;
      if (op == 0 || cluster.num_vms() == 0) {
        cluster.AddVm(rng.Bernoulli(0.5) ? Nc6V3() : Nc24V3());
        effective = true;
      } else {
        const VmId vm = static_cast<VmId>(rng.UniformInt(0, cluster.num_vms() - 1));
        if (op == 1) {
          effective = cluster.IsActive(vm);
          cluster.Preempt(vm);
        } else {
          cluster.SetSlowFactor(vm, rng.Uniform(1.0, 1.5));
          effective = true;
        }
      }
      if (effective) {
        EXPECT_GT(cluster.generation(), before);
      } else {
        EXPECT_EQ(cluster.generation(), before);
      }
      const uint64_t after = cluster.generation();
      ASSERT_EQ(cluster.NumActiveGpus(), static_cast<int>(cluster.ActiveGpus().size()));
      EXPECT_EQ(cluster.generation(), after);  // Reads never move it.
    }
  }
}

TEST(PlacementTest, PipelineMajorNodePacking) {
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc24V3(), 4);  // 16 GPUs on 4 nodes.
  const auto placement = PlaceJob(cluster, 4, 4);
  ASSERT_TRUE(placement.ok());
  const Placement& p = placement.value();
  EXPECT_EQ(p.pipeline_depth, 4);
  EXPECT_EQ(p.data_parallel, 4);
  // Replica 0 occupies the 4 GPUs of node 0: consecutive stages co-located.
  EXPECT_EQ(p.gpus[0], (std::vector<GpuId>{0, 1, 2, 3}));
  // Stage ring crosses nodes.
  EXPECT_EQ(p.StageRing(2), (std::vector<GpuId>{2, 6, 10, 14}));
  EXPECT_EQ(p.AllGpus().size(), 16u);
}

TEST(PlacementTest, FailsWhenInsufficientGpus) {
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 5);
  const auto placement = PlaceJob(cluster, 3, 2);
  ASSERT_FALSE(placement.ok());
  EXPECT_NE(placement.error().find("only 5"), std::string::npos);
}

TEST(PlacementTest, ExcludesBlacklistedGpus) {
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 5);
  const auto placement = PlaceJob(cluster, 2, 2, {1});
  ASSERT_TRUE(placement.ok());
  for (const GpuId gpu : placement.value().AllGpus()) {
    EXPECT_NE(gpu, 1);
  }
}

TEST(PlacementTest, SkipsPreemptedVms) {
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 4);
  cluster.Preempt(1);
  const auto placement = PlaceJob(cluster, 3, 1);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement.value().gpus[0], (std::vector<GpuId>{0, 2, 3}));
}

TEST(SpotMarketTest, GrantsUpToDemandAndCapacity) {
  SimEngine engine;
  SpotMarket market(&engine, Rng(5), 60.0);
  SpotPoolDynamics dynamics;
  dynamics.mean_availability = 1.0;
  dynamics.volatility = 0.0;
  dynamics.preemption_hazard = 0.0;
  const int pool = market.AddPool(Nc6V3(), 10, dynamics);
  int grants = 0;
  market.AddGrantObserver([&](int granted_pool, SpotMarket::MarketVmId, const VmType&) {
    EXPECT_EQ(granted_pool, pool);
    ++grants;
  });
  market.SetDemand(pool, 6);
  market.Start();
  engine.RunUntil(10 * 60.0);
  EXPECT_EQ(grants, 6);
  EXPECT_EQ(market.GrantedVms(pool), 6);
  EXPECT_EQ(market.GrantedGpus(pool), 6);
}

TEST(SpotMarketTest, PreemptsOnCapacityDrop) {
  SimEngine engine;
  SpotMarket market(&engine, Rng(7), 60.0);
  SpotPoolDynamics dynamics;
  dynamics.mean_availability = 1.0;
  dynamics.volatility = 0.0;
  dynamics.preemption_hazard = 1.0 / 1800.0;  // Aggressive baseline hazard.
  const int pool = market.AddPool(Nc6V3(), 20, dynamics);
  int preempts = 0;
  market.AddPreemptObserver([&](int preempted_pool, SpotMarket::MarketVmId) {
    EXPECT_EQ(preempted_pool, pool);
    ++preempts;
  });
  market.SetDemand(pool, 20);
  market.Start();
  engine.RunUntil(8 * 3600.0);
  EXPECT_GT(preempts, 10);  // ~8h at 30min mean lifetime across 20 VMs.
}

TEST(SpotMarketTest, OneGpuPoolMoreAvailableThanFourGpu) {
  // The Figure-3 effect: with the same total GPU budget, the 1-GPU pool
  // sustains more aggregate GPUs than the 4-GPU pool.
  SimEngine engine;
  SpotMarket market(&engine, Rng(11), 60.0);
  SpotPoolDynamics single;
  single.mean_availability = 0.85;
  SpotPoolDynamics quad;
  quad.mean_availability = 0.45;
  quad.volatility = 0.25;
  const int pool1 = market.AddPool(Nc6V3(), 320, single);
  const int pool4 = market.AddPool(Nc24V3(), 80, quad);
  market.SetDemand(pool1, 320);
  market.SetDemand(pool4, 80);
  market.Start();
  double gpus1 = 0.0;
  double gpus4 = 0.0;
  int ticks = 0;
  for (double t = 3600.0; t <= 16 * 3600.0; t += 3600.0) {
    engine.RunUntil(t);
    gpus1 += market.GrantedGpus(pool1);
    gpus4 += market.GrantedGpus(pool4);
    ++ticks;
  }
  EXPECT_GT(gpus1 / ticks, 1.3 * gpus4 / ticks);
}

TEST(SpotMarketTest, HysteresisAbsorbsSmallWiggles) {
  // With zero volatility and zero hazard, nothing should ever be evicted even
  // though capacity rounds up and down by a VM or two.
  SimEngine engine;
  SpotMarket market(&engine, Rng(3), 60.0);
  SpotPoolDynamics dynamics;
  dynamics.mean_availability = 0.9;
  dynamics.volatility = 0.02;  // Tiny wiggles only.
  dynamics.preemption_hazard = 0.0;
  dynamics.reclaim_slack_vms = 6;
  const int pool = market.AddPool(Nc6V3(), 100, dynamics);
  int preempts = 0;
  market.AddPreemptObserver([&](int preempted_pool, SpotMarket::MarketVmId) {
    EXPECT_EQ(preempted_pool, pool);
    ++preempts;
  });
  market.SetDemand(pool, 100);
  market.Start();
  engine.RunUntil(8 * 3600.0);
  EXPECT_EQ(preempts, 0);
}

TEST(SpotMarketTest, BigCapacityDropEvictsBurst) {
  SimEngine engine;
  SpotMarket market(&engine, Rng(3), 60.0);
  SpotPoolDynamics dynamics;
  dynamics.mean_availability = 1.0;
  dynamics.volatility = 0.0;
  dynamics.preemption_hazard = 0.0;
  dynamics.reversion_rate = 1.0 / 600.0;  // Reverts within ~10 minutes.
  dynamics.reclaim_slack_vms = 4;
  dynamics.max_grants_per_tick = 64;
  const int pool = market.AddPool(Nc6V3(), 60, dynamics);
  int preempts = 0;
  market.AddPreemptObserver([&](int preempted_pool, SpotMarket::MarketVmId) {
    EXPECT_EQ(preempted_pool, pool);
    ++preempts;
  });
  market.SetDemand(pool, 60);
  market.Start();
  engine.RunUntil(10 * 60.0);
  ASSERT_EQ(market.GrantedVms(pool), 60);
  // A datacenter load spike halves the obtainable capacity: the market must
  // evict a burst (well past the hysteresis slack) as availability reverts.
  market.SetMeanAvailability(pool, 0.5);
  engine.RunUntil(60 * 60.0);
  EXPECT_GT(preempts, 20);
  EXPECT_LE(market.GrantedVms(pool), 30 + 4);  // Capacity 30 + hysteresis slack.
}

// Every observer sees every event exactly once, in registration order, with
// the pool the VM belongs to.
TEST(SpotMarketTest, ObserversFireOncePerEventInRegistrationOrder) {
  SimEngine engine;
  SpotMarket market(&engine, Rng(13), 60.0);
  SpotPoolDynamics dynamics;
  dynamics.mean_availability = 1.0;
  dynamics.volatility = 0.0;
  dynamics.preemption_hazard = 0.0;
  const int pool_a = market.AddPool(Nc6V3(), 4, dynamics);
  const int pool_b = market.AddPool(Nc24V3(), 3, dynamics);
  struct Seen {
    char observer;
    int pool;
    SpotMarket::MarketVmId id;
    bool operator==(const Seen&) const = default;
  };
  std::vector<Seen> grants;
  std::vector<Seen> preempts;
  std::map<SpotMarket::MarketVmId, int> pool_of;
  market.AddGrantObserver([&](int pool, SpotMarket::MarketVmId id, const VmType& type) {
    EXPECT_EQ(type.node.num_gpus, pool == pool_a ? 1 : 4);
    EXPECT_TRUE(pool_of.emplace(id, pool).second) << "VM " << id << " granted twice";
    grants.push_back({'1', pool, id});
  });
  market.AddGrantObserver([&](int pool, SpotMarket::MarketVmId id, const VmType& /*type*/) {
    grants.push_back({'2', pool, id});
  });
  market.AddPreemptObserver(
      [&](int pool, SpotMarket::MarketVmId id) { preempts.push_back({'1', pool, id}); });
  market.AddPreemptObserver(
      [&](int pool, SpotMarket::MarketVmId id) { preempts.push_back({'2', pool, id}); });
  market.SetDemand(pool_a, 4);
  market.SetDemand(pool_b, 3);
  market.Start();
  engine.RunUntil(2 * 60.0);
  ASSERT_EQ(grants.size(), 2u * (4 + 3));
  for (size_t i = 0; i < grants.size(); i += 2) {
    EXPECT_EQ(grants[i].observer, '1');
    EXPECT_EQ(grants[i + 1], (Seen{'2', grants[i].pool, grants[i].id}));
  }
  ASSERT_EQ(market.ForcePreempt(pool_b, 2), 2);
  ASSERT_EQ(preempts.size(), 4u);
  for (size_t i = 0; i < preempts.size(); i += 2) {
    EXPECT_EQ(preempts[i].observer, '1');
    EXPECT_EQ(preempts[i].pool, pool_b);
    EXPECT_EQ(pool_of.at(preempts[i].id), pool_b);
    EXPECT_EQ(preempts[i + 1], (Seen{'2', pool_b, preempts[i].id}));
  }
  EXPECT_NE(preempts[0].id, preempts[2].id);
  EXPECT_EQ(market.GrantedVms(pool_a), 4);
  EXPECT_EQ(market.GrantedVms(pool_b), 1);
}

// The default injector starts episodes on its own and ends them: over 48 mean
// onset gaps episodes start and end, every degraded VM's slow factor stays in
// the autonomous range, and healed VMs return to full speed.
TEST(FailStutterTest, InjectsAndRecovers) {
  SimEngine engine;
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 8);
  FailStutterInjector injector(&engine, &cluster, Rng(3), FailStutterOptions());
  injector.Start();
  engine.RunUntil(48.0 * kMeanStutterOnsetIntervalS);
  EXPECT_GT(injector.episodes_started(), 1);
  EXPECT_GT(injector.episodes_ended(), 0);
  EXPECT_EQ(injector.episodes_started() - injector.episodes_ended(),
            injector.active_episodes());
  int slowed = 0;
  for (VmId vm = 0; vm < cluster.num_vms(); ++vm) {
    const double factor = cluster.Vm(vm).slow_factor;
    if (injector.IsDegraded(vm)) {
      ++slowed;
      EXPECT_GE(factor, kMinSlowFactor - 1e-9);
      EXPECT_LE(factor, kMaxSlowFactor + 1e-9);
    } else {
      EXPECT_EQ(factor, 1.0);
    }
  }
  EXPECT_EQ(slowed, injector.active_episodes());
}

// Regression: a VM preempted mid-episode must leave the injector's exclusion
// set immediately, and the episode's pending end event must become a no-op.
// Before the observer-based cleanup, dead VMs accumulated in the set forever
// and the stale EndEpisode fired against a reused/recycled id.
TEST(FailStutterTest, PreemptionMidEpisodeClearsExclusionSet) {
  SimEngine engine;
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 4);
  FailStutterOptions options;
  options.autonomous_onsets = false;  // Episodes only via Burst().
  FailStutterInjector injector(&engine, &cluster, Rng(5), options);
  injector.Start();

  ASSERT_EQ(injector.Burst(1, 1.3, /*duration_s=*/1200.0), 1);
  VmId victim = -1;
  for (VmId vm = 0; vm < cluster.num_vms(); ++vm) {
    if (injector.IsDegraded(vm)) {
      victim = vm;
    }
  }
  ASSERT_GE(victim, 0);
  EXPECT_EQ(injector.active_episodes(), 1);

  // Kill the victim mid-episode: the exclusion entry must clear at once.
  cluster.Preempt(victim);
  EXPECT_FALSE(injector.IsDegraded(victim));
  EXPECT_EQ(injector.active_episodes(), 0);
  EXPECT_EQ(injector.episodes_cleared_by_preemption(), 1);
  EXPECT_EQ(injector.episodes_ended(), 0);

  // The stale end-of-episode event fires against a cleared generation: no-op.
  engine.RunUntil(2400.0);
  EXPECT_EQ(injector.episodes_ended(), 0);
  EXPECT_EQ(injector.active_episodes(), 0);

  // The injector still works afterwards, picking a live, healthy VM.
  ASSERT_EQ(injector.Burst(1, 1.2, /*duration_s=*/60.0), 1);
  VmId second = -1;
  for (VmId vm = 0; vm < cluster.num_vms(); ++vm) {
    if (injector.IsDegraded(vm)) {
      second = vm;
    }
  }
  ASSERT_GE(second, 0);
  EXPECT_NE(second, victim);
  EXPECT_TRUE(cluster.IsActive(second));
  engine.RunUntil(engine.now() + 120.0);
  EXPECT_EQ(injector.episodes_ended(), 1);
  EXPECT_EQ(injector.active_episodes(), 0);
  EXPECT_DOUBLE_EQ(cluster.Vm(second).slow_factor, 1.0);
  engine.CheckInvariants();
}

}  // namespace
}  // namespace varuna

// Property tests for the chaos campaign engine (src/chaos): dozens of seeded
// random fault campaigns against full elastic-training sessions, asserting
// the recovery invariants the manager must hold under ANY fault interleaving,
// plus scripted campaigns that pin each hardened recovery path (heartbeat
// timeout, mid-flush shard kill, mid-morph preemption, capacity collapse)
// and the bit-replayability of every campaign.
#include "src/chaos/chaos.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/model/transformer.h"

namespace varuna {
namespace {

// Recovery invariants every campaign must satisfy, whatever the plan did.
// (RunChaosCampaign already aborts the process if the engine's or manager's
// internal CheckInvariants fail; these are the observable-outcome properties
// on top.)
void ExpectRecoveryInvariants(const ChaosCampaignSpec& spec, const ChaosReport& report) {
  const SessionStats& stats = report.stats;
  // The session terminated: the engine drained to the horizon instead of
  // deadlocking or aborting.
  EXPECT_DOUBLE_EQ(report.trace.final_now_s, spec.horizon_s);
  // Conservation — no silent sample loss: every attempted mini-batch is
  // either committed or accounted as re-work, exactly.
  EXPECT_EQ(stats.minibatches_attempted,
            stats.minibatches_done + stats.minibatches_rolled_back);
  EXPECT_NEAR(stats.examples_attempted,
              stats.examples_processed + stats.examples_rolled_back,
              1e-6 * std::max(1.0, stats.examples_attempted));
  EXPECT_GE(stats.minibatches_done, 0);
  EXPECT_GE(stats.examples_processed, 0.0);
  // Re-work is bounded by the checkpoint cadence as long as no checkpoint
  // data was destroyed: resume then restarts from the newest checkpoint, so
  // no single rollback can exceed one cadence interval (plus the in-flight
  // mini-batch).
  if (stats.shards_lost == 0 && report.shards_corrupted_by_chaos == 0) {
    EXPECT_LE(stats.max_rollback_minibatches,
              spec.options.checkpoint_every_minibatches + 1);
  }
  // Survival accounting never exceeds the faults that occurred.
  EXPECT_LE(stats.preemptions_survived, stats.preemptions_hit + stats.heartbeat_timeouts);
  // A restore step is always a real checkpoint id (or -1 = from scratch).
  EXPECT_GE(stats.last_restore_step, -1);
}

TEST(ChaosPropertyTest, SeededRandomCampaignsHoldRecoveryInvariants) {
  // 50+ seeded campaigns, each a different random fault plan over a full
  // session. One process, deterministic: a failure names its seed.
  constexpr uint64_t kSeeds = 52;
  int64_t total_preemptions = 0;
  int64_t total_restarts = 0;
  int64_t total_rollbacks = 0;
  int64_t campaigns_with_progress = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("campaign seed " + std::to_string(seed));
    const ChaosCampaignSpec spec = RandomChaosCampaign(seed);
    const ChaosReport report = RunChaosCampaign(spec);
    ExpectRecoveryInvariants(spec, report);
    total_preemptions += report.stats.preemptions_hit + report.stats.heartbeat_timeouts;
    total_restarts += report.stats.restarts;
    total_rollbacks += report.stats.minibatches_rolled_back;
    campaigns_with_progress += report.stats.minibatches_done > 0 ? 1 : 0;
  }
  // The generator must actually be hostile — across the batch the recovery
  // machinery has to have been exercised, and sessions still made progress.
  EXPECT_GT(total_preemptions, 0);
  EXPECT_GT(total_restarts, 0);
  EXPECT_GT(total_rollbacks, 0);
  EXPECT_GT(campaigns_with_progress, static_cast<int64_t>(kSeeds) / 2);
}

TEST(ChaosReplayTest, SameSeedAndPlanBitIdentical) {
  for (const uint64_t seed : {3u, 17u, 41u}) {
    SCOPED_TRACE("campaign seed " + std::to_string(seed));
    const ChaosCampaignSpec spec = RandomChaosCampaign(seed);
    const ChaosReport first = RunChaosCampaign(spec);
    const ChaosReport second = RunChaosCampaign(spec);
    EXPECT_EQ(first.trace, second.trace);
    EXPECT_EQ(first.fingerprint, second.fingerprint);
  }
}

TEST(ChaosReplayTest, DifferentSeedsDiverge) {
  const ChaosReport a = RunChaosCampaign(RandomChaosCampaign(101));
  const ChaosReport b = RunChaosCampaign(RandomChaosCampaign(102));
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

// The acceptance storm: wait for checkpoint shards to be mid-flush, then kill
// every VM holding one — unannounced. The manager must discover the deaths
// via heartbeat timeouts, resume from the newest checkpoint that is still
// complete, and the whole campaign must replay bit-identically.
TEST(ChaosScriptedTest, MidFlushShardStormRecoversFromLastCompleteCheckpoint) {
  ChaosCampaignSpec spec = DefaultChaosCampaign(7);
  spec.plan = ChaosPlan::Scripted({
      {/*at_s=*/1200.0, ChaosActionKind::kTargetedShardKill, /*count=*/999,
       /*duration_s=*/1800.0, /*magnitude=*/0.0},
  });
  const ChaosReport report = RunChaosCampaign(spec);
  ExpectRecoveryInvariants(spec, report);
  // The storm actually landed on shard owners mid-flush...
  EXPECT_GT(report.vms_killed_by_chaos, 0);
  EXPECT_GT(report.stats.shards_lost, 0);
  // ...was discovered without an announcement...
  EXPECT_GT(report.stats.heartbeat_timeouts, 0);
  EXPECT_GT(report.stats.restarts, 0);
  // ...and training resumed past the restore point.
  EXPECT_GE(report.stats.last_restore_step, 0);
  EXPECT_GT(report.stats.minibatches_done, report.stats.last_restore_step);

  // Bit-replayable, storm and all.
  const ChaosReport replay = RunChaosCampaign(spec);
  EXPECT_EQ(report.fingerprint, replay.fingerprint);
  EXPECT_EQ(report.trace, replay.trace);
}

TEST(ChaosScriptedTest, HeartbeatLossTriggersTimeoutRecovery) {
  ChaosCampaignSpec spec = DefaultChaosCampaign(11);
  spec.plan = ChaosPlan::Scripted({
      {/*at_s=*/1500.0, ChaosActionKind::kHeartbeatLoss, /*count=*/2,
       /*duration_s=*/1200.0, /*magnitude=*/0.0},
  });
  const ChaosReport report = RunChaosCampaign(spec);
  ExpectRecoveryInvariants(spec, report);
  EXPECT_GT(report.stats.heartbeat_timeouts, 0);
  EXPECT_GT(report.stats.restarts, 0);
  // The muted VMs never died, so the session must keep committing after the
  // timeout-driven reconfiguration.
  EXPECT_GT(report.stats.minibatches_done, 0);
  bool saw_timeout_event = false;
  for (const TimelineEvent& event : report.trace.events) {
    saw_timeout_event = saw_timeout_event || event.kind == DecisionKind::kHeartbeatTimeout;
  }
  EXPECT_TRUE(saw_timeout_event);
}

TEST(ChaosScriptedTest, PreemptionStormInsideCheckpointWindowIsSurvived) {
  ChaosCampaignSpec spec = DefaultChaosCampaign(13);
  spec.plan = ChaosPlan::Scripted({
      // Five announced evictions inside one minute — tighter than the
      // checkpoint cadence, so several mini-batches of progress are at risk.
      {/*at_s=*/1800.0, ChaosActionKind::kPreemptionStorm, /*count=*/5,
       /*duration_s=*/60.0, /*magnitude=*/0.0},
  });
  const ChaosReport report = RunChaosCampaign(spec);
  ExpectRecoveryInvariants(spec, report);
  EXPECT_GT(report.stats.preemptions_hit, 0);
  EXPECT_GT(report.stats.preemptions_survived, 0);
  EXPECT_GT(report.stats.minibatches_done, 0);
}

TEST(ChaosScriptedTest, MidMorphPreemptionRetriesWithinBudget) {
  ChaosCampaignSpec spec = DefaultChaosCampaign(19);
  spec.plan = ChaosPlan::Scripted({
      // A storm to force a morph, with mid-morph kills armed so the restore
      // window itself is attacked.
      {/*at_s=*/1500.0, ChaosActionKind::kMidMorphPreempt, /*count=*/2,
       /*duration_s=*/0.0, /*magnitude=*/0.0},
      {/*at_s=*/1510.0, ChaosActionKind::kPreemptionStorm, /*count=*/3,
       /*duration_s=*/30.0, /*magnitude=*/0.0},
  });
  const ChaosReport report = RunChaosCampaign(spec);
  ExpectRecoveryInvariants(spec, report);
  EXPECT_GT(report.stats.preemptions_hit, 0);
  // The session still ends in a consistent, progressing state.
  EXPECT_GT(report.stats.minibatches_done, 0);
}

TEST(ChaosScriptedTest, ShardCorruptionFallsBackToOlderCheckpoint) {
  ChaosCampaignSpec spec = DefaultChaosCampaign(23);
  spec.plan = ChaosPlan::Scripted({
      // Corrupt the newest usable checkpoint, then evict hard enough that the
      // manager must restore: it has to fall back past the damaged record.
      {/*at_s=*/2400.0, ChaosActionKind::kCorruptShard, /*count=*/2,
       /*duration_s=*/0.0, /*magnitude=*/0.0},
      {/*at_s=*/2460.0, ChaosActionKind::kPreemptionStorm, /*count=*/4,
       /*duration_s=*/30.0, /*magnitude=*/0.0},
  });
  const ChaosReport report = RunChaosCampaign(spec);
  ExpectRecoveryInvariants(spec, report);
  EXPECT_GT(report.shards_corrupted_by_chaos, 0);
  EXPECT_GT(report.stats.minibatches_done, 0);
}

TEST(ChaosScriptedTest, FailStutterBurstDetectedAndReplaced) {
  ChaosCampaignSpec spec = DefaultChaosCampaign(29);
  spec.plan = ChaosPlan::Scripted({
      {/*at_s=*/1800.0, ChaosActionKind::kFailStutterBurst, /*count=*/2,
       /*duration_s=*/1200.0, /*magnitude=*/0.3},
  });
  const ChaosReport report = RunChaosCampaign(spec);
  ExpectRecoveryInvariants(spec, report);
  EXPECT_GT(report.stats.stutters_detected, 0);
  EXPECT_GT(report.stats.minibatches_done, 0);
}

// Capacity collapse below what the normal memory model can place: the
// manager must fall back to the degraded (CPU-offload) configuration instead
// of stalling, then morph back out when capacity returns.
TEST(ChaosScriptedTest, CapacityCrashFallsBackToDegradedModeAndRecovers) {
  ChaosCampaignSpec spec = DefaultChaosCampaign(31);
  // A model that genuinely does not fit the crashed capacity without
  // offloading: 2.5B params across at most 2 surviving VMs (8 GPUs).
  spec.spec = Gpt2_2_5B();
  spec.options.total_batch = 2400;
  spec.horizon_s = 3.0 * 3600.0;
  spec.plan = ChaosPlan::Scripted({
      {/*at_s=*/3600.0, ChaosActionKind::kCapacityCrash, /*count=*/1,
       /*duration_s=*/2400.0, /*magnitude=*/0.10},
  });
  const ChaosReport report = RunChaosCampaign(spec);
  ExpectRecoveryInvariants(spec, report);
  EXPECT_GE(report.stats.degraded_intervals, 1);
  bool saw_degraded = false;
  bool saw_recover_after = false;
  for (const TimelineEvent& event : report.trace.events) {
    if (event.kind == DecisionKind::kDegraded) {
      saw_degraded = true;
    } else if (event.kind == DecisionKind::kRecover && saw_degraded) {
      saw_recover_after = true;
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_recover_after);
  EXPECT_GT(report.stats.minibatches_done, 0);
}

}  // namespace
}  // namespace varuna

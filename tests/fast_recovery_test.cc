// Trainer-level fast recovery path: FastRecoveryStormCampaign runs the same
// seeded storms as StormyChaosCampaign with delta checkpoint chains and
// locality-aware restore pricing switched on. These tests pin the three
// session-level contracts: campaigns stay bit-replayable with the fast path
// on, identical fault schedules spend less downtime, and involuntary
// preemptions still go through rollback plus a tiered checkpoint restore.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/chaos/chaos.h"

namespace varuna {
namespace {

TEST(FastRecoveryTest, CampaignReplayIsBitIdentical) {
  for (const uint64_t seed : {1ull, 5ull, 9ull}) {
    const ChaosCampaignSpec spec = FastRecoveryStormCampaign(seed);
    const ChaosReport first = RunChaosCampaign(spec);
    const ChaosReport replay = RunChaosCampaign(spec);
    EXPECT_EQ(first.fingerprint, replay.fingerprint) << "seed " << seed;
    EXPECT_TRUE(first.trace == replay.trace) << "seed " << seed;
  }
}

TEST(FastRecoveryTest, ReducesDowntimeOnIdenticalFaultSchedules) {
  double legacy_stalled_s = 0.0;
  double fast_stalled_s = 0.0;
  int64_t delta_checkpoints = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const ChaosReport legacy = RunChaosCampaign(StormyChaosCampaign(seed));
    const ChaosReport fast = RunChaosCampaign(FastRecoveryStormCampaign(seed));
    // With the features off nothing on the fast path may fire.
    EXPECT_EQ(legacy.stats.delta_checkpoints, 0) << "seed " << seed;
    legacy_stalled_s += legacy.stats.stalled_s;
    fast_stalled_s += fast.stats.stalled_s;
    delta_checkpoints += fast.stats.delta_checkpoints;
  }
  // Identical storms, identical seeds: the only difference is the recovery
  // machinery, so total downtime must drop and the new machinery must have
  // actually run.
  EXPECT_LT(fast_stalled_s, legacy_stalled_s);
  EXPECT_GT(delta_checkpoints, 0);
}

TEST(FastRecoveryTest, InvoluntaryPreemptionsStillRestoreFromCheckpoints) {
  int64_t restarts = 0;
  double restore_tier_s = 0.0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const ChaosReport report = RunChaosCampaign(FastRecoveryStormCampaign(seed));
    restarts += report.stats.restarts;
    restore_tier_s += report.stats.restore_ssd_s + report.stats.restore_peer_s +
                      report.stats.restore_cloud_s;
  }
  // Storm preemptions force rollback+restore recoveries, priced through the
  // locality tiers.
  EXPECT_GT(restarts, 0);
  EXPECT_GT(restore_tier_s, 0.0);
}

}  // namespace
}  // namespace varuna

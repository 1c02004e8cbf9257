// Numeric checkpoint-resume bit-identity (§4.5 meets varuna-verify): a
// training session snapshotted through the CheckpointStore and restored into
// a fresh trainer must continue on the *exact* trajectory of an unpreempted
// run — identical per-step losses (as doubles, bit for bit) and identical
// final parameters. The negative tests destroy shards (lost mid-flush,
// corrupted in cloud storage) and pin the fallback: resume restarts from the
// newest *complete* earlier checkpoint, never from a record with holes.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/manager/checkpoint.h"
#include "src/nn/optimizer.h"
#include "src/nn/synthetic_task.h"
#include "src/sim/engine.h"
#include "src/train/trainers.h"

namespace varuna {
namespace {

constexpr int kVocab = 12;
constexpr int kWidth = 16;
constexpr int kBlocks = 6;
constexpr uint64_t kModelSeed = 88;
constexpr uint64_t kDataSeed = 5000;
constexpr int kBatchRows = 16;
constexpr int kMicrobatch = 4;
constexpr int kTotalSteps = 20;
constexpr double kParams = 2.5e9;  // Checkpoint sizing only; not the nn model.

std::unique_ptr<Sequential> FreshModel() {
  Rng rng(kModelSeed);
  return BuildBlockModel(kVocab, kWidth, kBlocks, &rng);
}

// A resumable training session: the batch for global step t is regenerated
// from a per-step seed, exactly as a data loader seeks to a sample offset
// after restore.
struct Session {
  ReferenceTrainer trainer;
  AdamOptimizer opt;
  MarkovTask task;

  Session()
      : trainer(FreshModel()),
        opt(trainer.Parameters(), trainer.Gradients(), 3e-3f),
        task(kVocab, 9) {}

  double Step(int t) {
    Rng rng(kDataSeed + static_cast<uint64_t>(t));
    const Batch batch = task.Sample(kBatchRows, &rng);
    opt.ZeroGradients();
    const double loss = trainer.TrainStep(batch, kMicrobatch);
    opt.Step();
    return loss;
  }
};

std::vector<double> RunClean() {
  Session session;
  std::vector<double> losses;
  for (int t = 0; t < kTotalSteps; ++t) {
    losses.push_back(session.Step(t));
  }
  return losses;
}

void ExpectBitIdenticalTail(Session* clean, Session* resumed,
                            const std::vector<double>& clean_losses, int64_t restore_step) {
  std::vector<double> resumed_losses;
  for (int t = static_cast<int>(restore_step); t < kTotalSteps; ++t) {
    resumed_losses.push_back(resumed->Step(t));
  }
  for (size_t i = 0; i < resumed_losses.size(); ++i) {
    // Exact double equality: the trajectory is the same computation.
    EXPECT_EQ(resumed_losses[i],
              clean_losses[static_cast<size_t>(restore_step) + i])
        << "step " << restore_step + static_cast<int64_t>(i);
  }
  const auto clean_params = clean->trainer.Parameters();
  const auto restored = resumed->trainer.Parameters();
  ASSERT_EQ(clean_params.size(), restored.size());
  for (size_t i = 0; i < clean_params.size(); ++i) {
    EXPECT_TRUE(Identical(*clean_params[i], *restored[i])) << "param " << i;
  }
}

// Trains a victim session, snapshotting through `store` every 5 steps with
// the given owners and (optionally) letting each flush complete, up to
// `crash_step`. Payloads are keyed by checkpoint step.
void RunVictim(SimEngine* engine, CheckpointStore* store,
               std::map<int64_t, ParameterCheckpoint>* payloads, int crash_step,
               bool flush_last) {
  Session victim;
  for (int t = 0; t < crash_step; ++t) {
    if (t > 0 && t % 5 == 0) {
      store->BeginCheckpoint(t, kParams, /*data_parallel=*/2, {2 * (t / 5), 2 * (t / 5) + 1});
      (*payloads)[t] = SnapshotParameters(victim.trainer.Parameters(), victim.opt);
      const bool last = t + 5 > crash_step - 1;
      if (!last || flush_last) {
        engine->RunUntil(engine->now() + 3600.0);  // Cloud flush completes.
      }
    }
    victim.Step(t);
  }
}

TEST(CheckpointResumeTest, ResumeFromLatestUsableIsBitIdenticalToCleanRun) {
  Session clean;
  std::vector<double> clean_losses;
  for (int t = 0; t < kTotalSteps; ++t) {
    clean_losses.push_back(clean.Step(t));
  }

  SimEngine engine;
  CheckpointStore store(&engine, CheckpointOptions());
  std::map<int64_t, ParameterCheckpoint> payloads;
  RunVictim(&engine, &store, &payloads, /*crash_step=*/13, /*flush_last=*/true);

  // Crash at step 13: steps 10..12 are gone; the newest usable checkpoint is
  // the one written before step 10.
  const int64_t restore = store.LatestUsable();
  ASSERT_EQ(restore, 10);
  Session resumed;
  RestoreParameters(payloads.at(restore), resumed.trainer.Parameters(), &resumed.opt);
  ExpectBitIdenticalTail(&clean, &resumed, clean_losses, restore);
}

TEST(CheckpointResumeTest, ShardLostMidFlushFallsBackToPriorCompleteStep) {
  const std::vector<double> clean_losses = RunClean();
  Session clean;
  for (int t = 0; t < kTotalSteps; ++t) {
    clean.Step(t);
  }

  SimEngine engine;
  CheckpointStore store(&engine, CheckpointOptions());
  std::map<int64_t, ParameterCheckpoint> payloads;
  // The step-10 checkpoint's flush never completes: its owner VM dies with
  // the only local copy.
  RunVictim(&engine, &store, &payloads, /*crash_step=*/13, /*flush_last=*/false);
  ASSERT_EQ(store.LatestUsable(), 10);  // Alive owners => still readable...
  store.OnVmLost(4);                    // ...until the owner of shard 0 dies.
  EXPECT_EQ(store.LatestComplete(), 5);
  EXPECT_EQ(store.LatestUsable(), 5);
  EXPECT_GT(store.shards_lost(), 0);
  store.CheckInvariants();

  const int64_t restore = store.LatestUsable();
  Session resumed;
  RestoreParameters(payloads.at(restore), resumed.trainer.Parameters(), &resumed.opt);
  ExpectBitIdenticalTail(&clean, &resumed, clean_losses, restore);
}

TEST(CheckpointResumeTest, CorruptShardFallsBackToOlderCheckpoint) {
  const std::vector<double> clean_losses = RunClean();
  Session clean;
  for (int t = 0; t < kTotalSteps; ++t) {
    clean.Step(t);
  }

  SimEngine engine;
  CheckpointStore store(&engine, CheckpointOptions());
  std::map<int64_t, ParameterCheckpoint> payloads;
  RunVictim(&engine, &store, &payloads, /*crash_step=*/13, /*flush_last=*/true);
  ASSERT_EQ(store.LatestUsable(), 10);
  EXPECT_TRUE(store.CorruptShard(10, 0));
  EXPECT_FALSE(store.CorruptShard(10, 0));  // Already unusable.
  EXPECT_EQ(store.LatestUsable(), 5);
  store.CheckInvariants();

  const int64_t restore = store.LatestUsable();
  Session resumed;
  RestoreParameters(payloads.at(restore), resumed.trainer.Parameters(), &resumed.opt);
  ExpectBitIdenticalTail(&clean, &resumed, clean_losses, restore);
}

TEST(CheckpointResumeTest, AllCheckpointsDestroyedMeansRestartFromScratch) {
  const std::vector<double> clean_losses = RunClean();

  SimEngine engine;
  CheckpointStore store(&engine, CheckpointOptions());
  std::map<int64_t, ParameterCheckpoint> payloads;
  RunVictim(&engine, &store, &payloads, /*crash_step=*/13, /*flush_last=*/true);
  EXPECT_TRUE(store.CorruptShard(10, 0));
  EXPECT_TRUE(store.CorruptShard(5, 1));
  EXPECT_EQ(store.LatestUsable(), -1);
  store.CheckInvariants();

  // Nothing to restore: a fresh session must retrace the clean run exactly.
  Session restarted;
  for (int t = 0; t < kTotalSteps; ++t) {
    EXPECT_EQ(restarted.Step(t), clean_losses[static_cast<size_t>(t)]) << "step " << t;
  }
}

// --- Fast recovery path: delta chains and locality tiers. ---

CheckpointOptions FastRecoveryOptions(int full_every) {
  CheckpointOptions opts;
  opts.full_checkpoint_every = full_every;
  opts.locality_aware_restore = true;
  return opts;
}

TEST(CheckpointResumeTest, DeltaChainCorruptionFallsBackBitIdentical) {
  const std::vector<double> clean_losses = RunClean();
  Session clean;
  for (int t = 0; t < kTotalSteps; ++t) {
    clean.Step(t);
  }

  SimEngine engine;
  CheckpointStore store(&engine, FastRecoveryOptions(/*full_every=*/2));
  std::map<int64_t, ParameterCheckpoint> payloads;
  Session victim;
  for (int t = 0; t < 18; ++t) {
    if (t > 0 && t % 5 == 0) {
      store.BeginCheckpoint(t, kParams, /*data_parallel=*/2, {2 * (t / 5), 2 * (t / 5) + 1});
      payloads[t] = SnapshotParameters(victim.trainer.Parameters(), victim.opt);
      engine.RunUntil(engine.now() + 3600.0);  // Cloud flush completes.
    }
    victim.Step(t);
  }
  // K=2 alternates: full at 5, delta chained on it at 10, full again at 15.
  ASSERT_NE(store.Record(10), nullptr);
  EXPECT_TRUE(store.Record(10)->is_delta);
  EXPECT_EQ(store.Record(10)->base_minibatch_id, 5);
  ASSERT_NE(store.Record(15), nullptr);
  EXPECT_FALSE(store.Record(15)->is_delta);
  ASSERT_EQ(store.LatestUsable(), 15);

  // Newest full corrupted: the delta chain ending at 10 is next, and resume
  // from it must retrace the clean run exactly.
  EXPECT_TRUE(store.CorruptShard(15, 0));
  EXPECT_EQ(store.LatestUsable(), 10);
  store.CheckInvariants();
  {
    Session resumed;
    RestoreParameters(payloads.at(10), resumed.trainer.Parameters(), &resumed.opt);
    ExpectBitIdenticalTail(&clean, &resumed, clean_losses, 10);
  }

  // Losing the BASE invalidates the whole chain: record 10 has no damaged
  // shard of its own but is unusable through its base, so nothing restorable
  // remains.
  EXPECT_TRUE(store.CorruptShard(5, 1));
  EXPECT_EQ(store.LatestUsable(), -1);
  store.CheckInvariants();
}

TEST(CheckpointResumeTest, LocalityAwareRestorePricesCheapestLiveSource) {
  SimEngine engine;
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 8);
  const CheckpointOptions opts = FastRecoveryOptions(/*full_every=*/1);
  CheckpointStore store(&engine, opts, &cluster);
  store.BeginCheckpoint(10, kParams, /*data_parallel=*/2, {0, 1});
  engine.RunUntil(engine.now() + 3600.0);  // Flush to cloud.

  const std::vector<VmId> owners = {0, 1};
  const std::vector<VmId> peers = {2, 3};

  // Owners inside the new placement: both shards read from local SSD, and a
  // fully-warm placement pays only the process-group rebuild.
  RestoreBreakdown ssd;
  const double ssd_total =
      store.RestoreSeconds(10, kParams, 2, owners, /*warm_vms=*/2, &ssd);
  EXPECT_EQ(ssd.shards_ssd, 2);
  EXPECT_EQ(ssd.shards_peer, 0);
  EXPECT_EQ(ssd.shards_cloud, 0);
  EXPECT_EQ(ssd.setup_s, kWarmRestoreSetupS);
  EXPECT_GT(ssd.ssd_s, 0.0);
  EXPECT_EQ(ssd_total, ssd.Total());

  // Owners alive but outside the placement: peer pulls over the fabric, and
  // an all-cold placement pays the full setup.
  RestoreBreakdown peer;
  store.RestoreSeconds(10, kParams, 2, peers, /*warm_vms=*/0, &peer);
  EXPECT_EQ(peer.shards_peer, 2);
  EXPECT_EQ(peer.shards_ssd, 0);
  EXPECT_EQ(peer.setup_s, kRestoreSetupS);

  // Owners dead (shards already safe in cloud): cloud reads, the slowest
  // tier; the record-aware price never exceeds the legacy flat price.
  cluster.Preempt(0);
  cluster.Preempt(1);
  RestoreBreakdown cloud;
  const double cloud_total = store.RestoreSeconds(10, kParams, 2, peers, 0, &cloud);
  EXPECT_EQ(cloud.shards_cloud, 2);
  EXPECT_GT(cloud.cloud_s, peer.peer_s);
  EXPECT_GT(cloud_total, ssd_total);
  EXPECT_LE(cloud_total, store.RestoreDuration(kParams, 2) + 1e-9);

  // A premigrated record restores free of data movement: the bytes already
  // travelled with the premigration trigger.
  store.BeginCheckpoint(20, kParams, 2, {2, 3}, /*premigrated=*/true);
  RestoreBreakdown premig;
  store.RestoreSeconds(20, kParams, 2, peers, /*warm_vms=*/2, &premig);
  EXPECT_EQ(premig.shards_premigrated, 2);
  EXPECT_EQ(premig.ssd_s + premig.peer_s + premig.cloud_s, 0.0);
  store.CheckInvariants();
}

TEST(CheckpointResumeTest, PeerPullNeverCostsMoreThanTheCloudCopy) {
  SimEngine engine;
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), 8);
  CheckpointStore store(&engine, FastRecoveryOptions(/*full_every=*/1), &cluster);
  // Four shards whose owners stay alive outside the restoring placement: four
  // concurrent peer pulls split a 10 Gbps NIC below the cloud read rate.
  constexpr int kShards = 4;
  store.BeginCheckpoint(10, kParams, kShards, {0, 1, 2, 3});
  const std::vector<VmId> targets = {4, 5, 6, 7};
  const double cloud_shard_s = store.Record(10)->shard_bytes / kCloudReadBps;

  // Upload still in flight: the shards have no cloud copy yet, so they pull
  // from their owners even though that is slower than a cloud read would be.
  RestoreBreakdown written;
  store.RestoreSeconds(10, kParams, kShards, targets, /*warm_vms=*/0, &written);
  EXPECT_EQ(written.shards_peer, kShards);
  EXPECT_EQ(written.shards_cloud, 0);
  EXPECT_GT(written.peer_s, cloud_shard_s);

  // Flushed: the same shards now read their cloud copies, the cheaper source.
  engine.RunUntil(engine.now() + 3600.0);
  ASSERT_EQ(store.LatestComplete(), 10);
  RestoreBreakdown flushed;
  const double total = store.RestoreSeconds(10, kParams, kShards, targets, 0, &flushed);
  EXPECT_EQ(flushed.shards_peer, 0);
  EXPECT_EQ(flushed.shards_cloud, kShards);
  EXPECT_EQ(flushed.cloud_s, cloud_shard_s);
  EXPECT_EQ(total, kRestoreSetupS + cloud_shard_s);
  EXPECT_LT(total, written.Total());
  store.CheckInvariants();
}

TEST(CheckpointResumeTest, StallEstimateMatchesChargedStallForFullAndDelta) {
  SimEngine engine;
  CheckpointStore store(&engine, FastRecoveryOptions(/*full_every=*/4));
  // The estimate and the charged stall share one formula: bit-identical for
  // the full snapshot...
  const double full_estimate = store.CheckpointStallEstimate(kParams, 2);
  const double full_stall = store.BeginCheckpoint(5, kParams, 2, {0, 1});
  EXPECT_EQ(full_estimate, full_stall);
  engine.RunUntil(engine.now() + 3600.0);

  // ...and for the delta that follows it, which writes kDeltaFraction of the
  // bytes and therefore stalls for less.
  const double delta_estimate = store.CheckpointStallEstimate(kParams, 2);
  const double delta_stall = store.BeginCheckpoint(10, kParams, 2, {0, 1});
  EXPECT_EQ(delta_estimate, delta_stall);
  EXPECT_LT(delta_stall, full_stall);
  EXPECT_EQ(store.delta_checkpoints_written(), 1);
  store.CheckInvariants();
}

TEST(CheckpointResumeTest, GarbageCollectionPrunesFlushedOlderChains) {
  SimEngine engine;
  CheckpointStore store(&engine, CheckpointOptions());  // Legacy: all full.
  for (int i = 1; i <= 6; ++i) {
    store.BeginCheckpoint(5 * i, kParams, 2, {0, 1});
    engine.RunUntil(engine.now() + 3600.0);
  }
  // Fully-flushed records older than the fallback floor (the second-newest
  // complete full) are bookkeeping-inert and pruned; the floor itself and
  // everything newer survive, so one corruption-fallback level always
  // remains.
  EXPECT_EQ(store.LatestUsable(), 30);
  EXPECT_EQ(store.records_pruned(), 3);
  EXPECT_EQ(store.live_records(), 3);
  EXPECT_NE(store.Record(30), nullptr);
  EXPECT_NE(store.Record(20), nullptr);
  EXPECT_EQ(store.Record(5), nullptr);
  store.CheckInvariants();
}

TEST(CheckpointResumeTest, MidCadenceSnapshotResumesBitIdentical) {
  const std::vector<double> clean_losses = RunClean();
  Session clean;
  for (int t = 0; t < kTotalSteps; ++t) {
    clean.Step(t);
  }

  // A parameter snapshot taken at step 13, between cadence checkpoints,
  // restores into a fresh session that continues exactly where the snapshot
  // was taken.
  Session victim;
  for (int t = 0; t < 13; ++t) {
    victim.Step(t);
  }
  const ParameterCheckpoint live =
      SnapshotParameters(victim.trainer.Parameters(), victim.opt);
  Session incoming;
  RestoreParameters(live, incoming.trainer.Parameters(), &incoming.opt);
  ExpectBitIdenticalTail(&clean, &incoming, clean_losses, 13);
}

}  // namespace
}  // namespace varuna

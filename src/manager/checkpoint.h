// Continuous checkpointing (§4.5). Model state is checkpointed per cut-point
// section at mini-batch boundaries; data-parallel replicas shard the writes.
// Checkpoints land on local SSD first (briefly blocking training) and upload
// to cloud storage in the background; after a preemption the job resumes from
// the newest checkpoint that is still *complete* — every shard either safely
// in cloud storage or on a VM that is still alive. Shards are tracked
// individually (written / flushed / lost / corrupt) because the hostile spot
// market kills shard-holding VMs mid-flush and cloud objects can be damaged;
// resume must then fall back to the newest earlier complete checkpoint, never
// to a checkpoint with holes.
//
// Fast recovery path (opt-in via CheckpointOptions, priced with the fixed
// rates below; defaults reproduce the maximally-pessimistic model exactly):
//   * Delta checkpoints — a full snapshot every `full_checkpoint_every`
//     cadences with delta records (`kDeltaFraction` of the state) between.
//     A restore resolves a *chain*: the record plus its contiguous ancestors
//     back to the full base; a lost or corrupt record anywhere in the chain
//     invalidates everything chained on top of it, so resume falls back to
//     the newest older chain that is still whole.
//   * Locality-aware restore — RestoreSeconds() prices each shard of each
//     chain record from the cheapest live source: the owner VM's SSD when the
//     owner is part of the restoring placement, a peer transfer over the
//     simulated Network when the owner is alive elsewhere (a flushed shard
//     reads its cloud copy instead when that is cheaper), and a cloud read
//     otherwise; `kRestoreSetupS` shrinks toward `kWarmRestoreSetupS` as
//     the fraction of restoring VMs that survived the morph grows, and
//     premigrated records restore for free (their bytes moved early).
// Every morph, voluntary or not, restores through RestoreSeconds(): the
// store is the manager's one recovery path.
#ifndef SRC_MANAGER_CHECKPOINT_H_
#define SRC_MANAGER_CHECKPOINT_H_

#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sim/engine.h"

namespace varuna {

struct CheckpointOptions {
  // Full snapshot every K cadence checkpoints, delta records between (1
  // disables deltas: every record is full). A delta chains onto the newest
  // record only while that record's whole chain is usable; otherwise the
  // store self-heals by writing a full snapshot.
  int full_checkpoint_every = 1;
  // Price restores per shard from the cheapest live source instead of always
  // charging full setup plus a full cloud read.
  bool locality_aware_restore = false;
};

constexpr double kSsdWriteBps = 1.0e9;     // Local NVMe.
constexpr double kCloudUploadBps = 250e6;  // Background blob upload per VM.
// Fixed cost to restart processes, rebuild process groups and load state.
constexpr double kRestoreSetupS = 45.0;
constexpr double kCloudReadBps = 500e6;
constexpr double kSsdReadBps = 2.0e9;  // Local NVMe read (owner-survives tier).
// Setup floor when every restoring VM survived the morph: process-group
// rebuild only, no re-provisioning / image pull / process start.
constexpr double kWarmRestoreSetupS = 8.0;
// Fraction of the full state a delta record writes. Adam moments churn
// every step but fp16 activations and many master weights compress well
// against the previous snapshot, so this is a model input rather than a
// derived quantity.
constexpr double kDeltaFraction = 0.25;

// Bytes checkpointed per parameter: fp32 master + Adam m/v + fp16 weights.
constexpr double kCheckpointBytesPerParam = 14.0;

// Lifecycle of one data-parallel shard of one checkpoint.
enum class ShardState : uint8_t {
  kWritten,  // On the owner VM's local SSD; cloud upload in flight.
  kFlushed,  // Replicated to cloud storage; survives any VM death.
  kLost,     // Local copy died with its VM before the flush completed.
  kCorrupt,  // Cloud object lost or corrupted; detected at restore scan.
};

struct CheckpointShard {
  ShardState state = ShardState::kWritten;
  VmId owner = -1;  // VM holding the local copy (-1 = untracked).
};

struct CheckpointRecord {
  int64_t minibatch_id = -1;
  // Distinguishes re-checkpoints of the same step (training rolled back past
  // it and re-covered it): stale flush events from an overwritten record must
  // not promote the new record's shards.
  int64_t generation = 0;
  std::vector<CheckpointShard> shards;
  // Delta-chain bookkeeping. A full record is its own chain (base -1,
  // chain_length 0); a delta chains onto the immediately preceding record
  // (chain_length = predecessor's + 1 <= full_checkpoint_every - 1).
  bool is_delta = false;
  int64_t base_minibatch_id = -1;
  int chain_length = 0;
  // Bytes one shard of THIS record wrote (delta records write the
  // kDeltaFraction of a full shard); restore pricing reads this back.
  double shard_bytes = 0.0;
  // Written early by the liveput premigration trigger: the bytes already
  // moved toward the next placement, so a locality-aware restore reads this
  // record for free.
  bool premigrated = false;

  // Every shard reached cloud storage: restorable no matter which VMs die.
  bool Complete() const;
  // No shard lost or corrupt: restorable right now (kWritten shards read from
  // their still-alive owners' SSDs, the rest from cloud).
  bool Usable() const;
};

// How a restore's seconds split across recovery tiers. Chain records restore
// sequentially (deltas apply in order); within a record the data-parallel
// shards read in parallel, so each record contributes its slowest shard and
// that contribution is attributed to the slowest shard's tier.
struct RestoreBreakdown {
  double setup_s = 0.0;  // Process (re)start + process-group rebuild.
  double ssd_s = 0.0;    // Shards read from a surviving owner inside the placement.
  double peer_s = 0.0;   // Shards pulled from an alive owner outside the placement.
  double cloud_s = 0.0;  // Shards (re-)read from cloud storage.
  int shards_ssd = 0;
  int shards_peer = 0;
  int shards_cloud = 0;
  int shards_premigrated = 0;  // Restored free: premigration moved them early.
  double Total() const { return setup_s + ssd_s + peer_s + cloud_s; }
};

class CheckpointStore {
 public:
  // `cluster` (optional) prices the peer-transfer restore tier over the
  // simulated network; without it peer reads fall back to cloud pricing.
  CheckpointStore(SimEngine* engine, CheckpointOptions options,
                  const Cluster* cluster = nullptr)
      : engine_(engine), options_(options), cluster_(cluster) {}

  // Begins a checkpoint of `total_params` parameters at `minibatch_id`,
  // sharded across `data_parallel` replicas. Returns the foreground stall
  // (local SSD write of one shard); each shard's cloud flush completes later
  // and is tracked per shard. `shard_owners` (optional, size data_parallel)
  // names the VM holding each shard's local copy so OnVmLost() can mark the
  // right shards lost. `premigrated` marks the record as written by the
  // liveput premigration trigger (restores read it for free).
  double BeginCheckpoint(int64_t minibatch_id, double total_params, int data_parallel,
                         const std::vector<VmId>& shard_owners = {},
                         bool premigrated = false);

  // Newest checkpoint whose whole chain reached cloud storage (-1 if none).
  int64_t LatestComplete() const;
  // Newest checkpoint whose whole chain has no lost/corrupt shard (-1 if
  // none): restorable as long as the kWritten shards' owners stay up. This is
  // what resume uses — the "last complete global step" resolution. With
  // deltas disabled every chain is a single full record and this degenerates
  // to the original per-record scan.
  int64_t LatestUsable() const;

  // Time to restore the given checkpoint onto a new configuration. Pessimistic
  // model: full setup plus one full shard read from cloud, regardless of
  // which record is restored or who survived.
  double RestoreDuration(double total_params, int data_parallel) const;

  // Record-aware restore pricing. Resolves the chain of `minibatch_id` and
  // prices it: with locality_aware_restore each shard reads from its cheapest
  // live source and setup warms with the surviving-VM fraction (`warm_vms` of
  // `target_vms` carried over from the previous placement); without it every
  // chain record reads from cloud at full setup. When deltas are also
  // disabled (or the record is unknown, e.g. a fresh start) this returns
  // exactly RestoreDuration(). `breakdown` (optional) receives the per-tier
  // split either way, so downtime telemetry works before and after enabling
  // the fast path.
  double RestoreSeconds(int64_t minibatch_id, double total_params, int data_parallel,
                        const std::vector<VmId>& target_vms, int warm_vms,
                        RestoreBreakdown* breakdown = nullptr) const;

  // Foreground stall a BeginCheckpoint of this shape *would* cost (one shard
  // over local SSD) — the liveput policy's pre-migration cost model compares
  // it against the expected rollback work before committing to a checkpoint.
  // Delta-aware: consults the same next-record decision BeginCheckpoint will
  // make, so the estimate and the charged stall never drift.
  double CheckpointStallEstimate(double total_params, int data_parallel) const;

  // Marks every not-yet-flushed shard owned by `vm` as lost (the local copy
  // died with the VM). Idempotent; called from the cluster's preemption
  // observer for announced *and* unannounced VM deaths.
  void OnVmLost(VmId vm);

  // Chaos hook: damages the cloud object of shard `shard` of checkpoint
  // `minibatch_id` (loss and corruption are indistinguishable at restore —
  // missing blob vs. checksum mismatch both make the shard unusable). Returns
  // false if no such shard exists or it is already unusable.
  bool CorruptShard(int64_t minibatch_id, int shard);

  // VMs owning a shard whose flush is still in flight (state kWritten), over
  // all records, deduplicated ascending. The chaos engine targets these for
  // the "kill every VM holding a shard mid-flush" storm.
  std::vector<VmId> ShardOwnersInFlight() const;

  const CheckpointRecord* Record(int64_t minibatch_id) const;

  int64_t shards_lost() const { return shards_lost_; }
  int64_t delta_checkpoints_written() const { return delta_checkpoints_written_; }
  int64_t records_pruned() const { return records_pruned_; }
  // Total bytes (all shards) the most recent BeginCheckpoint wrote.
  double last_checkpoint_bytes() const { return last_checkpoint_bytes_; }
  size_t live_records() const { return records_.size(); }

  // Aborts via VARUNA_CHECK on inconsistent shard bookkeeping.
  void CheckInvariants() const;

 private:
  // Flat sorted-vector idiom: ordered (and therefore iterated) by mini-batch
  // id ascending, so the latest-usable scan is deterministic by construction
  // and OnVmLost touches a GC-bounded window instead of every record ever
  // written.
  CheckpointRecord* FindRecord(int64_t minibatch_id);
  const CheckpointRecord* FindRecord(int64_t minibatch_id) const;

  // Walks `record` and its contiguous ancestors down to their full base,
  // newest first, calling `accept` on each. True when every record is
  // accepted and the base is reached; a missing ancestor (pruned or never
  // written) fails the chain. Defined in checkpoint.cc, its only user.
  template <typename Accept>
  bool WalkChain(const CheckpointRecord& record, Accept accept) const;

  // The next-record shape BeginCheckpoint will produce given current state:
  // a delta only when deltas are enabled, the chain has room, and the newest
  // record's whole chain is still usable (never chain onto a broken base).
  bool NextIsDelta(int64_t minibatch_id) const;
  // Bytes one shard of the next checkpoint writes (shared by the stall
  // charge and the stall estimate so the two can never drift).
  double NextShardBytes(double total_params, int data_parallel,
                        int64_t minibatch_id) const;

  // Prunes records that can no longer influence any observable outcome:
  // everything older than the *second*-newest chain-complete full checkpoint
  // (keeping one complete fallback level below the newest, matching the
  // corruption-fallback depth the recovery tests exercise), provided the
  // record has no flush still in flight; plus bookkeeping-inert records whose
  // chain is already broken (never restorable, nothing left to flush).
  void GarbageCollect();

  SimEngine* engine_;
  CheckpointOptions options_;
  const Cluster* cluster_;
  std::vector<CheckpointRecord> records_;  // Sorted by minibatch_id ascending.
  int64_t next_generation_ = 0;
  int checkpoints_written_ = 0;
  int64_t shards_lost_ = 0;
  int64_t shards_corrupted_ = 0;
  int64_t flushes_completed_ = 0;
  int64_t delta_checkpoints_written_ = 0;
  int64_t records_pruned_ = 0;
  double last_checkpoint_bytes_ = 0.0;
};

}  // namespace varuna

#endif  // SRC_MANAGER_CHECKPOINT_H_

#include "src/manager/checkpoint.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace varuna {
namespace {

bool HasWrittenShard(const CheckpointRecord& record) {
  return std::any_of(record.shards.begin(), record.shards.end(),
                     [](const CheckpointShard& shard) {
                       return shard.state == ShardState::kWritten;
                     });
}

bool IsUsable(const CheckpointRecord& record) { return record.Usable(); }
bool IsComplete(const CheckpointRecord& record) { return record.Complete(); }

}  // namespace

bool CheckpointRecord::Complete() const {
  if (shards.empty()) {
    return false;
  }
  return std::all_of(shards.begin(), shards.end(), [](const CheckpointShard& shard) {
    return shard.state == ShardState::kFlushed;
  });
}

bool CheckpointRecord::Usable() const {
  if (shards.empty()) {
    return false;
  }
  return std::all_of(shards.begin(), shards.end(), [](const CheckpointShard& shard) {
    return shard.state == ShardState::kWritten || shard.state == ShardState::kFlushed;
  });
}

CheckpointRecord* CheckpointStore::FindRecord(int64_t minibatch_id) {
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), minibatch_id,
      [](const CheckpointRecord& record, int64_t id) { return record.minibatch_id < id; });
  return it != records_.end() && it->minibatch_id == minibatch_id ? &*it : nullptr;
}

const CheckpointRecord* CheckpointStore::FindRecord(int64_t minibatch_id) const {
  return const_cast<CheckpointStore*>(this)->FindRecord(minibatch_id);
}

template <typename Accept>
bool CheckpointStore::WalkChain(const CheckpointRecord& record, Accept accept) const {
  const CheckpointRecord* cur = &record;
  while (true) {
    if (!accept(*cur)) {
      return false;
    }
    if (!cur->is_delta) {
      return true;
    }
    cur = FindRecord(cur->base_minibatch_id);
    if (cur == nullptr) {
      return false;  // Base pruned or never written: the chain is broken.
    }
  }
}

bool CheckpointStore::NextIsDelta(int64_t minibatch_id) const {
  if (options_.full_checkpoint_every <= 1 || records_.empty()) {
    return false;
  }
  const CheckpointRecord& newest = records_.back();
  // Only chain forward onto a chain that is whole right now; a rollback
  // re-checkpoint (id at or below the newest) and a broken chain both
  // self-heal with a full snapshot.
  return newest.minibatch_id < minibatch_id &&
         newest.chain_length + 1 < options_.full_checkpoint_every &&
         WalkChain(newest, IsUsable);
}

double CheckpointStore::NextShardBytes(double total_params, int data_parallel,
                                       int64_t minibatch_id) const {
  const double full_shard_bytes =
      kCheckpointBytesPerParam * total_params / std::max(1, data_parallel);
  return NextIsDelta(minibatch_id) ? full_shard_bytes * kDeltaFraction : full_shard_bytes;
}

double CheckpointStore::BeginCheckpoint(int64_t minibatch_id, double total_params,
                                        int data_parallel,
                                        const std::vector<VmId>& shard_owners,
                                        bool premigrated) {
  VARUNA_CHECK_GE(data_parallel, 1);
  VARUNA_CHECK_GT(total_params, 0.0);
  VARUNA_CHECK(shard_owners.empty() ||
               shard_owners.size() == static_cast<size_t>(data_parallel));
  // Replicas shard the write; each stage writes its own layers, all in
  // parallel, so the stall is one shard over local SSD. Delta records write
  // only the changed fraction.
  const bool is_delta = NextIsDelta(minibatch_id);
  const double shard_bytes = NextShardBytes(total_params, data_parallel, minibatch_id);
  const double stall = shard_bytes / kSsdWriteBps;

  CheckpointRecord record;
  record.minibatch_id = minibatch_id;
  const int64_t generation = ++next_generation_;
  record.generation = generation;
  record.shards.resize(static_cast<size_t>(data_parallel));
  for (size_t s = 0; s < record.shards.size(); ++s) {
    record.shards[s].owner = shard_owners.empty() ? -1 : shard_owners[s];
  }
  record.is_delta = is_delta;
  if (is_delta) {
    record.base_minibatch_id = records_.back().minibatch_id;
    record.chain_length = records_.back().chain_length + 1;
    ++delta_checkpoints_written_;
  }
  record.shard_bytes = shard_bytes;
  record.premigrated = premigrated;
  last_checkpoint_bytes_ = shard_bytes * data_parallel;

  // A rollback past this step and re-checkpoint overwrites the old record;
  // the generation keeps the old record's in-flight flush events inert.
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), minibatch_id,
      [](const CheckpointRecord& existing, int64_t id) { return existing.minibatch_id < id; });
  if (it != records_.end() && it->minibatch_id == minibatch_id) {
    *it = std::move(record);
  } else {
    records_.insert(it, std::move(record));
  }
  ++checkpoints_written_;

  // Background upload, one event per shard (VMs upload their shards in
  // parallel). A shard whose local copy is lost mid-flight never promotes.
  const double upload = shard_bytes / kCloudUploadBps;
  for (int s = 0; s < data_parallel; ++s) {
    engine_->Schedule(stall + upload, [this, minibatch_id, generation, s] {
      CheckpointRecord* target = FindRecord(minibatch_id);
      if (target == nullptr || target->generation != generation) {
        return;  // Record superseded by a re-checkpoint, or garbage-collected.
      }
      CheckpointShard& shard = target->shards[static_cast<size_t>(s)];
      if (shard.state == ShardState::kWritten) {
        shard.state = ShardState::kFlushed;
        ++flushes_completed_;
      }
    });
  }
  GarbageCollect();
  return stall;
}

int64_t CheckpointStore::LatestComplete() const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (WalkChain(*it, IsComplete)) {
      return it->minibatch_id;
    }
  }
  return -1;
}

int64_t CheckpointStore::LatestUsable() const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (WalkChain(*it, IsUsable)) {
      return it->minibatch_id;
    }
  }
  return -1;
}

double CheckpointStore::CheckpointStallEstimate(double total_params,
                                                int data_parallel) const {
  // Estimate for the next *forward* checkpoint (a fresh id above every
  // existing record); shares NextShardBytes with BeginCheckpoint so the
  // estimate and the charged stall cannot drift.
  return NextShardBytes(total_params, data_parallel, std::numeric_limits<int64_t>::max()) /
         kSsdWriteBps;
}

double CheckpointStore::RestoreDuration(double total_params, int data_parallel) const {
  const double total_bytes = kCheckpointBytesPerParam * total_params;
  const double shard_bytes = total_bytes / std::max(1, data_parallel);
  return kRestoreSetupS + shard_bytes / kCloudReadBps;
}

double CheckpointStore::RestoreSeconds(int64_t minibatch_id, double total_params,
                                       int data_parallel,
                                       const std::vector<VmId>& target_vms, int warm_vms,
                                       RestoreBreakdown* breakdown) const {
  RestoreBreakdown scratch;
  RestoreBreakdown& out = breakdown != nullptr ? *breakdown : scratch;
  out = RestoreBreakdown{};

  const bool fast =
      options_.locality_aware_restore || options_.full_checkpoint_every > 1;
  const CheckpointRecord* record = FindRecord(minibatch_id);

  // Resolve the chain, newest first, then reverse: deltas apply onto their
  // base in order. A broken chain (or the legacy model) prices as one full
  // cloud restore.
  std::vector<const CheckpointRecord*> chain;
  const auto collect = [&chain](const CheckpointRecord& rec) {
    chain.push_back(&rec);
    return true;
  };
  if (fast && record != nullptr && !WalkChain(*record, collect)) {
    chain.clear();  // Missing full base: fall back to the pessimistic model.
  }
  if (chain.empty()) {
    const double duration = RestoreDuration(total_params, data_parallel);
    out.setup_s = kRestoreSetupS;
    out.cloud_s = duration - kRestoreSetupS;
    if (record != nullptr) {
      out.shards_cloud = static_cast<int>(record->shards.size());
    }
    return duration;
  }
  std::reverse(chain.begin(), chain.end());

  // Setup warms with the fraction of the restoring placement that survived
  // the morph (their processes and images are already resident; the blend
  // models the staggered restart overlapping the survivors' rebuild).
  double setup = kRestoreSetupS;
  if (options_.locality_aware_restore && !target_vms.empty()) {
    const int warm =
        std::max(0, std::min(warm_vms, static_cast<int>(target_vms.size())));
    const double warm_fraction = static_cast<double>(warm) /
                                 static_cast<double>(target_vms.size());
    setup = kWarmRestoreSetupS + (kRestoreSetupS - kWarmRestoreSetupS) * (1.0 - warm_fraction);
  }
  out.setup_s = setup;

  enum class Tier : uint8_t { kSsd, kPeer, kCloud };
  std::vector<Tier> tiers;
  for (const CheckpointRecord* rec : chain) {
    if (rec->premigrated) {
      // Premigration already moved this record toward the new placement.
      out.shards_premigrated += static_cast<int>(rec->shards.size());
      continue;
    }
    tiers.clear();
    int peer_flows = 0;
    for (const CheckpointShard& shard : rec->shards) {
      Tier tier = Tier::kCloud;
      if (options_.locality_aware_restore && shard.owner >= 0 &&
          (shard.state == ShardState::kWritten || shard.state == ShardState::kFlushed)) {
        // kWritten shards live on their owner's SSD by bookkeeping (a dead
        // owner would have marked them kLost); kFlushed shards keep the local
        // copy too, as long as the owner VM is verifiably still up.
        const bool owner_alive =
            shard.state == ShardState::kWritten ||
            (cluster_ != nullptr && shard.owner < cluster_->num_vms() &&
             cluster_->IsActive(shard.owner));
        if (owner_alive) {
          const bool owner_in_placement =
              std::find(target_vms.begin(), target_vms.end(), shard.owner) !=
              target_vms.end();
          if (owner_in_placement) {
            tier = Tier::kSsd;
          } else if (cluster_ != nullptr && !target_vms.empty()) {
            tier = Tier::kPeer;
            ++peer_flows;
          }
        }
      }
      tiers.push_back(tier);
    }
    // Peer pulls share NICs: `flows` pulls in flight at once.
    const auto peer_seconds = [&](size_t s, int flows) {
      const VmId owner = rec->shards[s].owner;
      const VmId target = target_vms[s % target_vms.size()];
      const GpuId src = cluster_->topology().GpusOfNode(cluster_->Vm(owner).node).front();
      const GpuId dst = cluster_->topology().GpusOfNode(cluster_->Vm(target).node).front();
      return cluster_->network().MeanTransferTime(src, dst, rec->shard_bytes,
                                                  std::max(1, flows));
    };
    const double cloud_shard_s = rec->shard_bytes / kCloudReadBps;
    // A flushed shard also has its cloud copy: read that instead when a peer
    // pull sharing the NICs with every peer candidate would be slower. Only
    // the pulls left on the peer tier then share the NICs. kWritten shards
    // have no cloud copy yet and stay on the peer tier.
    const int candidate_flows = peer_flows;
    for (size_t s = 0; s < tiers.size(); ++s) {
      if (tiers[s] == Tier::kPeer && rec->shards[s].state == ShardState::kFlushed &&
          peer_seconds(s, candidate_flows) > cloud_shard_s) {
        tiers[s] = Tier::kCloud;
        --peer_flows;
      }
    }
    // Shards of one record restore in parallel (each replica reads its own),
    // so the record contributes its slowest shard.
    double record_s = 0.0;
    Tier slowest = Tier::kSsd;
    for (size_t s = 0; s < tiers.size(); ++s) {
      double shard_s = 0.0;
      switch (tiers[s]) {
        case Tier::kSsd:
          shard_s = rec->shard_bytes / kSsdReadBps;
          ++out.shards_ssd;
          break;
        case Tier::kPeer:
          shard_s = peer_seconds(s, peer_flows);
          ++out.shards_peer;
          break;
        case Tier::kCloud:
          shard_s = cloud_shard_s;
          ++out.shards_cloud;
          break;
      }
      if (shard_s > record_s || s == 0) {
        record_s = shard_s;
        slowest = tiers[s];
      }
    }
    switch (slowest) {
      case Tier::kSsd:
        out.ssd_s += record_s;
        break;
      case Tier::kPeer:
        out.peer_s += record_s;
        break;
      case Tier::kCloud:
        out.cloud_s += record_s;
        break;
    }
  }
  return out.Total();
}

void CheckpointStore::OnVmLost(VmId vm) {
  if (vm < 0) {
    return;
  }
  for (CheckpointRecord& record : records_) {
    for (CheckpointShard& shard : record.shards) {
      if (shard.owner == vm && shard.state == ShardState::kWritten) {
        shard.state = ShardState::kLost;
        ++shards_lost_;
      }
    }
  }
}

bool CheckpointStore::CorruptShard(int64_t minibatch_id, int shard) {
  CheckpointRecord* record = FindRecord(minibatch_id);
  if (record == nullptr || shard < 0 ||
      shard >= static_cast<int>(record->shards.size())) {
    return false;
  }
  CheckpointShard& target = record->shards[static_cast<size_t>(shard)];
  if (target.state == ShardState::kLost || target.state == ShardState::kCorrupt) {
    return false;
  }
  target.state = ShardState::kCorrupt;
  ++shards_corrupted_;
  return true;
}

std::vector<VmId> CheckpointStore::ShardOwnersInFlight() const {
  std::vector<VmId> owners;
  for (const CheckpointRecord& record : records_) {
    for (const CheckpointShard& shard : record.shards) {
      if (shard.state == ShardState::kWritten && shard.owner >= 0) {
        owners.push_back(shard.owner);
      }
    }
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  return owners;
}

const CheckpointRecord* CheckpointStore::Record(int64_t minibatch_id) const {
  return FindRecord(minibatch_id);
}

void CheckpointStore::GarbageCollect() {
  if (records_.size() <= 1) {
    return;
  }
  // Retention floor: the second-newest chain-complete full checkpoint. One
  // complete fallback level stays below the newest, matching the corruption-
  // fallback depth the recovery battery exercises; everything older can only
  // be reached after BOTH retained chains break.
  int64_t keep_from = std::numeric_limits<int64_t>::min();
  int complete_fulls = 0;
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (!it->is_delta && WalkChain(*it, IsComplete)) {
      if (++complete_fulls == 2) {
        keep_from = it->minibatch_id;
        break;
      }
    }
  }
  const auto dead = [&](const CheckpointRecord& record) {
    if (HasWrittenShard(record)) {
      return false;  // Flush in flight: keep the bookkeeping target.
    }
    if (record.minibatch_id < keep_from) {
      return true;  // Superseded by two complete fallback levels.
    }
    // A broken chain with nothing left to flush can never be restored or
    // mutate a counter again.
    return !WalkChain(record, IsUsable);
  };
  // Flag first, compact second: the chain walks inside `dead` search
  // records_, which must stay intact while the flags are computed.
  std::vector<char> dead_flags(records_.size(), 0);
  for (size_t i = 0; i < records_.size(); ++i) {
    dead_flags[i] = dead(records_[i]) ? 1 : 0;
  }
  size_t keep = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (dead_flags[i] == 0) {
      if (keep != i) {
        records_[keep] = std::move(records_[i]);
      }
      ++keep;
    }
  }
  records_pruned_ += static_cast<int64_t>(records_.size() - keep);
  records_.resize(keep);
}

void CheckpointStore::CheckInvariants() const {
  // Re-checkpoints of a rolled-back step overwrite their record and GC prunes
  // dead ones, so the written counter bounds live + pruned rather than
  // equalling the live count.
  VARUNA_CHECK_GE(checkpoints_written_,
                  static_cast<int>(records_.size()) + static_cast<int>(records_pruned_));
  VARUNA_CHECK_GE(checkpoints_written_, static_cast<int>(delta_checkpoints_written_));
  int64_t lost = 0;
  int64_t corrupt = 0;
  int64_t flushed = 0;
  int64_t previous_id = std::numeric_limits<int64_t>::min();
  for (const CheckpointRecord& record : records_) {
    VARUNA_CHECK_GT(record.minibatch_id, previous_id);  // Sorted, unique.
    previous_id = record.minibatch_id;
    VARUNA_CHECK(!record.shards.empty());
    // Chain bookkeeping: full records are their own base; deltas point
    // strictly backwards and never exceed the configured chain room.
    if (record.is_delta) {
      VARUNA_CHECK_GE(record.chain_length, 1);
      VARUNA_CHECK_LT(record.base_minibatch_id, record.minibatch_id);
      VARUNA_CHECK_LT(record.chain_length,
                      std::max(1, options_.full_checkpoint_every));
    } else {
      VARUNA_CHECK_EQ(record.chain_length, 0);
      VARUNA_CHECK_EQ(record.base_minibatch_id, -1);
    }
    for (const CheckpointShard& shard : record.shards) {
      switch (shard.state) {
        case ShardState::kLost:
          ++lost;
          break;
        case ShardState::kCorrupt:
          ++corrupt;
          break;
        case ShardState::kFlushed:
          ++flushed;
          break;
        case ShardState::kWritten:
          break;
      }
    }
  }
  // The counters are monotone event counts; overwritten and pruned records
  // took their shard states with them, so the live scan can only undercount.
  VARUNA_CHECK_GE(shards_lost_, lost);
  VARUNA_CHECK_GE(shards_corrupted_, corrupt);
  VARUNA_CHECK_GE(flushes_completed_, flushed);
  // Complete => Usable per record, and the chain walks are identical, so the
  // complete frontier can never be newer.
  VARUNA_CHECK_LE(LatestComplete(), LatestUsable());
}

}  // namespace varuna

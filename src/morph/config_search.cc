#include "src/morph/config_search.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/common/check.h"

namespace varuna {

namespace {

// Un-memoized candidates are simulated in rounds of this many, with pruning
// re-evaluated against the incumbent between rounds. A compile-time constant
// — never the pool size — so which candidates get pruned is a pure function
// of the sweep inputs, and pooled sweeps stay bit-identical to serial ones.
constexpr size_t kSimulationRound = 16;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// --- CandidateMemo ----------------------------------------------------------

uint64_t CandidateMemo::Hash(const CandidateKey& key) {
  const uint64_t a = (static_cast<uint64_t>(static_cast<uint32_t>(key.depth)) << 32) |
                     static_cast<uint32_t>(key.replicas);
  const uint64_t b = (static_cast<uint64_t>(static_cast<uint32_t>(key.microbatch)) << 32) |
                     static_cast<uint32_t>(key.num_microbatches);
  return Mix64(a ^ Mix64(b ^ static_cast<uint64_t>(key.schedule_kind)));
}

bool CandidateMemo::SyncContext(const CandidateContext& context) {
  if (context == context_) {
    return false;
  }
  Clear();
  context_ = context;
  return true;
}

const FastSimResult* CandidateMemo::Find(const CandidateKey& key) const {
  if (slots_.empty()) {
    return nullptr;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t probe = Hash(key) & mask;; probe = (probe + 1) & mask) {
    const Slot& slot = slots_[probe];
    if (!slot.occupied) {
      return nullptr;
    }
    if (slot.key == key) {
      return &slot.result;
    }
  }
}

void CandidateMemo::Insert(const CandidateKey& key, const FastSimResult& result) {
  if (slots_.empty() || (size_ + 1) * 4 >= slots_.size() * 3) {
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  for (size_t probe = Hash(key) & mask;; probe = (probe + 1) & mask) {
    Slot& slot = slots_[probe];
    if (!slot.occupied) {
      slot.key = key;
      slot.result = result;
      slot.occupied = true;
      ++size_;
      return;
    }
    if (slot.key == key) {
      slot.result = result;  // Re-insert after an external Clear race: benign.
      return;
    }
  }
}

void CandidateMemo::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 256 : old.size() * 2, Slot{});
  size_ = 0;
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (!slot.occupied) {
      continue;
    }
    for (size_t probe = Hash(slot.key) & mask;; probe = (probe + 1) & mask) {
      if (!slots_[probe].occupied) {
        slots_[probe] = slot;
        ++size_;
        break;
      }
    }
  }
}

void CandidateMemo::Clear() {
  slots_.clear();
  size_ = 0;
}

// --- ConfigSearch -----------------------------------------------------------

int ConfigSearch::PickMicrobatchSize(double tolerance) const {
  const std::vector<int>& sizes = calibration_->microbatch_sizes();
  VARUNA_CHECK(!sizes.empty());
  // Probe an interior cut-point (homogeneous-block models: any block works).
  const int section = sections_->num_sections() > 2 ? 1 : 0;
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    const double per_example = calibration_->ForwardTime(section, sizes[i]) / sizes[i];
    const double next_per_example =
        calibration_->ForwardTime(section, sizes[i + 1]) / sizes[i + 1];
    if (per_example - next_per_example <= tolerance * per_example) {
      return sizes[i];
    }
  }
  return sizes.back();
}

std::vector<int> ConfigSearch::PickMicrobatchCandidates(double tolerance,
                                                        int max_candidates) const {
  const std::vector<int>& sizes = calibration_->microbatch_sizes();
  const int saturating = PickMicrobatchSize(tolerance);
  std::vector<int> candidates;
  // The saturating m maximises Nm (least bubble, least memory) at near-best
  // per-example compute; larger profiled sizes trade bubble fraction for
  // compute efficiency — which side wins depends on P, so both are swept.
  // Sizes below saturation are dominated (worse per-example compute AND no
  // bubble advantage over the saturating m is large enough to matter) and are
  // skipped, keeping the sweep O(G * max_candidates).
  for (const int m : sizes) {
    if (m < saturating || static_cast<int>(candidates.size()) >= std::max(1, max_candidates)) {
      continue;
    }
    candidates.push_back(m);
  }
  if (candidates.empty()) {
    candidates.push_back(saturating);
  }
  return candidates;
}

bool ConfigSearch::StageMemoryFits(const Partition& partition, int m, int num_microbatches,
                                   const SearchConstraints& constraints) const {
  const double block_full_act = BlockFullActivationBytes(*spec_);
  const double blocks_per_section =
      static_cast<double>(spec_->num_layers) / sections_->num_sections();
  for (int stage = 0; stage < partition.depth(); ++stage) {
    const int begin = partition.stage_begin[static_cast<size_t>(stage)];
    const int end = partition.stage_begin[static_cast<size_t>(stage) + 1];
    MemoryModelInputs inputs;
    inputs.stage_params = partition.stage_params[static_cast<size_t>(stage)];
    inputs.input_activation_bytes_per_example =
        stage == 0 ? 4.0 * spec_->seq_len : spec_->BoundaryActivationBytes();
    inputs.full_activation_bytes_per_example = block_full_act * blocks_per_section * (end - begin);
    inputs.microbatch_size = m;
    inputs.num_microbatches = num_microbatches;
    inputs.pipeline_depth = partition.depth();
    inputs.stage_index = stage;
    inputs.cpu_offload_optimizer = constraints.cpu_offload_optimizer;
    if (!Fits(EstimateStageMemory(ScheduleKind::kVaruna, inputs), constraints.budget)) {
      return false;
    }
  }
  return true;
}

const Partition* ConfigSearch::PartitionForDepth(int depth) const {
  const size_t index = static_cast<size_t>(depth);
  if (partition_known_.size() <= index) {
    partition_known_.resize(index + 1, 0);
    partitions_.resize(index + 1);
  }
  if (!partition_known_[index]) {
    Result<Partition> partition = PartitionModel(*sections_, depth);
    if (partition.ok()) {
      partitions_[index] = std::make_unique<Partition>(std::move(partition).value());
    }
    partition_known_[index] = 1;
  }
  return partitions_[index].get();
}

Result<std::vector<JobConfig>> ConfigSearch::Sweep(int gpus,
                                                   const SearchConstraints& constraints) const {
  VARUNA_CHECK_GT(constraints.total_batch, 0.0);
  const auto infeasible = [&] {
    std::ostringstream message;
    message << "no feasible configuration for " << gpus << " GPUs (model " << spec_->name
            << ")";
    return Result<std::vector<JobConfig>>::Error(message.str());
  };
  if (gpus < 1) {
    return Result<std::vector<JobConfig>>::Error("no GPUs available");
  }
  std::unique_lock<std::mutex> sweep_lock(sweep_mutex_);

  // L1: the whole-sweep memo. The key covers every input of the sweep (G, the
  // calibration fingerprint, all constraint fields), so a hit is exact — the
  // cached vector is the bit-identical result a fresh sweep would produce.
  const uint64_t calibration_fingerprint = calibration_->Fingerprint();
  const SweepKey key{gpus, calibration_fingerprint, constraints};
  int workers = 1;
  {
    std::unique_lock<std::mutex> lock(cache_mutex_);
    ++stats_.sweeps;
    const auto it = std::lower_bound(
        sweep_cache_.begin(), sweep_cache_.end(), key,
        [](const auto& entry, const SweepKey& probe) { return entry.first < probe; });
    if (it != sweep_cache_.end() && it->first == key) {
      ++stats_.sweep_cache_hits;
      if (it->second.empty()) {
        return infeasible();
      }
      return it->second;
    }
    ++stats_.sweep_cache_misses;
    workers = (pool_ != nullptr) ? pool_->num_threads() : 1;
    if (static_cast<int>(simulators_.size()) < workers) {
      simulators_.resize(static_cast<size_t>(workers), FastSimulator(calibration_));
    }
  }

  // L2: the candidate memo survives across G but not across a change to what
  // make_sim_config feeds the simulator — a stale hit would be a silent wrong
  // morph. The enumeration-only constraints reach it through the key.
  candidate_memo_.SyncContext(
      {calibration_fingerprint, constraints.gpus_per_node, constraints.shared_sync_bytes});

  const std::vector<int> ms =
      PickMicrobatchCandidates(constraints.microbatch_tolerance, constraints.microbatch_candidates);
  const int max_depth = std::min(gpus, sections_->num_sections());

  // Enumerate every memory-feasible candidate in ascending (P, m) order —
  // the output order, and the order pruning walks. Memo probes resolve here,
  // serially and lock-free (sweep_mutex_ already excludes other sweeps).
  struct Candidate {
    CandidateKey key;
    const Partition* partition = nullptr;
    FastSimResult sim;
    double lower_bound_s = 0.0;
    bool resolved = false;  // sim is valid (memo hit or simulated this sweep).
    bool pruned = false;
  };
  const auto actual_batch = [](const Candidate& c) {
    return static_cast<double>(c.key.microbatch) * c.key.num_microbatches * c.key.replicas;
  };
  const auto make_sim_config = [&](const Candidate& c) {
    FastSimConfig sim_config;
    sim_config.sections = sections_;
    sim_config.partition = c.partition;
    sim_config.data_parallel = c.key.replicas;
    sim_config.microbatch_size = c.key.microbatch;
    sim_config.gpus_per_node = constraints.gpus_per_node;
    sim_config.shared_sync_bytes = constraints.shared_sync_bytes;
    return sim_config;
  };

  std::vector<Candidate> candidates;
  std::vector<size_t> pending;  // Indices of memo misses, ascending (P, m).
  uint64_t memo_hits = 0;
  for (int depth = 1; depth <= max_depth; ++depth) {
    const Partition* partition = PartitionForDepth(depth);
    if (partition == nullptr) {
      continue;
    }
    const int replicas = gpus / depth;
    if (replicas < 1) {
      continue;
    }
    for (const int m : ms) {
      const int num_microbatches = static_cast<int>(
          std::ceil(constraints.total_batch / (static_cast<double>(m) * replicas)));
      if (!StageMemoryFits(*partition, m, num_microbatches, constraints)) {
        continue;  // Depth too shallow for this m: a stage does not fit in GPU memory.
      }
      Candidate candidate;
      candidate.key = CandidateKey{depth, replicas, m, num_microbatches,
                                   static_cast<int32_t>(ScheduleKind::kVaruna)};
      candidate.partition = partition;
      if (const FastSimResult* hit = candidate_memo_.Find(candidate.key)) {
        candidate.sim = *hit;
        candidate.resolved = true;
        ++memo_hits;
      } else {
        pending.push_back(candidates.size());
      }
      candidates.push_back(candidate);
    }
  }

  // Incumbent throughput from memo hits: at a previously-unseen G most
  // candidates resolve here, so pruning has a strong incumbent before the
  // first simulation round.
  double incumbent = 0.0;
  for (const Candidate& candidate : candidates) {
    if (candidate.resolved) {
      incumbent = std::max(incumbent, actual_batch(candidate) / candidate.sim.minibatch_s);
    }
  }

  // Bounds for the misses (cheap: O(P) in calibrated scalars, no schedule).
  for (const size_t index : pending) {
    Candidate& candidate = candidates[index];
    candidate.lower_bound_s =
        simulators_[0].LowerBoundMinibatch(make_sim_config(candidate), candidate.key.num_microbatches);
  }

  // Simulate the misses in fixed-size rounds, re-pruning against the
  // incumbent between rounds. Within a round the fan-out writes results into
  // item-indexed slots and the merge walks them in ascending (P, m) order, so
  // worker interleaving never shows: pooled == serial, bit for bit.
  uint64_t pruned = 0;
  uint64_t simulated = 0;
  std::vector<size_t> round;
  size_t next_pending = 0;
  while (next_pending < pending.size()) {
    round.clear();
    while (next_pending < pending.size() && round.size() < kSimulationRound) {
      const size_t index = pending[next_pending++];
      Candidate& candidate = candidates[index];
      // Prune iff even the bound-optimistic throughput strictly loses to the
      // incumbent: actual <= upper bound < incumbent, so the candidate can
      // neither win nor tie (ties keep the lowest (P, m), which Best()'s
      // strict > already guarantees for the un-pruned survivors).
      if (constraints.prune && incumbent > 0.0 && candidate.lower_bound_s > 0.0 &&
          actual_batch(candidate) / candidate.lower_bound_s < incumbent) {
        candidate.pruned = true;
        ++pruned;
        continue;
      }
      round.push_back(index);
    }
    if (round.empty()) {
      continue;
    }
    const auto simulate = [&](int item, int worker) {
      Candidate& candidate = candidates[round[static_cast<size_t>(item)]];
      const Schedule& schedule = GenerateSchedule(
          ScheduleKind::kVaruna, candidate.key.depth, candidate.key.num_microbatches);
      candidate.sim = simulators_[static_cast<size_t>(worker)].EstimateMinibatch(
          schedule, make_sim_config(candidate));
    };
    if (pool_ != nullptr && pool_->num_threads() > 1 && round.size() > 1) {
      pool_->ParallelFor(static_cast<int>(round.size()), simulate);
    } else {
      // 1-worker pools short-circuit to the serial path: same code, no
      // dispatch overhead, and trivially identical results.
      for (int item = 0; item < static_cast<int>(round.size()); ++item) {
        simulate(item, 0);
      }
    }
    simulated += round.size();
    for (const size_t index : round) {
      Candidate& candidate = candidates[index];
      candidate.resolved = true;
      candidate_memo_.Insert(candidate.key, candidate.sim);
      incumbent = std::max(incumbent, actual_batch(candidate) / candidate.sim.minibatch_s);
    }
  }

  // Assemble the result in enumeration order (ascending (P, m)).
  std::vector<JobConfig> feasible;
  feasible.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    if (!candidate.resolved) {
      continue;  // Pruned.
    }
    JobConfig config;
    config.pipeline_depth = candidate.key.depth;
    config.data_parallel = candidate.key.replicas;
    config.microbatch_size = candidate.key.microbatch;
    config.num_microbatches = candidate.key.num_microbatches;
    config.est_minibatch_s = candidate.sim.minibatch_s;
    config.est_examples_per_s = config.ActualBatch() / candidate.sim.minibatch_s;
    config.gpus_used = candidate.key.depth * candidate.key.replicas;
    feasible.push_back(config);
  }
  {
    std::unique_lock<std::mutex> lock(cache_mutex_);
    stats_.candidates_simulated += simulated;
    stats_.candidate_memo_hits += memo_hits;
    stats_.candidate_memo_misses += pending.size();
    stats_.candidates_pruned += pruned;
    const auto it = std::lower_bound(
        sweep_cache_.begin(), sweep_cache_.end(), key,
        [](const auto& entry, const SweepKey& probe) { return entry.first < probe; });
    sweep_cache_.insert(it, {key, feasible});
  }
  if (feasible.empty()) {
    return infeasible();
  }
  return feasible;
}

Result<JobConfig> ConfigSearch::Best(int gpus, const SearchConstraints& constraints) const {
  Result<std::vector<JobConfig>> sweep = Sweep(gpus, constraints);
  if (!sweep.ok()) {
    return Result<JobConfig>::Error(sweep.error());
  }
  const std::vector<JobConfig>& configs = sweep.value();
  const JobConfig* best = &configs[0];
  for (const JobConfig& candidate : configs) {
    // M_total is fixed, so maximising throughput == minimising the time to
    // process one mini-batch's worth of examples. Strict > keeps the first
    // (lowest (P, m)) of exact ties, independent of pool interleaving.
    if (candidate.est_examples_per_s > best->est_examples_per_s) {
      best = &candidate;
    }
  }
  return *best;
}

ConfigSearchStats ConfigSearch::stats() const {
  std::unique_lock<std::mutex> lock(cache_mutex_);
  return stats_;
}

void ConfigSearch::ClearCaches() const {
  std::unique_lock<std::mutex> sweep_lock(sweep_mutex_);
  {
    std::unique_lock<std::mutex> lock(cache_mutex_);
    sweep_cache_.clear();
    stats_ = ConfigSearchStats();
  }
  candidate_memo_.Clear();
  partitions_.clear();
  partition_known_.clear();
}

}  // namespace varuna

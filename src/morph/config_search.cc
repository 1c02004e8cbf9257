#include "src/morph/config_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "src/common/check.h"

namespace varuna {

namespace {

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
  return Mix64(a ^ Mix64(b));
}

void CandidateMemo::Sync(const CandidateContext& context, const MemoryBudget& budget) {
  if (context != context_) {
    Clear();
    context_ = context;
  } else if (budget != budget_) {
    for (Slot& slot : slots_) {
      slot.entry.fits[0] = slot.entry.fits[1] = Feasibility::kUnknown;
    }
  }
  budget_ = budget;
}

CandidateEntry& CandidateMemo::FindOrInsert(const CandidateKey& key) {
  if (slots_.empty() || (size_ + 1) * 4 >= slots_.size() * 3) {
    Grow();
  }
  const size_t mask = slots_.size() - 1;
  for (size_t probe = Hash(key) & mask;; probe = (probe + 1) & mask) {
    Slot& slot = slots_[probe];
    if (!slot.occupied) {
      slot.key = key;
      slot.occupied = true;
      ++size_;
      return slot.entry;
    }
    if (slot.key == key) {
      return slot.entry;
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
  for (int stage = 0; stage < partition.depth(); ++stage) {
    const MemoryModelInputs inputs = StageMemoryInputs(*spec_, *sections_, partition, stage, m,
                                                       num_microbatches,
                                                       constraints.cpu_offload_optimizer);
    if (!Fits(EstimateStageMemory(ScheduleKind::kVaruna, inputs), constraints.budget)) {
      return false;
    }
  }
  return true;
}

const Partition* ConfigSearch::PartitionForDepth(int depth) const {
  if (!partitions_) {
    partitions_ = PartitionModelAtEveryDepth(*sections_);
  }
  if (depth < 1 || static_cast<size_t>(depth) > partitions_->size()) {
    return nullptr;
  }
  return &(*partitions_)[static_cast<size_t>(depth) - 1];
}

Partition ConfigSearch::CopyPartition(int depth) const {
  std::unique_lock<std::mutex> lock(sweep_mutex_);
  const Partition* partition = PartitionForDepth(depth);
  VARUNA_CHECK(partition != nullptr) << "no balanced partition at depth " << depth;
  return *partition;
}

Result<std::vector<JobConfig>> ConfigSearch::Sweep(int gpus,
                                                   const SearchConstraints& constraints) const {
  const auto infeasible = [&] {
    std::ostringstream message;
    message << "no feasible configuration for " << gpus << " GPUs (model " << spec_->name
            << ")";
    return Result<std::vector<JobConfig>>::Error(message.str());
  };
  if (gpus < 1) {
    return Result<std::vector<JobConfig>>::Error("no GPUs available");
  }
  // Also refuses NaN and +inf, whose Nm would not fit an int.
  if (!(constraints.total_batch > 0.0 && constraints.total_batch <= kMaxTotalBatch)) {
    return Result<std::vector<JobConfig>>::Error("total_batch must be > 0 and at most 2^30 - 1");
  }
  std::unique_lock<std::mutex> lock(sweep_mutex_);
  ++stats_.sweeps;

  // The candidate table survives across G but not across a change to what
  // make_sim_config feeds the simulator — a stale hit would be a silent wrong
  // morph. The enumeration-only constraints reach it through the key, except
  // the budget and CPU offload, which decide only feasibility.
  candidate_memo_.Sync(
      {calibration_->Fingerprint(), constraints.gpus_per_node, constraints.shared_sync_bytes},
      constraints.budget);
  const size_t offload = constraints.cpu_offload_optimizer ? 1 : 0;

  const std::vector<int> ms =
      PickMicrobatchCandidates(constraints.microbatch_tolerance, constraints.microbatch_candidates);
  const int max_depth = std::min(gpus, sections_->num_sections());

  // Enumerate every memory-feasible candidate in ascending (P, m) order —
  // the output order. Feasibility and bounds are computed once per table
  // entry, and simulated candidates seed the incumbent. At a previously-unseen
  // G most candidates resolve here, so pruning has a strong incumbent before
  // the first simulation.
  struct Candidate {
    CandidateKey key;
    const Partition* partition = nullptr;
    FastSimResult sim;
    // Optimistic throughput: actual batch / lower bound, +inf when the bound
    // is not positive (such a candidate is never pruned).
    double bound_throughput = 0.0;
    bool resolved = false;  // sim is valid (simulated before or this sweep).
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
  std::vector<size_t> pending;  // Indices of the unsimulated candidates.
  uint64_t memo_hits = 0;
  double incumbent = 0.0;
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
      Candidate candidate;
      candidate.key = CandidateKey{depth, replicas, m, num_microbatches};
      candidate.partition = partition;
      CandidateEntry& entry = candidate_memo_.FindOrInsert(candidate.key);
      Feasibility& fits = entry.fits[offload];
      if (fits == Feasibility::kUnknown) {
        fits = StageMemoryFits(*partition, m, num_microbatches, constraints)
                   ? Feasibility::kFits
                   : Feasibility::kDoesNotFit;
      }
      if (fits == Feasibility::kDoesNotFit) {
        continue;  // Depth too shallow for this m: a stage does not fit in GPU memory.
      }
      if (entry.simulated) {
        candidate.sim = entry.sim;
        candidate.resolved = true;
        ++memo_hits;
        incumbent = std::max(incumbent, actual_batch(candidate) / candidate.sim.minibatch_s);
      } else {
        if (!entry.bounded) {
          // Cheap: O(P) in calibrated scalars, no schedule.
          entry.lower_bound_s = simulator_.LowerBoundMinibatch(
              make_sim_config(candidate), num_microbatches);
          entry.bounded = true;
        }
        candidate.bound_throughput = entry.lower_bound_s > 0.0
                                         ? actual_batch(candidate) / entry.lower_bound_s
                                         : std::numeric_limits<double>::infinity();
        pending.push_back(candidates.size());
      }
      candidates.push_back(candidate);
    }
  }

  // Branch and bound over the misses. A candidate loses iff even its
  // bound-optimistic throughput strictly loses to the incumbent: actual <=
  // upper bound < incumbent, so it can neither win nor tie (ties keep the
  // lowest (P, m), which Best()'s strict > already guarantees for the
  // survivors). With pruning on, the misses the incumbent already rules out
  // are dropped first, and the rest are ordered best bound first (ties by
  // enumeration index); each simulation raises the incumbent before the next
  // bound is checked, and the first loser ends the search: no later bound is
  // higher. Unpruned sweeps simulate every miss in enumeration order.
  const uint64_t unsimulated = pending.size();
  const auto loses = [&](size_t index) { return candidates[index].bound_throughput < incumbent; };
  if (constraints.prune) {
    pending.erase(std::remove_if(pending.begin(), pending.end(), loses), pending.end());
    std::sort(pending.begin(), pending.end(), [&](size_t a, size_t b) {
      const double bound_a = candidates[a].bound_throughput;
      const double bound_b = candidates[b].bound_throughput;
      return bound_a != bound_b ? bound_a > bound_b : a < b;
    });
  }
  uint64_t simulated = 0;
  for (const size_t index : pending) {
    if (constraints.prune && loses(index)) {
      break;  // Best-first: every later candidate loses too.
    }
    Candidate& candidate = candidates[index];
    const Schedule& schedule = GenerateSchedule(ScheduleKind::kVaruna, candidate.key.depth,
                                                candidate.key.num_microbatches);
    candidate.sim = simulator_.EstimateMinibatch(schedule, make_sim_config(candidate));
    candidate.resolved = true;
    ++simulated;
    CandidateEntry& entry = candidate_memo_.FindOrInsert(candidate.key);
    entry.sim = candidate.sim;
    entry.simulated = true;
    incumbent = std::max(incumbent, actual_batch(candidate) / candidate.sim.minibatch_s);
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
  ++(simulated == 0 ? stats_.sweep_cache_hits : stats_.sweep_cache_misses);
  stats_.candidates_simulated += simulated;
  stats_.candidate_memo_hits += memo_hits;
  stats_.candidate_memo_misses += unsimulated;
  stats_.candidates_pruned += unsimulated - simulated;
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
    // (lowest (P, m)) of exact ties.
    if (candidate.est_examples_per_s > best->est_examples_per_s) {
      best = &candidate;
    }
  }
  return *best;
}

ConfigSearchStats ConfigSearch::stats() const {
  std::unique_lock<std::mutex> lock(sweep_mutex_);
  return stats_;
}

void ConfigSearch::ClearCaches() const {
  std::unique_lock<std::mutex> lock(sweep_mutex_);
  stats_ = ConfigSearchStats();
  candidate_memo_.Clear();
  partitions_.reset();
}

}  // namespace varuna

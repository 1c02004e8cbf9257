// Auto-configuration (§4.4): given G available GPUs and the one-time
// calibration, pick the best (P, D, m, Nm). The exploration is O(G * |m|):
//   1. The top micro-batch candidates are ranked once — the lowest m at which
//      F_i(m)/m stops improving, plus the next larger profiled sizes (larger m
//      trades pipeline-bubble fraction for per-example compute efficiency, so
//      the winner couples to P and must be explored jointly, §4.4).
//   2. P sweeps from the smallest memory-feasible depth up to the number of
//      cut-points (or G); D = G / P; for each (P, m) one balanced cut-point
//      assignment is evaluated with the fast simulator.
// M_total stays fixed across configurations (correctness-preserving
// morphing, §4.2): Nm = ceil(M_total / (m * D)) via gradient accumulation.
//
// The sweep is the hot path of every morph decision (§7.2), so it is built to
// be re-run at every preemption/arrival event from one candidate table:
//   * CandidateMemo records everything known about a candidate, keyed
//     (P, D, m, Nm) within a CandidateContext: the calibration
//     fingerprint plus the two constraint fields a simulation reads
//     (gpus_per_node, shared_sync_bytes). Each entry holds its memory
//     feasibility per cpu_offload_optimizer value, its analytic lower bound
//     and, once simulated, its FastSimResult. Nm depends only on (D, m), so
//     sweeps at neighboring G share almost all candidates: a morph from G=128
//     to a previously-unseen G=120 re-simulates only the handful of genuinely
//     new (P, D, m) tuples, and a revisited G costs hash probes only. A
//     recalibration or a change to either field clears the table — a stale
//     hit would be a silent wrong morph. A budget change forgets only the
//     feasibility bits, and CPU offload picks which bit is read. The other
//     constraints only decide which candidates are enumerated, and reach the
//     key through (P, D, m, Nm).
//   * Unsimulated candidates are searched branch-and-bound against
//     FastSimulator::LowerBoundMinibatch, a critical-path bound (pipeline
//     fill + serial forward/backward/recompute + backward drain into the
//     allreduce) from calibrated scalars alone. A candidate whose
//     bound-optimistic throughput strictly loses to the incumbent best is
//     pruned before it gets a schedule or a simulation. The sweep drops the
//     candidates the table's simulated entries already rule out, orders the
//     rest best bound first, and simulates them one at a time, each raising
//     the incumbent before the next bound is checked, until the first loser.
//     Pruning never changes Best(); it thins Sweep()'s list. With pruning
//     off nothing is ordered: every candidate is simulated, in enumeration
//     order. The list is returned in ascending (P, m) order.
//   * One sweep runs on the calling thread with one FastSimulator. A
//     simulation costs about a millisecond here (BENCH_config_search.json),
//     so parallelism belongs at campaign grain, one search per session.
// Best() and an unpruned Sweep() are pure functions of (G, calibration,
// constraints) whatever the table holds; only a pruned list depends on which
// candidates earlier sweeps simulated. Availability and restore pricing are
// not inputs: the liveput policy rescores an unpruned list afterwards.
// GenerateSchedule's process-wide memo generates+validates each (kind, P, Nm)
// shape once per process, and only simulated candidates ever ask for one;
// simulated candidates never need a schedule again. All sweep-path tables are
// flat (sorted vectors / open addressing) per varuna_analyze's hot-path rule.
#ifndef SRC_MORPH_CONFIG_SEARCH_H_
#define SRC_MORPH_CONFIG_SEARCH_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/result.h"
#include "src/model/cutpoints.h"
#include "src/model/transformer.h"
#include "src/morph/calibration.h"
#include "src/morph/fast_sim.h"
#include "src/pipeline/memory.h"
#include "src/pipeline/schedule_cache.h"

namespace varuna {

struct JobConfig {
  int pipeline_depth = 0;   // P
  int data_parallel = 0;    // D
  int microbatch_size = 0;  // m
  int num_microbatches = 0; // Nm per replica per mini-batch.
  double est_minibatch_s = 0.0;
  double est_examples_per_s = 0.0;
  int gpus_used = 0;        // P * D (<= G).

  double ActualBatch() const {
    return static_cast<double>(microbatch_size) * num_microbatches * data_parallel;
  }

  // Exact comparison (doubles included): the property tests assert that warm
  // and pruned sweeps return bit-identical configs to cold, unpruned ones.
  bool operator==(const JobConfig&) const = default;
};

// The largest total_batch Sweep() accepts: Nm <= ceil(M_total), and the
// schedule memo packs Nm into 30 bits (ScheduleCache::PackKey).
inline constexpr double kMaxTotalBatch = (1 << 30) - 1;

struct SearchConstraints {
  double total_batch = 0.0;           // M_total in (0, kMaxTotalBatch], fixed by the user.
  MemoryBudget budget;                // Per-GPU memory.
  int gpus_per_node = 1;              // Placement packing for the fast sim.
  double shared_sync_bytes = 0.0;     // From the tracer.
  bool cpu_offload_optimizer = false;
  // Relative throughput improvement below which F(m)/m has "stopped
  // improving" when picking m (§4.4).
  double microbatch_tolerance = 0.05;
  // How many micro-batch sizes the joint P x m sweep explores: the saturating
  // m plus up to this many - 1 larger profiled sizes. 1 recovers the old
  // fixed-m sweep.
  int microbatch_candidates = 3;
  // Branch and bound: simulate candidates best bound first and skip those
  // whose analytic lower bound shows they cannot beat the incumbent best.
  // Sound: the bound never exceeds the simulated time, so the winner — and
  // Best() — are bit-identical with or without pruning; only Sweep()'s
  // returned list thins. Disable for exhaustive diagnostics.
  bool prune = true;
};

// Cumulative cache/workload counters (monotone; snapshot and subtract to
// meter one call).
struct ConfigSearchStats {
  uint64_t sweeps = 0;                  // Sweep() calls.
  // Sweeps served wholly from the candidate table (no candidate simulated,
  // infeasible sweeps included), and every other sweep.
  uint64_t sweep_cache_hits = 0;
  uint64_t sweep_cache_misses = 0;
  uint64_t candidates_simulated = 0;    // FastSimulator invocations.
  // Candidate-grain reuse: probes of the candidate table for memory-feasible
  // candidates (a hit is already simulated), and candidates skipped by the
  // bound check (a pruned candidate is a miss that never reaches the
  // simulator or the schedule memo), so simulated == misses - pruned.
  uint64_t candidate_memo_hits = 0;
  uint64_t candidate_memo_misses = 0;
  uint64_t candidates_pruned = 0;
};

// Identity of one candidate within a fixed CandidateContext. The context
// itself is not part of the key: the memo stores the context and clears
// wholesale when it changes.
struct CandidateKey {
  int32_t depth = 0;             // P
  int32_t replicas = 0;          // D
  int32_t microbatch = 0;        // m
  int32_t num_microbatches = 0;  // Nm = ceil(M_total / (m * D)).

  bool operator==(const CandidateKey&) const = default;
};

// The inputs of a FastSimResult and a lower bound besides the CandidateKey
// and the instance's fixed model sections: the calibration and the two
// constraint fields Sweep copies into FastSimConfig.
struct CandidateContext {
  uint64_t calibration_fingerprint = 0;
  int gpus_per_node = 0;
  double shared_sync_bytes = 0.0;

  bool operator==(const CandidateContext&) const = default;
};

enum class Feasibility : uint8_t { kUnknown, kFits, kDoesNotFit };

// What the sweep knows about one candidate. Each part is filled on first need.
struct CandidateEntry {
  // Whether every stage fits the memo's budget, indexed by
  // cpu_offload_optimizer.
  Feasibility fits[2] = {Feasibility::kUnknown, Feasibility::kUnknown};
  bool bounded = false;    // lower_bound_s is valid.
  bool simulated = false;  // sim is valid.
  double lower_bound_s = 0.0;
  FastSimResult sim;
};

// Flat open-addressing (linear-probe, power-of-two capacity) table from
// CandidateKey to CandidateEntry. Not thread-safe: ConfigSearch touches it
// only under its sweep_mutex_.
class CandidateMemo {
 public:
  // Clears the table when `context` differs from the stored one
  // (recalibration or a changed simulation input). Otherwise, when `budget`
  // differs from the one the feasibility bits were computed under, forgets
  // those bits only: bounds and simulations do not read the budget.
  void Sync(const CandidateContext& context, const MemoryBudget& budget);

  // The key's entry, inserted blank on first sight. The reference is
  // invalidated by the next FindOrInsert().
  CandidateEntry& FindOrInsert(const CandidateKey& key);

  size_t size() const { return size_; }
  void Clear();

 private:
  struct Slot {
    CandidateKey key;
    CandidateEntry entry;
    bool occupied = false;
  };

  static uint64_t Hash(const CandidateKey& key);
  void Grow();

  std::vector<Slot> slots_;  // Capacity a power of two (or empty).
  size_t size_ = 0;
  CandidateContext context_;
  MemoryBudget budget_;
};

class ConfigSearch {
 public:
  ConfigSearch(const TransformerSpec* spec, const ModelSections* sections,
               const Calibration* calibration)
      : spec_(spec), sections_(sections), calibration_(calibration), simulator_(calibration) {}

  // Lowest profiled m whose per-example forward time is within `tolerance` of
  // the next profiled size's. Done once; reused across morphs.
  int PickMicrobatchSize(double tolerance) const;

  // The joint-sweep candidate set: the saturating m plus up to
  // `max_candidates` - 1 larger profiled sizes, ascending.
  std::vector<int> PickMicrobatchCandidates(double tolerance, int max_candidates) const;

  // Best configuration for `gpus` available GPUs. Returns an error when even
  // the deepest pipeline cannot fit (too few GPUs or memory), or when
  // constraints.total_batch is not in (0, kMaxTotalBatch].
  Result<JobConfig> Best(int gpus, const SearchConstraints& constraints) const;

  // The feasible configurations evaluated during the sweep (for diagnostics
  // and the Table 3 bench), ascending by (P, m). With constraints.prune set,
  // bound-pruned candidates are omitted (they are provably not the best), and
  // which ones depends on what earlier sweeps simulated; disable pruning for
  // the exhaustive list, a pure function of the inputs. Fails as Best() does.
  Result<std::vector<JobConfig>> Sweep(int gpus, const SearchConstraints& constraints) const;

  // A copy of the balanced partition the sweep evaluates at `depth` (every
  // depth's is computed once and cached). Aborts when `depth` has no partition, which
  // cannot happen for the depth of a config this search returned.
  Partition CopyPartition(int depth) const;

  // The process-wide schedule memo the sweep draws from (for its counters).
  const ScheduleCache* schedule_cache() const { return &ScheduleCache::Process(); }

  ConfigSearchStats stats() const;

  // Drops the candidate table, the counters and the partitions (for
  // cold-start benchmarking). The process-wide schedule memo survives, so a
  // schedule generated before the call is reused by reference afterwards,
  // not regenerated.
  void ClearCaches() const;

 private:
  bool StageMemoryFits(const Partition& partition, int m, int num_microbatches,
                       const SearchConstraints& constraints) const;

  // Balanced partition for `depth`; the first call computes every depth's
  // (they depend only on the fixed model sections). Null when infeasible.
  const Partition* PartitionForDepth(int depth) const;

  const TransformerSpec* spec_;
  const ModelSections* sections_;
  const Calibration* calibration_;

  // Serialises whole sweeps and guards all of the mutable state below, so
  // callers that share one instance across threads never overlap in it.
  mutable std::mutex sweep_mutex_;
  mutable ConfigSearchStats stats_;
  // Reused across sweeps so its scratch buffers amortise.
  mutable FastSimulator simulator_;
  mutable CandidateMemo candidate_memo_;
  // (*partitions_)[depth - 1] for every depth 1..K, from one DP on first use.
  mutable std::optional<std::vector<Partition>> partitions_;
};

}  // namespace varuna

#endif  // SRC_MORPH_CONFIG_SEARCH_H_

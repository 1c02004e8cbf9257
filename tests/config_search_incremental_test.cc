// The incremental-morph-decision contract: candidate-level memoization plus
// bound pruning must be pure speed — never behaviour.
//   * Over seeded spot traces that also flip the budget, CPU offload and
//     pruning, the incremental sweep's chosen JobConfig at every point is
//     bit-identical (operator==, doubles included) to a from-scratch cold
//     sweep's, and every unpruned list equals the cold list: Best() and
//     unpruned sweeps do not depend on the table's history.
//   * A cold pruned sweep simulates exactly the candidates a best-first walk
//     over the analytic bounds reaches before its first loser.
//   * The analytic lower bound never exceeds the simulated time (the
//     pruning-soundness invariant), and a pruned candidate never gets a
//     schedule.
//   * Stale-hit safety: recalibration and a change to either simulation
//     input the sweep copies from its constraints (gpus_per_node,
//     shared_sync_bytes) clear the candidate memo and force re-simulation —
//     a stale hit would be a silent wrong morph. M_total changes every Nm,
//     so it re-simulates through the key.
//   * Enumeration-only constraints (budget, CPU offload, micro-batch
//     tolerance/candidates, pruning) keep the candidate table: a warm
//     instance reuses candidates and still returns exactly what a cold
//     instance returns. A budget change forgets only the feasibility bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <tuple>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/model/op_graph.h"
#include "src/morph/calibration.h"
#include "src/morph/config_search.h"

namespace varuna {
namespace {

struct Fixture {
  TransformerSpec spec;
  OpGraph graph;
  ModelSections sections;
  Cluster cluster;
  Calibration calibration;

  explicit Fixture(uint64_t calibration_seed = 99)
      : spec(Gpt2_2_5B()),
        graph(BuildTransformerOpGraph(spec)),
        sections(IdentifyCutPoints(graph, spec.num_layers).value()),
        cluster(CommodityFabric()) {
    cluster.AddVms(Nc6V3(), 16);
    Rng rng(calibration_seed);
    calibration = Calibrate(sections, cluster, CalibrationOptions(), &rng).value();
  }
};

SearchConstraints DefaultConstraints() {
  SearchConstraints constraints;
  constraints.total_batch = 2400;
  constraints.budget.gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  return constraints;
}

// Number of memory-feasible candidates a fresh unpruned sweep at G simulates
// (== its candidate-memo misses on a cold instance).
uint64_t ColdCandidateCount(const Fixture& fx, int gpus, const SearchConstraints& constraints) {
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  EXPECT_TRUE(search.Sweep(gpus, constraints).ok());
  return search.stats().candidates_simulated;
}

// --- Spot-trace property: incremental == from-scratch, at every G. ----------

TEST(ConfigSearchIncrementalTest, SpotTraceWinnersBitIdenticalToColdSweeps) {
  Fixture fx;
  // Two budgets: the second makes shallower pipelines feasible, so a budget
  // flip re-decides feasibility over candidates the table already holds.
  MemoryBudget budgets[2];
  budgets[0].gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  budgets[1].gpu_memory_bytes = 2.0 * Nc6V3().gpu.memory_bytes;

  // Cold oracle per (G, offload, budget): the unpruned list and its winner
  // from a fresh instance. Computed once per key and shared across traces (a
  // trace revisiting a key must match the same oracle anyway).
  struct Cold {
    std::vector<JobConfig> sweep;
    JobConfig best;
  };
  std::map<std::tuple<int, bool, int>, Cold> oracle;
  const auto cold_result = [&](int gpus, SearchConstraints constraints,
                               int budget) -> const Cold& {
    const std::tuple<int, bool, int> key{gpus, constraints.cpu_offload_optimizer, budget};
    const auto it = oracle.find(key);
    if (it != oracle.end()) {
      return it->second;
    }
    constraints.prune = false;
    ConfigSearch cold(&fx.spec, &fx.sections, &fx.calibration);
    Cold result{cold.Sweep(gpus, constraints).value(), cold.Best(gpus, constraints).value()};
    return oracle.emplace(key, std::move(result)).first->second;
  };

  Rng rng(0x5707ULL);
  constexpr int kTraces = 50;
  constexpr int kPointsPerTrace = 5;
  for (int trace = 0; trace < kTraces; ++trace) {
    // One incremental searcher per trace: its candidate table accumulates
    // across the trace's morph events, exactly like a live session's.
    ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
    for (int point = 0; point < kPointsPerTrace; ++point) {
      const int gpus = static_cast<int>(rng.UniformInt(12, 40));
      const int budget = static_cast<int>(rng.UniformInt(0, 1));
      SearchConstraints constraints = DefaultConstraints();
      constraints.budget = budgets[budget];
      constraints.cpu_offload_optimizer = rng.UniformInt(0, 1) == 1;
      constraints.prune = rng.UniformInt(0, 1) == 1;
      const Cold& expected = cold_result(gpus, constraints, budget);
      std::ostringstream where;
      where << "trace=" << trace << " G=" << gpus << " budget=" << budget
            << " offload=" << constraints.cpu_offload_optimizer
            << " prune=" << constraints.prune;
      if (!constraints.prune) {
        // An unpruned list is history-free: whatever the table holds, it is
        // the cold instance's list.
        const auto sweep = search.Sweep(gpus, constraints);
        ASSERT_TRUE(sweep.ok()) << where.str();
        EXPECT_EQ(sweep.value(), expected.sweep) << where.str();
      }
      const auto best = search.Best(gpus, constraints);
      ASSERT_TRUE(best.ok()) << where.str();
      EXPECT_TRUE(best.value() == expected.best)
          << where.str() << " winner diverged from cold sweep";
    }
    // The traces genuinely exercise the incremental path, not 50 cold runs.
    if (trace == 0) {
      EXPECT_GT(search.stats().candidate_memo_hits, 0u);
    }
  }
}

// The pruned sweep's work, reproduced from outside: a cold instance simulates
// exactly the candidates a best-first walk reaches before its first loser,
// where each simulated candidate raises the incumbent before the next bound is
// checked. The walk orders the unpruned list by bound-optimistic throughput
// (ties by enumeration order) and reads each candidate's simulated throughput
// from that list.
TEST(ConfigSearchIncrementalTest, ColdPrunedSweepSimulatesUpToTheFirstLoser) {
  Fixture fx;
  const SearchConstraints pruned = DefaultConstraints();
  SearchConstraints unpruned = pruned;
  unpruned.prune = false;
  FastSimulator simulator(&fx.calibration);
  for (const int gpus : {16, 36, 48, 64, 100}) {
    ConfigSearch exhaustive(&fx.spec, &fx.sections, &fx.calibration);
    const auto all = exhaustive.Sweep(gpus, unpruned);
    ASSERT_TRUE(all.ok()) << "G=" << gpus;
    const std::vector<JobConfig>& configs = all.value();
    std::vector<double> bound_throughput;
    for (const JobConfig& config : configs) {
      const Partition partition = exhaustive.CopyPartition(config.pipeline_depth);
      FastSimConfig sim_config;
      sim_config.sections = &fx.sections;
      sim_config.partition = &partition;
      sim_config.data_parallel = config.data_parallel;
      sim_config.microbatch_size = config.microbatch_size;
      sim_config.gpus_per_node = pruned.gpus_per_node;
      sim_config.shared_sync_bytes = pruned.shared_sync_bytes;
      const double bound = simulator.LowerBoundMinibatch(sim_config, config.num_microbatches);
      bound_throughput.push_back(bound > 0.0 ? config.ActualBatch() / bound
                                             : std::numeric_limits<double>::infinity());
    }
    std::vector<size_t> order(configs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return bound_throughput[a] > bound_throughput[b];
    });
    std::vector<bool> reached(configs.size(), false);
    double incumbent = 0.0;
    for (const size_t index : order) {
      if (bound_throughput[index] < incumbent) {
        break;
      }
      reached[index] = true;
      incumbent = std::max(incumbent, configs[index].est_examples_per_s);
    }
    std::vector<JobConfig> expected;
    for (size_t index = 0; index < configs.size(); ++index) {
      if (reached[index]) {
        expected.push_back(configs[index]);
      }
    }

    ConfigSearch cold(&fx.spec, &fx.sections, &fx.calibration);
    const auto sweep = cold.Sweep(gpus, pruned);
    ASSERT_TRUE(sweep.ok()) << "G=" << gpus;
    EXPECT_EQ(sweep.value(), expected) << "G=" << gpus;
    EXPECT_EQ(cold.stats().candidates_simulated, expected.size()) << "G=" << gpus;
    EXPECT_EQ(cold.stats().candidates_pruned, configs.size() - expected.size()) << "G=" << gpus;
  }
}

TEST(ConfigSearchIncrementalTest, PrunedWinnerEqualsUnprunedWinner) {
  // Five fixed cluster sizes under the default constraints, then a seeded
  // random walk over G, budget and CPU offload, as a spot trace would drive
  // it: each searcher keeps its candidate table across the walk, so the
  // best-first order starts from whatever incumbent the table holds.
  Fixture fx;
  MemoryBudget budgets[2];
  budgets[0].gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  budgets[1].gpu_memory_bytes = 2.0 * Nc6V3().gpu.memory_bytes;
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  ConfigSearch unpruned_search(&fx.spec, &fx.sections, &fx.calibration);
  Rng rng(0xb0b0ULL);
  const int fixed_gpus[] = {12, 16, 36, 64, 100};
  constexpr int kFixed = static_cast<int>(std::size(fixed_gpus));
  for (int point = 0; point < kFixed + 40; ++point) {
    SearchConstraints pruned = DefaultConstraints();
    int gpus = 0;
    if (point < kFixed) {
      gpus = fixed_gpus[point];
    } else {
      pruned.budget = budgets[static_cast<size_t>(rng.UniformInt(0, 1))];
      pruned.cpu_offload_optimizer = rng.UniformInt(0, 1) == 1;
      gpus = static_cast<int>(rng.UniformInt(8, 100));
    }
    SearchConstraints unpruned = pruned;
    unpruned.prune = false;
    std::ostringstream where;
    where << "point=" << point << " G=" << gpus
          << " budget=" << pruned.budget.gpu_memory_bytes
          << " offload=" << pruned.cpu_offload_optimizer;
    const auto expected = unpruned_search.Best(gpus, unpruned);
    const auto best = search.Best(gpus, pruned);
    ASSERT_EQ(expected.ok(), best.ok()) << where.str();
    if (expected.ok()) {
      EXPECT_TRUE(best.value() == expected.value()) << where.str();
    }
  }
  // And pruning actually pruned something somewhere, or the test is vacuous.
  EXPECT_GT(search.stats().candidates_pruned, 0u);
  // The pruned list is a subset containing the winner; the unpruned list is
  // exhaustive.
  EXPECT_LT(search.stats().candidates_simulated, unpruned_search.stats().candidates_simulated);
}

// Pruning happens before simulation, so a losing candidate never asks the
// process-wide schedule memo for a shape: a cold pruned sweep generates at most
// one schedule per simulated candidate. Its total batch is one no other test
// in this binary uses, so its (P, Nm) shapes are new to the memo.
TEST(ConfigSearchIncrementalTest, PrunedCandidatesGetNoSchedule) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.total_batch = 3333;
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  const ScheduleCacheStats schedules_before = ScheduleCache::Process().stats();
  ASSERT_TRUE(search.Best(48, constraints).ok());
  const uint64_t generated = ScheduleCache::Process().stats().misses - schedules_before.misses;
  const ConfigSearchStats stats = search.stats();
  EXPECT_GT(stats.candidates_pruned, 0u);
  EXPECT_GT(generated, 0u);
  EXPECT_LE(generated, stats.candidates_simulated);
  EXPECT_EQ(stats.candidates_simulated, stats.candidate_memo_misses - stats.candidates_pruned);
}

TEST(ConfigSearchIncrementalTest, LowerBoundNeverExceedsSimulatedTime) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.prune = false;  // Exhaustive list.
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  FastSimulator simulator(&fx.calibration);
  for (const int gpus : {16, 36, 100}) {
    const auto sweep = search.Sweep(gpus, constraints);
    ASSERT_TRUE(sweep.ok());
    for (const JobConfig& config : sweep.value()) {
      const Partition partition =
          PartitionModel(fx.sections, config.pipeline_depth).value();
      FastSimConfig sim_config;
      sim_config.sections = &fx.sections;
      sim_config.partition = &partition;
      sim_config.data_parallel = config.data_parallel;
      sim_config.microbatch_size = config.microbatch_size;
      sim_config.gpus_per_node = constraints.gpus_per_node;
      sim_config.shared_sync_bytes = constraints.shared_sync_bytes;
      const double bound =
          simulator.LowerBoundMinibatch(sim_config, config.num_microbatches);
      EXPECT_LE(bound, config.est_minibatch_s)
          << "G=" << gpus << " P=" << config.pipeline_depth << " m=" << config.microbatch_size;
      EXPECT_GT(bound, 0.0);
    }
  }
}

// --- Stale-hit safety: every memo-relevant input change re-simulates. -------

// Runs `mutate` between two identical unpruned sweeps and asserts the second
// sweep served nothing from the candidate memo.
template <typename Mutate>
void ExpectFullResimulation(Mutate&& mutate) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.prune = false;  // Exact counter arithmetic, no pruning noise.
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  const ConfigSearchStats before = search.stats();
  ASSERT_GT(before.candidates_simulated, 0u);

  mutate(&fx, &constraints);

  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  const ConfigSearchStats after = search.stats();
  // No stale hits: every probed candidate missed and was re-simulated.
  EXPECT_EQ(after.candidate_memo_hits, before.candidate_memo_hits);
  EXPECT_GT(after.candidates_simulated, before.candidates_simulated);
  EXPECT_EQ(after.candidates_simulated - before.candidates_simulated,
            after.candidate_memo_misses - before.candidate_memo_misses);
}

TEST(ConfigSearchIncrementalTest, RecalibrationForcesResimulation) {
  ExpectFullResimulation([](Fixture* fx, SearchConstraints*) {
    // A recalibration replaces the object the search holds by address.
    const uint64_t fingerprint = fx->calibration.Fingerprint();
    Rng rng(100);
    fx->calibration =
        Calibrate(fx->sections, fx->cluster, CalibrationOptions(), &rng).value();
    ASSERT_NE(fx->calibration.Fingerprint(), fingerprint);
  });
}

TEST(ConfigSearchIncrementalTest, GpusPerNodeChangeForcesResimulation) {
  ExpectFullResimulation([](Fixture*, SearchConstraints* constraints) {
    constraints->gpus_per_node = 4;
  });
}

TEST(ConfigSearchIncrementalTest, SharedSyncBytesChangeForcesResimulation) {
  ExpectFullResimulation([](Fixture*, SearchConstraints* constraints) {
    constraints->shared_sync_bytes = 64.0 * 1024 * 1024;
  });
}

TEST(ConfigSearchIncrementalTest, TotalBatchChangeForcesResimulation) {
  ExpectFullResimulation([](Fixture*, SearchConstraints* constraints) {
    constraints->total_batch = 1200;
  });
}

// --- Enumeration-only constraints: re-sweep, reuse, never behaviour. -------

// Runs one sweep under `before`, applies `mutate`, and checks the change
// against a cold instance. Each of these changes alters which candidates a
// sweep enumerates (or prunes), never what a simulation returns: the
// candidate table survives (at least one candidate is reused), and the warm
// instance returns exactly the sweep a cold instance returns. Every `after`
// is unpruned, so both lists are exhaustive and comparable element by
// element.
template <typename Mutate>
void ExpectExactReuse(const SearchConstraints& before, Mutate&& mutate) {
  SearchConstraints after = before;
  mutate(&after);
  ASSERT_FALSE(after.prune);
  Fixture fx;
  ConfigSearch warm(&fx.spec, &fx.sections, &fx.calibration);
  ASSERT_TRUE(warm.Sweep(36, before).ok());
  const ConfigSearchStats first = warm.stats();
  const auto warm_sweep = warm.Sweep(36, after);
  ConfigSearch cold(&fx.spec, &fx.sections, &fx.calibration);
  const auto cold_sweep = cold.Sweep(36, after);
  ASSERT_TRUE(warm_sweep.ok());
  ASSERT_TRUE(cold_sweep.ok());
  EXPECT_GT(warm.stats().candidate_memo_hits, first.candidate_memo_hits);
  EXPECT_EQ(warm_sweep.value(), cold_sweep.value());
}

SearchConstraints UnprunedConstraints() {
  SearchConstraints constraints = DefaultConstraints();
  constraints.prune = false;
  return constraints;
}

TEST(ConfigSearchIncrementalTest, BudgetChangeForcesResimulation) {
  ExpectExactReuse(UnprunedConstraints(), [](SearchConstraints* constraints) {
    constraints->budget.gpu_memory_bytes *= 2.0;
  });
}

TEST(ConfigSearchIncrementalTest, ToleranceChangeForcesResimulation) {
  ExpectExactReuse(UnprunedConstraints(), [](SearchConstraints* constraints) {
    constraints->microbatch_tolerance = 0.25;
  });
}

TEST(ConfigSearchIncrementalTest, MicrobatchCandidatesChangeForcesResimulation) {
  ExpectExactReuse(UnprunedConstraints(), [](SearchConstraints* constraints) {
    constraints->microbatch_candidates = 1;
  });
}

TEST(ConfigSearchIncrementalTest, CpuOffloadChangeReusesCandidatesExactly) {
  ExpectExactReuse(UnprunedConstraints(), [](SearchConstraints* constraints) {
    constraints->cpu_offload_optimizer = true;
  });
}

TEST(ConfigSearchIncrementalTest, PruneOffReusesCandidatesExactly) {
  ExpectExactReuse(DefaultConstraints(), [](SearchConstraints* constraints) {
    constraints->prune = false;
  });
}

// The table's own contract: a budget change re-decides feasibility but keeps
// bounds and simulations; a context change drops everything.
TEST(CandidateMemoTest, BudgetChangeForgetsOnlyFeasibility) {
  const CandidateContext context{42, 1, 0.0};
  MemoryBudget budget;
  budget.gpu_memory_bytes = 16e9;
  CandidateMemo memo;
  memo.Sync(context, budget);
  const CandidateKey key{4, 2, 8, 150};
  {
    CandidateEntry& entry = memo.FindOrInsert(key);
    EXPECT_FALSE(entry.simulated);
    EXPECT_FALSE(entry.bounded);
    entry.fits[0] = Feasibility::kFits;
    entry.fits[1] = Feasibility::kDoesNotFit;
    entry.lower_bound_s = 1.5;
    entry.bounded = true;
    entry.sim.minibatch_s = 2.5;
    entry.simulated = true;
  }
  memo.Sync(context, budget);  // Unchanged: nothing forgotten.
  EXPECT_EQ(memo.FindOrInsert(key).fits[1], Feasibility::kDoesNotFit);

  budget.gpu_memory_bytes *= 2.0;
  memo.Sync(context, budget);
  ASSERT_EQ(memo.size(), 1u);
  const CandidateEntry& kept = memo.FindOrInsert(key);
  EXPECT_EQ(kept.fits[0], Feasibility::kUnknown);
  EXPECT_EQ(kept.fits[1], Feasibility::kUnknown);
  EXPECT_TRUE(kept.bounded);
  EXPECT_EQ(kept.lower_bound_s, 1.5);
  EXPECT_TRUE(kept.simulated);
  EXPECT_EQ(kept.sim.minibatch_s, 2.5);

  memo.Sync(CandidateContext{43, 1, 0.0}, budget);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(memo.FindOrInsert(key).simulated);
}

// Positive control: with nothing mutated, a new G reuses candidates instead
// of re-simulating them all — the counters can tell reuse from invalidation.
TEST(ConfigSearchIncrementalTest, UnchangedContextReusesCandidatesAtNewG) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.prune = false;
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  const ConfigSearchStats before = search.stats();
  ASSERT_TRUE(search.Sweep(35, constraints).ok());
  const ConfigSearchStats after = search.stats();
  EXPECT_GT(after.candidate_memo_hits, before.candidate_memo_hits);
  EXPECT_LT(after.candidates_simulated - before.candidates_simulated,
            ColdCandidateCount(fx, 35, constraints));
}

}  // namespace
}  // namespace varuna

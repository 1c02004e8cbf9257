// The incremental-morph-decision contract: candidate-level memoization plus
// bound pruning must be pure speed — never behaviour.
//   * Over seeded spot traces, the incremental sweep's chosen JobConfig at
//     every G is bit-identical (operator==, doubles included) to a
//     from-scratch cold sweep at that G, serial and pooled.
//   * Pruned sweeps are bit-identical across serial and pooled execution
//     (pruning rounds are a fixed size, never the worker count).
//   * The analytic lower bound never exceeds the simulated time (the
//     pruning-soundness invariant).
//   * Stale-hit safety: recalibration and a change to either simulation
//     input the sweep copies from its constraints (gpus_per_node,
//     shared_sync_bytes) clear the candidate memo and force re-simulation —
//     a stale hit would be a silent wrong morph. M_total changes every Nm,
//     so it re-simulates through the key.
//   * Enumeration-only constraints (budget, CPU offload, micro-batch
//     tolerance/candidates, pruning) re-run the sweep but keep the candidate
//     memo: a warm instance reuses candidates and still returns exactly what
//     a cold instance returns.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
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
  const SearchConstraints constraints = DefaultConstraints();  // prune on.
  SearchConstraints unpruned = constraints;
  unpruned.prune = false;

  // Cold oracle: Best at each distinct G from a fresh, unpruned instance.
  // Computed once per G and shared across traces (a trace revisiting G must
  // match the same oracle anyway).
  std::map<int, JobConfig> oracle;
  const auto oracle_best = [&](int gpus) -> const JobConfig& {
    const auto it = oracle.find(gpus);
    if (it != oracle.end()) {
      return it->second;
    }
    ConfigSearch cold(&fx.spec, &fx.sections, &fx.calibration);
    return oracle.emplace(gpus, cold.Best(gpus, unpruned).value()).first->second;
  };

  ThreadPool pool(4);
  Rng rng(0x5707ULL);
  constexpr int kTraces = 50;
  constexpr int kPointsPerTrace = 5;
  for (int trace = 0; trace < kTraces; ++trace) {
    // One incremental searcher per trace: its candidate memo accumulates
    // across the trace's morph events, exactly like a live session's.
    ConfigSearch serial(&fx.spec, &fx.sections, &fx.calibration);
    ConfigSearch pooled(&fx.spec, &fx.sections, &fx.calibration, &pool);
    for (int point = 0; point < kPointsPerTrace; ++point) {
      const int gpus = static_cast<int>(rng.UniformInt(12, 40));
      const JobConfig& expected = oracle_best(gpus);
      const auto serial_best = serial.Best(gpus, constraints);
      const auto pooled_best = pooled.Best(gpus, constraints);
      ASSERT_TRUE(serial_best.ok()) << "trace=" << trace << " G=" << gpus;
      ASSERT_TRUE(pooled_best.ok()) << "trace=" << trace << " G=" << gpus;
      EXPECT_TRUE(serial_best.value() == expected)
          << "trace=" << trace << " G=" << gpus << " serial winner diverged from cold sweep";
      EXPECT_TRUE(pooled_best.value() == expected)
          << "trace=" << trace << " G=" << gpus << " pooled winner diverged from cold sweep";
    }
    // The traces genuinely exercise the incremental path, not 50 cold runs.
    if (trace == 0) {
      EXPECT_GT(serial.stats().candidate_memo_hits, 0u);
    }
  }
}

TEST(ConfigSearchIncrementalTest, PrunedSweepBitIdenticalSerialVsPooled) {
  const SearchConstraints constraints = DefaultConstraints();  // prune on.
  Fixture fx(7);
  for (const int gpus : {16, 36, 100}) {
    ConfigSearch serial(&fx.spec, &fx.sections, &fx.calibration);
    const auto serial_sweep = serial.Sweep(gpus, constraints);
    ASSERT_TRUE(serial_sweep.ok());
    for (const int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      ConfigSearch pooled(&fx.spec, &fx.sections, &fx.calibration, &pool);
      const auto pooled_sweep = pooled.Sweep(gpus, constraints);
      ASSERT_TRUE(pooled_sweep.ok());
      EXPECT_EQ(pooled_sweep.value(), serial_sweep.value())
          << "G=" << gpus << " threads=" << threads;
    }
  }
}

TEST(ConfigSearchIncrementalTest, PrunedWinnerEqualsUnprunedWinner) {
  Fixture fx;
  SearchConstraints pruned = DefaultConstraints();
  SearchConstraints unpruned = DefaultConstraints();
  unpruned.prune = false;
  ConfigSearch pruned_search(&fx.spec, &fx.sections, &fx.calibration);
  ConfigSearch unpruned_search(&fx.spec, &fx.sections, &fx.calibration);
  for (const int gpus : {12, 16, 36, 64, 100}) {
    const auto a = pruned_search.Best(gpus, pruned);
    const auto b = unpruned_search.Best(gpus, unpruned);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a.value() == b.value()) << "G=" << gpus;
  }
  // And pruning actually pruned something somewhere, or the test is vacuous.
  EXPECT_GT(pruned_search.stats().candidates_pruned, 0u);
  // The pruned list is a subset containing the winner; the unpruned list is
  // exhaustive.
  EXPECT_LT(pruned_search.stats().candidates_simulated,
            unpruned_search.stats().candidates_simulated);
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
// sweep enumerates (or prunes), never what a simulation returns: the sweep
// itself is re-run (no stale whole-sweep hit), the candidate memo survives
// (at least one candidate is reused), and the warm instance returns exactly
// the sweep a cold instance returns. Every `after` is unpruned, so both lists
// are exhaustive and comparable element by element.
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
  EXPECT_EQ(warm.stats().sweep_cache_hits, first.sweep_cache_hits);
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

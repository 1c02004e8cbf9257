// The memoization semantics of the sweep: a repeated sweep is served from the
// candidate table, recalibration invalidates it, and schedule shapes are
// generated once per process, also under concurrent first requests. Two
// searches sweeping at once on pool workers match the same sweeps run one
// after the other.
#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/op_graph.h"
#include "src/morph/calibration.h"
#include "src/morph/config_search.h"
#include "src/pipeline/schedule_cache.h"

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

TEST(ConfigSearchParallelTest, RepeatedSweepHitsMemo) {
  Fixture fx;
  const SearchConstraints constraints = DefaultConstraints();  // prune on.
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  const auto first = search.Sweep(36, constraints);
  ASSERT_TRUE(first.ok());
  const ConfigSearchStats cold = search.stats();
  EXPECT_GT(cold.candidates_simulated, 0u);
  EXPECT_GT(cold.candidates_pruned, 0u);

  const auto second = search.Sweep(36, constraints);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  const ConfigSearchStats warm = search.stats();
  EXPECT_EQ(warm.sweeps, 2u);
  EXPECT_EQ(warm.sweep_cache_misses, 1u);
  EXPECT_EQ(warm.sweep_cache_hits, 1u);
  // The revisit re-simulated nothing: every candidate the first sweep
  // simulated is a table hit, and every one it pruned is pruned again (the
  // incumbent now starts at the first sweep's final best).
  EXPECT_EQ(warm.candidates_simulated, cold.candidates_simulated);
  EXPECT_EQ(warm.candidate_memo_hits - cold.candidate_memo_hits, cold.candidates_simulated);
  EXPECT_EQ(warm.candidate_memo_misses - cold.candidate_memo_misses,
            warm.candidates_pruned - cold.candidates_pruned);
}

// A sweep misses exactly when it has to simulate: a new G brings new
// candidates, while a constraint change that only narrows the enumeration is
// served from the table and still returns what a cold instance returns.
// Unpruned, so the first sweep leaves every candidate of the narrowed set in
// the table: a pruned sweep simulates only up to its first loser.
TEST(ConfigSearchParallelTest, SweepMissesOnlyWhenItSimulates) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.prune = false;
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  ASSERT_TRUE(search.Sweep(40, constraints).ok());  // Different G.
  EXPECT_EQ(search.stats().sweep_cache_misses, 2u);
  const uint64_t simulated = search.stats().candidates_simulated;

  constraints.microbatch_candidates = 1;  // A subset of the m already swept.
  const auto narrowed = search.Best(36, constraints);
  ASSERT_TRUE(narrowed.ok());
  EXPECT_EQ(search.stats().candidates_simulated, simulated);
  EXPECT_EQ(search.stats().sweep_cache_misses, 2u);
  EXPECT_EQ(search.stats().sweep_cache_hits, 1u);
  ConfigSearch cold(&fx.spec, &fx.sections, &fx.calibration);
  EXPECT_TRUE(narrowed.value() == cold.Best(36, constraints).value());
}

TEST(ConfigSearchParallelTest, RecalibrationInvalidatesMemo) {
  Fixture fx;
  const SearchConstraints constraints = DefaultConstraints();
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  const auto before = search.Sweep(36, constraints);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(search.stats().sweep_cache_misses, 1u);

  // A recalibration assigned over the calibration the search holds changes
  // the fingerprint, so the next sweep must re-simulate, not serve stale
  // configs.
  const uint64_t fingerprint_before = fx.calibration.Fingerprint();
  Rng rng(100);
  fx.calibration = Calibrate(fx.sections, fx.cluster, CalibrationOptions(), &rng).value();
  EXPECT_NE(fx.calibration.Fingerprint(), fingerprint_before);

  const uint64_t simulated_before = search.stats().candidates_simulated;
  const auto after = search.Sweep(36, constraints);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(search.stats().sweep_cache_misses, 2u);
  EXPECT_EQ(search.stats().sweep_cache_hits, 0u);
  EXPECT_GT(search.stats().candidates_simulated, simulated_before);
}

TEST(ConfigSearchParallelTest, InfeasibleSweepsAreMemoizedToo) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.budget.gpu_memory_bytes = 1.0;  // Nothing fits.
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  const auto first = search.Best(16, constraints);
  const auto second = search.Best(16, constraints);
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error(), first.error());
  // Infeasibility is decided before simulation, and the table keeps it.
  const ConfigSearchStats stats = search.stats();
  EXPECT_EQ(stats.candidates_simulated, 0u);
  EXPECT_EQ(stats.sweep_cache_hits, 2u);
  EXPECT_EQ(stats.candidate_memo_hits + stats.candidate_memo_misses, 0u);
}

// Returns a microbatch count no earlier request in this process used: above
// 2400, the total batch every sweep and session in this binary uses (Nm <=
// total batch), and never handed out twice, so the schedule memo tests below
// see new shapes also under --gtest_repeat or in any test order.
int FreshNumMicrobatches() {
  static int next = 2401;
  return next++;
}

TEST(ScheduleCacheTest, GeneratesEachShapeOnce) {
  ScheduleCache& memo = ScheduleCache::Process();
  const int nm = FreshNumMicrobatches();
  const ScheduleCacheStats before = memo.stats();
  const Schedule& a = GenerateSchedule(ScheduleKind::kDeepSpeed, 4, nm);
  const Schedule& b = memo.Get(ScheduleKind::kDeepSpeed, 4, nm);
  EXPECT_EQ(&a, &b);  // Stable reference, no regeneration.
  const Schedule& c = GenerateSchedule(ScheduleKind::kDeepSpeed, 4, FreshNumMicrobatches());
  EXPECT_NE(&a, &c);
  const ScheduleCacheStats after = memo.stats();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.hits - before.hits, 1u);
}

// Concurrent first requests, the race the process-wide memo exists to close:
// every worker asking for a shape gets the one entry, and each shape is
// generated exactly once however the requests interleave.
TEST(ScheduleCacheTest, ConcurrentRequestsShareOneEntryPerShape) {
  struct Shape {
    ScheduleKind kind;
    int depth;
    int num_microbatches;
  };
  const int fresh_nm[2] = {FreshNumMicrobatches(), FreshNumMicrobatches()};
  std::vector<Shape> shapes;
  for (const ScheduleKind kind : {ScheduleKind::kVaruna, ScheduleKind::kGpipe,
                                  ScheduleKind::kOneFOneB, ScheduleKind::kDeepSpeed}) {
    for (const int depth : {2, 3}) {
      for (const int num_microbatches : fresh_nm) {
        shapes.push_back(Shape{kind, depth, num_microbatches});
      }
    }
  }
  constexpr int kRequestsPerShape = 4;
  const int num_items = static_cast<int>(shapes.size()) * kRequestsPerShape;
  std::vector<const Schedule*> got(static_cast<size_t>(num_items), nullptr);
  const ScheduleCacheStats before = ScheduleCache::Process().stats();
  ThreadPool pool(4);
  // Item i asks for shape i % |shapes|: neighbouring items, which workers
  // claim at the same time, overlap on every shape.
  pool.ParallelFor(num_items, [&](int item, int) {
    const Shape& shape = shapes[static_cast<size_t>(item) % shapes.size()];
    got[static_cast<size_t>(item)] =
        &GenerateSchedule(shape.kind, shape.depth, shape.num_microbatches);
  });
  const ScheduleCacheStats after = ScheduleCache::Process().stats();
  EXPECT_EQ(after.misses - before.misses, shapes.size());
  EXPECT_EQ(after.hits - before.hits + after.misses - before.misses,
            static_cast<uint64_t>(num_items));
  for (size_t i = 0; i < got.size(); ++i) {
    const Shape& shape = shapes[i % shapes.size()];
    EXPECT_EQ(got[i], &GenerateSchedule(shape.kind, shape.depth, shape.num_microbatches))
        << "item " << i;
    EXPECT_EQ(got[i]->kind, shape.kind);
    EXPECT_EQ(got[i]->depth, shape.depth);
    EXPECT_EQ(got[i]->num_microbatches, shape.num_microbatches);
  }
}

// Two independent searches (own calibrations, own memos) sweeping at once on
// two pool workers share only the process schedule memo; their results must
// equal the same sweeps run one after the other.
TEST(ConfigSearchParallelTest, ConcurrentSearchesMatchSerialSweeps) {
  const SearchConstraints constraints = DefaultConstraints();
  Fixture fixtures[2] = {Fixture(3), Fixture(11)};
  const int gpus[2] = {36, 100};
  std::vector<JobConfig> serial[2];
  for (int i = 0; i < 2; ++i) {
    ConfigSearch search(&fixtures[i].spec, &fixtures[i].sections, &fixtures[i].calibration);
    const auto sweep = search.Sweep(gpus[i], constraints);
    ASSERT_TRUE(sweep.ok());
    ASSERT_FALSE(sweep.value().empty());
    serial[i] = sweep.value();
  }
  ConfigSearch concurrent[2] = {
      ConfigSearch(&fixtures[0].spec, &fixtures[0].sections, &fixtures[0].calibration),
      ConfigSearch(&fixtures[1].spec, &fixtures[1].sections, &fixtures[1].calibration)};
  std::vector<JobConfig> swept[2];
  bool ok[2] = {false, false};
  ThreadPool pool(2);
  pool.ParallelFor(2, [&](int item, int) {
    const auto sweep = concurrent[item].Sweep(gpus[item], constraints);
    ok[item] = sweep.ok();
    if (sweep.ok()) {
      swept[item] = sweep.value();
    }
  });
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(ok[i]) << "search " << i;
    EXPECT_EQ(swept[i], serial[i]) << "search " << i;
  }
}

// Unpruned, so the table holds every candidate of the first G: a pruned
// sweep simulates only up to its first loser, which need not be a tuple the
// second G shares.
TEST(ConfigSearchParallelTest, SweepReusesCandidatesAcrossClusterSizes) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.prune = false;
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  const ConfigSearchStats cold = search.stats();
  EXPECT_GT(cold.candidates_simulated, 0u);
  EXPECT_EQ(cold.candidate_memo_hits, 0u);
  // A second cluster size re-derives many of the same (P, D, m, Nm) tuples
  // (D = G/P is unchanged for most P); those must come from the candidate
  // memo without re-simulation — and a memoized candidate never even needs
  // its schedule, so the schedule cache is not touched for it either.
  const ScheduleCacheStats schedules_cold = search.schedule_cache()->stats();
  ASSERT_TRUE(search.Sweep(35, constraints).ok());
  const ConfigSearchStats warm = search.stats();
  EXPECT_GT(warm.candidate_memo_hits, 0u);
  const uint64_t resimulated = warm.candidates_simulated - cold.candidates_simulated;
  EXPECT_LT(resimulated, cold.candidates_simulated);
  // Only freshly simulated candidates may generate schedules.
  const ScheduleCacheStats schedules_warm = search.schedule_cache()->stats();
  EXPECT_LE(schedules_warm.misses - schedules_cold.misses, resimulated);
}

}  // namespace
}  // namespace varuna

// §7.2 simulator/search runtime — the perf trajectory of the morph decision
// path. The paper quotes 660/376/391 ms per simulated configuration for
// P=36/24/18 on a 128-GPU, batch-8192 GPT-2 8.3B job, and parallelizes the
// config search over candidate configs (§4.4): morphing agility is bounded by
// how fast this loop runs at every preemption/arrival event. Here one
// simulation costs about a millisecond, and the sweep runs on one thread.
//
// Measures, with warmup + repeated runs (median/min):
//   * one FastSimulator::EstimateMinibatch call at P=36/24/18 (the paper's
//     table), scratch buffers hot;
//   * one schedule miss at P=36, Nm=2048 (a morph to an unseen shape):
//     ValidateSchedule on the cached schedule, and GenerateSchedule
//     (generate, validate, compile) on a fresh Nm every repeat;
//   * the full joint P x m sweep at G=128, cold caches;
//   * an exact revisit of G=128 served from the candidate table (the
//     repeated-cluster-size morph case: hash probes, no simulation);
//   * a spot trace: sweeps at previously-unseen GPU counts, where speed
//     comes from candidate-level reuse + bound pruning. Three variants per
//     G — from-scratch cold, incremental memo-only (prune off), incremental
//     memo + pruning — with every variant's winner asserted bit-identical to
//     the cold oracle before anything is timed. Headline: geomean per-G
//     speedup vs cold, and the trace's total time.
// "Cold" means ConfigSearch::ClearCaches() before each timed sweep: the
// candidate table and the partitions are dropped, but the process-wide
// schedule memo behind GenerateSchedule is not. After the one
// warmup every timed "cold" repeat reuses its schedules from that memo by
// reference instead of generating and validating them; so does every
// from-scratch spot-trace sweep, because the winner check sweeps each G first.
// Pass --no-prune to run the pruned variant as an unpruned oracle instead.
// Writes its rows only when given --json <path>, as BENCH_config_search.json is
// recorded.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/pipeline/validate.h"

namespace varuna {
namespace {

struct Prepared {
  TransformerSpec spec;
  OpGraph graph;
  ModelSections sections;
  std::unique_ptr<Cluster> cluster;
  Calibration calibration;
};

Prepared Prepare(const TransformerSpec& spec, int gpus) {
  Prepared prepared{spec, BuildTransformerOpGraph(spec), {}, nullptr, {}};
  prepared.sections = IdentifyCutPoints(prepared.graph, spec.num_layers).value();
  prepared.cluster = std::make_unique<Cluster>(CommodityFabric());
  prepared.cluster->AddVms(Nc6V3(), gpus + 2);
  Rng rng(99);
  prepared.calibration =
      Calibrate(prepared.sections, *prepared.cluster, CalibrationOptions(), &rng).value();
  return prepared;
}

double Geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (const double value : values) {
    log_sum += std::log(value);
  }
  return values.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(values.size()));
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) {
    sum += value;
  }
  return sum;
}

double Median(std::vector<double> values) {
  VARUNA_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

int Run(int argc, char** argv) {
  const std::string json_path = JsonPathFromArgs(argc, argv);
  const BenchMode mode = ModeFromArgs(argc, argv);
  const bool prune = !FlagInArgs(argc, argv, "--no-prune");
  const int threads = ThreadPool::DefaultThreadCount();
  std::printf("=== config-search runtime (§7.2): GPT-2 8.3B, 128 GPUs, batch 8192 ===\n");
  std::printf("hardware threads: %d%s\n\n", threads,
              prune ? "" : "  [--no-prune: pruning disabled, oracle mode]");

  Prepared prepared = Prepare(Gpt2_8_3B(), 40);  // Calibration sample, reused for every case.
  SearchConstraints constraints;
  constraints.total_batch = 8192;
  constraints.budget.gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  constraints.prune = false;  // The exhaustive baseline the sweep section times.
  const int gpus = 128;

  BenchJsonWriter json("bench_config_search");
  AddBuildMetadata(&json);
  json.AddScalar("hardware_threads", threads);
  json.AddScalar("gpus", gpus);

  // --- Single-configuration simulator runtime (the paper's §7.2 table). -----
  std::printf("single-configuration FastSimulator runtime (paper: 660/376/391 ms):\n");
  Table sim_table({"P", "D", "Nm", "median (ms)", "min (ms)"});
  FastSimulator simulator(&prepared.calibration);
  for (const int depth : {36, 24, 18}) {
    const Partition partition = PartitionModel(prepared.sections, depth).value();
    const int replicas = gpus / depth;
    const int num_microbatches = static_cast<int>(std::ceil(8192.0 / (4.0 * replicas)));
    const Schedule& schedule =
        GenerateSchedule(ScheduleKind::kVaruna, depth, num_microbatches);
    FastSimConfig config;
    config.sections = &prepared.sections;
    config.partition = &partition;
    config.data_parallel = replicas;
    config.microbatch_size = 4;
    config.gpus_per_node = 1;
    double sink = 0.0;
    const BenchStats stats = TimeIt(mode.Warmup(3), mode.Repeats(15), [&] {
      sink += simulator.EstimateMinibatch(schedule, config).minibatch_s;
    });
    VARUNA_CHECK_GT(sink, 0.0);
    sim_table.AddRow({std::to_string(depth), std::to_string(replicas),
                      std::to_string(num_microbatches), Table::Num(stats.median_ms, 3),
                      Table::Num(stats.min_ms, 3)});
    json.AddResult("simulate_P" + std::to_string(depth), stats);
  }
  std::printf("%s\n", sim_table.Render().c_str());

  // --- One schedule miss: validation alone, then the whole miss path. ------
  const Schedule& cached = GenerateSchedule(ScheduleKind::kVaruna, 36, 2048);
  const BenchStats validate = TimeIt(mode.Warmup(3), mode.Repeats(15), [&] {
    VARUNA_CHECK(ValidateSchedule(cached).ok());
  });
  int fresh_microbatches = 2048;  // Each call asks for an Nm not yet in the memo.
  const BenchStats miss = TimeIt(mode.Warmup(3), mode.Repeats(15), [&] {
    (void)GenerateSchedule(ScheduleKind::kVaruna, 36, ++fresh_microbatches);
  });
  Table miss_table({"Varuna P=36, Nm=2048", "median (ms)", "min (ms)"});
  miss_table.AddRow({"ValidateSchedule (cached schedule)", Table::Num(validate.median_ms, 3),
                     Table::Num(validate.min_ms, 3)});
  miss_table.AddRow({"GenerateSchedule (fresh Nm, miss)", Table::Num(miss.median_ms, 3),
                     Table::Num(miss.min_ms, 3)});
  std::printf("%s\n", miss_table.Render().c_str());
  json.AddResult("validate_P36", validate);
  json.AddResult("schedule_miss_P36", miss);

  // --- Full sweep, cold caches each repeat. ---------------------------------
  ConfigSearch search(&prepared.spec, &prepared.sections, &prepared.calibration);
  const auto configs = search.Sweep(gpus, constraints).value();
  std::printf("joint P x m sweep: %zu feasible configs (depths x %d micro-batch candidates)\n\n",
              configs.size(), constraints.microbatch_candidates);

  const BenchStats cold_sweep = TimeIt(mode.Warmup(1), mode.Repeats(7), [&] {
    search.ClearCaches();
    (void)search.Sweep(gpus, constraints);
  });
  // Revisit: the table path a spot trace takes when a cluster size recurs.
  const BenchStats revisit = TimeIt(mode.Warmup(1), mode.Repeats(15), [&] {
    (void)search.Sweep(gpus, constraints);
  });

  Table sweep_table({"variant", "median (ms)", "min (ms)", "mean (ms)"});
  sweep_table.AddRow({"cold sweep", Table::Num(cold_sweep.median_ms, 2),
                      Table::Num(cold_sweep.min_ms, 2), Table::Num(cold_sweep.mean_ms, 2)});
  sweep_table.AddRow({"exact revisit (candidate table)", Table::Num(revisit.median_ms, 4),
                      Table::Num(revisit.min_ms, 4), Table::Num(revisit.mean_ms, 4)});
  std::printf("%s\n", sweep_table.Render().c_str());

  // --- Spot trace: previously-unseen G, incremental vs from-scratch. --------
  // An elastic session never re-decides the same cluster size twice in a row;
  // it morphs to a G it has not seen. This section measures what
  // candidate-level reuse and bound pruning recover there. Warm history: a
  // few sweeps at other sizes, as any live session has after its first
  // morphs.
  const int warm_points = mode.smoke ? 1 : 4;
  const int trace_points = mode.smoke ? 3 : 40;
  std::vector<int> sizes;  // 64..127, all distinct from the G=128 warmup.
  for (int g = 64; g < 128; ++g) {
    sizes.push_back(g);
  }
  Rng shuffle_rng(0xC0FFEE);  // Seeded: the trace is identical across runs.
  for (size_t i = sizes.size() - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[shuffle_rng.UniformInt(0, static_cast<int64_t>(i))]);
  }
  VARUNA_CHECK_LE(static_cast<size_t>(warm_points + trace_points), sizes.size());
  const std::vector<int> history(sizes.begin(), sizes.begin() + warm_points);
  const std::vector<int> trace(sizes.begin() + warm_points,
                               sizes.begin() + warm_points + trace_points);

  SearchConstraints unpruned = constraints;  // prune already false.
  SearchConstraints pruned = constraints;
  pruned.prune = prune;

  // Verification first: at every trace G, both incremental variants must pick
  // the exact winner (operator==, doubles included) a from-scratch unpruned
  // sweep picks. Separate instances from the timed ones — verifying on the
  // timed instances would warm their memos and void the measurement.
  {
    ConfigSearch oracle(&prepared.spec, &prepared.sections, &prepared.calibration);
    ConfigSearch memo_check(&prepared.spec, &prepared.sections, &prepared.calibration);
    ConfigSearch pruned_check(&prepared.spec, &prepared.sections, &prepared.calibration);
    (void)memo_check.Sweep(gpus, unpruned);
    (void)pruned_check.Sweep(gpus, pruned);
    for (const int g : history) {
      (void)memo_check.Sweep(g, unpruned);
      (void)pruned_check.Sweep(g, pruned);
    }
    for (const int g : trace) {
      oracle.ClearCaches();
      const JobConfig expected = oracle.Best(g, unpruned).value();
      VARUNA_CHECK(memo_check.Best(g, unpruned).value() == expected)
          << "incremental memo-only winner diverged from cold sweep at G=" << g;
      VARUNA_CHECK(pruned_check.Best(g, pruned).value() == expected)
          << "incremental pruned winner diverged from cold sweep at G=" << g;
    }
    std::printf("spot trace: %d unseen G values, incremental winners == cold winners "
                "verified (pruned and unpruned)\n\n",
                trace_points);
  }

  ConfigSearch cold_search(&prepared.spec, &prepared.sections, &prepared.calibration);
  ConfigSearch memo_search(&prepared.spec, &prepared.sections, &prepared.calibration);
  ConfigSearch pruned_search(&prepared.spec, &prepared.sections, &prepared.calibration);
  (void)memo_search.Sweep(gpus, unpruned);
  (void)pruned_search.Sweep(gpus, pruned);
  for (const int g : history) {
    (void)memo_search.Sweep(g, unpruned);
    (void)pruned_search.Sweep(g, pruned);
  }
  const ConfigSearchStats trace_before = pruned_search.stats();

  std::vector<double> cold_ms, memo_ms, pruned_ms, memo_speedups, pruned_speedups;
  for (const int g : trace) {
    cold_search.ClearCaches();
    cold_ms.push_back(TimeOnceMs([&] { (void)cold_search.Sweep(g, unpruned); }));
    memo_ms.push_back(TimeOnceMs([&] { (void)memo_search.Sweep(g, unpruned); }));
    pruned_ms.push_back(TimeOnceMs([&] { (void)pruned_search.Sweep(g, pruned); }));
    memo_speedups.push_back(cold_ms.back() / memo_ms.back());
    pruned_speedups.push_back(cold_ms.back() / pruned_ms.back());
  }
  const ConfigSearchStats trace_after = pruned_search.stats();

  const double geomean_memo = Geomean(memo_speedups);
  const double geomean_pruned = Geomean(pruned_speedups);
  // The geomean rewards many zero-simulation sweeps; the total is the whole
  // trace's cost, however the simulations spread across its points.
  Table trace_table(
      {"variant", "median per-G (ms)", "total (ms)", "geomean speedup vs cold"});
  trace_table.AddRow({"from-scratch cold", Table::Num(Median(cold_ms), 2),
                      Table::Num(Sum(cold_ms), 1), "1.00x"});
  trace_table.AddRow({"incremental, memo only", Table::Num(Median(memo_ms), 3),
                      Table::Num(Sum(memo_ms), 2), Table::Num(geomean_memo, 1) + "x"});
  trace_table.AddRow({prune ? "incremental, memo + pruning" : "incremental, no-prune oracle",
                      Table::Num(Median(pruned_ms), 3), Table::Num(Sum(pruned_ms), 2),
                      Table::Num(geomean_pruned, 1) + "x"});
  std::printf("%s\n", trace_table.Render().c_str());
  std::printf("trace candidate counters (memo + pruning variant): "
              "%llu hits, %llu misses, %llu pruned\n\n",
              static_cast<unsigned long long>(trace_after.candidate_memo_hits -
                                              trace_before.candidate_memo_hits),
              static_cast<unsigned long long>(trace_after.candidate_memo_misses -
                                              trace_before.candidate_memo_misses),
              static_cast<unsigned long long>(trace_after.candidates_pruned -
                                              trace_before.candidates_pruned));

  json.AddResult("sweep_cold_serial", cold_sweep);
  json.AddResult("sweep_revisit_table", revisit);
  json.AddScalar("feasible_configs", static_cast<double>(configs.size()));
  json.AddScalar("prune_enabled", prune ? 1.0 : 0.0);
  json.AddScalar("trace_points", trace_points);
  json.AddScalar("trace_cold_median_ms", Median(cold_ms));
  json.AddScalar("trace_memo_median_ms", Median(memo_ms));
  json.AddScalar("trace_pruned_median_ms", Median(pruned_ms));
  json.AddScalar("trace_cold_total_ms", Sum(cold_ms));
  json.AddScalar("trace_memo_total_ms", Sum(memo_ms));
  json.AddScalar("trace_pruned_total_ms", Sum(pruned_ms));
  json.AddScalar("geomean_speedup_memo", geomean_memo);
  json.AddScalar("geomean_speedup_pruned", geomean_pruned);
  json.AddScalar("trace_candidate_memo_hits",
                 static_cast<double>(trace_after.candidate_memo_hits -
                                     trace_before.candidate_memo_hits));
  json.AddScalar("trace_candidate_memo_misses",
                 static_cast<double>(trace_after.candidate_memo_misses -
                                     trace_before.candidate_memo_misses));
  json.AddScalar("trace_candidates_pruned",
                 static_cast<double>(trace_after.candidates_pruned -
                                     trace_before.candidates_pruned));
  if (json_path.empty()) {
    return 0;
  }
  if (!json.WriteTo(json_path)) {
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace varuna

int main(int argc, char** argv) { return varuna::Run(argc, argv); }

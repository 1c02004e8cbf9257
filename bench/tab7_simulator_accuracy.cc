// Table 7: accuracy of the fast parametrized simulator's mini-batch time
// estimates against "actual" runs (here: the noisy discrete-event testbed,
// averaged over several mini-batches), for the paper's twelve 8.3B / 2.5B
// configurations. Also benchmarks the simulator's own runtime (§7.2: 660 ms
// for P=36, 376 ms for P=24, 391 ms for P=18 on a 128-GPU, batch-8192 job)
// using google-benchmark.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"

namespace varuna {
namespace {

struct Case {
  TransformerSpec spec;
  int depth;
  int replicas;
};

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

void Run() {
  std::printf("=== Table 7: simulator estimates vs actual mini-batch times ===\n\n");
  const std::vector<Case> cases = {
      {Gpt2_8_3B(), 36, 3}, {Gpt2_8_3B(), 36, 2}, {Gpt2_8_3B(), 36, 1}, {Gpt2_8_3B(), 24, 4},
      {Gpt2_8_3B(), 24, 2}, {Gpt2_8_3B(), 18, 6}, {Gpt2_8_3B(), 18, 4}, {Gpt2_8_3B(), 18, 3},
      {Gpt2_2_5B(), 27, 2}, {Gpt2_2_5B(), 18, 3}, {Gpt2_2_5B(), 9, 7},  {Gpt2_2_5B(), 6, 10},
  };

  Table table({"Model", "Config (PxD)", "Estimated (s)", "Actual (s)", "error"});
  double worst_error = 0.0;
  for (const Case& test_case : cases) {
    const int m = 4;
    const int num_microbatches =
        static_cast<int>(std::ceil(8192.0 / (m * test_case.replicas)));
    Prepared prepared = Prepare(test_case.spec, test_case.depth * test_case.replicas);
    const Partition partition = PartitionModel(prepared.sections, test_case.depth).value();
    const Schedule& schedule =
        GenerateSchedule(ScheduleKind::kVaruna, test_case.depth, num_microbatches);

    FastSimulator simulator(&prepared.calibration);
    FastSimConfig config;
    config.sections = &prepared.sections;
    config.partition = &partition;
    config.data_parallel = test_case.replicas;
    config.microbatch_size = m;
    config.gpus_per_node = 1;
    const double estimated = simulator.EstimateMinibatch(schedule, config).minibatch_s;

    const Placement placement =
        PlaceJob(*prepared.cluster, test_case.depth, test_case.replicas).value();
    const auto timings = ComputeStageTimings(prepared.sections, partition, Nc6V3().gpu, m);
    Rng rng(7);
    PipelineExecutor executor(prepared.cluster.get(), &rng);
    double actual = 0.0;
    const int runs = 4;
    for (int run = 0; run < runs; ++run) {
      actual += executor.Run(schedule, placement, timings, m).total_time_s;
    }
    actual /= runs;

    const double error = 100.0 * (estimated - actual) / actual;
    worst_error = std::max(worst_error, std::abs(error));
    table.AddRow({test_case.spec.name, ConfigLabel(test_case.depth, test_case.replicas),
                  Table::Num(estimated, 1), Table::Num(actual, 1),
                  (error >= 0 ? "+" : "") + Table::Num(error, 1) + "%"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("worst absolute error: %.1f%% (paper: estimates within ~5%% of measured)\n\n",
              worst_error);
  std::printf("=== §7.2 simulator runtime (google-benchmark) ===\n"
              "(paper quotes 660/376/391 ms for P=36/24/18, 128-GPU batch-8192 job)\n\n");
}

// --- Simulator runtime benchmarks (§7.2). -----------------------------------

void BenchmarkSimulator(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  static Prepared prepared = Prepare(Gpt2_8_3B(), 40);  // Calibration reused.
  const Partition partition = PartitionModel(prepared.sections, depth).value();
  const int replicas = 128 / depth;
  const int num_microbatches = static_cast<int>(std::ceil(8192.0 / (4.0 * replicas)));
  const Schedule& schedule = GenerateSchedule(ScheduleKind::kVaruna, depth, num_microbatches);
  FastSimulator simulator(&prepared.calibration);
  FastSimConfig config;
  config.sections = &prepared.sections;
  config.partition = &partition;
  config.data_parallel = replicas;
  config.microbatch_size = 4;
  config.gpus_per_node = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.EstimateMinibatch(schedule, config).minibatch_s);
  }
}
BENCHMARK(BenchmarkSimulator)->Arg(36)->Arg(24)->Arg(18)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace varuna

int main(int argc, char** argv) {
  varuna::Run();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

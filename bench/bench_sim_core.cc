// Simulation-core microbenchmark: events/sec of the slot-pool event engine on
// a chaos-campaign-shaped storm, the cost of one testbed mini-batch, plus the
// real chaos-campaign sweep with the SessionStats perf counters.
//
//   bench_sim_core [--smoke] [--json PATH]
//
// Columns:
//   * storm       — the slot-pool + 4-ary-heap engine on the synthetic storm
//     (bench/sim_core_workload.h; fixed seed, deterministic fire count).
//   * executor    — µs per PipelineExecutor::Run on the GPT-2 2.5B,
//     D=4 x P=4 x Nm=20 job on NC6 VMs, with compute noise and network
//     sampling on, then off. The gap is the cost of the Rng draws; what is
//     left when they are off is the engine and the executor's dispatch.
//   * calibration — ns per Percentile(0.5) of a calibration-shaped
//     200-sample transfer batch (row percentile_200), ns per sample of one
//     such 200-sample SampleTransferTimes batch (row transfer_batch_200),
//     and µs per Calibrate of GPT-2 Medium on 20 NC6 VMs (row
//     calibrate_gpt2_medium). The median
//     row walks a pool of pre-drawn batches and never revisits one, so
//     neither the draws nor a branch predictor that has learned the batches
//     enter the figure (a loop over one repeated batch flatters a branchy
//     select such as nth_element by about 2x).
//   * chaos sweep — end-to-end campaigns; ms/campaign and testbed
//     events/sec come from the SessionStats counters.
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sim_core_workload.h"
#include "src/chaos/chaos.h"
#include "src/common/table.h"
#include "src/manager/elastic_trainer.h"

namespace varuna {
namespace {

constexpr uint64_t kStormSeed = 2026;

uint64_t StormFires(uint64_t target) {
  SimCoreStorm storm(kStormSeed, target);
  return storm.Run();
}

// The executor row's job: GPT-2 2.5B, D=4 x P=4 x Nm=20, m=4, on NC6 VMs.
struct ExecutorJob {
  static constexpr int kReplicas = 4;
  static constexpr int kDepth = 4;
  static constexpr int kMicrobatches = 20;
  static constexpr int kMicrobatchSize = 4;

  Cluster cluster{CommodityFabric()};
  Placement placement;
  std::vector<StageTiming> timings;
  Schedule schedule;

  ExecutorJob() {
    const TransformerSpec spec = Gpt2_2_5B();
    cluster.AddVms(Nc6V3(), kReplicas * kDepth);
    placement = PlaceJob(cluster, kDepth, kReplicas).value();
    const ModelSections sections =
        IdentifyCutPoints(BuildTransformerOpGraph(spec), spec.num_layers).value();
    timings = ComputeStageTimings(sections, PartitionModel(sections, kDepth).value(),
                                  Nc6V3().gpu, kMicrobatchSize);
    schedule = GenerateSchedule(ScheduleKind::kVaruna, kDepth, kMicrobatches);
  }
};

// Times batches of `runs` executor runs on one warm executor.
BenchStats TimeExecutor(const BenchMode& mode, const ExecutorJob& job, bool noise, int runs) {
  ExecutorOptions options;
  if (!noise) {
    options.compute_noise_sigma = 0.0;
    options.sample_network = false;
  }
  Rng rng(7);
  PipelineExecutor executor(&job.cluster, &rng);
  return TimeIt(mode.Warmup(1), mode.Repeats(5), [&] {
    for (int i = 0; i < runs; ++i) {
      (void)executor.Run(job.schedule, job.placement, job.timings,
                         ExecutorJob::kMicrobatchSize, options);
    }
  });
}

// The calibration rows' job: GPT-2 Medium on 20 NC6 VMs, as every chaos
// campaign calibrates it.
struct CalibrationJob {
  static constexpr int kVms = 20;
  // Medians per timed repeat; the pool holds one batch for every median of
  // a full warmup + 15-repeat run.
  static constexpr size_t kMediansPerRepeat = 256;
  static constexpr size_t kBatches = 16 * kMediansPerRepeat;

  Cluster cluster{CommodityFabric()};
  ModelSections sections;
  // kBatches transfer batches of CalibrationOptions().network_samples draws
  // each, drawn like Calibrate's cross-node samples: section boundary
  // activations at every profiled micro-batch size.
  std::vector<double> pool;

  CalibrationJob() {
    const TransformerSpec spec = Gpt2Medium();
    cluster.AddVms(Nc6V3(), kVms);
    sections = IdentifyCutPoints(BuildTransformerOpGraph(spec), spec.num_layers).value();
    const CalibrationOptions options;
    const size_t batch = static_cast<size_t>(options.network_samples);
    pool.resize(kBatches * batch);
    Rng rng(11);
    for (size_t b = 0; b < kBatches; ++b) {
      const size_t section = b % static_cast<size_t>(sections.num_sections());
      const int m = options.microbatch_sizes[b % options.microbatch_sizes.size()];
      cluster.network().SampleTransferTimes(0, 1, sections.boundary_activation_bytes[section] * m,
                                            1, &rng, std::span(pool).subspan(b * batch, batch));
    }
  }

  std::span<const double> Batch(size_t b) const {
    const size_t batch = pool.size() / kBatches;
    return std::span<const double>(pool).subspan((b % kBatches) * batch, batch);
  }
};

void Run(int argc, char** argv) {
  const BenchMode mode = ModeFromArgs(argc, argv);
  const uint64_t storm_target = mode.smoke ? 50'000 : 1'000'000;
  const int campaigns = mode.smoke ? 4 : 40;

  std::printf("=== Simulation core: event engine storm ===\n\n");

  const uint64_t storm_fires = StormFires(storm_target);
  const BenchStats storm_wall = TimeIt(mode.Warmup(1), mode.Repeats(5), [&] {
    (void)StormFires(storm_target);
  });
  const double storm_eps = static_cast<double>(storm_fires) / (storm_wall.median_ms / 1e3);

  std::printf("events fired: %llu   median %.2f ms   %.2fM events/sec\n\n",
              static_cast<unsigned long long>(storm_fires), storm_wall.median_ms,
              storm_eps / 1e6);

  std::printf("=== Executor: GPT-2 2.5B, D=4 x P=4 x Nm=20, NC6 ===\n\n");
  const ExecutorJob executor_job;
  const int executor_runs = mode.smoke ? 20 : 2000;
  const BenchStats noisy_wall = TimeExecutor(mode, executor_job, /*noise=*/true, executor_runs);
  const BenchStats quiet_wall = TimeExecutor(mode, executor_job, /*noise=*/false, executor_runs);
  const double noisy_us = noisy_wall.median_ms * 1e3 / executor_runs;
  const double quiet_us = quiet_wall.median_ms * 1e3 / executor_runs;
  std::printf("us per Run: noise + network sampling on %.1f   off %.1f\n\n", noisy_us,
              quiet_us);

  std::printf("=== Calibration: GPT-2 Medium, 20 NC6 ===\n\n");
  const CalibrationJob calibration_job;
  double median_sink = 0.0;
  size_t next_batch = 0;
  const BenchStats percentile_wall = TimeIt(mode.Warmup(1), mode.Repeats(15), [&] {
    for (size_t i = 0; i < CalibrationJob::kMediansPerRepeat; ++i) {
      median_sink += Percentile(calibration_job.Batch(next_batch++), 0.5);
    }
  });
  const double percentile_ns =
      percentile_wall.median_ms * 1e6 / CalibrationJob::kMediansPerRepeat;
  const CalibrationOptions calibration_options;
  const size_t transfer_batch = static_cast<size_t>(calibration_options.network_samples);
  const int transfer_batches = mode.smoke ? 20 : 2000;
  std::vector<double> transfer_times(transfer_batch);
  Rng transfer_rng(17);
  double transfer_sink = 0.0;
  const BenchStats transfer_wall = TimeIt(mode.Warmup(1), mode.Repeats(15), [&] {
    for (int i = 0; i < transfer_batches; ++i) {
      const size_t section =
          static_cast<size_t>(i % calibration_job.sections.num_sections());
      calibration_job.cluster.network().SampleTransferTimes(
          0, 1, calibration_job.sections.boundary_activation_bytes[section], 1, &transfer_rng,
          transfer_times);
      transfer_sink += transfer_times[0];
    }
  });
  const double transfer_ns =
      transfer_wall.median_ms * 1e6 / (static_cast<double>(transfer_batches) * transfer_batch);
  const int calibrate_runs = mode.smoke ? 2 : 50;
  Rng calibrate_rng(13);
  const BenchStats calibrate_wall = TimeIt(mode.Warmup(1), mode.Repeats(5), [&] {
    for (int i = 0; i < calibrate_runs; ++i) {
      (void)Calibrate(calibration_job.sections, calibration_job.cluster, calibration_options,
                      &calibrate_rng)
          .value();
    }
  });
  const double calibrate_us = calibrate_wall.median_ms * 1e3 / calibrate_runs;
  std::printf(
      "ns per 200-sample median %.0f   ns per transfer sample (200-sample batch) %.1f   "
      "us per Calibrate %.1f   (sums %.6g %.6g)\n\n",
      percentile_ns, transfer_ns, calibrate_us, median_sink, transfer_sink);

  std::printf("=== Chaos campaign sweep (%d campaigns) ===\n\n", campaigns);
  int64_t executor_events = 0;
  int64_t minibatches = 0;
  const BenchStats sweep_wall = TimeIt(0, 1, [&] {
    executor_events = minibatches = 0;
    for (int seed = 1; seed <= campaigns; ++seed) {
      const ChaosReport report = RunChaosCampaign(RandomChaosCampaign(static_cast<uint64_t>(seed)));
      executor_events += static_cast<int64_t>(report.stats.executor_events);
      minibatches += report.stats.minibatches_done;
    }
  });
  const double n = campaigns;
  const double sweep_eps = static_cast<double>(executor_events) / (sweep_wall.mean_ms / 1e3);
  Table sweep_table({"metric", "total", "per campaign"});
  sweep_table.AddRow({"wall ms", Table::Num(sweep_wall.mean_ms, 1),
                      Table::Num(sweep_wall.mean_ms / n, 2)});
  sweep_table.AddRow({"testbed events", std::to_string(executor_events),
                      Table::Num(executor_events / n, 0)});
  sweep_table.AddRow({"mini-batches committed", std::to_string(minibatches),
                      Table::Num(minibatches / n, 1)});
  std::printf("%s\n", sweep_table.Render().c_str());
  std::printf("testbed events/sec (sweep wall): %.2fM\n", sweep_eps / 1e6);

  const std::string json_path = JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    BenchJsonWriter json("bench_sim_core");
    AddBuildMetadata(&json);
    json.AddScalar("storm_events", static_cast<double>(storm_fires));
    json.AddScalar("events_per_sec", storm_eps);
    json.AddScalar("executor_runs_per_batch", executor_runs);
    json.AddScalar("executor_run_us_noise_on", noisy_us);
    json.AddScalar("executor_run_us_noise_off", quiet_us);
    json.AddScalar("percentile_200_ns", percentile_ns);
    json.AddScalar("transfer_batch_200_ns_per_sample", transfer_ns);
    json.AddScalar("calibrate_gpt2_medium_us", calibrate_us);
    json.AddScalar("campaigns", n);
    json.AddScalar("campaign_ms", sweep_wall.mean_ms / n);
    json.AddScalar("executor_events", static_cast<double>(executor_events));
    json.AddScalar("executor_events_per_sec", sweep_eps);
    json.AddResult("storm_current", storm_wall);
    json.AddResult("executor_noise_on", noisy_wall);
    json.AddResult("executor_noise_off", quiet_wall);
    json.AddResult("percentile_200", percentile_wall);
    json.AddResult("transfer_batch_200", transfer_wall);
    json.AddResult("calibrate_gpt2_medium", calibrate_wall);
    json.AddResult("chaos_sweep", sweep_wall);
    json.WriteTo(json_path);
  }
}

}  // namespace
}  // namespace varuna

int main(int argc, char** argv) {
  varuna::Run(argc, argv);
  return 0;
}

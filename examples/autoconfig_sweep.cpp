// Auto-configuration walkthrough (§4.3-§4.4): one-time scale-invariant
// calibration, then the O(G) sweep the manager runs on every morphing event.
// Shows the chosen micro-batch size, every feasible P x D with its
// fast-simulator estimate, and how the best configuration shifts as the
// number of available GPUs changes.
//
// Usage: autoconfig_sweep [gpus...]     (default: 24 36 64 100)
#include <cstdio>
#include <cstdlib>

#include "src/varuna/varuna.h"

int main(int argc, char** argv) {
  using namespace varuna;

  const TransformerSpec spec = Gpt2_2_5B();
  const OpGraph graph = BuildTransformerOpGraph(spec);
  const ModelSections sections = IdentifyCutPoints(graph, spec.num_layers).value();

  std::vector<int> gpu_counts = {24, 36, 64, 100};
  if (argc > 1) {
    gpu_counts.clear();
    for (int i = 1; i < argc; ++i) {
      gpu_counts.push_back(std::atoi(argv[i]));
    }
  }

  // A cluster sample big enough for the largest sweep.
  int max_gpus = 8;
  for (const int gpus : gpu_counts) {
    max_gpus = std::max(max_gpus, gpus);
  }
  Cluster cluster(CommodityFabric());
  cluster.AddVms(Nc6V3(), max_gpus + 4);

  // One-time calibration (§4.3): a few mocked micro-batches per cut-point.
  Rng rng(2024);
  const Calibration calibration =
      Calibrate(sections, cluster, CalibrationOptions(), &rng).value();
  std::printf("calibration: %zu sections profiled; allreduce fit bw=%.2f Gbps, "
              "step latency %.2f ms; transfer tail p=%.3f mean=%.0f ms\n\n",
              calibration.sections().size(), calibration.allreduce().bandwidth_bps * 8 / 1e9,
              calibration.allreduce().step_latency_s * 1e3, calibration.send_stall().probability,
              calibration.send_stall().mean_s * 1e3);

  ConfigSearch search(&spec, &sections, &calibration);
  SearchConstraints constraints;
  constraints.total_batch = 8192;
  constraints.budget.gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  // This example prints the full feasibility table; bound pruning would thin
  // it to the competitive configs (the winner is identical either way).
  constraints.prune = false;
  std::printf("micro-batch size picked once: m = %d (lowest m where F(m)/m stops improving)\n\n",
              search.PickMicrobatchSize(constraints.microbatch_tolerance));

  for (const int gpus : gpu_counts) {
    const auto sweep = search.Sweep(gpus, constraints);
    if (!sweep.ok()) {
      std::printf("G=%d: %s\n\n", gpus, sweep.error().c_str());
      continue;
    }
    Table table({"P x D", "Nm", "est. mini-batch (s)", "est. ex/s", "est. ex/s/GPU"});
    for (const JobConfig& config : sweep.value()) {
      table.AddRow({std::to_string(config.pipeline_depth) + "x" +
                        std::to_string(config.data_parallel),
                    std::to_string(config.num_microbatches),
                    Table::Num(config.est_minibatch_s, 1),
                    Table::Num(config.est_examples_per_s, 1),
                    Table::Num(config.est_examples_per_s / config.gpus_used, 2)});
    }
    const JobConfig best = search.Best(gpus, constraints).value();
    std::printf("G = %d available GPUs (%zu feasible configs, exploration O(G)):\n%s"
                "  -> chosen: %dx%d using %d GPUs, est. %.1f ex/s\n\n",
                gpus, sweep.value().size(), table.Render().c_str(), best.pipeline_depth,
                best.data_parallel, best.gpus_used, best.est_examples_per_s);
  }
  return 0;
}

// Correctness-preserving training semantics, demonstrated on real numerics:
//
//  1. The pipeline-partitioned, micro-batched, recompute-based trainer
//     produces *bit-identical* gradients to single-device execution.
//  2. Cross-partition shared state (the NVLAMB-style global gradient norm)
//     must be synchronized across stages — skipping the sync silently
//     changes the update (the bug Varuna's tracer catches, §5.2).
//  3. Training through the Varuna pipeline converges to the task's
//     information-theoretic optimum; asynchronous (PipeDream-style) staleness
//     diverges at the same hyper-parameters.
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "src/varuna/varuna.h"

int main() {
  using namespace varuna;

  constexpr int kVocab = 16;
  constexpr int kWidth = 24;
  constexpr int kBlocks = 6;
  MarkovTask task(kVocab, 11);
  std::printf("task: synthetic Markov LM, vocab %d, optimal perplexity %.3f\n\n", kVocab,
              task.OptimalPerplexity());

  auto fresh_model = [&](uint64_t seed) {
    Rng rng(seed);
    return BuildBlockModel(kVocab, kWidth, kBlocks, &rng);
  };

  // --- 1. Gradient equivalence.
  {
    Rng data_rng(3);
    const Batch batch = task.Sample(32, &data_rng);
    ReferenceTrainer reference(fresh_model(42));
    SyncPipelineTrainer pipeline(fresh_model(42), {0, 3, 5, kBlocks + 2});
    reference.ForwardBackward(batch, 4);
    pipeline.ForwardBackward(batch, 4);
    float max_diff = 0.0f;
    const auto ref = reference.Gradients();
    const auto pipe = pipeline.Gradients();
    for (size_t i = 0; i < ref.size(); ++i) {
      max_diff = std::max(max_diff, MaxAbsDiff(*ref[i], *pipe[i]));
    }
    std::printf("1. pipeline (3 stages, 8 micro-batches, recompute) vs single device:\n"
                "   max gradient difference = %g  %s\n\n",
                max_diff, max_diff == 0.0f ? "(bit-identical)" : "(MISMATCH!)");
  }

  // --- 2. Global-norm sync across partitions.
  {
    Rng data_rng(5);
    const Batch batch = task.Sample(32, &data_rng);
    SyncPipelineTrainer synced(fresh_model(7), {0, 4, kBlocks + 2});
    SyncPipelineTrainer unsynced(fresh_model(7), {0, 4, kBlocks + 2});
    synced.ForwardBackward(batch, 4);
    unsynced.ForwardBackward(batch, 4);
    const double global = synced.ClipByGlobalNorm(0.5f, /*sync_across_stages=*/true);
    const double local = unsynced.ClipByGlobalNorm(0.5f, /*sync_across_stages=*/false);
    float divergence = 0.0f;
    const auto a = synced.Gradients();
    const auto b = unsynced.Gradients();
    for (size_t i = 0; i < a.size(); ++i) {
      divergence = std::max(divergence, MaxAbsDiff(*a[i], *b[i]));
    }
    std::printf("2. global-norm clipping: synced norm %.4f vs per-stage norms (max %.4f);\n"
                "   skipping the cross-partition allreduce perturbs gradients by up to %g\n\n",
                global, local, divergence);
  }

  // --- 3. Convergence through the pipeline; divergence under staleness.
  {
    SyncPipelineTrainer trainer(fresh_model(21), {0, 3, 5, kBlocks + 2});
    AdamOptimizer optimizer(trainer.Parameters(), trainer.Gradients(), 3e-3f);
    Rng data_rng(9);
    const uint64_t val_seed = 101;  // Same validation set at every report.
    std::printf("3a. training through the Varuna pipeline (batch 256, m=16):\n");
    for (int step = 0; step <= 400; ++step) {
      const Batch batch = task.Sample(256, &data_rng);
      optimizer.ZeroGradients();
      const double loss = trainer.ForwardBackward(batch, 16);
      trainer.ClipByGlobalNorm(1.0f, true);
      optimizer.Step();
      if (step % 80 == 0 || step == 400) {
        Rng eval(val_seed);
        const Batch val = task.Sample(2048, &eval);
        SoftmaxCrossEntropy eval_loss;
        const double ppl = std::exp(eval_loss.Loss(trainer.Forward(val.inputs), val.targets));
        std::printf("    step %4d: train loss %.4f, val ppl %.3f\n", step, loss, ppl);
      }
    }
    std::printf("    (optimal ppl %.3f)\n\n", task.OptimalPerplexity());

    // Same setup as the Figure 10 bench (vocab 12, width 16): hyper-parameters
    // at which synchronous SGD is stable but pipeline staleness is not.
    std::printf("3b. PipeDream-style staleness (SGD lr=0.1, momentum 0.9):\n");
    MarkovTask stale_task(12, 6);
    for (const int staleness : {0, 6}) {
      Rng stale_rng(77);
      StaleGradientTrainer stale(BuildBlockModel(12, 16, 6, &stale_rng), staleness, 0.1f, 0.9f);
      Rng stream(31);
      double last = 0.0;
      bool diverged = false;
      for (int step = 0; step < 300 && !diverged; ++step) {
        last = stale.Step(stale_task.Sample(32, &stream));
        diverged = std::isnan(last) || last > 1e3;
      }
      if (diverged) {
        std::printf("    staleness %d: DIVERGED\n", staleness);
      } else {
        std::printf("    staleness %d: final loss %.4f\n", staleness, last);
      }
    }
  }
  return 0;
}

// Figure 9 / §7.3: convergence with a 16x larger mini-batch. The paper trains
// GPT-2 2.5B with batch 8192 for 16x fewer iterations than the Megatron
// baseline (batch 512) and reaches the same validation perplexity. We
// reproduce the semantics at laptop scale: the same block model is trained
// through the *Varuna pipeline trainer* (partitioned, micro-batched,
// recompute) with a small batch for N steps and a 16x batch for N/16 steps;
// both must land at the same validation perplexity — which has a crisp
// ground truth (the Markov chain's entropy).
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"

namespace varuna {
namespace {

constexpr int kVocab = 16;
constexpr int kWidth = 24;
constexpr int kBlocks = 6;
constexpr int kDepth = 3;  // Pipeline stages.

struct CurvePoint {
  int64_t examples;
  double train_loss;
  double val_ppl;
};

std::vector<CurvePoint> Train(const MarkovTask& task, int batch, int steps, float lr,
                              uint64_t seed, int math_threads) {
  Rng model_rng(seed);
  auto model = BuildBlockModel(kVocab, kWidth, kBlocks, &model_rng);
  // Cut at block boundaries: embedding+2 blocks | 2 blocks | 2 blocks+head.
  // Stage wavefronts run pooled when --math-threads > 1; the curve is
  // bit-identical either way (pooled == serial contract).
  SyncPipelineTrainer trainer(std::move(model), {0, 3, 5, kBlocks + 2},
                              MathOptions{math_threads});
  AdamOptimizer optimizer(trainer.Parameters(), trainer.Gradients(), lr);
  Rng data_rng(1234);
  const uint64_t val_seed = 77;

  std::vector<CurvePoint> curve;
  const int microbatch = std::max(1, batch / 16);
  const int report_every = std::max(1, steps / 12);
  for (int step = 0; step < steps; ++step) {
    const Batch data = task.Sample(batch, &data_rng);
    optimizer.ZeroGradients();
    const double loss = trainer.ForwardBackward(data, microbatch);
    trainer.ClipByGlobalNorm(1.0f, /*sync_across_stages=*/true);
    optimizer.Step();
    if (step % report_every == 0 || step == steps - 1) {
      Rng eval_rng(val_seed);  // Same validation set at every report.
      const Batch val = task.Sample(4096, &eval_rng);
      SoftmaxCrossEntropy eval_loss;
      const double val_value = eval_loss.Loss(trainer.Forward(val.inputs), val.targets);
      curve.push_back(CurvePoint{static_cast<int64_t>(step + 1) * batch, loss,
                                 std::exp(val_value)});
    }
  }
  return curve;
}

void PrintCurve(const char* name, const std::vector<CurvePoint>& curve) {
  std::printf("%s\n", name);
  std::printf("  examples  | train loss | val ppl\n");
  for (const CurvePoint& point : curve) {
    std::printf("  %9lld | %10.4f | %7.3f\n", static_cast<long long>(point.examples),
                point.train_loss, point.val_ppl);
  }
}

void Run(int math_threads) {
  std::printf("=== Figure 9: convergence with a 16x larger mini-batch ===\n\n");
  MarkovTask task(kVocab, 99, 1.5);
  std::printf("task: order-1 Markov chain, vocab %d; optimal (entropy) perplexity = %.3f; "
              "math threads %d\n\n",
              kVocab, task.OptimalPerplexity(), math_threads);

  // Same number of training examples for both runs (the §7.3 protocol).
  const int small_batch = 128;
  const int small_steps = 1024;
  const int large_batch = 16 * small_batch;
  const int large_steps = small_steps / 16;

  const auto baseline = Train(task, small_batch, small_steps, 3e-3f, 42, math_threads);
  const auto varuna = Train(task, large_batch, large_steps, 3e-3f, 42, math_threads);

  PrintCurve("Baseline (batch 128, 1024 steps) — 'Megatron' protocol:", baseline);
  std::printf("\n");
  PrintCurve("Varuna (batch 2048, 64 steps, same examples, same hyper-parameters):", varuna);

  const double baseline_ppl = baseline.back().val_ppl;
  const double varuna_ppl = varuna.back().val_ppl;
  std::printf("\nfinal validation perplexity: baseline %.3f vs 16x-batch %.3f "
              "(optimal %.3f; relative gap %.1f%%)\n",
              baseline_ppl, varuna_ppl, task.OptimalPerplexity(),
              100.0 * std::abs(varuna_ppl - baseline_ppl) / baseline_ppl);
  std::printf("Paper: 2.5B GPT-2 at batch 8192 for 18.75K iterations matches the\n"
              "batch-512/300K-iteration baseline (val ppl 10.81, WikiText 12.78 vs 12.76).\n");
}

}  // namespace
}  // namespace varuna

int main(int argc, char** argv) {
  varuna::Run(varuna::IntFromArgs(argc, argv, "--math-threads", 1));
  return 0;
}

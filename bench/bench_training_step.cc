// Training-step substrate perf: the numeric hot path every convergence
// experiment (Fig. 9 / Fig. 10) spends its wall-clock in. Times one full
// mini-batch of micro-batched gradient accumulation on the Fig. 9 model shape
// (vocab 16, width 24, 6 MLP blocks, batch 128, micro-batch 8) through three
// configurations of the same blocked kernels:
//   * blocked       — the by-value ForwardBackward path;
//   * blocked+arena — the zero-allocation TrainStep (arena scratch,
//                     explicit-output layers, view splits);
//   * pooled xN     — blocked+arena with micro-batches fanned over the
//                     deterministic thread pool (N = hardware threads).
// An equivalence gate runs before any timing: every GEMM the step issues must
// be bit-identical to the naive reference loops, and the three variants must
// produce bit-identical loss and gradients. Writes its rows only when given
// --json <path> (BENCH_training_step.json is recorded through
// tools/bench_median.py); --smoke for 1x1 CI runs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace varuna {
namespace {

constexpr int kVocab = 16;
constexpr int kWidth = 24;
constexpr int kBlocks = 6;
constexpr int kBatch = 128;
constexpr int kMicrobatch = 8;

std::unique_ptr<Sequential> FreshModel() {
  Rng rng(42);
  return BuildBlockModel(kVocab, kWidth, kBlocks, &rng);
}

// Snapshot of (loss, all gradients) after one accumulation over `batch`.
struct StepResult {
  double loss = 0.0;
  std::vector<Tensor> grads;
};

StepResult RunOnce(ReferenceTrainer* trainer, const Batch& batch, bool fast_path) {
  trainer->model()->ZeroGradients();
  StepResult result;
  result.loss = fast_path ? trainer->TrainStep(batch, kMicrobatch)
                          : trainer->ForwardBackward(batch, kMicrobatch);
  for (Tensor* grad : trainer->Gradients()) {
    result.grads.push_back(*grad);
  }
  return result;
}

bool SameResult(const StepResult& a, const StepResult& b) {
  if (a.loss != b.loss || a.grads.size() != b.grads.size()) {
    return false;
  }
  for (size_t i = 0; i < a.grads.size(); ++i) {
    if (!Identical(a.grads[i], b.grads[i])) {
      return false;
    }
  }
  return true;
}

// Kernel half of the gate: blocked == naive, bit for bit, on every GEMM one
// step issues. Each Linear weight W [in, out] gives three per micro-batch: the
// forward x W, the weight gradient x^T g and the input gradient g W^T.
int CheckStepGemms(const std::vector<Tensor*>& params) {
  Rng rng(7);
  int checked = 0;
  for (const Tensor* w : params) {
    if (w->shape().size() != 2u) {
      continue;  // Bias and gain vectors enter no GEMM.
    }
    const Tensor x = Tensor::Randn({kMicrobatch, w->dim(0)}, &rng, 1.0f);
    const Tensor g = Tensor::Randn({kMicrobatch, w->dim(1)}, &rng, 1.0f);
    const auto check = [&](const Tensor& blocked, const Tensor& naive, const char* form) {
      VARUNA_CHECK(Identical(blocked, naive))
          << form << " diverged from naive at W [" << w->dim(0) << ", " << w->dim(1) << "]";
      ++checked;
    };
    check(MatMul(x, *w), MatMulNaive(x, *w), "MatMul");
    check(MatMulTransposeA(x, g), MatMulTransposeANaive(x, g), "MatMulTransposeA");
    check(MatMulTransposeB(g, *w), MatMulTransposeBNaive(g, *w), "MatMulTransposeB");
  }
  return checked;
}

int Run(int argc, char** argv) {
  const std::string json_path = JsonPathFromArgs(argc, argv);
  const BenchMode mode = ModeFromArgs(argc, argv);
  const int threads = ThreadPool::DefaultThreadCount();

  std::printf("=== training-step substrate: Fig. 9 shape "
              "(vocab %d, width %d, %d blocks, batch %d, microbatch %d) ===\n\n",
              kVocab, kWidth, kBlocks, kBatch, kMicrobatch);

  Rng data_rng(1234);
  MarkovTask task(kVocab, 99, 1.5);
  const Batch batch = task.Sample(kBatch, &data_rng);

  // One trainer per variant, all cloned from identical initial parameters
  // (FreshModel reseeds), so gradients must agree bit for bit.
  ReferenceTrainer blocked_trainer(FreshModel());
  ReferenceTrainer arena_trainer(FreshModel());
  ReferenceTrainer pooled_trainer(FreshModel(), MathOptions{threads});

  // --- Equivalence gate: refuse to time divergent code. ---------------------
  const int gemms = CheckStepGemms(blocked_trainer.Parameters());
  const StepResult blocked = RunOnce(&blocked_trainer, batch, /*fast_path=*/false);
  const StepResult arena = RunOnce(&arena_trainer, batch, /*fast_path=*/true);
  const StepResult pooled = RunOnce(&pooled_trainer, batch, /*fast_path=*/true);
  VARUNA_CHECK(SameResult(blocked, arena)) << "arena TrainStep diverged from by-value";
  VARUNA_CHECK(SameResult(blocked, pooled)) << "pooled TrainStep diverged from by-value";
  std::printf("equivalence gate: %d step GEMMs bit-identical to naive; by-value, arena and "
              "pooled variants bit-identical (loss %.6f, %zu gradient tensors)\n\n",
              gemms, blocked.loss, blocked.grads.size());

  // --- Timing. --------------------------------------------------------------
  const int warmup = mode.Warmup(10);
  const int repeats = mode.Repeats(50);
  double sink = 0.0;

  const BenchStats blocked_stats = TimeIt(warmup, repeats, [&] {
    blocked_trainer.model()->ZeroGradients();
    sink += blocked_trainer.ForwardBackward(batch, kMicrobatch);
  });
  const BenchStats arena_stats = TimeIt(warmup, repeats, [&] {
    arena_trainer.model()->ZeroGradients();
    sink += arena_trainer.TrainStep(batch, kMicrobatch);
  });
  // Zero-alloc contract, measured in the bench too: the timed region must not
  // have touched the allocator for tensor buffers or GEMM packing panels.
  const int64_t allocs_before = arena_trainer.heap_allocations();
  arena_trainer.model()->ZeroGradients();
  sink += arena_trainer.TrainStep(batch, kMicrobatch);
  const int64_t allocs_after = arena_trainer.heap_allocations();
  VARUNA_CHECK_EQ(allocs_before, allocs_after)
      << "steady-state TrainStep allocated tensor buffers";
  const BenchStats pooled_stats = TimeIt(warmup, repeats, [&] {
    pooled_trainer.model()->ZeroGradients();
    sink += pooled_trainer.TrainStep(batch, kMicrobatch);
  });
  VARUNA_CHECK_GT(sink, 0.0);

  Table table({"variant", "median (ms)", "min (ms)", "mean (ms)"});
  const auto add_row = [&](const std::string& name, const BenchStats& stats) {
    table.AddRow({name, Table::Num(stats.median_ms, 3), Table::Num(stats.min_ms, 3),
                  Table::Num(stats.mean_ms, 3)});
  };
  add_row("blocked kernels, by-value", blocked_stats);
  add_row("blocked + arena (TrainStep)", arena_stats);
  add_row("pooled x" + std::to_string(threads), pooled_stats);
  std::printf("%s\n", table.Render().c_str());
  if (threads < 2) {
    std::printf("single hardware thread: the pool adds no parallelism\n");
  }
  std::printf("steady-state TrainStep heap allocations per step: 0 (asserted)\n");

  BenchJsonWriter json("bench_training_step");
  AddBuildMetadata(&json);
  json.AddScalar("vocab", kVocab);
  json.AddScalar("width", kWidth);
  json.AddScalar("blocks", kBlocks);
  json.AddScalar("batch", kBatch);
  json.AddScalar("microbatch", kMicrobatch);
  json.AddScalar("pool_threads", threads);
  json.AddResult("blocked_by_value", blocked_stats);
  json.AddResult("blocked_arena_trainstep", arena_stats);
  json.AddResult("pooled_trainstep", pooled_stats);
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

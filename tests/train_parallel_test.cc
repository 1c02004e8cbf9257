// Pooled-equals-serial and zero-allocation contracts of the training fast
// path: TrainStep (any math_threads) must reproduce the seed ForwardBackward
// bit for bit, the pooled pipeline trainer must match its serial self, and
// steady-state TrainStep must not touch the allocator for tensor buffers.
// Runs under the `threaded` ctest label so TSan sees the pooled paths.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/optimizer.h"
#include "src/nn/synthetic_task.h"
#include "src/train/trainers.h"

namespace varuna {
namespace {

constexpr int kVocab = 13;
constexpr int kWidth = 20;
constexpr int kBlocks = 4;
constexpr int kBatch = 24;
constexpr int kMicrobatch = 4;

std::unique_ptr<Sequential> FreshModel() {
  Rng rng(7);
  return BuildBlockModel(kVocab, kWidth, kBlocks, &rng);
}

Batch MakeBatch(int rows) {
  MarkovTask task(kVocab, 21);
  Rng rng(5);
  return task.Sample(rows, &rng);
}

std::vector<Tensor> SnapshotGrads(const std::vector<Tensor*>& grads) {
  std::vector<Tensor> snapshot;
  snapshot.reserve(grads.size());
  for (const Tensor* grad : grads) {
    snapshot.push_back(*grad);
  }
  return snapshot;
}

void ExpectIdenticalGrads(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(Identical(a[i], b[i]))
        << "gradient " << i << " diverged, max|diff|=" << MaxAbsDiff(a[i], b[i]);
  }
}

TEST(TrainParallelTest, TrainStepMatchesForwardBackwardSerial) {
  const Batch batch = MakeBatch(kBatch);
  ReferenceTrainer seed(FreshModel());
  ReferenceTrainer fast(FreshModel());
  seed.model()->ZeroGradients();
  const double seed_loss = seed.ForwardBackward(batch, kMicrobatch);
  fast.model()->ZeroGradients();
  const double fast_loss = fast.TrainStep(batch, kMicrobatch);
  EXPECT_EQ(seed_loss, fast_loss);
  ExpectIdenticalGrads(SnapshotGrads(seed.Gradients()), SnapshotGrads(fast.Gradients()));
}

TEST(TrainParallelTest, PooledTrainStepBitIdenticalToSerial) {
  const Batch batch = MakeBatch(kBatch);
  ReferenceTrainer serial(FreshModel(), MathOptions{1});
  ReferenceTrainer pooled(FreshModel(), MathOptions{4});
  for (int step = 0; step < 3; ++step) {
    serial.model()->ZeroGradients();
    pooled.model()->ZeroGradients();
    const double serial_loss = serial.TrainStep(batch, kMicrobatch);
    const double pooled_loss = pooled.TrainStep(batch, kMicrobatch);
    EXPECT_EQ(serial_loss, pooled_loss) << "step " << step;
    ExpectIdenticalGrads(SnapshotGrads(serial.Gradients()),
                         SnapshotGrads(pooled.Gradients()));
  }
}

TEST(TrainParallelTest, PooledTrainStepMatchesSeedPathAcrossOptimizerSteps) {
  // Full training trajectory equivalence: parameters updated by an optimizer
  // between steps must stay bit-identical between the seed path and the
  // pooled fast path.
  const Batch batch = MakeBatch(kBatch);
  ReferenceTrainer seed(FreshModel());
  ReferenceTrainer pooled(FreshModel(), MathOptions{3});
  SgdOptimizer seed_opt(seed.Parameters(), seed.Gradients(), 0.05f, 0.9f);
  SgdOptimizer pooled_opt(pooled.Parameters(), pooled.Gradients(), 0.05f, 0.9f);
  for (int step = 0; step < 4; ++step) {
    seed_opt.ZeroGradients();
    pooled_opt.ZeroGradients();
    const double seed_loss = seed.ForwardBackward(batch, kMicrobatch);
    const double pooled_loss = pooled.TrainStep(batch, kMicrobatch);
    EXPECT_EQ(seed_loss, pooled_loss) << "step " << step;
    seed_opt.Step();
    pooled_opt.Step();
  }
  const std::vector<Tensor> seed_params = SnapshotGrads(seed.Parameters());
  const std::vector<Tensor> pooled_params = SnapshotGrads(pooled.Parameters());
  ExpectIdenticalGrads(seed_params, pooled_params);
}

TEST(TrainParallelTest, TrainStepZeroAllocSteadyState) {
  // Every worker's arena also lends the GEMM packing panels, so the count
  // covers worker-owned kernel scratch at each pool width.
  const Batch batch = MakeBatch(kBatch);
  for (const int threads : {2, 4}) {
    ReferenceTrainer trainer(FreshModel(), MathOptions{threads});
    SgdOptimizer optimizer(trainer.Parameters(), trainer.Gradients(), 0.05f, 0.9f);
    // Warmup: first steps build replicas, grad slots, and arena buffers.
    for (int step = 0; step < 2; ++step) {
      optimizer.ZeroGradients();
      trainer.TrainStep(batch, kMicrobatch);
      optimizer.Step();
    }
    const int64_t warm = trainer.heap_allocations();
    for (int step = 0; step < 5; ++step) {
      optimizer.ZeroGradients();
      trainer.TrainStep(batch, kMicrobatch);
      optimizer.Step();
      EXPECT_EQ(trainer.heap_allocations(), warm)
          << "steady-state TrainStep allocated tensor buffers at step " << step
          << " with " << threads << " threads";
    }
  }
}

TEST(TrainParallelTest, PipelinePooledBitIdenticalToSerialAndReference) {
  const Batch batch = MakeBatch(kBatch);
  const std::vector<int> cuts = {0, 2, 4, kBlocks + 2};
  ReferenceTrainer reference(FreshModel());
  SyncPipelineTrainer serial(FreshModel(), cuts, MathOptions{1});
  SyncPipelineTrainer pooled(FreshModel(), cuts, MathOptions{4});
  for (int step = 0; step < 2; ++step) {
    reference.model()->ZeroGradients();
    for (int s = 0; s < serial.depth(); ++s) {
      serial.stage(s)->ZeroGradients();
      pooled.stage(s)->ZeroGradients();
    }
    const double reference_loss = reference.ForwardBackward(batch, kMicrobatch);
    const double serial_loss = serial.ForwardBackward(batch, kMicrobatch);
    const double pooled_loss = pooled.ForwardBackward(batch, kMicrobatch);
    EXPECT_EQ(serial_loss, pooled_loss) << "step " << step;
    EXPECT_DOUBLE_EQ(reference_loss, serial_loss) << "step " << step;
    ExpectIdenticalGrads(SnapshotGrads(serial.Gradients()),
                         SnapshotGrads(pooled.Gradients()));
    ExpectIdenticalGrads(SnapshotGrads(reference.Gradients()),
                         SnapshotGrads(serial.Gradients()));
  }
}

TEST(TrainParallelTest, StaleTrainerZeroStalenessStillMatchesSyncPooled) {
  // StaleGradientTrainer now rides the pooled fast path; staleness 0 must
  // remain plain synchronous SGD regardless of thread count.
  const Batch batch = MakeBatch(kBatch);
  StaleGradientTrainer serial(FreshModel(), /*staleness=*/0, 0.05f, 0.9f, MathOptions{1});
  StaleGradientTrainer pooled(FreshModel(), /*staleness=*/0, 0.05f, 0.9f, MathOptions{4});
  for (int step = 0; step < 3; ++step) {
    EXPECT_EQ(serial.Step(batch), pooled.Step(batch)) << "step " << step;
  }
}

}  // namespace
}  // namespace varuna

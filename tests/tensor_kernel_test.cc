// Golden tests for the blocked GEMM kernels (bit-identity against the seed
// naive loops across degenerate and non-multiple-of-block shapes) and unit
// tests for the TensorArena zero-allocation contract.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_arena.h"

namespace varuna {
namespace {

// Shapes chosen around the blocking parameters (KB=64, NB=128, dot JB=8):
// degenerate vectors, exact block multiples, one-off-the-block sizes, and
// remainder-heavy sizes that exercise every partial-panel path.
struct GemmShape {
  int m;
  int k;
  int n;
};

const std::vector<GemmShape>& TestShapes() {
  static const std::vector<GemmShape> shapes = {
      {1, 1, 1},    {1, 7, 1},    {1, 200, 1},  {200, 1, 1},  {1, 1, 200},
      {3, 64, 128}, {5, 65, 129}, {2, 63, 127}, {7, 1, 9},    {129, 3, 2},
      {17, 70, 140}, {33, 9, 8},  {4, 8, 16},   {130, 130, 3}, {8, 128, 256},
      // Every GEMM of one Fig. 9 training step (widths 16, 24, 96; 8-row
      // micro-batches): m = 8 covers the forward MatMul and the input-gradient
      // TransposeB, k = 8 the weight-gradient TransposeA.
      {8, 16, 16},  {8, 16, 24},  {8, 16, 96},  {8, 24, 16},  {8, 24, 24},
      {8, 24, 96},  {8, 96, 16},  {8, 96, 24},  {8, 96, 96},  {16, 8, 16},
      {16, 8, 24},  {16, 8, 96},  {24, 8, 16},  {24, 8, 24},  {24, 8, 96},
      {96, 8, 16},  {96, 8, 24},  {96, 8, 96},
  };
  return shapes;
}

// Gaussian operand with exact zeros injected so the kernels' zero-skip branch
// (`if (aip == 0.0f) continue`) is exercised in both the blocked and the naive
// kernels.
Tensor MakeOperand(std::vector<int> shape, Rng* rng) {
  Tensor t = Tensor::Randn(shape, rng, 1.0f);
  for (int64_t i = 0; i < t.size(); i += 3) {
    t[i] = 0.0f;
  }
  return t;
}

TEST(GemmGoldenTest, MatMulBitIdenticalToNaive) {
  Rng rng(11);
  for (const GemmShape& s : TestShapes()) {
    const Tensor a = MakeOperand({s.m, s.k}, &rng);
    const Tensor b = MakeOperand({s.k, s.n}, &rng);
    const Tensor blocked = MatMul(a, b);
    const Tensor naive = MatMulNaive(a, b);
    EXPECT_TRUE(Identical(blocked, naive))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n
        << " max|diff|=" << MaxAbsDiff(blocked, naive);
  }
}

TEST(GemmGoldenTest, MatMulTransposeBBitIdenticalToNaive) {
  Rng rng(12);
  for (const GemmShape& s : TestShapes()) {
    const Tensor a = MakeOperand({s.m, s.k}, &rng);
    const Tensor b = MakeOperand({s.n, s.k}, &rng);
    const Tensor blocked = MatMulTransposeB(a, b);
    const Tensor naive = MatMulTransposeBNaive(a, b);
    EXPECT_TRUE(Identical(blocked, naive))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n
        << " max|diff|=" << MaxAbsDiff(blocked, naive);
  }
}

TEST(GemmGoldenTest, MatMulTransposeABitIdenticalToNaive) {
  Rng rng(13);
  for (const GemmShape& s : TestShapes()) {
    const Tensor a = MakeOperand({s.k, s.m}, &rng);
    const Tensor b = MakeOperand({s.k, s.n}, &rng);
    const Tensor blocked = MatMulTransposeA(a, b);
    const Tensor naive = MatMulTransposeANaive(a, b);
    EXPECT_TRUE(Identical(blocked, naive))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n
        << " max|diff|=" << MaxAbsDiff(blocked, naive);
  }
}

TEST(GemmGoldenTest, IntoVariantsReuseOversizedBuffers) {
  // *Into into a tensor with larger capacity must reuse the buffer and still
  // be bit-identical (stale contents must not leak through Fill/overwrite).
  Rng rng(15);
  const Tensor a = MakeOperand({5, 65}, &rng);
  const Tensor b = MakeOperand({65, 129}, &rng);
  Tensor out = Tensor::Randn({40, 200}, &rng, 1.0f);  // Bigger than [5,129].
  const int64_t capacity_before = out.capacity();
  TensorArena scratch;
  MatMulInto(&out, a, b, &scratch);
  EXPECT_EQ(out.capacity(), capacity_before);
  EXPECT_TRUE(Identical(out, MatMulNaive(a, b)));
}

TEST(GemmGoldenTest, PackingPanelsAreLeasedFromScratch) {
  // Both packing kernels lease their panel from the caller's arena and hand it
  // back: the first call grows a slot (counted), repeats reuse it.
  Rng rng(16);
  const Tensor a = MakeOperand({8, 96}, &rng);        // TransposeB, m <= 8.
  const Tensor b = MakeOperand({24, 96}, &rng);
  const Tensor wide_a = MakeOperand({9, 96}, &rng);   // TransposeB, m > 8.
  const Tensor big_b = MakeOperand({96, 130}, &rng);  // MatMul, packed B.
  TensorArena scratch;
  Tensor out;
  MatMulTransposeBInto(&out, a, b, &scratch);
  EXPECT_TRUE(Identical(out, MatMulTransposeBNaive(a, b)));
  MatMulTransposeBInto(&out, wide_a, b, &scratch);
  EXPECT_TRUE(Identical(out, MatMulTransposeBNaive(wide_a, b)));
  MatMulInto(&out, a, big_b, &scratch);
  EXPECT_TRUE(Identical(out, MatMulNaive(a, big_b)));
  EXPECT_GT(scratch.heap_allocations(), 0);
  EXPECT_EQ(scratch.live_count(), 0);
  const int64_t warm = scratch.heap_allocations();
  for (int i = 0; i < 3; ++i) {
    MatMulTransposeBInto(&out, a, b, &scratch);
    MatMulTransposeBInto(&out, wide_a, b, &scratch);
    MatMulInto(&out, a, big_b, &scratch);
  }
  EXPECT_EQ(scratch.heap_allocations(), warm);
  EXPECT_EQ(scratch.live_count(), 0);
}

TEST(TensorResizeTest, ResizeToKeepsCapacity) {
  Tensor t({10, 10});
  const int64_t capacity = t.capacity();
  t.ResizeTo({2, 3});
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.capacity(), capacity);
  t.ResizeTo({10, 10});
  EXPECT_EQ(t.capacity(), capacity);
}

TEST(TensorArenaTest, AcquireReleaseReusesSlot) {
  TensorArena arena;
  Tensor* t = arena.Acquire({4, 8});
  EXPECT_EQ(t->dim(0), 4);
  EXPECT_EQ(t->dim(1), 8);
  EXPECT_EQ(arena.slot_count(), 1);
  EXPECT_EQ(arena.live_count(), 1);
  const int64_t allocs = arena.heap_allocations();
  EXPECT_GE(allocs, 1);
  arena.Release(t);
  EXPECT_EQ(arena.live_count(), 0);
  // Same shape again: same slot, no new allocation.
  Tensor* again = arena.Acquire({4, 8});
  EXPECT_EQ(again, t);
  EXPECT_EQ(arena.slot_count(), 1);
  EXPECT_EQ(arena.heap_allocations(), allocs);
  arena.Release(again);
  // Smaller shape fits the existing buffer: still no allocation.
  Tensor* smaller = arena.Acquire({2, 2});
  EXPECT_EQ(arena.slot_count(), 1);
  EXPECT_EQ(arena.heap_allocations(), allocs);
  arena.Release(smaller);
}

TEST(TensorArenaTest, BestFitPrefersSmallestSufficientSlot) {
  TensorArena arena;
  Tensor* big = arena.Acquire({32, 32});
  Tensor* small = arena.Acquire({4, 4});
  arena.Release(big);
  arena.Release(small);
  const int64_t allocs = arena.heap_allocations();
  // A [3,3] request fits both free slots; best-fit must lease the small one.
  Tensor* leased = arena.Acquire({3, 3});
  EXPECT_EQ(leased, small);
  EXPECT_EQ(arena.heap_allocations(), allocs);
  arena.ReleaseAll();
  EXPECT_EQ(arena.live_count(), 0);
}

TEST(TensorArenaTest, DistinctLiveLeases) {
  TensorArena arena;
  Tensor* a = arena.Acquire({2, 2});
  Tensor* b = arena.Acquire({2, 2});
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.live_count(), 2);
  EXPECT_EQ(arena.slot_count(), 2);
  arena.Release(a);
  arena.Release(b);
}

TEST(TensorArenaTest, GrowthCountsAsAllocation) {
  TensorArena arena;
  Tensor* t = arena.Acquire({2, 2});
  arena.Release(t);
  const int64_t allocs = arena.heap_allocations();
  // Nothing free fits [64,64]: the arena must grow (or add) a slot and count
  // the heap allocation.
  Tensor* grown = arena.Acquire({64, 64});
  EXPECT_GT(arena.heap_allocations(), allocs);
  EXPECT_EQ(grown->size(), 64 * 64);
  arena.Release(grown);
  // Steady state after warmup: the grown buffer now serves both shapes.
  const int64_t warm = arena.heap_allocations();
  for (int i = 0; i < 10; ++i) {
    Tensor* lease = arena.Acquire(i % 2 == 0 ? std::vector<int>{64, 64}
                                             : std::vector<int>{2, 2});
    arena.Release(lease);
  }
  EXPECT_EQ(arena.heap_allocations(), warm);
}

}  // namespace
}  // namespace varuna

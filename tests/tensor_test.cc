#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace varuna {
namespace {

TEST(TensorTest, ZerosAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i], 0.0f);
  }
}

TEST(TensorTest, AtIndexing) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
  EXPECT_EQ(t.at(1, 2), 5.0f);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(3);
  Tensor t = Tensor::Randn({100, 100}, &rng, 0.5f);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sum_sq += static_cast<double>(t[i]) * t[i];
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(sum_sq / t.size()), 0.5, 0.01);
}

TEST(TensorTest, MatMulKnownValues) {
  Tensor a({2, 2});
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Tensor b({2, 2});
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 19);
  EXPECT_EQ(c.at(0, 1), 22);
  EXPECT_EQ(c.at(1, 0), 43);
  EXPECT_EQ(c.at(1, 1), 50);
}

TEST(TensorTest, TransposedMatMulsAgree) {
  Rng rng(9);
  const Tensor a = Tensor::Randn({4, 6}, &rng, 1.0f);
  const Tensor b = Tensor::Randn({6, 5}, &rng, 1.0f);
  const Tensor c = MatMul(a, b);
  // A * B == (A * B) via MatMulTransposeB with B^T materialised.
  Tensor bt({5, 6});
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) {
      bt.at(j, i) = b.at(i, j);
    }
  }
  EXPECT_LT(MaxAbsDiff(MatMulTransposeB(a, bt), c), 1e-5f);
  // A^T path.
  Tensor at({6, 4});
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 6; ++j) {
      at.at(j, i) = a.at(i, j);
    }
  }
  EXPECT_LT(MaxAbsDiff(MatMulTransposeA(at, b), c), 1e-5f);
}

TEST(TensorTest, RowSoftmaxSumsToOne) {
  Rng rng(4);
  const Tensor logits = Tensor::Randn({8, 16}, &rng, 3.0f);
  const Tensor probs = RowSoftmax(logits);
  for (int i = 0; i < 8; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 16; ++j) {
      const float p = probs.at(i, j);
      EXPECT_GE(p, 0.0f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, RowSoftmaxNumericallyStable) {
  Tensor logits({1, 3});
  logits.at(0, 0) = 10000.0f;
  logits.at(0, 1) = 9999.0f;
  logits.at(0, 2) = -10000.0f;
  const Tensor probs = RowSoftmax(logits);
  EXPECT_FALSE(std::isnan(probs.at(0, 0)));
  EXPECT_GT(probs.at(0, 0), probs.at(0, 1));
  EXPECT_NEAR(probs.at(0, 2), 0.0f, 1e-6f);
}

TEST(TensorTest, AxpyAndScale) {
  Tensor a({3});
  a.Fill(1.0f);
  Tensor b({3});
  b.Fill(2.0f);
  a.Axpy(0.5f, b);
  EXPECT_EQ(a[0], 2.0f);
  a.Scale(2.0f);
  EXPECT_EQ(a[2], 4.0f);
}

TEST(TensorTest, IdenticalAndMaxAbsDiff) {
  Rng rng(5);
  const Tensor a = Tensor::Randn({3, 3}, &rng, 1.0f);
  Tensor b(a);
  EXPECT_TRUE(Identical(a, b));
  b[4] += 0.25f;
  EXPECT_FALSE(Identical(a, b));
  EXPECT_NEAR(MaxAbsDiff(a, b), 0.25f, 1e-6f);
}

TEST(TensorTest, AddRowVector) {
  Tensor a({2, 2});
  Tensor row({2});
  row[0] = 1.0f;
  row[1] = 2.0f;
  const Tensor c = AddRowVector(a, row);
  EXPECT_EQ(c.at(0, 0), 1.0f);
  EXPECT_EQ(c.at(1, 1), 2.0f);
}

TEST(TensorTest, SquaredNorm) {
  Tensor a({2});
  a[0] = 3.0f;
  a[1] = 4.0f;
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 25.0);
}

// Copying an element buffer is spelled out: an lvalue never binds to a
// by-value Tensor parameter, while direct-initialization and moves still work.
TEST(TensorContract, CopiesAreExplicit) {
  static_assert(!std::is_convertible_v<const Tensor&, Tensor>);
  static_assert(!std::is_convertible_v<Tensor&, Tensor>);
  static_assert(std::is_constructible_v<Tensor, const Tensor&>);
  static_assert(std::is_convertible_v<Tensor&&, Tensor>);
  static_assert(std::is_nothrow_move_constructible_v<Tensor>);
  static_assert(std::is_copy_assignable_v<Tensor>);
  Tensor t({2, 2});
  t.Fill(1.5f);
  const Tensor copy(t);
  EXPECT_TRUE(Identical(copy, t));
  EXPECT_NE(copy.data(), t.data());
}

}  // namespace
}  // namespace varuna

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/nn/layers.h"
#include "src/nn/optimizer.h"
#include "src/nn/synthetic_task.h"

namespace varuna {
namespace {

// Numerical gradient check for a layer via central differences on a scalar
// objective sum(output * probe).
void CheckLayerGradients(Layer* layer, const Tensor& input, Rng* rng, float tolerance) {
  const Tensor output = layer->Forward(input);
  Tensor probe = Tensor::Randn(output.shape(), rng, 1.0f);
  layer->ZeroGradients();
  const Tensor grad_input = layer->Backward(probe);

  auto objective = [&](const Tensor& x) {
    Tensor out = layer->Forward(x);
    double sum = 0.0;
    for (int64_t i = 0; i < out.size(); ++i) {
      sum += static_cast<double>(out[i]) * probe[i];
    }
    return sum;
  };

  // Check input gradient at a few coordinates.
  const float epsilon = 1e-3f;
  Tensor x(input);
  for (int64_t i = 0; i < std::min<int64_t>(x.size(), 6); ++i) {
    const float original = x[i];
    x[i] = original + epsilon;
    const double up = objective(x);
    x[i] = original - epsilon;
    const double down = objective(x);
    x[i] = original;
    const double numeric = (up - down) / (2.0 * epsilon);
    EXPECT_NEAR(grad_input[i], numeric, tolerance) << "input coord " << i;
  }

  // Check parameter gradients at a few coordinates of each parameter.
  (void)layer->Forward(input);
  layer->ZeroGradients();
  (void)layer->Backward(probe);
  std::vector<Tensor*> params = layer->Parameters();
  std::vector<Tensor*> grads = layer->Gradients();
  for (size_t p = 0; p < params.size(); ++p) {
    Tensor& param = *params[p];
    const Tensor analytic(*grads[p]);
    for (int64_t i = 0; i < std::min<int64_t>(param.size(), 4); ++i) {
      const float original = param[i];
      param[i] = original + epsilon;
      const double up = objective(input);
      param[i] = original - epsilon;
      const double down = objective(input);
      param[i] = original;
      const double numeric = (up - down) / (2.0 * epsilon);
      EXPECT_NEAR(analytic[i], numeric, tolerance) << "param " << p << " coord " << i;
    }
  }
}

TEST(LayersTest, LinearGradientCheck) {
  Rng rng(1);
  Linear layer(5, 4, &rng);
  const Tensor input = Tensor::Randn({3, 5}, &rng, 1.0f);
  CheckLayerGradients(&layer, input, &rng, 2e-2f);
}

TEST(LayersTest, GeluGradientCheck) {
  Rng rng(2);
  Gelu layer;
  const Tensor input = Tensor::Randn({3, 4}, &rng, 1.0f);
  CheckLayerGradients(&layer, input, &rng, 2e-2f);
}

TEST(LayersTest, LayerNormGradientCheck) {
  Rng rng(3);
  LayerNorm layer(6);
  const Tensor input = Tensor::Randn({2, 6}, &rng, 1.0f);
  CheckLayerGradients(&layer, input, &rng, 3e-2f);
}

TEST(LayersTest, MlpBlockGradientCheck) {
  Rng rng(4);
  MlpBlock layer(4, 2, &rng);
  const Tensor input = Tensor::Randn({2, 4}, &rng, 1.0f);
  CheckLayerGradients(&layer, input, &rng, 5e-2f);
}

TEST(LayersTest, SequentialComposes) {
  Rng rng(5);
  Sequential model;
  model.Append(std::make_unique<Linear>(4, 8, &rng));
  model.Append(std::make_unique<Gelu>());
  model.Append(std::make_unique<Linear>(8, 3, &rng));
  const Tensor input = Tensor::Randn({2, 4}, &rng, 1.0f);
  const Tensor out = model.Forward(input);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 3);
  EXPECT_EQ(model.Parameters().size(), 4u);
  CheckLayerGradients(&model, input, &rng, 3e-2f);
}

TEST(LayersTest, SequentialSplitPreservesParams) {
  Rng rng(6);
  auto model = BuildBlockModel(8, 16, 4, &rng);
  const size_t total_params = model->Parameters().size();
  auto stages = Sequential::Split(std::move(model), {0, 2, 4, 6});
  ASSERT_EQ(stages.size(), 3u);
  size_t split_params = 0;
  for (auto& stage : stages) {
    split_params += stage->Parameters().size();
  }
  EXPECT_EQ(split_params, total_params);
}

TEST(LayersTest, RecomputeReproducesForwardState) {
  // Gradient checkpointing correctness: backward after a re-forward from the
  // stashed input gives the same gradients as backward right after forward.
  Rng rng(7);
  MlpBlock layer(6, 2, &rng);
  const Tensor input = Tensor::Randn({3, 6}, &rng, 1.0f);
  const Tensor out = layer.Forward(input);
  Tensor probe = Tensor::Randn(out.shape(), &rng, 1.0f);

  layer.ZeroGradients();
  (void)layer.Backward(probe);
  std::vector<Tensor> grads_direct;
  for (Tensor* g : layer.Gradients()) {
    grads_direct.push_back(*g);
  }

  // Disturb state with a different forward, then recompute.
  (void)layer.Forward(Tensor::Randn({3, 6}, &rng, 1.0f));
  (void)layer.Forward(input);  // Recompute from stash.
  layer.ZeroGradients();
  (void)layer.Backward(probe);
  std::vector<Tensor*> grads_recomputed = layer.Gradients();
  for (size_t i = 0; i < grads_direct.size(); ++i) {
    EXPECT_TRUE(Identical(grads_direct[i], *grads_recomputed[i]));
  }
}

TEST(LossTest, CrossEntropyKnownValue) {
  Tensor logits({1, 2});
  logits.at(0, 0) = 0.0f;
  logits.at(0, 1) = 0.0f;
  SoftmaxCrossEntropy loss;
  EXPECT_NEAR(loss.Loss(logits, {0}), std::log(2.0), 1e-6);
}

TEST(LossTest, GradientSumsToZeroPerRow) {
  Rng rng(8);
  const Tensor logits = Tensor::Randn({4, 5}, &rng, 2.0f);
  SoftmaxCrossEntropy loss;
  loss.Loss(logits, {0, 1, 2, 3});
  const Tensor grad = loss.Backward();
  for (int i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 5; ++j) {
      sum += grad.at(i, j);
    }
    EXPECT_NEAR(sum, 0.0f, 1e-6f);
  }
}

TEST(OptimizerTest, SgdStepMovesAgainstGradient) {
  Tensor param({2});
  param.Fill(1.0f);
  Tensor grad({2});
  grad.Fill(0.5f);
  SgdOptimizer sgd({&param}, {&grad}, 0.1f);
  sgd.Step();
  EXPECT_NEAR(param[0], 0.95f, 1e-6f);
}

TEST(OptimizerTest, MomentumAccumulates) {
  Tensor param({1});
  Tensor grad({1});
  grad[0] = 1.0f;
  SgdOptimizer sgd({&param}, {&grad}, 0.1f, 0.9f);
  sgd.Step();  // v=1, p=-0.1
  sgd.Step();  // v=1.9, p=-0.29
  EXPECT_NEAR(param[0], -0.29f, 1e-6f);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Tensor param({4});
  param.Fill(5.0f);
  Tensor grad({4});
  AdamOptimizer adam({&param}, {&grad}, 0.1f);
  for (int step = 0; step < 500; ++step) {
    for (int i = 0; i < 4; ++i) {
      grad[i] = 2.0f * param[i];  // d/dx of x^2.
    }
    adam.Step();
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(param[i], 0.0f, 1e-2f);
  }
}

TEST(OptimizerTest, GradientNormAndScale) {
  Tensor param({2});
  Tensor grad({2});
  grad[0] = 3.0f;
  grad[1] = 4.0f;
  SgdOptimizer sgd({&param}, {&grad}, 0.1f);
  EXPECT_DOUBLE_EQ(sgd.GradientSquaredNorm(), 25.0);
  sgd.ScaleGradients(0.5f);
  EXPECT_EQ(grad[1], 2.0f);
}

TEST(MarkovTaskTest, TransitionsAreDistributions) {
  MarkovTask task(16, 42);
  Rng rng(1);
  const Batch batch = task.Sample(64, &rng);
  EXPECT_EQ(batch.inputs.dim(0), 64);
  EXPECT_EQ(batch.inputs.dim(1), 16);
  for (int i = 0; i < 64; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 16; ++j) {
      sum += batch.inputs.at(i, j);
    }
    EXPECT_EQ(sum, 1.0f);  // One-hot.
    EXPECT_GE(batch.targets[static_cast<size_t>(i)], 0);
    EXPECT_LT(batch.targets[static_cast<size_t>(i)], 16);
  }
}

TEST(MarkovTaskTest, OptimalPerplexityBelowUniform) {
  MarkovTask task(16, 42);
  EXPECT_LT(task.OptimalPerplexity(), 16.0);
  EXPECT_GT(task.OptimalPerplexity(), 1.0);
}

TEST(MarkovTaskTest, ModelCanLearnTask) {
  MarkovTask task(8, 7);
  Rng rng(11);
  auto model = BuildBlockModel(8, 16, 2, &rng);
  AdamOptimizer adam(model->Parameters(), model->Gradients(), 3e-3f);
  SoftmaxCrossEntropy loss;
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    const Batch batch = task.Sample(64, &rng);
    adam.ZeroGradients();
    const double value = loss.Loss(model->Forward(batch.inputs), batch.targets);
    model->Backward(loss.Backward());
    adam.Step();
    if (step == 0) {
      first_loss = value;
    }
    last_loss = value;
  }
  EXPECT_LT(last_loss, first_loss - 0.2);
  // Close to the information-theoretic floor.
  Rng val_rng(123);
  const double val = task.ValidationLoss(model.get(), 2048, &val_rng);
  EXPECT_LT(std::exp(val), 1.6 * task.OptimalPerplexity());
}

}  // namespace
}  // namespace varuna

// Optimizers over a stage's parameter group. Gradients are accumulated by
// the layers (micro-batching / gradient accumulation, §4.2); Step() applies
// one update and the caller zeroes gradients for the next mini-batch.
#ifndef SRC_NN_OPTIMIZER_H_
#define SRC_NN_OPTIMIZER_H_

#include <vector>

#include "src/tensor/tensor.h"

namespace varuna {

class Optimizer {
 public:
  Optimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads);
  virtual ~Optimizer() = default;

  virtual void Step() = 0;
  void ZeroGradients();

  // Sum of squared gradient elements across the group — the NVLAMB-style
  // "global norm" contribution that must be allreduced across partitions
  // when the model is split (§5.2).
  double GradientSquaredNorm() const;

  // Scales every gradient (used for global-norm clipping after the
  // cross-partition norm reduction).
  void ScaleGradients(float factor);

  // Checkpointing (§4.5): optimizer state is part of the per-layer
  // checkpoint (the paper's 14-16 B/param includes the Adam moments), so a
  // restore — possibly onto a different pipeline depth — continues the exact
  // trajectory. Export order matches the parameter-group order.
  virtual std::vector<Tensor> ExportState() const = 0;
  virtual void ImportState(const std::vector<Tensor>& state) = 0;

 protected:
  std::vector<Tensor*> params_;
  std::vector<Tensor*> grads_;
};

class SgdOptimizer : public Optimizer {
 public:
  SgdOptimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads, float learning_rate,
               float momentum = 0.0f);

  void Step() override;
  std::vector<Tensor> ExportState() const override { return velocity_; }
  void ImportState(const std::vector<Tensor>& state) override;

 private:
  float learning_rate_;
  float momentum_;
  std::vector<Tensor> velocity_;
};

class AdamOptimizer : public Optimizer {
 public:
  AdamOptimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads, float learning_rate,
                float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f);

  void Step() override;
  // State layout: first moments, then second moments, then a 1-element tensor
  // holding the step count.
  std::vector<Tensor> ExportState() const override;
  void ImportState(const std::vector<Tensor>& state) override;

 private:
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  int64_t step_count_ = 0;
  std::vector<Tensor> first_moment_;
  std::vector<Tensor> second_moment_;
};

}  // namespace varuna

#endif  // SRC_NN_OPTIMIZER_H_

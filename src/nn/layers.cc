#include "src/nn/layers.h"

#include <array>
#include <cmath>

#include "src/common/check.h"

namespace varuna {

void Layer::ZeroGradients() {
  for (Tensor* grad : Gradients()) {
    grad->Fill(0.0f);
  }
}

Tensor Layer::Forward(const Tensor& input) {
  // Copy first: the Into contract needs the input alive until Backward, and
  // callers of the by-value API (tests, inference helpers) pass temporaries.
  // Self-assignment is fine when a caller feeds our own buffer back in.
  wrapped_input_ = input;
  ForwardInto(wrapped_input_, &wrapped_output_, &wrapper_arena_);
  return wrapped_output_;
}

Tensor Layer::Backward(const Tensor& grad_output) {
  BackwardInto(grad_output, &wrapped_grad_input_, &wrapper_arena_);
  return wrapped_grad_input_;
}

// --- Linear ----------------------------------------------------------------

Linear::Linear(int in_features, int out_features, Rng* rng)
    : weight_(Tensor::Randn({in_features, out_features}, rng,
                            1.0f / std::sqrt(static_cast<float>(in_features)))),
      bias_(Tensor::Zeros({out_features})),
      weight_grad_(Tensor::Zeros({in_features, out_features})),
      bias_grad_(Tensor::Zeros({out_features})) {}

Linear::Linear(const Linear& other)
    : Layer(other),
      weight_(other.weight_),
      bias_(other.bias_),
      weight_grad_(other.weight_grad_),
      bias_grad_(other.bias_grad_) {}

void Linear::ForwardInto(const Tensor& input, Tensor* out, TensorArena* arena) {
  input_ = &input;
  MatMulInto(out, input, weight_, arena);
  AddRowVectorInPlace(out, bias_);
}

void Linear::BackwardInto(const Tensor& grad_output, Tensor* grad_input, TensorArena* arena) {
  VARUNA_CHECK(input_ != nullptr) << "Linear::Backward without Forward";
  Tensor* weight_delta = arena->Acquire(weight_grad_.shape());
  MatMulTransposeAInto(weight_delta, *input_, grad_output);
  weight_grad_.AddInPlace(*weight_delta);
  arena->Release(weight_delta);

  Tensor* bias_delta = arena->Acquire(bias_grad_.shape());
  bias_delta->Fill(0.0f);
  AccumulateRowSumsInto(bias_delta, grad_output);
  bias_grad_.AddInPlace(*bias_delta);
  arena->Release(bias_delta);

  MatMulTransposeBInto(grad_input, grad_output, weight_, arena);
}

// --- Gelu --------------------------------------------------------------------

namespace {
constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)

inline float GeluTanh(float x) {
  const float inner = kGeluC * (x + 0.044715f * x * x * x);
  return std::tanh(inner);
}

// Derivative with t = GeluTanh(x) supplied by the caller. Identical expression
// to the seed's GeluDerivative — stashing t in forward and substituting it
// here reuses the exact same float value, so backward stays bit-identical
// while evaluating tanh once per element instead of twice.
inline float GeluDerivativeFromTanh(float x, float t) {
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
}
}  // namespace

void Gelu::ForwardInto(const Tensor& input, Tensor* out, TensorArena*) {
  input_ = &input;
  out->ResizeTo(input.shape());
  tanh_.ResizeTo(input.shape());
  const int64_t n = input.size();
  // Three passes with the same per-element float ops as the fused seed loop:
  // the polynomial and the output blend auto-vectorize (lane-exact), leaving
  // only the libm tanh calls in the scalar middle pass.
  for (int64_t i = 0; i < n; ++i) {
    const float x = input[i];
    tanh_[i] = kGeluC * (x + 0.044715f * x * x * x);
  }
  for (int64_t i = 0; i < n; ++i) {
    tanh_[i] = std::tanh(tanh_[i]);
  }
  for (int64_t i = 0; i < n; ++i) {
    (*out)[i] = 0.5f * input[i] * (1.0f + tanh_[i]);
  }
}

void Gelu::BackwardInto(const Tensor& grad_output, Tensor* grad_input, TensorArena*) {
  VARUNA_CHECK(input_ != nullptr) << "Gelu::Backward without Forward";
  VARUNA_CHECK(grad_output.shape() == input_->shape());
  VARUNA_CHECK(tanh_.shape() == input_->shape());
  grad_input->ResizeTo(grad_output.shape());
  const int64_t n = grad_output.size();
  for (int64_t i = 0; i < n; ++i) {
    (*grad_input)[i] = grad_output[i] * GeluDerivativeFromTanh((*input_)[i], tanh_[i]);
  }
}

// --- LayerNorm ---------------------------------------------------------------

LayerNorm::LayerNorm(int features)
    : gain_(Tensor::Zeros({features})),
      bias_(Tensor::Zeros({features})),
      gain_grad_(Tensor::Zeros({features})),
      bias_grad_(Tensor::Zeros({features})) {
  gain_.Fill(1.0f);
}

LayerNorm::LayerNorm(const LayerNorm& other)
    : Layer(other),
      gain_(other.gain_),
      bias_(other.bias_),
      gain_grad_(other.gain_grad_),
      bias_grad_(other.bias_grad_) {}

void LayerNorm::ForwardInto(const Tensor& input, Tensor* out, TensorArena*) {
  const int rows = input.dim(0);
  const int n = input.dim(1);
  normalized_.ResizeTo(std::array{rows, n});
  inv_std_.ResizeTo(std::array{rows});
  out->ResizeTo(std::array{rows, n});
  has_state_ = true;
  constexpr float kEpsilon = 1e-5f;
  for (int i = 0; i < rows; ++i) {
    const float* row = input.data() + static_cast<size_t>(i) * n;
    float mean = 0.0f;
    for (int j = 0; j < n; ++j) {
      mean += row[j];
    }
    mean /= n;
    float variance = 0.0f;
    for (int j = 0; j < n; ++j) {
      const float centered = row[j] - mean;
      variance += centered * centered;
    }
    variance /= n;
    const float inv_std = 1.0f / std::sqrt(variance + kEpsilon);
    inv_std_[i] = inv_std;
    for (int j = 0; j < n; ++j) {
      const float normalized = (row[j] - mean) * inv_std;
      normalized_.data()[static_cast<size_t>(i) * n + j] = normalized;
      out->data()[static_cast<size_t>(i) * n + j] = normalized * gain_[j] + bias_[j];
    }
  }
}

void LayerNorm::BackwardInto(const Tensor& grad_output, Tensor* grad_input, TensorArena* arena) {
  VARUNA_CHECK(has_state_) << "LayerNorm::Backward without Forward";
  const int rows = grad_output.dim(0);
  const int n = grad_output.dim(1);
  VARUNA_CHECK_EQ(rows, normalized_.dim(0));
  grad_input->ResizeTo(std::array{rows, n});
  Tensor* gain_delta = arena->Acquire(gain_grad_.shape());
  Tensor* bias_delta = arena->Acquire(bias_grad_.shape());
  gain_delta->Fill(0.0f);
  bias_delta->Fill(0.0f);
  for (int i = 0; i < rows; ++i) {
    const float* g_row = grad_output.data() + static_cast<size_t>(i) * n;
    const float* norm_row = normalized_.data() + static_cast<size_t>(i) * n;
    float sum_g = 0.0f;
    float sum_g_norm = 0.0f;
    for (int j = 0; j < n; ++j) {
      const float g_hat = g_row[j] * gain_[j];
      sum_g += g_hat;
      sum_g_norm += g_hat * norm_row[j];
      (*gain_delta)[j] += g_row[j] * norm_row[j];
      (*bias_delta)[j] += g_row[j];
    }
    const float inv_n = 1.0f / n;
    for (int j = 0; j < n; ++j) {
      const float g_hat = g_row[j] * gain_[j];
      grad_input->data()[static_cast<size_t>(i) * n + j] =
          inv_std_[i] * (g_hat - inv_n * sum_g - norm_row[j] * inv_n * sum_g_norm);
    }
  }
  gain_grad_.AddInPlace(*gain_delta);
  bias_grad_.AddInPlace(*bias_delta);
  arena->Release(gain_delta);
  arena->Release(bias_delta);
}

// --- MlpBlock ----------------------------------------------------------------

MlpBlock::MlpBlock(int features, int hidden_multiplier, Rng* rng)
    : norm_(features),
      up_(features, features * hidden_multiplier, rng),
      down_(features * hidden_multiplier, features, rng) {}

MlpBlock::MlpBlock(const MlpBlock& other)
    : Layer(other),
      norm_(other.norm_),
      up_(other.up_),
      gelu_(other.gelu_),
      down_(other.down_) {}

void MlpBlock::ForwardInto(const Tensor& input, Tensor* out, TensorArena* arena) {
  norm_.ForwardInto(input, &norm_out_, arena);
  up_.ForwardInto(norm_out_, &up_out_, arena);
  gelu_.ForwardInto(up_out_, &gelu_out_, arena);
  down_.ForwardInto(gelu_out_, &down_out_, arena);
  AddInto(out, input, down_out_);
}

void MlpBlock::BackwardInto(const Tensor& grad_output, Tensor* grad_input, TensorArena* arena) {
  // Residual: gradient flows both through the branch and straight through.
  down_.BackwardInto(grad_output, &branch_grad_a_, arena);
  gelu_.BackwardInto(branch_grad_a_, &branch_grad_b_, arena);
  up_.BackwardInto(branch_grad_b_, &branch_grad_a_, arena);
  norm_.BackwardInto(branch_grad_a_, &branch_grad_b_, arena);
  AddInto(grad_input, grad_output, branch_grad_b_);
}

std::vector<Tensor*> MlpBlock::Parameters() {
  std::vector<Tensor*> params = norm_.Parameters();
  for (Layer* layer : {static_cast<Layer*>(&up_), static_cast<Layer*>(&down_)}) {
    for (Tensor* p : layer->Parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<Tensor*> MlpBlock::Gradients() {
  std::vector<Tensor*> grads = norm_.Gradients();
  for (Layer* layer : {static_cast<Layer*>(&up_), static_cast<Layer*>(&down_)}) {
    for (Tensor* g : layer->Gradients()) {
      grads.push_back(g);
    }
  }
  return grads;
}

// --- Sequential ----------------------------------------------------------------

void Sequential::ForwardInto(const Tensor& input, Tensor* out, TensorArena* arena) {
  VARUNA_CHECK(!layers_.empty());
  const size_t n = layers_.size();
  // vector::resize reuses existing Tensor elements (and their buffers).
  activations_.resize(n - 1);
  const Tensor* x = &input;
  for (size_t i = 0; i < n; ++i) {
    Tensor* dst = (i + 1 == n) ? out : &activations_[i];
    layers_[i]->ForwardInto(*x, dst, arena);
    x = dst;
  }
}

void Sequential::BackwardInto(const Tensor& grad_output, Tensor* grad_input,
                              TensorArena* arena) {
  VARUNA_CHECK(!layers_.empty());
  const int n = static_cast<int>(layers_.size());
  const Tensor* g = &grad_output;
  for (int i = n - 1; i >= 0; --i) {
    // Alternate scratch buffers so a layer never writes the tensor it reads.
    Tensor* dst = (i == 0) ? grad_input : &backward_grads_[static_cast<size_t>(i % 2)];
    layers_[static_cast<size_t>(i)]->BackwardInto(*g, dst, arena);
    g = dst;
  }
}

std::unique_ptr<Sequential> Sequential::CloneStack() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& layer : layers_) {
    copy->Append(layer->Clone());
  }
  return copy;
}

std::vector<Tensor*> Sequential::Parameters() {
  std::vector<Tensor*> params;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->Parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<Tensor*> Sequential::Gradients() {
  std::vector<Tensor*> grads;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->Gradients()) {
      grads.push_back(g);
    }
  }
  return grads;
}

std::vector<std::unique_ptr<Sequential>> Sequential::Split(
    std::unique_ptr<Sequential> model, const std::vector<int>& stage_begin) {
  VARUNA_CHECK_GE(stage_begin.size(), 2u);
  VARUNA_CHECK_EQ(stage_begin.front(), 0);
  VARUNA_CHECK_EQ(stage_begin.back(), model->num_layers());
  std::vector<std::unique_ptr<Sequential>> stages;
  for (size_t s = 0; s + 1 < stage_begin.size(); ++s) {
    auto stage = std::make_unique<Sequential>();
    for (int i = stage_begin[s]; i < stage_begin[s + 1]; ++i) {
      VARUNA_CHECK_LT(i, static_cast<int>(model->layers_.size()));
      stage->Append(std::move(model->layers_[static_cast<size_t>(i)]));
    }
    stages.push_back(std::move(stage));
  }
  return stages;
}

// --- SoftmaxCrossEntropy ---------------------------------------------------

double SoftmaxCrossEntropy::Loss(const Tensor& logits, const std::vector<int>& targets) {
  return Loss(logits, targets.data(), static_cast<int>(targets.size()));
}

double SoftmaxCrossEntropy::Loss(const Tensor& logits, const int* targets, int count) {
  VARUNA_CHECK_EQ(logits.dim(0), count);
  RowSoftmaxInto(&probabilities_, logits);
  targets_.assign(targets, targets + count);
  double loss = 0.0;
  const int n = logits.dim(1);
  for (int i = 0; i < count; ++i) {
    VARUNA_CHECK(targets[i] >= 0 && targets[i] < n);
    const float p = probabilities_.data()[static_cast<size_t>(i) * n +
                                          static_cast<size_t>(targets[i])];
    loss -= std::log(std::max(p, 1e-12f));
  }
  return loss / static_cast<double>(count);
}

Tensor SoftmaxCrossEntropy::Backward() const {
  Tensor grad;
  BackwardInto(&grad);
  return grad;
}

void SoftmaxCrossEntropy::BackwardInto(Tensor* grad) const {
  VARUNA_CHECK(!targets_.empty()) << "Backward before Loss";
  grad->ResizeTo(probabilities_.shape());
  const int n = probabilities_.dim(1);
  const float inv_batch = 1.0f / static_cast<float>(targets_.size());
  std::copy(probabilities_.data(), probabilities_.data() + probabilities_.size(),
            grad->data());
  for (size_t i = 0; i < targets_.size(); ++i) {
    grad->data()[i * static_cast<size_t>(n) + static_cast<size_t>(targets_[i])] -= 1.0f;
  }
  grad->Scale(inv_batch);
}

}  // namespace varuna

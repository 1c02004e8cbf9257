// Minimal dense float tensor for the convergence experiments (§7.3, Fig. 9,
// Fig. 10). Deliberately small: row-major float32, shape-checked ops, no
// broadcasting magic — enough to build and train partitioned MLP-block
// models with exact, reproducible numerics.
//
// GEMM: one cache-blocked, SIMD kernel per form (MatMul, TransposeB,
// TransposeA). Each keeps every output element's k-accumulation order exactly
// that of the plain triple loops (ascending p, float32 adds, zero-skip
// preserved), so its results are bit-identical to MatMul*Naive — those loops,
// kept as the reference the golden tests compare against. Packing panels are
// scratch leased from a caller-owned TensorArena, so the kernels hold no state
// between calls.
// The *Into variants write into an explicit output tensor whose buffer is
// reused whenever capacity allows — the zero-allocation training hot path.
#ifndef SRC_TENSOR_TENSOR_H_
#define SRC_TENSOR_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"

namespace varuna {

class TensorArena;

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape);

  static Tensor Zeros(std::vector<int> shape);
  // Gaussian init with the given standard deviation.
  static Tensor Randn(std::vector<int> shape, Rng* rng, float stddev);

  const std::vector<int>& shape() const { return shape_; }
  int dim(int axis) const { return shape_[static_cast<size_t>(axis)]; }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }
  // Heap capacity of the element buffer (for arena best-fit bookkeeping).
  int64_t capacity() const { return static_cast<int64_t>(data_.capacity()); }

  // Reshapes in place, reusing the existing heap buffers whenever their
  // capacity allows. Element contents are unspecified afterwards (callers
  // overwrite). A span, so call sites pass stack arrays (std::array{m, n})
  // and steady-state reshaping never builds a temporary vector.
  void ResizeTo(std::span<const int> shape);

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(int row, int col);
  float at(int row, int col) const;
  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  // Elementwise in-place updates.
  void Fill(float value);
  void AddInPlace(const Tensor& other);          // this += other
  void Axpy(float alpha, const Tensor& other);   // this += alpha * other
  void Scale(float alpha);

  // Sum of squared elements (for global-norm style reductions).
  double SquaredNorm() const;

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

// Explicit-output GEMM variants. `out` must not alias an operand; it is
// resized (buffer reused when capacity allows) and fully overwritten.
// `scratch` lends the packing panels for the duration of the call, so their
// growth shows in its heap_allocations(); TransposeA packs nothing.
// C = A([m,k]) * B([k,n]).
void MatMulInto(Tensor* out, const Tensor& a, const Tensor& b, TensorArena* scratch);
// C = A([m,k]) * B^T([n,k]).
void MatMulTransposeBInto(Tensor* out, const Tensor& a, const Tensor& b, TensorArena* scratch);
// C = A^T([k,m]) * B([k,n]).
void MatMulTransposeAInto(Tensor* out, const Tensor& a, const Tensor& b);

// By-value wrappers over the *Into kernels (panels from a call-local arena).
Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);

// The plain triple loops — the golden reference the blocked kernels are
// asserted bit-identical against.
Tensor MatMulNaive(const Tensor& a, const Tensor& b);
Tensor MatMulTransposeBNaive(const Tensor& a, const Tensor& b);
Tensor MatMulTransposeANaive(const Tensor& a, const Tensor& b);

Tensor Add(const Tensor& a, const Tensor& b);
// out = a + b elementwise; out may alias a or b.
void AddInto(Tensor* out, const Tensor& a, const Tensor& b);
// Adds a [n] row vector to every row of a [m,n] matrix.
Tensor AddRowVector(const Tensor& a, const Tensor& row);
// m += row broadcast over rows (the in-place bias add of the hot path).
void AddRowVectorInPlace(Tensor* m, const Tensor& row);
// row_sum([n]) += column sums of m([r,n]), accumulating row by row in
// ascending row order (the bias-gradient reduction of the hot path).
void AccumulateRowSumsInto(Tensor* row_sum, const Tensor& m);
Tensor Hadamard(const Tensor& a, const Tensor& b);

// Row-wise softmax of a [m,n] matrix.
Tensor RowSoftmax(const Tensor& logits);
// Explicit-output row softmax; out may alias logits.
void RowSoftmaxInto(Tensor* out, const Tensor& logits);

// Copies rows [row_begin, row_begin + rows) of src ([R,C]) into out ([rows,C]),
// reusing out's buffer — the view-based micro-batch split building block.
void CopyRowsInto(Tensor* out, const Tensor& src, int row_begin, int rows);

// True when shapes and every element match exactly.
bool Identical(const Tensor& a, const Tensor& b);
// Max |a-b| over elements; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace varuna

#endif  // SRC_TENSOR_TENSOR_H_

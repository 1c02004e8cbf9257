#include "src/tensor/tensor.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/common/check.h"
#include "src/tensor/tensor_arena.h"

namespace varuna {
namespace {

int64_t NumElements(std::span<const int> shape) {
  int64_t n = 1;
  for (const int d : shape) {
    VARUNA_CHECK_GT(d, 0);
    n *= d;
  }
  return n;
}

// Block sizes for the packed MatMul / MatMulTransposeA kernels. One packed
// B-panel is kGemmKB x kGemmNB floats = 32 KiB, sized to sit in L1 while a
// full sweep of A rows streams against it.
constexpr int kGemmKB = 64;
constexpr int kGemmNB = 128;
// Column-block width of MatMulTransposeB: the number of independent
// accumulator chains kept live per A row.
constexpr int kDotJB = 8;

// Eight lanes of element-wise float math. GCC lowers vector_size(32) to the
// widest ISA the target has (two SSE ops at the x86-64 baseline); each lane
// is an ordinary float mul/add — no reassociation, and the baseline target
// has no FMA so nothing fuses — so vector results are bit-identical to the
// scalar loops they replace. The psabi note (v8sf return ABI depends on
// -mavx) is moot: every helper is internal to this translation unit.
#pragma GCC diagnostic ignored "-Wpsabi"
typedef float v8sf __attribute__((vector_size(32)));
constexpr int kVecWidth = 8;

inline v8sf LoadU(const float* p) {
  v8sf v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU(float* p, v8sf v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline v8sf Broadcast(float x) { return v8sf{x, x, x, x, x, x, x, x}; }

// c[0..n) += alpha * b[0..n), vectorized with a scalar tail. Per element this
// is exactly `c[j] += alpha * b[j]` — the seed kernels' inner statement.
inline void AxpyRow(float* c, const float* b, float alpha, int64_t n) {
  const v8sf av = Broadcast(alpha);
  int64_t j = 0;
  for (; j + kVecWidth <= n; j += kVecWidth) {
    StoreU(c + j, LoadU(c + j) + av * LoadU(b + j));
  }
  for (; j < n; ++j) {
    c[j] += alpha * b[j];
  }
}

// out[0..n) = a[0..n) + b[0..n), vectorized (exact per lane).
inline void AddRow(float* out, const float* a, const float* b, int64_t n) {
  int64_t j = 0;
  for (; j + kVecWidth <= n; j += kVecWidth) {
    StoreU(out + j, LoadU(a + j) + LoadU(b + j));
  }
  for (; j < n; ++j) {
    out[j] = a[j] + b[j];
  }
}

}  // namespace

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(NumElements(shape_)), 0.0f);
}

Tensor Tensor::Zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Randn(std::vector<int> shape, Rng* rng, float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Gaussian(0.0, stddev));
  }
  return t;
}

void Tensor::ResizeTo(std::span<const int> shape) {
  const size_t n = static_cast<size_t>(NumElements(shape));
  if (!std::ranges::equal(shape_, shape)) {
    // assign() keeps shape_'s capacity, so alternating ranks stop allocating
    // once the largest rank has been seen.
    shape_.assign(shape.begin(), shape.end());
  }
  // vector::resize never shrinks capacity, so steady-state reshaping between
  // the same set of shapes touches the heap zero times.
  data_.resize(n);
}

float& Tensor::at(int row, int col) {
  VARUNA_CHECK_EQ(shape_.size(), 2u);
  VARUNA_CHECK(row >= 0 && row < shape_[0] && col >= 0 && col < shape_[1]);
  return data_[static_cast<size_t>(row) * shape_[1] + static_cast<size_t>(col)];
}

float Tensor::at(int row, int col) const { return const_cast<Tensor*>(this)->at(row, col); }

void Tensor::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Tensor::AddInPlace(const Tensor& other) {
  VARUNA_CHECK(shape_ == other.shape_);
  AddRow(data_.data(), data_.data(), other.data_.data(), size());
}

void Tensor::Axpy(float alpha, const Tensor& other) {
  VARUNA_CHECK(shape_ == other.shape_);
  AxpyRow(data_.data(), other.data_.data(), alpha, size());
}

void Tensor::Scale(float alpha) {
  const v8sf av = Broadcast(alpha);
  float* p = data_.data();
  const int64_t n = size();
  int64_t i = 0;
  for (; i + kVecWidth <= n; i += kVecWidth) {
    StoreU(p + i, LoadU(p + i) * av);
  }
  for (; i < n; ++i) {
    p[i] *= alpha;
  }
}

double Tensor::SquaredNorm() const {
  double sum = 0.0;
  for (const float x : data_) {
    sum += static_cast<double>(x) * x;
  }
  return sum;
}

// --- GEMM kernels ------------------------------------------------------------
//
// Bit-identity contract: for every output element, the blocked kernels add the
// same float32 products in the same ascending-p order as the seed loops
// (MatMul*Naive), and keep the seed's aip==0 row skips. Blocking and SIMD only
// reorder *which elements* are computed when — every lane of a vector op is the
// exact scalar mul/add of one element (no reassociation; the baseline x86-64
// target has no FMA, so nothing fuses) — so blocked == naive under operator==
// (tests/tensor_kernel_test.cc asserts this).

namespace {

void CheckMatMulShapes(const Tensor& a, const Tensor& b) {
  VARUNA_CHECK_EQ(a.shape().size(), 2u);
  VARUNA_CHECK_EQ(b.shape().size(), 2u);
  VARUNA_CHECK_EQ(a.dim(1), b.dim(0));
}

// One j-tile of one output row: R vector accumulators hold C[i][j .. j+8R) in
// registers across the full ascending-p sweep and are stored exactly once —
// no zero-fill pass, no C reloads. Each lane is the seed chain 0 + aip*b
// (nonzero aip, ascending p) for one element. `a` walks operand A's
// contribution for output row i at stride `a_stride`: 1 when A's row i is
// contiguous (MatMul), m when reading A's column i (TransposeA).
template <int R>
inline void GemmRowTile(float* c, const float* a, int64_t a_stride,
                        const float* b, int64_t b_stride, int k) {
  v8sf acc[R];
  for (int r = 0; r < R; ++r) {
    acc[r] = Broadcast(0.0f);
  }
  for (int p = 0; p < k; ++p) {
    const float aip = a[static_cast<size_t>(p) * a_stride];
    if (aip == 0.0f) {
      continue;
    }
    const v8sf av = Broadcast(aip);
    const float* b_row = b + static_cast<size_t>(p) * b_stride;
    for (int r = 0; r < R; ++r) {
      acc[r] += av * LoadU(b_row + r * kVecWidth);
    }
  }
  for (int r = 0; r < R; ++r) {
    StoreU(c + r * kVecWidth, acc[r]);
  }
}

// Register-tiled sweep of one output row, widest tier first. The 3/2-vector
// tiers matter: narrow outputs (e.g. n = 24) get one full-k sweep instead of
// repeating the p loop (and its per-p branch + broadcast) per 8 columns.
inline void GemmRow(float* c_row, const float* a, int64_t a_stride,
                    const float* b, int64_t b_stride, int k, int n) {
  int j = 0;
#ifdef __AVX2__
  // Wide tiers only when one v8sf is one register (16 ymm hold 12
  // accumulators + the broadcast); at baseline SSE they would spill.
  for (; j + 12 * kVecWidth <= n; j += 12 * kVecWidth) {
    GemmRowTile<12>(c_row + j, a, a_stride, b + j, b_stride, k);
  }
  if (n - j >= 8 * kVecWidth) {
    GemmRowTile<8>(c_row + j, a, a_stride, b + j, b_stride, k);
    j += 8 * kVecWidth;
  }
#endif
  for (; j + 4 * kVecWidth <= n; j += 4 * kVecWidth) {
    GemmRowTile<4>(c_row + j, a, a_stride, b + j, b_stride, k);
  }
  if (n - j >= 3 * kVecWidth) {
    GemmRowTile<3>(c_row + j, a, a_stride, b + j, b_stride, k);
    j += 3 * kVecWidth;
  }
  if (n - j >= 2 * kVecWidth) {
    GemmRowTile<2>(c_row + j, a, a_stride, b + j, b_stride, k);
    j += 2 * kVecWidth;
  }
  if (n - j >= kVecWidth) {
    GemmRowTile<1>(c_row + j, a, a_stride, b + j, b_stride, k);
    j += kVecWidth;
  }
  for (; j < n; ++j) {
    float acc = 0.0f;
    for (int p = 0; p < k; ++p) {
      const float aip = a[static_cast<size_t>(p) * a_stride];
      if (aip == 0.0f) {
        continue;
      }
      acc += aip * b[static_cast<size_t>(p) * b_stride + j];
    }
    c_row[j] = acc;
  }
}

}  // namespace

void MatMulInto(Tensor* out, const Tensor& a, const Tensor& b, TensorArena* scratch) {
  VARUNA_CHECK(out != &a && out != &b);
  VARUNA_CHECK(scratch != nullptr);
  CheckMatMulShapes(a, b);
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = b.dim(1);
  out->ResizeTo(std::array{m, n});
  if (static_cast<int64_t>(k) * n <= static_cast<int64_t>(kGemmKB) * kGemmNB) {
    // B no larger than one packed panel (32 KiB, L1-resident): register-tiled
    // sweep per output row, reading A's row i contiguously (stride 1).
    for (int i = 0; i < m; ++i) {
      GemmRow(out->data() + static_cast<size_t>(i) * n,
              a.data() + static_cast<size_t>(i) * k, 1, b.data(), n, k, n);
    }
    return;
  }
  // Large B: pack one kb x nb panel contiguously, then stream every A row
  // against it. p0 blocks ascend, and p ascends within a block, so each
  // c[i][j] receives its k contributions in seed order.
  out->Fill(0.0f);
  // Leased panel, rewritten before every read: no value crosses calls.
  Tensor* const packed = scratch->Acquire(std::array{kGemmKB, kGemmNB});
  float* const pk = packed->data();
  for (int j0 = 0; j0 < n; j0 += kGemmNB) {
    const int nb = std::min(kGemmNB, n - j0);
    for (int p0 = 0; p0 < k; p0 += kGemmKB) {
      const int kb = std::min(kGemmKB, k - p0);
      for (int p = 0; p < kb; ++p) {
        const float* src = b.data() + static_cast<size_t>(p0 + p) * n + j0;
        std::copy(src, src + nb, pk + static_cast<size_t>(p) * nb);
      }
      for (int i = 0; i < m; ++i) {
        const float* a_row = a.data() + static_cast<size_t>(i) * k + p0;
        float* c_row = out->data() + static_cast<size_t>(i) * n + j0;
        for (int p = 0; p < kb; ++p) {
          const float aip = a_row[p];
          if (aip == 0.0f) {
            continue;
          }
          AxpyRow(c_row, pk + static_cast<size_t>(p) * nb, aip, nb);
        }
      }
    }
  }
  scratch->Release(packed);
}

void MatMulTransposeBInto(Tensor* out, const Tensor& a, const Tensor& b,
                          TensorArena* scratch) {
  VARUNA_CHECK(out != &a && out != &b);
  VARUNA_CHECK(scratch != nullptr);
  VARUNA_CHECK_EQ(a.shape().size(), 2u);
  VARUNA_CHECK_EQ(b.shape().size(), 2u);
  VARUNA_CHECK_EQ(a.dim(1), b.dim(1));
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = b.dim(0);
  out->ResizeTo(std::array{m, n});
  // Each c[i][j] is a sequential dot product over p (same order as the seed
  // kernel). Two transpose-packed layouts keep the SIMD lanes on independent
  // dots: few A rows → pack A and vectorize across rows; otherwise pack
  // kDotJB B rows per panel and vectorize across columns. Either way each
  // lane's adds are exactly one element's ascending-p chain.
  static_assert(kDotJB == kVecWidth, "panel width is one SIMD vector");
  if (m <= kVecWidth) {
    // The micro-batch case (m = rows <= 8): pack A once into a [k][8] panel
    // (lanes past m zero-padded) — k*8 reads instead of n*k for the B-panel
    // pack — then one accumulator sweeps lane i over row i's dot with every
    // B row.
    // Leased panel, rewritten before every read: no value crosses calls.
    Tensor* const apanel = scratch->Acquire(std::array{k, kVecWidth});
    apanel->Fill(0.0f);
    float* const ap = apanel->data();
    for (int i = 0; i < m; ++i) {
      const float* a_row = a.data() + static_cast<size_t>(i) * k;
      for (int p = 0; p < k; ++p) {
        ap[static_cast<size_t>(p) * kVecWidth + i] = a_row[p];
      }
    }
    float* const c = out->data();
    for (int j = 0; j < n; ++j) {
      const float* b_row = b.data() + static_cast<size_t>(j) * k;
      v8sf acc = Broadcast(0.0f);
      for (int p = 0; p < k; ++p) {
        acc += LoadU(ap + static_cast<size_t>(p) * kVecWidth) * Broadcast(b_row[p]);
      }
      float lanes[kVecWidth];
      StoreU(lanes, acc);
      for (int i = 0; i < m; ++i) {
        c[static_cast<size_t>(i) * n + j] = lanes[i];
      }
    }
    scratch->Release(apanel);
    return;
  }
  const int n_full = n - n % kDotJB;
  // Leased panel, rewritten before every read: no value crosses calls.
  Tensor* const panel = scratch->Acquire(std::array{k, kDotJB});
  float* const bp = panel->data();
  for (int j0 = 0; j0 < n_full; j0 += kDotJB) {
    for (int jj = 0; jj < kDotJB; ++jj) {
      const float* b_row = b.data() + static_cast<size_t>(j0 + jj) * k;
      for (int p = 0; p < k; ++p) {
        bp[static_cast<size_t>(p) * kDotJB + jj] = b_row[p];
      }
    }
    for (int i = 0; i < m; ++i) {
      const float* a_row = a.data() + static_cast<size_t>(i) * k;
      v8sf acc = Broadcast(0.0f);
      for (int p = 0; p < k; ++p) {
        acc += Broadcast(a_row[p]) * LoadU(bp + static_cast<size_t>(p) * kDotJB);
      }
      StoreU(out->data() + static_cast<size_t>(i) * n + j0, acc);
    }
  }
  scratch->Release(panel);
  for (int i = 0; i < m; ++i) {
    const float* a_row = a.data() + static_cast<size_t>(i) * k;
    float* c_row = out->data() + static_cast<size_t>(i) * n;
    for (int j = n_full; j < n; ++j) {
      const float* b_row = b.data() + static_cast<size_t>(j) * k;
      float sum = 0.0f;
      for (int p = 0; p < k; ++p) {
        sum += a_row[p] * b_row[p];
      }
      c_row[j] = sum;
    }
  }
}

void MatMulTransposeAInto(Tensor* out, const Tensor& a, const Tensor& b) {
  VARUNA_CHECK(out != &a && out != &b);
  VARUNA_CHECK_EQ(a.shape().size(), 2u);
  VARUNA_CHECK_EQ(b.shape().size(), 2u);
  VARUNA_CHECK_EQ(a.dim(0), b.dim(0));
  const int k = a.dim(0);
  const int m = a.dim(1);
  const int n = b.dim(1);
  out->ResizeTo(std::array{m, n});
  // Few accumulation terms (k = micro-batch rows in the training hot path):
  // the seed's own p-outer loop order with the j loop vectorized. A reads are
  // contiguous and the per-output-row sweep setup of GemmRow — which would be
  // paid m times for only k products each — disappears. Ascending p outer
  // keeps every element's chain in seed order, and the api==0 skip matches
  // the seed kernel's.
  if (k <= 2 * kVecWidth) {
    out->Fill(0.0f);
    for (int p = 0; p < k; ++p) {
      const float* a_row = a.data() + static_cast<size_t>(p) * m;
      const float* b_row = b.data() + static_cast<size_t>(p) * n;
      for (int i = 0; i < m; ++i) {
        const float api = a_row[i];
        if (api == 0.0f) {
          continue;
        }
        AxpyRow(out->data() + static_cast<size_t>(i) * n, b_row, api, n);
      }
    }
    return;
  }
  // Otherwise: register-tiled sweep per output row, reading A's column i at
  // stride m. Per element this is the seed chain — ascending p, api==0
  // products skipped — only the (i, j) visit order changes, and output
  // elements are disjoint. B is re-swept per output row; every caller's B
  // panel is cache-resident (k*n of at most a few tens of KiB), so the
  // re-reads stay on chip.
  for (int i = 0; i < m; ++i) {
    GemmRow(out->data() + static_cast<size_t>(i) * n, a.data() + i, m,
            b.data(), n, k, n);
  }
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor c;
  TensorArena scratch;
  MatMulInto(&c, a, b, &scratch);
  return c;
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  Tensor c;
  TensorArena scratch;
  MatMulTransposeBInto(&c, a, b, &scratch);
  return c;
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulTransposeAInto(&c, a, b);
  return c;
}

Tensor MatMulNaive(const Tensor& a, const Tensor& b) {
  CheckMatMulShapes(a, b);
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = b.dim(1);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float aip = a.data()[static_cast<size_t>(i) * k + p];
      if (aip == 0.0f) {
        continue;
      }
      const float* b_row = b.data() + static_cast<size_t>(p) * n;
      float* c_row = c.data() + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        c_row[j] += aip * b_row[j];
      }
    }
  }
  return c;
}

Tensor MatMulTransposeBNaive(const Tensor& a, const Tensor& b) {
  VARUNA_CHECK_EQ(a.dim(1), b.dim(1));
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = b.dim(0);
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float* a_row = a.data() + static_cast<size_t>(i) * k;
      const float* b_row = b.data() + static_cast<size_t>(j) * k;
      float sum = 0.0f;
      for (int p = 0; p < k; ++p) {
        sum += a_row[p] * b_row[p];
      }
      c.data()[static_cast<size_t>(i) * n + j] = sum;
    }
  }
  return c;
}

Tensor MatMulTransposeANaive(const Tensor& a, const Tensor& b) {
  VARUNA_CHECK_EQ(a.dim(0), b.dim(0));
  const int k = a.dim(0);
  const int m = a.dim(1);
  const int n = b.dim(1);
  Tensor c({m, n});
  for (int p = 0; p < k; ++p) {
    const float* a_row = a.data() + static_cast<size_t>(p) * m;
    const float* b_row = b.data() + static_cast<size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float api = a_row[i];
      if (api == 0.0f) {
        continue;
      }
      float* c_row = c.data() + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        c_row[j] += api * b_row[j];
      }
    }
  }
  return c;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  VARUNA_CHECK(a.shape() == b.shape());
  Tensor c = a;
  c.AddInPlace(b);
  return c;
}

void AddInto(Tensor* out, const Tensor& a, const Tensor& b) {
  VARUNA_CHECK(a.shape() == b.shape());
  out->ResizeTo(a.shape());
  AddRow(out->data(), a.data(), b.data(), a.size());
}

Tensor AddRowVector(const Tensor& a, const Tensor& row) {
  Tensor c = a;
  AddRowVectorInPlace(&c, row);
  return c;
}

void AddRowVectorInPlace(Tensor* m, const Tensor& row) {
  VARUNA_CHECK_EQ(m->shape().size(), 2u);
  VARUNA_CHECK_EQ(row.size(), m->dim(1));
  const int n = m->dim(1);
  for (int i = 0; i < m->dim(0); ++i) {
    float* m_row = m->data() + static_cast<size_t>(i) * n;
    AxpyRow(m_row, row.data(), 1.0f, n);
  }
}

void AccumulateRowSumsInto(Tensor* row_sum, const Tensor& m) {
  VARUNA_CHECK_EQ(m.shape().size(), 2u);
  VARUNA_CHECK_EQ(row_sum->size(), m.dim(1));
  const int n = m.dim(1);
  for (int i = 0; i < m.dim(0); ++i) {
    AxpyRow(row_sum->data(), m.data() + static_cast<size_t>(i) * n, 1.0f, n);
  }
}

Tensor Hadamard(const Tensor& a, const Tensor& b) {
  VARUNA_CHECK(a.shape() == b.shape());
  Tensor c = a;
  for (int64_t i = 0; i < c.size(); ++i) {
    c[i] *= b[i];
  }
  return c;
}

Tensor RowSoftmax(const Tensor& logits) {
  Tensor out;
  RowSoftmaxInto(&out, logits);
  return out;
}

void RowSoftmaxInto(Tensor* out, const Tensor& logits) {
  VARUNA_CHECK_EQ(logits.shape().size(), 2u);
  const int m = logits.dim(0);
  const int n = logits.dim(1);
  out->ResizeTo(std::array{m, n});
  for (int i = 0; i < m; ++i) {
    const float* row = logits.data() + static_cast<size_t>(i) * n;
    float* out_row = out->data() + static_cast<size_t>(i) * n;
    float max_logit = row[0];
    for (int j = 1; j < n; ++j) {
      max_logit = std::max(max_logit, row[j]);
    }
    float sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      out_row[j] = std::exp(row[j] - max_logit);
      sum += out_row[j];
    }
    for (int j = 0; j < n; ++j) {
      out_row[j] /= sum;
    }
  }
}

void CopyRowsInto(Tensor* out, const Tensor& src, int row_begin, int rows) {
  VARUNA_CHECK_EQ(src.shape().size(), 2u);
  VARUNA_CHECK(row_begin >= 0 && rows > 0 && row_begin + rows <= src.dim(0));
  const int n = src.dim(1);
  out->ResizeTo(std::array{rows, n});
  const float* from = src.data() + static_cast<size_t>(row_begin) * n;
  std::copy(from, from + static_cast<size_t>(rows) * n, out->data());
}

bool Identical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return false;
  }
  for (int64_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  VARUNA_CHECK(a.shape() == b.shape());
  float max_diff = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

}  // namespace varuna

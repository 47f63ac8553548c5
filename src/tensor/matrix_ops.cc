#include "tensor/matrix_ops.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "tensor/backend.h"
#include "tensor/scalar_kernels.h"
#include "tensor/vector_kernels.h"

namespace nmcdr {

// Every free function below validates shapes and opens an obs::KernelScope
// (call count + FLOP estimate; wall time under profiling). The GEMM family
// and AxpyInto then forward to the thread's KernelBackend
// (tensor/backend.h), serial or vector, which are bit-exact with each
// other; every other kernel is the one scalar loop written here, under any
// backend. These loops are the readable reference the replay path's fused
// kernels are audited against, bit for bit.
//
// A kernel that writes every output element allocates its output with
// Matrix::ForOverwrite (unfilled inside the replay arena); one that adds
// into its output (ColSum) keeps the zero-filled constructor.
//
// FLOP estimates follow the usual conventions: 2mnk for GEMMs (multiply +
// add), mn for one-pass elementwise maps, small constants for transcendental
// maps (sigmoid ~4 flops/elem, softmax ~5), and element counts as a data-
// movement proxy for pure copies (Transpose, Gather/Scatter, Concat).

namespace {

using obs::Kernel;
using obs::KernelScope;

int64_t Elems(const Matrix& a) {
  return static_cast<int64_t>(a.rows()) * a.cols();
}

/// out[i] = f(a[i]) for every element.
template <typename F>
Matrix Map(const Matrix& a, F f) {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  const float* in = a.data();
  float* o = out.data();
  for (int64_t i = 0; i < a.size(); ++i) o[i] = f(in[i]);
  return out;
}

/// out[i] = f(a[i], b[i]) for every element.
template <typename F>
Matrix Map2(const Matrix& a, const Matrix& b, F f) {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out.data();
  for (int64_t i = 0; i < a.size(); ++i) o[i] = f(pa[i], pb[i]);
  return out;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  // Accounted by the MatMulAccumInto probe below — no separate scope, so a
  // MatMul never double-counts.
  MatMulAccumInto(a, b, &out);
  return out;
}

void MatMulAccumInto(const Matrix& a, const Matrix& b, Matrix* out) {
  NMCDR_CHECK_EQ(a.cols(), b.rows());
  NMCDR_CHECK_EQ(out->rows(), a.rows());
  NMCDR_CHECK_EQ(out->cols(), b.cols());
  const KernelScope scope(Kernel::kMatMulAccumInto,
                          2 * static_cast<int64_t>(a.rows()) * a.cols() *
                              b.cols());
  CurrentBackend().MatMulAccumInto(a, b, out);
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK_EQ(a.rows(), b.rows());
  const KernelScope scope(Kernel::kMatMulTransA,
                          2 * static_cast<int64_t>(a.cols()) * a.rows() *
                              b.cols());
  return CurrentBackend().MatMulTransA(a, b);
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK_EQ(a.cols(), b.cols());
  const KernelScope scope(Kernel::kMatMulTransB,
                          2 * static_cast<int64_t>(a.rows()) * a.cols() *
                              b.rows());
  return CurrentBackend().MatMulTransB(a, b);
}

Matrix Transpose(const Matrix& a) {
  const KernelScope scope(Kernel::kTranspose, Elems(a));
  const int cols = a.cols(), rows = a.rows();
  Matrix out = Matrix::ForOverwrite(cols, rows);
  for (int r = 0; r < rows; ++r) {
    const float* arow = a.row(r);
    float* base = out.data() + r;
    for (int c = 0; c < cols; ++c) base[static_cast<size_t>(c) * rows] = arow[c];
  }
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kAdd, Elems(a));
  return Map2(a, b, [](float x, float y) { return x + y; });
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kSub, Elems(a));
  return Map2(a, b, [](float x, float y) { return x - y; });
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kHadamard, Elems(a));
  return Map2(a, b, [](float x, float y) { return x * y; });
}

Matrix Axpby(const Matrix& a, float alpha, const Matrix& b, float beta) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kAxpby, 3 * Elems(a));
  return Map2(a, b, [alpha, beta](float x, float y) {
    return alpha * x + beta * y;
  });
}

void AxpyInto(const Matrix& a, float alpha, Matrix* out) {
  NMCDR_CHECK(a.SameShape(*out));
  const KernelScope scope(Kernel::kAxpyInto, 2 * Elems(a));
  CurrentBackend().AxpyInto(a, alpha, out);
}

void FirstAccumInto(const Matrix& a, Matrix* out) {
  NMCDR_CHECK(a.SameShape(*out));
  VectorAxpyOntoZero(a.data(), out->data(), a.size());
}

Matrix Scale(const Matrix& a, float s) {
  const KernelScope scope(Kernel::kScale, Elems(a));
  return Map(a, [s](float x) { return s * x; });
}

Matrix AddScalar(const Matrix& a, float s) {
  const KernelScope scope(Kernel::kAddScalar, Elems(a));
  return Map(a, [s](float x) { return x + s; });
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK_EQ(b.rows(), 1);
  NMCDR_CHECK_EQ(a.cols(), b.cols());
  const KernelScope scope(Kernel::kAddRowBroadcast, Elems(a));
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  const float* brow = b.row(0);
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    float* orow = out.row(r);
    for (int c = 0; c < a.cols(); ++c) orow[c] = arow[c] + brow[c];
  }
  return out;
}

Matrix Relu(const Matrix& a) {
  const KernelScope scope(Kernel::kRelu, Elems(a));
  return Map(a, ReluScalar);
}

Matrix Sigmoid(const Matrix& a) {
  const KernelScope scope(Kernel::kSigmoid, 4 * Elems(a));
  return Map(a, SigmoidScalar);
}

Matrix Tanh(const Matrix& a) {
  const KernelScope scope(Kernel::kTanh, 4 * Elems(a));
  return Map(a, TanhScalar);
}

Matrix Softplus(const Matrix& a) {
  const KernelScope scope(Kernel::kSoftplus, 4 * Elems(a));
  return Map(a, SoftplusScalar);
}

Matrix Exp(const Matrix& a) {
  const KernelScope scope(Kernel::kExp, 2 * Elems(a));
  return Map(a, ExpScalar);
}

Matrix Log(const Matrix& a) {
  const KernelScope scope(Kernel::kLog, 2 * Elems(a));
  return Map(a, LogScalar);
}

Matrix SoftmaxRows(const Matrix& a) {
  NMCDR_CHECK_GT(a.cols(), 0);
  const KernelScope scope(Kernel::kSoftmaxRows, 5 * Elems(a));
  const int cols = a.cols();
  Matrix out = Matrix::ForOverwrite(a.rows(), cols);
  for (int r = 0; r < a.rows(); ++r) {
    const float* in = a.row(r);
    float* o = out.row(r);
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double total = 0.0;
    for (int c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      total += o[c];
    }
    const float inv = static_cast<float>(1.0 / total);
    for (int c = 0; c < cols; ++c) o[c] *= inv;
  }
  return out;
}

Matrix RowSum(const Matrix& a) {
  const KernelScope scope(Kernel::kRowSum, Elems(a));
  Matrix out = Matrix::ForOverwrite(a.rows(), 1);
  for (int r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    const float* arow = a.row(r);
    for (int c = 0; c < a.cols(); ++c) acc += arow[c];
    out.At(r, 0) = static_cast<float>(acc);
  }
  return out;
}

Matrix RowMean(const Matrix& a) {
  NMCDR_CHECK_GT(a.cols(), 0);
  return Scale(RowSum(a), 1.f / static_cast<float>(a.cols()));
}

Matrix ColSum(const Matrix& a) {
  const KernelScope scope(Kernel::kColSum, Elems(a));
  Matrix out(1, a.cols());
  float* o = out.row(0);
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r);
    for (int c = 0; c < a.cols(); ++c) o[c] += arow[c];
  }
  return out;
}

Matrix ColMean(const Matrix& a) {
  NMCDR_CHECK_GT(a.rows(), 0);
  return Scale(ColSum(a), 1.f / static_cast<float>(a.rows()));
}

Matrix GatherRows(const Matrix& table, const std::vector<int>& ids) {
  const KernelScope scope(
      Kernel::kGatherRows,
      static_cast<int64_t>(ids.size()) * table.cols());
  const int cols = table.cols();
  Matrix out = Matrix::ForOverwrite(static_cast<int>(ids.size()), cols);
  for (size_t i = 0; i < ids.size(); ++i) {
    NMCDR_DCHECK_GE(ids[i], 0);
    NMCDR_DCHECK_LT(ids[i], table.rows());
    const float* src = table.row(ids[i]);
    float* dst = out.row(static_cast<int>(i));
    for (int c = 0; c < cols; ++c) dst[c] = src[c];
  }
  return out;
}

void ScatterAddRows(const Matrix& src, const std::vector<int>& ids,
                    Matrix* out) {
  NMCDR_CHECK_EQ(src.rows(), static_cast<int>(ids.size()));
  NMCDR_CHECK_EQ(src.cols(), out->cols());
  const KernelScope scope(Kernel::kScatterAddRows, Elems(src));
  for (const int id : ids) {
    NMCDR_CHECK_GE(id, 0);
    NMCDR_CHECK_LT(id, out->rows());
  }
  // Ascending i, so colliding ids add in a fixed order.
  for (size_t i = 0; i < ids.size(); ++i) {
    const float* s = src.row(static_cast<int>(i));
    float* d = out->row(ids[i]);
    for (int c = 0; c < src.cols(); ++c) d[c] += s[c];
  }
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK_EQ(a.rows(), b.rows());
  const KernelScope scope(Kernel::kConcatCols, Elems(a) + Elems(b));
  const int ac = a.cols(), bc = b.cols();
  Matrix out = Matrix::ForOverwrite(a.rows(), ac + bc);
  for (int r = 0; r < a.rows(); ++r) {
    float* o = out.row(r);
    const float* ar = a.row(r);
    const float* br = b.row(r);
    for (int c = 0; c < ac; ++c) o[c] = ar[c];
    for (int c = 0; c < bc; ++c) o[ac + c] = br[c];
  }
  return out;
}

Matrix RowDot(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kRowDot, 2 * Elems(a));
  Matrix out = Matrix::ForOverwrite(a.rows(), 1);
  for (int r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r);
    const float* br = b.row(r);
    double acc = 0.0;
    for (int c = 0; c < a.cols(); ++c) {
      acc += static_cast<double>(ar[c]) * br[c];
    }
    out.At(r, 0) = static_cast<float>(acc);
  }
  return out;
}

CsrMatrix::CsrMatrix(
    int rows, int cols,
    const std::vector<std::vector<std::pair<int, float>>>& row_entries)
    : rows_(rows), cols_(cols) {
  NMCDR_CHECK_EQ(static_cast<int>(row_entries.size()), rows);
  row_ptr_.resize(rows + 1, 0);
  int64_t nnz = 0;
  for (int r = 0; r < rows; ++r) {
    nnz += static_cast<int64_t>(row_entries[r].size());
    row_ptr_[r + 1] = nnz;
  }
  col_idx_.reserve(nnz);
  values_.reserve(nnz);
  for (int r = 0; r < rows; ++r) {
    for (const auto& [c, v] : row_entries[r]) {
      NMCDR_CHECK_GE(c, 0);
      NMCDR_CHECK_LT(c, cols);
      col_idx_.push_back(c);
      values_.push_back(v);
    }
  }
}

Matrix CsrMatrix::Multiply(const Matrix& x) const {
  NMCDR_CHECK_EQ(x.rows(), cols_);
  const KernelScope scope(Kernel::kSpMM, 2 * nnz() * x.cols());
  // The register-row core writes every output row (the CSR form is already
  // its gather form), so the output needs no zero fill.
  Matrix out = Matrix::ForOverwrite(rows_, x.cols());
  VectorSparseRowsMultiply(row_ptr_.data(), col_idx_.data(), values_.data(),
                           x, &out);
  return out;
}

Matrix CsrMatrix::MultiplyTransposed(const Matrix& x) const {
  NMCDR_CHECK_EQ(x.rows(), rows_);
  const KernelScope scope(Kernel::kSpMMTransposed, 2 * nnz() * x.cols());
  Matrix out(cols_, x.cols());
  for (int r = 0; r < rows_; ++r) {
    const float* xrow = x.row(r);
    for (int64_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
      NMCDR_DCHECK_GE(col_idx_[e], 0);
      NMCDR_DCHECK_LT(col_idx_[e], cols_);
      const float v = values_[e];
      float* orow = out.row(col_idx_[e]);
      for (int c = 0; c < x.cols(); ++c) orow[c] += v * xrow[c];
    }
  }
  return out;
}

}  // namespace nmcdr

#include "tensor/matrix_ops.h"

#include "obs/trace.h"
#include "tensor/backend.h"
#include "tensor/vector_kernels.h"

namespace nmcdr {

// The free functions below are thin dispatchers: they validate shapes, open
// an obs::KernelScope (call count + FLOP estimate; wall time under
// profiling), then forward to the thread/process-selected KernelBackend
// (tensor/backend.h). All backends are bit-exact with each other, so callers
// never observe the dispatch. The probes live here and NOT inside backend
// implementations, so bench_kernels — which calls backends directly — always
// times pristine kernels.
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
  return CurrentBackend().Transpose(a);
}

Matrix Add(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kAdd, Elems(a));
  return CurrentBackend().Add(a, b);
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kSub, Elems(a));
  return CurrentBackend().Sub(a, b);
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kHadamard, Elems(a));
  return CurrentBackend().Hadamard(a, b);
}

Matrix Axpby(const Matrix& a, float alpha, const Matrix& b, float beta) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kAxpby, 3 * Elems(a));
  return CurrentBackend().Axpby(a, alpha, b, beta);
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
  return CurrentBackend().Scale(a, s);
}

Matrix AddScalar(const Matrix& a, float s) {
  const KernelScope scope(Kernel::kAddScalar, Elems(a));
  return CurrentBackend().AddScalar(a, s);
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK_EQ(b.rows(), 1);
  NMCDR_CHECK_EQ(a.cols(), b.cols());
  const KernelScope scope(Kernel::kAddRowBroadcast, Elems(a));
  return CurrentBackend().AddRowBroadcast(a, b);
}

Matrix Relu(const Matrix& a) {
  const KernelScope scope(Kernel::kRelu, Elems(a));
  return CurrentBackend().Relu(a);
}

Matrix Sigmoid(const Matrix& a) {
  const KernelScope scope(Kernel::kSigmoid, 4 * Elems(a));
  return CurrentBackend().Sigmoid(a);
}

Matrix Tanh(const Matrix& a) {
  const KernelScope scope(Kernel::kTanh, 4 * Elems(a));
  return CurrentBackend().Tanh(a);
}

Matrix Softplus(const Matrix& a) {
  const KernelScope scope(Kernel::kSoftplus, 4 * Elems(a));
  return CurrentBackend().Softplus(a);
}

Matrix Exp(const Matrix& a) {
  const KernelScope scope(Kernel::kExp, 2 * Elems(a));
  return CurrentBackend().Exp(a);
}

Matrix Log(const Matrix& a) {
  const KernelScope scope(Kernel::kLog, 2 * Elems(a));
  return CurrentBackend().Log(a);
}

Matrix SoftmaxRows(const Matrix& a) {
  NMCDR_CHECK_GT(a.cols(), 0);
  const KernelScope scope(Kernel::kSoftmaxRows, 5 * Elems(a));
  return CurrentBackend().SoftmaxRows(a);
}

Matrix RowSum(const Matrix& a) {
  const KernelScope scope(Kernel::kRowSum, Elems(a));
  return CurrentBackend().RowSum(a);
}

Matrix RowMean(const Matrix& a) {
  NMCDR_CHECK_GT(a.cols(), 0);
  return Scale(RowSum(a), 1.f / static_cast<float>(a.cols()));
}

Matrix ColSum(const Matrix& a) {
  const KernelScope scope(Kernel::kColSum, Elems(a));
  return CurrentBackend().ColSum(a);
}

Matrix ColMean(const Matrix& a) {
  NMCDR_CHECK_GT(a.rows(), 0);
  return Scale(ColSum(a), 1.f / static_cast<float>(a.rows()));
}

Matrix GatherRows(const Matrix& table, const std::vector<int>& ids) {
  const KernelScope scope(
      Kernel::kGatherRows,
      static_cast<int64_t>(ids.size()) * table.cols());
  return CurrentBackend().GatherRows(table, ids);
}

void ScatterAddRows(const Matrix& src, const std::vector<int>& ids,
                    Matrix* out) {
  NMCDR_CHECK_EQ(src.rows(), static_cast<int>(ids.size()));
  NMCDR_CHECK_EQ(src.cols(), out->cols());
  const KernelScope scope(Kernel::kScatterAddRows, Elems(src));
  CurrentBackend().ScatterAddRows(src, ids, out);
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK_EQ(a.rows(), b.rows());
  const KernelScope scope(Kernel::kConcatCols, Elems(a) + Elems(b));
  return CurrentBackend().ConcatCols(a, b);
}

Matrix RowDot(const Matrix& a, const Matrix& b) {
  NMCDR_CHECK(a.SameShape(b));
  const KernelScope scope(Kernel::kRowDot, 2 * Elems(a));
  return CurrentBackend().RowDot(a, b);
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

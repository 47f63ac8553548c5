#ifndef NMCDR_TENSOR_MATRIX_OPS_H_
#define NMCDR_TENSOR_MATRIX_OPS_H_

#include <vector>

#include "tensor/matrix.h"

namespace nmcdr {

/// Dense kernels underlying the autograd ops. All functions allocate and
/// return a fresh result unless they end in `Into`, which writes into an
/// already-shaped output (accumulating where documented).
///
/// The GEMM family and AxpyInto forward to the thread's KernelBackend
/// (tensor/backend.h: serial or vector, selected per thread with
/// BackendGuard); the two are bit-exact with each other, so results do not
/// depend on the backend. Every other kernel has one implementation.

/// C = A * B. Shapes: [m,k] x [k,n] -> [m,n].
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C += A * B into pre-shaped `out` [m,n].
void MatMulAccumInto(const Matrix& a, const Matrix& b, Matrix* out);

/// C = A^T * B. Shapes: [k,m] x [k,n] -> [m,n].
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T. Shapes: [m,k] x [n,k] -> [m,n].
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// A^T.
Matrix Transpose(const Matrix& a);

/// Elementwise sum / difference / product (shapes must match).
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// a*alpha + b*beta, elementwise.
Matrix Axpby(const Matrix& a, float alpha, const Matrix& b, float beta);

/// out += a * alpha, elementwise. Shapes must match.
void AxpyInto(const Matrix& a, float alpha, Matrix* out);

/// out = 0 + 1 * a, elementwise: bitwise what AxpyInto(a, 1.f, out) leaves
/// in a zero-filled `out` (-0 becomes +0 and NaNs are quieted; every other
/// value passes through), in one pass that never reads `out` — which may
/// be unfilled (Matrix::ForOverwrite) or `a` itself. The first gradient
/// accumulation into an empty grad stores this.
void FirstAccumInto(const Matrix& a, Matrix* out);

/// Scalar multiply / add.
Matrix Scale(const Matrix& a, float s);
Matrix AddScalar(const Matrix& a, float s);

/// Adds row vector `b` (1 x cols) to every row of `a`.
Matrix AddRowBroadcast(const Matrix& a, const Matrix& b);

/// Elementwise nonlinearities.
Matrix Relu(const Matrix& a);
Matrix Sigmoid(const Matrix& a);
Matrix Tanh(const Matrix& a);
Matrix Softplus(const Matrix& a);
Matrix Exp(const Matrix& a);
Matrix Log(const Matrix& a);  // log(max(a, tiny)) for numerical safety

/// Row-wise softmax.
Matrix SoftmaxRows(const Matrix& a);

/// Sum of each row -> [rows, 1]; mean of each row -> [rows, 1].
Matrix RowSum(const Matrix& a);
Matrix RowMean(const Matrix& a);

/// Column-wise sum -> [1, cols]. Used for bias gradients.
Matrix ColSum(const Matrix& a);

/// Mean of all rows -> [1, cols].
Matrix ColMean(const Matrix& a);

/// Gathers rows of `table` by index -> [ids.size(), table.cols()].
Matrix GatherRows(const Matrix& table, const std::vector<int>& ids);

/// out.row(ids[i]) += src.row(i) for all i. Used by embedding backward.
void ScatterAddRows(const Matrix& src, const std::vector<int>& ids,
                    Matrix* out);

/// Horizontal concat [m, c1] ++ [m, c2] -> [m, c1+c2].
Matrix ConcatCols(const Matrix& a, const Matrix& b);

/// Per-row dot product of equally shaped matrices -> [rows, 1].
Matrix RowDot(const Matrix& a, const Matrix& b);

/// Compressed sparse row matrix used for graph adjacency propagation:
/// exactly the normalized bipartite/user-user adjacencies of Eqs. 3, 8, 13.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from per-row (col, value) lists. `cols` is the dense width.
  CsrMatrix(int rows, int cols,
            const std::vector<std::vector<std::pair<int, float>>>& row_entries);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  /// Row pointer / column / value raw views.
  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// Y = A * X (dense X [cols, d] -> Y [rows, d]). Each output row sums
  /// its entries in CSR order from +0.0 (VectorSparseRowsMultiply), under
  /// either kernel backend.
  Matrix Multiply(const Matrix& x) const;

  /// Y = A^T * X (dense X [rows, d] -> Y [cols, d]).
  Matrix MultiplyTransposed(const Matrix& x) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<float> values_;
};

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_MATRIX_OPS_H_

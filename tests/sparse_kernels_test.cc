// Bitwise equivalence sweeps for the register-row sparse cores
// (tensor/vector_kernels.h): SpMM forward (CsrMatrix::Multiply), the graph
// program's planned CSR^T backward, and NeighborAttention forward and
// backward. The oracles below are the scalar loops those call sites ran
// before the cores existed, kept verbatim apart from taking their inputs as
// parameters; each core must reproduce them bit for bit, including on
// empty rows and lists, duplicate candidates, ragged widths, and ±0, ±Inf
// and NaN inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tensor.h"
#include "program/program.h"
#include "tensor/matrix.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tensor/vector_kernels.h"

namespace nmcdr {
namespace {

/// Bit-for-bit equality, except that any NaN matches any NaN. When both
/// operands of an add or multiply are NaN, x86 returns the first one, and
/// the compiler is free to commute the operands of either; so a NaN's sign
/// and payload are the compiler's choice, in the scalar loops as much as in
/// the cores. Every other value, ±0 and ±Inf included, must match exactly.
bool SameBits(float x, float y) {
  return std::memcmp(&x, &y, sizeof(float)) == 0 ||
         (std::isnan(x) && std::isnan(y));
}

::testing::AssertionResult BitEqual(const float* a, const float* b, int n) {
  for (int i = 0; i < n; ++i) {
    if (!SameBits(a[i], b[i])) {
      return ::testing::AssertionFailure() << "first differing element " << i
                                           << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  return BitEqual(a.data(), b.data(), a.size());
}

const float kInf = std::numeric_limits<float>::infinity();
const float kNaN = std::numeric_limits<float>::quiet_NaN();

/// Uniform values with a sprinkling of exact zeros; with `specials`, also
/// ±0, ±Inf and NaN.
Matrix RandomMatrix(int rows, int cols, Rng* rng, bool specials) {
  static const float kSpecials[] = {0.f, -0.f, kInf, -kInf, kNaN};
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    if (specials && rng->Bernoulli(0.05)) {
      m.data()[i] = kSpecials[rng->NextUint64(5)];
    } else {
      m.data()[i] = rng->Bernoulli(0.1) ? 0.f : rng->Uniform(-2.f, 2.f);
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Oracles.

/// CsrMatrix::Multiply's former body.
Matrix OracleSpMM(const CsrMatrix& a, const Matrix& x) {
  const std::vector<int64_t>& row_ptr_ = a.row_ptr();
  const std::vector<int>& col_idx_ = a.col_idx();
  const std::vector<float>& values_ = a.values();
  Matrix out(a.rows(), x.cols());
  for (int r = 0; r < a.rows(); ++r) {
    float* orow = out.row(r);
    for (int64_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
      const float v = values_[e];
      const float* xrow = x.row(col_idx_[e]);
      for (int c = 0; c < x.cols(); ++c) orow[c] += v * xrow[c];
    }
  }
  return out;
}

/// The gather form of A^T the graph program plans for SpMM backward
/// (GraphProgram::BuildPlan's counting sort).
struct GatherT {
  int cols = 0;
  std::vector<int64_t> t_row_ptr;
  std::vector<int> t_src_row;
  std::vector<float> t_val;
};

GatherT BuildGatherT(const CsrMatrix& csr) {
  GatherT plan;
  plan.cols = csr.cols();
  const int64_t nnz = csr.nnz();
  plan.t_row_ptr.assign(static_cast<size_t>(plan.cols) + 1, 0);
  plan.t_src_row.assign(static_cast<size_t>(nnz), 0);
  plan.t_val.assign(static_cast<size_t>(nnz), 0.f);
  for (int64_t e = 0; e < nnz; ++e) ++plan.t_row_ptr[csr.col_idx()[e] + 1];
  for (int c = 0; c < plan.cols; ++c) {
    plan.t_row_ptr[c + 1] += plan.t_row_ptr[c];
  }
  std::vector<int64_t> fill(plan.t_row_ptr.begin(), plan.t_row_ptr.end() - 1);
  for (int r = 0; r < csr.rows(); ++r) {
    for (int64_t e = csr.row_ptr()[r]; e < csr.row_ptr()[r + 1]; ++e) {
      const int64_t slot = fill[csr.col_idx()[e]]++;
      plan.t_src_row[slot] = r;
      plan.t_val[slot] = csr.values()[e];
    }
  }
  return plan;
}

/// The planned SpMM backward closure's former body.
Matrix OracleGatherTBackward(const GatherT* plan, const Matrix& g) {
  Matrix dx(plan->cols, g.cols());
  for (int c = 0; c < plan->cols; ++c) {
    float* orow = dx.row(c);
    for (int64_t e = plan->t_row_ptr[c]; e < plan->t_row_ptr[c + 1]; ++e) {
      const float v = plan->t_val[e];
      const float* grow = g.row(plan->t_src_row[e]);
      for (int j = 0; j < g.cols(); ++j) orow[j] += v * grow[j];
    }
  }
  return dx;
}

/// ag::NeighborAttention's former forward body.
void OracleAttentionForward(const Matrix& u, const Matrix& v,
                            const std::vector<std::vector<int>>* candidates,
                            std::vector<std::vector<float>>* alpha,
                            Matrix* result) {
  const int n = u.rows();
  const int d = u.cols();
  alpha->assign(n, {});
  Matrix out(n, d);
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& cand = (*candidates)[i];
    if (cand.empty()) continue;
    std::vector<float>& a = (*alpha)[i];
    a.resize(cand.size());
    const float* ur = u.row(i);
    float mx = -1e30f;
    for (size_t j = 0; j < cand.size(); ++j) {
      const float* vr = v.row(cand[j]);
      double s = 0.0;
      for (int c = 0; c < d; ++c) s += static_cast<double>(ur[c]) * vr[c];
      a[j] = static_cast<float>(s);
      mx = std::max(mx, a[j]);
    }
    double total = 0.0;
    for (float& s : a) {
      s = std::exp(s - mx);
      total += s;
    }
    const float inv = static_cast<float>(1.0 / total);
    float* o = out.row(i);
    for (size_t j = 0; j < cand.size(); ++j) {
      a[j] *= inv;
      const float* vr = v.row(cand[j]);
      for (int c = 0; c < d; ++c) o[c] += a[j] * vr[c];
    }
  }
  *result = std::move(out);
}

/// ag::NeighborAttention's former backward closure body.
void OracleAttentionBackward(const Matrix& u, const Matrix& v,
                             const std::vector<std::vector<int>>* candidates,
                             const std::vector<std::vector<float>>* alpha,
                             const Matrix& grad, Matrix* du_out,
                             Matrix* dv_out) {
  const int n = u.rows();
  const int d = u.cols();
  Matrix du(u.rows(), d), dv(v.rows(), d);
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& cand = (*candidates)[i];
    if (cand.empty()) continue;
    const std::vector<float>& a = (*alpha)[i];
    const float* g = grad.row(i);
    const float* ur = u.row(i);
    // gv_j = g . v_j for each candidate; gvbar = sum_j a_j gv_j.
    std::vector<float> gv(cand.size());
    double gvbar = 0.0;
    for (size_t j = 0; j < cand.size(); ++j) {
      const float* vr = v.row(cand[j]);
      double s = 0.0;
      for (int c = 0; c < d; ++c) s += static_cast<double>(g[c]) * vr[c];
      gv[j] = static_cast<float>(s);
      gvbar += a[j] * s;
    }
    float* dur = du.row(i);
    for (size_t j = 0; j < cand.size(); ++j) {
      // dL/ds_ij = a_j (gv_j - gvbar)
      const float ds = a[j] * (gv[j] - static_cast<float>(gvbar));
      const float* vr = v.row(cand[j]);
      float* dvr = dv.row(cand[j]);
      for (int c = 0; c < d; ++c) {
        dur[c] += ds * vr[c];
        // dv gets the score-path term plus the direct convex-mix term.
        dvr[c] += ds * ur[c] + a[j] * g[c];
      }
    }
  }
  *du_out = std::move(du);
  *dv_out = std::move(dv);
}

// ---------------------------------------------------------------------------
// SpMM.

/// A rows x cols adjacency with every fourth row empty and the rest holding
/// 1..2*cols entries (duplicate columns allowed), values including exact
/// zeros and negative zero.
std::shared_ptr<const CsrMatrix> RandomCsr(int rows, int cols, Rng* rng) {
  std::vector<std::vector<std::pair<int, float>>> entries(rows);
  for (int r = 0; r < rows; ++r) {
    if (r % 4 == 1) continue;
    const int nnz = 1 + static_cast<int>(rng->NextUint64(2 * cols));
    for (int e = 0; e < nnz; ++e) {
      const int c = static_cast<int>(rng->NextUint64(cols));
      float val = rng->Uniform(-1.f, 1.f);
      if (rng->Bernoulli(0.05)) val = rng->Bernoulli(0.5) ? 0.f : -0.f;
      entries[r].push_back({c, val});
    }
  }
  return std::make_shared<const CsrMatrix>(rows, cols, entries);
}

const int kWidths[] = {1, 7, 8, 16, 17, 32};

TEST(SparseKernelTest, SpMMForwardMatchesOracle) {
  Rng rng(5);
  for (const bool specials : {false, true}) {
    for (const int d : kWidths) {
      SCOPED_TRACE("width " + std::to_string(d) +
                   (specials ? " with specials" : ""));
      const auto a = RandomCsr(23, 11, &rng);
      const Matrix x = RandomMatrix(11, d, &rng, specials);
      EXPECT_TRUE(BitEqual(OracleSpMM(*a, x), a->Multiply(x)));
    }
  }
}

TEST(SparseKernelTest, PlannedSpMMBackwardMatchesOracle) {
  Rng rng(6);
  for (const bool specials : {false, true}) {
    for (const int d : kWidths) {
      SCOPED_TRACE("width " + std::to_string(d) +
                   (specials ? " with specials" : ""));
      // More output columns than rows, so some A^T rows are empty.
      const auto a = RandomCsr(9, 30, &rng);
      const GatherT plan = BuildGatherT(*a);
      const Matrix g = RandomMatrix(9, d, &rng, specials);
      const Matrix want = OracleGatherTBackward(&plan, g);
      Matrix got = Matrix::ForOverwrite(plan.cols, d);
      VectorSparseRowsMultiply(plan.t_row_ptr.data(), plan.t_src_row.data(),
                               plan.t_val.data(), g, &got);
      EXPECT_TRUE(BitEqual(want, got));
      // The gather form keeps the eager scatter loop's order too.
      EXPECT_TRUE(BitEqual(a->MultiplyTransposed(g), got));
    }
  }
}

TEST(SparseKernelTest, ReplayedSpMMBackwardMatchesOracle) {
  Rng rng(7);
  const auto a = RandomCsr(13, 10, &rng);
  const GatherT plan = BuildGatherT(*a);
  for (const int d : kWidths) {
    SCOPED_TRACE("width " + std::to_string(d));
    auto step = [&](const Matrix& x_val, const Matrix& seed) {
      ag::Tensor x(x_val, /*requires_grad=*/true);
      ag::Tensor y = ag::SpMM(a, x);
      ag::Backward(ag::Sum(ag::Hadamard(y, ag::Tensor(seed))));
      return x.grad();
    };
    const Matrix x0 = RandomMatrix(10, d, &rng, false);
    const Matrix x1 = RandomMatrix(10, d, &rng, false);
    const Matrix seed = RandomMatrix(13, d, &rng, false);
    prog::GraphProgram program;
    {
      prog::GraphProgram::RecordScope record(&program);
      (void)step(x0, seed);
    }
    ASSERT_TRUE(program.usable());
    prog::GraphProgram::ReplayScope replay(&program);
    const Matrix got = step(x1, seed);
    ASSERT_TRUE(replay.replayed());
    // y's grad is `seed` (a Hadamard with a leaf) and x's the planned
    // backward of it, each normalized once by its first accumulation.
    Matrix gy = seed;
    FirstAccumInto(gy, &gy);
    Matrix want = OracleGatherTBackward(&plan, gy);
    FirstAccumInto(want, &want);
    EXPECT_TRUE(BitEqual(want, got));
  }
}

// ---------------------------------------------------------------------------
// NeighborAttention.

/// n users' candidate lists over `items` items: list i has lengths[i %
/// size] entries; every list after the first empty one draws from a small
/// pool so duplicates are common.
std::vector<std::vector<int>> RandomLists(int n, int items,
                                          const std::vector<int>& lengths,
                                          Rng* rng) {
  std::vector<std::vector<int>> lists(n);
  for (int i = 0; i < n; ++i) {
    const int len = lengths[i % lengths.size()];
    const int pool = i % 3 == 0 ? 4 : items;
    for (int j = 0; j < len; ++j) {
      lists[i].push_back(static_cast<int>(rng->NextUint64(pool)));
    }
  }
  return lists;
}

int TotalLength(const std::vector<std::vector<int>>& lists) {
  int total = 0;
  for (const std::vector<int>& l : lists) total += static_cast<int>(l.size());
  return total;
}

std::vector<float> Flatten(const std::vector<std::vector<float>>& alpha) {
  std::vector<float> flat;
  for (const std::vector<float>& a : alpha) {
    flat.insert(flat.end(), a.begin(), a.end());
  }
  return flat;
}

const int kAttnWidths[] = {4, 16, 17};
const std::vector<int> kListLengths = {1, 15, 0, 16, 17, 33};

TEST(SparseKernelTest, NeighborAttentionForwardMatchesOracle) {
  Rng rng(8);
  for (const bool specials : {false, true}) {
    for (const int d : kAttnWidths) {
      SCOPED_TRACE("width " + std::to_string(d) +
                   (specials ? " with specials" : ""));
      const int n = 12, items = 40;
      const auto lists = RandomLists(n, items, kListLengths, &rng);
      const Matrix u = RandomMatrix(n, d, &rng, specials);
      const Matrix v = RandomMatrix(items, d, &rng, specials);

      std::vector<std::vector<float>> want_alpha;
      Matrix want;
      OracleAttentionForward(u, v, &lists, &want_alpha, &want);

      std::vector<float> alpha(TotalLength(lists));
      Matrix got = Matrix::ForOverwrite(n, d);
      VectorNeighborAttentionForward(u, v, lists, alpha.data(), &got);
      EXPECT_TRUE(BitEqual(want, got));
      const std::vector<float> want_flat = Flatten(want_alpha);
      ASSERT_EQ(want_flat.size(), alpha.size());
      EXPECT_TRUE(BitEqual(want_flat.data(), alpha.data(),
                           static_cast<int>(alpha.size())));
    }
  }
}

TEST(SparseKernelTest, NeighborAttentionBackwardMatchesOracle) {
  Rng rng(9);
  for (const bool specials : {false, true}) {
    for (const int d : kAttnWidths) {
      SCOPED_TRACE("width " + std::to_string(d) +
                   (specials ? " with specials" : ""));
      const int n = 12, items = 40;
      const auto lists = RandomLists(n, items, kListLengths, &rng);
      const Matrix u = RandomMatrix(n, d, &rng, specials);
      const Matrix v = RandomMatrix(items, d, &rng, specials);
      const Matrix g = RandomMatrix(n, d, &rng, specials);

      std::vector<std::vector<float>> alpha;
      Matrix out;
      OracleAttentionForward(u, v, &lists, &alpha, &out);
      Matrix want_du, want_dv;
      OracleAttentionBackward(u, v, &lists, &alpha, g, &want_du, &want_dv);

      const std::vector<float> flat = Flatten(alpha);
      std::vector<float> ds(flat.size());
      Matrix du = Matrix::ForOverwrite(n, d);
      Matrix dv(items, d);
      VectorNeighborAttentionBackward(u, v, lists, flat.data(), g, ds.data(),
                                      &du, &dv);
      EXPECT_TRUE(BitEqual(want_du, du));
      EXPECT_TRUE(BitEqual(want_dv, dv));
    }
  }
}

/// The op end to end, eager and replayed from the arena: forward value and
/// both input grads match the oracle (grads normalized once by their first
/// accumulation, as AccumulateGrad always did).
TEST(SparseKernelTest, NeighborAttentionOpMatchesOracle) {
  Rng rng(10);
  const int n = 9, items = 30;
  for (const int d : kAttnWidths) {
    SCOPED_TRACE("width " + std::to_string(d));
    const auto lists = std::make_shared<const std::vector<std::vector<int>>>(
        RandomLists(n, items, kListLengths, &rng));
    const Matrix seed = RandomMatrix(n, d, &rng, false);
    auto step = [&](const Matrix& u_val, const Matrix& v_val, Matrix* out,
                    Matrix* du, Matrix* dv) {
      ag::Tensor u(u_val, /*requires_grad=*/true);
      ag::Tensor v(v_val, /*requires_grad=*/true);
      ag::Tensor y = ag::NeighborAttention(u, v, lists);
      *out = y.value();
      ag::Backward(ag::Sum(ag::Hadamard(y, ag::Tensor(seed))));
      *du = u.grad();
      *dv = v.grad();
    };
    Matrix gy = seed;
    FirstAccumInto(gy, &gy);
    auto check = [&](const Matrix& u_val, const Matrix& v_val,
                     const Matrix& out, const Matrix& du, const Matrix& dv) {
      std::vector<std::vector<float>> alpha;
      Matrix want, want_du, want_dv;
      OracleAttentionForward(u_val, v_val, lists.get(), &alpha, &want);
      OracleAttentionBackward(u_val, v_val, lists.get(), &alpha, gy,
                              &want_du, &want_dv);
      FirstAccumInto(want_du, &want_du);
      FirstAccumInto(want_dv, &want_dv);
      EXPECT_TRUE(BitEqual(want, out));
      EXPECT_TRUE(BitEqual(want_du, du));
      EXPECT_TRUE(BitEqual(want_dv, dv));
    };

    const Matrix u0 = RandomMatrix(n, d, &rng, false);
    const Matrix v0 = RandomMatrix(items, d, &rng, false);
    Matrix out, du, dv;
    prog::GraphProgram program;
    {
      prog::GraphProgram::RecordScope record(&program);
      step(u0, v0, &out, &du, &dv);
    }
    check(u0, v0, out, du, dv);
    ASSERT_TRUE(program.usable());

    const Matrix u1 = RandomMatrix(n, d, &rng, false);
    const Matrix v1 = RandomMatrix(items, d, &rng, false);
    prog::GraphProgram::ReplayScope replay(&program);
    step(u1, v1, &out, &du, &dv);
    ASSERT_TRUE(replay.replayed());
    check(u1, v1, out, du, dv);
  }
}

}  // namespace
}  // namespace nmcdr

#include "tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "tensor/fused_kernels.h"
#include "tensor/scalar_kernels.h"
#include "tensor/vector_kernels.h"

namespace nmcdr {
namespace {

/// Minimum scalar work per ParallelFor chunk. Below roughly this many
/// flops the fork/join handshake costs more than the loop; tiny kernels
/// therefore collapse to a single chunk and run inline on the caller.
constexpr int64_t kMinWorkPerChunk = 1 << 15;

/// Rows (or columns / flat elements) per chunk for a kernel whose
/// per-row cost is `cost_per_row` scalar ops.
int64_t GrainFor(int64_t cost_per_row) {
  return std::max<int64_t>(1, kMinWorkPerChunk / std::max<int64_t>(1, cost_per_row));
}

// ---------------------------------------------------------------------------
// Range kernels. Each computes output rows/columns/elements [begin, end)
// with the exact floating-point operation order of the seed repo's serial
// loops, so a sharded run is bit-identical to the serial one regardless of
// chunk boundaries (every output element lives in exactly one chunk).
// ---------------------------------------------------------------------------

/// ikj loop order: streams over B and C rows, cache-friendly row-major.
void MatMulAccumRows(const Matrix& a, const Matrix& b, Matrix* out,
                     int64_t r0, int64_t r1) {
  const int k = a.cols(), n = b.cols();
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = a.row(static_cast<int>(i));
    float* crow = out->row(static_cast<int>(i));
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.f) continue;
      const float* brow = b.row(p);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// (The row-range TransA kernel the parallel backend used to shard is
// gone: both the vector backend and the tile-sharded parallel path now
// run VectorMatMulTransATile, whose per-element chain — ascending p with
// the zero skip — still matches the serial p-outer reference below.)

void MatMulTransBRows(const Matrix& a, const Matrix& b, Matrix* out,
                      int64_t r0, int64_t r1) {
  const int k = a.cols(), n = b.rows();
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = a.row(static_cast<int>(i));
    float* crow = out->row(static_cast<int>(i));
    for (int j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += static_cast<double>(arow[p]) * brow[p];
      crow[j] = static_cast<float>(acc);
    }
  }
}

// The register-blocked GEMM cores and fused range kernels that replay
// these loops live in fused_kernels.cc (same operation sequence per output
// element, compiled at a higher optimization level — see the note there
// and in CMakeLists.txt).

/// Source rows [r0, r1): out(c, r) = a(r, c). A pure copy, so any shard
/// order is bit-exact; sharding by source row keeps reads streaming.
void TransposeRows(const Matrix& a, Matrix* out, int64_t r0, int64_t r1) {
  const int cols = a.cols(), rows = a.rows();
  for (int64_t r = r0; r < r1; ++r) {
    const float* arow = a.row(static_cast<int>(r));
    float* base = out->data() + r;
    for (int c = 0; c < cols; ++c) base[static_cast<size_t>(c) * rows] = arow[c];
  }
}

template <typename F>
void EwRange(const Matrix& a, Matrix* out, int64_t i0, int64_t i1, F f) {
  const float* in = a.data();
  float* o = out->data();
  for (int64_t i = i0; i < i1; ++i) o[i] = f(in[i]);
}

template <typename F>
void Ew2Range(const Matrix& a, const Matrix& b, Matrix* out, int64_t i0,
              int64_t i1, F f) {
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out->data();
  for (int64_t i = i0; i < i1; ++i) o[i] = f(pa[i], pb[i]);
}

void AxpyRange(const Matrix& a, float alpha, Matrix* out, int64_t i0,
               int64_t i1) {
  const float* in = a.data();
  float* o = out->data();
  for (int64_t i = i0; i < i1; ++i) o[i] += alpha * in[i];
}

void AddRowBroadcastRows(const Matrix& a, const Matrix& b, Matrix* out,
                         int64_t r0, int64_t r1) {
  const int cols = a.cols();
  const float* brow = b.row(0);
  for (int64_t r = r0; r < r1; ++r) {
    const float* arow = a.row(static_cast<int>(r));
    float* orow = out->row(static_cast<int>(r));
    for (int c = 0; c < cols; ++c) orow[c] = arow[c] + brow[c];
  }
}

void SoftmaxRowsRange(const Matrix& a, Matrix* out, int64_t r0, int64_t r1) {
  const int cols = a.cols();
  for (int64_t r = r0; r < r1; ++r) {
    const float* in = a.row(static_cast<int>(r));
    float* o = out->row(static_cast<int>(r));
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
}

void RowSumRange(const Matrix& a, Matrix* out, int64_t r0, int64_t r1) {
  const int cols = a.cols();
  for (int64_t r = r0; r < r1; ++r) {
    double acc = 0.0;
    const float* arow = a.row(static_cast<int>(r));
    for (int c = 0; c < cols; ++c) acc += arow[c];
    out->At(static_cast<int>(r), 0) = static_cast<float>(acc);
  }
}

void RowDotRange(const Matrix& a, const Matrix& b, Matrix* out, int64_t r0,
                 int64_t r1) {
  const int cols = a.cols();
  for (int64_t r = r0; r < r1; ++r) {
    const float* ar = a.row(static_cast<int>(r));
    const float* br = b.row(static_cast<int>(r));
    double acc = 0.0;
    for (int c = 0; c < cols; ++c) acc += static_cast<double>(ar[c]) * br[c];
    out->At(static_cast<int>(r), 0) = static_cast<float>(acc);
  }
}

/// Columns [c0, c1): each column accumulates its rows in ascending row
/// order — the same per-column addition sequence as the serial row-outer
/// loop, so the column-sharded reduction is bit-exact.
void ColSumCols(const Matrix& a, Matrix* out, int64_t c0, int64_t c1) {
  const int rows = a.rows();
  float* o = out->row(0);
  for (int r = 0; r < rows; ++r) {
    const float* arow = a.row(r);
    for (int64_t c = c0; c < c1; ++c) o[c] += arow[c];
  }
}

void GatherRowsRange(const Matrix& table, const std::vector<int>& ids,
                     Matrix* out, int64_t i0, int64_t i1) {
  const int cols = table.cols();
  for (int64_t i = i0; i < i1; ++i) {
    NMCDR_DCHECK_GE(ids[i], 0);
    NMCDR_DCHECK_LT(ids[i], table.rows());
    const float* src = table.row(ids[i]);
    float* dst = out->row(static_cast<int>(i));
    for (int c = 0; c < cols; ++c) dst[c] = src[c];
  }
}

/// Destination rows [d0, d1): scans the whole id list and applies only the
/// updates landing in this shard. Per destination row the updates happen
/// in ascending i — the serial order — so colliding ids reduce bit-exactly
/// while shards never write the same row.
void ScatterAddDestRows(const Matrix& src, const std::vector<int>& ids,
                        Matrix* out, int64_t d0, int64_t d1) {
  const int cols = src.cols();
  for (size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    if (id < d0 || id >= d1) continue;
    const float* s = src.row(static_cast<int>(i));
    float* d = out->row(id);
    for (int c = 0; c < cols; ++c) d[c] += s[c];
  }
}

void ConcatColsRows(const Matrix& a, const Matrix& b, Matrix* out, int64_t r0,
                    int64_t r1) {
  const int ac = a.cols(), bc = b.cols();
  for (int64_t r = r0; r < r1; ++r) {
    float* o = out->row(static_cast<int>(r));
    const float* ar = a.row(static_cast<int>(r));
    const float* br = b.row(static_cast<int>(r));
    for (int c = 0; c < ac; ++c) o[c] = ar[c];
    for (int c = 0; c < bc; ++c) o[ac + c] = br[c];
  }
}

// Scalar activation bodies (ReluScalar etc.) come from scalar_kernels.h;
// the fused range kernels and planned GEMM cores from fused_kernels.h;
// the vectorized GEMM tile cores from vector_kernels.h.

/// Runs a GEMM tile core over the 2-D output grid MakeGemmTileGrid picks
/// for this pool, fanning the flattened tile index out over ParallelFor.
/// Bit-exact for any grid: the vector cores compute each output element
/// with the serial reference's IEEE sequence, and every element lives in
/// exactly one tile.
template <typename TileFn>
void TiledGemm(ThreadPool* pool, int64_t rows, int64_t cols, int64_t k,
               TileFn tile) {
  const GemmTileGrid grid =
      MakeGemmTileGrid(rows, cols, k, pool->num_threads());
  pool->ParallelFor(0, grid.num_tiles(), /*grain=*/1,
                    [&](int64_t t0, int64_t t1) {
                      for (int64_t t = t0; t < t1; ++t) {
                        int64_t r0, r1, c0, c1;
                        grid.TileBounds(t, &r0, &r1, &c0, &c1);
                        tile(r0, r1, c0, c1);
                      }
                    });
}

}  // namespace

// ---------------------------------------------------------------------------
// SerialBackend: the range kernels over the full range on the caller.
//
// A kernel that writes every output element allocates its output with
// Matrix::ForOverwrite (unfilled inside the replay arena); one that adds
// into its output (the p-outer TransA loop, ColSum) keeps the zero-filled
// constructor. The other backends follow the same rule.
// ---------------------------------------------------------------------------

void SerialBackend::MatMulAccumInto(const Matrix& a, const Matrix& b,
                                    Matrix* out) const {
  MatMulAccumRows(a, b, out, 0, a.rows());
}

Matrix SerialBackend::MatMulTransA(const Matrix& a, const Matrix& b) const {
  // p-outer streaming loop (reads each A/B row once); per output element
  // the accumulation order is ascending p, identical to MatMulTransARows.
  const int k = a.rows(), m = a.cols(), n = b.cols();
  Matrix out(m, n);
  for (int p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.f) continue;
      float* crow = out.row(i);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return out;
}

Matrix SerialBackend::MatMulTransB(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), b.rows());
  MatMulTransBRows(a, b, &out, 0, a.rows());
  return out;
}

Matrix SerialBackend::Transpose(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.cols(), a.rows());
  TransposeRows(a, &out, 0, a.rows());
  return out;
}

Matrix SerialBackend::Add(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  Ew2Range(a, b, &out, 0, a.size(), [](float x, float y) { return x + y; });
  return out;
}

Matrix SerialBackend::Sub(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  Ew2Range(a, b, &out, 0, a.size(), [](float x, float y) { return x - y; });
  return out;
}

Matrix SerialBackend::Hadamard(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  Ew2Range(a, b, &out, 0, a.size(), [](float x, float y) { return x * y; });
  return out;
}

Matrix SerialBackend::Axpby(const Matrix& a, float alpha, const Matrix& b,
                            float beta) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  Ew2Range(a, b, &out, 0, a.size(), [alpha, beta](float x, float y) {
    return alpha * x + beta * y;
  });
  return out;
}

void SerialBackend::AxpyInto(const Matrix& a, float alpha, Matrix* out) const {
  AxpyRange(a, alpha, out, 0, a.size());
}

Matrix SerialBackend::Scale(const Matrix& a, float s) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  EwRange(a, &out, 0, a.size(), [s](float x) { return s * x; });
  return out;
}

Matrix SerialBackend::AddScalar(const Matrix& a, float s) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  EwRange(a, &out, 0, a.size(), [s](float x) { return x + s; });
  return out;
}

Matrix SerialBackend::AddRowBroadcast(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  AddRowBroadcastRows(a, b, &out, 0, a.rows());
  return out;
}

Matrix SerialBackend::Relu(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  EwRange(a, &out, 0, a.size(), ReluScalar);
  return out;
}

Matrix SerialBackend::Sigmoid(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  EwRange(a, &out, 0, a.size(), SigmoidScalar);
  return out;
}

Matrix SerialBackend::Tanh(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  EwRange(a, &out, 0, a.size(), TanhScalar);
  return out;
}

Matrix SerialBackend::Softplus(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  EwRange(a, &out, 0, a.size(), SoftplusScalar);
  return out;
}

Matrix SerialBackend::Exp(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  EwRange(a, &out, 0, a.size(), ExpScalar);
  return out;
}

Matrix SerialBackend::Log(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  EwRange(a, &out, 0, a.size(), LogScalar);
  return out;
}

Matrix SerialBackend::SoftmaxRows(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  SoftmaxRowsRange(a, &out, 0, a.rows());
  return out;
}

Matrix SerialBackend::RowSum(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), 1);
  RowSumRange(a, &out, 0, a.rows());
  return out;
}

Matrix SerialBackend::RowDot(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), 1);
  RowDotRange(a, b, &out, 0, a.rows());
  return out;
}

Matrix SerialBackend::ColSum(const Matrix& a) const {
  Matrix out(1, a.cols());
  ColSumCols(a, &out, 0, a.cols());
  return out;
}

Matrix SerialBackend::GatherRows(const Matrix& table,
                                 const std::vector<int>& ids) const {
  Matrix out =
      Matrix::ForOverwrite(static_cast<int>(ids.size()), table.cols());
  GatherRowsRange(table, ids, &out, 0, static_cast<int64_t>(ids.size()));
  return out;
}

void SerialBackend::ScatterAddRows(const Matrix& src,
                                   const std::vector<int>& ids,
                                   Matrix* out) const {
  for (size_t i = 0; i < ids.size(); ++i) {
    NMCDR_CHECK_GE(ids[i], 0);
    NMCDR_CHECK_LT(ids[i], out->rows());
  }
  ScatterAddDestRows(src, ids, out, 0, out->rows());
}

Matrix SerialBackend::ConcatCols(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols() + b.cols());
  ConcatColsRows(a, b, &out, 0, a.rows());
  return out;
}

void SerialBackend::FusedMatMulBiasActInto(const Matrix& a, const Matrix& b,
                                           const Matrix* bias, FusedAct act,
                                           Matrix* out) const {
  FusedMatMulRows(a, b, bias, act, out, 0, a.rows());
}

void SerialBackend::FusedEltwiseInto(const Matrix& a, const EltwiseStep* steps,
                                     int num_steps, Matrix* out) const {
  FusedEltwiseRange(a, steps, num_steps, out, 0, a.size());
}

Matrix SerialBackend::PlannedMatMulTransA(const Matrix& a,
                                          const Matrix& b) const {
  Matrix out(a.cols(), b.cols());
  PlannedMatMulTransARows(a, b, &out, 0, a.cols());
  return out;
}

Matrix SerialBackend::PlannedMatMulTransB(const Matrix& a,
                                          const Matrix& b) const {
  // Transposing B once costs k*n float moves against the m*k*n GEMM and
  // buys contiguous tile loads; the per-element double chain is untouched.
  Matrix bt = Matrix::ForOverwrite(b.cols(), b.rows());
  TransposeRows(b, &bt, 0, b.rows());
  Matrix out = Matrix::ForOverwrite(a.rows(), b.rows());
  PlannedMatMulTransBRows(a, bt, &out, 0, a.rows());
  return out;
}

// ---------------------------------------------------------------------------
// VectorBackend: the explicitly vectorized tile cores over the full output
// on the caller's thread. Outside the GEMM family only AxpyInto (gradient
// accumulation, hundreds of calls per training step) has lane code; the
// rest delegates to the serial reference.
// ---------------------------------------------------------------------------

void VectorBackend::MatMulAccumInto(const Matrix& a, const Matrix& b,
                                    Matrix* out) const {
  VectorMatMulAccumTile(a, b, out, 0, a.rows(), 0, b.cols());
}

Matrix VectorBackend::MatMulTransA(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.cols(), b.cols());
  VectorMatMulTransATile(a, b, &out, 0, a.cols(), 0, b.cols());
  return out;
}

Matrix VectorBackend::MatMulTransB(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), b.rows());
  VectorMatMulTransBTile(a, b, &out, 0, a.rows(), 0, b.rows());
  return out;
}

Matrix VectorBackend::Transpose(const Matrix& a) const {
  return SerialKernelBackend().Transpose(a);
}

Matrix VectorBackend::Add(const Matrix& a, const Matrix& b) const {
  return SerialKernelBackend().Add(a, b);
}

Matrix VectorBackend::Sub(const Matrix& a, const Matrix& b) const {
  return SerialKernelBackend().Sub(a, b);
}

Matrix VectorBackend::Hadamard(const Matrix& a, const Matrix& b) const {
  return SerialKernelBackend().Hadamard(a, b);
}

Matrix VectorBackend::Axpby(const Matrix& a, float alpha, const Matrix& b,
                            float beta) const {
  return SerialKernelBackend().Axpby(a, alpha, b, beta);
}

void VectorBackend::AxpyInto(const Matrix& a, float alpha, Matrix* out) const {
  VectorAxpyInto(a, alpha, out);
}

Matrix VectorBackend::Scale(const Matrix& a, float s) const {
  return SerialKernelBackend().Scale(a, s);
}

Matrix VectorBackend::AddScalar(const Matrix& a, float s) const {
  return SerialKernelBackend().AddScalar(a, s);
}

Matrix VectorBackend::AddRowBroadcast(const Matrix& a, const Matrix& b) const {
  return SerialKernelBackend().AddRowBroadcast(a, b);
}

Matrix VectorBackend::Relu(const Matrix& a) const {
  return SerialKernelBackend().Relu(a);
}

Matrix VectorBackend::Sigmoid(const Matrix& a) const {
  return SerialKernelBackend().Sigmoid(a);
}

Matrix VectorBackend::Tanh(const Matrix& a) const {
  return SerialKernelBackend().Tanh(a);
}

Matrix VectorBackend::Softplus(const Matrix& a) const {
  return SerialKernelBackend().Softplus(a);
}

Matrix VectorBackend::Exp(const Matrix& a) const {
  return SerialKernelBackend().Exp(a);
}

Matrix VectorBackend::Log(const Matrix& a) const {
  return SerialKernelBackend().Log(a);
}

Matrix VectorBackend::SoftmaxRows(const Matrix& a) const {
  return SerialKernelBackend().SoftmaxRows(a);
}

Matrix VectorBackend::RowSum(const Matrix& a) const {
  return SerialKernelBackend().RowSum(a);
}

Matrix VectorBackend::RowDot(const Matrix& a, const Matrix& b) const {
  return SerialKernelBackend().RowDot(a, b);
}

Matrix VectorBackend::ColSum(const Matrix& a) const {
  return SerialKernelBackend().ColSum(a);
}

Matrix VectorBackend::GatherRows(const Matrix& table,
                                 const std::vector<int>& ids) const {
  return SerialKernelBackend().GatherRows(table, ids);
}

void VectorBackend::ScatterAddRows(const Matrix& src,
                                   const std::vector<int>& ids,
                                   Matrix* out) const {
  SerialKernelBackend().ScatterAddRows(src, ids, out);
}

Matrix VectorBackend::ConcatCols(const Matrix& a, const Matrix& b) const {
  return SerialKernelBackend().ConcatCols(a, b);
}

void VectorBackend::FusedMatMulBiasActInto(const Matrix& a, const Matrix& b,
                                           const Matrix* bias, FusedAct act,
                                           Matrix* out) const {
  VectorFusedMatMulTile(a, b, bias, act, out, 0, a.rows(), 0, b.cols());
}

void VectorBackend::FusedEltwiseInto(const Matrix& a, const EltwiseStep* steps,
                                     int num_steps, Matrix* out) const {
  FusedEltwiseRange(a, steps, num_steps, out, 0, a.size());
}

Matrix VectorBackend::PlannedMatMulTransA(const Matrix& a,
                                          const Matrix& b) const {
  return MatMulTransA(a, b);
}

Matrix VectorBackend::PlannedMatMulTransB(const Matrix& a,
                                          const Matrix& b) const {
  return MatMulTransB(a, b);
}

// ---------------------------------------------------------------------------
// ParallelBackend: GEMMs shard 2-D output tiles running the vector cores
// (a 512x64 product splits into a tile grid instead of starving on 512
// rows' worth of grain); everything else shards the serial range kernels.
// ---------------------------------------------------------------------------

void ParallelBackend::MatMulAccumInto(const Matrix& a, const Matrix& b,
                                      Matrix* out) const {
  TiledGemm(pool(), a.rows(), b.cols(), a.cols(),
            [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
              VectorMatMulAccumTile(a, b, out, r0, r1, c0, c1);
            });
}

Matrix ParallelBackend::MatMulTransA(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.cols(), b.cols());
  TiledGemm(pool(), a.cols(), b.cols(), a.rows(),
            [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
              VectorMatMulTransATile(a, b, &out, r0, r1, c0, c1);
            });
  return out;
}

Matrix ParallelBackend::MatMulTransB(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), b.rows());
  TiledGemm(pool(), a.rows(), b.rows(), a.cols(),
            [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
              VectorMatMulTransBTile(a, b, &out, r0, r1, c0, c1);
            });
  return out;
}

Matrix ParallelBackend::Transpose(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.cols(), a.rows());
  pool()->ParallelFor(0, a.rows(), GrainFor(a.cols()),
                      [&](int64_t r0, int64_t r1) {
                        TransposeRows(a, &out, r0, r1);
                      });
  return out;
}

Matrix ParallelBackend::Add(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), kMinWorkPerChunk,
                      [&](int64_t i0, int64_t i1) {
                        Ew2Range(a, b, &out, i0, i1,
                                 [](float x, float y) { return x + y; });
                      });
  return out;
}

Matrix ParallelBackend::Sub(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), kMinWorkPerChunk,
                      [&](int64_t i0, int64_t i1) {
                        Ew2Range(a, b, &out, i0, i1,
                                 [](float x, float y) { return x - y; });
                      });
  return out;
}

Matrix ParallelBackend::Hadamard(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), kMinWorkPerChunk,
                      [&](int64_t i0, int64_t i1) {
                        Ew2Range(a, b, &out, i0, i1,
                                 [](float x, float y) { return x * y; });
                      });
  return out;
}

Matrix ParallelBackend::Axpby(const Matrix& a, float alpha, const Matrix& b,
                              float beta) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), kMinWorkPerChunk,
                      [&](int64_t i0, int64_t i1) {
                        Ew2Range(a, b, &out, i0, i1,
                                 [alpha, beta](float x, float y) {
                                   return alpha * x + beta * y;
                                 });
                      });
  return out;
}

void ParallelBackend::AxpyInto(const Matrix& a, float alpha,
                               Matrix* out) const {
  pool()->ParallelFor(0, a.size(), kMinWorkPerChunk,
                      [&](int64_t i0, int64_t i1) {
                        AxpyRange(a, alpha, out, i0, i1);
                      });
}

Matrix ParallelBackend::Scale(const Matrix& a, float s) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), kMinWorkPerChunk,
                      [&](int64_t i0, int64_t i1) {
                        EwRange(a, &out, i0, i1,
                                [s](float x) { return s * x; });
                      });
  return out;
}

Matrix ParallelBackend::AddScalar(const Matrix& a, float s) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), kMinWorkPerChunk,
                      [&](int64_t i0, int64_t i1) {
                        EwRange(a, &out, i0, i1,
                                [s](float x) { return x + s; });
                      });
  return out;
}

Matrix ParallelBackend::AddRowBroadcast(const Matrix& a,
                                        const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.rows(), GrainFor(a.cols()),
                      [&](int64_t r0, int64_t r1) {
                        AddRowBroadcastRows(a, b, &out, r0, r1);
                      });
  return out;
}

Matrix ParallelBackend::Relu(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), kMinWorkPerChunk,
                      [&](int64_t i0, int64_t i1) {
                        EwRange(a, &out, i0, i1, ReluScalar);
                      });
  return out;
}

Matrix ParallelBackend::Sigmoid(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), GrainFor(kTranscendentalCost),
                      [&](int64_t i0, int64_t i1) {
                        EwRange(a, &out, i0, i1, SigmoidScalar);
                      });
  return out;
}

Matrix ParallelBackend::Tanh(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), GrainFor(kTranscendentalCost),
                      [&](int64_t i0, int64_t i1) {
                        EwRange(a, &out, i0, i1, TanhScalar);
                      });
  return out;
}

Matrix ParallelBackend::Softplus(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), GrainFor(kTranscendentalCost),
                      [&](int64_t i0, int64_t i1) {
                        EwRange(a, &out, i0, i1, SoftplusScalar);
                      });
  return out;
}

Matrix ParallelBackend::Exp(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), GrainFor(kTranscendentalCost),
                      [&](int64_t i0, int64_t i1) {
                        EwRange(a, &out, i0, i1, ExpScalar);
                      });
  return out;
}

Matrix ParallelBackend::Log(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.size(), GrainFor(kTranscendentalCost),
                      [&](int64_t i0, int64_t i1) {
                        EwRange(a, &out, i0, i1, LogScalar);
                      });
  return out;
}

Matrix ParallelBackend::SoftmaxRows(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  pool()->ParallelFor(0, a.rows(),
                      GrainFor(static_cast<int64_t>(a.cols()) *
                               kTranscendentalCost),
                      [&](int64_t r0, int64_t r1) {
                        SoftmaxRowsRange(a, &out, r0, r1);
                      });
  return out;
}

Matrix ParallelBackend::RowSum(const Matrix& a) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), 1);
  pool()->ParallelFor(0, a.rows(), GrainFor(a.cols()),
                      [&](int64_t r0, int64_t r1) {
                        RowSumRange(a, &out, r0, r1);
                      });
  return out;
}

Matrix ParallelBackend::RowDot(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), 1);
  pool()->ParallelFor(0, a.rows(), GrainFor(a.cols()),
                      [&](int64_t r0, int64_t r1) {
                        RowDotRange(a, b, &out, r0, r1);
                      });
  return out;
}

Matrix ParallelBackend::ColSum(const Matrix& a) const {
  // Column-sharded: every shard walks all rows but owns a disjoint column
  // range, keeping each column's accumulation in serial row order.
  Matrix out(1, a.cols());
  pool()->ParallelFor(0, a.cols(), GrainFor(a.rows()),
                      [&](int64_t c0, int64_t c1) {
                        ColSumCols(a, &out, c0, c1);
                      });
  return out;
}

Matrix ParallelBackend::GatherRows(const Matrix& table,
                                   const std::vector<int>& ids) const {
  Matrix out =
      Matrix::ForOverwrite(static_cast<int>(ids.size()), table.cols());
  pool()->ParallelFor(0, static_cast<int64_t>(ids.size()),
                      GrainFor(table.cols()), [&](int64_t i0, int64_t i1) {
                        GatherRowsRange(table, ids, &out, i0, i1);
                      });
  return out;
}

void ParallelBackend::ScatterAddRows(const Matrix& src,
                                     const std::vector<int>& ids,
                                     Matrix* out) const {
  for (size_t i = 0; i < ids.size(); ++i) {
    NMCDR_CHECK_GE(ids[i], 0);
    NMCDR_CHECK_LT(ids[i], out->rows());
  }
  // Destination-row shards: each shard rescans the id list and applies
  // only its own rows, so colliding ids stay in serial order and shards
  // never touch the same output row. The rescan is pure overhead
  // multiplied by the shard count, so small scatters (the training-step
  // norm: a few hundred ids into a wide table) run the serial loop
  // inline — forking used to cost more than the adds (0.66x at 4 threads
  // in BENCH_kernels.json). Larger scatters fold the scan cost into the
  // grain: every shard must carry enough add work to pay for its own
  // pass over the id list.
  const int64_t adds = static_cast<int64_t>(ids.size()) * src.cols();
  if (adds < 4 * kMinWorkPerChunk) {
    ScatterAddDestRows(src, ids, out, 0, out->rows());
    return;
  }
  const int64_t per_dest_row =
      out->rows() > 0 ? std::max<int64_t>(1, adds / out->rows()) : 1;
  const int64_t min_work =
      kMinWorkPerChunk + static_cast<int64_t>(ids.size());
  pool()->ParallelFor(0, out->rows(),
                      std::max<int64_t>(1, min_work / per_dest_row),
                      [&](int64_t d0, int64_t d1) {
                        ScatterAddDestRows(src, ids, out, d0, d1);
                      });
}

Matrix ParallelBackend::ConcatCols(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols() + b.cols());
  pool()->ParallelFor(0, a.rows(), GrainFor(a.cols() + b.cols()),
                      [&](int64_t r0, int64_t r1) {
                        ConcatColsRows(a, b, &out, r0, r1);
                      });
  return out;
}

void ParallelBackend::FusedMatMulBiasActInto(const Matrix& a, const Matrix& b,
                                             const Matrix* bias, FusedAct act,
                                             Matrix* out) const {
  // The epilogue is column-wise independent, so it tiles with the GEMM:
  // each tile applies bias + activation to exactly its own elements.
  TiledGemm(pool(), a.rows(), b.cols(), a.cols(),
            [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
              VectorFusedMatMulTile(a, b, bias, act, out, r0, r1, c0, c1);
            });
}

void ParallelBackend::FusedEltwiseInto(const Matrix& a,
                                       const EltwiseStep* steps, int num_steps,
                                       Matrix* out) const {
  pool()->ParallelFor(0, a.size(), GrainFor(EltwiseChainCost(steps, num_steps)),
                      [&](int64_t i0, int64_t i1) {
                        FusedEltwiseRange(a, steps, num_steps, out, i0, i1);
                      });
}

Matrix ParallelBackend::PlannedMatMulTransA(const Matrix& a,
                                            const Matrix& b) const {
  // The planned (replay-path) backward GEMMs ride the same vector tile
  // cores: bit-exact with PlannedMatMulTransARows by the shared
  // per-element chain, and tile-sharded for the same scaling reason.
  return MatMulTransA(a, b);
}

Matrix ParallelBackend::PlannedMatMulTransB(const Matrix& a,
                                            const Matrix& b) const {
  return MatMulTransB(a, b);
}

// ---------------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------------

namespace {

thread_local const KernelBackend* tl_backend_override = nullptr;
std::atomic<const KernelBackend*> g_default_backend{nullptr};

const KernelBackend& BuiltinDefaultBackend() {
  static const KernelBackend* const backend = [] {
    const char* env = std::getenv("NMCDR_BACKEND");
    if (env != nullptr) {
      const KernelBackend* named = BackendByName(env);
      if (named != nullptr) return named;
      // Unknown value: fall through to the production default rather than
      // aborting — the knob is a tuning hint, not configuration.
    }
    return static_cast<const KernelBackend*>(&VectorKernelBackend());
  }();
  return *backend;
}

}  // namespace

const SerialBackend& SerialKernelBackend() {
  static const SerialBackend backend;
  return backend;
}

const VectorBackend& VectorKernelBackend() {
  static const VectorBackend backend;
  return backend;
}

const KernelBackend* BackendByName(std::string_view name) {
  if (name == "serial") return &SerialKernelBackend();
  if (name == "vector") return &VectorKernelBackend();
  if (name == "parallel") return &ParallelKernelBackend();
  return nullptr;
}

const ParallelBackend& ParallelKernelBackend() {
  static const ParallelBackend backend;  // binds ThreadPool::Shared() lazily
  return backend;
}

const KernelBackend& CurrentBackend() {
  if (tl_backend_override != nullptr) return *tl_backend_override;
  const KernelBackend* d = g_default_backend.load(std::memory_order_acquire);
  return d != nullptr ? *d : BuiltinDefaultBackend();
}

void SetDefaultBackend(const KernelBackend* backend) {
  g_default_backend.store(backend, std::memory_order_release);
}

BackendGuard::BackendGuard(const KernelBackend* backend)
    : saved_(tl_backend_override), active_(backend != nullptr) {
  if (active_) tl_backend_override = backend;
}

BackendGuard::~BackendGuard() {
  if (active_) tl_backend_override = saved_;
}

const KernelBackend* BackendForThreads(int threads) {
  if (threads <= 0) return nullptr;
  if (threads == 1) return &SerialKernelBackend();
  return &ParallelKernelBackend();
}

}  // namespace nmcdr

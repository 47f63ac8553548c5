// Fused / planned range cores for the graph-program replay path.
//
// This translation unit is compiled at a higher optimization level than the
// rest of the tensor library (see src/tensor/CMakeLists.txt): the tiles
// below are written so every output element's IEEE operation sequence is
// fixed — independent per-element accumulator chains, no reduction the
// compiler could reassociate, no FMA on the baseline target — which makes
// aggressive loop optimization (unrolling, lane-wise vectorization of the
// fixed-trip j loops) value-preserving. The eager kernels in backend.cc
// stay at the default level: they are the readable reference
// implementation the replay path is audited against, bit for bit.

#include "tensor/fused_kernels.h"

#include <cstring>

#include "tensor/backend.h"
#include "tensor/matrix.h"
#include "tensor/scalar_kernels.h"

namespace nmcdr {
namespace {

/// One fixed-width tile of `acc[j] += av * brow[j]` accumulation. The
/// compile-time width is what lets the compiler fully unroll the j loops
/// and promote `acc` into registers; a runtime-trip version keeps the
/// accumulators in stack slots and re-serializes through store-to-load
/// forwarding, which is exactly the chain this core exists to break.
/// `av_stride` strides the per-p A element (1 for row-major A rows,
/// a.cols() for the TransA walk down an A column).
template <int JB>
inline void PlannedAccumTile(const float* a0, size_t av_stride,
                             const float* b0, size_t b_stride, int k,
                             float* ctile) {
  float acc[JB];
  for (int j = 0; j < JB; ++j) acc[j] = ctile[j];
  for (int p = 0; p < k; ++p) {
    const float av = a0[static_cast<size_t>(p) * av_stride];
    if (av == 0.f) continue;
    const float* brow = b0 + static_cast<size_t>(p) * b_stride;
    for (int j = 0; j < JB; ++j) acc[j] += av * brow[j];
  }
  for (int j = 0; j < JB; ++j) ctile[j] = acc[j];
}

/// Tiles one output row: widest blocks first, power-of-two shrink for the
/// tail so every tile keeps a compile-time width.
inline void PlannedAccumRow(const float* a0, size_t av_stride, const float* b,
                            size_t b_stride, int k, int n, float* crow) {
  int j0 = 0;
  for (; j0 + 32 <= n; j0 += 32) {
    PlannedAccumTile<32>(a0, av_stride, b + j0, b_stride, k, crow + j0);
  }
  if (j0 + 16 <= n) {
    PlannedAccumTile<16>(a0, av_stride, b + j0, b_stride, k, crow + j0);
    j0 += 16;
  }
  if (j0 + 8 <= n) {
    PlannedAccumTile<8>(a0, av_stride, b + j0, b_stride, k, crow + j0);
    j0 += 8;
  }
  if (j0 + 4 <= n) {
    PlannedAccumTile<4>(a0, av_stride, b + j0, b_stride, k, crow + j0);
    j0 += 4;
  }
  for (; j0 < n; ++j0) {
    PlannedAccumTile<1>(a0, av_stride, b + j0, b_stride, k, crow + j0);
  }
}

/// One fixed-width tile of A * B^T given BT = B transposed: JB independent
/// double dot chains run side by side, each in ascending p exactly like
/// MatMulTransBRows (the transpose only changes the memory walk — per
/// element the double products and adds are the same values in the same
/// order). Contiguous `btrow` loads are what make the tile fast.
template <int JB>
inline void PlannedDotTile(const float* arow, const float* bt0,
                           size_t bt_stride, int k, float* ctile) {
  double acc[JB];
  for (int j = 0; j < JB; ++j) acc[j] = 0.0;
  for (int p = 0; p < k; ++p) {
    const double av = static_cast<double>(arow[p]);
    const float* btrow = bt0 + static_cast<size_t>(p) * bt_stride;
    for (int j = 0; j < JB; ++j) {
      acc[j] += av * static_cast<double>(btrow[j]);
    }
  }
  for (int j = 0; j < JB; ++j) ctile[j] = static_cast<float>(acc[j]);
}

inline float FusedActApply(float x, FusedAct act) {
  switch (act) {
    case FusedAct::kNone:
      return x;
    case FusedAct::kRelu:
      return ReluScalar(x);
    case FusedAct::kSigmoid:
      return SigmoidScalar(x);
    case FusedAct::kTanh:
      return TanhScalar(x);
  }
  return x;
}

inline float EltwiseApplySteps(float cur, size_t i, const EltwiseStep* steps,
                               int num_steps) {
  for (int s = 0; s < num_steps; ++s) {
    const EltwiseStep& st = steps[s];
    switch (st.op) {
      case EltwiseOp::kAddMat:
        cur = cur + st.side[i];
        break;
      case EltwiseOp::kSubMat:
        cur = st.rhs ? st.side[i] - cur : cur - st.side[i];
        break;
      case EltwiseOp::kMulMat:
        cur = cur * st.side[i];
        break;
      case EltwiseOp::kScale:
        cur = st.scalar * cur;
        break;
      case EltwiseOp::kAddScalar:
        cur = cur + st.scalar;
        break;
      case EltwiseOp::kOneMinus:
        cur = 1.f - cur;
        break;
      case EltwiseOp::kSoftplus:
        cur = SoftplusScalar(cur);
        break;
      case EltwiseOp::kRelu:
        cur = ReluScalar(cur);
        break;
      case EltwiseOp::kSigmoid:
        cur = SigmoidScalar(cur);
        break;
      case EltwiseOp::kTanh:
        cur = TanhScalar(cur);
        break;
      case EltwiseOp::kExp:
        cur = ExpScalar(cur);
        break;
    }
  }
  return cur;
}

}  // namespace

void PlannedMatMulAccumRows(const Matrix& a, const Matrix& b, Matrix* out,
                            int64_t r0, int64_t r1) {
  const int k = a.cols(), n = b.cols();
  for (int64_t i = r0; i < r1; ++i) {
    PlannedAccumRow(a.row(static_cast<int>(i)), 1, b.data(), n, k, n,
                    out->row(static_cast<int>(i)));
  }
}

void PlannedMatMulTransARows(const Matrix& a, const Matrix& b, Matrix* out,
                             int64_t r0, int64_t r1) {
  const int k = a.rows(), n = b.cols(), m = a.cols();
  for (int64_t i = r0; i < r1; ++i) {
    PlannedAccumRow(a.data() + i, static_cast<size_t>(m), b.data(), n, k, n,
                    out->row(static_cast<int>(i)));
  }
}

void PlannedMatMulTransBRows(const Matrix& a, const Matrix& bt, Matrix* out,
                             int64_t r0, int64_t r1) {
  const int k = a.cols(), n = bt.cols();
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = a.row(static_cast<int>(i));
    float* crow = out->row(static_cast<int>(i));
    int j0 = 0;
    for (; j0 + 8 <= n; j0 += 8) {
      PlannedDotTile<8>(arow, bt.data() + j0, n, k, crow + j0);
    }
    if (j0 + 4 <= n) {
      PlannedDotTile<4>(arow, bt.data() + j0, n, k, crow + j0);
      j0 += 4;
    }
    if (j0 + 2 <= n) {
      PlannedDotTile<2>(arow, bt.data() + j0, n, k, crow + j0);
      j0 += 2;
    }
    if (j0 < n) PlannedDotTile<1>(arow, bt.data() + j0, n, k, crow + j0);
  }
}

void FusedMatMulRows(const Matrix& a, const Matrix& b, const Matrix* bias,
                     FusedAct act, Matrix* out, int64_t r0, int64_t r1) {
  if (r1 > r0) {
    std::memset(out->row(static_cast<int>(r0)), 0,
                sizeof(float) * static_cast<size_t>((r1 - r0) * out->cols()));
  }
  PlannedMatMulAccumRows(a, b, out, r0, r1);
  const int n = b.cols();
  const float* brow = bias != nullptr ? bias->row(0) : nullptr;
  for (int64_t r = r0; r < r1; ++r) {
    float* crow = out->row(static_cast<int>(r));
    if (brow != nullptr) {
      for (int j = 0; j < n; ++j) crow[j] = crow[j] + brow[j];
    }
    if (act != FusedAct::kNone) {
      for (int j = 0; j < n; ++j) crow[j] = FusedActApply(crow[j], act);
    }
  }
}

void FusedEltwiseRange(const Matrix& a, const EltwiseStep* steps,
                       int num_steps, Matrix* out, int64_t i0, int64_t i1) {
  const float* in = a.data();
  float* o = out->data();
  for (int64_t i = i0; i < i1; ++i) {
    o[i] = EltwiseApplySteps(in[i], static_cast<size_t>(i), steps, num_steps);
  }
}

int64_t EltwiseChainCost(const EltwiseStep* steps, int num_steps) {
  int64_t cost = 1;
  for (int s = 0; s < num_steps; ++s) {
    switch (steps[s].op) {
      case EltwiseOp::kSoftplus:
      case EltwiseOp::kSigmoid:
      case EltwiseOp::kTanh:
      case EltwiseOp::kExp:
        cost += kTranscendentalCost;
        break;
      default:
        cost += 1;
        break;
    }
  }
  return cost;
}

}  // namespace nmcdr

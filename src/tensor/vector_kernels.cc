// Explicitly vectorized GEMM tile cores (tensor/vector_kernels.h).
//
// Like fused_kernels.cc, this translation unit is compiled at -O3 with
// -ffp-contract=off (src/tensor/CMakeLists.txt): every accumulator chain
// below is an independent per-output-element sequence the compiler may
// not reassociate, the lane ops from tensor/simd.h are lane-wise IEEE
// operations with no horizontal reduction, and contraction of the
// explicit multiply-then-add pairs into FMAs — the one transform that
// could change rounding — is forbidden. The serial loops in backend.cc
// stay at the default level as the readable reference these cores are
// audited against, bit for bit.

#include "tensor/vector_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/scalar_kernels.h"
#include "tensor/simd.h"

namespace nmcdr {
namespace {

using simd::F32x8;
using simd::F64x4;
using simd::kDoubleLanes;
using simd::kFloatLanes;

/// Fully unrolls a fixed-trip register loop before GCC decides where the
/// tile's accumulator array lives: left rolled, a variable index pins the
/// array to the stack and every add round-trips through memory.
#define NMCDR_UNROLL _Pragma("GCC unroll 16")

/// Output rows per accumulate pass: each B register load feeds this many
/// rows, so the tile keeps kAccumRows * NV independent add chains in
/// flight — enough to hide the FP add latency even at n = 16, where one
/// row alone is only two registers wide.
constexpr int kAccumRows = 4;

/// R output rows x NV registers (kFloatLanes floats each) of `acc[j] += av
/// * b[p][j]` accumulation over ascending p. Row r's A element at step p
/// is a0[r * a_row_stride + p * av_stride]: an A row for the plain product
/// (a_row_stride = a.cols(), av_stride = 1), an A column for TransA
/// (a_row_stride = 1, av_stride = a.cols()). The fixed R and NV keep every
/// accumulator in a register across the whole p loop.
///
/// kSkipZeros is the reference's per-(row, p) `av == 0` skip
/// (SerialBackend::MatMulAccumInto) as a lane-wise select instead of a
/// branch: that row's accumulators keep their old value, so rows whose
/// zeros differ share the tile exactly. Callers drop it when the block's
/// A elements hold no zero, where the skip never fires and the select
/// would only add work.
///
/// `from_zero` starts the accumulators at +0.0 in registers instead of
/// loading C: the same chain the reference runs over a zero-filled output,
/// so such an output may be handed over unfilled (Matrix::ForOverwrite).
template <int R, int NV, bool kSkipZeros>
inline void AccumTile(const float* a0, size_t a_row_stride, size_t av_stride,
                      const float* b0, size_t b_stride, int64_t k, float* c0,
                      size_t c_stride, bool from_zero) {
  F32x8 acc[R * NV];
  NMCDR_UNROLL
  for (int r = 0; r < R; ++r) {
    NMCDR_UNROLL
    for (int u = 0; u < NV; ++u) {
      acc[r * NV + u] =
          from_zero ? simd::ZeroF32()
                    : simd::LoadF32(c0 + r * c_stride + u * kFloatLanes);
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = b0 + static_cast<size_t>(p) * b_stride;
    F32x8 bv[NV];
    NMCDR_UNROLL
    for (int u = 0; u < NV; ++u) bv[u] = simd::LoadF32(brow + u * kFloatLanes);
    const float* ap = a0 + static_cast<size_t>(p) * av_stride;
    NMCDR_UNROLL
    for (int r = 0; r < R; ++r) {
      const F32x8 avv = simd::SplatF32(ap[r * a_row_stride]);
      NMCDR_UNROLL
      for (int u = 0; u < NV; ++u) {
        F32x8& a = acc[r * NV + u];
        const F32x8 sum = simd::MulAdd(avv, bv[u], a);
        a = kSkipZeros ? simd::SelectNonZero(avv, sum, a) : sum;
      }
    }
  }
  NMCDR_UNROLL
  for (int r = 0; r < R; ++r) {
    NMCDR_UNROLL
    for (int u = 0; u < NV; ++u) {
      simd::StoreF32(c0 + r * c_stride + u * kFloatLanes, acc[r * NV + u]);
    }
  }
}

/// R output rows of the first `n` columns, n a multiple of kFloatLanes:
/// two-register (16-column) tiles, then a one-register tile.
template <int R>
inline void AccumRows(const float* a0, size_t a_row_stride, size_t av_stride,
                      const float* b0, size_t b_stride, int64_t k, int64_t n,
                      float* c0, size_t c_stride, bool from_zero) {
  bool has_zero = false;
  for (int r = 0; r < R; ++r) {
    const float* ar = a0 + r * a_row_stride;
    for (int64_t p = 0; p < k; ++p) {
      has_zero |= ar[static_cast<size_t>(p) * av_stride] == 0.f;
    }
  }
  int64_t j = 0;
  for (; j + 2 * kFloatLanes <= n; j += 2 * kFloatLanes) {
    if (has_zero) {
      AccumTile<R, 2, true>(a0, a_row_stride, av_stride, b0 + j, b_stride, k,
                            c0 + j, c_stride, from_zero);
    } else {
      AccumTile<R, 2, false>(a0, a_row_stride, av_stride, b0 + j, b_stride, k,
                             c0 + j, c_stride, from_zero);
    }
  }
  if (j < n) {
    if (has_zero) {
      AccumTile<R, 1, true>(a0, a_row_stride, av_stride, b0 + j, b_stride, k,
                            c0 + j, c_stride, from_zero);
    } else {
      AccumTile<R, 1, false>(a0, a_row_stride, av_stride, b0 + j, b_stride, k,
                             c0 + j, c_stride, from_zero);
    }
  }
}

/// Steps of p per accumulate sweep. A deep product (TransA's k is the
/// batch) sweeps all output rows once per depth chunk, so the chunk's A
/// and B rows stay in L1 across the row blocks instead of streaming from
/// L2 once per block. The accumulators are the float outputs themselves,
/// so pausing a chain at a chunk boundary changes nothing.
constexpr int64_t kAccumDepth = 64;

/// The last `n` (< kFloatLanes) columns, too narrow for column lanes: the
/// lanes run across kFloatLanes output rows instead, one column at a time,
/// over the block's A elements transposed into `at` ([p][lane]). Rows past
/// the last full lane block take the reference's scalar loop.
inline void AccumNarrowColumns(const float* a0, size_t a_row_stride,
                               size_t av_stride, const float* b0,
                               size_t b_stride, int64_t k, int64_t n,
                               int64_t rows, float* c0, size_t c_stride,
                               bool from_zero) {
  float at[kAccumDepth * kFloatLanes];
  float lanes[kFloatLanes];
  int64_t i = 0;
  for (; i + kFloatLanes <= rows; i += kFloatLanes) {
    const float* ai = a0 + i * a_row_stride;
    for (int64_t p = 0; p < k; ++p) {
      for (int l = 0; l < kFloatLanes; ++l) {
        at[p * kFloatLanes + l] =
            ai[l * a_row_stride + static_cast<size_t>(p) * av_stride];
      }
    }
    float* ci = c0 + i * c_stride;
    for (int64_t j = 0; j < n; ++j) {
      F32x8 acc = simd::ZeroF32();
      if (!from_zero) {
        for (int l = 0; l < kFloatLanes; ++l) lanes[l] = ci[l * c_stride + j];
        acc = simd::LoadF32(lanes);
      }
      for (int64_t p = 0; p < k; ++p) {
        const F32x8 av = simd::LoadF32(at + p * kFloatLanes);
        const F32x8 bv =
            simd::SplatF32(b0[static_cast<size_t>(p) * b_stride + j]);
        acc = simd::SelectNonZero(av, simd::MulAdd(av, bv, acc), acc);
      }
      simd::StoreF32(lanes, acc);
      for (int l = 0; l < kFloatLanes; ++l) ci[l * c_stride + j] = lanes[l];
    }
  }
  for (; i < rows; ++i) {
    const float* ar = a0 + i * a_row_stride;
    for (int64_t j = 0; j < n; ++j) {
      float acc = from_zero ? 0.f : c0[i * c_stride + j];
      for (int64_t p = 0; p < k; ++p) {
        const float av = ar[static_cast<size_t>(p) * av_stride];
        if (av == 0.f) continue;
        acc += av * b0[static_cast<size_t>(p) * b_stride + j];
      }
      c0[i * c_stride + j] = acc;
    }
  }
}

/// Output rows [0, rows) x columns [0, n), one depth chunk at a time: the
/// lane-wide columns in row blocks of kAccumRows (the last block as narrow
/// as the remainder), then any narrow column tail. With `from_zero` the
/// first chunk starts from +0.0 instead of C's contents (and k == 0 stores
/// the empty sums), so C is written before it is ever read.
inline void AccumRowRange(const float* a0, size_t a_row_stride,
                          size_t av_stride, const float* b0, size_t b_stride,
                          int64_t k, int64_t n, int64_t rows, float* c0,
                          size_t c_stride, bool from_zero) {
  if (from_zero && k == 0) {
    for (int64_t i = 0; i < rows; ++i) {
      std::memset(c0 + i * c_stride, 0, sizeof(float) * static_cast<size_t>(n));
    }
    return;
  }
  const int64_t nv = n - n % kFloatLanes;
  for (int64_t p0 = 0; p0 < k; p0 += kAccumDepth) {
    const int64_t kc = std::min(kAccumDepth, k - p0);
    const bool zero = from_zero && p0 == 0;
    const float* ap = a0 + static_cast<size_t>(p0) * av_stride;
    const float* bp = b0 + static_cast<size_t>(p0) * b_stride;
    int64_t i = 0;
    if (nv > 0) {
      for (; i + kAccumRows <= rows; i += kAccumRows) {
        AccumRows<kAccumRows>(ap + i * a_row_stride, a_row_stride, av_stride,
                              bp, b_stride, kc, nv, c0 + i * c_stride,
                              c_stride, zero);
      }
      const float* ar = ap + i * a_row_stride;
      float* cr = c0 + i * c_stride;
      switch (rows - i) {
        case 3:
          AccumRows<3>(ar, a_row_stride, av_stride, bp, b_stride, kc, nv, cr,
                       c_stride, zero);
          break;
        case 2:
          AccumRows<2>(ar, a_row_stride, av_stride, bp, b_stride, kc, nv, cr,
                       c_stride, zero);
          break;
        case 1:
          AccumRows<1>(ar, a_row_stride, av_stride, bp, b_stride, kc, nv, cr,
                       c_stride, zero);
          break;
        default:
          break;
      }
    }
    if (n > nv) {
      AccumNarrowColumns(ap, a_row_stride, av_stride, bp + nv, b_stride, kc,
                         n - nv, rows, c0 + nv, c_stride, zero);
    }
  }
}

// The A * B^T double-dot family reads B^T from a panel of doubles: B^T
// widened once per call (float -> double is exact), kDotPanelWidth output
// columns wide and at most kDotPanelDepth steps of p deep, in stack
// buffers so no call allocates. Products deeper than the panel carry
// their double partial sums across depth chunks in a stack tile of
// kDotRowBlock rows; the one rounding to float still happens at the
// final store.
constexpr int kDotPanelWidth = 4 * kDoubleLanes;  // four double registers
constexpr int64_t kDotPanelDepth = 128;
constexpr int64_t kDotRowBlock = 64;

/// panel[p][jj] = double(b(j0 + jj, p0 + p)) for the `w` live columns,
/// 0 in the padding lanes (computed, never stored).
inline void BuildDotPanel(const Matrix& b, int64_t j0, int64_t w, int64_t p0,
                          int64_t kc, double* panel) {
  for (int64_t jj = 0; jj < kDotPanelWidth; ++jj) {
    const float* brow =
        jj < w ? b.row(static_cast<int>(j0 + jj)) + p0 : nullptr;
    for (int64_t p = 0; p < kc; ++p) {
      panel[p * kDotPanelWidth + jj] =
          brow != nullptr ? static_cast<double>(brow[p]) : 0.0;
    }
  }
}

/// Rows per dot pass: two rows of four double registers keep eight
/// independent add chains in flight behind each panel load.
constexpr int kDotRows = 2;

/// R output rows x kDotPanelWidth columns of the double dot over panel
/// steps [0, kc), each chain ascending p exactly like
/// SerialBackend::MatMulTransB.
/// Row r's A row is a0 + r * a_stride. The chains start at +0 on the
/// first depth chunk, else from the carried partial sums `part`; they end
/// in `part` when more chunks follow, else rounded once into the `w` live
/// columns of c0.
template <int R>
inline void DotPanelRows(const float* a0, size_t a_stride,
                         const double* panel, int64_t kc, bool first,
                         bool last, double* part, float* c0, size_t c_stride,
                         int64_t w) {
  constexpr int NV = kDotPanelWidth / kDoubleLanes;
  F64x4 acc[R * NV];
  NMCDR_UNROLL
  for (int r = 0; r < R; ++r) {
    NMCDR_UNROLL
    for (int u = 0; u < NV; ++u) {
      acc[r * NV + u] =
          first ? simd::ZeroF64()
                : simd::LoadF64(part + r * kDotPanelWidth + u * kDoubleLanes);
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    const double* prow = panel + p * kDotPanelWidth;
    F64x4 bv[NV];
    NMCDR_UNROLL
    for (int u = 0; u < NV; ++u) bv[u] = simd::LoadF64(prow + u * kDoubleLanes);
    NMCDR_UNROLL
    for (int r = 0; r < R; ++r) {
      const F64x4 avv =
          simd::SplatF64(static_cast<double>(a0[r * a_stride + p]));
      NMCDR_UNROLL
      for (int u = 0; u < NV; ++u) {
        acc[r * NV + u] = simd::MulAdd(avv, bv[u], acc[r * NV + u]);
      }
    }
  }
  NMCDR_UNROLL
  for (int r = 0; r < R; ++r) {
    if (!last) {
      NMCDR_UNROLL
      for (int u = 0; u < NV; ++u) {
        simd::StoreF64(part + r * kDotPanelWidth + u * kDoubleLanes,
                       acc[r * NV + u]);
      }
      continue;
    }
    float* crow = c0 + r * c_stride;
    if (w == kDotPanelWidth) {
      NMCDR_UNROLL
      for (int u = 0; u < NV; ++u) {
        simd::NarrowStoreF32(crow + u * kDoubleLanes, acc[r * NV + u]);
      }
      continue;
    }
    float rounded[kDotPanelWidth];
    NMCDR_UNROLL
    for (int u = 0; u < NV; ++u) {
      simd::NarrowStoreF32(rounded + u * kDoubleLanes, acc[r * NV + u]);
    }
    std::memcpy(crow, rounded, sizeof(float) * static_cast<size_t>(w));
  }
}

/// The plain product over the whole output: accumulate into C, or with
/// `from_zero` overwrite it with the product.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out, bool from_zero) {
  AccumRowRange(a.data(), static_cast<size_t>(a.cols()), 1, b.data(),
                static_cast<size_t>(b.cols()), a.cols(), b.cols(), a.rows(),
                out->data(), static_cast<size_t>(out->cols()), from_zero);
}

}  // namespace

void VectorMatMulAccum(const Matrix& a, const Matrix& b, Matrix* out) {
  MatMulInto(a, b, out, /*from_zero=*/false);
}

void VectorMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  // Output row i is column i of A: consecutive output rows are adjacent A
  // elements and the per-p A element strides by a.cols().
  AccumRowRange(a.data(), 1, static_cast<size_t>(a.cols()), b.data(),
                static_cast<size_t>(b.cols()), a.rows(), b.cols(), a.cols(),
                out->data(), static_cast<size_t>(out->cols()),
                /*from_zero=*/true);
}

void VectorMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  const int64_t k = a.cols(), m = a.rows(), n = b.rows();
  const size_t a_stride = static_cast<size_t>(a.cols());
  const size_t c_stride = static_cast<size_t>(out->cols());
  double panel[kDotPanelDepth * kDotPanelWidth];
  double partial[kDotRowBlock * kDotPanelWidth];
  for (int64_t j0 = 0; j0 < n; j0 += kDotPanelWidth) {
    const int64_t w = std::min<int64_t>(kDotPanelWidth, n - j0);
    for (int64_t i0 = 0; i0 < m; i0 += kDotRowBlock) {
      const int64_t i1 = std::min(i0 + kDotRowBlock, m);
      // One pass even at k == 0, which stores the empty sums (+0).
      int64_t p0 = 0;
      do {
        const int64_t kc = std::min(kDotPanelDepth, k - p0);
        const bool first = p0 == 0, last = p0 + kc >= k;
        BuildDotPanel(b, j0, w, p0, kc, panel);
        int64_t i = i0;
        for (; i + kDotRows <= i1; i += kDotRows) {
          DotPanelRows<kDotRows>(a.row(static_cast<int>(i)) + p0, a_stride,
                                 panel, kc, first, last,
                                 partial + (i - i0) * kDotPanelWidth,
                                 out->row(static_cast<int>(i)) + j0, c_stride,
                                 w);
        }
        for (; i < i1; ++i) {
          DotPanelRows<1>(a.row(static_cast<int>(i)) + p0, a_stride, panel,
                          kc, first, last, partial + (i - i0) * kDotPanelWidth,
                          out->row(static_cast<int>(i)) + j0, c_stride, w);
        }
        p0 += kc;
      } while (p0 < k);
    }
  }
}

void VectorFusedMatMul(const Matrix& a, const Matrix& b, const Matrix* bias,
                       FusedAct act, Matrix* out) {
  MatMulInto(a, b, out, /*from_zero=*/true);
  const int64_t n = b.cols();
  const float* brow = bias != nullptr ? bias->row(0) : nullptr;
  const bool relu = act == FusedAct::kRelu;
  for (int r = 0; r < a.rows(); ++r) {
    float* crow = out->row(r);
    // Bias and ReLU run in lanes (a data-dependent branch per element
    // costs more than the GEMM at n = 16); sigmoid and tanh call libm.
    int64_t j = 0;
    for (; j + kFloatLanes <= n; j += kFloatLanes) {
      F32x8 v = simd::LoadF32(crow + j);
      if (brow != nullptr) v = simd::Add(v, simd::LoadF32(brow + j));
      if (relu) v = simd::Relu(v);
      simd::StoreF32(crow + j, v);
    }
    for (; j < n; ++j) {
      if (brow != nullptr) crow[j] = crow[j] + brow[j];
      if (relu) crow[j] = ReluScalar(crow[j]);
    }
    if (act == FusedAct::kSigmoid) {
      for (j = 0; j < n; ++j) crow[j] = SigmoidScalar(crow[j]);
    } else if (act == FusedAct::kTanh) {
      for (j = 0; j < n; ++j) crow[j] = TanhScalar(crow[j]);
    }
  }
}

void VectorAxpyInto(const Matrix& a, float alpha, Matrix* out) {
  const int64_t n = a.size();
  const float* in = a.data();
  float* o = out->data();
  const F32x8 alpha_v = simd::SplatF32(alpha);
  int64_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    simd::StoreF32(o + i, simd::MulAdd(alpha_v, simd::LoadF32(in + i),
                                       simd::LoadF32(o + i)));
  }
  for (; i < n; ++i) o[i] += alpha * in[i];
}

void VectorAxpyOntoZero(const float* src, float* dst, int64_t n) {
  const F32x8 one = simd::SplatF32(1.f);
  int64_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    simd::StoreF32(dst + i, simd::MulAdd(one, simd::LoadF32(src + i),
                                         simd::ZeroF32()));
  }
  for (; i < n; ++i) dst[i] = 0.f + 1.f * src[i];
}

// ---------------------------------------------------------------------------
// Sparse row cores: SpMM and NeighborAttention.
// ---------------------------------------------------------------------------

namespace {

/// Columns [0, NV * kFloatLanes) of one sparse output row: the sum over
/// entries e in [e0, e1) of vals[e] * x row src[e], in ascending e from
/// +0.0 — per element the reference's `o += v * x` over a zero-filled row,
/// with the row's accumulators held in NV registers across all entries.
template <int NV>
inline void SparseRowTile(int64_t e0, int64_t e1, const int* src,
                          const float* vals, const float* x, size_t x_stride,
                          float* o) {
  F32x8 acc[NV];
  NMCDR_UNROLL
  for (int u = 0; u < NV; ++u) acc[u] = simd::ZeroF32();
  for (int64_t e = e0; e < e1; ++e) {
    const F32x8 v = simd::SplatF32(vals[e]);
    const float* xr = x + static_cast<size_t>(src[e]) * x_stride;
    NMCDR_UNROLL
    for (int u = 0; u < NV; ++u) {
      acc[u] = simd::MulAdd(v, simd::LoadF32(xr + u * kFloatLanes), acc[u]);
    }
  }
  NMCDR_UNROLL
  for (int u = 0; u < NV; ++u) simd::StoreF32(o + u * kFloatLanes, acc[u]);
}

/// One whole sparse output row of width d (written even when the row has
/// no entries): two-register tiles, then one, then a scalar column tail.
inline void SparseRow(int64_t e0, int64_t e1, const int* src,
                      const float* vals, const float* x, size_t x_stride,
                      int64_t d, float* o) {
  int64_t j = 0;
  for (; j + 2 * kFloatLanes <= d; j += 2 * kFloatLanes) {
    SparseRowTile<2>(e0, e1, src, vals, x + j, x_stride, o + j);
  }
  if (j + kFloatLanes <= d) {
    SparseRowTile<1>(e0, e1, src, vals, x + j, x_stride, o + j);
    j += kFloatLanes;
  }
  for (; j < d; ++j) {
    float acc = 0.f;
    for (int64_t e = e0; e < e1; ++e) {
      acc += vals[e] * x[static_cast<size_t>(src[e]) * x_stride + j];
    }
    o[j] = acc;
  }
}

/// Candidates whose double dot chains run side by side in the attention
/// cores (four double registers), and the depth of the column panel.
constexpr int kAttnBlock = 4 * kDoubleLanes;
constexpr int64_t kAttnDepth = 64;

/// s[jj] = the double dot of q with item row ids[jj] over the d columns in
/// ascending order, for jj < w <= kAttnBlock: per candidate the reference's
/// `s += double(q[c]) * v[c]` chain. The item rows are widened (exactly)
/// into a [column][candidate] panel so one load feeds four chains; lanes
/// past w repeat candidate 0 and are never read.
inline void AttnDots(const float* q, const Matrix& v, const int* ids, int w,
                     int64_t d, double* s) {
  constexpr int NV = kAttnBlock / kDoubleLanes;
  const float* rows[kAttnBlock];
  for (int jj = 0; jj < kAttnBlock; ++jj) {
    rows[jj] = v.row(ids[jj < w ? jj : 0]);
  }
  double panel[kAttnDepth * kAttnBlock];
  F64x4 acc[NV];
  NMCDR_UNROLL
  for (int u = 0; u < NV; ++u) acc[u] = simd::ZeroF64();
  for (int64_t c0 = 0; c0 < d; c0 += kAttnDepth) {
    const int64_t dc = std::min(kAttnDepth, d - c0);
    for (int jj = 0; jj < kAttnBlock; ++jj) {
      const float* vr = rows[jj] + c0;
      for (int64_t c = 0; c < dc; ++c) {
        panel[c * kAttnBlock + jj] = static_cast<double>(vr[c]);
      }
    }
    for (int64_t c = 0; c < dc; ++c) {
      const F64x4 qv = simd::SplatF64(static_cast<double>(q[c0 + c]));
      const double* prow = panel + c * kAttnBlock;
      NMCDR_UNROLL
      for (int u = 0; u < NV; ++u) {
        acc[u] = simd::MulAdd(qv, simd::LoadF64(prow + u * kDoubleLanes),
                              acc[u]);
      }
    }
  }
  NMCDR_UNROLL
  for (int u = 0; u < NV; ++u) simd::StoreF64(s + u * kDoubleLanes, acc[u]);
}

}  // namespace

void VectorSparseRowsMultiply(const int64_t* row_ptr, const int* src,
                              const float* vals, const Matrix& x,
                              Matrix* out) {
  const size_t x_stride = static_cast<size_t>(x.cols());
  for (int r = 0; r < out->rows(); ++r) {
    for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      NMCDR_DCHECK_GE(src[e], 0);
      NMCDR_DCHECK_LT(src[e], x.rows());
    }
    SparseRow(row_ptr[r], row_ptr[r + 1], src, vals, x.data(), x_stride,
              x.cols(), out->row(r));
  }
}

void VectorNeighborAttentionForward(
    const Matrix& u, const Matrix& v,
    const std::vector<std::vector<int>>& candidates, float* alpha,
    Matrix* out) {
  const int64_t d = u.cols();
  double s[kAttnBlock];
  for (int i = 0; i < u.rows(); ++i) {
    const std::vector<int>& cand = candidates[i];
    const int m = static_cast<int>(cand.size());
    const int* ids = cand.data();
    float* a = alpha;
    alpha += m;
    float mx = -1e30f;
    for (int j0 = 0; j0 < m; j0 += kAttnBlock) {
      const int w = std::min(kAttnBlock, m - j0);
      AttnDots(u.row(i), v, ids + j0, w, d, s);
      for (int jj = 0; jj < w; ++jj) {
        a[j0 + jj] = static_cast<float>(s[jj]);
        mx = std::max(mx, a[j0 + jj]);
      }
    }
    if (m > 0) {
      double total = 0.0;
      for (int j = 0; j < m; ++j) {
        a[j] = std::exp(a[j] - mx);
        total += a[j];
      }
      const float inv = static_cast<float>(1.0 / total);
      for (int j = 0; j < m; ++j) a[j] *= inv;
    }
    // The convex mix sum_j a_j v_j is a sparse row with weights a (an
    // empty list stores +0).
    SparseRow(0, m, ids, a, v.data(), static_cast<size_t>(d), d, out->row(i));
  }
}

void VectorNeighborAttentionBackward(
    const Matrix& u, const Matrix& v,
    const std::vector<std::vector<int>>& candidates, const float* alpha,
    const Matrix& g, float* ds_scratch, Matrix* du, Matrix* dv) {
  const int64_t d = u.cols();
  double s[kAttnBlock];
  for (int i = 0; i < u.rows(); ++i) {
    const std::vector<int>& cand = candidates[i];
    const int m = static_cast<int>(cand.size());
    const int* ids = cand.data();
    const float* a = alpha;
    float* ds = ds_scratch;
    alpha += m;
    ds_scratch += m;
    const float* gr = g.row(i);
    const float* ur = u.row(i);
    // gv_j = g . v_j per candidate; gvbar = sum_j a_j gv_j over the
    // unrounded double dots, in ascending j.
    double gvbar = 0.0;
    for (int j0 = 0; j0 < m; j0 += kAttnBlock) {
      const int w = std::min(kAttnBlock, m - j0);
      AttnDots(gr, v, ids + j0, w, d, s);
      for (int jj = 0; jj < w; ++jj) {
        ds[j0 + jj] = static_cast<float>(s[jj]);
        gvbar += a[j0 + jj] * s[jj];
      }
    }
    // dL/ds_ij = a_j (gv_j - gvbar), overwriting gv_j in place.
    const float gvbar_f = static_cast<float>(gvbar);
    for (int j = 0; j < m; ++j) ds[j] = a[j] * (ds[j] - gvbar_f);
    // du_i = sum_j ds_j v_j: a sparse row with weights ds.
    SparseRow(0, m, ids, ds, v.data(), static_cast<size_t>(d), d, du->row(i));
    // dv_j += ds_j u_i + a_j g_i (the score path plus the direct convex-mix
    // term), candidates in ascending j so duplicates add in order.
    for (int j = 0; j < m; ++j) {
      float* dvr = dv->row(ids[j]);
      const F32x8 dsv = simd::SplatF32(ds[j]);
      const F32x8 av = simd::SplatF32(a[j]);
      int64_t c = 0;
      for (; c + kFloatLanes <= d; c += kFloatLanes) {
        const F32x8 term =
            simd::Add(simd::Mul(dsv, simd::LoadF32(ur + c)),
                      simd::Mul(av, simd::LoadF32(gr + c)));
        simd::StoreF32(dvr + c, simd::Add(simd::LoadF32(dvr + c), term));
      }
      for (; c < d; ++c) dvr[c] += ds[j] * ur[c] + a[j] * gr[c];
    }
  }
}

}  // namespace nmcdr

#ifndef NMCDR_TENSOR_VECTOR_KERNELS_H_
#define NMCDR_TENSOR_VECTOR_KERNELS_H_

#include <cstdint>
#include <vector>

#include "tensor/backend.h"  // FusedAct
#include "tensor/matrix.h"

// Register-blocked, cache-tiled, explicitly vectorized GEMM cores (the
// default vector backend and the tile-sharded ParallelBackend GEMMs), plus
// the register-row sparse cores behind SpMM and NeighborAttention, which
// every backend shares.
// Built on the lane abstraction in tensor/simd.h and defined in
// vector_kernels.cc, a translation unit compiled at -O3 with
// -ffp-contract=off — see src/tensor/CMakeLists.txt for why that is
// bitwise-safe.
//
// Every core is bit-exact with the eager scalar loops in backend.cc: per
// output element it performs the same IEEE operations in the same order
// (ascending-p accumulation, the shared `av == 0` skip, the double dot of
// the TransB family); only the iteration and storage of INDEPENDENT
// elements differ, which is the backend equivalence contract
// (tensor/backend.h). Each core computes a rectangular output tile
// rows [r0, r1) x cols [c0, c1), so callers are free to tile the output
// any way they like — per element the result cannot depend on the tiling.

namespace nmcdr {

/// out[r0:r1, c0:c1] += a * b restricted to the tile; per element
/// identical to MatMulAccumRows (ascending p, shared zero skip).
void VectorMatMulAccumTile(const Matrix& a, const Matrix& b, Matrix* out,
                           int64_t r0, int64_t r1, int64_t c0, int64_t c1);

/// Tile of A^T * B, overwriting the tile (its prior contents are never
/// read, so `out` may be unfilled): each element's accumulator starts at
/// +0.0 in a register, then per element identical to the serial p-outer
/// loop over a zero-filled output.
void VectorMatMulTransATile(const Matrix& a, const Matrix& b, Matrix* out,
                            int64_t r0, int64_t r1, int64_t c0, int64_t c1);

/// Tile of A * B^T; per element the same double dot in ascending p as
/// MatMulTransBRows. B^T is widened into a stack panel of doubles inside
/// the call, so the tile reads B as given and allocates nothing.
void VectorMatMulTransBTile(const Matrix& a, const Matrix& b, Matrix* out,
                            int64_t r0, int64_t r1, int64_t c0, int64_t c1);

/// Tile of the fused epilogue family: the product a*b from +0.0 in
/// registers (overwriting the tile, which may be unfilled), then per row
/// the bias add and activation over [c0, c1).
/// Per element identical to FusedMatMulRows (which itself bit-matches the
/// separate MatMul / AddRowBroadcast / activation kernels). The bias and
/// activation are column-wise independent, so a column-tiled epilogue
/// still applies them exactly once per element.
void VectorFusedMatMulTile(const Matrix& a, const Matrix& b,
                           const Matrix* bias, FusedAct act, Matrix* out,
                           int64_t r0, int64_t r1, int64_t c0, int64_t c1);

/// out += alpha * a elementwise, eight lanes at a time; per element the
/// reference's `o + alpha * in` (AxpyRange).
void VectorAxpyInto(const Matrix& a, float alpha, Matrix* out);

/// dst[i] = +0.0 + 1 * src[i] for i < n: VectorAxpyInto's per-element
/// sequence at alpha = 1 onto a zero-filled output, without reading the
/// output — so `dst` may be unfilled, or `src` itself.
void VectorAxpyOntoZero(const float* src, float* dst, int64_t n);

/// Sparse rows times a dense matrix: for every output row r,
///   out.row(r) = sum over e in [row_ptr[r], row_ptr[r+1]) of
///                vals[e] * x.row(src[e]),
/// accumulated in ascending e from +0.0 with the row's columns held in
/// registers (two 8-lane registers at width 16, any width supported).
/// Per element identical to the CSR loop `o += v * x` over a zero-filled
/// output, and every row is written (empty rows store +0), so `out` may
/// be unfilled. Serves both CsrMatrix::Multiply (CSR form) and the graph
/// program's planned CSR^T backward (its gather form).
void VectorSparseRowsMultiply(const int64_t* row_ptr, const int* src,
                              const float* vals, const Matrix& x,
                              Matrix* out);

/// NeighborAttention forward (the complementing attention of Eq. 18): for
/// user row i with candidate list L = candidates[i],
///   s_j = double dot(u_i, v_{L_j}) in ascending columns, rounded to float,
///   a_j = softmax_j(s) (max-shifted exp, double total, float 1/total),
///   out_i = sum_j a_j v_{L_j} in ascending j from +0.0.
/// Up to 16 candidates' dot chains run side by side; per element every
/// value follows ag::NeighborAttention's scalar reference sequence.
/// `alpha` receives the concatenated per-user weights (sum of the list
/// lengths floats); rows with empty lists get +0. Every element of `out`
/// and `alpha` is written. Candidate ids must already be bounds-checked.
void VectorNeighborAttentionForward(
    const Matrix& u, const Matrix& v,
    const std::vector<std::vector<int>>& candidates, float* alpha,
    Matrix* out);

/// NeighborAttention backward for upstream grad `g`, given the forward's
/// `alpha`: overwrites every row of `du` (empty lists store +0) and adds
/// into `dv`, which must be zero-filled, candidate by candidate in
/// ascending order. `ds_scratch` holds as many floats as `alpha`.
void VectorNeighborAttentionBackward(
    const Matrix& u, const Matrix& v,
    const std::vector<std::vector<int>>& candidates, const float* alpha,
    const Matrix& g, float* ds_scratch, Matrix* du, Matrix* dv);

/// 2-D output decomposition for the tile-sharded parallel GEMMs: a grid of
/// row_block x col_block tiles, flattened row-major into [0, num_tiles())
/// for ThreadPool::ParallelFor. Purely a scheduling artifact — the cores
/// above are tile-shape-independent, so ANY grid yields bit-identical
/// results; MakeGemmTileGrid only balances tile count against per-tile
/// work (enough tiles to feed `threads` workers, each tile at least the
/// pool's min-work grain so forking never loses to the serial loop).
struct GemmTileGrid {
  int64_t rows = 0, cols = 0;
  int64_t row_block = 1, col_block = 1;
  int64_t row_tiles = 0, col_tiles = 0;

  int64_t num_tiles() const { return row_tiles * col_tiles; }

  void TileBounds(int64_t tile, int64_t* r0, int64_t* r1, int64_t* c0,
                  int64_t* c1) const {
    const int64_t rt = tile / col_tiles;
    const int64_t ct = tile % col_tiles;
    *r0 = rt * row_block;
    *r1 = *r0 + row_block < rows ? *r0 + row_block : rows;
    *c0 = ct * col_block;
    *c1 = *c0 + col_block < cols ? *c0 + col_block : cols;
  }
};

/// Grid for an output of rows x cols with inner depth k, to be fanned out
/// over `threads` workers.
GemmTileGrid MakeGemmTileGrid(int64_t rows, int64_t cols, int64_t k,
                              int threads);

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_VECTOR_KERNELS_H_

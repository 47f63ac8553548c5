#ifndef NMCDR_TENSOR_VECTOR_KERNELS_H_
#define NMCDR_TENSOR_VECTOR_KERNELS_H_

#include <cstdint>

#include "tensor/backend.h"  // FusedAct
#include "tensor/matrix.h"

// Register-blocked, cache-tiled, explicitly vectorized GEMM cores (the
// default vector backend and the tile-sharded ParallelBackend GEMMs).
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

/// Tile of A^T * B into a zero-initialized out; per element identical to
/// MatMulTransARows.
void VectorMatMulTransATile(const Matrix& a, const Matrix& b, Matrix* out,
                            int64_t r0, int64_t r1, int64_t c0, int64_t c1);

/// Tile of A * B^T; per element the same double dot in ascending p as
/// MatMulTransBRows. B^T is widened into a stack panel of doubles inside
/// the call, so the tile reads B as given and allocates nothing.
void VectorMatMulTransBTile(const Matrix& a, const Matrix& b, Matrix* out,
                            int64_t r0, int64_t r1, int64_t c0, int64_t c1);

/// Tile of the fused epilogue family: accumulate a*b into the (pre-zeroed)
/// tile, then per row apply the bias add and activation over [c0, c1).
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

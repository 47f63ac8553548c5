#ifndef NMCDR_TENSOR_FUSED_KERNELS_H_
#define NMCDR_TENSOR_FUSED_KERNELS_H_

#include <cstdint>

#include "tensor/backend.h"  // FusedAct, EltwiseStep
#include "tensor/matrix.h"

// Range cores for the graph-program replay path (fused epilogues, fused
// eltwise chains, planned register-blocked GEMMs). Declared here so both
// backends (backend.cc) can shard them; defined in fused_kernels.cc, a
// separate translation unit compiled at a higher optimization level — see
// the note in src/tensor/CMakeLists.txt for why that is bitwise-safe.
//
// Every core is bit-exact with the eager op sequence it replaces: per
// output element it performs the same IEEE operations in the same order;
// only the iteration and storage of independent elements differ.

namespace nmcdr {

/// C += A * B for output rows [r0, r1), column-tiled with register
/// accumulators; per element identical to MatMulAccumRows.
void PlannedMatMulAccumRows(const Matrix& a, const Matrix& b, Matrix* out,
                            int64_t r0, int64_t r1);

/// Output rows [r0, r1) of A^T * B into a zero-initialized `out`; per
/// element identical to MatMulTransARows.
void PlannedMatMulTransARows(const Matrix& a, const Matrix& b, Matrix* out,
                             int64_t r0, int64_t r1);

/// Output rows [r0, r1) of A * B^T where `bt` is B already transposed
/// (bt(p, j) = b(j, p)); per element the same double dot in ascending p as
/// MatMulTransBRows.
void PlannedMatMulTransBRows(const Matrix& a, const Matrix& bt, Matrix* out,
                             int64_t r0, int64_t r1);

/// Rows [r0, r1): zero the rows, accumulate a*b as MatMulAccumRows, then
/// apply the bias-add and activation in place. Per element this computes
/// act(matmul + bias) with the same float sequence as the separate
/// MatMul / AddRowBroadcast / activation kernels.
void FusedMatMulRows(const Matrix& a, const Matrix& b, const Matrix* bias,
                     FusedAct act, Matrix* out, int64_t r0, int64_t r1);

/// Elements [i0, i1): out[i] = steps applied to a[i] in order.
void FusedEltwiseRange(const Matrix& a, const EltwiseStep* steps,
                       int num_steps, Matrix* out, int64_t i0, int64_t i1);

/// Per-element cost estimate for an eltwise chain (grain selection only —
/// never affects results).
int64_t EltwiseChainCost(const EltwiseStep* steps, int num_steps);

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_FUSED_KERNELS_H_

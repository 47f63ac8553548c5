#ifndef NMCDR_TENSOR_VECTOR_KERNELS_H_
#define NMCDR_TENSOR_VECTOR_KERNELS_H_

#include <cstdint>
#include <vector>

#include "tensor/fused_kernels.h"  // FusedAct
#include "tensor/matrix.h"
#include "util/thread_annotations.h"

// Register-blocked, cache-tiled, explicitly vectorized GEMM cores (the
// vector backend, and the graph-program replay's fused epilogue and
// backward GEMMs under any backend), plus the register-row sparse cores
// behind SpMM and NeighborAttention, which both backends share.
// Built on the lane abstraction in tensor/simd.h and defined in
// vector_kernels.cc, a translation unit compiled at -O3 with
// -ffp-contract=off — see src/tensor/CMakeLists.txt for why that is
// bitwise-safe.
//
// Every core is bit-exact with the serial reference loops (SerialBackend,
// tensor/backend.h, and the eager kernels of tensor/matrix_ops.h): per
// output element it performs the same IEEE operations in the same order
// (ascending-p accumulation, the shared `av == 0` skip, the double dot of
// the TransB family); only the iteration and storage of INDEPENDENT
// elements differ, which is the backend equivalence contract.

namespace nmcdr {

/// out += a * b; per element identical to SerialBackend::MatMulAccumInto
/// (ascending p, shared zero skip).
void VectorMatMulAccum(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b, overwriting `out` (its prior contents are never read, so
/// it may be unfilled): each element's accumulator starts at +0.0 in a
/// register, then per element identical to the serial p-outer loop over a
/// zero-filled output.
void VectorMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T, overwriting `out`; per element the same double dot in
/// ascending p as SerialBackend::MatMulTransB. B^T is widened into a stack
/// panel of doubles inside the call, so it reads B as given and allocates
/// nothing.
void VectorMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// The fused epilogue (bias optional, a 1 x b.cols() row vector; nullptr
/// skips it): the product a*b from +0.0 in registers (overwriting `out`,
/// which may be unfilled), then per row the bias add and activation. Per
/// element identical to the eager sequence MatMul (zero-filled
/// MatMulAccumInto), AddRowBroadcast, then Relu / Sigmoid / Tanh.
void VectorFusedMatMul(const Matrix& a, const Matrix& b, const Matrix* bias,
                       FusedAct act, Matrix* out) NMCDR_HOT;

/// out += alpha * a elementwise, eight lanes at a time; per element the
/// reference's `o + alpha * in` (SerialBackend::AxpyInto).
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

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_VECTOR_KERNELS_H_

#ifndef NMCDR_TENSOR_FUSED_KERNELS_H_
#define NMCDR_TENSOR_FUSED_KERNELS_H_

#include <cstdint>

#include "tensor/matrix.h"
#include "util/thread_annotations.h"

// The fused ops of the graph-program replay path (src/program): the
// activation a fused matmul epilogue applies (its kernel is
// VectorFusedMatMul, tensor/vector_kernels.h) and the elementwise
// chain, whose loop is defined in fused_kernels.cc — a translation unit
// compiled at a higher optimization level; see the note in
// src/tensor/CMakeLists.txt for why that is bitwise-safe.

namespace nmcdr {

/// Activation folded into the fused matmul epilogue (kNone = bias only).
enum class FusedAct : uint8_t { kNone, kRelu, kSigmoid, kTanh };

/// One step of a fused elementwise chain, interpreted per element by
/// FusedEltwiseInto. The graph-program compiler lowers a run of eager
/// elementwise ops into a step list; each step transforms the running
/// value `cur` (seeded from the chain's primary input) with the exact
/// scalar expression of the eager kernel it replaces, so the fused loop is
/// bit-identical to the op-by-op sequence.
enum class EltwiseOp : uint8_t {
  kAddMat,     // cur + side[i]
  kSubMat,     // cur - side[i], or side[i] - cur when rhs is set
  kMulMat,     // cur * side[i]           (Hadamard)
  kScale,      // scalar * cur
  kAddScalar,  // cur + scalar
  kOneMinus,   // 1 - cur
  kSoftplus,   // softplus(cur)
  kRelu,       // relu(cur)
  kSigmoid,    // sigmoid(cur)
  kTanh,       // tanh(cur)
  kExp,        // exp(cur)
};

struct EltwiseStep {
  EltwiseOp op = EltwiseOp::kAddMat;
  /// kSubMat orientation: the chain value is the subtrahend (side - cur).
  bool rhs = false;
  /// kScale / kAddScalar operand.
  float scalar = 0.f;
  /// kAddMat / kSubMat / kMulMat operand, same element count as the output.
  const float* side = nullptr;
};

/// out[i] = steps applied to a[i] in order, for every element. Writes
/// every element of `out`, which may be unfilled (Matrix::ForOverwrite).
void FusedEltwiseInto(const Matrix& a, const EltwiseStep* steps,
                      int num_steps, Matrix* out) NMCDR_HOT;

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_FUSED_KERNELS_H_

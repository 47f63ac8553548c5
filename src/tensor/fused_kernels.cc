// The elementwise-chain loop of the graph-program replay path
// (tensor/fused_kernels.h).
//
// This translation unit is compiled at a higher optimization level than the
// rest of the tensor library (see src/tensor/CMakeLists.txt): the loop
// below computes every output element with a fixed sequence of scalar
// operations and no cross-element reduction, so aggressive loop
// optimization is value-preserving. The eager kernels in matrix_ops.cc
// stay at the default level: they are the readable reference the chain is
// audited against, bit for bit.

#include "tensor/fused_kernels.h"

#include "tensor/matrix.h"
#include "tensor/scalar_kernels.h"

namespace nmcdr {
namespace {

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

void FusedEltwiseInto(const Matrix& a, const EltwiseStep* steps,
                      int num_steps, Matrix* out) {
  const float* in = a.data();
  float* o = out->data();
  for (int64_t i = 0; i < a.size(); ++i) {
    o[i] = EltwiseApplySteps(in[i], static_cast<size_t>(i), steps, num_steps);
  }
}

}  // namespace nmcdr

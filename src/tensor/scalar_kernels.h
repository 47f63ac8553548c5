#ifndef NMCDR_TENSOR_SCALAR_KERNELS_H_
#define NMCDR_TENSOR_SCALAR_KERNELS_H_

#include <cmath>

// Per-element scalar bodies shared by the eager activation kernels
// (matrix_ops.cc) and the replay path's fused kernels (fused_kernels.cc,
// vector_kernels.cc). Every one of those translation units includes this
// header, so fused and eager execution evaluate the exact same
// expressions against the same libm — results are bit-identical
// regardless of each TU's optimization level (no expression here is
// eligible for reassociation or FMA contraction on the baseline target).

namespace nmcdr {

inline float ReluScalar(float x) { return x > 0.f ? x : 0.f; }

inline float SigmoidScalar(float x) {
  // Numerically stable in both tails.
  if (x >= 0.f) {
    const float z = std::exp(-x);
    return 1.f / (1.f + z);
  }
  const float z = std::exp(x);
  return z / (1.f + z);
}

inline float TanhScalar(float x) { return std::tanh(x); }

inline float SoftplusScalar(float x) {
  // log(1+e^x) = max(x,0) + log1p(e^{-|x|})
  return (x > 0.f ? x : 0.f) + std::log1p(std::exp(-std::fabs(x)));
}

inline float ExpScalar(float x) { return std::exp(x); }

inline float LogScalar(float x) {
  return std::log(x > 1e-12f ? x : 1e-12f);
}

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_SCALAR_KERNELS_H_

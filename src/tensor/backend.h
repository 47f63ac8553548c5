#ifndef NMCDR_TENSOR_BACKEND_H_
#define NMCDR_TENSOR_BACKEND_H_

#include "tensor/matrix.h"
#include "util/thread_annotations.h"

namespace nmcdr {

/// Execution seam for the four dense kernels that have two implementations:
/// the GEMM family and AxpyInto. The matrix_ops.h dispatchers for these
/// route through the current KernelBackend; every other kernel has one
/// implementation (the scalar loop in matrix_ops.cc) and is called
/// directly, under any backend.
///
/// Contract: both backends produce BIT-EXACT results for the same inputs —
/// identical down to the float, not merely close. The vector cores compute
/// every output element with the serial loop's IEEE operation sequence;
/// only the iteration order and storage of independent elements differ
/// (tensor/vector_kernels.h, DESIGN.md §9). backend_equivalence_test
/// fuzzes the interface against this contract.
///
/// Shape validation lives in the matrix_ops.h dispatchers; backend methods
/// may assume validated inputs (direct callers bypassing the dispatchers,
/// like the equivalence fuzz, must pass well-formed shapes).
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Stable name for logs / bench output ("serial", "vector").
  virtual const char* name() const = 0;

  /// out += a * b. MatMul itself is derived: out = 0; MatMulAccumInto.
  virtual void MatMulAccumInto(const Matrix& a, const Matrix& b,
                               Matrix* out) const = 0;
  /// a^T * b.
  virtual Matrix MatMulTransA(const Matrix& a, const Matrix& b) const = 0;
  /// a * b^T.
  virtual Matrix MatMulTransB(const Matrix& a, const Matrix& b) const = 0;
  /// out += alpha * a, elementwise.
  virtual void AxpyInto(const Matrix& a, float alpha, Matrix* out) const = 0;
};

/// The seed repo's scalar loops: the readable reference the vector backend
/// must match bit for bit.
class SerialBackend final : public KernelBackend {
 public:
  const char* name() const override { return "serial"; }
  void MatMulAccumInto(const Matrix& a, const Matrix& b,
                       Matrix* out) const override;
  Matrix MatMulTransA(const Matrix& a, const Matrix& b) const override;
  Matrix MatMulTransB(const Matrix& a, const Matrix& b) const override;
  void AxpyInto(const Matrix& a, float alpha, Matrix* out) const override;
};

/// The register-blocked, explicitly vectorized cores of
/// tensor/vector_kernels.h on the calling thread: the backend of every
/// thread without a BackendGuard. The graph-program replay calls its
/// TransA / TransB directly, under either backend.
class VectorBackend final : public KernelBackend {
 public:
  const char* name() const override { return "vector"; }
  void MatMulAccumInto(const Matrix& a, const Matrix& b,
                       Matrix* out) const override;
  Matrix MatMulTransA(const Matrix& a,
                      const Matrix& b) const override NMCDR_HOT;
  Matrix MatMulTransB(const Matrix& a,
                      const Matrix& b) const override NMCDR_HOT;
  void AxpyInto(const Matrix& a, float alpha, Matrix* out) const override;
};

/// Long-lived singleton instances (function-local statics).
const SerialBackend& SerialKernelBackend();
const VectorBackend& VectorKernelBackend();

/// The backend the matrix_ops.h dispatchers use on this thread: the
/// innermost active BackendGuard if any, else VectorKernelBackend.
const KernelBackend& CurrentBackend();

/// RAII scoped backend override for the current thread only, so concurrent
/// servers/trainers can pin different backends without racing. Guards
/// nest; nullptr is a no-op guard (keeps whatever is current).
class BackendGuard {
 public:
  explicit BackendGuard(const KernelBackend* backend);
  ~BackendGuard();
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  const KernelBackend* saved_;
  bool active_;
};

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_BACKEND_H_

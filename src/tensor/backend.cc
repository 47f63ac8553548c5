#include "tensor/backend.h"

#include <cstdint>

#include "tensor/vector_kernels.h"

namespace nmcdr {

// ---------------------------------------------------------------------------
// SerialBackend: the reference loops. A kernel that writes every output
// element allocates its output with Matrix::ForOverwrite (unfilled inside
// the replay arena); one that adds into its output (the p-outer TransA
// loop) keeps the zero-filled constructor.
// ---------------------------------------------------------------------------

void SerialBackend::MatMulAccumInto(const Matrix& a, const Matrix& b,
                                    Matrix* out) const {
  // ikj loop order: streams over B and C rows, cache-friendly row-major.
  const int k = a.cols(), n = b.cols();
  for (int i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* crow = out->row(i);
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.f) continue;
      const float* brow = b.row(p);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

Matrix SerialBackend::MatMulTransA(const Matrix& a, const Matrix& b) const {
  // p-outer streaming loop (reads each A/B row once); per output element
  // the accumulation order is ascending p with the zero skip, the chain
  // VectorMatMulTransA reproduces.
  const int k = a.rows(), m = a.cols(), n = b.cols();
  Matrix out(m, n);
  for (int p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.f) continue;
      float* crow = out.row(i);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return out;
}

Matrix SerialBackend::MatMulTransB(const Matrix& a, const Matrix& b) const {
  const int k = a.cols(), n = b.rows();
  Matrix out = Matrix::ForOverwrite(a.rows(), n);
  for (int i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* crow = out.row(i);
    for (int j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += static_cast<double>(arow[p]) * brow[p];
      crow[j] = static_cast<float>(acc);
    }
  }
  return out;
}

void SerialBackend::AxpyInto(const Matrix& a, float alpha, Matrix* out) const {
  const float* in = a.data();
  float* o = out->data();
  for (int64_t i = 0; i < a.size(); ++i) o[i] += alpha * in[i];
}

// ---------------------------------------------------------------------------
// VectorBackend: the vector cores on the caller's thread.
// ---------------------------------------------------------------------------

void VectorBackend::MatMulAccumInto(const Matrix& a, const Matrix& b,
                                    Matrix* out) const {
  VectorMatMulAccum(a, b, out);
}

Matrix VectorBackend::MatMulTransA(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.cols(), b.cols());
  VectorMatMulTransA(a, b, &out);
  return out;
}

Matrix VectorBackend::MatMulTransB(const Matrix& a, const Matrix& b) const {
  Matrix out = Matrix::ForOverwrite(a.rows(), b.rows());
  VectorMatMulTransB(a, b, &out);
  return out;
}

void VectorBackend::AxpyInto(const Matrix& a, float alpha, Matrix* out) const {
  VectorAxpyInto(a, alpha, out);
}

// ---------------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------------

namespace {

thread_local const KernelBackend* tl_backend_override = nullptr;

}  // namespace

const SerialBackend& SerialKernelBackend() {
  static const SerialBackend backend;
  return backend;
}

const VectorBackend& VectorKernelBackend() {
  static const VectorBackend backend;
  return backend;
}

const KernelBackend& CurrentBackend() {
  if (tl_backend_override != nullptr) return *tl_backend_override;
  return VectorKernelBackend();
}

BackendGuard::BackendGuard(const KernelBackend* backend)
    : saved_(tl_backend_override), active_(backend != nullptr) {
  if (active_) tl_backend_override = backend;
}

BackendGuard::~BackendGuard() {
  if (active_) tl_backend_override = saved_;
}

}  // namespace nmcdr

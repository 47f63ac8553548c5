#ifndef NMCDR_TENSOR_BACKEND_H_
#define NMCDR_TENSOR_BACKEND_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "tensor/matrix.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace nmcdr {

/// Activation folded into the fused matmul epilogue (kNone = bias only).
enum class FusedAct : uint8_t { kNone, kRelu, kSigmoid, kTanh };

/// One step of a fused elementwise chain, interpreted per element by
/// FusedEltwiseInto. The graph-program compiler (src/program) lowers a run
/// of eager elementwise ops into a step list; each step transforms the
/// running value `cur` (seeded from the chain's primary input) with the
/// exact scalar expression of the eager kernel it replaces, so the fused
/// loop is bit-identical to the op-by-op sequence.
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

/// Execution seam for the dense kernels: the free functions in
/// tensor/matrix_ops.h are thin dispatchers over the current KernelBackend,
/// so every consumer (autograd ops, model code, the serving ScoreEngine)
/// picks up a backend change without touching a call site.
///
/// Contract: every backend must produce BIT-EXACT results for the same
/// inputs — identical down to the float, not merely close. ParallelBackend
/// achieves this by sharding each kernel so that every output element is
/// computed by exactly one chunk using the serial code's floating-point
/// operation order (rows for GEMMs, columns for the ColSum reduction,
/// destination rows for ScatterAddRows); see DESIGN.md §9 for the
/// determinism argument. backend_equivalence_test fuzzes the whole
/// interface against this contract.
///
/// Shape validation lives in the matrix_ops.h dispatchers; backend methods
/// may assume validated inputs (direct callers bypassing the dispatchers,
/// like the equivalence fuzz, must pass well-formed shapes).
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Stable name for logs / bench output ("serial", "vector", "parallel").
  virtual const char* name() const = 0;

  // Dense GEMM family. MatMul itself is derived: out = 0; MatMulAccumInto.
  virtual void MatMulAccumInto(const Matrix& a, const Matrix& b,
                               Matrix* out) const = 0;
  virtual Matrix MatMulTransA(const Matrix& a, const Matrix& b) const = 0;
  virtual Matrix MatMulTransB(const Matrix& a, const Matrix& b) const = 0;
  virtual Matrix Transpose(const Matrix& a) const = 0;

  // Elementwise / broadcast kernels.
  virtual Matrix Add(const Matrix& a, const Matrix& b) const = 0;
  virtual Matrix Sub(const Matrix& a, const Matrix& b) const = 0;
  virtual Matrix Hadamard(const Matrix& a, const Matrix& b) const = 0;
  virtual Matrix Axpby(const Matrix& a, float alpha, const Matrix& b,
                       float beta) const = 0;
  virtual void AxpyInto(const Matrix& a, float alpha, Matrix* out) const = 0;
  virtual Matrix Scale(const Matrix& a, float s) const = 0;
  virtual Matrix AddScalar(const Matrix& a, float s) const = 0;
  virtual Matrix AddRowBroadcast(const Matrix& a, const Matrix& b) const = 0;

  // Activations.
  virtual Matrix Relu(const Matrix& a) const = 0;
  virtual Matrix Sigmoid(const Matrix& a) const = 0;
  virtual Matrix Tanh(const Matrix& a) const = 0;
  virtual Matrix Softplus(const Matrix& a) const = 0;
  virtual Matrix Exp(const Matrix& a) const = 0;
  virtual Matrix Log(const Matrix& a) const = 0;
  virtual Matrix SoftmaxRows(const Matrix& a) const = 0;

  // Reductions and gather/scatter.
  virtual Matrix RowSum(const Matrix& a) const = 0;
  virtual Matrix RowDot(const Matrix& a, const Matrix& b) const = 0;
  virtual Matrix ColSum(const Matrix& a) const = 0;
  virtual Matrix GatherRows(const Matrix& table,
                            const std::vector<int>& ids) const = 0;
  virtual void ScatterAddRows(const Matrix& src, const std::vector<int>& ids,
                              Matrix* out) const = 0;
  virtual Matrix ConcatCols(const Matrix& a, const Matrix& b) const = 0;

  // Fused kernels (graph-program replay path, src/program). Bit-exact with
  // the op sequence each replaces — same per-element float operation order
  // as the separate kernels, at any thread count.

  /// out = a * b, then per row out = act(out + bias) (bias optional, a
  /// 1 x b.cols() row vector; nullptr skips it). Overwrites `out`, which
  /// may be unfilled (Matrix::ForOverwrite): the product is accumulated
  /// from +0.0, matching MatMul = Zeros + MatMulAccumInto.
  virtual void FusedMatMulBiasActInto(const Matrix& a, const Matrix& b,
                                      const Matrix* bias, FusedAct act,
                                      Matrix* out) const = 0;

  /// out[i] = steps applied to a[i] in order (see EltwiseStep).
  virtual void FusedEltwiseInto(const Matrix& a, const EltwiseStep* steps,
                                int num_steps, Matrix* out) const = 0;

  /// Register-blocked backward GEMMs (graph-program replay path). Bit-exact
  /// with MatMulTransA / MatMulTransB — each output element sees the exact
  /// same float (resp. double) accumulation sequence in ascending p — but a
  /// block of output elements rides in local accumulators, so independent
  /// per-element chains overlap instead of serializing through memory.
  virtual Matrix PlannedMatMulTransA(const Matrix& a,
                                     const Matrix& b) const = 0;
  virtual Matrix PlannedMatMulTransB(const Matrix& a,
                                     const Matrix& b) const = 0;
};

/// The seed repo's single-threaded kernels, verbatim (moved here from
/// matrix_ops.cc). The reference implementation every other backend must
/// match bit-for-bit.
class SerialBackend final : public KernelBackend {
 public:
  const char* name() const override { return "serial"; }
  void MatMulAccumInto(const Matrix& a, const Matrix& b,
                       Matrix* out) const override;
  Matrix MatMulTransA(const Matrix& a, const Matrix& b) const override;
  Matrix MatMulTransB(const Matrix& a, const Matrix& b) const override;
  Matrix Transpose(const Matrix& a) const override;
  Matrix Add(const Matrix& a, const Matrix& b) const override;
  Matrix Sub(const Matrix& a, const Matrix& b) const override;
  Matrix Hadamard(const Matrix& a, const Matrix& b) const override;
  Matrix Axpby(const Matrix& a, float alpha, const Matrix& b,
               float beta) const override;
  void AxpyInto(const Matrix& a, float alpha, Matrix* out) const override;
  Matrix Scale(const Matrix& a, float s) const override;
  Matrix AddScalar(const Matrix& a, float s) const override;
  Matrix AddRowBroadcast(const Matrix& a, const Matrix& b) const override;
  Matrix Relu(const Matrix& a) const override;
  Matrix Sigmoid(const Matrix& a) const override;
  Matrix Tanh(const Matrix& a) const override;
  Matrix Softplus(const Matrix& a) const override;
  Matrix Exp(const Matrix& a) const override;
  Matrix Log(const Matrix& a) const override;
  Matrix SoftmaxRows(const Matrix& a) const override;
  Matrix RowSum(const Matrix& a) const override;
  Matrix RowDot(const Matrix& a, const Matrix& b) const override;
  Matrix ColSum(const Matrix& a) const override;
  Matrix GatherRows(const Matrix& table,
                    const std::vector<int>& ids) const override;
  void ScatterAddRows(const Matrix& src, const std::vector<int>& ids,
                      Matrix* out) const override;
  Matrix ConcatCols(const Matrix& a, const Matrix& b) const override;
  void FusedMatMulBiasActInto(const Matrix& a, const Matrix& b,
                              const Matrix* bias, FusedAct act,
                              Matrix* out) const override NMCDR_HOT;
  void FusedEltwiseInto(const Matrix& a, const EltwiseStep* steps,
                        int num_steps, Matrix* out) const override NMCDR_HOT;
  Matrix PlannedMatMulTransA(const Matrix& a,
                             const Matrix& b) const override NMCDR_HOT;
  Matrix PlannedMatMulTransB(const Matrix& a,
                             const Matrix& b) const override NMCDR_HOT;
};

/// Single-threaded kernels with the GEMM family (and its fused epilogues)
/// and AxpyInto routed through the register-blocked, explicitly vectorized
/// cores of tensor/vector_kernels.h; every other kernel delegates to the
/// serial reference. Bit-exact with SerialBackend by the vector-core
/// contract (same per-element IEEE sequence). The process default: at the
/// model's D = 16 shapes one thread of tile cores beats fanning each
/// kernel out over the pool (DESIGN.md §9).
class VectorBackend final : public KernelBackend {
 public:
  const char* name() const override { return "vector"; }
  void MatMulAccumInto(const Matrix& a, const Matrix& b,
                       Matrix* out) const override;
  Matrix MatMulTransA(const Matrix& a, const Matrix& b) const override;
  Matrix MatMulTransB(const Matrix& a, const Matrix& b) const override;
  Matrix Transpose(const Matrix& a) const override;
  Matrix Add(const Matrix& a, const Matrix& b) const override;
  Matrix Sub(const Matrix& a, const Matrix& b) const override;
  Matrix Hadamard(const Matrix& a, const Matrix& b) const override;
  Matrix Axpby(const Matrix& a, float alpha, const Matrix& b,
               float beta) const override;
  void AxpyInto(const Matrix& a, float alpha, Matrix* out) const override;
  Matrix Scale(const Matrix& a, float s) const override;
  Matrix AddScalar(const Matrix& a, float s) const override;
  Matrix AddRowBroadcast(const Matrix& a, const Matrix& b) const override;
  Matrix Relu(const Matrix& a) const override;
  Matrix Sigmoid(const Matrix& a) const override;
  Matrix Tanh(const Matrix& a) const override;
  Matrix Softplus(const Matrix& a) const override;
  Matrix Exp(const Matrix& a) const override;
  Matrix Log(const Matrix& a) const override;
  Matrix SoftmaxRows(const Matrix& a) const override;
  Matrix RowSum(const Matrix& a) const override;
  Matrix RowDot(const Matrix& a, const Matrix& b) const override;
  Matrix ColSum(const Matrix& a) const override;
  Matrix GatherRows(const Matrix& table,
                    const std::vector<int>& ids) const override;
  void ScatterAddRows(const Matrix& src, const std::vector<int>& ids,
                      Matrix* out) const override;
  Matrix ConcatCols(const Matrix& a, const Matrix& b) const override;
  void FusedMatMulBiasActInto(const Matrix& a, const Matrix& b,
                              const Matrix* bias, FusedAct act,
                              Matrix* out) const override NMCDR_HOT;
  void FusedEltwiseInto(const Matrix& a, const EltwiseStep* steps,
                        int num_steps, Matrix* out) const override NMCDR_HOT;
  Matrix PlannedMatMulTransA(const Matrix& a,
                             const Matrix& b) const override NMCDR_HOT;
  Matrix PlannedMatMulTransB(const Matrix& a,
                             const Matrix& b) const override NMCDR_HOT;
};

/// Pool-backed kernels: 2-D tile-sharded GEMMs over the vector tile cores
/// (tensor/vector_kernels.h) so small shapes like 512x64 split into
/// enough tiles to feed every worker, chunked elementwise and activation
/// loops, sharded GatherRows, column-sharded ColSum, and
/// destination-row-sharded ScatterAddRows. Small inputs (below a
/// per-kernel work grain) run the serial path inline. Selected via
/// NMCDR_BACKEND=parallel, --backend parallel, or a thread count > 1.
class ParallelBackend final : public KernelBackend {
 public:
  /// `pool == nullptr` binds to ThreadPool::Shared() at call time (the
  /// production configuration); benchmarks and tests pass private pools to
  /// sweep thread counts inside one process.
  explicit ParallelBackend(ThreadPool* pool = nullptr) : pool_(pool) {}

  const char* name() const override { return "parallel"; }
  void MatMulAccumInto(const Matrix& a, const Matrix& b,
                       Matrix* out) const override;
  Matrix MatMulTransA(const Matrix& a, const Matrix& b) const override;
  Matrix MatMulTransB(const Matrix& a, const Matrix& b) const override;
  Matrix Transpose(const Matrix& a) const override;
  Matrix Add(const Matrix& a, const Matrix& b) const override;
  Matrix Sub(const Matrix& a, const Matrix& b) const override;
  Matrix Hadamard(const Matrix& a, const Matrix& b) const override;
  Matrix Axpby(const Matrix& a, float alpha, const Matrix& b,
               float beta) const override;
  void AxpyInto(const Matrix& a, float alpha, Matrix* out) const override;
  Matrix Scale(const Matrix& a, float s) const override;
  Matrix AddScalar(const Matrix& a, float s) const override;
  Matrix AddRowBroadcast(const Matrix& a, const Matrix& b) const override;
  Matrix Relu(const Matrix& a) const override;
  Matrix Sigmoid(const Matrix& a) const override;
  Matrix Tanh(const Matrix& a) const override;
  Matrix Softplus(const Matrix& a) const override;
  Matrix Exp(const Matrix& a) const override;
  Matrix Log(const Matrix& a) const override;
  Matrix SoftmaxRows(const Matrix& a) const override;
  Matrix RowSum(const Matrix& a) const override;
  Matrix RowDot(const Matrix& a, const Matrix& b) const override;
  Matrix ColSum(const Matrix& a) const override;
  Matrix GatherRows(const Matrix& table,
                    const std::vector<int>& ids) const override;
  void ScatterAddRows(const Matrix& src, const std::vector<int>& ids,
                      Matrix* out) const override;
  Matrix ConcatCols(const Matrix& a, const Matrix& b) const override;
  void FusedMatMulBiasActInto(const Matrix& a, const Matrix& b,
                              const Matrix* bias, FusedAct act,
                              Matrix* out) const override NMCDR_HOT;
  void FusedEltwiseInto(const Matrix& a, const EltwiseStep* steps,
                        int num_steps, Matrix* out) const override NMCDR_HOT;
  Matrix PlannedMatMulTransA(const Matrix& a,
                             const Matrix& b) const override NMCDR_HOT;
  Matrix PlannedMatMulTransB(const Matrix& a,
                             const Matrix& b) const override NMCDR_HOT;

  ThreadPool* pool() const {
    return pool_ != nullptr ? pool_ : ThreadPool::Shared();
  }

 private:
  ThreadPool* pool_;
};

/// Long-lived singleton instances (function-local statics).
const SerialBackend& SerialKernelBackend();
const VectorBackend& VectorKernelBackend();
const ParallelBackend& ParallelKernelBackend();  // over ThreadPool::Shared()

/// Singleton lookup by stable name ("serial", "vector", "parallel") — the
/// resolver behind the --backend CLI flags and the NMCDR_BACKEND
/// environment knob. Returns nullptr for an unknown name.
const KernelBackend* BackendByName(std::string_view name);

/// The backend the matrix_ops.h dispatchers use on this thread: the
/// innermost active BackendGuard if any, else the process default.
const KernelBackend& CurrentBackend();

/// Replaces the process-default backend (initially VectorKernelBackend —
/// one thread of SIMD tile cores — or the backend
/// NMCDR_BACKEND=serial|vector|parallel names in the environment). Pass
/// nullptr to restore the built-in default. Not a synchronization point:
/// call during startup, before concurrent kernel users exist.
void SetDefaultBackend(const KernelBackend* backend);

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

/// Maps a user-facing thread-count knob (TrainConfig::threads, --threads)
/// to a backend override: 0 -> nullptr (inherit current, by default the
/// one-thread vector backend), 1 -> SerialKernelBackend (the reference),
/// >1 -> ParallelKernelBackend over the shared pool.
const KernelBackend* BackendForThreads(int threads);

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_BACKEND_H_

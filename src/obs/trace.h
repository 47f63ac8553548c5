#ifndef NMCDR_OBS_TRACE_H_
#define NMCDR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace nmcdr {
namespace obs {

/// Instrumentation scopes. These are the ONLY place the obs enable flags
/// are consulted: each scope reads its flag once at construction and pays
/// nothing afterwards when disabled (no clock reads, no allocation —
/// asserted by obs_test). The metric primitives underneath never gate.

// ---------------------------------------------------------------------------
// ScopedTimer / TraceSpan — coarse phase timing
// ---------------------------------------------------------------------------

/// RAII timer recording elapsed milliseconds into a Histogram on
/// destruction. Armed only when `enabled` is true at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist, bool enabled = MetricsEnabled())
      : hist_(enabled ? hist : nullptr), start_ns_(hist_ ? NowNs() : 0) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Record(static_cast<double>(NowNs() - start_ns_) * 1e-6);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  int64_t start_ns_;
};

/// Named coarse-grained span (an epoch, a serve phase). On destruction —
/// when metrics are enabled — bumps counter "span.<name>.count" and
/// records the duration in seconds into histogram "span.<name>.seconds"
/// (DefaultTimeBucketsSeconds buckets) in the given registry. Intended
/// for O(epochs)-frequency scopes: each construction resolves its metrics
/// by name, so do not put one per tensor op — that is what OpScope /
/// KernelScope are for.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     MetricsRegistry& registry = MetricsRegistry::Global());
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Seconds since construction (0 when the span is disarmed).
  double ElapsedSeconds() const;

 private:
  Counter* count_;    // nullptr when disarmed
  Histogram* hist_;
  int64_t start_ns_;
};

// ---------------------------------------------------------------------------
// OpScope — autograd per-op forward/backward accounting
// ---------------------------------------------------------------------------

/// Aggregated statistics for one autograd op name. Relaxed atomics; ops
/// are constructed on the training thread but scoring helpers may run on
/// pool workers, so writes must be thread-safe.
struct OpStats {
  std::atomic<int64_t> forward_calls{0};
  std::atomic<int64_t> forward_ns{0};
  std::atomic<int64_t> backward_calls{0};
  std::atomic<int64_t> backward_ns{0};

  /// Stable per-name entry in the global op table. The returned reference
  /// lives forever; instrumentation sites cache it in a function-local
  /// static so the name lookup happens once per site.
  static OpStats& ForName(const char* name);
};

/// One (name, stats) row of the global op table, sorted by name.
struct OpStatsRow {
  std::string name;
  int64_t forward_calls;
  int64_t forward_ns;
  int64_t backward_calls;
  int64_t backward_ns;
};
std::vector<OpStatsRow> SnapshotOpStats();

/// Records backward wall time for `op` (called by the autograd tape under
/// ProfilingEnabled()). Uses a thread-local pointer-keyed cache so the
/// string lookup amortizes to pointer identity on the op-name literals.
void RecordBackward(const char* op, int64_t ns);

/// RAII forward-pass probe. Counts the call when metrics are enabled and
/// accumulates wall time when profiling is enabled.
class OpScope {
 public:
  explicit OpScope(OpStats& stats)
      : stats_(MetricsEnabled() ? &stats : nullptr),
        start_ns_(stats_ != nullptr && ProfilingEnabled() ? NowNs() : 0) {
    if (stats_ != nullptr) {
      stats_->forward_calls.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ~OpScope() {
    if (start_ns_ != 0) {
      stats_->forward_ns.fetch_add(NowNs() - start_ns_,
                                   std::memory_order_relaxed);
    }
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  OpStats* stats_;
  int64_t start_ns_;
};

/// Per-op-function probe: resolves the op's stats row once (function-local
/// static), then opens an OpScope for the rest of the enclosing scope.
#if defined(NMCDR_OBS_DISABLED)
#define NMCDR_OBS_OP_SCOPE(op_name) \
  do {                              \
  } while (false)
#else
#define NMCDR_OBS_OP_SCOPE(op_name)                         \
  static ::nmcdr::obs::OpStats& nmcdr_obs_op_stats_local =  \
      ::nmcdr::obs::OpStats::ForName(op_name);              \
  const ::nmcdr::obs::OpScope nmcdr_obs_op_scope_local(nmcdr_obs_op_stats_local)
#endif

// ---------------------------------------------------------------------------
// KernelScope — backend dispatcher call counts, FLOPs, wall time
// ---------------------------------------------------------------------------

/// One slot per tensor/matrix_ops.h kernel dispatcher plus the CSR
/// products. Fixed enum -> fixed array: the dispatcher hot path indexes,
/// never hashes.
enum class Kernel : int {
  kMatMulAccumInto = 0,
  kMatMulTransA,
  kMatMulTransB,
  kTranspose,
  kAdd,
  kSub,
  kHadamard,
  kAxpby,
  kAxpyInto,
  kScale,
  kAddScalar,
  kAddRowBroadcast,
  kRelu,
  kSigmoid,
  kTanh,
  kSoftplus,
  kExp,
  kLog,
  kSoftmaxRows,
  kRowSum,
  kRowDot,
  kColSum,
  kGatherRows,
  kScatterAddRows,
  kConcatCols,
  kSpMM,
  kSpMMTransposed,
  // Graph-program replay kernels (src/program calls these cores directly,
  // under either backend; the scopes live at those call sites).
  kFusedMatMulBiasAct,
  kFusedEltwise,
  kPlannedMatMulTransA,
  kPlannedMatMulTransB,
  kCount,
};

const char* KernelName(Kernel k);

/// One row of the kernel table snapshot (rows with zero calls omitted).
struct KernelStatsRow {
  Kernel kernel;
  int64_t calls;
  int64_t flops;  // estimated from operand shapes at the dispatch site
  int64_t ns;     // nonzero only under profiling
};
std::vector<KernelStatsRow> SnapshotKernelStats();

namespace internal {
struct KernelSlot {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> flops{0};
  std::atomic<int64_t> ns{0};
};
KernelSlot& KernelSlotFor(Kernel k);
}  // namespace internal

/// RAII dispatcher probe: counts the call and the caller-estimated FLOPs
/// when metrics are enabled; accumulates wall time when profiling is
/// enabled. Sits in the free-function dispatchers (tensor/matrix_ops.cc),
/// NOT inside backend implementations, so bench_kernels — which calls
/// backends directly — times pristine kernels.
class KernelScope {
 public:
  KernelScope(Kernel k, int64_t flop_estimate)
      : slot_(MetricsEnabled() ? &internal::KernelSlotFor(k) : nullptr),
        start_ns_(slot_ != nullptr && ProfilingEnabled() ? NowNs() : 0) {
    if (slot_ != nullptr) {
      slot_->calls.fetch_add(1, std::memory_order_relaxed);
      slot_->flops.fetch_add(flop_estimate, std::memory_order_relaxed);
    }
  }
  ~KernelScope() {
    if (start_ns_ != 0) {
      slot_->ns.fetch_add(NowNs() - start_ns_, std::memory_order_relaxed);
    }
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  internal::KernelSlot* slot_;
  int64_t start_ns_;
};

/// Zeroes the global op and kernel tables (test / tool isolation; callers
/// must ensure no concurrent writers).
void ResetOpAndKernelStats();

}  // namespace obs
}  // namespace nmcdr

#endif  // NMCDR_OBS_TRACE_H_

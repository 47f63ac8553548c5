#ifndef NMCDR_OBS_METRICS_H_
#define NMCDR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace nmcdr {
namespace obs {

/// Metric primitives: Counter, Gauge, Histogram, owned by a MetricsRegistry.
///
/// Write paths are lock-free-ish: counters and histogram buckets are split
/// into kShards cache-line-aligned relaxed atomics indexed by a stable
/// per-thread slot, so concurrent recorders (e.g. ThreadPool::Shared()
/// workers scoring batches) do not bounce one cache line. Readers fold the
/// shards on scrape; a fold concurrent with writes yields a value that was
/// true at some instant during the fold — exact once writers quiesce.
/// Registry lookups (GetCounter etc.) take a mutex; instrumentation sites
/// resolve their metric once (function-local static) and record through
/// the returned reference.
///
/// All primitives stay functional regardless of the obs enable flags —
/// gating happens at the instrumentation scopes (obs/trace.h), not here,
/// so components like ClusterServer that always account their traffic
/// keep exact counts.

inline constexpr int kShards = 8;

namespace internal {

/// Stable per-thread shard slot in [0, kShards). Assigned round-robin on
/// first use per thread.
int ThreadShard();

struct alignas(64) ShardSlot {
  std::atomic<int64_t> v{0};
};

/// CAS-loop arithmetic for std::atomic<double> (fetch_add on floating
/// point is C++20 and not universally lock-free; these stay portable).
/// Relaxed ordering: used only for statistics, never for synchronization.
void AtomicAddDouble(std::atomic<double>& a, double delta);
void AtomicMaxDouble(std::atomic<double>& a, double value);
void AtomicMinDouble(std::atomic<double>& a, double value);

}  // namespace internal

/// Monotonically increasing integer count.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    shards_[internal::ThreadShard()].v.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  int64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  void Reset();
  internal::ShardSlot shards_[kShards];
};

/// Last-write-wins scalar (e.g. current queue depth, final loss).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void Reset() { Set(0.0); }
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts values <= boundaries[i] (first
/// match wins); values above the last boundary land in an overflow bucket.
/// Tracks exact sum/min/max alongside the buckets, so Mean() is exact and
/// quantile estimates are clamped to the observed range.
class Histogram {
 public:
  void Record(double value);

  int64_t Count() const;
  double Sum() const;
  double Mean() const;  // 0 when empty
  double Min() const;   // 0 when empty
  double Max() const;   // 0 when empty

  /// Quantile estimate for q in [0, 1]: finds the bucket holding the
  /// q-th ranked sample and interpolates linearly within it. Estimates
  /// from the overflow bucket return the observed max. 0 when empty.
  double Quantile(double q) const;

  const std::vector<double>& boundaries() const { return boundaries_; }
  /// Folded per-bucket counts, size boundaries().size() + 1 (last entry
  /// is the overflow bucket).
  std::vector<int64_t> BucketCounts() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> boundaries);
  void Reset();

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<int64_t>[]> buckets;
    std::atomic<double> sum{0.0};
    // Sentinel infinities: every sample CAS-lowers min / raises max, so no
    // racy first-sample seeding is needed. Shards with count == 0 are
    // skipped when folding.
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::atomic<int64_t> count{0};
  };

  std::vector<double> boundaries_;  // ascending upper bounds
  Shard shards_[kShards];
};

/// Named metric store. Metrics are created on first Get* and live for the
/// registry's lifetime (references stay valid). Instantiable — components
/// needing isolated accounting (per-server stats in tests) own a private
/// registry; everything else shares Global().
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry used by default instrumentation and exporters.
  /// NMCDR_COLD: hot paths resolve metric references once (function-local
  /// static or constructor), never per request.
  static MetricsRegistry& Global() NMCDR_COLD;

  Counter& GetCounter(const std::string& name) NMCDR_COLD
      NMCDR_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) NMCDR_EXCLUDES(mu_);
  /// Returns the histogram registered under `name`, creating it with the
  /// given bucket boundaries (ascending upper bounds) if absent. The
  /// boundaries of an existing histogram are kept — first registration
  /// wins.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> boundaries) NMCDR_EXCLUDES(mu_);
  /// Histogram with DefaultLatencyBucketsMs().
  Histogram& GetLatencyHistogram(const std::string& name);

  /// Exponential millisecond buckets, ~50 µs to ~26 s.
  static std::vector<double> DefaultLatencyBucketsMs();
  /// Exponential second buckets, ~1 ms to ~2000 s (epoch/phase scale).
  static std::vector<double> DefaultTimeBucketsSeconds();

  /// Scrape views, sorted by name. Pointers remain valid while the
  /// registry lives; values fold the shards at call time.
  std::vector<std::pair<std::string, const Counter*>> Counters() const
      NMCDR_EXCLUDES(mu_);
  std::vector<std::pair<std::string, const Gauge*>> Gauges() const
      NMCDR_EXCLUDES(mu_);
  std::vector<std::pair<std::string, const Histogram*>> Histograms() const
      NMCDR_EXCLUDES(mu_);

  /// Zeroes every metric, keeping registrations (references stay valid).
  /// Callers must ensure no concurrent writers (test / tool shutdown use).
  void Reset() NMCDR_EXCLUDES(mu_);

 private:
  /// Guards the name->metric maps only; the metric objects themselves are
  /// sharded atomics and are written without this lock.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;    // GUARDED_BY(mu_)
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;        // GUARDED_BY(mu_)
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;  // GUARDED_BY(mu_)
};

}  // namespace obs
}  // namespace nmcdr

#endif  // NMCDR_OBS_METRICS_H_

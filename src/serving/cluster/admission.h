#ifndef NMCDR_SERVING_CLUSTER_ADMISSION_H_
#define NMCDR_SERVING_CLUSTER_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "serving/score_engine.h"
#include "util/thread_annotations.h"

namespace nmcdr {
namespace cluster {

/// Request classes, in strict priority order: interactive traffic (a user
/// is waiting on the response) is always drained before batch traffic
/// (offline refills, crawlers), and each class has its own bounded queue
/// and deadline so a batch flood can neither grow the interactive queue
/// nor starve it.
enum class RequestClass { kInteractive = 0, kBatch = 1 };

inline constexpr int kNumRequestClasses = 2;

/// Stable lowercase name ("interactive"/"batch"), used in metric names.
const char* RequestClassName(RequestClass cls);

/// How a cluster request ended.
enum class ClusterStatus {
  kOk = 0,
  /// Rejected at Submit: the class queue was at capacity (backpressure).
  kShedQueueFull,
  /// Dropped at drain: it waited in queue past its class deadline, so
  /// serving it would burn capacity on an answer nobody is waiting for.
  kShedDeadline,
  /// Submitted after Stop().
  kStopped,
};

const char* ClusterStatusName(ClusterStatus status);

/// A scoring request tagged with its class.
struct ClusterRequest {
  RecRequest rec;
  RequestClass cls = RequestClass::kInteractive;
};

/// Response envelope: `rec` is only meaningful when status == kOk.
struct ClusterResponse {
  ClusterStatus status = ClusterStatus::kOk;
  Recommendation rec;
  /// Snapshot version that served the request (kOk only).
  int64_t snapshot_version = 0;
  /// Submit-to-response latency (kOk only).
  double latency_ms = 0.0;
};

/// Per-class queue capacities and queueing deadlines.
struct AdmissionOptions {
  int interactive_capacity = 1024;
  int batch_capacity = 4096;
  /// A request dequeued more than this many ms after Submit is shed
  /// (kShedDeadline) instead of served; <= 0 disables the deadline.
  double interactive_deadline_ms = 0.0;
  double batch_deadline_ms = 0.0;

  int Capacity(RequestClass cls) const {
    return cls == RequestClass::kInteractive ? interactive_capacity
                                             : batch_capacity;
  }
  double DeadlineMs(RequestClass cls) const {
    return cls == RequestClass::kInteractive ? interactive_deadline_ms
                                             : batch_deadline_ms;
  }
};

/// One queued request awaiting a drainer.
struct AdmissionTicket {
  ClusterRequest request;
  std::promise<ClusterResponse> promise;
  int64_t enqueued_ns = 0;  // obs::NowNs at Submit
};

/// Bounded two-class priority queue — the cluster's admission-control
/// core, isolated from the server so its shedding policy is unit-testable
/// without threads. Thread-safe (internal mutex).
///
/// Backpressure happens at the edges: TryPush refuses (never blocks,
/// never grows past capacity) when the class queue is full, and PopBatch
/// sheds tickets whose class deadline expired while they queued. The
/// caller owns resolving shed tickets' promises.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Enqueues `ticket`, or returns false when its class queue is at
  /// capacity (the ticket is handed back untouched for the caller to
  /// shed).
  bool TryPush(AdmissionTicket* ticket) NMCDR_EXCLUDES(mu_);

  /// Pops up to `max_batch` tickets in priority order (all interactive
  /// before any batch, FIFO within a class) into *batch. Tickets found
  /// past their class deadline (enqueued_ns + deadline < now_ns) are
  /// moved to *shed instead and do not count toward max_batch. Both
  /// out-vectors are cleared first and reserved to their bounds, so a
  /// drainer reusing them across passes pops allocation-free at steady
  /// state.
  void PopBatch(int max_batch, int64_t now_ns,
                std::vector<AdmissionTicket>* batch,
                std::vector<AdmissionTicket>* shed) NMCDR_EXCLUDES(mu_);

  /// The drainer's PopBatch: `now_ns` is obs::NowNs() read under the
  /// queue lock, so it is no earlier than any visible ticket's
  /// enqueued_ns. A clock read before the lock could predate a ticket
  /// pushed while the caller waited, giving it a negative age that no
  /// deadline sheds.
  void PopBatch(int max_batch, std::vector<AdmissionTicket>* batch,
                std::vector<AdmissionTicket>* shed) NMCDR_EXCLUDES(mu_);

  int Depth(RequestClass cls) const NMCDR_EXCLUDES(mu_);
  int TotalDepth() const NMCDR_EXCLUDES(mu_);

  const AdmissionOptions& options() const { return options_; }

 private:
  void PopBatchLocked(int max_batch, int64_t now_ns,
                      std::vector<AdmissionTicket>* batch,
                      std::vector<AdmissionTicket>* shed)
      NMCDR_REQUIRES(mu_);

  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::deque<AdmissionTicket> interactive_;  // GUARDED_BY(mu_)
  std::deque<AdmissionTicket> batch_;        // GUARDED_BY(mu_)
};

}  // namespace cluster
}  // namespace nmcdr

#endif  // NMCDR_SERVING_CLUSTER_ADMISSION_H_

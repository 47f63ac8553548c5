#include "serving/cluster/admission.h"

#include <utility>

#include "obs/obs.h"
#include "util/check.h"

namespace nmcdr {
namespace cluster {

const char* RequestClassName(RequestClass cls) {
  return cls == RequestClass::kInteractive ? "interactive" : "batch";
}

const char* ClusterStatusName(ClusterStatus status) {
  switch (status) {
    case ClusterStatus::kOk:
      return "ok";
    case ClusterStatus::kShedQueueFull:
      return "shed_queue_full";
    case ClusterStatus::kShedDeadline:
      return "shed_deadline";
    case ClusterStatus::kStopped:
      return "stopped";
  }
  return "unknown";
}

AdmissionQueue::AdmissionQueue(AdmissionOptions options)
    : options_(options) {
  NMCDR_CHECK_GT(options_.interactive_capacity, 0);
  NMCDR_CHECK_GT(options_.batch_capacity, 0);
}

bool AdmissionQueue::TryPush(AdmissionTicket* ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  const RequestClass cls = ticket->request.cls;
  std::deque<AdmissionTicket>& queue =
      cls == RequestClass::kInteractive ? interactive_ : batch_;
  if (static_cast<int>(queue.size()) >= options_.Capacity(cls)) {
    return false;
  }
  queue.push_back(std::move(*ticket));
  return true;
}

void AdmissionQueue::PopBatch(int max_batch, int64_t now_ns,
                              std::vector<AdmissionTicket>* batch,
                              std::vector<AdmissionTicket>* shed) {
  std::lock_guard<std::mutex> lock(mu_);
  PopBatchLocked(max_batch, now_ns, batch, shed);
}

void AdmissionQueue::PopBatch(int max_batch,
                              std::vector<AdmissionTicket>* batch,
                              std::vector<AdmissionTicket>* shed) {
  std::lock_guard<std::mutex> lock(mu_);
  // With both deadlines off no ticket can expire, so skip the clock read.
  const bool deadlines = options_.interactive_deadline_ms > 0.0 ||
                         options_.batch_deadline_ms > 0.0;
  PopBatchLocked(max_batch, deadlines ? obs::NowNs() : 0, batch, shed);
}

void AdmissionQueue::PopBatchLocked(int max_batch, int64_t now_ns,
                                    std::vector<AdmissionTicket>* batch,
                                    std::vector<AdmissionTicket>* shed) {
  batch->clear();
  shed->clear();
  batch->reserve(max_batch > 0 ? max_batch : 0);
  // Worst case every queued ticket is past deadline; capacities are
  // bounded, so this converges to a high-water no-op.
  shed->reserve(interactive_.size() + batch_.size());
  std::deque<AdmissionTicket>* queues[kNumRequestClasses] = {&interactive_,
                                                             &batch_};
  for (std::deque<AdmissionTicket>* queue : queues) {
    while (!queue->empty() && static_cast<int>(batch->size()) < max_batch) {
      AdmissionTicket ticket = std::move(queue->front());
      queue->pop_front();
      const double deadline_ms =
          options_.DeadlineMs(ticket.request.cls);
      const bool expired =
          deadline_ms > 0.0 &&
          static_cast<double>(now_ns - ticket.enqueued_ns) * 1e-6 >
              deadline_ms;
      if (expired) {
        shed->push_back(std::move(ticket));
      } else {
        batch->push_back(std::move(ticket));
      }
    }
  }
}

int AdmissionQueue::Depth(RequestClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(cls == RequestClass::kInteractive
                              ? interactive_.size()
                              : batch_.size());
}

int AdmissionQueue::TotalDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(interactive_.size() + batch_.size());
}

}  // namespace cluster
}  // namespace nmcdr

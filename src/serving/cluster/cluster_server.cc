#include "serving/cluster/cluster_server.h"

#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace cluster {
namespace {

/// fetch_max for the observed-version watermark (relaxed: the value is a
/// statistic; ordering comes from the registry mutex).
void AtomicMax(std::atomic<int64_t>& a, int64_t value) {
  int64_t current = a.load(std::memory_order_relaxed);
  while (current < value &&
         !a.compare_exchange_weak(current, value,
                                  std::memory_order_relaxed)) {
  }
}

}  // namespace

ClusterServer::ClusterServer(std::shared_ptr<const ShardedSnapshot> initial,
                             Options options)
    : options_(options),
      owned_metrics_(options.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      registry_(std::move(initial), metrics_),
      admission_(options.admission) {
  NMCDR_CHECK_GT(options_.num_threads, 0);
  NMCDR_CHECK_GT(options_.max_batch, 0);
  for (int c = 0; c < kNumRequestClasses; ++c) {
    const std::string cls = RequestClassName(static_cast<RequestClass>(c));
    submitted_[c] = &metrics_->GetCounter("cluster.submitted." + cls);
    served_[c] = &metrics_->GetCounter("cluster.served." + cls);
    shed_queue_full_[c] =
        &metrics_->GetCounter("cluster.shed_queue_full." + cls);
    shed_deadline_[c] = &metrics_->GetCounter("cluster.shed_deadline." + cls);
    queue_depth_[c] = &metrics_->GetGauge("cluster.queue_depth." + cls);
    latency_ms_[c] =
        &metrics_->GetLatencyHistogram("cluster.latency_ms." + cls);
  }
  stopped_rejects_ = &metrics_->GetCounter("cluster.stopped_rejects");
}

ClusterServer::~ClusterServer() { Stop(); }

void ClusterServer::Shed(AdmissionTicket&& ticket, ClusterStatus status) {
  const int c = static_cast<int>(ticket.request.cls);
  if (status == ClusterStatus::kShedQueueFull) {
    shed_queue_full_[c]->Add(1);
  } else if (status == ClusterStatus::kShedDeadline) {
    shed_deadline_[c]->Add(1);
  } else if (status == ClusterStatus::kStopped) {
    stopped_rejects_->Add(1);
  }
  ClusterResponse response;
  response.status = status;
  ticket.promise.set_value(std::move(response));
}

std::future<ClusterResponse> ClusterServer::Submit(ClusterRequest request) {
  // Validate at the edge (aborts on malformed input, in the caller's
  // thread) so drainers can run the snapshot's NMCDR_DCHECK-only scratch
  // core. Geometry (domain count, table sizes) is fixed per model, so a
  // request valid against the current version stays valid across
  // republications of it.
  registry_.Acquire()->ValidateRequest(request.rec);
  AdmissionTicket ticket;
  ticket.request = std::move(request);
  ticket.enqueued_ns = obs::NowNs();
  std::future<ClusterResponse> future = ticket.promise.get_future();
  const int c = static_cast<int>(ticket.request.cls);

  bool dispatch_drainer = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      Shed(std::move(ticket), ClusterStatus::kStopped);
      return future;
    }
    submitted_[c]->Add(1);
    if (!admission_.TryPush(&ticket)) {
      // Backpressure: resolve immediately, never enqueue past capacity.
      Shed(std::move(ticket), ClusterStatus::kShedQueueFull);
      return future;
    }
    queue_depth_[c]->Set(static_cast<double>(
        admission_.Depth(static_cast<RequestClass>(c))));
    // Keep the invariant: a non-empty queue always has a drainer coming.
    dispatch_drainer = TryReserveDrainerLocked(admission_.TotalDepth());
  }
  if (dispatch_drainer) {
    ThreadPool::Shared()->Submit([this] { DrainLoop(); });
  }
  return future;
}

int64_t ClusterServer::Publish(
    std::shared_ptr<const ShardedSnapshot> next) {
  return registry_.Publish(std::move(next));
}

void ClusterServer::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  // Progress: every admitted ticket has a drainer coming (the Submit/
  // retire handshake below), and drainers retire only on an empty queue.
  drained_cv_.wait(lock, [this] {
    return admission_.TotalDepth() == 0 && active_drainers_ == 0;
  });
}

void ClusterServer::DrainLoop() {
  // Drainer-owned buffers, reused across passes: at steady state the loop
  // runs allocation-free outside the snapshot's per-batch result vector
  // (requests were validated at the Submit edge, so the DCHECK-only
  // scratch core is safe here).
  std::vector<AdmissionTicket> batch;
  std::vector<AdmissionTicket> shed;
  std::vector<RecRequest> requests;
  BatchShardScratch scratch;
  for (;;) {
    admission_.PopBatch(options_.max_batch, &batch, &shed);
    for (AdmissionTicket& ticket : shed) {
      Shed(std::move(ticket), ClusterStatus::kShedDeadline);
    }
    for (int c = 0; c < kNumRequestClasses; ++c) {
      queue_depth_[c]->Set(static_cast<double>(
          admission_.Depth(static_cast<RequestClass>(c))));
    }
    if (batch.empty()) {
      if (!shed.empty()) continue;  // the pass did work; look again
      std::lock_guard<std::mutex> lock(mu_);
      // Retire — but re-check depth under the server lock first: a
      // Submit that saw this drainer as active (and so did not dispatch
      // a new one) must not strand its ticket. Pushes happen under mu_,
      // so either the push is visible here (we keep draining) or the
      // pusher saw our decrement and dispatched a replacement.
      if (admission_.TotalDepth() > 0) continue;
      --active_drainers_;
      if (active_drainers_ == 0) drained_cv_.notify_all();
      return;
    }

    // One snapshot acquire per pass: the whole batch scores on a single
    // consistent version while the registry refcount keeps it alive.
    int64_t version = 0;
    const std::shared_ptr<const ShardedSnapshot> snap =
        registry_.Acquire(&version);
    requests.clear();
    requests.reserve(batch.size());
    for (const AdmissionTicket& ticket : batch) {
      requests.push_back(ticket.request.rec);
    }
    const std::vector<Recommendation> results =
        snap->TopKBatchWithScratch(requests, &scratch);
    AtomicMax(last_observed_version_, version);

    const int64_t now_ns = obs::NowNs();
    for (size_t i = 0; i < batch.size(); ++i) {
      const int c = static_cast<int>(batch[i].request.cls);
      const double latency_ms =
          static_cast<double>(now_ns - batch[i].enqueued_ns) * 1e-6;
      latency_ms_[c]->Record(latency_ms);
      served_[c]->Add(1);
      ClusterResponse response;
      response.rec = results[i];
      response.snapshot_version = version;
      response.latency_ms = latency_ms;
      batch[i].promise.set_value(std::move(response));
    }
  }
}

bool ClusterServer::TryReserveDrainerLocked(int queued) {
  if (active_drainers_ >= options_.num_threads || active_drainers_ >= queued) {
    return false;
  }
  ++active_drainers_;
  return true;
}

int ClusterServer::active_drainers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_drainers_;
}

}  // namespace cluster
}  // namespace nmcdr

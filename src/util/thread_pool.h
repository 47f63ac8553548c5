#ifndef NMCDR_UTIL_THREAD_POOL_H_
#define NMCDR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace nmcdr {

/// The repo's single threading entry point: a fixed pool of workers behind
/// a task queue, plus the `ParallelFor` primitive the serving fan-out
/// (ScoreEngine batches, sharded scoring) is built on. Nothing outside
/// src/util/thread_pool.* may construct std::thread / std::async
/// (enforced by the nmcdr_lint `banned-thread` rule), so thread count,
/// shutdown order, and sanitizer coverage are decided in exactly one
/// place.
///
/// `ParallelFor` uses deterministic static chunking: the chunk boundaries
/// are a pure function of (begin, end, grain, num_threads()), never of
/// timing or queue state. Callers write disjoint output regions and keep
/// the per-element floating-point operation order of the serial code, so
/// parallel results are bit-exact and independent of which worker ran
/// which chunk (see DESIGN.md §9).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1). `num_threads` is the
  /// pool's parallelism: `ParallelFor` never splits a range into more
  /// chunks than this.
  explicit ThreadPool(int num_threads);

  /// Drains nothing: pending tasks are executed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Tasks run so far (Submit tasks + ParallelFor chunks); for tests and
  /// stats.
  int64_t tasks_executed() const NMCDR_EXCLUDES(mu_);

  /// Enqueues a fire-and-forget task. The task must not throw (an escaped
  /// exception terminates the process) and must not block waiting on a
  /// condition another pool task will signal — ParallelFor from inside a
  /// task is safe (it runs inline), open-ended waits are not.
  void Submit(std::function<void()> task) NMCDR_EXCLUDES(mu_);

  /// Splits [begin, end) into at most num_threads() contiguous chunks of
  /// at least `grain` iterations each (sizes differ by at most one) and
  /// invokes `fn(chunk_begin, chunk_end)` for every chunk concurrently,
  /// returning once all chunks finished. Chunk boundaries are
  /// deterministic (see class comment). Runs inline on the calling thread
  /// when the range is a single chunk, num_threads() == 1, or the caller
  /// is itself a pool worker (re-entrancy never deadlocks). The first
  /// exception thrown by a chunk is rethrown on the calling thread after
  /// every chunk completed.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn)
      NMCDR_EXCLUDES(mu_);

  /// The process-wide shared pool, started lazily on first use and sized
  /// by SetSharedThreads() if called earlier, else the NMCDR_THREADS
  /// environment variable, else std::thread::hardware_concurrency().
  static ThreadPool* Shared();

  /// Overrides the shared pool's size. Only effective before the first
  /// Shared() call (the pool cannot be resized once its workers exist);
  /// returns false and changes nothing afterwards.
  static bool SetSharedThreads(int num_threads);

  /// The size Shared() has (if started) or would get (if not yet started).
  static int SharedThreads();

 private:
  void WorkerLoop() NMCDR_EXCLUDES(mu_);

  const int num_threads_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // GUARDED_BY(mu_)
  bool stopping_ = false;                    // GUARDED_BY(mu_)
  int64_t tasks_executed_ = 0;               // GUARDED_BY(mu_)
  std::vector<std::thread> workers_;
};

}  // namespace nmcdr

#endif  // NMCDR_UTIL_THREAD_POOL_H_

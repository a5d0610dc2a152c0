#ifndef CSD_SERVE_BATCHER_H_
#define CSD_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/request.h"

namespace csd::serve {

/// The most requests one batch takes off the queue.
struct BatchPolicy {
  size_t max_batch = 64;
};

/// Coalesces annotation requests into batches and hands each batch to the
/// execute callback on a dedicated dispatcher thread (which fans the
/// batch out on the work-stealing pool). The queue itself is unbounded —
/// the AdmissionController in front of Enqueue is what bounds it — so
/// Enqueue never blocks.
///
/// Self-clocking: whenever the dispatcher is idle it takes every queued
/// request (up to `max_batch`) as one batch, runs it, and repeats. There
/// is no batch window — a lone request dispatches at once, and batches
/// grow only from requests that queued while the previous batch ran, so
/// coalescing tracks load instead of taxing every request a fixed wait.
/// An idle dispatcher blocks on the condition variable; it never polls.
///
/// Drain() delivers every queued request before the dispatcher exits:
/// shutdown completes admitted work, it never drops it. A request that
/// races Enqueue against Drain and loses is *rejected*, not stranded: its
/// promise resolves immediately with kUnavailable and its admission slot
/// frees, so the caller's future never hangs.
class RequestBatcher {
 public:
  using ExecuteFn = std::function<void(std::vector<AnnotateRequest>)>;

  /// `execute` runs on the dispatcher thread; it owns the batch and must
  /// fulfill every request's promise. `paused` starts the dispatcher
  /// suspended (test hook for deterministic overload).
  RequestBatcher(BatchPolicy policy, ExecuteFn execute, bool paused = false);

  /// Drains and joins.
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Queues `request` for the next batch. Returns false when the batcher
  /// is draining (or already drained): the request was NOT queued — its
  /// promise has been fulfilled with kUnavailable and its admission
  /// ticket released, so the caller's future resolves either way.
  bool Enqueue(AnnotateRequest request);

  /// Suspends/resumes batch dispatch. While paused, requests queue up
  /// (until admission control rejects); on resume they dispatch in FIFO
  /// order, at most `max_batch` per batch. A batch already executing
  /// when the pause lands runs to completion.
  void SetPaused(bool paused);

  /// Stops dispatching new batches after the queue empties and joins the
  /// dispatcher. Idempotent; implies SetPaused(false).
  void Drain();

  size_t Depth() const;

 private:
  void DispatcherMain();

  BatchPolicy policy_;
  ExecuteFn execute_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<AnnotateRequest> queue_;
  bool paused_ = false;
  bool draining_ = false;

  std::thread dispatcher_;
};

}  // namespace csd::serve

#endif  // CSD_SERVE_BATCHER_H_

#include "serve/batcher.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace csd::serve {

namespace {

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Get().GetGauge(
      "csd_serve_queue_depth", "Annotation requests waiting in the batcher");
  return gauge;
}

}  // namespace

RequestBatcher::RequestBatcher(BatchPolicy policy, ExecuteFn execute,
                               bool paused)
    : policy_(policy), execute_(std::move(execute)), paused_(paused) {
  CSD_CHECK(policy_.max_batch >= 1);
  CSD_CHECK(execute_ != nullptr);
  dispatcher_ = std::thread([this] { DispatcherMain(); });
}

RequestBatcher::~RequestBatcher() { Drain(); }

bool RequestBatcher::Enqueue(AnnotateRequest request) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!draining_) {
      queue_.push_back(std::move(request));
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      lock.unlock();
      cv_.notify_one();  // the dispatcher is the only waiter
      return true;
    }
  }
  // Draining — the dispatcher may already have passed its last look at
  // the queue (or exited), so queueing here could strand the request and
  // hang the caller forever. Reject instead: complete it right here with
  // an explicit kUnavailable (CompleteRequest frees the admission slot
  // before delivering).
  AnnotateResult result;
  result.status =
      Status::Unavailable("annotate: batcher is draining (shutdown)");
  result.stays = std::move(request.stays);
  result.units.assign(result.stays.size(), kNoUnit);
  CompleteRequest(request, std::move(result));
  return false;
}

void RequestBatcher::SetPaused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = paused;
  }
  cv_.notify_all();
}

void RequestBatcher::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

size_t RequestBatcher::Depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void RequestBatcher::DispatcherMain() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] {
      return (!queue_.empty() && !paused_) || (draining_ && queue_.empty());
    });
    if (queue_.empty()) return;  // draining and nothing left

    // Idle with work queued: take everything that arrived while the last
    // batch ran (or while paused), up to max_batch, and go. Nothing waits
    // for company — under load the queue refills while this batch runs,
    // so batch size follows the arrival rate on its own.
    const size_t take = std::min(queue_.size(), policy_.max_batch);
    std::vector<AnnotateRequest> batch(
        std::make_move_iterator(queue_.begin()),
        std::make_move_iterator(queue_.begin() + take));
    queue_.erase(queue_.begin(), queue_.begin() + take);
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));

    lock.unlock();
    execute_(std::move(batch));
    lock.lock();
  }
}

}  // namespace csd::serve

#include "serve/snapshot_store.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace csd::serve {

namespace {

obs::Gauge& SnapshotVersionGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Get().GetGauge(
      "csd_serve_snapshot_version",
      "Version of the currently published CSD snapshot");
  return gauge;
}

obs::Counter& PublishCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_publish_total", "Snapshot generations published");
  return counter;
}

obs::Counter& ShardPublishCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_shard_publish_total",
      "Single-shard snapshot generations published");
  return counter;
}

}  // namespace

std::shared_ptr<const CsdSnapshot> SnapshotStore::Slot::Load() const {
#ifdef CSD_SERVE_ATOMIC_SHARED_PTR
  return current_.load(std::memory_order_acquire);
#else
  return std::atomic_load_explicit(&current_, std::memory_order_acquire);
#endif
}

void SnapshotStore::Slot::Store(std::shared_ptr<const CsdSnapshot> next,
                                uint64_t version) {
  // The release store below is what makes the stamp (and the whole
  // snapshot construction) visible to readers that Load() it.
#ifdef CSD_SERVE_ATOMIC_SHARED_PTR
  current_.store(std::move(next), std::memory_order_release);
#else
  std::atomic_store_explicit(&current_, std::move(next),
                             std::memory_order_release);
#endif
  version_.store(version, std::memory_order_release);
}

SnapshotStore::SnapshotStore(size_t num_shards) : lanes_(num_shards) {
  CSD_CHECK_MSG(num_shards >= 1, "a snapshot store needs at least one lane");
}

SnapshotStore::SnapshotStore(std::shared_ptr<CsdSnapshot> initial)
    : SnapshotStore(1) {
  PublishAll(std::move(initial));
}

uint64_t SnapshotStore::PublishAll(std::shared_ptr<CsdSnapshot> next) {
  CSD_TRACE_SPAN("serve/publish");
  std::lock_guard<std::mutex> lock(publish_mutex_);
  uint64_t version = ++last_version_;
  // Stamped exactly once, before any slot can hand the snapshot out.
  next->StampVersion(version);
  std::shared_ptr<const CsdSnapshot> shared = std::move(next);
  for (Slot& lane : lanes_) lane.Store(shared, version);
  global_.Store(std::move(shared), version);
  SnapshotVersionGauge().Set(static_cast<double>(version));
  PublishCounter().Increment();
  return version;
}

uint64_t SnapshotStore::PublishShard(size_t s,
                                     std::shared_ptr<CsdSnapshot> next) {
  CSD_TRACE_SPAN("serve/publish_shard");
  std::lock_guard<std::mutex> lock(publish_mutex_);
  uint64_t version = ++last_version_;
  next->StampVersion(version);
  lanes_[s].Store(std::shared_ptr<const CsdSnapshot>(std::move(next)),
                  version);
  ShardPublishCounter().Increment();
  return version;
}

}  // namespace csd::serve

#include "stream/stream_ingestor.h"

#include <chrono>
#include <utility>

#include "stream/stream_metrics.h"
#include "util/failpoint.h"

namespace csd::stream {

StreamIngestor::StreamIngestor(
    serve::ServeService* service, serve::SnapshotStore* store,
    shard::ShardPlan plan,
    std::shared_ptr<const serve::ServeDataset> bootstrap,
    StreamOptions options)
    : plan_(std::move(plan)),
      bootstrap_(std::move(bootstrap)),
      options_(options),
      // The delta field decays on the same clock as the serving builds:
      // one half-life, configured once on the service's snapshot options.
      accumulator_(&bootstrap_->pois, &plan_, options.r3sigma_m,
                   service->snapshot_options().miner.csd.decay),
      in_tile_(options.in_tile_rebuilds
                   ? std::make_unique<InTileBuilder>(
                         service, &plan_,
                         InTileBuilder::Options{options.churn_threshold})
                   : nullptr),
      rebuilder_(service, store, &plan_, bootstrap_, &accumulator_,
                 options.checkpoint_every, in_tile_.get()) {
  RegisterStreamMetrics();
}

Status StreamIngestor::IngestFixes(uint32_t user_id,
                                   std::span<const GpsPoint> fixes) {
  // Fault-injection site of the ingest path: an injected error rejects
  // the batch before any detector or accumulator state changes, so the
  // caller may retry the same frame without double-counting.
  Status injected = CSD_FAILPOINT_EVAL("serve/ingest");
  if (!injected.ok()) {
    IngestFaultsCounter().Increment();
    return injected;
  }
  auto start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  OnlineStayPointDetector& detector =
      detectors_.try_emplace(user_id, options_.detector).first->second;
  uint64_t dropped_before = detector.late_dropped();
  std::vector<StayPoint> emitted;
  for (const GpsPoint& fix : fixes) {
    detector.Ingest(fix, &emitted);
  }
  FoldEmitted(user_id, emitted);
  fixes_ingested_ += fixes.size();
  FixesCounter().Increment(fixes.size());
  uint64_t dropped = detector.late_dropped() - dropped_before;
  late_dropped_ += dropped;
  if (dropped > 0) LateFixesDroppedCounter().Increment(dropped);
  FoldLatencyHistogram().Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return Status::OK();
}

void StreamIngestor::FlushUser(uint32_t user_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = detectors_.find(user_id);
  if (it == detectors_.end()) return;
  std::vector<StayPoint> emitted;
  it->second.Flush(&emitted);
  FoldEmitted(user_id, emitted);
}

void StreamIngestor::FlushAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [user_id, detector] : detectors_) {
    std::vector<StayPoint> emitted;
    detector.Flush(&emitted);
    FoldEmitted(user_id, emitted);
  }
}

RebuildTickReport StreamIngestor::PublishTick(bool force_checkpoint) {
  return rebuilder_.Tick(force_checkpoint);
}

uint64_t StreamIngestor::fixes_ingested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fixes_ingested_;
}

uint64_t StreamIngestor::stays_emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stays_emitted_;
}

uint64_t StreamIngestor::late_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return late_dropped_;
}

size_t StreamIngestor::num_users() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return detectors_.size();
}

void StreamIngestor::FoldEmitted(uint32_t user_id,
                                 const std::vector<StayPoint>& stays) {
  for (const StayPoint& stay : stays) {
    accumulator_.Fold(user_id, stay);
  }
  stays_emitted_ += stays.size();
  if (!stays.empty()) {
    StaysEmittedCounter().Increment(stays.size());
    // The pending-stays gauge is the accumulator's: Fold republished it.
  }
}

}  // namespace csd::stream

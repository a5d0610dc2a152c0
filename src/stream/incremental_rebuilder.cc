#include "stream/incremental_rebuilder.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <utility>
#include <vector>

#include "core/popularity.h"
#include "obs/trace.h"
#include "stream/in_tile_builder.h"
#include "stream/stream_metrics.h"

namespace csd::stream {

IncrementalRebuilder::IncrementalRebuilder(
    serve::ServeService* service, serve::SnapshotStore* store,
    const shard::ShardPlan* plan,
    std::shared_ptr<const serve::ServeDataset> bootstrap,
    DeltaAccumulator* accumulator, size_t checkpoint_every,
    InTileBuilder* in_tile)
    : service_(service),
      store_(store),
      plan_(plan),
      bootstrap_(std::move(bootstrap)),
      accumulator_(accumulator),
      checkpoint_every_(checkpoint_every),
      in_tile_(in_tile),
      bootstrap_watermark_(ResolveDecayAsOf(bootstrap_->stays)) {}

std::shared_ptr<const serve::ServeDataset>
IncrementalRebuilder::MakeNextGeneration() const {
  // A fresh immutable generation per tick: rebuild lanes cut tile
  // datasets from it asynchronously (service.cc RunRebuildJob), so it
  // must never be mutated after this returns. The stays are bootstrap
  // evidence followed by the canonical stream history — an order
  // invariant under feed interleaving and tick count, which is what
  // makes checkpoint builds byte-comparable to the batch oracle.
  std::vector<StayPoint> stays = bootstrap_->stays;
  std::vector<StayPoint> streamed = accumulator_->CanonicalStays();
  stays.insert(stays.end(), streamed.begin(), streamed.end());
  // With decay on, every generation pins its decay instant to the stream
  // watermark (covering the bootstrap evidence). Pinning here — not
  // per-tile at build time — is what keeps a tile rebuilt this tick and a
  // tile rebuilt next tick on the same clock only when their generations
  // say so, and keeps tiled builds byte-identical to monolithic ones.
  Timestamp decay_as_of = 0;
  if (service_->snapshot_options().miner.csd.decay.enabled()) {
    decay_as_of = std::max(bootstrap_watermark_, accumulator_->watermark());
  }
  return std::make_shared<const serve::ServeDataset>(
      bootstrap_->pois.pois(), std::move(stays), bootstrap_->trajectories,
      decay_as_of);
}

RebuildTickReport IncrementalRebuilder::Tick(bool force_checkpoint) {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  CSD_TRACE_SPAN("stream/publish_tick");
  auto start = std::chrono::steady_clock::now();
  RebuildTickReport report;

  StreamDelta delta = accumulator_->Drain();
  report.stays_folded = delta.stays;
  report.checkpoint =
      force_checkpoint ||
      (checkpoint_every_ > 0 && (ticks_ + 1) % checkpoint_every_ == 0);
  if (delta.dirty_shards.empty() && !report.checkpoint) {
    // Nothing to rebuild — but a delta that carries stays without dirty
    // shards (every stay out of the plan's bounds) must go back, or the
    // drain silently zeroes the pending count those stays still hold.
    if (delta.stays > 0) accumulator_->Restore(delta);
    return report;
  }
  ++ticks_;
  DirtyShardsCounter().Increment(delta.dirty_shards.size());

  std::shared_ptr<const serve::ServeDataset> next = MakeNextGeneration();
  // Re-express the pending delta field at the generation's decay instant
  // (a lazy one-pass rescale; no-op with decay off).
  accumulator_->AdvanceDecayEpoch(next->decay_as_of);
  if (report.checkpoint) {
    // Full plan-mode rebuild through the global lane: TriggerRebuild on
    // a sharded service builds with the plan and PublishAll()s, resetting
    // every lane (and any fringe divergence) to the exact batch build.
    Result<std::future<serve::RebuildResult>> queued =
        service_->TriggerRebuild(next);
    if (!queued.ok()) {
      report.status = queued.status();
    } else {
      serve::RebuildResult result = queued.value().get();
      report.status = result.status;
      report.version = result.version;
    }
    if (report.status.ok()) {
      CheckpointsCounter().Increment();
    }
  } else {
    // Incremental: only the dirty tiles rebuild, each on its own lane,
    // publishing to its shard's RCU slot alone. Failures are per-shard;
    // a failed shard keeps serving its last good snapshot and stays
    // dirty for the next tick. Submission drains as it goes: the
    // service admits a bounded number of concurrent rebuilds, so when a
    // submit bounces we settle the oldest outstanding lane to free its
    // slot and retry — in-flight parallelism up to the admission limit,
    // never a spurious per-tick failure because of it.
    std::deque<std::pair<size_t, std::future<serve::RebuildResult>>> waits;
    InTileBuilder::Stats in_tile_before{};
    if (in_tile_ != nullptr) in_tile_before = in_tile_->stats();
    StreamDelta failed;
    auto settle_one = [&]() {
      auto [shard, future] = std::move(waits.front());
      waits.pop_front();
      serve::RebuildResult result = future.get();
      if (result.status.ok()) {
        ++report.shards_rebuilt;
        ShardRebuildsCounter().Increment();
        if (result.version > report.version) report.version = result.version;
      } else {
        if (report.status.ok()) report.status = result.status;
        failed.dirty_shards.push_back(shard);
      }
    };
    for (size_t shard : delta.dirty_shards) {
      for (;;) {
        Result<std::future<serve::RebuildResult>> queued =
            service_->TriggerShardRebuild(shard, next);
        if (queued.ok()) {
          waits.emplace_back(shard, std::move(queued.value()));
          break;
        }
        if (waits.empty()) {  // rejected with nothing left to drain
          if (report.status.ok()) report.status = queued.status();
          failed.dirty_shards.push_back(shard);
          break;
        }
        settle_one();
      }
    }
    while (!waits.empty()) settle_one();
    if (in_tile_ != nullptr) {
      InTileBuilder::Stats in_tile_after = in_tile_->stats();
      report.shards_in_tile = in_tile_after.in_tile - in_tile_before.in_tile;
      report.shards_fallback =
          in_tile_after.fallbacks - in_tile_before.fallbacks;
    }
    if (!failed.dirty_shards.empty()) {
      // No lost deltas: the stays remain in the canonical history, and
      // the failed shards go back on the dirty list. Re-pend the stay
      // count only when nothing published (a partial tick did cover the
      // delta on the lanes that succeeded; the restored dirty marks
      // carry the retry).
      if (report.shards_rebuilt == 0) failed.stays = delta.stays;
      accumulator_->Restore(failed);
    }
  }

  if (!report.status.ok()) {
    TickFailuresCounter().Increment();
    if (report.checkpoint) accumulator_->Restore(delta);
  }
  if (report.version > 0) PublishTicksCounter().Increment();
  // The pending-stays / dirty-shards gauges are owned by the accumulator
  // (republished on every Fold/Drain/Restore) — no second writer here.
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace csd::stream

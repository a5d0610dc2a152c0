#ifndef CSD_STREAM_INCREMENTAL_REBUILDER_H_
#define CSD_STREAM_INCREMENTAL_REBUILDER_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "serve/service.h"
#include "serve/snapshot_store.h"
#include "shard/shard_plan.h"
#include "stream/delta_accumulator.h"
#include "util/status.h"

namespace csd::stream {

class InTileBuilder;

/// What one publish tick did.
struct RebuildTickReport {
  Status status;
  /// Highest snapshot version this tick published (0 = nothing
  /// published: empty delta, or every rebuild failed).
  uint64_t version = 0;
  /// Delta stays the tick covered (re-pended on failure).
  size_t stays_folded = 0;
  /// Shard lanes successfully rebuilt + published (incremental ticks).
  size_t shards_rebuilt = 0;
  /// Of those, publishes the delta-aware in-tile engine absorbed without
  /// re-staging the tile / by re-staging it (first build or churn past
  /// the threshold). Both zero when no InTileBuilder is installed.
  size_t shards_in_tile = 0;
  size_t shards_fallback = 0;
  bool checkpoint = false;
  double seconds = 0.0;
};

/// Turns the accumulator's pending delta into published snapshots — a
/// fold instead of recomputing the world. An incremental tick rebuilds
/// only the dirty shards: it materializes one immutable dataset
/// generation (bootstrap evidence + the canonical stream stays) and runs
/// each dirty shard through the PR 7 tile path (`MakeShardDataset` →
/// tile-local snapshot → `PublishShard`), on the per-shard rebuild lanes
/// of `ServeService::TriggerShardRebuild`, so clean tiles never stop
/// serving or stall. Every `checkpoint_every`-th tick is a checkpoint: a
/// full plan-mode rebuild through the global lane (`TriggerRebuild` →
/// `PublishAll`) that restores exact batch equivalence city-wide.
///
/// Exactness contract (docs/streaming.md): at a checkpoint the published
/// diagram is byte-identical to a from-scratch batch build over the same
/// evidence; between checkpoints a rebuilt tile serves tile-local
/// results whose divergence is confined to the halo fringe, and a tile
/// left clean serves its previous generation. The differential harness
/// asserts the former and bounds the latter.
///
/// Failure semantics: rebuilds run behind the `serve/rebuild` failpoint;
/// a failed rebuild publishes nothing on that lane (the last good
/// snapshot keeps serving) and the tick Restores the delta, so the next
/// tick retries with nothing lost. Dataset generations are immutable —
/// each tick builds a fresh one — so a rebuild lane racing a later tick
/// never observes a mutation.
class IncrementalRebuilder {
 public:
  /// All pointees must outlive the rebuilder. `bootstrap` is the served
  /// dataset generation the stream folds onto. `in_tile` (optional) is
  /// the delta-aware in-tile engine whose per-tick absorb/fallback
  /// counts the report breaks out; the builder itself hooks the service
  /// directly, so passing it here only wires up reporting.
  IncrementalRebuilder(serve::ServeService* service,
                       serve::SnapshotStore* store,
                       const shard::ShardPlan* plan,
                       std::shared_ptr<const serve::ServeDataset> bootstrap,
                       DeltaAccumulator* accumulator,
                       size_t checkpoint_every = 0,
                       InTileBuilder* in_tile = nullptr);

  /// One synchronous publish tick (ticks are serialized). Drains the
  /// accumulator, rebuilds dirty shards (or the whole city on a
  /// checkpoint tick / `force_checkpoint`), waits for the publishes, and
  /// reports. An empty delta on a non-checkpoint tick is a no-op.
  RebuildTickReport Tick(bool force_checkpoint = false);

  uint64_t ticks() const { return ticks_; }
  size_t checkpoint_every() const { return checkpoint_every_; }

 private:
  std::shared_ptr<const serve::ServeDataset> MakeNextGeneration() const;

  serve::ServeService* service_;
  serve::SnapshotStore* store_;
  const shard::ShardPlan* plan_;
  std::shared_ptr<const serve::ServeDataset> bootstrap_;
  DeltaAccumulator* accumulator_;
  size_t checkpoint_every_;
  InTileBuilder* in_tile_;
  /// Newest bootstrap stay time, resolved once at construction; combined
  /// with the accumulator watermark it pins each generation's decay
  /// instant.
  Timestamp bootstrap_watermark_;

  std::mutex tick_mutex_;
  uint64_t ticks_ = 0;
};

}  // namespace csd::stream

#endif  // CSD_STREAM_INCREMENTAL_REBUILDER_H_

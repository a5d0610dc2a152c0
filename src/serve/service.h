#ifndef CSD_SERVE_SERVICE_H_
#define CSD_SERVE_SERVICE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "serve/batcher.h"
#include "serve/request.h"
#include "serve/snapshot_store.h"
#include "shard/shard_plan.h"
#include "traj/journey.h"
#include "util/status.h"

namespace csd::serve {

/// Everything configurable about one serving instance.
struct ServeOptions {
  BatchPolicy batch;
  AdmissionLimits limits;
  /// Applied to snapshots built by TriggerRebuild.
  SnapshotOptions snapshot;
  /// Start with batch dispatch suspended (deterministic-overload tests).
  bool start_paused = false;
};

/// The online request path over a SnapshotStore of K ≥ 1 lanes:
/// admission control at the front door, request coalescing in the
/// middle, the CSD voting kernel at the bottom, and background rebuild
/// lanes that publish new generations without stalling readers.
///
///   client ──Admit──> RequestBatcher ──batch──> pool ──> promises
///                │                        │
///                └─rebuild lanes──> CsdSnapshot build ──> Publish (RCU)
///
/// Annotation batches are geo-routed: each stay is annotated against the
/// snapshot of the lane owning its position (plan.ShardOf, always lane 0
/// at K = 1), a request straddling tiles fans out to every lane it
/// touches, and results land in request order either way. Full rebuilds
/// build one full-city generation (BuildServingSnapshot) and publish it
/// to every lane; at K > 1, TriggerShardRebuild rebuilds one tile on that
/// shard's own rebuild thread, so a rebuilding tile never stalls
/// annotation routed to any other shard. Pattern queries and admission
/// run against the global generation.
///
/// Endpoints return Status::Unavailable immediately under overload
/// (bounded queues, no unbounded buffering); everything admitted is
/// guaranteed to complete, including across Shutdown().
class ServeService {
 public:
  /// Monolithic serving: the K = 1 case, over a one-lane `store`.
  /// `store` must outlive the service. Annotation and queries require a
  /// published generation; TriggerRebuild with an explicit dataset works
  /// on an empty store (bootstrap).
  explicit ServeService(SnapshotStore* store, ServeOptions options = {});

  /// K = plan.num_shards() lanes over a store with as many lanes.
  ServeService(SnapshotStore* store, shard::ShardPlan plan,
               ServeOptions options = {});

  /// Shuts down (drains) if the caller did not.
  ~ServeService();

  ServeService(const ServeService&) = delete;
  ServeService& operator=(const ServeService&) = delete;

  /// Queues `stays` for batched annotation. The future resolves to the
  /// stays with semantics + winning units filled in, annotated against
  /// one consistent snapshot. With an explicit `deadline`, the batcher
  /// never holds the request past it and an expired request completes
  /// with kDeadlineExceeded instead of executing — the future always
  /// resolves either way.
  Result<std::future<AnnotateResult>> AnnotateStayPoints(
      std::vector<StayPoint> stays,
      std::chrono::steady_clock::time_point deadline = kNoDeadline);

  /// Queues the journey's stay points (pick-up, drop-off) as one request.
  Result<std::future<AnnotateResult>> AnnotateJourney(
      const TaxiJourney& journey,
      std::chrono::steady_clock::time_point deadline = kNoDeadline);

  /// Callback edition of AnnotateStayPoints for event-driven callers
  /// (the epoll network server must not park a thread per request). On
  /// OK, `on_complete` runs exactly once — on the batch-execution thread
  /// normally, on the submitting/draining thread for rejections that
  /// race shutdown — and must not block. A non-OK return means the
  /// request was never admitted and the callback will never run (the
  /// caller reports the error itself).
  Status AnnotateStayPointsAsync(
      std::vector<StayPoint> stays,
      std::chrono::steady_clock::time_point deadline,
      std::function<void(AnnotateResult)> on_complete);

  /// Fine-grained patterns anchored at `unit` in the current snapshot.
  /// Synchronous: a bounded number of concurrent lookups run directly on
  /// the caller's thread (admission class kQuery).
  Result<PatternQueryResult> QueryPatternsByUnit(UnitId unit);

  /// Queues a full background rebuild + publish to every lane. `data` is
  /// the new dataset generation; nullptr re-runs on the current snapshot's
  /// dataset. At most limits.rebuild rebuilds are in flight; extra
  /// triggers get kUnavailable. A rebuild that fails (injected fault,
  /// build exception) degrades gracefully: the store is left untouched —
  /// the last good snapshot keeps serving — and the error is reported
  /// through the future's RebuildResult::status.
  Result<std::future<RebuildResult>> TriggerRebuild(
      std::shared_ptr<const ServeDataset> data = nullptr);

  /// K > 1 only (a K = 1 service has no tile lane, so every shard index
  /// is out of range): queues a rebuild of shard `shard`'s tile on that
  /// shard's dedicated rebuild lane. The tile dataset is cut from `data`
  /// (nullptr re-cuts from the global lane's current dataset) by
  /// MakeShardDataset, built as a tile-local snapshot, and published to
  /// that shard's lane alone — other shards and the global lane are
  /// untouched, and annotation routed to them is never blocked.
  Result<std::future<RebuildResult>> TriggerShardRebuild(
      size_t shard, std::shared_ptr<const ServeDataset> data = nullptr);

  /// Delta-aware tile builds: when set, a shard rebuild first offers the
  /// job to this hook on the shard's lane thread. Returning a snapshot
  /// publishes it to the shard's lane as usual; returning nullptr (in-tile
  /// state can't absorb this delta) falls back to the default full tile
  /// build, and a throw fails the rebuild like any other build exception
  /// (the lane keeps serving its last good snapshot). The streaming layer
  /// installs its incremental engine
  /// here (stream/in_tile_builder.h). Not synchronized against in-flight
  /// rebuilds — install before the first TriggerShardRebuild.
  using TileSnapshotBuilder = std::function<std::shared_ptr<CsdSnapshot>(
      size_t shard, const std::shared_ptr<const ServeDataset>& data)>;
  void SetTileSnapshotBuilder(TileSnapshotBuilder builder) {
    tile_builder_ = std::move(builder);
  }

  /// The options TriggerRebuild snapshots are built with (the streaming
  /// layer builds its own tile snapshots and must match them).
  const SnapshotOptions& snapshot_options() const {
    return options_.snapshot;
  }

  /// Callback edition of TriggerRebuild (same contract as
  /// AnnotateStayPointsAsync: OK means `on_complete` runs exactly once,
  /// on the rebuild thread; an error return means it never will).
  Status TriggerRebuildAsync(
      std::function<void(RebuildResult)> on_complete,
      std::shared_ptr<const ServeDataset> data = nullptr);

  /// Graceful drain: closes admission (new requests get kUnavailable),
  /// completes every admitted request and rebuild, joins the worker
  /// threads. Idempotent; called by the destructor.
  void Shutdown();

  /// Suspends/resumes batch dispatch (tests saturate the queue
  /// deterministically while paused).
  void SetPausedForTest(bool paused);

  const AdmissionController& admission() const { return admission_; }
  SnapshotStore& store() { return *store_; }
  const SnapshotStore& store() const { return *store_; }
  size_t QueueDepth() const { return batcher_->Depth(); }

 private:
  struct RebuildJob {
    /// Target shard lane, or kGlobalLane for a full rebuild + publish.
    int64_t shard = kGlobalLane;
    std::shared_ptr<const ServeDataset> data;
    AdmissionTicket ticket;
    std::promise<RebuildResult> promise;
    /// Completion channel when set (else the promise), mirroring
    /// AnnotateRequest::on_complete.
    std::function<void(RebuildResult)> on_complete;
  };
  static constexpr int64_t kGlobalLane = -1;

  /// One independent rebuild worker: lane 0 serves full rebuilds; at
  /// K > 1, lanes 1..K serve single-shard rebuilds, one thread per shard,
  /// so a slow tile build never queues behind (or ahead of) another
  /// shard's.
  struct RebuildLane {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<RebuildJob> queue;
    bool stop = false;
    std::thread thread;
  };

  /// Shared front door of both annotate submission flavors: validates,
  /// consumes an admission slot, stamps the enqueue time.
  Result<AnnotateRequest> AdmitAnnotate(
      std::vector<StayPoint> stays,
      std::chrono::steady_clock::time_point deadline);
  Result<std::future<AnnotateResult>> Submit(
      std::vector<StayPoint> stays,
      std::chrono::steady_clock::time_point deadline);
  void ExecuteBatch(std::vector<AnnotateRequest> batch);
  void StartRebuildLanes(size_t count);
  Result<std::future<RebuildResult>> EnqueueRebuild(RebuildJob job);
  void RebuildMain(RebuildLane* lane);
  void RunRebuildJob(RebuildJob job);

  SnapshotStore* store_;
  /// Routes stays to lanes; a one-tile plan at K = 1.
  shard::ShardPlan plan_;
  ServeOptions options_;
  AdmissionController admission_;

  /// [0] = full rebuilds; [1 + s] = shard s's tile (K > 1 only).
  std::vector<std::unique_ptr<RebuildLane>> rebuild_lanes_;

  TileSnapshotBuilder tile_builder_;

  std::mutex shutdown_mutex_;
  bool shut_down_ = false;

  // Last: its dispatcher calls ExecuteBatch, so every field it touches
  // must already be alive.
  std::unique_ptr<RequestBatcher> batcher_;
};

}  // namespace csd::serve

#endif  // CSD_SERVE_SERVICE_H_

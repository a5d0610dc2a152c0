#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace csd::serve {

namespace {

obs::Counter& AnnotateRequestsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_annotate_requests_total", "Admitted annotation requests");
  return counter;
}

obs::Counter& QueryRequestsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_query_requests_total", "Admitted pattern queries");
  return counter;
}

obs::Counter& RebuildsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_rebuilds_total", "Completed snapshot rebuilds");
  return counter;
}

obs::Counter& BatchesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_batches_total", "Annotation batches dispatched");
  return counter;
}

obs::Histogram& BatchSizeHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Get().GetHistogram(
      "csd_serve_batch_size", "Coalesced requests per annotation batch",
      {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return hist;
}

/// Buckets (seconds) of the annotate-path timers, so their rows line up.
/// They start at 5 us: an idle dispatcher picks a lone request up within
/// microseconds, so light-load waits need the sub-0.1 ms rows.
std::vector<double> AnnotateTimerBuckets() {
  return {5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
          5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,  0.25,   0.5,  1.0};
}

obs::Histogram& AnnotateLatencyHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Get().GetHistogram(
      "csd_serve_annotate_latency_seconds",
      "Enqueue-to-completion latency of annotation requests",
      AnnotateTimerBuckets());
  return hist;
}

obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Get().GetHistogram(
      "csd_serve_queue_wait_seconds",
      "Enqueue-to-batch-start wait of annotation requests",
      AnnotateTimerBuckets());
  return hist;
}

obs::Histogram& QueryLatencyHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Get().GetHistogram(
      "csd_serve_query_latency_seconds",
      "Latency of synchronous pattern-by-unit lookups",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1});
  return hist;
}

obs::Counter& DeadlineExceededCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_deadline_exceeded_total",
      "Annotation requests completed with kDeadlineExceeded");
  return counter;
}

obs::Counter& RebuildFailuresCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "csd_serve_rebuild_failures_total",
      "Rebuilds that failed and left the previous snapshot serving");
  return counter;
}

/// The routing plan of a K = 1 service: one tile, so every position maps
/// to lane 0 (ShardOf of a one-tile plan is 0 whatever its bounds).
shard::ShardPlan SingleLanePlan() {
  return shard::ShardPlan(BoundingBox{{0.0, 0.0}, {0.0, 0.0}}, 1, 1, 0.0);
}

/// Completes a request without executing it: the stays come back
/// unannotated with `status` saying why (CompleteRequest frees the
/// admission slot before delivering, future and callback channels alike).
void FailRequest(AnnotateRequest& request, Status status) {
  AnnotateResult result;
  result.status = std::move(status);
  result.stays = std::move(request.stays);
  result.units.assign(result.stays.size(), kNoUnit);
  CompleteRequest(request, std::move(result));
}

}  // namespace

ServeService::ServeService(SnapshotStore* store, ServeOptions options)
    : ServeService(store, SingleLanePlan(), options) {}

ServeService::ServeService(SnapshotStore* store, shard::ShardPlan plan,
                           ServeOptions options)
    : store_(store),
      plan_(std::move(plan)),
      options_(options),
      admission_(options.limits) {
  CSD_CHECK_MSG(store_->num_shards() == plan_.num_shards(),
                "snapshot store lanes must match the shard plan");
  // One full-rebuild lane, plus one rebuild lane per shard at K > 1: a
  // tile rebuild on lane 1+s can run while another shard's lane (and the
  // batch pool) keep serving.
  StartRebuildLanes(plan_.num_shards() == 1 ? 1 : 1 + plan_.num_shards());
  batcher_ = std::make_unique<RequestBatcher>(
      options_.batch,
      [this](std::vector<AnnotateRequest> batch) {
        ExecuteBatch(std::move(batch));
      },
      options_.start_paused);
}

void ServeService::StartRebuildLanes(size_t count) {
  rebuild_lanes_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto lane = std::make_unique<RebuildLane>();
    RebuildLane* raw = lane.get();
    lane->thread = std::thread([this, raw] { RebuildMain(raw); });
    rebuild_lanes_.push_back(std::move(lane));
  }
}

ServeService::~ServeService() { Shutdown(); }

Result<AnnotateRequest> ServeService::AdmitAnnotate(
    std::vector<StayPoint> stays,
    std::chrono::steady_clock::time_point deadline) {
  if (store_->current_version() == 0) {
    return Status::FailedPrecondition(
        "no snapshot published yet; trigger a rebuild first");
  }
  auto now = std::chrono::steady_clock::now();
  if (deadline != kNoDeadline && now >= deadline) {
    // Already expired: fail fast without consuming an admission slot.
    DeadlineExceededCounter().Increment();
    return Status::DeadlineExceeded("annotate: deadline expired on arrival");
  }
  AdmissionTicket ticket(&admission_, RequestClass::kAnnotate);
  if (!ticket.ok()) return ticket.status();
  AnnotateRequestsCounter().Increment();

  AnnotateRequest request;
  request.stays = std::move(stays);
  request.enqueue_time = now;
  request.deadline = deadline;
  request.ticket = std::move(ticket);
  return request;
}

Result<std::future<AnnotateResult>> ServeService::Submit(
    std::vector<StayPoint> stays,
    std::chrono::steady_clock::time_point deadline) {
  CSD_ASSIGN_OR_RETURN(AnnotateRequest request,
                       AdmitAnnotate(std::move(stays), deadline));
  std::future<AnnotateResult> future = request.promise.get_future();
  // A false return means the batcher is draining: the request was already
  // completed with kUnavailable and its slot released, so the future is
  // still safe to hand back — it resolves either way.
  batcher_->Enqueue(std::move(request));
  return future;
}

Status ServeService::AnnotateStayPointsAsync(
    std::vector<StayPoint> stays,
    std::chrono::steady_clock::time_point deadline,
    std::function<void(AnnotateResult)> on_complete) {
  CSD_ASSIGN_OR_RETURN(AnnotateRequest request,
                       AdmitAnnotate(std::move(stays), deadline));
  request.on_complete = std::move(on_complete);
  // Once admitted the callback *will* run exactly once — a drain race
  // completes the request with kUnavailable through the same channel.
  batcher_->Enqueue(std::move(request));
  return Status::OK();
}

Result<std::future<AnnotateResult>> ServeService::AnnotateStayPoints(
    std::vector<StayPoint> stays,
    std::chrono::steady_clock::time_point deadline) {
  return Submit(std::move(stays), deadline);
}

Result<std::future<AnnotateResult>> ServeService::AnnotateJourney(
    const TaxiJourney& journey,
    std::chrono::steady_clock::time_point deadline) {
  std::vector<StayPoint> stays;
  stays.reserve(2);
  stays.emplace_back(journey.pickup.position, journey.pickup.time);
  stays.emplace_back(journey.dropoff.position, journey.dropoff.time);
  return Submit(std::move(stays), deadline);
}

Result<PatternQueryResult> ServeService::QueryPatternsByUnit(UnitId unit) {
  if (store_->current_version() == 0) {
    return Status::FailedPrecondition(
        "no snapshot published yet; trigger a rebuild first");
  }
  // RAII ticket: the slot frees on every exit path, including exceptions —
  // a thrown Acquire can no longer leak the query budget.
  AdmissionTicket ticket(&admission_, RequestClass::kQuery);
  if (!ticket.ok()) return ticket.status();
  QueryRequestsCounter().Increment();

  Stopwatch watch;
  PatternQueryResult result;
  {
    CSD_TRACE_SPAN("serve/query_unit");
    std::shared_ptr<const CsdSnapshot> snapshot = store_->Acquire();
    result.snapshot_version = snapshot->version();
    result.unit = unit;
    result.pattern_ids = snapshot->PatternsForUnit(unit);
    result.snapshot = std::move(snapshot);  // pins pattern_ids
  }
  QueryLatencyHistogram().Observe(watch.ElapsedSeconds());
  return result;
}

Result<std::future<RebuildResult>> ServeService::EnqueueRebuild(
    RebuildJob job) {
  if (job.data == nullptr && store_->current_version() == 0) {
    return Status::FailedPrecondition(
        "nothing to rebuild: no dataset given and no snapshot published");
  }
  AdmissionTicket ticket(&admission_, RequestClass::kRebuild);
  if (!ticket.ok()) return ticket.status();
  job.ticket = std::move(ticket);

  std::future<RebuildResult> future;
  if (!job.on_complete) future = job.promise.get_future();
  RebuildLane& lane = *rebuild_lanes_[job.shard == kGlobalLane
                                          ? 0
                                          : 1 + static_cast<size_t>(job.shard)];
  {
    std::lock_guard<std::mutex> lock(lane.mutex);
    lane.queue.push_back(std::move(job));
  }
  lane.cv.notify_all();
  return future;
}

Result<std::future<RebuildResult>> ServeService::TriggerRebuild(
    std::shared_ptr<const ServeDataset> data) {
  RebuildJob job;
  job.data = std::move(data);
  return EnqueueRebuild(std::move(job));
}

Result<std::future<RebuildResult>> ServeService::TriggerShardRebuild(
    size_t shard, std::shared_ptr<const ServeDataset> data) {
  // Lanes 1..K are the tile lanes; a K = 1 service has none.
  if (shard >= rebuild_lanes_.size() - 1) {
    return Status::InvalidArgument("no tile rebuild lane for this shard");
  }
  RebuildJob job;
  job.shard = static_cast<int64_t>(shard);
  job.data = std::move(data);
  return EnqueueRebuild(std::move(job));
}

Status ServeService::TriggerRebuildAsync(
    std::function<void(RebuildResult)> on_complete,
    std::shared_ptr<const ServeDataset> data) {
  RebuildJob job;
  job.data = std::move(data);
  job.on_complete = std::move(on_complete);
  CSD_ASSIGN_OR_RETURN(std::future<RebuildResult> unused,
                       EnqueueRebuild(std::move(job)));
  (void)unused;
  return Status::OK();
}

void ServeService::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shut_down_) return;
  shut_down_ = true;

  admission_.Close();       // new requests bounce with kUnavailable...
  batcher_->Drain();        // ...while everything admitted completes.
  for (std::unique_ptr<RebuildLane>& lane : rebuild_lanes_) {
    {
      std::lock_guard<std::mutex> lock(lane->mutex);
      lane->stop = true;
    }
    lane->cv.notify_all();
  }
  for (std::unique_ptr<RebuildLane>& lane : rebuild_lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
}

void ServeService::SetPausedForTest(bool paused) {
  batcher_->SetPaused(paused);
}

void ServeService::ExecuteBatch(std::vector<AnnotateRequest> batch) {
  CSD_TRACE_SPAN("serve/annotate_batch");
  Status injected = CSD_FAILPOINT_EVAL("serve/execute_batch");
  if (!injected.ok()) {
    for (AnnotateRequest& request : batch) FailRequest(request, injected);
    return;
  }
  // Batch start: one clock read times each request's queue wait and
  // turns a deadline that expired in the queue into kDeadlineExceeded
  // instead of a late execution. The common batch — obs off, no
  // deadline — skips both and the clock read.
  const bool any_deadline =
      std::any_of(batch.begin(), batch.end(),
                  [](const AnnotateRequest& request) {
                    return request.deadline != kNoDeadline;
                  });
  if (obs::Enabled() || any_deadline) {
    const auto start = std::chrono::steady_clock::now();
    for (const AnnotateRequest& request : batch) {
      QueueWaitHistogram().Observe(
          std::chrono::duration<double>(start - request.enqueue_time).count());
    }
    if (any_deadline) {
      std::vector<AnnotateRequest> live;
      live.reserve(batch.size());
      for (AnnotateRequest& request : batch) {
        if (request.deadline != kNoDeadline && start >= request.deadline) {
          DeadlineExceededCounter().Increment();
          FailRequest(request, Status::DeadlineExceeded(
                                   "annotate: deadline expired in queue"));
        } else {
          live.push_back(std::move(request));
        }
      }
      batch = std::move(live);
      if (batch.empty()) return;
    }
  }

  // Each lane's generation is acquired at most once per batch, lazily: a
  // batch that never touches shard s doesn't pin it. PublishAll fills
  // every lane before the global slot that admission checks, so a lane is
  // never empty here.
  const size_t num_lanes = plan_.num_shards();
  std::vector<std::shared_ptr<const CsdSnapshot>> lane_snaps(num_lanes);
  auto lane_snapshot = [&](size_t s) -> const CsdSnapshot* {
    if (lane_snaps[s] == nullptr) lane_snaps[s] = store_->AcquireShard(s);
    return lane_snaps[s].get();
  };
  // A stay-less request consults no lane; it reports the global version.
  const uint64_t global_version = store_->current_version();

  std::vector<AnnotateResult> results(batch.size());
  size_t total_stays = 0;
  for (const AnnotateRequest& request : batch) {
    total_stays += request.stays.size();
  }

  // Flatten to (request, index) slots. Every stay is owned by exactly one
  // lane (plan_.ShardOf; always 0 at K = 1), and a request whose stays
  // straddle tiles simply fans out — each stay votes against its owning
  // lane's snapshot. Slots sort by (lane, cell key): lane-major keeps each
  // lane's annotator (and its halo slice of the grid) hot, cell order
  // runs neighboring stays — which vote over overlapping candidate sets —
  // adjacently. The sort only changes execution order; each slot writes
  // its fixed output position, and the voting kernel is a strict
  // per-stay argmax, so results come back in request order, byte-identical
  // to unbatched annotation at any thread count.
  struct Slot {
    uint32_t request;
    uint32_t index;
    uint32_t lane;
    uint64_t cell_key;
  };
  constexpr uint64_t kNoVersion = ~0ull;
  std::vector<Slot> slots;
  slots.reserve(total_stays);
  for (size_t r = 0; r < batch.size(); ++r) {
    results[r].snapshot_version =
        batch[r].stays.empty() ? global_version : kNoVersion;
    results[r].stays = std::move(batch[r].stays);
    results[r].units.assign(results[r].stays.size(), kNoUnit);
    for (size_t i = 0; i < results[r].stays.size(); ++i) {
      const Vec2& position = results[r].stays[i].position;
      size_t lane = plan_.ShardOf(position);
      const CsdSnapshot* snapshot = lane_snapshot(lane);
      // The request's version is the oldest generation it consulted —
      // the freshness floor a straddling request can rely on.
      results[r].snapshot_version =
          std::min(results[r].snapshot_version, snapshot->version());
      slots.push_back({static_cast<uint32_t>(r), static_cast<uint32_t>(i),
                       static_cast<uint32_t>(lane),
                       snapshot->data().pois.SpatialKeyOf(position)});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.lane != b.lane ? a.lane < b.lane : a.cell_key < b.cell_key;
  });

  // Resolve each consulted lane's annotator once: the tile's subset
  // annotator when the lane serves a plan-mode (full-city) snapshot, the
  // snapshot's own annotator otherwise (a K = 1 snapshot, or a tile-local
  // rebuild whose annotator already covers exactly that shard's halo).
  std::vector<const BatchCsdAnnotator*> annotators(num_lanes, nullptr);
  for (size_t s = 0; s < num_lanes; ++s) {
    if (lane_snaps[s] != nullptr) {
      annotators[s] = &lane_snaps[s]->annotator_for_shard(s);
    }
  }

  ParallelFor(
      slots.size(),
      [&](size_t k) {
        const Slot& slot = slots[k];
        StayPoint& stay = results[slot.request].stays[slot.index];
        UnitId unit = kNoUnit;
        // The SIMD/SoA voting kernel — byte-identical to the scalar
        // recognizer() oracle (see core/batch_annotator.h).
        stay.semantic = annotators[slot.lane]->Annotate(stay.position, &unit);
        results[slot.request].units[slot.index] = unit;
      },
      {.grain = 32});

  auto now = std::chrono::steady_clock::now();
  for (size_t r = 0; r < batch.size(); ++r) {
    AnnotateLatencyHistogram().Observe(
        std::chrono::duration<double>(now - batch[r].enqueue_time).count());
    CompleteRequest(batch[r], std::move(results[r]));
  }
  BatchSizeHistogram().Observe(static_cast<double>(batch.size()));
  BatchesCounter().Increment();
}

void ServeService::RebuildMain(RebuildLane* lane) {
  std::unique_lock<std::mutex> lock(lane->mutex);
  for (;;) {
    lane->cv.wait(lock,
                  [lane] { return lane->stop || !lane->queue.empty(); });
    if (lane->queue.empty()) return;  // stopped and drained

    RebuildJob job = std::move(lane->queue.front());
    lane->queue.pop_front();
    lock.unlock();
    RunRebuildJob(std::move(job));
    lock.lock();
  }
}

void ServeService::RunRebuildJob(RebuildJob job) {
  CSD_TRACE_SPAN("serve/rebuild");
  Stopwatch watch;
  RebuildResult result;
  // The failpoint sits on EVERY lane's path — the isolation test arms a
  // sleep here for one shard and asserts the others keep annotating.
  Status status = CSD_FAILPOINT_EVAL("serve/rebuild");
  if (status.ok()) {
    try {
      // EnqueueRebuild guarantees a published snapshot exists when no
      // dataset was given, and publishes never retract.
      std::shared_ptr<const ServeDataset> data =
          job.data != nullptr ? std::move(job.data)
                              : store_->Acquire()->shared_data();
      std::shared_ptr<CsdSnapshot> snapshot;
      if (job.shard == kGlobalLane) {
        // Full rebuild: one full-city generation, published to every lane.
        snapshot = BuildServingSnapshot(std::move(data), options_.snapshot,
                                        plan_);
        result.version = store_->PublishAll(snapshot);
      } else {
        // Tile-local rebuild: the installed delta-aware builder gets the
        // first shot (it may absorb the delta into cached per-tile stage
        // state); when it declines — or none is installed — cut the
        // shard's halo slice and build a small monolithic snapshot for
        // that lane only (~1/K the work of a city-wide build).
        size_t shard = static_cast<size_t>(job.shard);
        if (tile_builder_) snapshot = tile_builder_(shard, data);
        if (snapshot == nullptr) {
          snapshot = std::make_shared<CsdSnapshot>(
              MakeShardDataset(*data, plan_, shard), options_.snapshot);
        }
        result.version = store_->PublishShard(shard, snapshot);
      }
      result.num_units = snapshot->diagram().units().size();
      result.num_patterns = snapshot->patterns().size();
      RebuildsCounter().Increment();
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("rebuild failed: ") + e.what());
    }
  }
  if (!status.ok()) {
    // Graceful degradation: nothing was published, so the last good
    // snapshot keeps serving; the error reaches the caller through
    // the rebuild future instead of taking the service down.
    RebuildFailuresCounter().Increment();
    result.status = std::move(status);
  }
  result.seconds = watch.ElapsedSeconds();
  job.ticket.Release();
  if (job.on_complete) {
    job.on_complete(std::move(result));
  } else {
    job.promise.set_value(std::move(result));
  }
}

}  // namespace csd::serve

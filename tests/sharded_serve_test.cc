// The K-lane serving path end to end: one shared version counter across
// the global slot and per-shard lanes, K = 4 geo-routed annotation
// byte-identical to K = 1 (monolithic serving), straddling batches fanned
// out and reassembled in request order, per-shard rebuilds publishing
// exactly one lane — and the isolation claim the whole design exists
// for: a shard whose rebuild lane is stuck (driven by the serve/rebuild
// failpoint) never blocks annotation routed to any other shard.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "shard/shard_plan.h"
#include "shard/sharded_build.h"
#include "tests/serve_test_helpers.h"
#include "util/failpoint.h"

namespace csd::serve {
namespace {

using serve::testing::MakeTestDataset;
using serve::testing::TestSnapshotOptions;

constexpr auto kResolveBound = std::chrono::seconds(30);
constexpr size_t kShards = 4;

/// Everything one sharded-service test needs, built once per fixture:
/// the dataset, a 2×2 plan, the plan-mode snapshot, and the service.
class ShardedServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Get().DisarmAll();
    dataset_ = MakeTestDataset();
    options_ = TestSnapshotOptions();
    plan_ = std::make_unique<shard::ShardPlan>(shard::PlanForCity(
        dataset_->pois, kShards, options_.miner.csd));
    store_ = std::make_unique<SnapshotStore>(plan_->num_shards());
    store_->PublishAll(BuildServingSnapshot(dataset_, options_, *plan_));
    ServeOptions serve_options;
    serve_options.snapshot = options_;
    service_ = std::make_unique<ServeService>(store_.get(), *plan_,
                                              serve_options);
  }

  void TearDown() override {
    service_->Shutdown();
    FailpointRegistry::Get().DisarmAll();
  }

  /// A stay placed at the center of shard `s`'s tile — guaranteed to be
  /// routed to that shard's lane.
  StayPoint StayInShard(size_t s) const {
    BoundingBox tile = plan_->TileBounds(s);
    StayPoint stay({(tile.min.x + tile.max.x) / 2.0,
                    (tile.min.y + tile.max.y) / 2.0},
                   0);
    EXPECT_EQ(plan_->ShardOf(stay.position), s);
    return stay;
  }

  AnnotateResult Annotate(std::vector<StayPoint> stays) {
    auto future_or = service_->AnnotateStayPoints(std::move(stays));
    EXPECT_TRUE(future_or.ok()) << future_or.status().message();
    std::future<AnnotateResult> future = std::move(future_or).value();
    EXPECT_EQ(future.wait_for(kResolveBound), std::future_status::ready);
    return future.get();
  }

  std::shared_ptr<const ServeDataset> dataset_;
  SnapshotOptions options_;
  std::unique_ptr<shard::ShardPlan> plan_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<ServeService> service_;
};

TEST(ShardedSnapshotStoreTest, LanesShareOneMonotonicVersionCounter) {
  auto dataset = MakeTestDataset();
  auto options = TestSnapshotOptions(/*mine_patterns=*/false);
  shard::ShardPlan plan =
      shard::PlanForCity(dataset->pois, kShards, options.miner.csd);

  SnapshotStore store(plan.num_shards());
  EXPECT_EQ(store.num_shards(), kShards);
  EXPECT_EQ(store.current_version(), 0u);
  EXPECT_EQ(store.Acquire(), nullptr);

  // PublishAll seeds every lane with the same stamped generation.
  auto full = std::make_shared<CsdSnapshot>(dataset, options, plan);
  EXPECT_EQ(store.PublishAll(full), 1u);
  EXPECT_EQ(store.current_version(), 1u);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    EXPECT_EQ(store.shard_version(s), 1u);
    EXPECT_EQ(store.AcquireShard(s).get(), full.get());
  }

  // PublishShard bumps the shared counter but replaces one lane only.
  auto tile = std::make_shared<CsdSnapshot>(
      MakeShardDataset(*dataset, plan, 2), options);
  EXPECT_EQ(store.PublishShard(2, tile), 2u);
  EXPECT_EQ(store.shard_version(2), 2u);
  EXPECT_EQ(store.AcquireShard(2).get(), tile.get());
  EXPECT_EQ(store.current_version(), 1u) << "global lane must be untouched";
  for (size_t s : {size_t{0}, size_t{1}, size_t{3}}) {
    EXPECT_EQ(store.shard_version(s), 1u);
    EXPECT_EQ(store.AcquireShard(s).get(), full.get());
  }
}

TEST_F(ShardedServeTest, GeoRoutedAnnotationMatchesMonolithicService) {
  // Monolithic serving is the K = 1 case of the same path, set up the way
  // `csdctl serve` sets up every K: plan, build, store, service.
  shard::ShardPlan single =
      shard::PlanForCity(dataset_->pois, 1, options_.miner.csd);
  ASSERT_EQ(single.num_shards(), 1u);
  SnapshotStore mono_store(single.num_shards());
  mono_store.PublishAll(BuildServingSnapshot(dataset_, options_, single));
  ASSERT_EQ(mono_store.Acquire()->plan(), nullptr);
  ASSERT_NE(store_->Acquire()->plan(), nullptr);
  ServeOptions serve_options;
  serve_options.snapshot = options_;
  ServeService mono(&mono_store, single, serve_options);

  // Real stays from the dataset, batched 8 to a request: every batch
  // crosses tiles at K = 4 whenever the underlying journeys do.
  const size_t kBatch = 8;
  size_t compared = 0;
  for (size_t base = 0; base + kBatch <= dataset_->stays.size() &&
                        compared < 400;
       base += kBatch) {
    std::vector<StayPoint> stays(dataset_->stays.begin() + base,
                                 dataset_->stays.begin() + base + kBatch);
    auto mono_future_or = mono.AnnotateStayPoints(stays);
    ASSERT_TRUE(mono_future_or.ok());
    AnnotateResult expected = std::move(mono_future_or).value().get();
    AnnotateResult got = Annotate(stays);
    ASSERT_TRUE(expected.status.ok());
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(expected.snapshot_version, 1u);
    EXPECT_EQ(got.snapshot_version, 1u);
    ASSERT_EQ(expected.units, got.units) << "batch at " << base;
    ASSERT_EQ(expected.stays.size(), got.stays.size());
    for (size_t i = 0; i < expected.stays.size(); ++i) {
      ASSERT_EQ(expected.stays[i].semantic, got.stays[i].semantic)
          << "batch at " << base << ", stay " << i;
    }
    compared += kBatch;
  }
  ASSERT_GE(compared, 400u);

  // A stay-less request consults no lane and reports the global version.
  auto empty_or = mono.AnnotateStayPoints({});
  ASSERT_TRUE(empty_or.ok());
  AnnotateResult empty = std::move(empty_or).value().get();
  ASSERT_TRUE(empty.status.ok());
  EXPECT_EQ(empty.snapshot_version, 1u);
  EXPECT_TRUE(empty.units.empty());
  EXPECT_EQ(Annotate({}).snapshot_version, 1u);
  mono.Shutdown();
}

TEST_F(ShardedServeTest, StraddlingBatchFansOutAndPreservesRequestOrder) {
  // One request touching all four tiles, in deliberately shuffled shard
  // order: results must land in request order regardless of routing.
  std::vector<StayPoint> stays = {StayInShard(2), StayInShard(0),
                                  StayInShard(3), StayInShard(1),
                                  StayInShard(2), StayInShard(0)};
  std::set<size_t> touched;
  for (const StayPoint& stay : stays) {
    touched.insert(plan_->ShardOf(stay.position));
  }
  ASSERT_EQ(touched.size(), kShards);

  AnnotateResult result = Annotate(stays);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.units.size(), stays.size());
  ASSERT_EQ(result.stays.size(), stays.size());
  // Slot i answers stay i: positions come back in submission order.
  for (size_t i = 0; i < stays.size(); ++i) {
    EXPECT_EQ(result.stays[i].position.x, stays[i].position.x);
    EXPECT_EQ(result.stays[i].position.y, stays[i].position.y);
  }
  // Same duplicate stays, same answers.
  EXPECT_EQ(result.units[0], result.units[4]);
  EXPECT_EQ(result.units[1], result.units[5]);
  EXPECT_EQ(result.snapshot_version, 1u);
}

TEST_F(ShardedServeTest, ShardRebuildPublishesExactlyOneLane) {
  auto future_or = service_->TriggerShardRebuild(1);
  ASSERT_TRUE(future_or.ok()) << future_or.status().message();
  std::future<RebuildResult> future = std::move(future_or).value();
  ASSERT_EQ(future.wait_for(kResolveBound), std::future_status::ready);
  RebuildResult result = future.get();
  ASSERT_TRUE(result.status.ok()) << result.status.message();
  EXPECT_EQ(result.version, 2u);
  EXPECT_GT(result.num_units, 0u);

  EXPECT_EQ(store_->shard_version(1), 2u);
  EXPECT_EQ(store_->current_version(), 1u);
  for (size_t s : {size_t{0}, size_t{2}, size_t{3}}) {
    EXPECT_EQ(store_->shard_version(s), 1u);
  }

  // A batch routed entirely to the rebuilt shard reports the new lane's
  // version; one routed elsewhere still reports the old generation.
  EXPECT_EQ(Annotate({StayInShard(1)}).snapshot_version, 2u);
  EXPECT_EQ(Annotate({StayInShard(3)}).snapshot_version, 1u);
  // A stay-less request consults no lane: it reports the global version,
  // not the newer tile's.
  EXPECT_EQ(Annotate({}).snapshot_version, 1u);

  // An out-of-range shard is rejected up front — and a K = 1 service has
  // no tile lane at all, so even shard 0 is out of range there.
  EXPECT_FALSE(service_->TriggerShardRebuild(kShards).ok());
  SnapshotStore mono_store(
      std::make_shared<CsdSnapshot>(dataset_, options_));
  ServeService mono(&mono_store);
  auto mono_rebuild = mono.TriggerShardRebuild(0);
  ASSERT_FALSE(mono_rebuild.ok());
  EXPECT_EQ(mono_rebuild.status().code(), StatusCode::kInvalidArgument);
  mono.Shutdown();
}

TEST_F(ShardedServeTest, RebuildingShardNeverBlocksOtherShards) {
  // Pin shard 0's rebuild lane at the serve/rebuild failpoint for two
  // seconds (one trip: the annotation path never evaluates this point,
  // so the only consumer is the shard-0 rebuild we trigger next).
  constexpr auto kStall = std::chrono::seconds(2);
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/rebuild", "1*sleep(2000000)")
                  .ok());
  auto rebuild_or = service_->TriggerShardRebuild(0);
  ASSERT_TRUE(rebuild_or.ok());
  std::future<RebuildResult> rebuild = std::move(rebuild_or).value();

  // Annotation routed to the other shards completes while shard 0 is
  // still stalled — the lanes are genuinely independent.
  auto start = std::chrono::steady_clock::now();
  for (size_t s : {size_t{1}, size_t{2}, size_t{3}}) {
    AnnotateResult result = Annotate({StayInShard(s)});
    EXPECT_TRUE(result.status.ok()) << result.status.message();
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, kStall)
      << "annotation waited out the stalled rebuild lane";
  EXPECT_EQ(rebuild.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "shard 0's rebuild should still be sleeping at the failpoint";

  ASSERT_EQ(rebuild.wait_for(kResolveBound), std::future_status::ready);
  EXPECT_TRUE(rebuild.get().status.ok());
  EXPECT_EQ(store_->shard_version(0), 2u);
}

TEST_F(ShardedServeTest, FailedShardRebuildLeavesTheLaneServing) {
  ASSERT_TRUE(FailpointRegistry::Get()
                  .Arm("serve/rebuild", "1*return(unavailable:injected)")
                  .ok());
  auto future_or = service_->TriggerShardRebuild(2);
  ASSERT_TRUE(future_or.ok());
  std::future<RebuildResult> future = std::move(future_or).value();
  ASSERT_EQ(future.wait_for(kResolveBound), std::future_status::ready);
  RebuildResult result = future.get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);

  // Graceful degradation, per lane: the last good generation keeps
  // serving and the version never moved.
  EXPECT_EQ(store_->shard_version(2), 1u);
  AnnotateResult annotated = Annotate({StayInShard(2)});
  EXPECT_TRUE(annotated.status.ok());
  EXPECT_EQ(annotated.snapshot_version, 1u);
}

TEST_F(ShardedServeTest, PatternQueriesRunAgainstTheGlobalLane) {
  // Find a unit that anchors at least one pattern in the global snapshot.
  std::shared_ptr<const CsdSnapshot> snapshot = store_->Acquire();
  ASSERT_NE(snapshot, nullptr);
  ASSERT_GT(snapshot->patterns().size(), 0u);
  UnitId unit = kNoUnit;
  for (UnitId u = 0; u < snapshot->diagram().num_units(); ++u) {
    if (!snapshot->PatternsForUnit(u).empty()) {
      unit = u;
      break;
    }
  }
  ASSERT_NE(unit, kNoUnit);

  auto result_or = service_->QueryPatternsByUnit(unit);
  ASSERT_TRUE(result_or.ok()) << result_or.status().message();
  EXPECT_EQ(result_or.value().unit, unit);
  EXPECT_FALSE(result_or.value().pattern_ids.empty());
  EXPECT_EQ(result_or.value().snapshot_version, 1u);
}

}  // namespace
}  // namespace csd::serve

// End-to-end behavior of ServeService's four endpoints plus the text
// forms of the framed protocol: preconditions on an unpublished store,
// rebuilds that publish new generations visible to later requests (a
// K = 1 rebuild through the monolithic build), pattern queries that pin
// their snapshot, the serve timers, and the response-line formats.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "tests/serve_test_helpers.h"
#include "util/status.h"

namespace csd::serve {
namespace {

using serve::testing::MakeTestDataset;
using serve::testing::TestSnapshotOptions;

class ServeServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::shared_ptr<const ServeDataset>(MakeTestDataset());
    snapshot_ = new std::shared_ptr<CsdSnapshot>(
        std::make_shared<CsdSnapshot>(*dataset_, TestSnapshotOptions()));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete dataset_;
    snapshot_ = nullptr;
    dataset_ = nullptr;
  }

  static std::shared_ptr<const ServeDataset>* dataset_;
  static std::shared_ptr<CsdSnapshot>* snapshot_;
};

std::shared_ptr<const ServeDataset>* ServeServiceTest::dataset_ = nullptr;
std::shared_ptr<CsdSnapshot>* ServeServiceTest::snapshot_ = nullptr;

TEST_F(ServeServiceTest, RequiresAPublishedSnapshot) {
  SnapshotStore store;  // empty: version 0, Acquire() == nullptr
  ServeService service(&store);

  auto annotate = service.AnnotateStayPoints(
      {StayPoint(Vec2{100.0, 100.0}, 0)});
  ASSERT_FALSE(annotate.ok());
  EXPECT_EQ(annotate.status().code(), StatusCode::kFailedPrecondition);

  auto query = service.QueryPatternsByUnit(0);
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kFailedPrecondition);

  // Rebuild-from-current-data has no data to re-run on...
  auto rebuild = service.TriggerRebuild();
  ASSERT_FALSE(rebuild.ok());
  EXPECT_EQ(rebuild.status().code(), StatusCode::kFailedPrecondition);

  // ...but an explicit dataset bootstraps an empty store to version 1.
  auto bootstrap = service.TriggerRebuild(*dataset_);
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status().ToString();
  RebuildResult published = std::move(bootstrap).value().get();
  EXPECT_EQ(published.version, 1u);
  EXPECT_GT(published.num_units, 0u);
  EXPECT_EQ(store.current_version(), 1u);
}

TEST_F(ServeServiceTest, AnnotatesJourneysAgainstTheCurrentSnapshot) {
  SnapshotStore store(*snapshot_);
  ServeService service(&store);

  TaxiJourney journey;
  journey.pickup = GpsPoint(Vec2{500.0, 500.0}, 8 * kSecondsPerHour);
  journey.dropoff = GpsPoint(Vec2{5000.0, 5000.0}, 9 * kSecondsPerHour);
  auto result = service.AnnotateJourney(journey);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  AnnotateResult annotated = std::move(result).value().get();
  EXPECT_EQ(annotated.snapshot_version, 1u);
  ASSERT_EQ(annotated.stays.size(), 2u);
  ASSERT_EQ(annotated.units.size(), 2u);
  EXPECT_EQ(annotated.stays[0].time, journey.pickup.time);
  EXPECT_EQ(annotated.stays[1].time, journey.dropoff.time);
}

TEST_F(ServeServiceTest, QueryPinsItsSnapshotAcrossAPublish) {
  SnapshotStore store(*snapshot_);
  ServeService service(&store);

  // Find a unit that actually anchors patterns.
  const CsdSnapshot& snapshot = **snapshot_;
  UnitId unit = kNoUnit;
  for (UnitId u = 0; u < snapshot.diagram().num_units(); ++u) {
    if (!snapshot.PatternsForUnit(u).empty()) {
      unit = u;
      break;
    }
  }
  ASSERT_NE(unit, kNoUnit) << "test snapshot anchored no patterns";

  auto result = service.QueryPatternsByUnit(unit);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PatternQueryResult query = std::move(result).value();
  EXPECT_EQ(query.snapshot_version, 1u);
  EXPECT_FALSE(query.pattern_ids.empty());

  // A rebuild publishing version 2 must not invalidate the held result:
  // its pattern_ids span points into the snapshot the result pins.
  auto rebuild = service.TriggerRebuild();
  ASSERT_TRUE(rebuild.ok()) << rebuild.status().ToString();
  EXPECT_EQ(std::move(rebuild).value().get().version, 2u);
  for (uint32_t id : query.pattern_ids) {
    EXPECT_LT(id, query.snapshot->patterns().size());
  }
  EXPECT_EQ(query.snapshot->version(), 1u);

  // New requests see the new generation.
  auto fresh = service.AnnotateStayPoints({StayPoint(Vec2{100.0, 100.0}, 0)});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(std::move(fresh).value().get().snapshot_version, 2u);
}

TEST_F(ServeServiceTest, SingleLaneRebuildPublishesTheMonolithicBuild) {
  // K = 1 is the one K-dependent build choice: start-up and every full
  // rebuild take the monolithic constructor (no plan, no subset
  // annotators), never a one-tile plan-mode build.
  SnapshotStore store(*snapshot_);
  ServeOptions options;
  options.snapshot = TestSnapshotOptions();
  ServeService service(&store, options);
  auto rebuild = service.TriggerRebuild();
  ASSERT_TRUE(rebuild.ok()) << rebuild.status().ToString();
  RebuildResult published = std::move(rebuild).value().get();
  ASSERT_TRUE(published.status.ok()) << published.status.ToString();
  EXPECT_EQ(published.version, 2u);

  std::shared_ptr<const CsdSnapshot> global = store.Acquire();
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->plan(), nullptr);
  EXPECT_EQ(store.AcquireShard(0).get(), global.get());
  EXPECT_EQ(&global->annotator_for_shard(0), &global->annotator());
  EXPECT_EQ(global->diagram().num_units(),
            (*snapshot_)->diagram().num_units());
  EXPECT_EQ(global->patterns().size(), (*snapshot_)->patterns().size());
}

TEST_F(ServeServiceTest, QueueWaitIsTimedOncePerServedRequest) {
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  SnapshotStore store(*snapshot_);
  ServeService service(&store);
  auto serve = [&](size_t requests) {
    std::vector<std::future<AnnotateResult>> futures;
    for (size_t i = 0; i < requests; ++i) {
      auto future = service.AnnotateStayPoints(
          {StayPoint(Vec2{100.0 + 50.0 * static_cast<double>(i), 100.0}, 0)});
      ASSERT_TRUE(future.ok()) << future.status().ToString();
      futures.push_back(std::move(future).value());
    }
    for (std::future<AnnotateResult>& future : futures) {
      EXPECT_TRUE(future.get().status.ok());
    }
  };
  serve(1);  // registers the serve timers

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const obs::Histogram& wait =
      registry.GetHistogram("csd_serve_queue_wait_seconds", "", {});
  const obs::Histogram& latency =
      registry.GetHistogram("csd_serve_annotate_latency_seconds", "", {});
  EXPECT_EQ(wait.bounds(), latency.bounds());
  const uint64_t waits_before = wait.Count();
  const uint64_t latencies_before = latency.Count();

  constexpr size_t kRequests = 40;
  serve(kRequests);
  EXPECT_EQ(wait.Count() - waits_before, kRequests);
  EXPECT_EQ(latency.Count() - latencies_before, kRequests);

  service.Shutdown();
  obs::SetEnabled(obs_was_enabled);
}

TEST_F(ServeServiceTest, ServeTimersResolveMicrosecondWaits) {
  // A light-load queue wait is a few microseconds: 4 us and 40 us must
  // land in different buckets of the serve timers, both below 0.1 ms.
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  SnapshotStore store(*snapshot_);
  ServeService service(&store);
  auto served = service.AnnotateStayPoints({StayPoint(Vec2{100.0, 100.0}, 0)});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(std::move(served).value().get().status.ok());  // registers
  service.Shutdown();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const std::vector<double> bounds =
      registry.GetHistogram("csd_serve_queue_wait_seconds", "", {}).bounds();
  EXPECT_EQ(bounds,
            registry.GetHistogram("csd_serve_annotate_latency_seconds", "", {})
                .bounds());
  // A same-bounds histogram of its own, so the served metrics stay
  // untouched.
  obs::Histogram& probe =
      registry.GetHistogram("test_serve_timer_probe_seconds", "", bounds);
  const std::vector<uint64_t> before = probe.BucketCounts();
  probe.Observe(4e-6);
  probe.Observe(40e-6);
  const std::vector<uint64_t> after = probe.BucketCounts();
  obs::SetEnabled(obs_was_enabled);

  std::vector<size_t> hit;
  for (size_t b = 0; b < after.size(); ++b) {
    for (uint64_t n = before[b]; n < after[b]; ++n) hit.push_back(b);
  }
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_NE(hit[0], hit[1]) << "4 us and 40 us share a bucket";
  for (size_t b : hit) {
    ASSERT_LT(b, bounds.size());
    EXPECT_LT(bounds[b], 1e-4) << "bucket " << b << " is not below 0.1 ms";
  }
}

TEST(ServeProtocolTest, FormatsMachineParsableResponses) {
  NetResponse annotated;
  annotated.type = FrameType::kAnnotateResp;
  annotated.snapshot_version = 3;
  annotated.units = {7, kNoUnit};
  annotated.semantic_bits = {0x5, 0x0};
  EXPECT_EQ(FormatResponseLine(annotated),
            "ok annotate v=3 n=2 units=7,- sem=0x5,0x0");

  RebuildResult rebuilt;
  rebuilt.version = 2;
  rebuilt.num_units = 10;
  rebuilt.num_patterns = 4;
  rebuilt.seconds = 0.5;
  EXPECT_EQ(FormatRebuildResponse(rebuilt),
            "ok rebuild v=2 units=10 patterns=4 seconds=0.500");
  NetResponse text;
  text.type = FrameType::kTextResp;
  text.text = FormatRebuildResponse(rebuilt);
  EXPECT_EQ(FormatResponseLine(text), text.text);

  NetResponse error;
  error.type = FrameType::kErrorResp;
  error.code = StatusCode::kUnavailable;
  error.message = "queue full";
  std::string line = FormatResponseLine(error);
  EXPECT_EQ(line.rfind("err Unavailable", 0), 0u) << line;
  EXPECT_NE(line.find("queue full"), std::string::npos);
}

}  // namespace
}  // namespace csd::serve

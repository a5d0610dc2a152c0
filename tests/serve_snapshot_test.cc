// SnapshotStore lifecycle under concurrency: readers acquiring through
// the RCU swap must always see a fully built, correctly stamped snapshot,
// across any number of concurrent publishes, and every generation must be
// reclaimed exactly when its last reader lets go. Run under the tsan
// preset these tests are the serving layer's memory-model proof; check.sh
// re-runs them with CSD_SERVE_STRESS=1 for longer overlap.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "tests/serve_test_helpers.h"

namespace csd::serve {
namespace {

using serve::testing::MakeTestDataset;
using serve::testing::StressScale;
using serve::testing::TestSnapshotOptions;

TEST(CsdSnapshotTest, BuildIsConsistentAndVersionedByPublish) {
  auto dataset = MakeTestDataset();
  auto snapshot = std::make_shared<CsdSnapshot>(dataset,
                                                TestSnapshotOptions());
  EXPECT_EQ(snapshot->version(), 0u);
  EXPECT_TRUE(snapshot->CheckIntegrity());
  EXPECT_GT(snapshot->diagram().num_units(), 0u);

  SnapshotStore store;
  EXPECT_EQ(store.Acquire(), nullptr);
  EXPECT_EQ(store.current_version(), 0u);
  EXPECT_EQ(store.PublishAll(snapshot), 1u);
  EXPECT_EQ(snapshot->version(), 1u);
  EXPECT_TRUE(snapshot->CheckIntegrity());
  EXPECT_EQ(store.Acquire().get(), snapshot.get());
}

TEST(CsdSnapshotTest, UnitPatternIndexMatchesRecognizer) {
  auto dataset = MakeTestDataset();
  CsdSnapshot snapshot(dataset, TestSnapshotOptions());
  ASSERT_GT(snapshot.patterns().size(), 0u)
      << "test dataset mined no patterns; thresholds need lowering";

  // Every pattern listed under a unit must contain a representative stay
  // that the recognizer maps to that unit — the index is an inversion of
  // the kernel, not an independent data structure.
  size_t listed = 0;
  for (UnitId unit = 0; unit < snapshot.diagram().num_units(); ++unit) {
    for (uint32_t id : snapshot.PatternsForUnit(unit)) {
      ASSERT_LT(id, snapshot.patterns().size());
      bool anchored = false;
      for (const StayPoint& sp : snapshot.pattern(id).representative) {
        UnitId got = kNoUnit;
        snapshot.recognizer().RecognizeWithUnit(sp.position, &got);
        if (got == unit) anchored = true;
      }
      EXPECT_TRUE(anchored) << "unit " << unit << " lists pattern " << id;
      ++listed;
    }
  }
  EXPECT_GT(listed, 0u);
  // Out-of-range lookups answer empty, never crash.
  EXPECT_TRUE(snapshot.PatternsForUnit(kNoUnit).empty());
}

TEST(SnapshotStoreTest, PublishesAreMonotonicAndOldGenerationsSurvive) {
  auto dataset = MakeTestDataset();
  SnapshotStore store(std::make_shared<CsdSnapshot>(
      dataset, TestSnapshotOptions(/*mine_patterns=*/false)));
  EXPECT_EQ(store.current_version(), 1u);

  std::shared_ptr<const CsdSnapshot> pinned = store.Acquire();
  EXPECT_EQ(store.PublishAll(std::make_shared<CsdSnapshot>(
                dataset, TestSnapshotOptions(/*mine_patterns=*/false))),
            2u);
  // The pinned generation is intact after being superseded.
  EXPECT_EQ(pinned->version(), 1u);
  EXPECT_TRUE(pinned->CheckIntegrity());
  EXPECT_EQ(store.Acquire()->version(), 2u);
}

TEST(SnapshotStoreTest, ReclaimsGenerationsWithLastReader) {
  uint64_t before = CsdSnapshot::LiveCount();
  auto dataset = MakeTestDataset();
  {
    SnapshotStore store(std::make_shared<CsdSnapshot>(
        dataset, TestSnapshotOptions(/*mine_patterns=*/false)));
    std::shared_ptr<const CsdSnapshot> pinned = store.Acquire();
    store.PublishAll(std::make_shared<CsdSnapshot>(
        dataset, TestSnapshotOptions(/*mine_patterns=*/false)));
    EXPECT_EQ(CsdSnapshot::LiveCount(), before + 2)
        << "superseded generation must stay alive while pinned";
    pinned.reset();
    EXPECT_EQ(CsdSnapshot::LiveCount(), before + 1)
        << "superseded generation must die with its last reader";
  }
  EXPECT_EQ(CsdSnapshot::LiveCount(), before);
}

// The tsan centerpiece: reader threads continuously acquire, validate,
// and annotate against the current snapshot while a publisher keeps
// swapping new generations in. No torn snapshot (CheckIntegrity sees the
// destructor's poison stamp), no lost reclamation, no data race for the
// sanitizer to flag.
TEST(SnapshotStoreTest, ConcurrentReadersAcrossPublishes) {
  auto dataset = MakeTestDataset();
  SnapshotOptions options = TestSnapshotOptions(/*mine_patterns=*/false);
  uint64_t live_before = CsdSnapshot::LiveCount();
  {
    SnapshotStore store(std::make_shared<CsdSnapshot>(dataset, options));

    const size_t kReaders = 4;
    const size_t kPublishes = 3 * StressScale();
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> torn{0};

    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Vec2 probe{500.0 + 100.0 * static_cast<double>(r), 3000.0};
        uint64_t last_version = 0;
        while (!stop.load(std::memory_order_acquire)) {
          std::shared_ptr<const CsdSnapshot> snapshot = store.Acquire();
          if (snapshot == nullptr || !snapshot->CheckIntegrity() ||
              snapshot->version() < last_version) {
            torn.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          last_version = snapshot->version();
          UnitId unit = kNoUnit;
          snapshot->recognizer().RecognizeWithUnit(probe, &unit);
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    for (size_t p = 0; p < kPublishes; ++p) {
      uint64_t version = store.PublishAll(
          std::make_shared<CsdSnapshot>(dataset, options));
      EXPECT_EQ(version, p + 2);
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(store.current_version(), kPublishes + 1);
  }
  // Store destroyed, all readers gone: every generation reclaimed.
  EXPECT_EQ(CsdSnapshot::LiveCount(), live_before);
}

}  // namespace
}  // namespace csd::serve

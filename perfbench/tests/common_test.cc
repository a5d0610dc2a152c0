// Tests of the benchmark's own helpers: the percentile / sample-count
// summary, the seeded request generator, and the scalar-oracle check.

#include <gtest/gtest.h>

#include <vector>

#include "common.h"
#include "core/city_semantic_diagram.h"
#include "poi/poi_database.h"
#include "synth/city_generator.h"
#include "synth/trip_generator.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankOnSortedSample) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(Percentile(v, 0.5), 5);
  EXPECT_EQ(Percentile(v, 0.9), 9);
  EXPECT_EQ(Percentile(v, 0.99), 10);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile(v, 1.0), 10);
  EXPECT_EQ(Percentile(std::vector<double>{}, 0.5), 0);
  EXPECT_EQ(Percentile(std::vector<double>{7}, 0.99), 7);
}

TEST(PercentileTest, SummaryCountsTheTailBeyondEachPercentile) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  Summary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p90, 900);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.max, 1000);
  EXPECT_EQ(s.beyond_p99, 10u);
  EXPECT_EQ(s.beyond_p90, 100u);
}

TEST(PercentileTest, TiesAtThePercentileAreNotBeyondIt) {
  Summary s = Summarize({1, 1, 1, 1, 1, 1, 1, 1, 1, 2});
  EXPECT_EQ(s.p90, 1);
  EXPECT_EQ(s.beyond_p90, 1u);
  EXPECT_EQ(s.p99, 2);
  EXPECT_EQ(s.beyond_p99, 0u);
}

/// A tiny city, its CSD, and stays from a second population.
class TinyCity : public ::testing::Test {
 protected:
  void SetUp() override {
    csd::CityConfig config;
    config.num_pois = 1500;
    config.width_m = 4000;
    config.height_m = 4000;
    config.seed = 3;
    city_ = csd::GenerateCity(config);
    csd::TripConfig trips;
    trips.num_agents = 150;
    trips.num_days = 2;
    pois_.emplace(city_.pois);
    std::vector<csd::StayPoint> stays =
        csd::CollectStayPoints(csd::GenerateTrips(city_, trips).journeys);
    diagram_.emplace(csd::CsdBuilder().Build(*pois_, stays));
    oracle_.emplace(&*diagram_);
    trips.seed = 77;
    queries_ = csd::CollectStayPoints(csd::GenerateTrips(city_, trips).journeys);
  }

  /// A sample carrying exactly the oracle's answers.
  OracleSample Truth(std::vector<csd::StayPoint> stays) const {
    OracleSample sample;
    for (const csd::StayPoint& s : stays) {
      csd::UnitId unit = csd::kNoUnit;
      sample.semantic_bits.push_back(
          oracle_->RecognizeWithUnit(s.position, &unit).bits());
      sample.units.push_back(unit);
    }
    sample.stays = std::move(stays);
    return sample;
  }

  csd::SyntheticCity city_;
  std::optional<csd::PoiDatabase> pois_;
  std::optional<csd::CitySemanticDiagram> diagram_;
  std::optional<csd::CsdRecognizer> oracle_;
  std::vector<csd::StayPoint> queries_;
};

TEST_F(TinyCity, OracleAcceptsItsOwnAnswersAndCountsEachWrongSample) {
  std::vector<std::vector<csd::StayPoint>> requests =
      MakeRequests(queries_, 64, 5);
  std::vector<OracleSample> samples;
  size_t hits = 0;
  for (const auto& r : requests) {
    samples.push_back(Truth(r));
    for (csd::UnitId u : samples.back().units) hits += u != csd::kNoUnit;
  }
  ASSERT_GT(hits, 0u) << "held-out stays should land on semantic units";
  EXPECT_EQ(CountOracleMismatches(*oracle_, samples), 0u);

  samples[3].units[0] ^= 1;                 // wrong unit
  samples[9].semantic_bits[0] ^= 1;         // wrong semantics
  samples[12].units.pop_back();             // missing slot
  EXPECT_EQ(CountOracleMismatches(*oracle_, samples), 3u);
}

TEST_F(TinyCity, RequestsAreSeededAndStayInsideOneTile) {
  csd::shard::ShardPlan plan = PlanFor(city_.pois, 4);
  auto a = MakeRequests(queries_, 200, 9, &plan, 2);
  auto b = MakeRequests(queries_, 200, 9, &plan, 2);
  ASSERT_EQ(a.size(), 200u);
  size_t hot = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_GE(a[i].size(), 1u);
    ASSERT_LE(a[i].size(), 4u);
    ASSERT_EQ(a[i].size(), b[i].size());
    size_t tile = plan.ShardOf(a[i][0].position);
    for (size_t k = 0; k < a[i].size(); ++k) {
      EXPECT_EQ(a[i][k].position.x, b[i][k].position.x);
      EXPECT_EQ(plan.ShardOf(a[i][k].position), tile);
    }
    hot += tile == 2;
  }
  EXPECT_GE(hot, 100u);  // every other request targets the hot tile
}

}  // namespace
}  // namespace perfbench

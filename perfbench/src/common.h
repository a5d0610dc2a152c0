#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the benchmark tool: the workload table, seeded input
// generation, the percentile helper, and the scalar-oracle check.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/semantic_recognition.h"
#include "poi/poi.h"
#include "shard/shard_plan.h"
#include "synth/city.h"
#include "synth/trace_replayer.h"
#include "traj/journey.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The city every workload serves: POIs, training agents and days.
inline constexpr size_t kNumPois = 15000;
inline constexpr size_t kNumAgents = 2000;
inline constexpr int kNumDays = 7;
/// Agents of the held-out population request stays are drawn from.
inline constexpr size_t kHeldoutAgents = 400;
/// Windowed closed loop: connections x frames in flight.
inline constexpr size_t kClosedConnections = 2;
inline constexpr size_t kClosedInflight = 32;

/// One benchmark workload: how `csdctl serve` is started for it and the
/// shape of the load the client offers. Every field is fixed per workload;
/// only the seed varies between runs.
struct WorkloadSpec {
  std::string name;
  // Server shape: 0 shards = the default monolithic path; streaming needs
  // shards and publishes every tick_ms.
  size_t shards = 0;
  bool stream = false;
  int tick_ms = 0;
  // Open loop at a fixed offered rate (requests/s).
  double open_rate = 0.0;
  // Publication: REBUILD frames probed at probe_rate (monolithic), or a
  // replayed fleet sent as INGEST_FIX frames at fix_rate (stream).
  double probe_rate = 0.0;
  double fix_rate = 0.0;
  size_t fleet_users = 0;
  size_t fleet_stops = 0;
  // Share of the load phase's seconds given to each loop.
  double closed_share = 0.3;
  double open_share = 0.4;
  double publish_share = 0.3;

  /// The `csdctl serve` flags for this shape, after --pois/--trips/--listen.
  std::string ServerFlags() const;
};

/// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Every input of one run: the fixed city and its training journeys, and
/// the seeded held-out stays requests are drawn from.
struct Inputs {
  csd::SyntheticCity city;
  std::vector<csd::TaxiJourney> journeys;  // given to csdctl
  std::vector<csd::StayPoint> request_pool;  // held-out stays
};
Inputs MakeInputs(uint64_t seed);

/// The clustered fleet replayed into stream-fleet's server: every
/// itinerary inside one corner box of the city.
csd::BoundingBox FleetRegion(const csd::CityConfig& config);
csd::ReplaySet MakeFleet(const WorkloadSpec& spec, const csd::SyntheticCity& city,
                         uint64_t seed);

/// The shard plan `csdctl serve --shards K` derives for these POIs.
csd::shard::ShardPlan PlanFor(const std::vector<csd::Poi>& pois, size_t shards);

/// Annotate requests of 1-4 held-out stays. With a plan, every request
/// stays inside one tile (so its response version is that tile's) and
/// every other request targets `hot_tile`.
std::vector<std::vector<csd::StayPoint>> MakeRequests(
    const std::vector<csd::StayPoint>& pool, size_t count, uint64_t seed,
    const csd::shard::ShardPlan* plan = nullptr, size_t hot_tile = 0);

/// Nearest-rank percentile of an ascending-sorted sample (q in [0, 1]):
/// the smallest value with at least q of the sample at or below it.
/// Returns 0 for an empty sample.
double Percentile(std::span<const double> sorted, double q);

/// Median and tail of one timing sample, with the sample size.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// Number of samples strictly above p99 / p90 (how well the tail
  /// percentile is supported).
  size_t beyond_p99 = 0;
  size_t beyond_p90 = 0;
};
Summary Summarize(std::vector<double> values);

/// One annotate response kept for the oracle check.
struct OracleSample {
  std::vector<csd::StayPoint> stays;
  std::vector<uint32_t> units;
  std::vector<uint32_t> semantic_bits;
};

/// Number of samples whose units or semantics differ, slot for slot, from
/// the scalar recognizer (CsdRecognizer::RecognizeWithUnit). A sample with
/// a slot count that does not match its stays counts as a mismatch.
size_t CountOracleMismatches(const csd::CsdRecognizer& oracle,
                             std::span<const OracleSample> samples);

/// Flat `--key value` arguments of one tool subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  bool ok() const { return ok_; }
  std::string Get(const std::string& key, const std::string& fallback = "") const;
  double GetDouble(const std::string& key, double fallback) const;
  uint64_t GetU64(const std::string& key, uint64_t fallback) const;

 private:
  std::vector<std::pair<std::string, std::string>> values_;
  bool ok_ = true;
};

/// Builds one JSON object, numbers printed with every significant digit.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, uint64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

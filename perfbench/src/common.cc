#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/city_semantic_diagram.h"
#include "poi/poi_database.h"
#include "shard/sharded_build.h"
#include "synth/city_generator.h"
#include "synth/trip_generator.h"
#include "util/rng.h"

namespace perfbench {

using csd::StayPoint;

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> table;

    // The default `csdctl serve --listen` (monolithic, 1 loop, max-batch 64,
    // 1 ms window). Publication is a full REBUILD, probed by a light open
    // loop, after the latency phase so rebuilds never overlap it.
    WorkloadSpec serve;
    serve.name = "serve-annotate";
    serve.open_rate = 10000.0;
    serve.probe_rate = 2000.0;
    serve.closed_share = 0.3;
    serve.open_share = 0.35;
    serve.publish_share = 0.35;
    table.push_back(serve);

    // K=4 sharded serving with streaming ingest: a corner fleet replayed as
    // INGEST_FIX frames beside an open annotate loop, half of it aimed at
    // the fleet's tile; publish ticks compete with reads for the cores.
    WorkloadSpec stream;
    stream.name = "stream-fleet";
    stream.shards = 4;
    stream.stream = true;
    stream.tick_ms = 20;
    stream.open_rate = 4000.0;
    stream.fix_rate = 2500.0;
    stream.fleet_users = 96;
    stream.fleet_stops = 8;
    stream.closed_share = 0.3;
    stream.open_share = 0.7;
    stream.publish_share = 0.0;
    table.push_back(stream);
    return table;
  }();
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string WorkloadSpec::ServerFlags() const {
  std::string flags;
  if (shards > 0) flags += "--shards " + std::to_string(shards);
  if (stream) flags += " --stream 1 --stream-tick-ms " + std::to_string(tick_ms);
  return flags;
}

Inputs MakeInputs(uint64_t seed) {
  // The program's inputs are one fixed recipe (csdctl generate's default
  // seed); the seed draws the traffic: the held-out population requests
  // come from, the request order and the fleet. Drawing the city itself
  // from the seed made mining time and peak memory vary by up to 2x
  // between cities of the same shape, which would swamp any regression.
  constexpr uint64_t kCitySeed = 7;
  Inputs inputs;
  csd::CityConfig city_config;
  city_config.num_pois = kNumPois;
  city_config.seed = kCitySeed;
  inputs.city = csd::GenerateCity(city_config);

  csd::TripConfig trips;
  trips.num_agents = kNumAgents;
  trips.num_days = kNumDays;
  trips.seed = kCitySeed + 55;
  inputs.journeys = csd::GenerateTrips(inputs.city, trips).journeys;

  // Requests come from a second, smaller population of the same city, so
  // queries land where taxis actually stop but were never training data.
  csd::TripConfig heldout = trips;
  heldout.num_agents = kHeldoutAgents;
  heldout.seed = seed * 7919 + 1001;
  inputs.request_pool =
      csd::CollectStayPoints(csd::GenerateTrips(inputs.city, heldout).journeys);
  return inputs;
}

csd::BoundingBox FleetRegion(const csd::CityConfig& config) {
  csd::BoundingBox box;
  box.Extend({0.05 * config.width_m, 0.05 * config.height_m});
  box.Extend({0.35 * config.width_m, 0.35 * config.height_m});
  return box;
}

csd::ReplaySet MakeFleet(const WorkloadSpec& spec,
                         const csd::SyntheticCity& city, uint64_t seed) {
  csd::ReplayConfig replay;
  replay.num_users = spec.fleet_users;
  replay.stops_per_user = spec.fleet_stops;
  replay.region = FleetRegion(city.config);
  replay.seed = seed * 31 + 7;
  return csd::MakeReplaySet(city, replay);
}

csd::shard::ShardPlan PlanFor(const std::vector<csd::Poi>& pois,
                              size_t shards) {
  csd::PoiDatabase db(pois);
  return csd::shard::PlanForCity(db, shards, csd::CsdBuildOptions{});
}

std::vector<std::vector<StayPoint>> MakeRequests(
    const std::vector<StayPoint>& pool, size_t count, uint64_t seed,
    const csd::shard::ShardPlan* plan, size_t hot_tile) {
  std::vector<std::vector<StayPoint>> by_tile(plan ? plan->num_shards() : 1);
  for (const StayPoint& stay : pool) {
    by_tile[plan ? plan->ShardOf(stay.position) : 0].push_back(stay);
  }
  std::vector<size_t> tiles;
  for (size_t t = 0; t < by_tile.size(); ++t) {
    if (!by_tile[t].empty()) tiles.push_back(t);
  }
  std::vector<std::vector<StayPoint>> requests;
  if (tiles.empty()) return requests;
  csd::Rng rng(seed * 104729 + 3);
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t tile = tiles[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(tiles.size()) - 1))];
    if (plan != nullptr && i % 2 == 0 && !by_tile[hot_tile].empty()) {
      tile = hot_tile;
    }
    const std::vector<StayPoint>& source = by_tile[tile];
    size_t n = static_cast<size_t>(rng.UniformInt(1, 4));
    std::vector<StayPoint> stays;
    stays.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      const StayPoint& s = source[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(source.size()) - 1))];
      stays.emplace_back(s.position, s.time);
    }
    requests.push_back(std::move(stays));
  }
  return requests;
}

double Percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                          static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  std::sort(values.begin(), values.end());
  summary.count = values.size();
  if (values.empty()) return summary;
  summary.p50 = Percentile(values, 0.50);
  summary.p90 = Percentile(values, 0.90);
  summary.p99 = Percentile(values, 0.99);
  summary.max = values.back();
  auto beyond = [&](double v) {
    return static_cast<size_t>(
        values.end() - std::upper_bound(values.begin(), values.end(), v));
  };
  summary.beyond_p99 = beyond(summary.p99);
  summary.beyond_p90 = beyond(summary.p90);
  return summary;
}

size_t CountOracleMismatches(const csd::CsdRecognizer& oracle,
                             std::span<const OracleSample> samples) {
  size_t mismatches = 0;
  for (const OracleSample& sample : samples) {
    bool same = sample.units.size() == sample.stays.size() &&
                sample.semantic_bits.size() == sample.stays.size();
    for (size_t i = 0; same && i < sample.stays.size(); ++i) {
      csd::UnitId unit = csd::kNoUnit;
      csd::SemanticProperty property =
          oracle.RecognizeWithUnit(sample.stays[i].position, &unit);
      same = unit == sample.units[i] &&
             property.bits() == sample.semantic_bits[i];
    }
    if (!same) ++mismatches;
  }
  return mismatches;
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "bad argument '%s' (expected --key value)\n",
                   key.c_str());
      ok_ = false;
      return;
    }
    values_.emplace_back(key.substr(2), argv[i + 1]);
  }
}

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  for (const auto& [k, v] : values_) {
    if (k == key) return v;
  }
  return fallback;
}

double Args::GetDouble(const std::string& key, double fallback) const {
  std::string v = Get(key);
  return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
}

uint64_t Args::GetU64(const std::string& key, uint64_t fallback) const {
  std::string v = Get(key);
  return v.empty() ? fallback : std::strtoull(v.c_str(), nullptr, 10);
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += c;
  }
  body_ += "\"";
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  Key(key);
  body_ += value.str();
  return *this;
}

}  // namespace perfbench

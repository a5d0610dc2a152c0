// The traced pass: calls each module's public functions in-process, in the
// order the program calls them, and times them from the benchmark's own
// code. Nothing inside the program is instrumented or switched on.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <thread>

#include "core/city_semantic_diagram.h"
#include "core/counterpart_cluster.h"
#include "core/metrics.h"
#include "io/binary_io.h"
#include "io/dataset_io.h"
#include "miner/pervasive_miner.h"
#include "serve/frame.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "shard/sharded_build.h"
#include "stream/stream_ingestor.h"
#include "tool.h"

namespace perfbench {
namespace {

using csd::StayPoint;

/// Rounds of the traced mining pipeline; each layer reports its median.
constexpr int kTraceRounds = 7;

/// Seconds spent in `fn`, which runs once.
template <typename Fn>
double Timed(Fn&& fn) {
  Clock::time_point t0 = Clock::now();
  fn();
  return SecondsBetween(t0, Clock::now());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// True when `patterns`, written the way `csdctl mine --out` writes them,
/// equal the bytes of `reference_csv`.
bool SameAsCsv(const std::vector<csd::FineGrainedPattern>& patterns,
               const std::string& scratch_csv,
               const std::string& reference_csv) {
  if (!csd::WritePatternsCsv(scratch_csv, patterns).ok()) return false;
  std::string ours = FileBytes(scratch_csv);
  return !ours.empty() && ours == FileBytes(reference_csv);
}

}  // namespace

int RunPipeline(const Args& args) {
  std::string dir = args.Get("dir");
  std::string reference = args.Get("patterns");
  const bool traced = args.GetU64("trace", 0) != 0;
  if (dir.empty() || reference.empty()) {
    std::fprintf(stderr, "pipeline needs --dir and --patterns\n");
    return 2;
  }

  // io: what `csdctl mine` reads, including the POI database it builds.
  std::optional<csd::PoiDatabase> pois;
  std::vector<csd::TaxiJourney> journeys;
  bool read_ok = true;
  double read_pois_s = Timed([&] {
    auto pois_or = csd::ReadPoisCsv(dir + "/pois.csv");
    read_ok = pois_or.ok();
    if (read_ok) pois.emplace(std::move(pois_or).value());
  });
  double load_journeys_s = Timed([&] {
    auto journeys_or = csd::ReadJourneysBinary(dir + "/trips.bin");
    read_ok = read_ok && journeys_or.ok();
    if (journeys_or.ok()) journeys = std::move(journeys_or).value();
  });
  if (!read_ok) {
    std::fprintf(stderr, "pipeline: cannot read the generated inputs\n");
    return 1;
  }

  // traj: stay points and the trajectory database, as csdctl builds them.
  std::vector<StayPoint> stays;
  csd::SemanticTrajectoryDb db;
  double build_db_s = Timed([&] {
    stays = csd::CollectStayPoints(journeys);
    db = csd::JourneysToStayPairs(journeys);
    csd::SemanticTrajectoryDb linked = csd::LinkJourneys(journeys, {});
    db.insert(db.end(), linked.begin(), linked.end());
    for (size_t i = 0; i < db.size(); ++i) {
      db[i].id = static_cast<csd::TrajectoryId>(i);
    }
  });

  const csd::MinerConfig config;  // csdctl mine's defaults (sigma 50, ...)
  // The whole miner, exactly as `csdctl mine` runs it: constructor + Run,
  // with the miner's destruction left outside the timing.
  auto run_whole = [&](csd::MiningResult* result) {
    std::optional<csd::PervasiveMiner> whole;
    double seconds = Timed([&] {
      whole.emplace(&*pois, stays, config);
      *result = whole->RunCsdPm(db);
    });
    return seconds;
  };
  csd::MiningResult result;
  run_whole(&result);  // the output check; also warms the allocator
  JsonObject out;
  out.Int("patterns", result.patterns.size())
      .Bool("identical",
            SameAsCsv(result.patterns, dir + "/inproc_patterns.csv", reference));
  if (!traced) {
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  // One traced round: every layer along csdctl mine's path, called one by
  // one, then the whole miner. Rounds alternate the two so a slow spell of
  // the host lands on both; each metric reports its median over rounds.
  const csd::CsdBuildOptions& csd_options = config.csd;
  std::vector<std::string> names;
  std::map<std::string, std::vector<double>> samples;
  auto record = [&](const std::string& name, double value) {
    if (samples.find(name) == samples.end()) names.push_back(name);
    samples[name].push_back(value);
  };
  bool layers_identical = true;
  for (int round = 0; round < kTraceRounds; ++round) {
    // The four CSD construction stages.
    std::optional<csd::PopularityModel> popularity;
    csd::PopularityClusteringResult clustered;
    std::vector<std::vector<csd::PoiId>> purified;
    record("core.popularity_s", Timed([&] {
      popularity.emplace(*pois, stays, csd_options.r3sigma, csd_options.decay);
    }));
    record("core.clustering_s", Timed([&] {
      clustered = csd::PopularityBasedClustering(*pois, *popularity,
                                                 csd_options.clustering);
    }));
    record("core.purification_s", Timed([&] {
      purified = csd::SemanticPurification(std::move(clustered.clusters), *pois,
                                           csd_options.purification);
    }));
    record("core.merging_s", Timed([&] {
      csd::SemanticUnitMerging(purified, clustered.unclustered, *pois,
                               *popularity, csd_options.merging);
    }));

    // The miner's constructor: the diagram, then the ROI baseline.
    std::optional<csd::CitySemanticDiagram> diagram;
    double csd_build_s = Timed([&] {
      diagram.emplace(csd::CsdBuilder(csd_options).Build(*pois, stays));
    });
    std::optional<csd::RoiRecognizer> roi;
    double roi_build_s = Timed([&] { roi.emplace(&*pois, stays, config.roi); });
    roi.reset();

    // Run: annotate, coarse patterns, refinement, evaluation.
    csd::MinerConfig adopt = config;
    adopt.build_roi_baseline = false;
    csd::PervasiveMiner miner(&*pois, stays, adopt, std::move(*diagram));
    csd::SemanticTrajectoryDb annotated;
    double annotate_s = Timed([&] {
      annotated = miner.AnnotateFor(csd::RecognizerKind::kCsd, db);
    });
    size_t annotated_stays = 0;
    for (const auto& trajectory : annotated) {
      annotated_stays += trajectory.stays.size();
    }
    std::vector<csd::CoarsePattern> coarse;
    double coarse_s = Timed([&] {
      coarse = csd::MineCoarsePatterns(annotated, config.extraction);
    });
    std::vector<csd::FineGrainedPattern> patterns;
    double refine_s = 0.0;
    for (const csd::CoarsePattern& c : coarse) {
      refine_s += Timed([&] {
        std::vector<csd::FineGrainedPattern> fine =
            csd::RefineByCounterpartCluster(c, annotated, config.extraction);
        patterns.insert(patterns.end(), std::make_move_iterator(fine.begin()),
                        std::make_move_iterator(fine.end()));
      });
    }
    double evaluate_s = Timed(
        [&] { csd::EvaluateApproach(patterns, miner.csd_recognizer()); });
    layers_identical = layers_identical &&
        SameAsCsv(patterns, dir + "/layers_patterns.csv", reference);

    double layers_s = csd_build_s + roi_build_s + annotate_s + coarse_s +
                      refine_s + evaluate_s;
    double whole_s = run_whole(&result);
    record("core.csd_build_s", csd_build_s);
    record("baseline.roi_build_s", roi_build_s);
    record("core.annotate_s", annotate_s);
    record("core.annotated_stays", static_cast<double>(annotated_stays));
    record("seqmine.coarse_s", coarse_s);
    record("seqmine.coarse_patterns", static_cast<double>(coarse.size()));
    record("cluster.refine_s", refine_s);
    record("cluster.refine_calls", static_cast<double>(coarse.size()));
    record("cluster.fine_per_coarse",
           coarse.empty() ? 0.0
                          : static_cast<double>(patterns.size()) /
                                static_cast<double>(coarse.size()));
    record("core.evaluate_s", evaluate_s);
    record("layers_s", layers_s);
    record("miner.whole_s", whole_s);
    record("miner.coverage", layers_s / whole_s);
  }
  out.Num("io.read_pois_s", read_pois_s)
      .Num("io.load_journeys_s", load_journeys_s)
      .Num("traj.build_db_s", build_db_s)
      .Int("rounds", kTraceRounds)
      .Bool("layers_identical", layers_identical);
  for (const std::string& name : names) {
    out.Num(name, Summarize(samples[name]).p50);
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

namespace {

/// In-process open loop against ServeService::AnnotateStayPointsAsync at
/// `rate`; latency per request from its due time to its completion.
Summary ServiceLatency(csd::serve::ServeService& service,
                       const std::vector<std::vector<StayPoint>>& requests,
                       double rate, double seconds) {
  const size_t planned = static_cast<size_t>(rate * seconds);
  std::vector<Clock::time_point> done(planned);
  std::vector<char> ok(planned, 0);
  std::atomic<size_t> completed{0};
  const Clock::time_point start = Clock::now();
  auto due = [&](size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(k) / rate));
  };
  size_t submitted = 0;
  for (size_t k = 0; k < planned; ++k) {
    std::this_thread::sleep_until(due(k));
    csd::Status s = service.AnnotateStayPointsAsync(
        requests[k % requests.size()], csd::serve::kNoDeadline,
        [&, k](csd::serve::AnnotateResult result) {
          done[k] = Clock::now();
          ok[k] = result.status.ok();
          completed.fetch_add(1, std::memory_order_release);
        });
    if (s.ok()) ++submitted;
  }
  while (completed.load(std::memory_order_acquire) < submitted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<double> latency;
  for (size_t k = 0; k < planned; ++k) {
    if (ok[k]) latency.push_back(SecondsBetween(due(k), done[k]));
  }
  return Summarize(std::move(latency));
}

}  // namespace

int RunLayers(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.Get("workload"));
  const WorkloadSpec* fleet_spec = FindWorkload("stream-fleet");
  std::string dir = args.Get("dir");
  if (spec == nullptr || dir.empty()) {
    std::fprintf(stderr, "layers needs --workload and --dir\n");
    return 2;
  }
  const uint64_t seed = args.GetU64("seed", 1);
  auto pois_or = csd::ReadPoisCsv(dir + "/pois.csv");
  auto journeys_or = csd::ReadJourneysBinary(dir + "/trips.bin");
  if (!pois_or.ok() || !journeys_or.ok()) {
    std::fprintf(stderr, "layers: cannot read the generated inputs\n");
    return 1;
  }
  auto dataset = csd::serve::MakeServeDataset(std::move(pois_or).value(),
                                              journeys_or.value());
  const std::vector<csd::Poi>& pois = dataset->pois.pois();
  csd::shard::ShardPlan plan = PlanFor(pois, fleet_spec->shards);
  Inputs inputs = MakeInputs(seed);
  const size_t hot_tile =
      plan.ShardOf(FleetRegion(inputs.city.config).Center());
  const csd::serve::SnapshotOptions snapshot_options;  // csdctl serve's

  JsonObject out;
  out.Num("shard.stage_caches_s", Timed([&] {
    csd::shard::BuildStageCaches(dataset->pois, dataset->stays, plan,
                                 snapshot_options.miner.csd);
  }));
  {
    csd::MinerConfig serving = snapshot_options.miner;
    serving.build_roi_baseline = false;
    csd::PervasiveMiner miner(&dataset->pois, dataset->stays, serving);
    out.Num("miner.mine_patterns_s",
            Timed([&] { miner.MinePatterns(dataset->trajectories); }));
  }

  // The snapshot this workload's server builds at start-up.
  std::shared_ptr<csd::serve::CsdSnapshot> snapshot;
  std::optional<csd::shard::ShardPlan> served_plan;
  if (spec->shards > 0) served_plan = PlanFor(pois, spec->shards);
  out.Num("serve.snapshot_build_s", Timed([&] {
    snapshot = served_plan ? std::make_shared<csd::serve::CsdSnapshot>(
                                 dataset, snapshot_options, *served_plan)
                           : std::make_shared<csd::serve::CsdSnapshot>(
                                 dataset, snapshot_options);
  }));

  // Request path: the kernel on one thread, the frame codec, then the
  // in-process service at the workload's offered rate.
  std::vector<std::vector<StayPoint>> requests =
      MakeRequests(inputs.request_pool, 1u << 13, seed,
                   served_plan ? &*served_plan : nullptr, hot_tile);
  // The annotator the request path uses: in plan mode each stay goes to
  // its tile's subset annotator, as ServeService routes it.
  auto annotator_for =
      [&](const StayPoint& stay) -> const csd::BatchCsdAnnotator& {
    if (!served_plan) return snapshot->annotator();
    return snapshot->annotator_for_shard(served_plan->ShardOf(stay.position));
  };
  size_t stays_total = 0, hits = 0;
  double kernel_s = Timed([&] {
    for (const auto& request : requests) {
      for (const StayPoint& stay : request) {
        csd::UnitId unit = csd::kNoUnit;
        annotator_for(stay).Annotate(stay.position, &unit);
        hits += unit != csd::kNoUnit;
        ++stays_total;
      }
    }
  });
  const double kernel_us_per_stay =
      1e6 * kernel_s / static_cast<double>(stays_total);
  std::vector<uint8_t> wire;
  size_t decoded = 0;
  double codec_s = Timed([&] {
    for (size_t i = 0; i < requests.size(); ++i) {
      wire.clear();
      csd::serve::AppendAnnotateRequest(static_cast<uint32_t>(i), 0,
                                        requests[i], &wire);
      csd::serve::DecodedFrame frame;
      size_t consumed = 0;
      csd::Status error;
      if (csd::serve::DecodeFrame(wire, &frame, &consumed, &error) ==
              csd::serve::DecodeStatus::kFrame &&
          csd::serve::ParseRequestFrame(frame).ok()) {
        ++decoded;
      }
    }
  });
  out.Num("core.kernel_us_per_stay", kernel_us_per_stay)
      .Num("core.hit_ratio",
           static_cast<double>(hits) / static_cast<double>(stays_total))
      .Num("serve.frame_codec_ns",
           1e9 * codec_s / static_cast<double>(requests.size()))
      .Bool("codec_ok", decoded == requests.size());

  const csd::serve::ServeOptions serve_options;  // csdctl serve's defaults
  {
    std::optional<csd::serve::SnapshotStore> store;
    std::optional<csd::serve::ShardedSnapshotStore> sharded;
    std::optional<csd::serve::ServeService> service;
    if (served_plan) {
      sharded.emplace(served_plan->num_shards());
      sharded->PublishAll(snapshot);
      service.emplace(&*sharded, *served_plan, serve_options);
    } else {
      store.emplace(snapshot);
      service.emplace(&*store, serve_options);
    }
    Summary latency = ServiceLatency(*service, requests, spec->open_rate, 2.0);
    service->Shutdown();
    double kernel_ms_per_request = 1e-3 * kernel_us_per_stay *
                                   static_cast<double>(stays_total) /
                                   static_cast<double>(requests.size());
    out.Num("serve.service_p50_ms", 1e3 * latency.p50)
        .Num("serve.service_p99_ms", 1e3 * latency.p99)
        .Int("serve.service_samples", latency.count)
        .Num("serve.queue_wait_ms_p50",
             1e3 * latency.p50 - kernel_ms_per_request);
  }

  // Streaming: the K=4 sharded service csdctl serve --stream runs, fed the
  // fleet at stream-fleet's fix rate with a publish tick per tick period.
  auto bootstrap =
      std::make_shared<csd::serve::CsdSnapshot>(dataset, snapshot_options, plan);
  csd::serve::ShardedSnapshotStore store(plan.num_shards());
  store.PublishAll(bootstrap);
  csd::serve::ServeService service(&store, plan, serve_options);
  out.Num("serve.shard_dataset_s", Timed([&] {
    csd::serve::MakeShardDataset(*dataset, plan, hot_tile);
  }));
  double tile_rebuild_s = 0.0;
  if (auto rebuild_or = service.TriggerShardRebuild(hot_tile); rebuild_or.ok()) {
    tile_rebuild_s = std::move(rebuild_or).value().get().seconds;
  }
  out.Num("serve.tile_rebuild_s", tile_rebuild_s);

  csd::ReplaySet fleet = MakeFleet(*fleet_spec, inputs.city, seed);
  csd::stream::StreamIngestor ingestor(&service, &store, plan, dataset);
  const size_t fixes_per_tick = static_cast<size_t>(
      fleet_spec->fix_rate * fleet_spec->tick_ms / 1000.0);
  double ingest_s = 0.0;
  std::vector<double> tick_s;
  size_t since_tick = 0, pending_max = 0, rebuilt = 0, in_tile = 0;
  size_t ingest_failures = 0;
  auto tick = [&] {
    pending_max = std::max(pending_max, ingestor.pending_stays());
    if (ingestor.pending_stays() == 0) return;
    csd::stream::RebuildTickReport report;
    tick_s.push_back(Timed([&] { report = ingestor.PublishTick(); }));
    rebuilt += report.shards_rebuilt;
    in_tile += report.shards_in_tile;
  };
  // At most 200 ticks' worth of the fleet keeps the pass short.
  const size_t replayed = std::min(fleet.stream.size(), 200 * fixes_per_tick);
  std::vector<csd::GpsPoint> fixes;
  for (size_t i = 0; i < replayed;) {
    uint32_t user = fleet.stream[i].user_id;
    fixes.clear();
    for (; i < replayed && fleet.stream[i].user_id == user &&
           fixes.size() < 32;
         ++i) {
      fixes.push_back(fleet.stream[i].fix);
    }
    ingest_s += Timed([&] {
      if (!ingestor.IngestFixes(user, fixes).ok()) ++ingest_failures;
    });
    since_tick += fixes.size();
    if (since_tick >= fixes_per_tick) {
      since_tick = 0;
      tick();
    }
  }
  tick();
  Summary ticks = Summarize(tick_s);
  out.Num("stream.ingest_ns_per_fix",
          1e9 * ingest_s / static_cast<double>(replayed))
      .Num("stream.tick_s_p50", ticks.p50)
      .Num("stream.tick_s_p90", ticks.p90)
      .Int("stream.ticks", ticks.count)
      .Num("stream.shards_per_tick",
           ticks.count == 0 ? 0.0
                            : static_cast<double>(rebuilt) /
                                  static_cast<double>(ticks.count))
      .Num("stream.in_tile_ratio",
           rebuilt == 0 ? 0.0
                        : static_cast<double>(in_tile) /
                              static_cast<double>(rebuilt))
      .Int("stream.pending_stays_max", pending_max)
      .Int("stream.late_dropped", ingestor.late_dropped())
      .Int("stream.ingest_failures", ingest_failures);
  service.Shutdown();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench

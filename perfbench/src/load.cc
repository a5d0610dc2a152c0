// The load client of the benchmark: drives one running
// `csdctl serve --listen` from outside, over the framed protocol only.
//
// The phases below run in kRounds rounds (closed, open, publish; closed,
// open, publish; ...), so each metric samples the whole load window rather
// than one contiguous slice of it: on a shared host the cores' speed drifts
// over seconds, and a slow spell then lands on every phase alike. Shares of
// --seconds per phase come from the workload table.
//   closed   windowed closed loop: kClosedConnections connections, each
//            keeping kClosedInflight frames outstanding. Throughput is the
//            median over 250 ms windows. Every 8th response is kept for the
//            scalar-oracle check (on stream-fleet, only before any fix).
//   open     open loop at `open_rate`: request k is due at start + k/rate and
//            its latency runs from that due time, so a stalled sender or
//            server charges the wait to every request behind it. The
//            sender's own lateness is reported; p99 lateness above 2 ms
//            flags the run.
//   publish  how long a publication takes to reach readers. serve-annotate
//            sends REBUILD frames one at a time beside a probe open loop;
//            stream-fleet replays its fleet as INGEST_FIX frames during the
//            open phase. A sample runs from the send of the REBUILD (or of
//            the fix that closes a stay) to the first annotate response from
//            the affected tile carrying a newer snapshot version.
//
// Threads: at most 4 (open-loop sender and receiver, ingest sender and
// acknowledgement reader); connections: at most 2 per phase.

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "io/binary_io.h"
#include "io/dataset_io.h"
#include "serve/frame.h"
#include "serve/net_client.h"
#include "serve/snapshot.h"
#include "stream/online_stay_point_detector.h"
#include "tool.h"

namespace perfbench {
namespace {

using csd::StayPoint;
using csd::serve::FrameType;
using csd::serve::NetClient;
using csd::serve::NetResponse;
using Requests = std::vector<std::vector<StayPoint>>;

constexpr auto kReadTimeout = std::chrono::seconds(10);
constexpr int kRounds = 3;
// The sender "fell behind" when a percent of its sends left more than two
// batch windows after their due time.
constexpr double kLateFlagSeconds = 2e-3;

std::unique_ptr<NetClient> Connect(uint16_t port) {
  auto client_or = NetClient::Connect("127.0.0.1", port);
  if (!client_or.ok()) {
    std::fprintf(stderr, "connect: %s\n", client_or.status().ToString().c_str());
    return nullptr;
  }
  std::unique_ptr<NetClient> client = std::move(client_or).value();
  // A response that never comes ends the read with an error instead of
  // hanging the run; the missing requests count as failed.
  timeval tv{static_cast<time_t>(kReadTimeout.count()), 0};
  setsockopt(client->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return client;
}

bool ValidAnnotate(const NetResponse& r, size_t stays) {
  return r.type == FrameType::kAnnotateResp && r.snapshot_version > 0 &&
         r.units.size() == stays && r.semantic_bits.size() == stays;
}

bool IsShed(const NetResponse& r) {
  return r.type == FrameType::kErrorResp &&
         r.code == csd::StatusCode::kUnavailable;
}

// ---------------------------------------------------------------- closed

struct ClosedResult {
  std::vector<double> window_qps;  // completions / s per full 250 ms window
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  std::vector<OracleSample> samples;

  void Append(ClosedResult other) {
    window_qps.insert(window_qps.end(), other.window_qps.begin(),
                      other.window_qps.end());
    seconds += other.seconds;
    attempted += other.attempted;
    completed += other.completed;
    failed += other.failed;
    shed += other.shed;
    for (OracleSample& s : other.samples) samples.push_back(std::move(s));
  }
};

ClosedResult RunClosed(uint16_t port, const Requests& requests,
                       size_t connections, size_t inflight, double seconds,
                       bool keep_samples) {
  constexpr double kWindow = 0.25;
  const size_t num_windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kWindow));
  struct PerConn {
    std::vector<uint64_t> buckets;
    uint64_t attempted = 0, completed = 0, failed = 0, shed = 0;
    std::vector<OracleSample> samples;
  };
  std::vector<PerConn> per(connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  auto worker = [&](size_t c) {
    PerConn& mine = per[c];
    mine.buckets.assign(num_windows, 0);
    std::unique_ptr<NetClient> client = Connect(port);
    if (client == nullptr) {
      mine.attempted = mine.failed = 1;
      return;
    }
    auto request_of = [&](uint64_t id) -> const std::vector<StayPoint>& {
      return requests[(c * 7919 + id) % requests.size()];
    };
    uint64_t next = 0, done = 0;
    std::vector<uint8_t> buf;
    auto fill = [&] {
      buf.clear();
      while (next - done < inflight && Clock::now() < end) {
        csd::serve::AppendAnnotateRequest(static_cast<uint32_t>(next), 0,
                                          request_of(next), &buf);
        ++next;
      }
      if (!buf.empty() && !client->Send(buf).ok()) {
        mine.failed += next - done;
        done = next;
      }
    };
    fill();
    while (done < next) {
      auto response_or = client->ReadResponse();
      if (!response_or.ok()) {
        mine.failed += next - done;
        break;
      }
      ++done;
      const NetResponse& r = response_or.value();
      const std::vector<StayPoint>& stays = request_of(r.request_id);
      if (ValidAnnotate(r, stays.size())) {
        ++mine.completed;
        size_t w = static_cast<size_t>(SecondsBetween(start, Clock::now()) /
                                       kWindow);
        if (w < num_windows) ++mine.buckets[w];
        if (keep_samples && r.request_id % 8 == 0) {
          mine.samples.push_back({stays, r.units, r.semantic_bits});
        }
      } else if (IsShed(r)) {
        ++mine.shed;
      } else {
        ++mine.failed;
      }
      if (next - done <= inflight / 2) fill();
    }
    mine.attempted = next;
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < connections; ++c) threads.emplace_back(worker, c);
  worker(0);
  for (std::thread& t : threads) t.join();
  double elapsed = SecondsBetween(start, Clock::now());

  ClosedResult result;
  result.window_qps.assign(num_windows, 0.0);
  for (PerConn& p : per) {
    result.attempted += p.attempted;
    result.completed += p.completed;
    result.failed += p.failed;
    result.shed += p.shed;
    for (size_t w = 0; w < p.buckets.size(); ++w) {
      result.window_qps[w] += static_cast<double>(p.buckets[w]) / kWindow;
    }
    for (OracleSample& s : p.samples) result.samples.push_back(std::move(s));
  }
  result.seconds = elapsed;
  return result;
}

// ------------------------------------------------------------------ open

/// One annotate response as the publication tracker sees it.
struct Seen {
  double t = 0.0;  // seconds since the phase start
  uint32_t tile = 0;
  uint64_t version = 0;
};

/// The moment a publication was asked for: a REBUILD sent, or the fix that
/// closes a stay sent (tile = the stay's tile).
struct PublishStart {
  double t = 0.0;
  uint32_t tile = 0;
};

struct OpenResult {
  uint64_t planned = 0, sent = 0, ok = 0, failed = 0, shed = 0;
  std::vector<double> latency_s;
  /// Latencies grouped by the 1 s window of their due time; only windows
  /// that end at or before the phase end.
  std::vector<std::vector<double>> window_latency_s;
  std::vector<double> lateness_s;
  std::vector<Seen> seen;  // this round's responses, for publication lags

  void Append(OpenResult other) {
    planned += other.planned;
    sent += other.sent;
    ok += other.ok;
    failed += other.failed;
    shed += other.shed;
    latency_s.insert(latency_s.end(), other.latency_s.begin(),
                     other.latency_s.end());
    for (auto& w : other.window_latency_s) {
      window_latency_s.push_back(std::move(w));
    }
    lateness_s.insert(lateness_s.end(), other.lateness_s.begin(),
                      other.lateness_s.end());
  }
};

/// A job that runs beside the open loop over the same phase window
/// (REBUILD controller, fleet replay); it appends publication starts.
using SideJob = std::function<void(Clock::time_point start,
                                   Clock::time_point end,
                                   std::vector<PublishStart>* starts)>;

OpenResult RunOpen(uint16_t port, const Requests& requests,
                   const std::vector<uint32_t>& tiles, double rate,
                   double seconds, const SideJob& side,
                   std::vector<PublishStart>* starts) {
  OpenResult result;
  std::unique_ptr<NetClient> client = Connect(port);
  if (client == nullptr) {
    result.failed = 1;
    return result;
  }
  const uint64_t planned = static_cast<uint64_t>(rate * seconds);
  const size_t full_windows =
      static_cast<size_t>(static_cast<double>(planned) / rate);
  result.planned = planned;
  result.window_latency_s.resize(full_windows);
  result.latency_s.reserve(planned);
  result.lateness_s.reserve(planned);
  result.seen.reserve(planned);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto due = [&](uint64_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(k) / rate));
  };

  std::atomic<bool> aborted{false};
  std::thread receiver([&] {
    for (uint64_t received = 0; received < planned; ++received) {
      auto response_or = client->ReadResponse();
      if (!response_or.ok()) {
        if (!aborted.load()) {
          std::fprintf(stderr, "open loop read: %s\n",
                       response_or.status().ToString().c_str());
        }
        result.failed += planned - received;
        return;
      }
      Clock::time_point now = Clock::now();
      const NetResponse& r = response_or.value();
      uint64_t k = r.request_id;
      if (k >= planned) {
        ++result.failed;
        continue;
      }
      size_t index = k % requests.size();
      if (ValidAnnotate(r, requests[index].size())) {
        ++result.ok;
        double latency = SecondsBetween(due(k), now);
        result.latency_s.push_back(latency);
        size_t window = static_cast<size_t>(static_cast<double>(k) / rate);
        if (window < full_windows) {
          result.window_latency_s[window].push_back(latency);
        }
        result.seen.push_back(
            {SecondsBetween(start, now), tiles[index], r.snapshot_version});
      } else if (IsShed(r)) {
        ++result.shed;
      } else {
        ++result.failed;
      }
    }
  });
  std::thread side_thread;
  if (side) side_thread = std::thread([&] { side(start, end, starts); });

  std::vector<uint8_t> buf;
  for (uint64_t k = 0; k < planned; ++k) {
    std::this_thread::sleep_until(due(k));
    result.lateness_s.push_back(SecondsBetween(due(k), Clock::now()));
    buf.clear();
    csd::serve::AppendAnnotateRequest(static_cast<uint32_t>(k), 0,
                                      requests[k % requests.size()], &buf);
    if (!client->Send(buf).ok()) {
      aborted.store(true);
      shutdown(client->fd(), SHUT_RDWR);
      break;
    }
    ++result.sent;
  }
  receiver.join();
  if (side_thread.joinable()) side_thread.join();
  return result;
}

/// Publication lags: for each start, the first response from its tile at
/// or after the start whose version exceeds every version that tile had
/// shown up to the start. Starts never followed by one are `unmatched`.
std::vector<double> PublishLags(const std::vector<Seen>& seen,
                                const std::vector<PublishStart>& starts,
                                uint64_t* unmatched) {
  std::unordered_map<uint32_t, std::vector<Seen>> by_tile;
  for (const Seen& s : seen) by_tile[s.tile].push_back(s);
  for (auto& [tile, list] : by_tile) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Seen& a, const Seen& b) { return a.t < b.t; });
  }
  std::vector<double> lags;
  *unmatched = 0;
  for (const PublishStart& p : starts) {
    auto it = by_tile.find(p.tile);
    if (it == by_tile.end()) {
      ++*unmatched;
      continue;
    }
    const std::vector<Seen>& list = it->second;
    uint64_t before = 0;
    size_t i = 0;
    for (; i < list.size() && list[i].t <= p.t; ++i) {
      before = std::max(before, list[i].version);
    }
    for (; i < list.size() && list[i].version <= before; ++i) {
    }
    if (i == list.size()) {
      ++*unmatched;
    } else {
      lags.push_back(list[i].t - p.t);
    }
  }
  return lags;
}

// --------------------------------------------------------- publications

struct RebuildStats {
  uint64_t sent = 0, ok = 0, failed = 0;
};

/// One REBUILD at a time until shortly before the phase ends.
SideJob RebuildController(uint16_t port, RebuildStats* stats) {
  return [port, stats](Clock::time_point start, Clock::time_point end,
                       std::vector<PublishStart>* starts) {
    std::unique_ptr<NetClient> client = Connect(port);
    if (client == nullptr) {
      stats->failed = stats->sent = 1;
      return;
    }
    std::this_thread::sleep_until(start + std::chrono::milliseconds(100));
    std::vector<uint8_t> buf;
    for (uint32_t id = 0; Clock::now() + std::chrono::milliseconds(400) < end;
         ++id) {
      buf.clear();
      csd::serve::AppendRebuildRequest(id, &buf);
      Clock::time_point sent_at = Clock::now();
      ++stats->sent;
      if (!client->Send(buf).ok()) {
        ++stats->failed;
        return;
      }
      auto response_or = client->ReadResponse();
      if (!response_or.ok() ||
          response_or.value().type != FrameType::kTextResp) {
        ++stats->failed;
        if (!response_or.ok()) return;
        continue;
      }
      ++stats->ok;
      // The response follows the publish. One that lands at the phase's
      // very end (a slow spell of the host) leaves the probes no time to
      // see the new version, so it gives no sample.
      if (Clock::now() + std::chrono::milliseconds(20) < end) {
        starts->push_back({SecondsBetween(start, sent_at), 0});
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  };
}

struct IngestStats {
  uint64_t fixes = 0, frames = 0, acked = 0, rejected = 0;
  uint64_t stays_emitted = 0;  // by the client-side detector replica
  uint64_t stays_flushed = 0;  // closed only by the end-of-trace flush
};

/// Replays the fleet as INGEST_FIX frames (runs of one user's consecutive
/// fixes, at most 32 per frame) paced at `fix_rate`, one slice per round,
/// continuing where the previous round stopped. A replica of the server's
/// online detector marks the frame that closes each stay. Frames due in a
/// round's tail (its last quarter, at most kPublishTail) are left for the
/// next round, so every stay has time to be published while the probes
/// still run.
class FleetReplay {
 public:
  FleetReplay(uint16_t port, const csd::ReplaySet* fleet,
              const csd::shard::ShardPlan* plan, double fix_rate)
      : port_(port), fleet_(fleet), plan_(plan), fix_rate_(fix_rate) {}

  /// The side job of one open-loop round.
  SideJob Round() {
    return [this](Clock::time_point start, Clock::time_point end,
                  std::vector<PublishStart>* starts) {
      SendRound(start, end, starts);
    };
  }

  /// Closes every replica window (the server does the same when it
  /// drains) and returns the totals.
  const IngestStats& Finish() {
    std::vector<StayPoint> emitted;
    for (auto& [user, detector] : replica_) {
      detector.Flush(&emitted);
    }
    stats_.stays_flushed += emitted.size();
    return stats_;
  }

 private:
  static constexpr auto kPublishTail = std::chrono::milliseconds(1500);

  void SendRound(Clock::time_point start, Clock::time_point end,
                 std::vector<PublishStart>* starts) {
    struct Frame {
      uint32_t user;
      size_t first, count;
    };
    const size_t first = next_fix_;
    const auto tail = std::min<Clock::duration>(kPublishTail, (end - start) / 4);
    const size_t budget = static_cast<size_t>(
        SecondsBetween(start, end - tail) * fix_rate_);
    const size_t last = std::min(first + budget, fleet_->stream.size());
    std::vector<Frame> frames;
    for (size_t i = first; i < last; ++i) {
      uint32_t user = fleet_->stream[i].user_id;
      if (frames.empty() || frames.back().user != user ||
          frames.back().count == 32) {
        frames.push_back({user, i, 0});
      }
      ++frames.back().count;
    }
    next_fix_ = last;
    if (frames.empty()) return;
    std::unique_ptr<NetClient> client = Connect(port_);
    if (client == nullptr) {
      stats_.frames += frames.size();
      stats_.rejected += frames.size();
      return;
    }
    uint64_t acked = 0, rejected = 0;
    std::thread acks([&] {
      for (size_t i = 0; i < frames.size(); ++i) {
        auto response_or = client->ReadResponse();
        if (!response_or.ok()) {
          rejected += frames.size() - i;
          return;
        }
        if (response_or.value().type == FrameType::kErrorResp) {
          ++rejected;
        } else {
          ++acked;
        }
      }
    });
    std::vector<csd::GpsPoint> fixes;
    std::vector<StayPoint> emitted;
    std::vector<uint8_t> buf;
    for (const Frame& f : frames) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(f.first - first) / fix_rate_)));
      fixes.clear();
      emitted.clear();
      csd::stream::OnlineStayPointDetector& detector = replica_[f.user];
      for (size_t i = f.first; i < f.first + f.count; ++i) {
        fixes.push_back(fleet_->stream[i].fix);
        detector.Ingest(fleet_->stream[i].fix, &emitted);
      }
      buf.clear();
      csd::serve::AppendIngestFixRequest(next_id_++, f.user, fixes, &buf);
      double sent_at = SecondsBetween(start, Clock::now());
      if (!client->Send(buf).ok()) {
        shutdown(client->fd(), SHUT_RDWR);
        break;
      }
      ++stats_.frames;
      stats_.fixes += f.count;
      for (const StayPoint& stay : emitted) {
        starts->push_back(
            {sent_at, static_cast<uint32_t>(plan_->ShardOf(stay.position))});
      }
      stats_.stays_emitted += emitted.size();
    }
    acks.join();
    stats_.acked += acked;
    stats_.rejected += rejected;
  }

  uint16_t port_;
  const csd::ReplaySet* fleet_;
  const csd::shard::ShardPlan* plan_;
  double fix_rate_;
  size_t next_fix_ = 0;
  uint32_t next_id_ = 0;
  std::unordered_map<uint32_t, csd::stream::OnlineStayPointDetector> replica_;
  IngestStats stats_;
};

JsonObject SummaryJson(const Summary& s, double scale) {
  JsonObject o;
  o.Int("samples", s.count)
      .Num("p50", s.p50 * scale)
      .Num("p90", s.p90 * scale)
      .Num("p99", s.p99 * scale)
      .Num("max", s.max * scale)
      .Int("beyond_p90", s.beyond_p90)
      .Int("beyond_p99", s.beyond_p99);
  return o;
}

}  // namespace

int RunProbe(const Args& args) {
  uint16_t port = static_cast<uint16_t>(args.GetU64("port", 0));
  if (port == 0) {
    std::fprintf(stderr, "probe needs --port\n");
    return 2;
  }
  const std::vector<StayPoint> stays = {
      StayPoint(csd::Vec2{args.GetDouble("x", 0.0), args.GetDouble("y", 0.0)},
                static_cast<csd::Timestamp>(args.GetDouble("t", 0.0)))};
  std::unique_ptr<NetClient> client = Connect(port);
  if (client == nullptr) return 1;
  std::vector<uint8_t> buf;
  csd::serve::AppendAnnotateRequest(1, 0, stays, &buf);
  if (!client->Send(buf).ok()) return 1;
  auto response_or = client->ReadResponse();
  return response_or.ok() && ValidAnnotate(response_or.value(), stays.size())
             ? 0
             : 1;
}

int RunLoad(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.Get("workload"));
  std::string dir = args.Get("dir");
  uint16_t port = static_cast<uint16_t>(args.GetU64("port", 0));
  if (spec == nullptr || dir.empty() || port == 0) {
    std::fprintf(stderr, "load needs --workload, --dir and --port\n");
    return 2;
  }
  const uint64_t seed = args.GetU64("seed", 1);
  const double seconds = args.GetDouble("seconds", 10.0);

  // The oracle is built in-process over the very files the server loaded.
  auto pois_or = csd::ReadPoisCsv(dir + "/pois.csv");
  auto journeys_or = csd::ReadJourneysBinary(dir + "/trips.bin");
  if (!pois_or.ok() || !journeys_or.ok()) {
    std::fprintf(stderr, "load: cannot read the generated inputs\n");
    return 1;
  }
  std::vector<csd::Poi> pois = std::move(pois_or).value();
  std::optional<csd::shard::ShardPlan> plan;
  if (spec->shards > 0) plan = PlanFor(pois, spec->shards);
  csd::serve::SnapshotOptions oracle_options;
  oracle_options.mine_patterns = false;
  csd::serve::CsdSnapshot oracle(
      csd::serve::MakeServeDataset(pois, journeys_or.value()), oracle_options);

  Inputs inputs = MakeInputs(seed);
  size_t hot_tile =
      plan ? plan->ShardOf(FleetRegion(inputs.city.config).Center()) : 0;
  Requests requests = MakeRequests(inputs.request_pool, 1u << 15, seed,
                                   plan ? &*plan : nullptr, hot_tile);
  std::vector<uint32_t> tiles;
  for (const auto& r : requests) {
    tiles.push_back(plan ? static_cast<uint32_t>(plan->ShardOf(r[0].position))
                         : 0u);
  }
  csd::ReplaySet fleet;
  if (spec->fleet_users > 0) fleet = MakeFleet(*spec, inputs.city, seed);

  // Warm-up: fills caches and the server's pools; not measured.
  RunClosed(port, requests, kClosedConnections, kClosedInflight, 0.5, false);

  ClosedResult closed;
  OpenResult open, publish;
  std::vector<double> lags;
  uint64_t starts_total = 0, unmatched = 0;
  RebuildStats rebuilds;
  std::optional<FleetReplay> replay;
  if (spec->stream) replay.emplace(port, &fleet, &*plan, spec->fix_rate);
  const double round_s = seconds / kRounds;
  auto add_lags = [&](const OpenResult& round,
                      const std::vector<PublishStart>& starts) {
    uint64_t missed = 0;
    for (double lag : PublishLags(round.seen, starts, &missed)) {
      lags.push_back(lag);
    }
    starts_total += starts.size();
    unmatched += missed;
  };
  for (int r = 0; r < kRounds; ++r) {
    // Once the fleet's fixes land, stream-fleet serves a diagram the batch
    // oracle no longer describes; its oracle samples come from round 0.
    closed.Append(RunClosed(port, requests, kClosedConnections,
                            kClosedInflight, round_s * spec->closed_share,
                            !spec->stream || r == 0));
    std::vector<PublishStart> starts;
    if (spec->stream) {
      OpenResult round = RunOpen(port, requests, tiles, spec->open_rate,
                                 round_s * spec->open_share, replay->Round(),
                                 &starts);
      add_lags(round, starts);
      open.Append(std::move(round));
    } else {
      open.Append(RunOpen(port, requests, tiles, spec->open_rate,
                          round_s * spec->open_share, nullptr, nullptr));
      OpenResult round = RunOpen(port, requests, tiles, spec->probe_rate,
                                 round_s * spec->publish_share,
                                 RebuildController(port, &rebuilds), &starts);
      add_lags(round, starts);
      publish.Append(std::move(round));
    }
  }
  const IngestStats ingest = replay ? replay->Finish() : IngestStats{};

  size_t mismatches =
      CountOracleMismatches(oracle.recognizer(), closed.samples);
  Summary latency = Summarize(open.latency_s);
  // The tail as the median of the per-second p99s: one host stall then
  // moves one window's p99, not the run's. A window counts only when at
  // least 99 % of its requests came back.
  std::vector<double> window_p99;
  for (std::vector<double>& w : open.window_latency_s) {
    if (static_cast<double>(w.size()) >= 0.99 * spec->open_rate) {
      window_p99.push_back(Summarize(std::move(w)).p99);
    }
  }
  Summary lateness = Summarize(open.lateness_s);
  Summary lag = Summarize(lags);
  bool behind = lateness.p99 > kLateFlagSeconds || open.sent < open.planned;

  uint64_t attempted = closed.attempted + open.planned + publish.planned +
                       rebuilds.sent + ingest.frames;
  uint64_t failed = closed.failed + closed.shed + open.failed + open.shed +
                    publish.failed + publish.shed + rebuilds.failed +
                    ingest.rejected + mismatches;

  JsonObject out;
  out.Obj("closed", JsonObject()
                        .Num("qps", Summarize(closed.window_qps).p50)
                        .Num("qps_overall",
                             static_cast<double>(closed.completed) /
                                 closed.seconds)
                        .Int("completed", closed.completed)
                        .Int("windows", closed.window_qps.size())
                        .Int("connections", kClosedConnections)
                        .Int("inflight", kClosedInflight))
      .Obj("open", JsonObject()
                       .Num("rate", spec->open_rate)
                       .Int("planned", open.planned)
                       .Int("ok", open.ok)
                       .Obj("latency_ms", SummaryJson(latency, 1e3))
                       .Num("p99_windowed_ms", 1e3 * Summarize(window_p99).p50)
                       .Int("p99_windows", window_p99.size())
                       .Obj("lateness_ms", SummaryJson(lateness, 1e3))
                       .Bool("behind", behind))
      .Obj("publish", JsonObject()
                          .Str("source", spec->stream ? "fleet" : "rebuild")
                          .Int("starts", starts_total)
                          .Int("unmatched", unmatched)
                          .Obj("lag_s", SummaryJson(lag, 1.0)))
      .Obj("rebuilds", JsonObject()
                           .Int("sent", rebuilds.sent)
                           .Int("ok", rebuilds.ok))
      .Obj("ingest", JsonObject()
                         .Num("fix_rate", spec->fix_rate)
                         .Int("fixes", ingest.fixes)
                         .Int("frames", ingest.frames)
                         .Int("acked", ingest.acked)
                         .Int("stays_emitted", ingest.stays_emitted)
                         .Int("stays_flushed", ingest.stays_flushed))
      .Int("rounds", kRounds)
      .Obj("oracle", JsonObject()
                         .Int("checked", closed.samples.size())
                         .Int("mismatches", mismatches))
      .Int("attempted", attempted)
      .Int("failed", failed);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench

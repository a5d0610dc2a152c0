// perfbench_tool — the compiled half of the repository benchmark.
//
//   perfbench_tool gen      --workload W --seed N --dir D
//   perfbench_tool pipeline --dir D --patterns P [--trace 1]
//   perfbench_tool load     --workload W --seed N --dir D --port P --seconds S
//   perfbench_tool probe    --port P --x X --y Y --t T
//   perfbench_tool layers   --workload W --seed N --dir D
//
// Each subcommand prints one JSON object on stdout; perfbench/run.py
// starts the program under test and combines these into the run's result.

#include <cstdio>
#include <cstring>
#include <string>

#include "io/binary_io.h"
#include "io/dataset_io.h"
#include "tool.h"

namespace perfbench {
namespace {

/// Writes the files `csdctl` is given: the POI CSV and the training
/// journeys. Held-out stays, the fleet and the requests stay in the
/// benchmark; every later subcommand regenerates them from the seed.
int RunGen(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.Get("workload"));
  std::string dir = args.Get("dir");
  if (spec == nullptr || dir.empty()) {
    std::fprintf(stderr, "gen needs --workload and --dir\n");
    return 2;
  }
  uint64_t seed = args.GetU64("seed", 1);
  Inputs inputs = MakeInputs(seed);
  csd::Status s = csd::WritePoisCsv(dir + "/pois.csv", inputs.city.pois);
  if (s.ok()) s = csd::WriteJourneysBinary(dir + "/trips.bin", inputs.journeys);
  if (!s.ok()) {
    std::fprintf(stderr, "gen: %s\n", s.ToString().c_str());
    return 1;
  }
  const csd::StayPoint& probe = inputs.request_pool.front();
  JsonObject out;
  out.Int("pois", inputs.city.pois.size())
      .Int("journeys", inputs.journeys.size())
      .Int("request_pool", inputs.request_pool.size())
      .Num("probe_x", probe.position.x)
      .Num("probe_y", probe.position.y)
      .Num("probe_t", static_cast<double>(probe.time))
      .Str("server_flags", spec->ServerFlags())
      .Bool("stream", spec->stream);
  if (spec->fleet_users > 0) {
    csd::ReplaySet fleet = MakeFleet(*spec, inputs.city, seed);
    out.Int("fleet_users", fleet.traces.size())
        .Int("fleet_fixes", fleet.stream.size());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool gen|pipeline|load|probe|layers "
                 "--key value...\n");
    return 2;
  }
  Args args(argc, argv, 2);
  if (!args.ok()) return 2;
  if (std::strcmp(argv[1], "gen") == 0) return RunGen(args);
  if (std::strcmp(argv[1], "pipeline") == 0) return RunPipeline(args);
  if (std::strcmp(argv[1], "load") == 0) return RunLoad(args);
  if (std::strcmp(argv[1], "probe") == 0) return RunProbe(args);
  if (std::strcmp(argv[1], "layers") == 0) return RunLayers(args);
  std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
  return 2;
}

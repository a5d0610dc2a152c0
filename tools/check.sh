#!/usr/bin/env bash
# Local CI gate: sanitizer builds + tests, then a bench regression check
# against the committed BENCH_pipeline.json reference trajectory.
#
# usage: tools/check.sh [--fast] [preset ...]
#   --fast   skip the tsan pass (the slowest build); asan-ubsan + bench only
#   preset   explicit sanitizer presets to run instead of the default
#            sweep (asan-ubsan, then tsan unless --fast)
#
# Steps, per preset:
#   1. configure + build the sanitizer preset (CMakePresets.json)
#   2. ctest under the sanitizer
# then once:
#   3. build the default preset's perf_scaling + bench_diff, record a
#      fresh trajectory, and diff it against the committed baseline
#      (threshold documented in `bench_diff --help`; improvements never
#      flag, so the committed baseline only guards against sliding back)
#   4. run the serving-layer load generator (bench/serve_load), including
#      the K=4 sharded megacity phase (1M-POI tiled build, single-tile
#      rebuild, geo-routed annotation), and diff its latency/QPS
#      trajectory against the committed BENCH_serve.json. Latency
#      percentiles on a loaded box are noisier than pipeline stage
#      times, so this gate uses a 0.5 threshold: it catches a
#      serving-path collapse (2x latency, halved throughput, a
#      shard_build_speedup slide), not jitter.
#   5. run every perfbench workload for 20 s (perfbench/README.md). No
#      metric is gated; run.py exits 1 when an output check fails (an
#      annotation that disagrees with the scalar oracle, a failed or shed
#      request, an unseen REBUILD, a mine CSV that differs from the
#      in-process miner), so a wrong answer that shows only under the
#      benchmark's load is caught here.
#
# The tsan preset pass re-runs the serve tests (the suites of the
# serve_*_test binaries, the K-lane serve and store suites of
# sharded_serve_test — the serve path at every K — plus the batcher and
# serve fault suites) a second time with CSD_SERVE_STRESS=1, which
# multiplies the reader/publisher iteration counts in the snapshot
# lifecycle test — the cheap run guards every commit, the stress run is
# the one that actually hunts races. ctest names tests by gtest suite,
# not by binary, so the filter lists suites, and --no-tests=error fails
# it if it matches none.
#
# Every step's exit code is captured explicitly: a failing ctest (or
# build, or bench gate) marks the run failed but later steps still run,
# and the script exits nonzero if anything failed. Nothing here relies
# on `set -e`, which a sourced hook or conditional context can silently
# disable.
set -uo pipefail
cd "$(dirname "$0")/.."

FAST=0
PRESETS=()
for arg in "$@"; do
  case "${arg}" in
    --fast) FAST=1 ;;
    --*) echo "unknown flag: ${arg}" >&2; exit 2 ;;
    *) PRESETS+=("${arg}") ;;
  esac
done
if [ "${#PRESETS[@]}" -eq 0 ]; then
  PRESETS=(asan-ubsan)
  if [ "${FAST}" -eq 0 ]; then
    PRESETS+=(tsan)
  fi
fi

FAILURES=0
fail() {
  echo "check.sh: FAILED: $*" >&2
  FAILURES=$((FAILURES + 1))
}

step=0
total=$(( ${#PRESETS[@]} + 3 ))
for preset in "${PRESETS[@]}"; do
  step=$((step + 1))
  echo "== [${step}/${total}] sanitizer build + ctest (${preset}) =="
  if ! cmake --preset "${preset}" || ! cmake --build --preset "${preset}" -j; then
    fail "build (${preset})"
    continue  # nothing to test without a build
  fi
  if ! ctest --preset "${preset}" -j; then
    fail "ctest (${preset})"
  fi
  if [ "${preset}" = "tsan" ]; then
    echo "== serve stress pass (tsan, CSD_SERVE_STRESS=1) =="
    if ! CSD_SERVE_STRESS=1 ctest --preset tsan -j --no-tests=error \
         -R '^(CsdSnapshotTest|SnapshotStoreTest|ShardedSnapshotStoreTest|ShardedServeTest|ServeAdmissionTest|ServeServiceTest|ServeProtocolTest|ServeFaultTest|RequestBatcherTest)\.'; then
      fail "serve stress ctest (tsan)"
    fi
  fi
done

step=$((step + 1))
echo "== [${step}/${total}] bench regression check vs committed BENCH_pipeline.json =="
if cmake --preset default && \
   cmake --build --preset default -j --target perf_scaling bench_diff; then
  scratch="$(mktemp /tmp/BENCH_pipeline.XXXXXX.json)"
  trap 'rm -f "${scratch}"' EXIT
  if ! CSD_BENCH_JSON="${scratch}" ./build/bench/perf_scaling >/dev/null; then
    fail "perf_scaling run"
  elif ! ./build/tools/bench_diff BENCH_pipeline.json "${scratch}"; then
    fail "bench_diff regression gate"
  fi
else
  fail "build (default)"
fi

step=$((step + 1))
echo "== [${step}/${total}] serve bench regression check vs committed BENCH_serve.json =="
if cmake --build --preset default -j --target serve_load bench_diff; then
  serve_scratch="$(mktemp /tmp/BENCH_serve.XXXXXX.json)"
  trap 'rm -f "${scratch:-}" "${serve_scratch}"' EXIT
  if ! ./build/bench/serve_load --shards 4 --megacity --json "${serve_scratch}" >/dev/null; then
    fail "serve_load run (a failed admitted request also exits nonzero)"
  elif ! ./build/tools/bench_diff BENCH_serve.json "${serve_scratch}" 0.5; then
    fail "serve bench_diff regression gate"
  fi
  # The streaming phase writes its own file (WritePipelineJson
  # overwrites); diff it against the same committed baseline — the
  # non-stream runs report "(missing)" there, which bench_diff treats
  # as informational, and the stream run's ingest_fixes_per_sec /
  # incremental_rebuild_speedup rates are gated.
  stream_scratch="$(mktemp /tmp/BENCH_stream.XXXXXX.json)"
  trap 'rm -f "${scratch:-}" "${serve_scratch}" "${stream_scratch}"' EXIT
  if ! ./build/bench/serve_load --stream --json "${stream_scratch}" >/dev/null; then
    fail "serve_load --stream run (a failed tick also exits nonzero)"
  elif ! ./build/tools/bench_diff BENCH_serve.json "${stream_scratch}" 0.5; then
    fail "stream bench_diff regression gate"
  fi
  # Scenario gate: the smallest shipped pack runs its full phased
  # timeline in-process (annotate + ingest envelopes, chaos windows);
  # serve_load exits nonzero on any failed admitted request, the label
  # check proves the scenario run landed in the trajectory, and the
  # diff gates its per-phase rates against the committed baseline (a
  # pack new to the baseline is informational, never a regression).
  scenario_scratch="$(mktemp /tmp/BENCH_scenario.XXXXXX.json)"
  trap 'rm -f "${scratch:-}" "${serve_scratch}" "${stream_scratch}" "${scenario_scratch}"' EXIT
  if ! CSD_BENCH_POIS=6000 CSD_BENCH_AGENTS=600 CSD_BENCH_DAYS=1 \
       ./build/bench/serve_load --scenario weekend-leisure \
       --json "${scenario_scratch}" >/dev/null; then
    fail "serve_load --scenario run (a FAILED request also exits nonzero)"
  elif ! grep -q 'scenario:weekend-leisure' "${scenario_scratch}"; then
    fail "scenario run label missing from ${scenario_scratch}"
  elif ! ./build/tools/bench_diff BENCH_serve.json "${scenario_scratch}" 0.5; then
    fail "scenario bench_diff regression gate"
  fi
else
  fail "build serve_load"
fi

step=$((step + 1))
echo "== [${step}/${total}] perfbench output checks (every workload, 20 s) =="
# 14 s is the floor for a serve-annotate p99 window; 20 s leaves margin.
# run.py builds its own tree (.bench_build/) from this checkout.
if ! python3 perfbench/run.py --workload all --seconds 20 --trace 0; then
  fail "perfbench run (a wrong or failed output exits 1)"
fi

if [ "${FAILURES}" -gt 0 ]; then
  echo "check.sh: ${FAILURES} gate(s) failed" >&2
  exit 1
fi
echo "check.sh: all gates passed"

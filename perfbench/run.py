#!/usr/bin/env python3
"""Repository benchmark: runs one workload against the shipped `csdctl`.

    python3 perfbench/run.py --workload serve-annotate --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload once

The program is built from the checkout's sources into .bench_build/ (or
$CARGO_TARGET_DIR) on first use. Inputs are generated from --seed by
perfbench_tool; `csdctl` receives only the generated files. Each run:

  mine     rounds of MINE_BEST_OF `csdctl mine` runs (mine_s = median over
           rounds of each round's fastest run); every patterns CSV is
           checked against an in-process run.
  setup    `csdctl serve --listen` spawned once per round, alternating with
           the mine runs; setup_s is the median time from spawn to the first
           OK annotate response.
  load     perfbench_tool load against the last server: rounds of closed
           loop, open loop and publication (see src/load.cc).

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced pass
instead (per-layer timings in-process, server counters via --metrics-out)
and prints the per-layer metrics. The last stdout line is the result
object; the line before it records the harness shape. See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORK = ROOT / ".bench_work"
CSDCTL = BUILD / "csd" / "tools" / "csdctl"
TOOL = BUILD / "perfbench_tool"

WORKLOADS = ("serve-annotate", "stream-fleet")
# The program under test gets every core but the last, and a pool that
# wide; the load client (this script and perfbench_tool load) gets the last
# core, so the client is never starved by the server it measures.
NPROC = os.cpu_count() or 1
PROGRAM_CPUS = set(range(NPROC - 1)) if NPROC >= 4 else set(range(NPROC))
CLIENT_CPUS = {NPROC - 1} if NPROC >= 4 else set(range(NPROC))
PROGRAM_ENV = dict(os.environ, CSD_THREADS=str(len(PROGRAM_CPUS)))
# The batch job runs with a pool of one: on a shared host its wall time at
# pool width 3 varied twice as much run to run, with no median speed-up.
MINE_ENV = dict(PROGRAM_ENV, CSD_THREADS="1")
# Shares of --seconds: repeated `csdctl mine` runs and server spawns (run
# alternately, MIN_REPEATS rounds at least), then the load phases.
MINE_SHARE = 0.25
SETUP_SHARE = 0.1
LOAD_SHARE = 0.65
MIN_REPEATS = 5
MINE_BEST_OF = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "mine_s": "s",
    "annotate_qps": "req/s",
    "annotate_p50_ms": "ms",
    "annotate_p99_ms": "ms",
    "publish_lag_p50_s": "s",
    "publish_lag_p90_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """A run that cannot produce a result (build, spawn or I/O failure)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("no program sources next to perfbench/ (src/ and "
                         "CMakeLists.txt are required)")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", str(BUILD), "-j", jobs,
                "--target", "csdctl", "perfbench_tool"])


def run_logged(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"command failed ({done.returncode}): {' '.join(cmd)}")


def on_program_cpus():
    os.sched_setaffinity(0, PROGRAM_CPUS)


def tool(*args):
    """Runs one perfbench_tool subcommand; returns its JSON output. The
    in-process passes (pipeline, layers) run where the program runs."""
    program_side = args[0] in ("pipeline", "layers")
    env = {"pipeline": MINE_ENV, "layers": PROGRAM_ENV}.get(args[0])
    done = subprocess.run([str(TOOL), *map(str, args)], capture_output=True,
                          text=True, timeout=170, env=env,
                          preexec_fn=on_program_cpus if program_side else None)
    if done.returncode != 0:
        raise BenchError(f"perfbench_tool {args[0]} failed: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_annotate(port, stay):
    """One annotate request through perfbench_tool probe; True when it
    comes back OK."""
    x, y, t = stay
    done = subprocess.run([str(TOOL), "probe", "--port", str(port),
                           "--x", repr(x), "--y", repr(y), "--t", str(t)],
                          stdout=subprocess.DEVNULL, stderr=sys.stderr,
                          timeout=60)
    return done.returncode == 0


# ------------------------------------------------------------ Prometheus


def parse_prometheus(text):
    """Sums every sample of each metric name (labels folded together);
    histogram _sum/_count lines keep their suffixed names."""
    totals = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$", line)
        if not match:
            continue
        name, labels, value = match.groups()
        if name.endswith("_bucket") and labels:
            continue
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


# ---------------------------------------------------------------- server


class Server:
    """One `csdctl serve --listen` process on an ephemeral port."""

    LISTEN = re.compile(r"listening on [0-9.]+:(\d+)")

    def __init__(self, workdir, flags, metrics_out=None):
        cmd = [str(CSDCTL), "serve", "--pois", str(workdir / "pois.csv"),
               "--trips", str(workdir / "trips.bin"),
               "--listen", "127.0.0.1:0", *flags]
        if metrics_out is not None:
            cmd += ["--metrics-out", str(metrics_out)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True,
                                     env=PROGRAM_ENV,
                                     preexec_fn=on_program_cpus)
        self.watchdog = threading.Timer(170.0, self.proc.kill)
        self.watchdog.start()
        self.port = None
        self.log_lines = []
        for line in self.proc.stderr:
            self.log_lines.append(line)
            match = self.LISTEN.search(line)
            if match:
                self.port = int(match.group(1))
                break
        if self.port is None:
            self.stop()
            raise BenchError("csdctl serve exited before listening: "
                             + "".join(self.log_lines))

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self):
        """SIGINT (graceful drain), wait; returns the rest of stderr."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            _, rest = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, rest = self.proc.communicate()
        self.watchdog.cancel()
        self.log_lines.append(rest or "")
        return "".join(self.log_lines)


# ---------------------------------------------------------------- phases


def alternate(budget_s, *steps):
    """Calls the steps in turn, round after round: one warm-up round (round
    0, which the steps do not time), then until `budget_s` has passed and
    MIN_REPEATS timed rounds ran. The warm-up wakes every program core; the
    interleaving spreads every step's samples over the whole phase, so a
    slow spell of a shared host lands on all of them alike."""
    began, i = time.perf_counter(), 0
    while i <= MIN_REPEATS or time.perf_counter() - began < budget_s:
        for step in steps:
            step(i)
        i += 1


class MineRuns:
    """Repeated `csdctl mine` runs. Each round times MINE_BEST_OF runs back
    to back and keeps the fastest: a neighbour on a shared host only ever
    slows a run, so the fastest of a few is the job's own cost. Also checks
    that every patterns CSV is byte-identical."""

    def __init__(self, workdir, tag, extra=()):
        self.workdir, self.tag, self.extra = workdir, tag, extra
        self.seconds, self.outputs = [], []

    def csv(self, i):
        return self.workdir / f"mined-{self.tag}-{i}.csv"

    def run_once(self, out):
        start = time.perf_counter()
        done = subprocess.run(
            [str(CSDCTL), "mine", "--pois", str(self.workdir / "pois.csv"),
             "--trips", str(self.workdir / "trips.bin"), "--out", str(out),
             *self.extra],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=170, env=MINE_ENV, preexec_fn=on_program_cpus)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"csdctl mine failed: {done.stderr}")
        self.outputs.append(out.read_bytes())
        return elapsed

    def __call__(self, i):
        best = min(self.run_once(self.csv(i)) for _ in range(MINE_BEST_OF))
        if i > 0:
            self.seconds.append(best)

    def identical(self):
        return bool(self.outputs) and bool(self.outputs[0]) and all(
            o == self.outputs[0] for o in self.outputs)


class SetupRuns:
    """Repeated server spawns timed to the first OK annotate; the last
    server is left running for the load phase."""

    def __init__(self, workdir, flags, probe, servers):
        self.workdir, self.flags, self.probe = workdir, flags, probe
        self.servers = servers
        self.seconds, self.spawns, self.failures, self.server = [], 0, 0, None

    def __call__(self, i):
        if self.server is not None:
            self.server.stop()
        self.server = Server(self.workdir, self.flags)
        self.servers.append(self.server)
        self.spawns += 1
        if not probe_annotate(self.server.port, self.probe):
            self.failures += 1
        elif i > 0:
            self.seconds.append(time.perf_counter() - self.server.started)


STREAM_DRAIN = re.compile(r"stream drained \((\d+) fixes, (\d+) stays, "
                          r"(\d+) late dropped, (\d+) pending\)")


def check_stream_drain(server_log, load):
    """Failures the stream-fleet drain line reveals: late-dropped fixes, and
    fix or stay totals that disagree with what the client replayed."""
    match = STREAM_DRAIN.search(server_log)
    if not match:
        return 1
    fixes, stays, late, _pending = map(int, match.groups())
    ingest = load["ingest"]
    expected_stays = ingest["stays_emitted"] + ingest["stays_flushed"]
    return late + (fixes != ingest["fixes"]) + (stays != expected_stays)


def run_load(workdir, workload, seed, seconds, server):
    return tool("load", "--workload", workload, "--seed", seed, "--dir",
                workdir, "--port", server.port, "--seconds", seconds)


def source_digest():
    """Commit of the checkout, or a digest of its sources when it is not a
    git repository."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        paths = sorted(base.rglob("*")) if base.is_dir() else [base]
        for path in paths:
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha1:" + digest.hexdigest()


def run_workload(workload, seed, seconds, trace):
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    servers = []
    try:
        return measure(workload, seed, seconds, trace, workdir, servers)
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
            server.watchdog.cancel()
        for path in sorted(workdir.glob("*")):
            path.unlink()
        workdir.rmdir()


def measure(workload, seed, seconds, trace, workdir, servers):
    shape = tool("gen", "--workload", workload, "--seed", seed, "--dir", workdir)
    probe = (shape["probe_x"], shape["probe_y"], int(shape["probe_t"]))
    flags = shape["server_flags"].split()
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "dataset": shape}

    # Mine runs alternate with the phase's other repeated step: server
    # spawns, or in the traced run the same mine job with the program's own
    # tracing on (--metrics-out), whose median difference is the tracing
    # overhead.
    mines = MineRuns(workdir, "plain")
    budget = (MINE_SHARE + SETUP_SHARE) * seconds
    if trace:
        traced = MineRuns(workdir, "traced",
                          ("--metrics-out", str(workdir / "mine.prom")))
        alternate(budget, mines, traced)
    else:
        setups = SetupRuns(workdir, flags, probe, servers)
        alternate(budget, mines, setups)
    mine_s = statistics.median(mines.seconds)
    check = tool("pipeline", "--dir", workdir, "--patterns", mines.csv(0))
    attempted = len(mines.outputs)
    failed = (not mines.identical()) + (not check["identical"])
    report["patterns"] = check["patterns"]
    report["mine_runs"] = [round(s, 6) for s in mines.seconds]

    if trace:
        layers = traced_pass(workload, seed, workdir, mines.csv(0))
        layers["trace.overhead_ratio"] = (statistics.median(traced.seconds)
                                          / mine_s)
        report["traced_pipeline"] = layers.pop("_pipeline")
        failed += layers.pop("_failed")
        metrics_out = workdir / "server.prom"
        server = Server(workdir, flags, metrics_out)
        servers.append(server)
    else:
        metrics_out = None
        server = setups.server
        setup_seconds = setups.seconds
        attempted += setups.spawns
        failed += setups.failures
        report["setup_runs"] = [round(s, 6) for s in setup_seconds]

    load_seconds = LOAD_SHARE * seconds
    load = run_load(workdir, workload, seed, load_seconds, server)
    if load["open"]["behind"]:
        # The generator, not the server, fell behind its schedule: measure
        # again on a fresh server once before flagging the run.
        log("open-loop generator fell behind; retrying the load phase once")
        server.stop()
        server = Server(workdir, flags, metrics_out)
        servers.append(server)
        load = run_load(workdir, workload, seed, load_seconds, server)
    peak_rss_mb = server.peak_rss_mb()
    server_log = server.stop()
    attempted += load["attempted"]
    failed += load["failed"] + load["publish"]["unmatched"]
    if shape["stream"]:
        failed += check_stream_drain(server_log, load)
    report["load"] = load

    if trace:
        counters = parse_prometheus(metrics_out.read_text())
        layers.update(server_counters(counters))
        report["failure_counters"] = failure_counters(counters, layers)
        failed += sum(report["failure_counters"].values())
        layers["net.overhead_ms_p50"] = (load["open"]["latency_ms"]["p50"]
                                         - layers["serve.service_p50_ms"])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_seconds) if setup_seconds else 0.0,
            "mine_s": mine_s,
            "annotate_qps": load["closed"]["qps"],
            "annotate_p50_ms": load["open"]["latency_ms"]["p50"],
            "annotate_p99_ms": load["open"]["p99_windowed_ms"],
            "publish_lag_p50_s": load["publish"]["lag_s"]["p50"],
            "publish_lag_p90_s": load["publish"]["lag_s"]["p90"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        failed += sum(1 for value in values.values() if value <= 0)
    if load["open"]["behind"]:
        # Flagged, not failed: `correct` speaks of the program's outputs.
        log("warning: the open-loop generator fell behind its schedule twice;"
            " latencies include the client's own delay")
    correct = failed == 0
    report["error_ratio"] = failed / attempted
    report["harness"] = harness_shape(flags, load)
    return report, {"correct": correct, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def harness_shape(flags, load):
    return {
        "nproc": NPROC,
        "program_cpus": sorted(PROGRAM_CPUS),
        "client_cpus": sorted(CLIENT_CPUS),
        "pool_threads": int(PROGRAM_ENV["CSD_THREADS"]),
        "mine_pool_threads": int(MINE_ENV["CSD_THREADS"]),
        "server_flags": ["--listen", "127.0.0.1:0", *flags],
        "closed_connections": load["closed"]["connections"],
        "closed_inflight": load["closed"]["inflight"],
        "open_rate_rps": load["open"]["rate"],
        "fix_rate_per_s": load["ingest"]["fix_rate"],
        "phase_shares": {"mine": MINE_SHARE, "setup": SETUP_SHARE,
                         "load": LOAD_SHARE},
        "commit": source_digest(),
    }


PER_LAYER_UNITS = {
    "io.read_pois_s": "s",
    "io.load_journeys_s": "s",
    "traj.build_db_s": "s",
    "core.popularity_s": "s",
    "core.clustering_s": "s",
    "core.purification_s": "s",
    "core.merging_s": "s",
    "core.csd_build_s": "s",
    "baseline.roi_build_s": "s",
    "core.annotate_s": "s",
    "core.annotated_stays": "count",
    "seqmine.coarse_s": "s",
    "seqmine.coarse_patterns": "count",
    "cluster.refine_s": "s",
    "cluster.refine_calls": "count",
    "cluster.fine_per_coarse": "ratio",
    "core.evaluate_s": "s",
    "miner.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "shard.stage_caches_s": "s",
    "miner.mine_patterns_s": "s",
    "serve.snapshot_build_s": "s",
    "core.kernel_us_per_stay": "us",
    "core.hit_ratio": "ratio",
    "serve.frame_codec_ns": "ns",
    "serve.service_p50_ms": "ms",
    "serve.service_p99_ms": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "net.overhead_ms_p50": "ms",
    "serve.batches": "count",
    "serve.requests_per_batch": "count",
    "stream.ingest_ns_per_fix": "ns",
    "stream.tick_s_p50": "s",
    "stream.tick_s_p90": "s",
    "serve.shard_dataset_s": "s",
    "serve.tile_rebuild_s": "s",
    "stream.shards_per_tick": "count",
    "stream.in_tile_ratio": "ratio",
    "stream.pending_stays_max": "count",
}


def traced_pass(workload, seed, workdir, reference_csv):
    """Per-layer timings: rounds of the mining pipeline (medians per
    layer), then the serving and streaming layers once."""
    layers = tool("pipeline", "--dir", workdir, "--patterns", reference_csv,
                  "--trace", 1)
    if not (layers["identical"] and layers["layers_identical"]):
        raise BenchError("traced pipeline patterns differ from csdctl mine")
    if layers["miner.coverage"] < 0.95:
        log(f"warning: traced layers cover {layers['miner.coverage']:.1%} "
            "of the in-process pipeline (< 95%)")
    layers["_pipeline"] = {"rounds": layers["rounds"],
                           "whole_s": layers["miner.whole_s"],
                           "layers_s": layers["layers_s"],
                           "unattributed_s": (layers["miner.whole_s"]
                                              - layers["layers_s"]),
                           "coverage": layers["miner.coverage"]}
    serving = tool("layers", "--workload", workload, "--seed", seed,
                   "--dir", workdir)
    layers["_failed"] = ((not serving.pop("codec_ok"))
                         + serving["stream.ingest_failures"])
    layers.update(serving)
    return layers


def server_counters(counters):
    batches = counters.get("csd_serve_batches_total", 0.0)
    count = counters.get("csd_serve_batch_size_count", 0.0)
    return {
        "serve.batches": batches,
        "serve.requests_per_batch":
            counters.get("csd_serve_batch_size_sum", 0.0) / count if count else 0.0,
    }


def failure_counters(counters, layers):
    """Server-side failure counts, each 0 in a correct run; the run adds
    them to `failed`. A server without --stream exports no stream counters;
    the traced pass's in-process replay supplies the late drops then."""
    late = counters.get("csd_stream_late_fixes_dropped_total")
    return {
        "net.shed": int(counters.get("csd_net_shed_total", 0)),
        "net.backpressure_stalls":
            int(counters.get("csd_net_backpressure_stalls_total", 0)),
        "serve.rejected": int(counters.get("csd_serve_rejected_total", 0)),
        "stream.late_dropped":
            int(late if late is not None else layers["stream.late_dropped"]),
    }


# ------------------------------------------------------------------ main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        os.sched_setaffinity(0, CLIENT_CPUS)
        if args.workload != "all":
            report, result = run_workload(args.workload, args.seed,
                                          args.seconds, args.trace)
            print(json.dumps(report, sort_keys=True))
            print(json.dumps(result))
            return 0
        all_correct = True
        for workload in WORKLOADS:
            report, result = run_workload(workload, args.seed, args.seconds,
                                          args.trace)
            all_correct &= result["correct"]
            print(f"== {workload} (correct={result['correct']}, "
                  f"failed={result['failed']}/{result['attempted']}, "
                  f"error_ratio={report['error_ratio']:.6f})")
            for name, metric in result["metrics"].items():
                print(f"  {name:28s} {metric['value']:>16.6f} {metric['unit']}")
        return 0 if all_correct else 1
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as error:
        log(f"benchmark failed: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

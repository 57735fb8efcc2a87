#!/usr/bin/env python3
"""End-to-end benchmark of the tabsketch pipeline.

    python3 perfbench/run.py --workload mine --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the library, the
`tabsketch` CLI and the `perfbench` tool into .bench_build/. Every run
sets up the whole chain (inputs, a knn daemon and a streaming daemon),
then runs the offline pipeline in-process (`mine`), a closed knn loop
against the knn daemon (`serve-knn`) and an open distance loop with
appends against the streaming daemon (`serve-stream`). The workload picks
which part gets the long measurement window and whose peak memory is
reported. Outputs are checked against in-process replays. The last stdout
line is the result JSON; --trace 1 reports the per-layer metrics instead
of the end-to-end ones and writes Chrome trace files to .bench_out/traces/.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD, "perfbench")
TABSKETCH = os.path.join(BUILD, "tabsketch", "tools", "tabsketch")

WORKLOADS = ("mine", "serve-knn", "serve-stream")
THREADS = 4
FAMILY_SEED = 42  # sketch family seed; kFamilySeed in src/common.h
SETUP_REPEATS = 3
KNN_WARMUP = 100
STREAM_WARMUP_S = 0.5
WARMUP_APPEND_HZ = 16.0  # the first appends of a fresh daemon run slow
STREAM_RATE = 8000.0  # distance requests/s of the fixed-rate window
# The fixed-rate window runs as this many back-to-back sub-windows, each on
# fresh connections (so fresh daemon handler threads); the distance
# metrics are medians over them.
STREAM_SUBWINDOWS = 4
APPEND_HZ = 4.0
SLO_P99_MS = 1.0
SLO_PROBE_S = 0.5
SLO_RESOLUTION = 1.05

END_TO_END = {
    "setup_s": "s", "pool_build_s": "s", "tile_sketch_s": "s",
    "kmeans_s": "s", "knn_p50_ms": "ms", "knn_p99_ms": "ms",
    "knn_rps": "1/s", "distance_p50_ms": "ms", "peak_rss_mb": "MB",
}

# Layer metrics of the traced run, by the part of the chain that reports
# them (see README.md for the end-to-end metric each one should move).
PER_LAYER = {
    # mine
    "rng.kernels_s": "s", "fft.pool_dense_s": "s",
    "fft.correlate.calls": "count", "core.pool_sparse_s": "s",
    "sparse.direct_kernels": "count", "sparse.fft_kernels": "count",
    "core.sketch_tiles_s": "s", "core.estimate_ns.k256": "ns",
    "cluster.kmeans_precomputed_s": "s", "cluster.kmeans_ondemand_s": "s",
    "cluster.distance_evals": "count", "cluster.iterations": "count",
    "quant.kmeans_kept_ratio": "ratio", "attributed_frac.pool_build": "ratio",
    "attributed_frac.tile_sketch": "ratio", "attributed_frac.kmeans": "ratio",
    "trace.overhead_pct": "%",
    # serve-knn
    "serve.engine_knn_ms": "ms", "core.lru.hit_ratio": "ratio",
    "core.lru.computed": "count", "core.lru.evictions": "count",
    "quant.kept_ratio": "ratio", "core.sketch_of_us": "us",
    "core.estimate_ns.k64": "ns", "quant.scan_ns_per_pair": "ns",
    "core.refine_us": "us", "quant.int8_kept_ratio": "ratio",
    "attributed_frac.knn_engine": "ratio", "serve.queue_wait_p99_ms": "ms",
    # serve-stream
    "serve.engine_distance_us": "us", "serve.hop_us": "us",
    "serve.ingest_append_ms": "ms", "table.read_piece_ms": "ms",
    "core.growing_append_ms": "ms", "table.copy_window_ms": "ms",
    "quant.successor_ms": "ms", "attributed_frac.append": "ratio",
    "gen.lag_ms": "ms", "serve.snapshot.swaps": "count",
    "serve.distance_p99_ms": "ms", "serve.distance_p99_window_ms": "ms",
    "serve.max_rps_at_slo": "1/s",
    "serve.append_p50_ms": "ms", "serve.append_p90_ms": "ms",
}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def die(message):
    log(message)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no tabsketch sources beside perfbench/; run from a checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(THREADS),
                    "--target", "tabsketch_cli", "perfbench"],
                   check=True, stdout=sys.stderr)


class Run:
    """State of one benchmark run: its work directory, tallies, checks."""

    def __init__(self, args):
        self.args = args
        self.dir = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def tool(self, command, **flags):
        """Runs a perfbench subcommand; returns its result JSON."""
        argv = [DRIVER, command, "--dir=" + self.dir,
                "--seed=%d" % self.args.seed]
        for key, value in flags.items():
            key = key.replace("_", "-")
            argv.append("--" + key if value is True else
                        "--%s=%s" % (key, value))
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            die("%s produced no result (exit %d)" % (command, proc.returncode))
        result = json.loads(lines[-1])
        if proc.returncode != 0 or result.get("correct") is False:
            log("%s failed its output check (exit %d)"
                % (command, proc.returncode))
            self.correct = False
        self.attempted += int(result.get("attempted", 0))
        self.failed += int(result.get("failed", 0))
        return result


class Daemon:
    """A `tabsketch serve` child process on an ephemeral loopback port."""

    def __init__(self, run, name, flags):
        self.port_file = os.path.join(run.dir, name + ".port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(os.path.join(run.dir, name + ".log"), "w")
        self.proc = subprocess.Popen(
            [TABSKETCH, "serve", "--threads=%d" % THREADS,
             "--port-file=" + self.port_file] + flags,
            stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        self.port = 0
        while not self.port:
            if self.proc.poll() is not None:
                die("%s daemon exited with %d" % (name, self.proc.returncode))
            if time.monotonic() > deadline:
                self.stop()
                die("%s daemon did not start" % name)
            try:
                with open(self.port_file) as f:
                    self.port = int(f.read().strip() or 0)
            except (OSError, ValueError):
                pass
            if not self.port:
                time.sleep(0.002)

    def call(self, request, last=None):
        """One request; multi-line answers are read through line `last`."""
        with socket.create_connection(("127.0.0.1", self.port)) as conn:
            conn.sendall((request + "\n").encode())
            data = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
                text = data.decode()
                if last is None and text.endswith("\n"):
                    break
                if last is not None and text.endswith("\n" + last + "\n"):
                    break
        return data.decode()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def prom_histogram_quantile(text, name, q):
    """q-quantile (upper bucket edge) of a Prometheus histogram."""
    buckets = []
    for line in text.splitlines():
        if line.startswith(name + "_bucket{le=\""):
            edge = line.split("\"")[1]
            buckets.append((float("inf") if edge == "+Inf" else float(edge),
                            float(line.split()[-1])))
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    total = buckets[-1][1]
    for edge, count in buckets:
        if count >= q * total:
            return edge
    return buckets[-1][0]


def setup(run):
    """Inputs, both daemons up and warm. Returns (seconds, state)."""
    start = time.monotonic()
    prepared = run.tool("prepare")
    knn = Daemon(run, "knn", [
        "--table=" + os.path.join(run.dir, "knn.tbl"),
        "--tile-rows=16", "--tile-cols=144", "--p=1", "--k=64",
        "--seed=%d" % FAMILY_SEED, "--quant=int16",
        "--refine", "--cache-bytes=%d" % prepared["cache_bytes"]])
    stream = Daemon(run, "stream", [
        "--table=" + os.path.join(run.dir, "stream_seed.tbl"),
        "--tile-rows=16", "--tile-cols=144", "--p=1", "--k=64",
        "--seed=%d" % FAMILY_SEED, "--quant=int16",
        "--ingest"])
    run.tool("knn-load", port=knn.port, seconds=0, warmup=KNN_WARMUP,
             answers="knn_warm_answers.txt")
    warm = run.tool("stream-load", port=stream.port, seconds=STREAM_WARMUP_S,
                    rate=STREAM_RATE, append_hz=WARMUP_APPEND_HZ)
    return time.monotonic() - start, (prepared, knn, stream,
                                      int(warm["appends"]))


def slo_search(run, stream, append_start):
    """Highest open-loop distance rate whose p99 stays under SLO_P99_MS
    with appends running and no growing backlog; returns the throughput
    achieved at that rate and the next append index."""
    def probe(rate):
        nonlocal append_start
        result = run.tool("stream-load", port=stream.port,
                          seconds=SLO_PROBE_S, rate=rate,
                          append_hz=APPEND_HZ, append_start=append_start)
        append_start += int(result["appends"])
        ok = (result["failed"] == 0
              and result["distance_p99_ms"] < SLO_P99_MS
              and result["backlog_ms"] < SLO_P99_MS)
        return ok, result["achieved_rps"]

    rate = STREAM_RATE
    ok, achieved = probe(rate)
    best = achieved if ok else 0.0
    low, high = (rate, None) if ok else (None, rate)
    while low is None and rate > 50:
        rate /= 2
        ok, achieved = probe(rate)
        if ok:
            low, best = rate, achieved
        else:
            high = rate
    while high is None and rate < 1024000:
        rate *= 2
        ok, achieved = probe(rate)
        if ok:
            low, best = rate, achieved
        else:
            high = rate
    while low is not None and high is not None and high / low > SLO_RESOLUTION:
        rate = (low * high) ** 0.5
        ok, achieved = probe(rate)
        if ok:
            low, best = rate, achieved
        else:
            high = rate
    return best, append_start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A SIGTERM unwinds through the finally below, which stops the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build()

    run = Run(args)
    traced = args.trace == 1
    # The workload's own part of the chain measures for --seconds, the
    # others for 60% of it (enough for 1000 knn samples); the streaming
    # window always runs the full --seconds so it sees enough appends.
    phase_seconds = lambda name: (args.seconds if args.workload == name
                                  else 0.6 * args.seconds)
    daemons = []
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            seconds, state = setup(run)
            setups.append(seconds)
            daemons = list(state[1:3])
            if repeat + 1 < SETUP_REPEATS:
                for daemon in daemons:
                    daemon.stop()
                daemons = []
        prepared, knn, stream, warm_appends = state

        trace_dir = os.path.join(OUT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = lambda name: os.path.join(
            trace_dir, "%s-%s-%d.json" % (args.workload, name, args.seed))

        mine_flags = {"seconds": phase_seconds("mine")}
        if traced:
            mine_flags["trace_out"] = trace_file("mine")
        mine = run.tool("mine", **mine_flags)

        knn_run = run.tool("knn-load", port=knn.port, seconds=phase_seconds("serve-knn"),
                           skip=KNN_WARMUP)
        knn_prom = knn.call("stats prom", last="# EOF") if traced else ""
        knn_rss = knn.peak_rss_mb()
        knn.stop()
        knn_flags = {"cache_bytes": int(prepared["cache_bytes"])}
        if traced:
            knn_flags.update(trace=True, trace_out=trace_file("knn"))
        knn_check = run.tool("knn-replay", **knn_flags)

        appended = warm_appends
        append_ms = []
        fixed = []
        for _ in range(STREAM_SUBWINDOWS):
            part = run.tool("stream-load", port=stream.port,
                            seconds=args.seconds / STREAM_SUBWINDOWS,
                            rate=STREAM_RATE, append_hz=APPEND_HZ,
                            append_start=appended)
            appended += int(part["appends"])
            append_ms.extend(float(v) for v in part["append_ms"].split())
            fixed.append(part)
        stream_median = lambda key: statistics.median(p[key] for p in fixed)
        if traced:
            max_rps, appended = slo_search(run, stream, appended)
        run.tool("stream-load", port=stream.port, seconds=0, rate=1,
                 probe=True)
        stream_stats = json.loads(stream.call("stats json")) if traced else {}
        stream_rss = stream.peak_rss_mb()
        stream.stop()
        stream_flags = {"appends": appended}
        if traced:
            stream_flags["trace"] = True
        stream_check = run.tool("stream-replay", **stream_flags)
        daemons = []

        metrics = {
            "setup_s": statistics.median(setups) + mine["setup_s"],
            "pool_build_s": mine["pool_build_s"],
            "tile_sketch_s": mine["tile_sketch_s"],
            "kmeans_s": mine["kmeans_s"],
            "knn_p50_ms": knn_run["knn_p50_ms"],
            "knn_p99_ms": knn_run["knn_p99_ms"],
            "knn_rps": knn_run["knn_rps"],
            "distance_p50_ms": stream_median("distance_p50_ms"),
            "peak_rss_mb": {"mine": mine["peak_rss_mb"],
                            "serve-knn": knn_rss,
                            "serve-stream": stream_rss}[args.workload],
        }
        log("samples: knn=%d distance=%d appends=%d"
            % (knn_run["samples"], sum(p["samples"] for p in fixed),
               len(append_ms)))
        provenance = {
            "nproc": os.cpu_count(), "threads": THREADS,
            "seed": args.seed, "workload": args.workload,
            "avx2_active": mine.get("avx2_active"),
            "build_type": mine.get("build_type"),
            "metrics_compiled": mine.get("metrics_compiled"),
            "commit": git_commit(),
        }
        if traced:
            layers = {}
            for source in (mine, knn_check, stream_check):
                for key, value in source.items():
                    if "." in key:
                        layers[key] = value
            layers["serve.queue_wait_p99_ms"] = 1e3 * prom_histogram_quantile(
                knn_prom, "tabsketch_serve_request_queue_wait_seconds", 0.99)
            layers["serve.hop_us"] = (1e3 * stream_median("distance_p50_ms")
                                      - layers["serve.engine_distance_us"])
            layers["gen.lag_ms"] = stream_median("lag_p99_ms")
            layers["serve.distance_p99_ms"] = stream_median("distance_p99_ms")
            layers["serve.distance_p99_window_ms"] = stream_median(
                "distance_p99_all_ms")
            layers["serve.max_rps_at_slo"] = max_rps
            layers["serve.append_p50_ms"] = statistics.median(append_ms)
            layers["serve.append_p90_ms"] = statistics.quantiles(
                append_ms, n=10)[-1]
            layers["serve.snapshot.swaps"] = float(
                stream_stats.get("generation", 0))
            for key, value in sorted(layers.items()):
                if key.startswith("attributed_frac.") and value < 0.9:
                    log("attribution below 0.9 for stage %s: %.3f"
                        % (key.split(".", 1)[1], value))
            output = {k: {"value": layers[k], "unit": unit}
                      for k, unit in PER_LAYER.items()}
        else:
            output = {k: {"value": v, "unit": END_TO_END[k]}
                      for k, v in metrics.items()}
        print(json.dumps({"provenance": provenance}))
        print(json.dumps({"correct": run.correct,
                          "attempted": max(run.attempted, 1),
                          "failed": run.failed, "metrics": output}))
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(run.dir, ignore_errors=True)


def git_commit():
    """HEAD of the checkout, or a digest of the sources outside git."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout
    except OSError:
        head = ""
    if head.strip():
        return head.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


if __name__ == "__main__":
    main()

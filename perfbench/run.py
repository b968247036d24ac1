#!/usr/bin/env python3
"""webslice benchmark: offline scenario-to-report throughput and
resident-service query latency, with per-layer spans.

    python3 perfbench/run.py --workload paper-offline|synth-family|service-mix
                             --seed N --seconds S --trace 0|1
                             [--corrupt-oracle]

Run from the repository root. The first run configures and builds
perfbench/ (the webslice libraries, webslice-served and the
webslice-perfbench driver) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Every metric is printed by name with its unit
and sample count; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run
(offline span self times, service wire telemetry) plus the tracing
overhead, and writes the spans as a Chrome trace under
.bench_build/perfbench-out/. --corrupt-oracle flips
every expected digest, so the command must exit non-zero; it checks
that the output gate can fail. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
PAPER_SCENARIOS = ["amazon_desktop", "amazon_mobile", "bing", "maps"]
SERVICE_CLIENTS = 4
DAEMON_STARTS = 5
SERVICE_PROBE_S = 5
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "trace_bytes_per_record": "B",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "ok_share": "share",
}

PER_LAYER = {
    "scenario.run_s": "s",
    "scenario.records_per_s": "1/s",
    "trace.write_s": "s",
    "trace.decodes_per_block": "ratio",
    "trace.bytes_decoded_per_record": "B",
    "trace.sidecars_s": "s",
    "graph.cfg_s": "s",
    "graph.cdg_s": "s",
    "slicer.backward_s": "s",
    "slicer.records_per_s": "1/s",
    "slicer.peak_live_mem_bytes": "B",
    "analysis.report_s": "s",
    "analysis.report_over_backward": "ratio",
    "service.queue_ms_p50": "ms",
    "service.slice_ms_p50": "ms",
    "service.acquire_categorize_ms_p50": "ms",
    "service.wire_ms_p50": "ms",
    "service.repeat_ms_p50": "ms",
    "service.new_mode_ms_p50": "ms",
    "service.new_window_ms_p50": "ms",
    "service.plan_builds_per_query": "ratio",
    "service.memo_hit_ratio": "ratio",
    "service.session_builds": "count",
    "service.session_build_s": "s",
    "bench.untimed_share": "share",
    "bench.trace_overhead_records_per_s": "share",
    "bench.trace_overhead_query_p50_ms": "share",
}

# Chain layers timed around each public call, as span names.
CHAIN_LAYERS = ["scenario.run", "trace.write", "trace.sidecars", "graph.cfg",
                "graph.cdg", "slicer.backward", "analysis.report"]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(message):
    print(message, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Linear-interpolated percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure once, then (incrementally) build the two binaries."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("webslice sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    build_log = out.parent / "perfbench-build.log"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(build_log, "w") as sink:
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step = subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sink, stderr=subprocess.STDOUT)
            if step.returncode != 0:
                raise BenchError("cmake configure failed; see %s" % build_log)
        step = subprocess.run(
            ["cmake", "--build", str(out), "-j", jobs, "--target",
             "webslice-perfbench", "webslice-served"],
            stdout=sink, stderr=subprocess.STDOUT)
        if step.returncode != 0:
            raise BenchError("build failed; see %s" % build_log)
    return out / "webslice-perfbench", out / "tools" / "webslice-served"


def run_child(argv):
    """Run a driver subcommand; (spawn instant, parsed last line)."""
    spawned = time.monotonic()
    proc = subprocess.run([str(a) for a in argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s %s exited %d: %s" % (
            Path(argv[0]).name, argv[1], proc.returncode,
            proc.stderr.strip()[-400:]))
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message, count=1):
        self.failed += count
        self.messages.append(message)


# ---------------------------------------------------------------- offline --

class OfflineRun:
    """Passes over one scenario set; pass 0 verifies against the oracle."""

    def __init__(self, driver, work, scns, criteria, seconds, traced,
                 corrupt, tally):
        self.driver = driver
        self.work = work
        self.scns = scns
        self.criteria = criteria
        self.seconds = seconds
        self.traced = traced
        self.corrupt = corrupt
        self.tally = tally
        self.setups = []
        self.passes = []     # measured passes: (traced, result)
        self.reference = None
        self.chrome = []

    def one_pass(self, index, verify, spans, keep=False):
        # Every pass writes fresh prefixes; serve() reads a kept pass's.
        argv = [self.driver, "pass", "--out-dir", pass_dir(self.work, index),
                "--criteria", self.criteria, "--id", index,
                "--verify", int(verify), "--spans", int(spans),
                "--keep", int(keep),
                "--corrupt-oracle", int(verify and self.corrupt)]
        if spans:
            chrome = self.work / ("pass-%d.trace.json" % index)
            argv += ["--chrome-trace", chrome]
            self.chrome.append(chrome)
        argv += self.scns
        spawned, result = run_child(argv)
        self.setups.append(result["t_ready"] - spawned)
        # Each recording is one operation; it fails once however many
        # of its checks fail.
        for i, rec in enumerate(result["recordings"]):
            problems = result["failures"] + rec["failures"]
            if self.reference is not None:
                ref = self.reference["recordings"][i]
                problems += ["%s %s != verified %s" % (key, rec[key], ref[key])
                             for key in ("trace_fnv1a", "slice_fnv1a",
                                         "report_fnv1a")
                             if rec[key] != ref[key]]
            self.tally.attempted += 1
            if problems:
                self.tally.fail("pass %d: %s: %s" % (
                    index, rec["name"], "; ".join(problems)))
        return result

    def probe_setup(self):
        """Child start-up to ready (scenarios parsed), without a pass."""
        for _ in range(SETUP_PROBES):
            spawned, result = run_child(
                [self.driver, "pass", "--out-dir", self.work / "probe",
                 "--criteria", self.criteria, "--setup-only", 1] + self.scns)
            self.setups.append(result["t_ready"] - spawned)

    def run(self):
        self.probe_setup()
        # A traced run keeps pass 0's recordings for the service phase.
        self.reference = self.one_pass(0, verify=True, spans=self.traced,
                                       keep=self.traced)
        # Passes start until the deadline, so at least `seconds` are
        # measured and the last pass may run past it. A traced run
        # measures at least one traced and one untraced pass.
        deadline = time.monotonic() + self.seconds
        index = 1
        while time.monotonic() < deadline or (self.traced and index < 3):
            spans = self.traced and index % 2 == 1
            result = self.one_pass(index, verify=False, spans=spans)
            log("  pass %d%s: %d records in %.3f s" % (
                index, " (traced)" if spans else "", result["records"],
                result["wall_s"]))
            self.passes.append((spans, result))
            index += 1

    # A "query" offline is one recording: the user's request to record
    # and profile one scenario, from runScenario to the rendered report.
    def end_to_end(self):
        measured = [r for _, r in self.passes]
        walls_ms = [rec["wall_s"] * 1e3 for r in measured
                    for rec in r["recordings"]]
        latencies = query_latencies_ms(measured)
        n, q = len(measured), len(walls_ms)
        return {
            "setup_s": (median(self.setups), len(self.setups)),
            "records_per_s": (median([r["records"] / r["wall_s"]
                                      for r in measured]), n),
            "peak_rss_mb": (median([r["peak_rss_bytes"] / 2**20
                                    for r in measured]), n),
            "trace_bytes_per_record": (self.reference["trace_bytes"]
                                       / self.reference["records"], 1),
            "query_p50_ms": (percentile(latencies, 50), q),
            "query_p99_ms": (percentile(latencies, 99), q),
            "queries_per_s": (q / (sum(walls_ms) / 1e3), q),
        }

    def per_layer(self):
        traced = [r for t, r in self.passes if t] or [self.reference]
        untraced = [r for t, r in self.passes if not t]
        return chain_layers(traced, untraced)


def pass_dir(work, index):
    return work / ("pass-%d" % index)


def query_latencies_ms(results):
    """One latency per recording: the median of its wall times over the
    pass results. Every pass re-runs the same recordings, so their walls
    differ only by timing noise. A percentile over the raw walls would
    be set by single noisy passes: the p99 by the slowest pass of the
    largest recording, and on paper-offline the p50 by the gap between
    the fastest pass of amazon_desktop and the slowest of amazon_mobile."""
    per_recording = zip(*(r["recordings"] for r in results))
    return [median([rec["wall_s"] * 1e3 for rec in runs])
            for runs in per_recording]


def chain_layers(traced, untraced):
    """Per-layer metrics of the offline chain from traced pass results."""
    def med(fn):
        values = [fn(r) for r in traced]
        return (median(values), len(values))

    def layer(r, name):
        return r["self_s"].get(name, 0.0)

    def total(r, key):
        return sum(rec[key] for rec in r["recordings"])

    out = {
        "scenario.records_per_s": med(
            lambda r: r["records"] / layer(r, "scenario.run")),
        "trace.decodes_per_block": med(
            lambda r: total(r, "blocks_decoded") / total(r, "blocks")),
        "trace.bytes_decoded_per_record": med(
            lambda r: total(r, "bytes_decoded") / r["records"]),
        "slicer.records_per_s": med(
            lambda r: total(r, "records_fed") / layer(r, "slicer.backward")),
        "slicer.peak_live_mem_bytes": med(
            lambda r: max(rec["peak_live_mem_bytes"]
                          for rec in r["recordings"])),
        "analysis.report_over_backward": med(
            lambda r: layer(r, "analysis.report")
            / layer(r, "slicer.backward")),
        "bench.untimed_share": med(
            lambda r: (layer(r, "pass") + layer(r, "recording"))
            / r["wall_s"]),
    }
    for name in CHAIN_LAYERS:
        out[name + "_s"] = med(lambda r, name=name: layer(r, name))
    if untraced:
        n = len(traced) + len(untraced)

        def rps(results):
            return median([r["records"] / r["wall_s"] for r in results])

        def p50(results):
            return median(query_latencies_ms(results))
        out["bench.trace_overhead_records_per_s"] = (
            1 - rps(traced) / rps(untraced), n)
        out["bench.trace_overhead_query_p50_ms"] = (
            p50(traced) / p50(untraced) - 1, n)
    return out


def paper_scenarios(seed):
    """The four paper scenarios. They are fixed inputs: a seed-drawn
    order would make the pass's peak RSS depend on the seed through
    heap reuse, so the order is fixed too."""
    scns = [ROOT / "scenarios" / (name + ".scn") for name in PAPER_SCENARIOS]
    missing = [str(p) for p in scns if not p.is_file()]
    if missing:
        raise BenchError("missing scenarios: " + ", ".join(missing))
    log("seed %d: paper scenarios %s (fixed inputs)" % (
        seed, " ".join(p.stem for p in scns)))
    return scns


def synth_scenarios(driver, work, seed):
    _, result = run_child([driver, "generate", "--seed", seed,
                           "--out-dir", work / "scn"])
    log("seed %d: synth-family scenarios (seed, knobs, workers):" % seed)
    for entry in result["scenarios"]:
        log("  %s seed=%d %s workers=%d" % (
            Path(entry["file"]).name, entry["seed"], entry["knobs"],
            entry["workers"]))
    return [Path(entry["file"]) for entry in result["scenarios"]]


def offline(driver, served, work, workload, seed, seconds, traced, corrupt,
            tally):
    if workload == "paper-offline":
        scns, criteria = paper_scenarios(seed), "pixel"
    else:
        scns, criteria = synth_scenarios(driver, work, seed), "syscalls"
    run = OfflineRun(driver, work, scns, criteria, seconds, traced, corrupt,
                     tally)
    run.run()
    if not traced:
        return run.end_to_end(), {}, []
    # A short service phase over pass 0's recordings, so the service
    # layers are measured on this workload too.
    layers = run.per_layer()
    service = serve(driver, served, work, seed, SERVICE_PROBE_S,
                    run.reference, criteria, 1, traced, corrupt, tally)
    layers.update(service_layers(service))
    return run.end_to_end(), layers, run.chrome + [service["chrome"]]


# ---------------------------------------------------------------- service --

def frame_call(path, request, timeout=5.0):
    """One webslice-serve-v1 request/response over a Unix socket."""
    payload = json.dumps(request).encode()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(str(path))
        sock.sendall(struct.pack("<I", len(payload)) + payload)
        header = b""
        while len(header) < 4:
            chunk = sock.recv(4 - len(header))
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            header += chunk
        (length,) = struct.unpack("<I", header)
        body = b""
        while len(body) < length:
            chunk = sock.recv(length - len(body))
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            body += chunk
    return json.loads(body)


class Daemon:
    """webslice-served with the recordings preloaded; timed to ready."""

    def __init__(self, served, sock, prefixes):
        self.sock = sock
        if sock.exists():
            sock.unlink()
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [str(served), "--socket", str(sock), "--workers",
             str(os.cpu_count() or 1)]
            + [arg for p in prefixes for arg in ("--preload", str(p))],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        try:
            self.wait_ready(spawned)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def wait_ready(self, spawned):
        # "preloading P" precedes each session build and "listening"
        # follows the last one, so their spacing is the build time.
        marks, lines = [], []
        for line in self.proc.stderr:
            marks.append(time.monotonic())
            lines.append(line.strip())
            if "listening on" in line:
                break
        else:
            raise BenchError("webslice-served exited during preload: "
                             + " | ".join(lines[-3:]))
        self.session_build_s = marks[-1] - marks[0]
        self.drain = threading.Thread(target=self.proc.stderr.read,
                                      daemon=True)
        self.drain.start()
        while True:
            try:
                if frame_call(self.sock, {"op": "ping"}).get("status") == "ok":
                    break
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise BenchError("webslice-served died before answering ping")
            if time.monotonic() - spawned > CHILD_TIMEOUT_S:
                raise BenchError("webslice-served never answered ping")
            time.sleep(0.002)
        self.setup_s = time.monotonic() - spawned

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.drain.join(timeout=5)


def serve(driver, served, work, seed, seconds, recorded, criteria, starts,
          traced, corrupt, tally):
    """Serve the recordings a kept pass left: `starts` cold daemon
    starts, the last of which answers the seeded mix, then the untimed
    oracle check of every reply. Returns the measurements."""
    prefixes, expect, recordings = [], [], []
    for i, rec in enumerate(recorded["recordings"]):
        prefix = pass_dir(work, 0) / ("%d-%s" % (i, rec["name"]))
        prefixes.append(prefix)
        expect += ["--expect", "%s|%s|default=%s" % (
            prefix, criteria, rec["slice_fnv1a"])]
        recordings += ["--recording", "%s,%d,%d" % (
            prefix, rec["records"], rec["window"])]

    # Relative to the working directory every process shares, to stay
    # within the 107-byte limit of a Unix socket path.
    sock = Path(os.path.relpath(work / "served.sock"))
    replies_path = work / "replies.jsonl"
    daemons, setups, builds = [], [], []
    try:
        for _ in range(starts):
            if daemons:
                daemons[-1].stop()
            daemons.append(Daemon(served, sock, prefixes))
            setups.append(daemons[-1].setup_s)
            builds.append(daemons[-1].session_build_s)
        _, mix = run_child(
            [driver, "mix", "--socket", sock, "--seed", seed,
             "--seconds", seconds, "--clients", SERVICE_CLIENTS,
             "--replies", replies_path] + recordings)
        peak_rss = daemons[-1].peak_rss_mb()
    finally:
        for d in daemons:
            d.stop()

    tally.attempted += mix["attempted"]
    if mix["failed"]:
        tally.fail("%d queries failed, were refused or timed out"
                   % mix["failed"], mix["failed"])
    # Untimed: every reply against the in-memory oracle.
    _, check = run_child([driver, "check-mix", "--replies", replies_path,
                          "--corrupt-oracle", int(corrupt)] + expect)
    # The offline-chain digest of each recording's default window is
    # checked against the oracle too, as one more operation each.
    tally.attempted += check["offline_checked"]
    failed = check["mismatched"] + check["offline_mismatched"]
    if failed:
        tally.fail("%d replies and %d offline digests differ from the "
                   "oracle: %s" % (check["mismatched"],
                                   check["offline_mismatched"],
                                   "; ".join(check["failures"])), failed)

    with open(replies_path) as src:
        replies = [json.loads(line) for line in src]
    counts = {}
    for reply in replies:
        counts[reply["class"]] = counts.get(reply["class"], 0) + 1
    log("seed %d: service-mix classes %s over %d clients and %d "
        "recordings, %d distinct (recording, mode, window) checked" % (
            seed, " ".join("%s=%d" % kv for kv in sorted(counts.items())),
            SERVICE_CLIENTS, len(prefixes), check["distinct"]))
    chrome = None
    if traced:
        chrome = work / "mix.trace.json"
        write_service_chrome(replies, chrome)
    return {"setups": setups, "builds": builds, "peak_rss_mb": peak_rss,
            "mix": mix, "replies": [r for r in replies if r["ok"]],
            "counts": counts, "chrome": chrome}


def service_layers(service):
    """Per-layer service metrics from every reply's wire telemetry."""
    replies, mix = service["replies"], service["mix"]
    n = len(replies)

    def p50(fn, subset=replies):
        values = [fn(r) for r in subset]
        return (median(values), len(values))

    out = {
        "service.queue_ms_p50": p50(lambda r: r["queue_ms"]),
        "service.slice_ms_p50": p50(lambda r: r["slice_ms"]),
        "service.acquire_categorize_ms_p50": p50(
            lambda r: r["run_ms"] - r["slice_ms"]),
        "service.wire_ms_p50": p50(
            lambda r: r["rt_ms"] - r["queue_ms"] - r["run_ms"]),
        "service.plan_builds_per_query": (mix["plan_builds"] / n, n),
        "service.memo_hit_ratio": (mix["memo_hits"] / n, n),
        "service.session_builds": (mix["session_builds"], 1),
        "service.session_build_s": (median(service["builds"]),
                                    len(service["builds"])),
    }
    for cls in ("repeat", "new_mode", "new_window"):
        out["service.%s_ms_p50" % cls] = p50(
            lambda r: r["rt_ms"], [r for r in replies if r["class"] == cls])
    return out


def write_service_chrome(replies, dest):
    """Chrome trace of the mix from the replies' telemetry: each round
    trip with the daemon's queue, run and slice times placed inside it
    (the wire time split evenly before and after)."""
    events = []

    def span(name, start_ms, dur_ms, reply):
        events.append({"name": name, "ph": "X", "ts": start_ms * 1e3,
                       "dur": dur_ms * 1e3, "pid": 1, "tid": reply["seq"],
                       "args": {"id": reply["seq"], "class": reply["class"]}})

    for r in replies:
        if not r["ok"]:
            continue
        wire_half = max(0.0, r["rt_ms"] - r["queue_ms"] - r["run_ms"]) / 2
        queued = r["sent_ms"] + wire_half
        ran = queued + r["queue_ms"]
        span("service.query", r["sent_ms"], r["rt_ms"], r)
        span("service.queue", queued, r["queue_ms"], r)
        span("service.run", ran, r["run_ms"], r)
        span("service.slice", ran + (r["run_ms"] - r["slice_ms"]) / 2,
             r["slice_ms"], r)
    with open(dest, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


def service_mix(driver, served, work, seed, seconds, traced, corrupt, tally):
    # Set-up 1: the offline chain records the four v2 recordings the
    # daemon serves, verified against the oracle like pass 0 offline.
    setup = OfflineRun(driver, work, paper_scenarios(seed), "pixel", 0,
                       traced, corrupt, tally)
    recorded = setup.one_pass(0, verify=True, spans=traced, keep=True)
    # Set-up 2: cold daemon starts; the last one serves the mix.
    service = serve(driver, served, work, seed, seconds, recorded, "pixel",
                    DAEMON_STARTS, traced, corrupt, tally)

    replies = service["replies"]
    rt_ms = [r["rt_ms"] for r in replies]
    wall = service["mix"]["wall_s"]
    n = len(replies)
    e2e = {
        "setup_s": (median(service["setups"]), len(service["setups"])),
        "records_per_s": (sum(r["window_end"] for r in replies) / wall, n),
        "peak_rss_mb": (service["peak_rss_mb"], 1),
        "trace_bytes_per_record": (
            recorded["trace_bytes"] / recorded["records"], 1),
        "query_p50_ms": (percentile(rt_ms, 50), n),
        "query_p99_ms": (percentile(rt_ms, 99), n),
        "queries_per_s": (n / wall, n),
    }
    layers = {}
    if traced:
        layers = chain_layers([recorded], [])
        layers.update(service_layers(service))
        # The daemon runs the same code traced or not, and the client
        # builds the service spans from the replies after the loop, so
        # tracing adds nothing to a query here.
        layers["bench.trace_overhead_records_per_s"] = (0.0, n)
        layers["bench.trace_overhead_query_p50_ms"] = (0.0, n)
        setup.chrome.append(service["chrome"])
    return e2e, layers, setup.chrome


# ------------------------------------------------------------------- main --

def merge_chrome(paths, dest):
    events = []
    for pid, path in enumerate(paths, start=1):
        with open(path) as src:
            for event in json.load(src)["traceEvents"]:
                event["pid"] = pid
                events.append(event)
    dest.parent.mkdir(parents=True, exist_ok=True)
    with open(dest, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-offline", "synth-family",
                                 "service-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # SIGTERM unwinds like an error, so running children are killed and
    # the daemon is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = time.monotonic()
    try:
        driver, served = build()
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1

    work = build_dir().parent / "perfbench-work" / (
        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    traced = args.trace == 1
    try:
        if args.workload == "service-mix":
            e2e, layers, chrome = service_mix(
                driver, served, work, args.seed, args.seconds, traced,
                args.corrupt_oracle, tally)
        else:
            e2e, layers, chrome = offline(
                driver, served, work, args.workload, args.seed,
                args.seconds, traced, args.corrupt_oracle, tally)
        trace_path = None
        if traced and chrome:
            trace_path = build_dir().parent / "perfbench-out" / (
                "%s-seed%d.trace.json" % (args.workload, args.seed))
            merge_chrome(chrome, trace_path)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok_share = 1.0 - tally.failed / max(tally.attempted, 1)
    e2e["ok_share"] = (ok_share, tally.attempted)
    wanted = PER_LAYER if traced else END_TO_END
    values = layers if traced else e2e
    metrics = {}
    log("%s seed=%d seconds=%d trace=%d, run took %.1f s" % (
        args.workload, args.seed, args.seconds, args.trace,
        time.monotonic() - started))
    for name, unit in wanted.items():
        value, samples = values[name]
        metrics[name] = {"value": value, "unit": unit}
        log("  %-36s %14.6g %-6s n=%d" % (name, value, unit, samples))
    log("  failed_share = %d/%d" % (tally.failed, tally.attempted))
    for message in tally.messages[:20]:
        log("  FAILED: %s" % message)
    if trace_path:
        log("  spans: %s" % trace_path)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

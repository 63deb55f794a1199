#!/usr/bin/env python3
"""Serving benchmark for the Ensembler reproduction.

Drives the deployed serving path from outside, through public APIs only:
host processes boot from an on-disk bundle (load_bundle_bodies -> BodyHost
-> DeploymentManager -> ReactorHost), a separate client process drives them
over loopback TCP (RemoteSession or ShardRouter), and every response is
checked bit for bit against the in-proc oracle (split::CollaborativeSession).

    python3 perfbench/run.py --workload paper-lockstep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 36     # every workload, one table
    python3 perfbench/run.py --selftest                      # oracle gate + FLOP check

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# Model geometry of each deployment bundle (N = 10 bodies, P = 4 selected,
# FixedNoise sigma 0.1 at the split point, CIFAR-10 head with MaxPool).
GEOMETRY = {
    "paper": {"width": 64, "image": 32},
    "tiny": {"width": 4, "image": 16},
}

# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "paper-lockstep": {
        "geometry": "paper", "wire": "f32", "batch": 1,
        "shards": [(0, 10)], "workers": 4,
        "conns": 1, "window": 1, "rate": 0.0,
        "warmup_s": 0.5, "max_rps": 40,
    },
    "paper-batch4": {
        "geometry": "paper", "wire": "f32", "batch": 4,
        "shards": [(0, 10)], "workers": 4,
        "conns": 2, "window": 2, "rate": 0.0,
        "warmup_s": 1.5, "max_rps": 40,
    },
    "tiny-shards-q8": {
        "geometry": "tiny", "wire": "q8", "batch": 1,
        "shards": [(0, 5), (5, 5)], "workers": 2,
        "conns": 1, "window": 4, "rate": 800.0,
        "warmup_s": 1.0, "max_rps": 2000,
    },
}

WINDOWS = 21        # latency percentiles: median over up to this many windows...
WINDOW_MIN = 1000   # ...of at least this many requests each
SETUP_TRIALS = 3    # boots per run; setup_s is their median
STEAL_LIMIT = 0.10  # a measured phase with more machine time stolen is invalid...
PHASE_ATTEMPTS = 2  # ...and measured again, up to this many phases in all
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(WORK, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed, see {log_path}")


def ensure_bundle(geometry):
    path = os.path.join(WORK, "bundles", geometry)
    # The manifest is written last, so its presence marks a complete bundle.
    if not os.path.exists(os.path.join(path, "MANIFEST.ens")):
        g = GEOMETRY[geometry]
        subprocess.run([BINARY, "bundle", "--dir", path, "--width", str(g["width"]),
                        "--image", str(g["image"])], check=True)
    return path


# -------------------------------------------------------------- processes

class Child:
    """A role process whose stdout is read line by line under a deadline."""

    def __init__(self, args, log_path, stdin=False):
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self.log)
        self.pid = self.proc.pid
        self.buffer = b""

    def expect(self, prefix, deadline):
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while True:
                while b"\n" in self.buffer:
                    line, self.buffer = self.buffer.split(b"\n", 1)
                    text = line.decode()
                    if text.startswith(prefix):
                        return text
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(remaining):
                    raise BenchError(f"timed out waiting for {prefix} from pid {self.pid}")
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    raise BenchError(f"pid {self.pid} exited before {prefix} "
                                     f"(code {self.proc.wait()}), see {self.log.name}")
                self.buffer += chunk
        finally:
            sel.close()

    def send(self, line):
        self.proc.stdin.write((line + "\n").encode())
        self.proc.stdin.flush()

    def wait(self, deadline):
        try:
            code = self.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"pid {self.pid} did not exit, see {self.log.name}")
        if code != 0:
            raise BenchError(f"pid {self.pid} exited with {code}, see {self.log.name}")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


LIBC = ctypes.CDLL(None, use_errno=True)


def cpu_seconds(pid):
    """User + system time of a whole process, exited threads included, from
    its CPU-time clock: nanoseconds, where /proc/<pid>/stat counts 10 ms
    ticks (a lockstep client spends only ~25 of them in a phase)."""
    clock = ctypes.c_int()
    if LIBC.clock_getcpuclockid(pid, ctypes.byref(clock)) != 0:
        raise BenchError(f"no CPU-time clock for pid {pid}")
    return time.clock_gettime(clock.value)


def rss_peak_mb(pid):
    for line in open(f"/proc/{pid}/status"):
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cpu_steal_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    fields = [int(x) for x in open("/proc/stat").readline().split()[1:]]
    return fields[7], sum(fields[:8])


def reset_rss_peak(pid):
    # "5" resets VmHWM to the current RSS, so the peak covers the measured phase only.
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")
    except OSError as e:
        print(f"# note: cannot reset the RSS peak of pid {pid} ({e}); it covers the whole process")


class Session:
    """Host processes plus one client process, booted from the bundle."""

    def __init__(self, workload, bundle, run_dir, tag, seed, seconds, deadline,
                 setup_only=False, traced=False):
        self.w = workload
        self.dir = run_dir
        self.tag = tag
        self.deadline = deadline
        self.traced = traced
        self.hosts = []
        self.client = None
        try:
            self.setup_s = self.boot(bundle, seed, seconds, setup_only)
        except BaseException:
            self.close()
            raise

    def boot(self, bundle, seed, seconds, setup_only):
        """Starts hosts, then the client; returns seconds until a request could be sent."""
        workload, deadline, traced = self.w, self.deadline, self.traced
        start_ns = time.monotonic_ns()
        for i, (begin, count) in enumerate(workload["shards"]):
            args = [BINARY, "host", "--bundle", bundle, "--begin", str(begin),
                    "--count", str(count), "--workers", str(workload["workers"])]
            if traced:
                args += ["--spans", self.path(f"host{i}.spans")]
            self.hosts.append(Child(args, self.path(f"host{i}.log")))
        ports = [h.expect("PORT", deadline).split()[1] for h in self.hosts]
        image = GEOMETRY[workload["geometry"]]["image"]
        capacity = int(workload["max_rps"] * (seconds + 5)) + 100
        args = [BINARY, "client", "--bundle", bundle, "--ports", ",".join(ports),
                "--wire", workload["wire"], "--batch", str(workload["batch"]),
                "--image", str(image), "--conns", str(workload["conns"]),
                "--window", str(workload["window"]), "--rate", str(workload["rate"]),
                "--seconds", str(seconds), "--warmup", str(workload["warmup_s"]),
                "--seed", str(seed % (1 << 63)), "--capacity", str(capacity),
                "--out", self.path("client.json")]
        if setup_only:
            args.append("--setup-only")
        if traced:
            args += ["--spans", self.path("client.spans")]
        self.client = Child(args, self.path("client.log"), stdin=True)
        ready_ns = int(self.client.expect("READY", deadline).split()[1])
        return (ready_ns - start_ns) / 1e9

    def path(self, name):
        return os.path.join(self.dir, f"{self.tag}.{name}")

    def pids(self):
        return [h.pid for h in self.hosts], self.client.pid

    def measure(self, seconds):
        """Runs measured phases until one is valid; returns the client's
        results plus CPU/RSS of that phase."""
        self.client.expect("WARM", self.deadline)
        host_pids, client_pid = self.pids()
        pids = host_pids + [client_pid]
        for attempt in range(1, PHASE_ATTEMPTS + 1):
            cpu0 = {pid: cpu_seconds(pid) for pid in pids}
            for pid in pids:
                reset_rss_peak(pid)
            steal0 = cpu_steal_ticks()
            self.client.send("GO")
            self.client.expect("DONE", self.deadline)
            cpu1 = {pid: cpu_seconds(pid) for pid in pids}
            steal1 = cpu_steal_ticks()
            # Stolen time is the shared machine's, not the program's: a phase
            # with much of it measures the neighbours, so it is measured again.
            steal = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
            print(f"# {self.tag}: cpu steal {100 * steal:.1f}% of machine time in measured "
                  f"phase {attempt}")
            if steal <= STEAL_LIMIT:
                break
            if attempt == PHASE_ATTEMPTS:
                raise BenchError(f"invalid run: cpu steal above {100 * STEAL_LIMIT:.0f}% of "
                                 f"machine time in all {PHASE_ATTEMPTS} measured phases")
        usage = {
            "host_cpu_s": sum(cpu1[p] - cpu0[p] for p in host_pids),
            "client_cpu_s": cpu1[client_pid] - cpu0[client_pid],
            "host_rss_mb": sum(rss_peak_mb(p) for p in host_pids),
            "client_rss_mb": rss_peak_mb(client_pid),
        }
        self.client.send("STOP")
        self.client.expect("CLOSED", self.deadline)
        gauges = self.stop_hosts()
        self.client.send("CHECK")
        self.client.wait(self.deadline)
        with open(self.path("client.json")) as f:
            result = json.load(f)
        result.update(usage)
        result["gauges"] = gauges
        return result

    def stop_hosts(self):
        served = dropped = 0
        for h in self.hosts:
            h.proc.send_signal(signal.SIGTERM)
        for h in self.hosts:
            fields = h.expect("GAUGES", self.deadline).split()
            served += int(fields[1])
            dropped += int(fields[2])
            h.wait(self.deadline)
        return {"requests_served": served, "connections_dropped": dropped}

    def close(self):
        for child in self.hosts + ([self.client] if self.client else []):
            child.kill()


# ------------------------------------------------------------- statistics

def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    index = max(0, min(len(sorted_values) - 1, int(-(-q * len(sorted_values) // 1)) - 1))
    return sorted_values[index]


def latencies_ms(workload, records):
    # Closed loop: from the submit() call. Open loop: from the due time, so
    # a blocking submit() counts against the system.
    col = 3 if workload["rate"] > 0 else 5
    return sorted((r[7] - r[col]) / 1e6 for r in records if r[8] == 0)


def latency_percentile(workload, records, q):
    """Percentile q of latency: the median over up to WINDOWS consecutive
    windows of the phase, each of at least WINDOW_MIN requests, so one stall
    of the shared machine moves one window, not the run. Runs with fewer
    requests (the paper workloads) use the whole phase as one window."""
    ok = sorted((r for r in records if r[8] == 0), key=lambda r: r[5])
    k = max(1, min(WINDOWS, len(ok) // WINDOW_MIN))
    windows = [ok[i * len(ok) // k:(i + 1) * len(ok) // k] for i in range(k)]
    return statistics.median(percentile(latencies_ms(workload, w), q) for w in windows)


def check_result(workload, result, problems, need_p90=True):
    records = result["records"]
    ok = [r for r in records if r[8] == 0]
    if result["overflow"]:
        problems.append("request storage overflowed")
    if result["flop_check"]:
        problems.append("FLOP cross-check: " + result["flop_check"])
    if need_p90 and len(ok) < 100:
        print(f"# note: only {len(ok)} successful requests; p90 has fewer than 10 beyond it")
    links = len(workload["shards"])  # a request fans out to every shard, on one connection
    if records and result["uplink_bytes"] != links * result["oracle_uplink_bytes_per_req"] * len(records):
        problems.append("uplink bytes differ from the oracle's wire accounting")
    if records and result["downlink_bytes"] != result["oracle_downlink_bytes_per_req"] * len(records):
        # The hosts decide what they send back, so a differing downlink is
        # reported as measured, not failed.
        print(f"# note: downlink bytes per request {result['downlink_bytes'] / len(records):.1f} "
              f"differ from the in-proc oracle's {result['oracle_downlink_bytes_per_req']:.1f}")
    if workload["rate"] > 0:
        check_backlog(workload, records)


def check_backlog(workload, records):
    """An open-loop run is invalid if the in-flight backlog grows across the phase."""
    events = sorted([(r[3], 1) for r in records] + [(r[7], -1) for r in records])
    start, end = events[0][0], events[-1][0]
    quarter = (end - start) / 4
    samples = {0: [], 3: []}
    backlog = 0
    for t, delta in events:
        backlog += delta
        q = int((t - start) // quarter) if quarter > 0 else 0
        if q in samples:
            samples[q].append(backlog)
    first = statistics.fmean(samples[0]) if samples[0] else 0.0
    last = statistics.fmean(samples[3]) if samples[3] else 0.0
    if last > 2 * first + workload["window"]:
        raise BenchError(f"invalid run: backlog grew from {first:.1f} to {last:.1f} requests")


def end_to_end(workload, result, setup_times):
    records = result["records"]
    lat = latencies_ms(workload, records)
    ok = len(lat)
    last_ready = max(r[7] for r in records)
    phase_s = (last_ready - result["phase_start_ns"]) / 1e9
    failed = len(records) - ok
    wire = (result["uplink_bytes"] + result["downlink_bytes"]) / len(records)
    values = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": latency_percentile(workload, records, 0.50),
        "latency_p90_ms": latency_percentile(workload, records, 0.90),
        "throughput_rps": ok / phase_s,
        "success_ratio": ok / len(records),
        "wire_bytes_per_req": wire,
        "host_cpu_ms_per_req": result["host_cpu_s"] * 1e3 / ok,
        "client_cpu_ms_per_req": result["client_cpu_s"] * 1e3 / ok,
        "host_rss_peak_mb": result["host_rss_mb"],
        "client_rss_peak_mb": result["client_rss_mb"],
    }
    return values, len(records), failed


# ----------------------------------------------------------------- traces

def load_spans(path):
    spans = []
    with open(path) as f:
        header = f.readline().split()
        if int(header[1]) != 0:
            raise BenchError(f"span log {path} dropped {header[1]} spans")
        for line in f:
            kind, lane, request, seq, start, end, size = line.split()
            spans.append((kind, int(lane), int(request), int(seq), int(start), int(end), int(size)))
    return spans


def per_layer(workload, traced, untraced, session_paths):
    """Per-layer metrics of the traced phase; see perfbench/README.md for definitions."""
    records = [r for r in traced["records"] if r[8] == 0]
    n = len(records)
    t0 = traced["phase_start_ns"]
    t1 = max(r[7] for r in traced["records"])
    inside = lambda s: t0 <= s[5] <= t1  # by end: an idle recv starts before the phase
    client = [s for s in load_spans(session_paths["client"]) if inside(s)]
    bodies = [s for p in session_paths["hosts"] for s in load_spans(p) if inside(s)]
    router = len(workload["shards"]) > 1
    # Channel spans carry the wire request id; connection index is the lane,
    # except that a router's lanes are its shard links of connection 0.
    conn_of = (lambda s: 0) if router else (lambda s: s[1])
    by_key = {(r[0], r[2]): r for r in records}

    def median_dur(kind):
        d = [(s[5] - s[4]) / 1e6 for s in client if s[0] == kind]
        return statistics.median(d) if d else 0.0

    sends = [s for s in client if s[0] == "send"]
    recvs = [s for s in client if s[0] == "recv"]
    first_reply, last_reply, recv_wait = {}, {}, {}
    for s in recvs:
        key = (conn_of(s), s[2])
        r = by_key.get(key)
        if r is None:
            continue
        first_reply[key] = min(first_reply.get(key, s[5]), s[5])
        last_reply[key] = max(last_reply.get(key, s[5]), s[5])
        overlap = min(s[5], r[7]) - max(s[4], r[5])
        recv_wait[key] = recv_wait.get(key, 0) + max(0, overlap)
    noise_end = {}
    for s in client:
        if s[0] in ("head", "noise"):
            key = (s[1], s[2])
            noise_end[key] = max(noise_end.get(key, 0), s[5])

    encode_ms = traced["split.encode_ms"]
    med = lambda xs: statistics.median(xs) if xs else 0.0
    workers = workload["workers"] * len(workload["shards"])
    body_busy = sum(s[5] - s[4] for s in bodies)

    m = {}
    for b in range(8):
        m[f"nn.block{b}_ms"] = traced[f"nn.block{b}_ms"]
        m[f"nn.block{b}_gflops"] = traced[f"nn.block{b}_gflops"]
    m["nn.body_ms"] = med([(s[5] - s[4]) / 1e6 for s in bodies])
    m["nn.body_calls_per_req"] = len(bodies) / n
    m["nn.head_ms"] = median_dur("head")
    m["nn.noise_ms"] = median_dur("noise")
    m["nn.tail_ms"] = median_dur("tail")
    m["tensor.gflop_per_req"] = traced["tensor.gflop_per_req"]
    m["tensor.mbytes_per_req"] = traced["tensor.mbytes_per_req"]
    m["split.encode_ms"] = encode_ms
    m["split.decode_ms"] = traced["split.decode_ms"]
    m["split.send_ms"] = sum(s[5] - s[4] for s in sends) / 1e6 / n
    m["split.recv_wait_ms"] = sum(recv_wait.values()) / 1e6 / n
    m["split.uplink_bytes_per_req"] = sum(s[6] for s in sends) / n
    m["split.downlink_bytes_per_req"] = sum(s[6] for s in recvs) / n
    m["split.frames_per_req"] = (len(sends) + len(recvs)) / n
    m["core.selector_apply_ms"] = traced["core.selector_apply_ms"]
    m["serve.submit_ms"] = med([(r[6] - r[5]) / 1e6 for r in records])
    m["serve.window_wait_ms"] = med([max(0.0, (by_key[k][6] - noise_end[k]) / 1e6 - encode_ms)
                                     for k in by_key if k in noise_end])
    m["serve.first_reply_ms"] = med([(first_reply[k] - by_key[k][5]) / 1e6 for k in first_reply])
    m["serve.last_reply_ms"] = med([(last_reply[k] - by_key[k][5]) / 1e6 for k in last_reply])
    m["serve.finish_ms"] = med([(by_key[k][7] - last_reply[k]) / 1e6 for k in last_reply])
    m["serve.host_busy_ratio"] = body_busy / ((t1 - t0) * workers)
    m["serve.requests_served"] = traced["gauges"]["requests_served"]
    m["serve.connections_dropped"] = traced["gauges"]["connections_dropped"]
    m["serve.failovers"] = traced["failovers"]
    m["setup.build_s"] = traced["setup_build_s"]
    m["setup.load_state_s"] = traced["setup_load_state_s"]
    m["setup.prepare_s"] = traced["setup_prepare_s"]
    m["setup.handshake_ms"] = traced["handshake_ms"]
    lags = generator_lags_ms(workload, untraced["records"])
    m["bench.generator_lag_p90_ms"] = percentile(lags, 0.90)
    m["bench.generator_lag_max_ms"] = lags[-1]
    p50_traced = latency_percentile(workload, traced["records"], 0.5)
    p50_untraced = latency_percentile(workload, untraced["records"], 0.5)
    m["bench.trace_overhead_ratio"] = p50_traced / p50_untraced

    if m["split.downlink_bytes_per_req"] != traced["downlink_bytes"] / n:
        print("# note: the traced channel's downlink bytes differ from the counting channel's")
    print_anatomy(workload, records, client, bodies, traced, p50_traced, last_reply)
    return m


def generator_lags_ms(workload, records):
    """How late the generator sent: open loop, after the due time; closed
    loop, after the window slot freed."""
    if workload["rate"] > 0:
        lags = [(r[5] - r[3]) / 1e6 for r in records]
    else:
        lags = [(r[5] - r[4]) / 1e6 for r in records if r[4] > 0]
    return sorted(lags)


def print_anatomy(workload, records, client, bodies, probe, p50, last_reply):
    """Self times along the blocking path of one request at a time. Only
    exact where requests do not overlap (window 1, one connection)."""
    if workload["conns"] != 1 or workload["window"] != 1:
        print("# anatomy: requests overlap on this workload; body time is reported as "
              "aggregate busy time only")
        return
    parts = {k: [] for k in ("head", "noise", "encode", "bodies", "replies", "selector", "tail")}
    for r in records:
        key = (r[0], r[2])
        if key not in last_reply:
            continue
        own = lambda s: s[4] >= r[5] and s[5] <= r[7]
        mine = [s for s in bodies if own(s)]
        spent = lambda kind: sum(s[5] - s[4] for s in client if s[0] == kind and own(s)) / 1e6
        values = {"head": spent("head"), "noise": spent("noise"),
                  "encode": probe["split.encode_ms"],
                  "bodies": sum(s[5] - s[4] for s in mine) / 1e6,
                  "replies": (last_reply[key] - max(s[5] for s in mine)) / 1e6 if mine else 0.0,
                  "selector": probe["core.selector_apply_ms"], "tail": spent("tail")}
        for k, v in values.items():
            parts[k].append(v)
    if not parts["head"]:
        return
    total = statistics.median(map(sum, zip(*parts.values())))
    detail = " + ".join(f"{k} {statistics.median(v):.3f}" for k, v in parts.items())
    print(f"# anatomy (median ms per request): {detail} = {total:.3f} ms, "
          f"{100 * total / p50:.1f}% of traced latency_p50_ms {p50:.3f}")


# -------------------------------------------------------------------- run

def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = subprocess.run([BINARY, "env"], capture_output=True, text=True)
    print("# env " + env.stdout.strip() + f" seed={seed} workload={name}")
    if env.returncode != 0:
        raise BenchError(env.stderr.strip())
    bundle = ensure_bundle(workload["geometry"])
    run_dir = os.path.join(WORK, "runs", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    problems = []
    try:
        if not trace:
            setup_times = []
            for trial in range(SETUP_TRIALS):
                last = trial == SETUP_TRIALS - 1
                session = Session(workload, bundle, run_dir, f"t{trial}", seed, seconds,
                                  deadline, setup_only=not last)
                try:
                    setup_times.append(session.setup_s)
                    if last:
                        result = session.measure(seconds)
                    else:
                        session.client.wait(deadline)
                        session.stop_hosts()
                finally:
                    session.close()
            check_result(workload, result, problems)
            metrics, attempted, failed = end_to_end(workload, result, setup_times)
        else:
            # Same process layout twice: untraced, then with the decorators on.
            results = {}
            for tag, traced in (("plain", False), ("traced", True)):
                session = Session(workload, bundle, run_dir, tag, seed, seconds / 2, deadline,
                                  traced=traced)
                try:
                    results[tag] = session.measure(seconds / 2)
                finally:
                    session.close()
                check_result(workload, results[tag], problems, need_p90=False)
            paths = {"client": os.path.join(run_dir, "traced.client.spans"),
                     "hosts": [os.path.join(run_dir, f"traced.host{i}.spans")
                               for i in range(len(workload["shards"]))]}
            metrics = per_layer(workload, results["traced"], results["plain"], paths)
            attempted = sum(len(r["records"]) for r in results.values())
            failed = sum(1 for r in results.values() for x in r["records"] if x[8] != 0)
    except BenchError:
        for log in sorted(os.listdir(run_dir)):
            if log.endswith(".log"):
                with open(os.path.join(run_dir, log)) as f:
                    tail = f.read()[-2000:]
                if tail.strip():
                    print(f"--- {log}\n{tail}", file=sys.stderr)
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in problems:
        print("# problem: " + p)
    unit_of = units()
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }


def units():
    """Metric units, from BENCHMARK.json (the one place metrics are declared)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--selftest", action="store_true",
                        help="check the oracle gate catches one corrupted logit")
    args = parser.parse_args()
    if not (args.workload or args.all or args.selftest):
        parser.error("one of --workload, --all or --selftest is required")
    try:
        build()
        if args.selftest:
            bundle = ensure_bundle("tiny")
            return subprocess.run([BINARY, "selftest", "--bundle", bundle, "--wire", "q8",
                                   "--image", str(GEOMETRY["tiny"]["image"])]).returncode
        if args.all:
            for name in WORKLOADS:
                out = run_workload(name, args.seed, args.seconds, args.trace == 1)
                attempted, failed = out["attempted"], out["failed"]
                print(f"{name}: correct={out['correct']} attempted={attempted} failed={failed} "
                      f"failed_ratio={failed / attempted:.6f}")
                for key, metric in out["metrics"].items():
                    print(f"  {key:32s} {metric['value']:14.4f} {metric['unit']}")
            return 0
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace == 1)))
        return 0
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

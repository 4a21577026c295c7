#!/usr/bin/env python3
"""End-to-end benchmark for dynaprox.

Builds dynaprox_origin, dynaprox_proxy and the benchmark's own programs
from the checkout (into .bench_build/), then runs one workload:

  python3 perfbench/run.py --workload hot-hits --seed 1 --seconds 45 --trace 0

--trace 0 sets up six stacks in turn, each both tools over loopback
(site-shape flags only; every engine choice stays at its default), times
each set-up, then drives each proxy with perfbench_gen over the
workload's keep-alive connections: an open-loop phase at the workload's
fixed offered rate, then a closed-loop phase. It prints the end-to-end
metrics, medians over the six stacks.

--trace 1 runs perfbench_trace, the same stack built in one process with
spans at each module boundary, and prints the per-layer metrics. It warns
when the traced stack's engine choices differ from the tools' defaults.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The lines before it are a readable table and the host facts.
A wrong body or a conservation mismatch makes correct false. It exits 0
when every verdict is true, and 1 when one is false (after its result
line) or a workload could not be measured (without one). --workload all
runs every workload in turn, each printing its own table and result line.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import re
import select
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BUILD_TYPE = "RelWithDebInfo"
TARGETS = ["dynaprox_origin", "dynaprox_proxy", "perfbench_gen",
           "perfbench_trace"]

# Site shape per workload (the tools' --pages --fragments --fragment-size
# --hit-ratio --capacity; alpha is the client's Zipf skew), the sequential
# warm-up length after the one cold pass over every page, the fixed
# open-loop offered rate in requests/s, the number of keep-alive client
# connections, and how many CPUs the whole run (client and both tools) may
# use (None: all). The two workloads that insert while they serve run one
# connection: with more, the current program serves wrong bodies
# (perfbench/README.md, "Known failure"), and --connections reproduces it.
# One request in flight has no parallel work to spread over cores, and on
# one CPU its hand-offs between client, proxy and origin do not wait for
# idle virtual CPUs to wake up, so on a shared virtual machine it runs
# faster and its latency spreads less from run to run.
WORKLOADS = {
    # Table 2 site, every cacheable fragment a hit after warm-up: the
    # fixed per-request cost (ingress, upstream leg, BEM hit path).
    "hot-hits": dict(pages=10, fragments=4, fragment_size=1000,
                     hit_ratio=1.0, capacity=4096, alpha=1.0,
                     warmup_extra=2000, rate=10000, connections=4,
                     cpus=None),
    # ~4,800 cacheable fragments against 1024 BEM/DPC slots: inserts,
    # evictions and generator runs beside the reads.
    "evict-churn": dict(pages=2000, fragments=4, fragment_size=1000,
                        hit_ratio=1.0, capacity=1024, alpha=0.9,
                        warmup_extra=2000, rate=1000, connections=1,
                        cpus=1),
    # 256 KiB pages at the paper's hit ratio: per-byte work (scan,
    # splice, copies) and version churn on hot fragments.
    "large-pages": dict(pages=10, fragments=16, fragment_size=16384,
                        hit_ratio=0.8, capacity=4096, alpha=1.0,
                        warmup_extra=200, rate=300, connections=1,
                        cpus=1),
}

# A run sets up and measures several stacks in turn, each for an equal
# share of --seconds. Two stacks set up alike differ by up to a fifth in
# throughput, and a stack keeps its figure for as long as it lives (its
# long-lived server threads keep their cores), so one stack per run would
# carry that luck into the whole result. setup_s is the median set-up.
STACKS = 6
CLOSED_SHARE = 0.4   # Share of each stack's time given to the closed loop.
# Loops run in windows and metrics are medians over the windows of every
# stack, so a burst of host noise moves the windows it falls in, not the
# result. Open-loop windows hold at least 5000 requests where a stack's
# open loop is long enough, so each window's p99 has 50 beyond it.
WINDOW_S = 0.2
MIN_WINDOW_REQUESTS = 5000
START_TIMEOUT_S = 20
STOP_TIMEOUT_S = 30


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the four targets up to date."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1), "--target"] + TARGETS,
                   check=True, stdout=sys.stderr)


def binary(name):
    tools = {"dynaprox_origin", "dynaprox_proxy"}
    sub = "dynaprox_tools" if name in tools else ""
    return os.path.join(BUILD_DIR, sub, name)


def host_facts():
    commit = "unknown"
    try:
        # Never look for a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    if commit == "unknown":
        commit = "source-sha256:" + source_digest()
    with open("/proc/loadavg") as f:
        load1 = float(f.read().split()[0])
    return {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "commit": commit, "loadavg_1m": load1}


def source_digest():
    """SHA-256 over what the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path)
            for f in names if "__pycache__" not in d)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode() + b"\0")
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def shape_flags(spec, seed):
    return ["--pages=%d" % spec["pages"],
            "--fragments=%d" % spec["fragments"],
            "--fragment-size=%d" % spec["fragment_size"],
            "--hit-ratio=%s" % spec["hit_ratio"],
            "--capacity=%d" % spec["capacity"],
            "--seed=%d" % seed]


class Tool:
    """One server tool on a stdin pipe: it serves until stdin closes."""

    def __init__(self, argv, tools):
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        tools.append(self)  # Stopped by the caller even if start fails.
        self.port = self._await_listening(argv[0])

    def _await_listening(self, name):
        """Reads the bound port from the "listening on" line."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        deadline - time.monotonic())
            if not ready:
                break
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on" in line:
                address = line.split("listening on", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        raise RuntimeError("%s did not start" % os.path.basename(name))

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for pid %d" % self.proc.pid)

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


def run_json(argv, timeout):
    """Runs one of the benchmark's programs; returns (exit code, JSON)."""
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                         timeout=timeout)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed nothing (exit %d)"
                           % (os.path.basename(argv[0]), out.returncode))
    return out.returncode, json.loads(lines[-1])


def start_stack(spec, seed, tools):
    """Spawns origin then proxy; returns the set-up time in seconds."""
    start_ns = time.monotonic_ns()
    origin = Tool([binary("dynaprox_origin"), "--port=0"]
                  + shape_flags(spec, seed), tools)
    proxy = Tool([binary("dynaprox_proxy"), "--port=0",
                  "--origin-port=%d" % origin.port,
                  "--capacity=%d" % spec["capacity"]], tools)
    code, warmup = run_json(
        [binary("perfbench_gen"), "--mode=warmup",
         "--proxy-port=%d" % proxy.port, "--alpha=%s" % spec["alpha"],
         "--warmup-extra=%d" % spec["warmup_extra"]]
        + shape_flags(spec, seed), timeout=30)
    if code != 0 or warmup["attempted"] != warmup["ok"]:
        raise RuntimeError("warm-up failed: %s" % warmup)
    # perfbench_gen stamps the end with the same CLOCK_MONOTONIC.
    return (warmup["done_ns"] - start_ns) / 1e9, origin, proxy


def measure_stack(spec, seed, seconds, connections):
    """Sets up one stack and measures it for `seconds`; returns the set-up
    time, perfbench_gen's exit code and JSON, and both tools' peak RSS."""
    closed_s = seconds * CLOSED_SHARE
    open_s = seconds - closed_s
    open_window_s = max(WINDOW_S, MIN_WINDOW_REQUESTS / spec["rate"])
    tools = []
    try:
        setup_s, origin, proxy = start_stack(spec, seed, tools)
        code, raw = run_json(
            [binary("perfbench_gen"), "--mode=measure",
             "--proxy-port=%d" % proxy.port,
             "--origin-port=%d" % origin.port,
             "--proxy-pid=%d" % proxy.proc.pid,
             "--origin-pid=%d" % origin.proc.pid,
             "--threads=%d" % connections,
             "--closed-windows=%d" % max(1, round(closed_s / WINDOW_S)),
             "--open-windows=%d" % max(1, round(open_s / open_window_s)),
             "--alpha=%s" % spec["alpha"],
             "--closed-seconds=%r" % closed_s,
             "--open-seconds=%r" % open_s,
             "--rate=%r" % spec["rate"]] + shape_flags(spec, seed),
            timeout=seconds + 60)
        # Peak RSS is read before EOF, while both tools still run.
        rss = (proxy.peak_rss_mb(), origin.peak_rss_mb())
    finally:
        for tool in reversed(tools):
            tool.stop()
    return setup_s, code, raw, rss


def run_end_to_end(spec, seed, seconds, connections):
    # Each stack gets its own seed, so its site and request streams differ.
    stacks = [measure_stack(spec, seed * STACKS + i, seconds / STACKS,
                            connections) for i in range(STACKS)]
    setups = [setup_s for setup_s, _, _, _ in stacks]
    raws = [raw for _, _, raw, _ in stacks]
    phases = [raw[key] for raw in raws for key in ("prime", "closed", "open")]
    closed = [raw["closed"] for raw in raws]
    opened = [raw["open"] for raw in raws]
    attempted = sum(phase["attempted"] for phase in phases)
    failed = sum(phase[key] for phase in phases
                 for key in ("transport_errors", "http_errors",
                             "wrong_bodies"))
    timed = sum(phase["attempted"] for phase in closed + opened)
    cpu_s = sum((c["proxy_cpu_ticks"] + c["origin_cpu_ticks"])
                / c["clock_ticks_per_s"] for c in closed)
    closed_windows = [w for c in closed for w in c["windows"]]
    open_windows = [w for o in opened for w in o["windows"]]
    metrics = {
        "throughput_rps": (statistics.median(
            w["ok"] / (w["wall_ns"] / 1e9) for w in closed_windows),
            "req/s"),
        # Median open-loop window; requests are timed from their due time.
        "p50_ms": (statistics.median(
            w["p50_ns"] for w in open_windows) / 1e6, "ms"),
        "origin_bytes_per_req": (sum(
            phase["bytes_from_upstream"] for phase in closed + opened)
            / timed, "B"),
        "server_cpu_us_per_req": (
            cpu_s * 1e6 / sum(c["attempted"] for c in closed), "us"),
        "proxy_rss_mb": (statistics.median(
            rss[0] for _, _, _, rss in stacks), "MB"),
        "origin_rss_mb": (statistics.median(
            rss[1] for _, _, _, rss in stacks), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    # Two more end-to-end metrics, printed but kept out of the result
    # line: error_rate is 0 in a correct run, and p99_ms is too unsteady on
    # a shared host to gate on (perfbench/README.md).
    notes = {
        "p99_ms": (statistics.median(
            w["p99_ns"] for w in open_windows) / 1e6, "ms"),
        "error_rate": (failed / attempted, "fraction"),
        "open_loop_samples": sum(o["samples"] for o in opened),
        "open_loop_windows": len(open_windows),
        "open_loop_offered_rate": spec["rate"],
        "gen.send_lag_p99_ms": max(o["lag_p99_ns"] for o in opened) / 1e6,
        "closed_loop_requests": sum(c["attempted"] for c in closed),
        "setup_runs_s": setups,
        "violations": [v for raw in raws for v in raw["violations"]],
    }
    correct = (all(code == 0 for _, code, _, _ in stacks) and failed == 0
               and not notes["violations"])
    return correct, attempted, failed, metrics, notes, raws


PER_LAYER_UNITS = {
    "trace.client_us": "us",
    "net.ingress.self_us": "us",
    "dpc.self_us": "us",
    "net.upstream.self_us": "us",
    "appserver.self_us": "us",
    "appserver.script_us": "us",
    "appserver.script_unstaged_us": "us",
    "net.upstream.connects_per_kreq": "count",
    "net.upstream.waiter_timeouts_per_kreq": "count",
    "dpc.scan_us": "us",
    "dpc.splice_us": "us",
    "dpc.unstaged_us": "us",
    "dpc.bytes_copied_per_req": "B",
    "dpc.upstream_calls_per_req": "count",
    "dpc.recoveries_per_kreq": "count",
    "bem.lookup_us": "us",
    "bem.lookups_per_req": "count",
    "bem.policy_contentions_per_kreq": "count",
    "bem.stripe_contentions_per_kreq": "count",
    "bem.hit_ratio": "ratio",
    "bem.inserts_per_kreq": "count",
    "bem.evictions_per_kreq": "count",
    "bem.insert_races_per_kreq": "count",
    "bem.tag_emission_us": "us",
    "workload.block_exec_us": "us",
    "workload.block_execs_per_req": "count",
    "gen.send_lag_p99_ms": "ms",
    "trace.overhead_us": "us",
}


def run_traced(spec, seed, seconds, connections):
    code, raw = run_json(
        [binary("perfbench_trace"), "--alpha=%s" % spec["alpha"],
         "--warmup-extra=%d" % spec["warmup_extra"],
         "--threads=%d" % connections,
         "--rate=%r" % spec["rate"], "--seconds=%r" % seconds]
        + shape_flags(spec, seed), timeout=seconds + 90)
    metrics = {name: (raw["metrics"][name], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    self_sum = sum(raw["metrics"][name] for name in (
        "net.ingress.self_us", "dpc.self_us", "net.upstream.self_us",
        "appserver.self_us", "appserver.script_us"))
    notes = {
        "self_times_sum_us": self_sum,
        "client_minus_self_sum_us": raw["metrics"]["trace.client_us"]
        - self_sum,
        "traced_requests": raw["traced_requests"],
        "spans": raw["spans"],
        "violations": raw["violations"],
        "stack": raw["stack"],
        "stack_mismatches": stack_mismatches(raw["stack"]),
    }
    for mismatch in notes["stack_mismatches"]:
        log("perfbench: warning: " + mismatch)
    correct = code == 0 and raw["failed"] == 0 and not raw["violations"]
    return correct, raw["attempted"], raw["failed"], metrics, notes, raw


# The engine flags the traced stack mirrors, with the tools that take them.
STACK_FLAGS = [("server", "dynaprox_origin"), ("server", "dynaprox_proxy"),
               ("pool-size", "dynaprox_proxy"),
               ("streaming", "dynaprox_proxy"),
               ("block-workers", "dynaprox_origin")]


def stack_mismatches(stack):
    """Compares the traced stack with the defaults the tools' sources
    declare (flags->GetX("flag", default) in tools/<tool>.cc); a mismatch
    means perfbench/trace.cc no longer measures what the tools run."""
    found = []
    for flag, tool in STACK_FLAGS:
        with open(os.path.join(ROOT, "tools", tool + ".cc")) as f:
            match = re.search(r'Get(String|Int|Bool)\("%s"(?:, *([^)]*))?\)'
                              % re.escape(flag), f.read())
        if match is None:
            found.append("%s has no --%s default; the traced stack uses %s"
                         % (tool, flag, json.dumps(stack[flag])))
            continue
        kind, default = match.groups()
        if kind == "Bool":
            default = default == "true"
        elif kind == "Int":
            default = int(default)
        else:
            default = default.strip('"')
        if default != stack[flag]:
            found.append("%s --%s defaults to %s; the traced stack uses %s"
                         % (tool, flag, json.dumps(default),
                            json.dumps(stack[flag])))
    return found


def run_workload(name, seed, seconds, trace, facts, connections=None):
    """Runs one workload, prints its table and result line; True if the
    program's outputs were correct. `connections` overrides the
    workload's client connection count."""
    spec = WORKLOADS[name]
    connections = min(connections or spec["connections"],
                      os.cpu_count() or 1)  # At most one per core.
    runner = run_traced if trace else run_end_to_end
    allowed = os.sched_getaffinity(0)
    if spec["cpus"]:
        # Every process the run starts inherits this.
        os.sched_setaffinity(0, sorted(allowed)[-spec["cpus"]:])
    try:
        correct, attempted, failed, metrics, notes, raw = runner(
            spec, seed, seconds, connections)
    finally:
        os.sched_setaffinity(0, allowed)
    notes["connections"] = connections
    notes["cpus"] = spec["cpus"] or len(allowed)

    print("workload %s, seed %d, %gs, trace %d" % (name, seed, seconds, trace))
    for metric, (value, unit) in metrics.items():
        print("  %-38s %14.4f %s" % (metric, value, unit))
    for note, value in notes.items():
        if isinstance(value, tuple):
            print("  %-38s %14.6g %s" % (note, *value))
        elif not isinstance(value, dict):
            print("  %-38s %s" % (note, value))
    print("host: " + json.dumps(facts))

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "host": facts, "correct": correct,
              "metrics": metrics, "notes": notes, "raw": raw}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (
            name, seed, trace)), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()}}),
        flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--connections", type=int,
                        help="client connections instead of the workload's "
                        "own count (not used by BENCHMARK.json)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.connections is not None and args.connections < 1:
        parser.error("--connections must be at least 1")

    build()
    facts = host_facts()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, args.trace, facts,
                            args.connections)
               for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("perfbench: %s" % error)
        sys.exit(1)

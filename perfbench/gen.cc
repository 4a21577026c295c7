// perfbench_gen: the benchmark's load generator. Drives a running
// dynaprox_proxy (in front of a running dynaprox_origin) over loopback
// keep-alive connections, checks every response body, and brackets each
// timed phase with scrapes of both tiers' /_dynaprox/metrics.
//
//   perfbench_gen --mode=warmup --proxy-port=P --pages=10 --fragments=4
//       --fragment-size=1000 --alpha=1.0 --seed=1 --warmup-extra=2000
//   perfbench_gen --mode=measure --proxy-port=P --origin-port=O
//       --proxy-pid=N --origin-pid=M --closed-seconds=4 --open-seconds=6
//       --rate=16000 [--threads=4] [--closed-windows=8]
//       [--open-windows=12] [site-shape flags as above]
//
// Prints one JSON object of raw counts and nanosecond timings on stdout;
// perfbench/run.py turns it into the benchmark's metrics. Exits 1 when a
// response was wrong or a conservation check failed, 2 on bad flags.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"

using namespace dynaprox;
using namespace dynaprox::perfbench;

namespace {

constexpr double kPrimeSeconds = 0.25;

// utime + stime of `pid` in clock ticks, from /proc/<pid>/stat.
Result<int64_t> CpuTicks(int64_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime field 14, stime field 15.
  size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return Status::NotFound("no /proc stat for pid " + std::to_string(pid));
  }
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  int64_t utime = 0, stime = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stoll(field);
    if (index == 15) stime = std::stoll(field);
  }
  return utime + stime;
}

void WritePhase(JsonWriter& json, const PhaseResult& result) {
  json.Key("attempted").Uint(result.attempted);
  json.Key("ok").Uint(result.ok);
  json.Key("transport_errors").Uint(result.transport_errors);
  json.Key("http_errors").Uint(result.http_errors);
  json.Key("wrong_bodies").Uint(result.wrong_bodies);
  json.Key("wall_ns").Int(static_cast<int64_t>(result.seconds * 1e9));
}

// Due-time latency quantiles and generator lag of an open-loop phase.
void WriteLatencies(JsonWriter& json, PhaseResult& result) {
  json.Key("samples").Uint(result.due_ns.size());
  json.Key("p50_ns").Int(static_cast<int64_t>(Percentile(result.due_ns, 0.5)));
  json.Key("p99_ns")
      .Int(static_cast<int64_t>(Percentile(result.due_ns, 0.99)));
  json.Key("lag_p99_ns")
      .Int(static_cast<int64_t>(Percentile(result.lag_ns, 0.99)));
}

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  Result<SiteShape> shape = SiteShape::FromFlags(*flags);
  Result<int64_t> proxy_port = flags->GetInt("proxy-port", 0);
  Result<int64_t> origin_port = flags->GetInt("origin-port", 0);
  Result<int64_t> proxy_pid = flags->GetInt("proxy-pid", 0);
  Result<int64_t> origin_pid = flags->GetInt("origin-pid", 0);
  Result<int64_t> threads = flags->GetInt("threads", 4);
  Result<int64_t> warmup_extra = flags->GetInt("warmup-extra", 0);
  Result<int64_t> closed_windows_flag = flags->GetInt("closed-windows", 1);
  Result<int64_t> open_windows_flag = flags->GetInt("open-windows", 1);
  Result<double> closed_seconds = flags->GetDouble("closed-seconds", 4);
  Result<double> open_seconds = flags->GetDouble("open-seconds", 6);
  Result<double> rate = flags->GetDouble("rate", 1000);
  if (!shape.ok()) {
    std::fprintf(stderr, "%s\n", shape.status().ToString().c_str());
    return 2;
  }
  for (const auto* r : {&proxy_port, &origin_port, &proxy_pid, &origin_pid,
                        &threads, &warmup_extra, &closed_windows_flag,
                        &open_windows_flag}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  for (const auto* r : {&closed_seconds, &open_seconds, &rate}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  if (*proxy_port <= 0 || *proxy_port > 65535 || *origin_port < 0 ||
      *origin_port > 65535 || *threads < 1 || *threads > 64 ||
      *closed_windows_flag < 1 || *open_windows_flag < 1 || *rate <= 0) {
    std::fprintf(stderr,
                 "need --proxy-port, --threads in [1, 64], "
                 "--closed-windows >= 1, --open-windows >= 1, --rate > 0\n");
    return 2;
  }
  const int thread_count = static_cast<int>(*threads);
  const uint16_t port = static_cast<uint16_t>(*proxy_port);
  LoadSpec spec;
  spec.pages = shape->pages;
  spec.alpha = shape->alpha;
  spec.seed = shape->seed;
  BodyChecker checker(*shape);

  JsonWriter json;
  json.BeginObject();
  std::string mode = flags->GetString("mode", "measure");
  if (mode == "warmup") {
    PhaseResult warmup =
        RunWarmup(port, spec, checker, static_cast<int>(*warmup_extra));
    json.Key("done_ns").Int(NowNs());
    WritePhase(json, warmup);
    json.EndObject();
    std::printf("%s\n", json.TakeString().c_str());
    return warmup.failed() == 0 ? 0 : 1;
  }
  if (mode != "measure" || *origin_port <= 0 || *proxy_pid <= 0 ||
      *origin_pid <= 0) {
    std::fprintf(stderr,
                 "--mode=measure needs --origin-port, --proxy-pid and "
                 "--origin-pid\n");
    return 2;
  }
  const uint16_t oport = static_cast<uint16_t>(*origin_port);
  std::vector<std::string> violations;

  // Each loop runs as consecutive windows with their own request
  // streams; run.py reports the median window, so a burst of host noise
  // moves the windows it falls in, not the result.
  const int closed_count = static_cast<int>(*closed_windows_flag);
  const int open_count = static_cast<int>(*open_windows_flag);
  auto window_spec = [&spec](int window) {
    LoadSpec windowed = spec;
    windowed.seed = spec.seed * 1000 + static_cast<uint64_t>(window + 1);
    return windowed;
  };

  // Prime every connection (socket buffers, server threads, upstream
  // pool) before anything is timed; these requests are checked too.
  Connections connections = Connect(port, thread_count);
  PhaseResult prime =
      RunClosedLoop(connections, window_spec(-1), checker, kPrimeSeconds);

  // Open loop at the fixed offered rate: latency from the due time. It
  // runs first, before the closed loop saturates the host.
  Result<Scrapes> open_before = ScrapeBoth(port, oport);
  std::vector<PhaseResult> open_windows;
  for (int w = 0; w < open_count; ++w) {
    open_windows.push_back(RunOpenLoop(connections, window_spec(w), checker,
                                       *rate, *open_seconds / open_count));
  }
  Result<Scrapes> open_after = ScrapeBoth(port, oport);

  // Closed loop: throughput and server CPU per request.
  Result<Scrapes> closed_before = ScrapeBoth(port, oport);
  Result<int64_t> proxy_cpu_before = CpuTicks(*proxy_pid);
  Result<int64_t> origin_cpu_before = CpuTicks(*origin_pid);
  std::vector<PhaseResult> closed_windows;
  for (int w = 0; w < closed_count; ++w) {
    closed_windows.push_back(RunClosedLoop(connections,
                                           window_spec(open_count + w),
                                           checker,
                                           *closed_seconds / closed_count));
  }
  Result<int64_t> proxy_cpu_after = CpuTicks(*proxy_pid);
  Result<int64_t> origin_cpu_after = CpuTicks(*origin_pid);
  Result<Scrapes> closed_after = ScrapeBoth(port, oport);

  for (const auto* r : {&closed_before, &closed_after, &open_before,
                        &open_after}) {
    if (!r->ok()) {
      std::fprintf(stderr, "scrape failed: %s\n",
                   r->status().ToString().c_str());
      return 1;
    }
  }
  for (const auto* r : {&proxy_cpu_before, &proxy_cpu_after,
                        &origin_cpu_before, &origin_cpu_after}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 1;
    }
  }

  json.Key("threads").Int(thread_count);
  json.Key("prime").BeginObject();
  WritePhase(json, prime);
  json.EndObject();
  json.Key("closed").BeginObject();
  json.Key("windows").BeginArray();
  for (const PhaseResult& window : closed_windows) {
    json.BeginObject();
    WritePhase(json, window);
    json.EndObject();
  }
  json.EndArray();
  PhaseResult closed;
  for (PhaseResult& window : closed_windows) closed.Merge(std::move(window));
  WritePhase(json, closed);
  json.Key("proxy_cpu_ticks").Int(*proxy_cpu_after - *proxy_cpu_before);
  json.Key("origin_cpu_ticks").Int(*origin_cpu_after - *origin_cpu_before);
  json.Key("clock_ticks_per_s").Int(::sysconf(_SC_CLK_TCK));
  json.Key("bytes_from_upstream")
      .Int(static_cast<int64_t>(Delta(closed_before->proxy,
                                      closed_after->proxy,
                                      "dynaprox_bytes_from_upstream_total")));
  json.EndObject();

  json.Key("open").BeginObject();
  json.Key("offered_rate").Double(*rate);
  json.Key("windows").BeginArray();
  for (PhaseResult& window : open_windows) {
    json.BeginObject();
    WritePhase(json, window);
    WriteLatencies(json, window);
    json.EndObject();
  }
  json.EndArray();
  PhaseResult open;
  for (PhaseResult& window : open_windows) open.Merge(std::move(window));
  WritePhase(json, open);
  WriteLatencies(json, open);
  json.Key("bytes_from_upstream")
      .Int(static_cast<int64_t>(Delta(open_before->proxy, open_after->proxy,
                                      "dynaprox_bytes_from_upstream_total")));
  json.EndObject();

  CheckConservation("closed loop", *closed_before, *closed_after,
                    closed.attempted, violations);
  CheckConservation("open loop", *open_before, *open_after, open.attempted,
                    violations);
  json.Key("violations").BeginArray();
  for (const std::string& violation : violations) json.String(violation);
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.TakeString().c_str());
  return violations.empty() && prime.failed() == 0 && closed.failed() == 0 &&
                 open.failed() == 0
             ? 0
             : 1;
}

// perfbench_trace: the benchmark's traced run. Builds the dynaprox_origin
// + dynaprox_proxy stack in one process from the public classes (the same
// defaults the tools use: thread-per-connection servers, a pooled
// upstream of 8, buffered assembly, sequential blocks; printed as "stack"
// so run.py can compare them with the tools' defaults) and times the
// calls at each module boundary:
//
//   client          the full round trip, in the load generator
//   dpc.handle      a handler wrapped around DpcProxy::Handle
//   upstream.fetch  a net::Transport decorator on the pooled transport
//                   (RoundTrip, RoundTripStreaming and body pulls)
//   origin.handle   a handler wrapped around OriginServer::Handle
//   origin.script   the /page ScriptFn, re-registered around the original
//
// Spans share the request's X-DPC-Request-Id and are kept in memory until
// the run ends. A module's self time is its span time minus its child's,
// so the five self times add up to the client mean. Counts come from both
// tiers' /_dynaprox/metrics, scraped around the traced phases.
//
//   perfbench_trace --pages=10 --fragments=4 --fragment-size=1000
//       --hit-ratio=1.0 --capacity=4096 --alpha=1.0 --seed=1
//       --warmup-extra=2000 --rate=4000 --seconds=10
//
// The timed part runs untraced and traced open-loop phases at --rate (two
// of each, --seconds in total); the untraced client mean against the
// traced one is the tracing overhead. Prints one JSON object
// with the per-layer metrics; exits 1 on a wrong body or a conservation
// violation, 2 on bad flags.

#include <atomic>
#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analytical/model.h"
#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bem/protocol.h"
#include "bench_common.h"
#include "common/json.h"
#include "dpc/proxy.h"
#include "net/connection_pool.h"
#include "net/tcp.h"
#include "storage/table.h"
#include "workload/synthetic_site.h"

using namespace dynaprox;
using namespace dynaprox::perfbench;

namespace {

constexpr double kPrimeSeconds = 0.25;

enum Module : int {
  kClient,
  kDpcHandle,
  kUpstreamFetch,
  kUpstreamBody,  // Body pulls of a streamed upstream response.
  kOriginHandle,
  kOriginScript,
  kModuleCount,
};

struct Span {
  uint64_t request_id;
  Module module;
  int64_t start_ns;
  int64_t end_ns;
};

// In-memory span store: one buffer per recording thread, each behind its
// own (uncontended) mutex so Drain can run while server threads idle.
class SpanLog {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void Record(uint64_t request_id, Module module, int64_t start_ns,
              int64_t end_ns) {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
    }
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->spans.push_back({request_id, module, start_ns, end_ns});
  }

  std::vector<Span> Drain() {
    std::vector<Span> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Buffer>& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
      buffer->spans.clear();
    }
    return out;
  }

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;  // Guarded by mu.
  };
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // Guarded by mu_.
};

// The process-wide log: thread_local buffer pointers refer into it, so it
// must outlive every thread that records.
SpanLog& Log() {
  static SpanLog* log = new SpanLog();
  return *log;
}

// The benchmark's request id, or 0 for untagged traffic (scrapes, warm-up).
uint64_t RequestIdOf(const http::Request& request) {
  std::optional<std::string_view> header =
      request.headers.Get(bem::kRequestIdHeader);
  if (!header.has_value()) return 0;
  uint64_t id = 0;
  auto [end, error] =
      std::from_chars(header->data(), header->data() + header->size(), id);
  return error == std::errc() && end == header->data() + header->size()
             ? id
             : 0;
}

// Times `call()` as a `module` span of `request` when tracing is on.
template <typename Call>
auto Timed(const http::Request& request, Module module, Call&& call) {
  uint64_t id = Log().enabled() ? RequestIdOf(request) : 0;
  if (id == 0) return call();
  int64_t start = NowNs();
  auto result = call();
  Log().Record(id, module, start, NowNs());
  return result;
}

// upstream.fetch: decorates the pooled transport. Forwards the streaming
// round trip (transport.h requires decorators to) and times body pulls.
class TracingTransport : public net::Transport {
 public:
  explicit TracingTransport(net::Transport* inner) : inner_(inner) {}

  Result<http::Response> RoundTrip(const http::Request& request) override {
    return Timed(request, kUpstreamFetch,
                 [&] { return inner_->RoundTrip(request); });
  }

  Result<net::StreamingResponse> RoundTripStreaming(
      const http::Request& request) override {
    Result<net::StreamingResponse> response = Timed(
        request, kUpstreamFetch,
        [&] { return inner_->RoundTripStreaming(request); });
    uint64_t id = Log().enabled() ? RequestIdOf(request) : 0;
    if (response.ok() && id != 0) {
      response->body =
          std::make_unique<TimedBody>(std::move(response->body), id);
    }
    return response;
  }

 private:
  class TimedBody : public http::BodyStream {
   public:
    TimedBody(std::unique_ptr<http::BodyStream> inner, uint64_t id)
        : inner_(std::move(inner)), id_(id) {}

    Result<common::BufferChain> Next() override {
      int64_t start = NowNs();
      Result<common::BufferChain> chunk = inner_->Next();
      Log().Record(id_, kUpstreamBody, start, NowNs());
      return chunk;
    }

   private:
    std::unique_ptr<http::BodyStream> inner_;
    uint64_t id_;
  };

  net::Transport* inner_;
};

// Per-module span totals over one traced phase.
struct SpanTotals {
  int64_t ns[kModuleCount] = {};
  uint64_t count[kModuleCount] = {};

  void Add(const std::vector<Span>& spans) {
    for (const Span& span : spans) {
      ns[span.module] += span.end_ns - span.start_ns;
      ++count[span.module];
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  Result<SiteShape> shape = SiteShape::FromFlags(*flags);
  Result<int64_t> threads = flags->GetInt("threads", 4);
  Result<int64_t> warmup_extra = flags->GetInt("warmup-extra", 0);
  Result<double> rate = flags->GetDouble("rate", 1000);
  Result<double> seconds = flags->GetDouble("seconds", 10);
  if (!shape.ok() || !threads.ok() || !warmup_extra.ok() || !rate.ok() ||
      !seconds.ok() || *threads < 1 || *threads > 64 || *rate <= 0 ||
      *seconds <= 0) {
    std::fprintf(stderr, "bad flags (see the header of trace.cc)\n");
    return 2;
  }

  // The origin tier, as dynaprox_origin builds it.
  analytical::ModelParams params =
      analytical::ModelParams::Table2Baseline();
  params.num_pages = shape->pages;
  params.fragments_per_page = shape->fragments;
  params.fragment_size = shape->fragment_size;
  params.hit_ratio = shape->hit_ratio;
  storage::ContentRepository repository;
  appserver::ScriptRegistry scripts;
  workload::SyntheticSite site(params, shape->seed, &repository, &scripts);
  Result<const appserver::ScriptFn*> page_script = scripts.Find("/page");
  if (!page_script.ok()) {
    std::fprintf(stderr, "%s\n", page_script.status().ToString().c_str());
    return 1;
  }
  scripts.RegisterOrReplace(
      "/page", [inner = **page_script](appserver::ScriptContext& context) {
        return Timed(context.request(), kOriginScript,
                     [&] { return inner(context); });
      });

  bem::BemOptions bem_options;
  bem_options.capacity = static_cast<bem::DpcKey>(shape->capacity);
  Result<std::unique_ptr<bem::BackEndMonitor>> monitor =
      bem::BackEndMonitor::Create(bem_options);
  if (!monitor.ok()) {
    std::fprintf(stderr, "%s\n", monitor.status().ToString().c_str());
    return 1;
  }
  (*monitor)->AttachRepository(&repository);
  appserver::OriginOptions origin_options;
  origin_options.pad_headers_to_bytes =
      static_cast<size_t>(params.header_size);
  origin_options.enable_status = true;
  origin_options.enable_metrics = true;
  appserver::OriginServer origin(&scripts, &repository, monitor->get(),
                                 origin_options);
  net::TcpServer origin_server([&origin](const http::Request& request) {
    return Timed(request, kOriginHandle,
                 [&] { return origin.Handle(request); });
  });
  if (Status started = origin_server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  // The DPC tier, as dynaprox_proxy builds it.
  net::PooledTransportOptions upstream_options;
  upstream_options.pool.max_connections = 8;
  upstream_options.non_idempotent_headers = {bem::kRefreshHeader};
  net::PooledClientTransport upstream("127.0.0.1", origin_server.port(),
                                      upstream_options);
  TracingTransport traced_upstream(&upstream);
  dpc::ProxyOptions proxy_options;
  proxy_options.capacity = static_cast<bem::DpcKey>(shape->capacity);
  proxy_options.enable_status = true;
  proxy_options.enable_metrics = true;
  proxy_options.upstream_pool = &upstream.pool();
  dpc::DpcProxy proxy(&traced_upstream, proxy_options);
  net::TcpServer proxy_server([&proxy](const http::Request& request) {
    return Timed(request, kDpcHandle, [&] { return proxy.Handle(request); });
  });
  if (Status started = proxy_server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  LoadSpec spec;
  spec.pages = shape->pages;
  spec.alpha = shape->alpha;
  spec.seed = shape->seed;
  BodyChecker checker(*shape);
  PhaseResult warmup = RunWarmup(proxy_server.port(), spec, checker,
                                 static_cast<int>(*warmup_extra));
  Connections connections =
      Connect(proxy_server.port(), static_cast<int>(*threads));

  // The client span is recorded from the generator's completion hook.
  RequestHooks hooks;
  hooks.tag_request_ids = true;
  hooks.on_complete = [](uint64_t id, int64_t start_ns, int64_t end_ns) {
    if (Log().enabled()) Log().Record(id, kClient, start_ns, end_ns);
  };
  PhaseResult prime =
      RunClosedLoop(connections, spec, checker, kPrimeSeconds, hooks);

  // Untraced (U) and traced (T) phases run in the order U T T U, so a
  // drift that is linear over the run adds the same to both means. Each
  // traced phase replays the request stream of one untraced phase.
  constexpr bool kTracedPhases[] = {false, true, true, false};
  const double phase_seconds = *seconds / std::size(kTracedPhases);
  PhaseResult untraced, traced;
  SpanTotals spans;
  Series proxy_delta, origin_delta;
  std::vector<std::string> violations;
  for (size_t index = 0; index < std::size(kTracedPhases); ++index) {
    spec.seed = shape->seed + 1000 * static_cast<uint64_t>(index / 2);
    if (!kTracedPhases[index]) {
      untraced.Merge(RunOpenLoop(connections, spec, checker, *rate,
                                 phase_seconds, hooks));
      continue;
    }
    Result<Scrapes> before = ScrapeBoth(proxy_server.port(),
                                        origin_server.port());
    Log().set_enabled(true);
    PhaseResult phase =
        RunOpenLoop(connections, spec, checker, *rate, phase_seconds, hooks);
    Log().set_enabled(false);
    Result<Scrapes> after = ScrapeBoth(proxy_server.port(),
                                       origin_server.port());
    if (!before.ok() || !after.ok()) {
      std::fprintf(stderr, "metrics scrape failed\n");
      return 1;
    }
    CheckConservation("traced phase " + std::to_string(index), *before,
                      *after, phase.attempted, violations);
    for (const auto& [name, value] : after->proxy) {
      proxy_delta[name] += value - before->proxy[name];
    }
    for (const auto& [name, value] : after->origin) {
      origin_delta[name] += value - before->origin[name];
    }
    spans.Add(Log().Drain());
    traced.Merge(std::move(phase));
  }
  proxy_server.Stop();
  origin_server.Stop();

  // Everything below is a mean per traced client request.
  const double requests = static_cast<double>(traced.attempted);
  auto per_request = [requests](double total) {
    return requests > 0 ? total / requests : 0.0;
  };
  auto span_us = [&](std::initializer_list<Module> modules) {
    int64_t ns = 0;
    for (Module module : modules) ns += spans.ns[module];
    return per_request(static_cast<double>(ns)) / 1e3;
  };
  const double client_us = span_us({kClient});
  const double dpc_us = span_us({kDpcHandle});
  const double upstream_us = span_us({kUpstreamFetch, kUpstreamBody});
  const double origin_us = span_us({kOriginHandle});
  const double script_us = span_us({kOriginScript});

  auto value = [](const Series& delta, const std::string& name) {
    auto it = delta.find(name);
    return it == delta.end() ? 0.0 : it->second;
  };
  // Mean of one stage histogram's observations (seconds sum / count).
  auto stage_mean_us = [&value](const Series& delta,
                                const std::string& stage) {
    double count = value(delta, stage + "_count");
    return count > 0 ? value(delta, stage + "_sum") / count * 1e6 : 0.0;
  };
  const std::string request = "dynaprox_request_duration_seconds";
  const std::string fetch = "dynaprox_upstream_fetch_duration_seconds";
  const std::string scan = "dynaprox_scan_duration_seconds";
  const std::string splice = "dynaprox_splice_duration_seconds";
  const std::string lookup = "dynaprox_bem_directory_lookup_duration_seconds";
  const std::string exec = "dynaprox_bem_block_execution_duration_seconds";
  const std::string emit = "dynaprox_bem_tag_emission_duration_seconds";
  // DPC time outside its three stages, per DPC request.
  const double dpc_requests = value(proxy_delta, request + "_count");
  const double dpc_unstaged_us =
      dpc_requests > 0
          ? (value(proxy_delta, request + "_sum") -
             value(proxy_delta, fetch + "_sum") -
             value(proxy_delta, scan + "_sum") -
             value(proxy_delta, splice + "_sum")) /
                dpc_requests * 1e6
          : 0.0;
  const double staged_script_us =
      per_request(value(origin_delta, lookup + "_sum") +
                  value(origin_delta, exec + "_sum") +
                  value(origin_delta, emit + "_sum")) *
      1e6;
  const double hits = value(origin_delta, "dynaprox_bem_directory_hits_total");
  const double misses =
      value(origin_delta, "dynaprox_bem_directory_misses_total");
  auto origin_per_kreq = [&](const std::string& counter) {
    return per_request(value(origin_delta, counter)) * 1000;
  };

  JsonWriter json;
  json.BeginObject();
  const uint64_t failed = warmup.failed() + prime.failed() +
                          untraced.failed() + traced.failed();
  json.Key("attempted").Uint(warmup.attempted + prime.attempted +
                             untraced.attempted + traced.attempted);
  json.Key("failed").Uint(failed);
  json.Key("traced_requests").Uint(traced.attempted);
  json.Key("violations").BeginArray();
  for (const std::string& violation : violations) json.String(violation);
  json.EndArray();
  json.Key("spans").BeginObject();
  const char* names[kModuleCount] = {"client", "dpc.handle", "upstream.fetch",
                                     "upstream.body", "origin.handle",
                                     "origin.script"};
  for (int m = 0; m < kModuleCount; ++m) {
    json.Key(names[m]).BeginObject();
    json.Key("count").Uint(spans.count[m]);
    json.Key("ns").Int(spans.ns[m]);
    json.EndObject();
  }
  json.EndObject();
  // The engine choices this stack makes, named as the tools' flags.
  json.Key("stack").BeginObject();
  json.Key("server").String("threads");
  json.Key("pool-size").Int(static_cast<int64_t>(
      upstream_options.pool.max_connections));
  json.Key("streaming").Bool(proxy_options.streaming);
  json.Key("block-workers").Int(origin_options.block_workers);
  json.EndObject();
  std::vector<std::pair<std::string, double>> metrics;
  auto metric = [&metrics](const char* name, double value) {
    metrics.emplace_back(name, value);
  };
  // Module self times: parent span minus child span. They add up to
  // trace.client_us.
  metric("trace.client_us", client_us);
  metric("net.ingress.self_us", client_us - dpc_us);
  metric("dpc.self_us", dpc_us - upstream_us);
  metric("net.upstream.self_us", upstream_us - origin_us);
  metric("appserver.self_us", origin_us - script_us);
  metric("appserver.script_us", script_us);
  metric("appserver.script_unstaged_us", script_us - staged_script_us);
  auto proxy_per_kreq = [&](const std::string& counter) {
    return per_request(value(proxy_delta, counter)) * 1000;
  };
  metric("net.upstream.connects_per_kreq",
         proxy_per_kreq("dynaprox_upstream_pool_connects_total"));
  metric("net.upstream.waiter_timeouts_per_kreq",
         proxy_per_kreq("dynaprox_upstream_pool_waiter_timeouts_total"));
  metric("dpc.scan_us", stage_mean_us(proxy_delta, scan));
  metric("dpc.splice_us", stage_mean_us(proxy_delta, splice));
  metric("dpc.unstaged_us", dpc_unstaged_us);
  metric("dpc.bytes_copied_per_req",
         per_request(value(proxy_delta,
                           "dynaprox_dpc_body_bytes_copied_total")));
  metric("dpc.upstream_calls_per_req",
         per_request(static_cast<double>(spans.count[kUpstreamFetch])));
  metric("dpc.recoveries_per_kreq",
         proxy_per_kreq("dynaprox_recoveries_total"));
  metric("bem.lookup_us", stage_mean_us(origin_delta, lookup));
  metric("bem.lookups_per_req",
         per_request(value(origin_delta, lookup + "_count")));
  metric("bem.policy_contentions_per_kreq",
         origin_per_kreq("dynaprox_bem_policy_contentions_total"));
  metric("bem.stripe_contentions_per_kreq",
         origin_per_kreq("dynaprox_bem_stripe_contentions_total"));
  metric("bem.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  metric("bem.inserts_per_kreq",
         origin_per_kreq("dynaprox_bem_directory_inserts_total"));
  metric("bem.evictions_per_kreq",
         origin_per_kreq("dynaprox_bem_directory_evictions_total"));
  metric("bem.insert_races_per_kreq",
         origin_per_kreq("dynaprox_bem_insert_races_total"));
  metric("bem.tag_emission_us", stage_mean_us(origin_delta, emit));
  // Traced phases only: 0 when no block ran (every fragment hit).
  metric("workload.block_exec_us", stage_mean_us(origin_delta, exec));
  metric("workload.block_execs_per_req",
         per_request(value(origin_delta, exec + "_count")));
  metric("gen.send_lag_p99_ms", Percentile(traced.lag_ns, 0.99) / 1e6);
  metric("trace.overhead_us",
         (Mean(traced.service_ns) - Mean(untraced.service_ns)) / 1e3);
  json.EndObject();
  // JsonWriter rounds doubles to 6 digits; metrics keep all of theirs.
  std::string out = json.TakeString();
  out.pop_back();
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", metrics[i].second);
    out += (i == 0 ? "\"" : ",\"") + JsonEscape(metrics[i].first) +
           "\":" + number;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return failed > 0 || !violations.empty() ? 1 : 0;
}

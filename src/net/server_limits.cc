#include "net/server_limits.h"

#include "common/json.h"
#include "common/metrics.h"

namespace dynaprox::net {

http::Response MakeUnavailableResponse(const std::string& reason,
                                       int64_t retry_after_seconds) {
  http::Response response =
      http::Response::MakeError(503, "Service Unavailable", reason);
  response.headers.Set("Retry-After", std::to_string(retry_after_seconds));
  return response;
}

http::Response MakeShedResponse(int64_t retry_after_seconds) {
  return MakeUnavailableResponse("server over capacity, retry later",
                                 retry_after_seconds);
}

http::Response ResponseForReaderError(
    http::RequestReader::LimitViolation violation, const Status& error,
    IngressCounters& counters) {
  switch (violation) {
    case http::RequestReader::LimitViolation::kHeaderBytes:
      counters.oversize_headers.fetch_add(1, std::memory_order_relaxed);
      return http::Response::MakeError(431, "Request Header Fields Too Large",
                                       error.ToString());
    case http::RequestReader::LimitViolation::kBodyBytes:
      counters.oversize_bodies.fetch_add(1, std::memory_order_relaxed);
      return http::Response::MakeError(413, "Content Too Large",
                                       error.ToString());
    case http::RequestReader::LimitViolation::kNone:
      break;
  }
  return http::Response::MakeError(400, "Bad Request", error.ToString());
}

http::Response DispatchAdmitted(const Handler& handler,
                                const http::Request& request,
                                const ServerLimits& limits,
                                IngressCounters& counters) {
  // The admission decision reads the gauge itself, so every server
  // sharing the counters shares one max_inflight budget.
  int64_t inflight =
      counters.inflight_requests.fetch_add(1, std::memory_order_relaxed) + 1;
  http::Response response;
  if (limits.max_inflight > 0 && inflight > limits.max_inflight) {
    counters.shed_503s.fetch_add(1, std::memory_order_relaxed);
    response = MakeShedResponse(limits.retry_after_seconds);
  } else {
    response = handler(request);
  }
  counters.inflight_requests.fetch_sub(1, std::memory_order_relaxed);
  return response;
}

void RegisterIngressMetrics(metrics::Registry& registry,
                            const std::string& prefix,
                            const IngressCounters* counters) {
  auto gauge = [&](const char* name, const char* help,
                   const std::atomic<int64_t>* value) {
    registry.RegisterCallbackGauge(prefix + "ingress_" + name, help, [value] {
      return static_cast<double>(value->load(std::memory_order_relaxed));
    });
  };
  auto counter = [&](const char* name, const char* help,
                     const std::atomic<uint64_t>* value) {
    registry.RegisterCallbackCounter(
        prefix + "ingress_" + name, help,
        [value] { return value->load(std::memory_order_relaxed); });
  };
  gauge("open_connections", "Client connections currently open.",
        &counters->open_connections);
  gauge("inflight_requests", "Requests currently inside handlers.",
        &counters->inflight_requests);
  counter("accepted_total", "Client connections admitted.",
          &counters->accepted_total);
  counter("connection_limit_rejections_total",
          "Connections closed at accept by the connection cap.",
          &counters->connection_limit_rejections);
  counter("shed_503_total",
          "Requests shed with 503 + Retry-After by the in-flight cap.",
          &counters->shed_503s);
  counter("header_timeouts_total",
          "Connections dropped at the header-read deadline (slowloris).",
          &counters->header_timeouts);
  counter("idle_timeouts_total",
          "Keep-alive connections reaped at the idle deadline.",
          &counters->idle_timeouts);
  counter("write_stall_closes_total",
          "Connections dropped at the write-stall deadline.",
          &counters->write_stall_closes);
  counter("oversize_headers_total",
          "Requests rejected 431 by the header byte cap.",
          &counters->oversize_headers);
  counter("oversize_bodies_total",
          "Requests rejected 413 by the body byte cap.",
          &counters->oversize_bodies);
  counter("drained_connections_total",
          "Connections that completed during graceful drain.",
          &counters->drained_connections);
  counter("accept_fd_exhaustion_episodes_total",
          "Episodes of EMFILE/ENFILE at accept (one per sustained outage).",
          &counters->accept_fd_exhaustion_episodes);
}

void WriteIngressStatusBlock(JsonWriter& json,
                             const IngressCounters& counters) {
  auto load64 = [](const std::atomic<uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  json.Key("ingress").BeginObject();
  json.Key("open_connections")
      .Int(counters.open_connections.load(std::memory_order_relaxed));
  json.Key("inflight_requests")
      .Int(counters.inflight_requests.load(std::memory_order_relaxed));
  json.Key("accepted").Uint(load64(counters.accepted_total));
  json.Key("connection_limit_rejections")
      .Uint(load64(counters.connection_limit_rejections));
  json.Key("shed_503s").Uint(load64(counters.shed_503s));
  json.Key("header_timeouts").Uint(load64(counters.header_timeouts));
  json.Key("idle_timeouts").Uint(load64(counters.idle_timeouts));
  json.Key("write_stall_closes").Uint(load64(counters.write_stall_closes));
  json.Key("oversize_headers").Uint(load64(counters.oversize_headers));
  json.Key("oversize_bodies").Uint(load64(counters.oversize_bodies));
  json.Key("drained_connections")
      .Uint(load64(counters.drained_connections));
  json.Key("accept_fd_exhaustion_episodes")
      .Uint(load64(counters.accept_fd_exhaustion_episodes));
  json.EndObject();
}

}  // namespace dynaprox::net

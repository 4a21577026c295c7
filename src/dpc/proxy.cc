#include "dpc/proxy.h"

#include "common/deadline.h"
#include "common/fault_point.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "net/circuit_breaker.h"
#include "net/connection_pool.h"
#include "net/server_limits.h"

namespace dynaprox::dpc {
namespace {

// Hop-by-hop fields (RFC 7230 §6.1) must not travel past an intermediary.
constexpr const char* kHopByHopHeaders[] = {
    "Connection", "Keep-Alive", "Proxy-Connection", "TE",
    "Trailer",    "Upgrade",
};

void StripHopByHop(http::HeaderMap& headers) {
  // The Connection field also nominates additional hop-by-hop headers
  // (RFC 7230 §6.1): strip those before the standard set (which removes
  // Connection itself). Without this a "Connection: X-Internal-Secret"
  // hop could leak X-Internal-Secret past the proxy.
  if (auto connection = headers.Get("Connection"); connection.has_value()) {
    const std::string nominated(*connection);  // Outlive the removals.
    for (std::string_view token : StrSplit(nominated, ',')) {
      token = StripWhitespace(token);
      if (!token.empty()) headers.Remove(token);
    }
  }
  for (const char* name : kHopByHopHeaders) headers.Remove(name);
}

void AppendVia(http::HeaderMap& headers, const std::string& token) {
  if (auto existing = headers.Get("Via"); existing.has_value()) {
    headers.Set("Via", std::string(*existing) + ", " + token);
  } else {
    headers.Add("Via", token);
  }
}

double MicrosToSeconds(MicroTime micros) {
  return static_cast<double>(micros) / kMicrosPerSecond;
}

// Upstream round trip behind the "dpc.upstream" fault point. Error-class
// actions fail the fetch before it leaves the proxy; garbage substitutes
// an unparseable template (the same detectable shape
// net::FaultInjectingTransport produces), which must surface as a clean
// 502 — never as client bytes.
Result<http::Response> ChaosRoundTrip(net::Transport* upstream,
                                      const http::Request& request) {
  chaos::FaultDecision fault = chaos::ApplyDelay(
      DYNAPROX_FAULT_POINT("dpc.upstream")->Evaluate());
  switch (fault.action) {
    case chaos::FaultAction::kNone:
    case chaos::FaultAction::kDelayMs:
      return upstream->RoundTrip(request);
    case chaos::FaultAction::kGarbage: {
      http::Response garbage =
          http::Response::MakeOk("\x02\x7f chaos garbage \x03");
      garbage.headers.Set(bem::kTemplateHeader, "1");
      return garbage;
    }
    default:
      return Status::Unavailable(
          std::string("chaos:dpc.upstream injected ") +
          chaos::FaultActionName(fault.action));
  }
}

// Everything a streamed body needs to finish the request's bookkeeping
// after Handle() has already returned: metric handles (registry-backed,
// atomic), the clock, the access log, and the log line's fields.
struct StreamContext {
  metrics::Counter* bytes_from_upstream = nullptr;
  metrics::Counter* bytes_to_clients = nullptr;
  metrics::Counter* upstream_errors = nullptr;
  metrics::Counter* template_errors = nullptr;
  metrics::Counter* stream_aborts = nullptr;
  metrics::Counter* assembled = nullptr;
  metrics::Counter* body_bytes_copied = nullptr;
  metrics::Counter* body_bytes_referenced = nullptr;
  metrics::LatencyHistogram* request_duration = nullptr;
  const Clock* clock = nullptr;
  AccessLogger* access_log = nullptr;  // May be null.
  MicroTime start = 0;
  std::string request_id;
  std::string method;
  std::string target;
  int status = 200;
  size_t max_template_bytes = 0;  // 0 = unlimited.
};

// Completion bookkeeping for a streamed response. Duration is measured to
// the moment the body is fully produced (or abandoned), not to the last
// socket flush — the proxy cannot see the hosting server's writes.
void LogStreamCompletion(const StreamContext& ctx, const char* outcome,
                         size_t bytes_sent) {
  MicroTime elapsed = ctx.clock->NowMicros() - ctx.start;
  ctx.request_duration->Observe(MicrosToSeconds(elapsed));
  if (ctx.access_log != nullptr) {
    AccessLogEntry entry;
    entry.timestamp_micros = ctx.start;
    entry.component = "dpc";
    entry.request_id = ctx.request_id;
    entry.method = ctx.method;
    entry.target = ctx.target;
    entry.status = ctx.status;
    entry.bytes_sent = bytes_sent;
    entry.duration_micros = elapsed;
    entry.outcome = outcome;
    ctx.access_log->Log(entry);
  }
}

// Streamed passthrough body: upstream chunks forwarded verbatim, with
// per-chunk byte accounting and the completion bookkeeping at end of
// body. Destruction before end of body (client went away) logs the
// request as abandoned.
class PassthroughStream : public http::BodyStream {
 public:
  PassthroughStream(std::unique_ptr<http::BodyStream> upstream,
                    StreamContext ctx)
      : upstream_(std::move(upstream)), ctx_(std::move(ctx)) {}

  ~PassthroughStream() override {
    if (!completed_) Complete("stream_abandoned");
  }

  Result<common::BufferChain> Next() override {
    if (completed_) return common::BufferChain();
    Result<common::BufferChain> chunk = upstream_->Next();
    if (!chunk.ok()) {
      ctx_.upstream_errors->Increment();
      ctx_.stream_aborts->Increment();
      Complete("stream_abort");
      return chunk.status();
    }
    if (chunk->empty()) {
      Complete("passthrough");
      return chunk;
    }
    ctx_.bytes_from_upstream->Increment(chunk->size());
    ctx_.bytes_to_clients->Increment(chunk->size());
    sent_ += chunk->size();
    return chunk;
  }

 private:
  void Complete(const char* outcome) {
    completed_ = true;
    LogStreamCompletion(ctx_, outcome, sent_);
  }

  std::unique_ptr<http::BodyStream> upstream_;
  StreamContext ctx_;
  size_t sent_ = 0;
  bool completed_ = false;
};

// Streamed scan-and-splice body: pulls template chunks from the upstream
// stream, feeds the incremental assembler, and yields assembled output
// the moment it resolves. Constructed at commit time with whatever the
// prefetch in HandleStreaming already produced; failures from here on are
// post-commit and abort the stream (the hosting server truncates the
// chunked body).
class AssemblingStream : public http::BodyStream {
 public:
  AssemblingStream(std::unique_ptr<http::BodyStream> upstream,
                   StreamingAssembler assembler, common::BufferChain pending,
                   size_t template_bytes, StreamContext ctx)
      : upstream_(std::move(upstream)),
        assembler_(std::move(assembler)),
        pending_(std::move(pending)),
        template_bytes_(template_bytes),
        ctx_(std::move(ctx)) {}

  ~AssemblingStream() override {
    if (!completed_) Complete("stream_abandoned");
  }

  Result<common::BufferChain> Next() override {
    if (failed_) return failure_;
    if (finished_) return common::BufferChain();
    if (!pending_.empty()) {
      common::BufferChain out = std::move(pending_);
      pending_.Clear();
      return Deliver(std::move(out));
    }
    common::BufferChain out;
    for (;;) {
      // Post-commit chunk boundary: any injected action becomes an abort
      // (honest truncation) — fabricating or corrupting bytes after the
      // 200 went out is exactly what the invariants forbid.
      if (Status injected = chaos::InjectStatus(
              DYNAPROX_FAULT_POINT("dpc.stream.chunk"));
          !injected.ok()) {
        ctx_.upstream_errors->Increment();
        return Abort(injected);
      }
      Result<common::BufferChain> chunk = upstream_->Next();
      if (!chunk.ok()) {
        ctx_.upstream_errors->Increment();
        return Abort(chunk.status());
      }
      if (chunk->empty()) {
        Status finished = assembler_.Finish(out);
        if (!finished.ok()) {
          ctx_.template_errors->Increment();
          return Abort(finished);
        }
        finished_ = true;
        ctx_.assembled->Increment();
        ctx_.body_bytes_copied->Increment(assembler_.progress().bytes_copied);
        ctx_.body_bytes_referenced->Increment(
            assembler_.progress().bytes_referenced);
        // A non-empty tail goes out now and the next pull ends the body;
        // an empty one ends it directly.
        Result<common::BufferChain> tail = Deliver(std::move(out));
        Complete("streamed");
        return tail;
      }
      template_bytes_ += chunk->size();
      ctx_.bytes_from_upstream->Increment(chunk->size());
      if (ctx_.max_template_bytes != 0 &&
          template_bytes_ > ctx_.max_template_bytes) {
        ctx_.template_errors->Increment();
        return Abort(Status::CapacityExceeded(
            "template exceeds limit: " + std::to_string(template_bytes_) +
            " > " + std::to_string(ctx_.max_template_bytes)));
      }
      for (const common::BufferChain::Slice& slice : chunk->slices()) {
        Status fed = assembler_.Feed(slice.buffer, slice.view(), out);
        if (!fed.ok()) {
          ctx_.template_errors->Increment();
          return Abort(fed);
        }
      }
      if (!out.empty()) return Deliver(std::move(out));
    }
  }

 private:
  Result<common::BufferChain> Deliver(common::BufferChain out) {
    ctx_.bytes_to_clients->Increment(out.size());
    sent_ += out.size();
    return out;
  }

  Result<common::BufferChain> Abort(Status status) {
    failed_ = true;
    failure_ = status;
    ctx_.stream_aborts->Increment();
    DYNAPROX_LOG(kWarning, "dpc")
        << "stream abort (" << ctx_.request_id
        << "): " << status.ToString();
    Complete("stream_abort");
    return failure_;
  }

  void Complete(const char* outcome) {
    completed_ = true;
    LogStreamCompletion(ctx_, outcome, sent_);
  }

  std::unique_ptr<http::BodyStream> upstream_;
  StreamingAssembler assembler_;
  common::BufferChain pending_;  // Output the prefetch already produced.
  size_t template_bytes_;
  StreamContext ctx_;
  size_t sent_ = 0;
  bool finished_ = false;
  bool failed_ = false;
  Status failure_ = Status::Ok();
  bool completed_ = false;
};

}  // namespace

DpcProxy::DpcProxy(net::Transport* upstream, ProxyOptions options)
    : upstream_(upstream),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()),
      store_(options.capacity) {
  if (options_.enable_static_cache) {
    static_cache_ = std::make_unique<StaticCache>(options_.static_cache);
  }
  if (options_.serve_stale) {
    stale_cache_ = std::make_unique<StalePageCache>(options_.stale_cache);
  }
  RegisterMetrics();
}

void DpcProxy::RegisterMetrics() {
  // Serving counters. Registration order here is the exposition order;
  // docs/observability.md lists them in the same order.
  instruments_.requests = registry_.GetCounter(
      "dynaprox_requests_total",
      "Client requests proxied (status/metrics endpoint hits excluded).");
  instruments_.passthrough = registry_.GetCounter(
      "dynaprox_passthrough_total",
      "Upstream responses without a template header, forwarded verbatim.");
  instruments_.assembled = registry_.GetCounter(
      "dynaprox_assembled_total", "Pages assembled from SET/GET templates.");
  instruments_.recoveries = registry_.GetCounter(
      "dynaprox_recoveries_total",
      "Cold-cache refresh round trips (X-DPC-Refresh sent upstream).");
  instruments_.upstream_errors = registry_.GetCounter(
      "dynaprox_upstream_errors_total",
      "Upstream round trips that failed at the transport layer.");
  instruments_.template_errors = registry_.GetCounter(
      "dynaprox_template_errors_total",
      "Corrupt/oversized templates and unrecoverable fragment misses.");
  instruments_.static_hits = registry_.GetCounter(
      "dynaprox_static_hits_total", "Requests served from the static cache.");
  instruments_.static_revalidations = registry_.GetCounter(
      "dynaprox_static_revalidations_total",
      "Stale static entries refreshed by an upstream 304.");
  instruments_.stale_served = registry_.GetCounter(
      "dynaprox_stale_served_total",
      "Degraded responses served from a last-known-good page.");
  instruments_.breaker_rejections = registry_.GetCounter(
      "dynaprox_breaker_rejections_total",
      "Requests fast-failed because the upstream circuit breaker was open.");
  instruments_.degraded_503s = registry_.GetCounter(
      "dynaprox_degraded_503s_total",
      "Degraded requests with no stale copy available (503 sent).");
  instruments_.bytes_from_upstream = registry_.GetCounter(
      "dynaprox_bytes_from_upstream_total",
      "Template/page body bytes received from the origin.");
  instruments_.bytes_to_clients = registry_.GetCounter(
      "dynaprox_bytes_to_clients_total",
      "Response body bytes sent to clients.");
  instruments_.body_bytes_copied = registry_.GetCounter(
      "dynaprox_dpc_body_bytes_copied_total",
      "Assembled-page body bytes memcpy'd (SET materialization only).");
  instruments_.body_bytes_referenced = registry_.GetCounter(
      "dynaprox_dpc_body_bytes_referenced_total",
      "Assembled-page body bytes spliced by reference (literals and GET "
      "fragments), never copied.");
  instruments_.streamed = registry_.GetCounter(
      "dynaprox_streamed_total",
      "Responses committed to streaming delivery (head sent while the "
      "template tail was still arriving).");
  instruments_.stream_fallbacks = registry_.GetCounter(
      "dynaprox_stream_fallbacks_total",
      "Streaming-eligible responses whose template completed during "
      "prefetch and were served buffered instead.");
  instruments_.stream_aborts = registry_.GetCounter(
      "dynaprox_stream_aborts_total",
      "Streams aborted after commit (upstream or template failure "
      "mid-body; the client connection is cut, truncating the chunked "
      "body).");
  instruments_.deadline_exceeded = registry_.GetCounter(
      "dynaprox_deadline_exceeded_total",
      "Requests degraded because the end-to-end deadline budget expired "
      "before upstream/recovery retries completed.");
  // Chaos layer: per-fault-point injection counts, sampled at scrape
  // time from the process-wide registry (docs/failure-modes.md).
  chaos::FaultRegistry::Instance().RegisterMetrics(&registry_);

  // Per-stage latency histograms (seconds).
  instruments_.request_duration = registry_.GetHistogram(
      "dynaprox_request_duration_seconds",
      "Total DPC handling time per proxied request.");
  instruments_.upstream_fetch_duration = registry_.GetHistogram(
      "dynaprox_upstream_fetch_duration_seconds",
      "Origin round-trip time, one observation per upstream fetch.");
  instruments_.scan_duration = registry_.GetHistogram(
      "dynaprox_scan_duration_seconds",
      "Template scan (tag parse) time per assembled page.");
  instruments_.splice_duration = registry_.GetHistogram(
      "dynaprox_splice_duration_seconds",
      "Fragment store/splice time per assembled page.");
  instruments_.ttfb = registry_.GetHistogram(
      "dynaprox_ttfb_seconds",
      "Time from request arrival to the first response body bytes being "
      "ready to send (streamed: at commit; buffered: whole handling "
      "time).");

  // Fragment store, sampled at scrape time.
  registry_.RegisterCallbackGauge(
      "dynaprox_store_capacity", "Fragment slots configured.",
      [this] { return static_cast<double>(store_.capacity()); });
  registry_.RegisterCallbackGauge(
      "dynaprox_store_occupied_slots", "Fragment slots holding content.",
      [this] { return static_cast<double>(store_.occupied_slots()); });
  registry_.RegisterCallbackGauge(
      "dynaprox_store_content_bytes", "Bytes of fragment content stored.",
      [this] { return static_cast<double>(store_.content_bytes()); });
  registry_.RegisterCallbackGaugeVec(
      "dynaprox_dpc_fragment_bytes",
      "Resident fragment bytes per store shard.", "shard",
      FragmentStore::kShards, [this](size_t shard) {
        return static_cast<double>(store_.shard_content_bytes(shard));
      });
  registry_.RegisterCallbackCounter(
      "dynaprox_store_sets_total", "SET instructions executed.",
      [this] { return store_.stats().sets; });
  registry_.RegisterCallbackCounter(
      "dynaprox_store_gets_total", "GET instructions executed.",
      [this] { return store_.stats().gets; });
  registry_.RegisterCallbackCounter(
      "dynaprox_store_get_misses_total",
      "GET instructions that found an empty slot.",
      [this] { return store_.stats().get_misses; });
  registry_.RegisterCallbackCounter(
      "dynaprox_store_pushes_total",
      "Slots populated via the control channel (SetPushed).",
      [this] { return store_.stats().pushes; });
  registry_.RegisterCallbackGauge(
      "dynaprox_store_pushed_slots",
      "Slots whose current content arrived via a push.",
      [this] { return static_cast<double>(store_.pushed_slots()); });

  if (options_.miss_resolver != nullptr) {
    instruments_.peer_fills = registry_.GetCounter(
        "dynaprox_edge_peer_fills_total",
        "Cold-cache GET misses filled from the fragment's ring owner "
        "instead of an origin refresh round trip.");
  }
  if (options_.enable_push) {
    instruments_.pushes_applied = registry_.GetCounter(
        "dynaprox_edge_pushes_applied_total",
        "Control-channel pushes accepted and stored.");
    instruments_.push_bytes = registry_.GetCounter(
        "dynaprox_edge_push_bytes_total",
        "Fragment body bytes received over the control channel.");
    instruments_.peer_serves = registry_.GetCounter(
        "dynaprox_edge_peer_serves_total",
        "Owned fragments served to ring peers from the fragment "
        "endpoint.");
  }

  if (options_.upstream_breaker != nullptr) {
    const net::CircuitBreaker* breaker = options_.upstream_breaker;
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_breaker_state",
        "Circuit breaker state: 0=closed, 1=open, 2=half-open.",
        [breaker] {
          return static_cast<double>(breaker->stats().state);
        });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_breaker_rejections_total",
        "Requests the breaker fast-failed.",
        [breaker] { return breaker->stats().rejections; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_breaker_opens_total",
        "Transitions into the open state.",
        [breaker] { return breaker->stats().opens; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_breaker_closes_total",
        "Half-open windows that ended in recovery.",
        [breaker] { return breaker->stats().closes; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_breaker_probes_total",
        "Trial requests admitted while half-open.",
        [breaker] { return breaker->stats().probes; });
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_breaker_window_error_rate",
        "Error rate over the current rolling window.",
        [breaker] { return breaker->stats().window_error_rate; });
  }

  if (options_.ingress != nullptr) {
    net::RegisterIngressMetrics(registry_, "dynaprox_", options_.ingress);
  }

  if (stale_cache_ != nullptr) {
    StalePageCache* stale = stale_cache_.get();
    registry_.RegisterCallbackGauge(
        "dynaprox_stale_pages_entries", "Last-known-good pages retained.",
        [stale] { return static_cast<double>(stale->size()); });
    registry_.RegisterCallbackCounter(
        "dynaprox_stale_pages_remembers_total",
        "Pages recorded into the stale-page cache.",
        [stale] { return stale->stats().remembers; });
    registry_.RegisterCallbackCounter(
        "dynaprox_stale_pages_hits_total",
        "Degraded lookups that found a usable page.",
        [stale] { return stale->stats().hits; });
    registry_.RegisterCallbackCounter(
        "dynaprox_stale_pages_misses_total",
        "Degraded lookups that found nothing usable.",
        [stale] { return stale->stats().misses; });
    registry_.RegisterCallbackCounter(
        "dynaprox_stale_pages_evictions_total",
        "Pages evicted by the LRU bound.",
        [stale] { return stale->stats().evictions; });
  }

  if (options_.upstream_pool != nullptr) {
    const net::ConnectionPool* pool = options_.upstream_pool;
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_pool_open_connections",
        "Pool connections open (checked out + idle).",
        [pool] { return static_cast<double>(pool->stats().open_connections); });
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_pool_idle_connections",
        "Pool connections parked in the free list.",
        [pool] { return static_cast<double>(pool->stats().idle_connections); });
    registry_.RegisterCallbackGauge(
        "dynaprox_upstream_pool_wait_queue_depth",
        "Checkouts currently blocked waiting for a connection.",
        [pool] { return static_cast<double>(pool->stats().wait_queue_depth); });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_checkouts_total", "Successful checkouts.",
        [pool] { return pool->stats().checkouts; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_connects_total", "Successful dials.",
        [pool] { return pool->stats().connects; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_reconnects_total",
        "Dials that replaced a dead keep-alive connection.",
        [pool] { return pool->stats().reconnects; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_stale_closed_total",
        "Idle connections found dead at checkout.",
        [pool] { return pool->stats().stale_closed; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_idle_reaped_total",
        "Idle connections closed past the idle deadline.",
        [pool] { return pool->stats().idle_reaped; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_waiter_timeouts_total",
        "Checkouts that gave up waiting.",
        [pool] { return pool->stats().waiter_timeouts; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_waiter_rejections_total",
        "Checkouts rejected by the waiter bound.",
        [pool] { return pool->stats().waiter_rejections; });
    registry_.RegisterCallbackCounter(
        "dynaprox_upstream_pool_connect_failures_total",
        "Dials that exhausted their retries.",
        [pool] { return pool->stats().connect_failures; });
  }

  if (static_cache_ != nullptr) {
    StaticCache* cache = static_cache_.get();
    registry_.RegisterCallbackGauge(
        "dynaprox_static_cache_entries", "Static cache entries retained.",
        [cache] { return static_cast<double>(cache->size()); });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_hits_total", "Fresh static cache hits.",
        [cache] { return cache->stats().hits; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_misses_total", "Static cache misses.",
        [cache] { return cache->stats().misses; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_stores_total", "Responses stored.",
        [cache] { return cache->stats().stores; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_revalidations_total",
        "304-driven freshness extensions.",
        [cache] { return cache->stats().revalidations; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_stale_served_total",
        "Stale static entries served on upstream error.",
        [cache] { return cache->stats().stale_served; });
    registry_.RegisterCallbackCounter(
        "dynaprox_static_cache_evictions_total", "Entries evicted.",
        [cache] { return cache->stats().evictions; });
  }
}

net::Handler DpcProxy::AsHandler() {
  return [this](const http::Request& request) { return Handle(request); };
}

ProxyStats DpcProxy::stats() const {
  ProxyStats snapshot;
  snapshot.requests = instruments_.requests->value();
  snapshot.passthrough = instruments_.passthrough->value();
  snapshot.assembled = instruments_.assembled->value();
  snapshot.recoveries = instruments_.recoveries->value();
  snapshot.upstream_errors = instruments_.upstream_errors->value();
  snapshot.template_errors = instruments_.template_errors->value();
  snapshot.static_hits = instruments_.static_hits->value();
  snapshot.static_revalidations = instruments_.static_revalidations->value();
  snapshot.stale_served = instruments_.stale_served->value();
  snapshot.breaker_rejections = instruments_.breaker_rejections->value();
  snapshot.degraded_503s = instruments_.degraded_503s->value();
  snapshot.bytes_from_upstream = instruments_.bytes_from_upstream->value();
  snapshot.bytes_to_clients = instruments_.bytes_to_clients->value();
  snapshot.streamed = instruments_.streamed->value();
  snapshot.stream_fallbacks = instruments_.stream_fallbacks->value();
  snapshot.stream_aborts = instruments_.stream_aborts->value();
  snapshot.deadline_exceeded = instruments_.deadline_exceeded->value();
  if (instruments_.peer_fills != nullptr) {
    snapshot.peer_fills = instruments_.peer_fills->value();
  }
  if (instruments_.pushes_applied != nullptr) {
    snapshot.pushes_applied = instruments_.pushes_applied->value();
  }
  if (instruments_.peer_serves != nullptr) {
    snapshot.peer_serves = instruments_.peer_serves->value();
  }
  return snapshot;
}

Status DpcProxy::ApplyPush(bem::DpcKey key, FragmentRef body,
                           MicroTime age_micros) {
  size_t bytes = body == nullptr ? 0 : body->size();
  DYNAPROX_RETURN_IF_ERROR(
      store_.SetPushed(key, std::move(body), age_micros,
                       clock_->NowMicros()));
  if (instruments_.pushes_applied != nullptr) {
    instruments_.pushes_applied->Increment();
  }
  if (instruments_.push_bytes != nullptr) {
    instruments_.push_bytes->Increment(bytes);
  }
  return Status::Ok();
}

http::Response DpcProxy::HandlePush(const http::Request& request) {
  auto key_header = request.headers.Get(bem::kPushKeyHeader);
  if (!key_header.has_value()) {
    return http::Response::MakeError(400, "Bad Request",
                                     "missing X-DPC-Push-Key header");
  }
  Result<uint64_t> key = ParseHex(*key_header);
  if (!key.ok() || *key > bem::kInvalidDpcKey) {
    return http::Response::MakeError(400, "Bad Request",
                                     "bad X-DPC-Push-Key header");
  }
  MicroTime age = 0;
  if (auto age_header = request.headers.Get(bem::kPushAgeHeader);
      age_header.has_value()) {
    Result<uint64_t> parsed = ParseUint64(*age_header);
    if (!parsed.ok()) {
      return http::Response::MakeError(400, "Bad Request",
                                       "bad X-DPC-Push-Age header");
    }
    age = static_cast<MicroTime>(*parsed);
  }
  Status applied = ApplyPush(
      static_cast<bem::DpcKey>(*key),
      std::make_shared<const std::string>(request.body), age);
  if (!applied.ok()) {
    return http::Response::MakeError(400, "Bad Request",
                                     applied.ToString());
  }
  http::Response response;
  response.status_code = 204;
  response.reason = "No Content";
  return response;
}

http::Response DpcProxy::HandleFragment(const http::Request& request) {
  std::map<std::string, std::string> params = request.QueryParams();
  auto it = params.find("key");
  if (it == params.end()) {
    return http::Response::MakeError(400, "Bad Request",
                                     "missing key query parameter");
  }
  Result<uint64_t> key = ParseHex(it->second);
  if (!key.ok() || *key > bem::kInvalidDpcKey) {
    return http::Response::MakeError(400, "Bad Request",
                                     "bad key query parameter");
  }
  bem::DpcKey dpc_key = static_cast<bem::DpcKey>(*key);
  Result<FragmentRef> fragment = store_.Get(dpc_key);
  if (!fragment.ok()) {
    return http::Response::MakeError(404, "Not Found",
                                     fragment.status().ToString());
  }
  if (instruments_.peer_serves != nullptr) {
    instruments_.peer_serves->Increment();
  }
  http::Response response =
      http::Response::MakeOk(std::string(**fragment), "text/html");
  // Report the body's current age so the fetching peer keeps aging it
  // from the right base instead of restarting at zero.
  Result<MicroTime> age = store_.AgeOf(dpc_key, clock_->NowMicros());
  response.headers.Set(bem::kPushAgeHeader,
                       std::to_string(age.ok() ? *age : 0));
  return response;
}

http::Response DpcProxy::BuildAssembledResponse(
    const http::Request& request, http::Response upstream,
    AssembledPage page) {
  if (options_.on_sets != nullptr && !page.set_keys.empty()) {
    options_.on_sets(page.set_keys);
  }
  http::Response response = std::move(upstream);
  response.headers.Remove(bem::kTemplateHeader);
  response.headers.Remove("Content-Length");
  if (options_.proxy_headers) {
    StripHopByHop(response.headers);
    AppendVia(response.headers, options_.via_token);
  }
  if (options_.add_debug_header) {
    response.headers.Set(
        kDebugHeader, "sets=" + std::to_string(page.set_count) +
                          ";gets=" + std::to_string(page.get_count));
  }
  // Zero-copy handoff: the page's chain (template slices + shared
  // fragment buffers) becomes the response body as-is.
  response.body.clear();
  response.body_chain = std::move(page.body);
  if (stale_cache_ != nullptr && request.method == "GET" &&
      response.status_code == 200) {
    stale_cache_->Remember(request.target, response);
  }
  instruments_.assembled->Increment();
  instruments_.bytes_to_clients->Increment(response.body_size());
  instruments_.body_bytes_copied->Increment(page.bytes_copied);
  instruments_.body_bytes_referenced->Increment(page.bytes_referenced);
  return response;
}

std::optional<http::Response> DpcProxy::LookupAnyStale(
    const std::string& url) {
  std::optional<http::Response> stale;
  if (stale_cache_ != nullptr) {
    if (std::optional<StalePage> page =
            stale_cache_->Lookup(url, options_.max_stale_micros)) {
      stale = std::move(page->response);
      stale->headers.Set(
          "Age", std::to_string(page->age_micros / kMicrosPerSecond));
    }
  }
  if (!stale.has_value() && static_cache_ != nullptr) {
    stale = static_cache_->LookupStale(url);  // Sets Age itself.
  }
  if (!stale.has_value()) return std::nullopt;
  stale->headers.Set("Warning", kStaleWarning);
  if (options_.proxy_headers) {
    StripHopByHop(stale->headers);
    AppendVia(stale->headers, options_.via_token);
  }
  instruments_.stale_served->Increment();
  instruments_.bytes_to_clients->Increment(stale->body_size());
  return stale;
}

http::Response DpcProxy::ServeDegraded(const http::Request& request,
                                       const Status& failure,
                                       bool breaker_rejected,
                                       const char** outcome) {
  if (request.method == "GET") {
    if (std::optional<http::Response> stale =
            LookupAnyStale(request.target)) {
      *outcome = "stale";
      return std::move(*stale);
    }
  }
  if (options_.serve_stale || breaker_rejected ||
      common::IsDeadlineExceeded(failure)) {
    instruments_.degraded_503s->Increment();
    *outcome = common::IsDeadlineExceeded(failure) ? "deadline_503"
                                                   : "degraded_503";
    return net::MakeUnavailableResponse(
        "origin unavailable: " + failure.ToString(),
        options_.retry_after_seconds);
  }
  // Legacy fail-closed behaviour when degradation is not configured.
  *outcome = "upstream_error";
  return http::Response::MakeError(
      502, "Bad Gateway", "upstream error: " + failure.ToString());
}

http::Response DpcProxy::RenderStatus() const {
  ProxyStats snapshot = stats();
  JsonWriter json;
  json.BeginObject();
  json.Key("component").String("dpc");
  json.Key("requests").Uint(snapshot.requests);
  json.Key("assembled").Uint(snapshot.assembled);
  json.Key("passthrough").Uint(snapshot.passthrough);
  json.Key("recoveries").Uint(snapshot.recoveries);
  json.Key("upstream_errors").Uint(snapshot.upstream_errors);
  json.Key("template_errors").Uint(snapshot.template_errors);
  json.Key("stale_served").Uint(snapshot.stale_served);
  json.Key("breaker_rejections").Uint(snapshot.breaker_rejections);
  json.Key("degraded_503s").Uint(snapshot.degraded_503s);
  json.Key("bytes_from_upstream").Uint(snapshot.bytes_from_upstream);
  json.Key("bytes_to_clients").Uint(snapshot.bytes_to_clients);
  json.Key("streamed").Uint(snapshot.streamed);
  json.Key("stream_fallbacks").Uint(snapshot.stream_fallbacks);
  json.Key("stream_aborts").Uint(snapshot.stream_aborts);
  json.Key("deadline_exceeded").Uint(snapshot.deadline_exceeded);
  json.Key("store").BeginObject();
  StoreStats store_stats = store_.stats();
  json.Key("capacity").Uint(store_.capacity());
  json.Key("occupied_slots").Uint(store_.occupied_slots());
  json.Key("content_bytes").Uint(store_.content_bytes());
  json.Key("bytes").BeginArray();
  for (size_t shard = 0; shard < FragmentStore::kShards; ++shard) {
    json.Uint(store_.shard_content_bytes(shard));
  }
  json.EndArray();
  json.Key("sets").Uint(store_stats.sets);
  json.Key("gets").Uint(store_stats.gets);
  json.Key("get_misses").Uint(store_stats.get_misses);
  json.Key("pushes").Uint(store_stats.pushes);
  json.Key("pushed_slots").Uint(store_.pushed_slots());
  json.EndObject();
  if (options_.enable_push || options_.miss_resolver != nullptr) {
    json.Key("edge").BeginObject();
    json.Key("peer_fills").Uint(snapshot.peer_fills);
    json.Key("pushes_applied").Uint(snapshot.pushes_applied);
    json.Key("peer_serves").Uint(snapshot.peer_serves);
    json.EndObject();
  }
  if (options_.upstream_breaker != nullptr) {
    net::CircuitBreakerStats breaker = options_.upstream_breaker->stats();
    json.Key("breaker").BeginObject();
    json.Key("state").String(std::string(BreakerStateName(breaker.state)));
    json.Key("rejections").Uint(breaker.rejections);
    json.Key("opens").Uint(breaker.opens);
    json.Key("closes").Uint(breaker.closes);
    json.Key("probes").Uint(breaker.probes);
    json.Key("window_samples").Int(breaker.window_samples);
    json.Key("window_error_rate").Double(breaker.window_error_rate);
    json.EndObject();
  }
  if (stale_cache_ != nullptr) {
    StalePageCacheStats stale_stats = stale_cache_->stats();
    json.Key("stale_pages").BeginObject();
    json.Key("entries").Uint(stale_cache_->size());
    json.Key("remembers").Uint(stale_stats.remembers);
    json.Key("hits").Uint(stale_stats.hits);
    json.Key("misses").Uint(stale_stats.misses);
    json.Key("evictions").Uint(stale_stats.evictions);
    json.EndObject();
  }
  if (options_.upstream_pool != nullptr) {
    net::PoolStats pool = options_.upstream_pool->stats();
    json.Key("upstream_pool").BeginObject();
    json.Key("open_connections").Int(pool.open_connections);
    json.Key("idle_connections").Int(pool.idle_connections);
    json.Key("wait_queue_depth").Int(pool.wait_queue_depth);
    json.Key("checkouts").Uint(pool.checkouts);
    json.Key("connects").Uint(pool.connects);
    json.Key("reconnects").Uint(pool.reconnects);
    json.Key("stale_closed").Uint(pool.stale_closed);
    json.Key("idle_reaped").Uint(pool.idle_reaped);
    json.Key("waiter_timeouts").Uint(pool.waiter_timeouts);
    json.Key("waiter_rejections").Uint(pool.waiter_rejections);
    json.Key("connect_failures").Uint(pool.connect_failures);
    json.Key("wait_micros").BeginObject();
    json.Key("count").Uint(pool.wait_micros.count);
    json.Key("p50").Double(pool.wait_micros.p50);
    json.Key("p99").Double(pool.wait_micros.p99);
    json.Key("max").Double(pool.wait_micros.max);
    json.EndObject();
    json.EndObject();
  }
  if (options_.ingress != nullptr) {
    net::WriteIngressStatusBlock(json, *options_.ingress);
  }
  if (static_cache_ != nullptr) {
    StaticCacheStats static_stats = static_cache_->stats();
    json.Key("static_cache").BeginObject();
    json.Key("entries").Uint(static_cache_->size());
    json.Key("hits").Uint(static_stats.hits);
    json.Key("misses").Uint(static_stats.misses);
    json.Key("stores").Uint(static_stats.stores);
    json.Key("revalidations").Uint(static_stats.revalidations);
    json.Key("stale_served").Uint(static_stats.stale_served);
    json.Key("evictions").Uint(static_stats.evictions);
    json.EndObject();
  }
  json.EndObject();
  return http::Response::MakeOk(json.TakeString(), "application/json");
}

http::Response DpcProxy::Handle(const http::Request& request) {
  if (options_.enable_status && request.Path() == options_.status_path) {
    return RenderStatus();
  }
  if (options_.enable_metrics && request.Path() == options_.metrics_path) {
    return http::Response::MakeOk(registry_.RenderPrometheus(),
                                  "text/plain; version=0.0.4");
  }
  // Control-channel traffic (pushes in, peer fetches out) is cluster
  // plumbing, not client serving — excluded from the request counters
  // like the status/metrics endpoints above.
  if (options_.enable_push) {
    if (request.Path() == options_.push_path) return HandlePush(request);
    if (request.Path() == options_.fragment_path) {
      return HandleFragment(request);
    }
  }
  instruments_.requests->Increment();

  // Cross-tier correlation id: honour one the client (or an upstream DPC
  // tier) already minted, else mint our own. Forwarded to the origin and
  // echoed to the client.
  std::string request_id;
  if (auto provided = request.headers.Get(bem::kRequestIdHeader);
      provided.has_value() && !provided->empty()) {
    request_id = std::string(*provided);
  } else {
    request_id = request_ids_.Next();
  }

  // End-to-end budget: this request (and everything it triggers —
  // upstream fetch, peer fetches, recovery retries) shares one deadline.
  // A tier above may already have set one; the tighter deadline wins.
  common::DeadlineScope deadline_scope(common::Deadline::Earliest(
      common::CurrentDeadline(),
      common::Deadline::After(clock_, options_.request_budget_micros)));

  MicroTime start = clock_->NowMicros();
  const char* outcome = "error";
  // Streaming is served only when every feature that needs the complete
  // page in hand is off (see ProxyOptions::streaming).
  const bool streaming_eligible =
      options_.streaming && static_cache_ == nullptr &&
      stale_cache_ == nullptr && !options_.add_debug_header;
  http::Response response =
      streaming_eligible
          ? HandleStreaming(request, request_id, start, &outcome)
          : HandleProxied(request, request_id, &outcome);
  response.headers.Set(bem::kRequestIdHeader, request_id);
  if (response.body_stream != nullptr) {
    // Committed stream: duration, TTFB, and the access-log line are
    // recorded by the stream itself when the body completes — the
    // request is still in flight here.
    return response;
  }
  MicroTime elapsed = clock_->NowMicros() - start;
  instruments_.request_duration->Observe(MicrosToSeconds(elapsed));
  instruments_.ttfb->Observe(MicrosToSeconds(elapsed));

  if (options_.access_log != nullptr) {
    AccessLogEntry entry;
    entry.timestamp_micros = start;
    entry.component = "dpc";
    entry.request_id = request_id;
    entry.method = request.method;
    entry.target = request.target;
    entry.status = response.status_code;
    entry.bytes_sent = response.body_size();
    entry.duration_micros = elapsed;
    entry.outcome = outcome;
    options_.access_log->Log(entry);
  }
  return response;
}

http::Response DpcProxy::HandleProxied(const http::Request& request,
                                       const std::string& request_id,
                                       const char** outcome) {
  // Builds the request forwarded upstream; re-applied after each retry
  // mutation so hop-by-hop stripping and the correlation id survive.
  auto prepare_upstream = [&](const http::Request& base) {
    return PrepareUpstream(base, request_id);
  };

  bool revalidating = false;
  http::Request upstream_request = prepare_upstream(request);
  if (static_cache_ != nullptr && request.method == "GET") {
    if (std::optional<http::Response> cached =
            static_cache_->Lookup(request.target)) {
      instruments_.static_hits->Increment();
      instruments_.bytes_to_clients->Increment(cached->body_size());
      *outcome = "static_hit";
      return std::move(*cached);
    }
    // Stale entry with an ETag: try a conditional request.
    if (std::optional<std::string> etag =
            static_cache_->StaleEtag(request.target)) {
      upstream_request.headers.Set("If-None-Match", *etag);
      revalidating = true;
    }
  }
  const common::Deadline deadline = common::CurrentDeadline();
  for (int attempt = 0; attempt <= options_.max_recovery_attempts;
       ++attempt) {
    if (deadline.expired()) {
      instruments_.deadline_exceeded->Increment();
      return ServeDegraded(request,
                           common::DeadlineExceededError(
                               "upstream fetch, attempt " +
                               std::to_string(attempt)),
                           /*breaker_rejected=*/false, outcome);
    }
    MicroTime fetch_start = clock_->NowMicros();
    Result<http::Response> upstream_response =
        ChaosRoundTrip(upstream_, upstream_request);
    instruments_.upstream_fetch_duration->Observe(
        MicrosToSeconds(clock_->NowMicros() - fetch_start));
    if (!upstream_response.ok()) {
      bool breaker_rejected =
          net::IsBreakerRejection(upstream_response.status());
      if (breaker_rejected) {
        instruments_.breaker_rejections->Increment();
      } else {
        instruments_.upstream_errors->Increment();
      }
      return ServeDegraded(request, upstream_response.status(),
                           breaker_rejected, outcome);
    }
    // body_size(), not body.size(): an in-process upstream (DirectTransport
    // over another proxy tier) may deliver the body as a chain.
    instruments_.bytes_from_upstream->Increment(
        upstream_response->body_size());

    if (revalidating && upstream_response->status_code == 304) {
      if (std::optional<http::Response> refreshed =
              static_cache_->Revalidate(request.target,
                                        *upstream_response)) {
        instruments_.static_revalidations->Increment();
        instruments_.bytes_to_clients->Increment(refreshed->body_size());
        *outcome = "static_revalidated";
        return std::move(*refreshed);
      }
      // Entry vanished (evicted between the stale check and the 304):
      // retry unconditionally.
      revalidating = false;
      upstream_request = prepare_upstream(request);
      continue;
    }

    // Serve-stale-on-error (RFC 9111 §4.2.4): a 5xx answer must not
    // displace a still-usable stale copy — serve the copy instead.
    if (upstream_response->status_code >= 500 && request.method == "GET") {
      if (std::optional<http::Response> stale =
              LookupAnyStale(request.target)) {
        *outcome = "stale";
        return std::move(*stale);
      }
    }

    if (!upstream_response->headers.Has(bem::kTemplateHeader)) {
      if (static_cache_ != nullptr && request.method == "GET") {
        static_cache_->Store(request.target, *upstream_response);
      }
      if (stale_cache_ != nullptr && request.method == "GET" &&
          upstream_response->status_code == 200) {
        stale_cache_->Remember(request.target, *upstream_response);
      }
      if (options_.proxy_headers) {
        StripHopByHop(upstream_response->headers);
        AppendVia(upstream_response->headers, options_.via_token);
      }
      instruments_.passthrough->Increment();
      instruments_.bytes_to_clients->Increment(
          upstream_response->body_size());
      *outcome = "passthrough";
      return std::move(*upstream_response);
    }

    if (options_.max_template_bytes != 0 &&
        upstream_response->body_size() > options_.max_template_bytes) {
      instruments_.template_errors->Increment();
      *outcome = "template_error";
      return http::Response::MakeError(
          502, "Bad Gateway",
          "template exceeds limit: " +
              std::to_string(upstream_response->body_size()) + " > " +
              std::to_string(options_.max_template_bytes));
    }

    // The template body moves into a shared wire buffer: the assembled
    // page's literal slices alias it, so it must outlive the page — the
    // chain's references keep it alive, no copy. A chained body (from an
    // in-process upstream tier) is flattened first: the scanner needs
    // contiguous bytes.
    common::Buffer wire =
        upstream_response->body_chain.empty()
            ? common::MakeBuffer(std::move(upstream_response->body))
            : common::MakeBuffer(upstream_response->body_chain.Flatten());
    upstream_response->body.clear();
    upstream_response->body_chain.Clear();
    AssemblyTiming timing;
    Result<AssembledPage> assembled = AssemblePage(
        wire, store_, options_.scan_strategy, clock_, &timing);
    instruments_.scan_duration->Observe(MicrosToSeconds(timing.scan_micros));
    instruments_.splice_duration->Observe(
        MicrosToSeconds(timing.splice_micros));
    if (!assembled.ok()) {
      instruments_.template_errors->Increment();
      *outcome = "template_error";
      return http::Response::MakeError(
          502, "Bad Gateway",
          "template error: " + assembled.status().ToString());
    }
    if (!assembled->complete() && options_.miss_resolver != nullptr) {
      // Cluster peer fill: ask each missing key's ring owner before
      // paying a refresh round trip to the origin. The resolver stores
      // what it finds, so a re-assembly sees a warm store.
      bool all_filled = true;
      for (bem::DpcKey key : assembled->missing_keys) {
        if (options_.miss_resolver(key).ok()) {
          if (instruments_.peer_fills != nullptr) {
            instruments_.peer_fills->Increment();
          }
        } else {
          all_filled = false;
        }
      }
      if (all_filled) {
        assembled = AssemblePage(wire, store_, options_.scan_strategy,
                                 clock_, &timing);
        if (!assembled.ok()) {
          instruments_.template_errors->Increment();
          *outcome = "template_error";
          return http::Response::MakeError(
              502, "Bad Gateway",
              "template error: " + assembled.status().ToString());
        }
      }
    }
    if (assembled->complete()) {
      *outcome = "assembled";
      return BuildAssembledResponse(request, std::move(*upstream_response),
                                    std::move(*assembled));
    }

    // Cold-cache recovery: ask the origin to invalidate the missing keys so
    // the retried response carries fresh SETs.
    instruments_.recoveries->Increment();
    std::string refresh;
    for (bem::DpcKey key : assembled->missing_keys) {
      if (!refresh.empty()) refresh += ',';
      refresh += ToHex(key);
    }
    DYNAPROX_LOG(kInfo, "dpc")
        << "cold-cache recovery for keys [" << refresh << "]";
    upstream_request = prepare_upstream(request);
    upstream_request.headers.Set(bem::kRefreshHeader, refresh);
  }
  instruments_.template_errors->Increment();
  *outcome = "recovery_failed";
  return http::Response::MakeError(502, "Bad Gateway",
                                   "unrecoverable missing fragments");
}

http::Request DpcProxy::PrepareUpstream(const http::Request& base,
                                        const std::string& request_id) const {
  http::Request upstream_request = base;
  if (options_.proxy_headers) {
    StripHopByHop(upstream_request.headers);
    AppendVia(upstream_request.headers, options_.via_token);
  }
  upstream_request.headers.Set(bem::kRequestIdHeader, request_id);
  return upstream_request;
}

Result<FragmentRef> DpcProxy::ResolveMiss(const http::Request& request,
                                          const std::string& request_id,
                                          bem::DpcKey key) {
  // Streamed cold-cache recovery. The buffered path re-fetches and
  // re-assembles the whole page; here bytes before the miss may already
  // be on the wire, so instead the refreshed template's SETs are executed
  // into the store (its page body is discarded) and the slot re-read.
  // The nested round trip rides the same upstream transport — safe on
  // PooledClientTransport (own pool slot) and DirectTransport (plain
  // call); see ProxyOptions::streaming for the TcpClientTransport caveat.
  const common::Deadline deadline = common::CurrentDeadline();
  for (int attempt = 0; attempt < options_.max_recovery_attempts; ++attempt) {
    if (deadline.expired()) {
      instruments_.deadline_exceeded->Increment();
      return common::DeadlineExceededError("streamed recovery for key " +
                                           ToHex(key));
    }
    instruments_.recoveries->Increment();
    http::Request refresh = PrepareUpstream(request, request_id);
    refresh.headers.Set(bem::kRefreshHeader, ToHex(key));
    DYNAPROX_LOG(kInfo, "dpc")
        << "streamed cold-cache recovery for key " << ToHex(key);
    MicroTime fetch_start = clock_->NowMicros();
    Result<http::Response> refreshed = ChaosRoundTrip(upstream_, refresh);
    instruments_.upstream_fetch_duration->Observe(
        MicrosToSeconds(clock_->NowMicros() - fetch_start));
    if (!refreshed.ok()) {
      instruments_.upstream_errors->Increment();
      return refreshed.status();
    }
    instruments_.bytes_from_upstream->Increment(refreshed->body_size());
    if (!refreshed->headers.Has(bem::kTemplateHeader)) {
      // The origin no longer answers this URL with a template; there are
      // no SETs to learn from, so retrying cannot help.
      break;
    }
    const std::string wire = refreshed->BodyText();
    Result<std::vector<TemplateSegment>> segments =
        ParseTemplate(wire, options_.scan_strategy);
    if (!segments.ok()) return segments.status();
    for (const TemplateSegment& segment : *segments) {
      if (segment.kind != TemplateSegment::Kind::kSet) continue;
      Status stored = store_.Set(
          segment.key, std::make_shared<const std::string>(segment.Text()));
      if (!stored.ok()) return stored;
    }
    Result<FragmentRef> fragment = store_.Get(key);
    if (fragment.ok()) return fragment;
    // With a pooled upstream the refresh can race a concurrent request
    // whose SET is still in flight and miss again — retry.
  }
  return Status::NotFound("fragment " + ToHex(key) +
                          " unrecoverable after refresh");
}

http::Response DpcProxy::HandleStreaming(const http::Request& request,
                                         const std::string& request_id,
                                         MicroTime start,
                                         const char** outcome) {
  http::Request upstream_request = PrepareUpstream(request, request_id);
  MicroTime fetch_start = clock_->NowMicros();
  Result<net::StreamingResponse> upstream =
      upstream_->RoundTripStreaming(upstream_request);
  // Head time only: per-chunk body time is the stream consumer's.
  instruments_.upstream_fetch_duration->Observe(
      MicrosToSeconds(clock_->NowMicros() - fetch_start));
  if (!upstream.ok()) {
    bool breaker_rejected = net::IsBreakerRejection(upstream.status());
    if (breaker_rejected) {
      instruments_.breaker_rejections->Increment();
    } else {
      instruments_.upstream_errors->Increment();
    }
    return ServeDegraded(request, upstream.status(), breaker_rejected,
                         outcome);
  }
  http::Response head = std::move(upstream->head);
  std::unique_ptr<http::BodyStream> body = std::move(upstream.value().body);

  StreamContext ctx;
  ctx.bytes_from_upstream = instruments_.bytes_from_upstream;
  ctx.bytes_to_clients = instruments_.bytes_to_clients;
  ctx.upstream_errors = instruments_.upstream_errors;
  ctx.template_errors = instruments_.template_errors;
  ctx.stream_aborts = instruments_.stream_aborts;
  ctx.assembled = instruments_.assembled;
  ctx.body_bytes_copied = instruments_.body_bytes_copied;
  ctx.body_bytes_referenced = instruments_.body_bytes_referenced;
  ctx.request_duration = instruments_.request_duration;
  ctx.clock = clock_;
  ctx.access_log = options_.access_log;
  ctx.start = start;
  ctx.request_id = request_id;
  ctx.method = request.method;
  ctx.target = request.target;
  ctx.status = head.status_code;
  ctx.max_template_bytes = options_.max_template_bytes;

  if (!head.headers.Has(bem::kTemplateHeader)) {
    if (head.status_code != 200) {
      // 304/204/errors must not be re-framed as chunked; collapse to a
      // buffered response (these bodies are empty or tiny anyway).
      std::string collapsed;
      for (;;) {
        Result<common::BufferChain> chunk = body->Next();
        if (!chunk.ok()) {
          instruments_.upstream_errors->Increment();
          return ServeDegraded(request, chunk.status(), false, outcome);
        }
        if (chunk->empty()) break;
        chunk->AppendTo(collapsed);
      }
      instruments_.bytes_from_upstream->Increment(collapsed.size());
      instruments_.bytes_to_clients->Increment(collapsed.size());
      instruments_.passthrough->Increment();
      head.headers.Remove("Transfer-Encoding");
      head.body = std::move(collapsed);
      if (options_.proxy_headers) {
        StripHopByHop(head.headers);
        AppendVia(head.headers, options_.via_token);
      }
      *outcome = "passthrough";
      return head;
    }
    if (options_.proxy_headers) {
      StripHopByHop(head.headers);
      AppendVia(head.headers, options_.via_token);
    }
    // Re-framed as chunked by the hosting server.
    head.headers.Remove("Content-Length");
    head.headers.Remove("Transfer-Encoding");
    instruments_.passthrough->Increment();
    instruments_.streamed->Increment();
    instruments_.ttfb->Observe(MicrosToSeconds(clock_->NowMicros() - start));
    *outcome = "passthrough";
    head.body_stream =
        std::make_shared<PassthroughStream>(std::move(body), std::move(ctx));
    return head;
  }

  head.headers.Remove(bem::kTemplateHeader);
  head.headers.Remove("Content-Length");
  head.headers.Remove("Transfer-Encoding");
  if (options_.proxy_headers) {
    StripHopByHop(head.headers);
    AppendVia(head.headers, options_.via_token);
  }

  auto resolver = [this, base = request, request_id](
                      bem::DpcKey key) -> Result<FragmentRef> {
    if (options_.miss_resolver != nullptr) {
      // Cluster peer fill first; origin recovery only when the ring
      // owner cannot help either.
      Result<FragmentRef> peer = options_.miss_resolver(key);
      if (peer.ok()) {
        if (instruments_.peer_fills != nullptr) {
          instruments_.peer_fills->Increment();
        }
        return peer;
      }
    }
    return ResolveMiss(base, request_id, key);
  };
  StreamingAssembler assembler(store_, options_.scan_strategy,
                               std::move(resolver));

  // Prefetch: pull until the first assembled byte, end of template, or a
  // failure. Failures here are pre-commit — nothing has reached the
  // client yet — so they still yield a clean error response.
  common::BufferChain pending;
  size_t template_bytes = 0;
  bool complete = false;
  bool upstream_failed = false;
  Status failure = Status::Ok();
  while (pending.empty()) {
    // Pre-commit chunk boundary: nothing has reached the client yet, so
    // injected faults must still produce a clean error response —
    // garbage as a template error (502), the rest as upstream failures
    // (degraded/502).
    if (chaos::FaultDecision fault = chaos::ApplyDelay(
            DYNAPROX_FAULT_POINT("dpc.stream.prefetch")->Evaluate());
        static_cast<bool>(fault) &&
        fault.action != chaos::FaultAction::kDelayMs) {
      if (fault.action == chaos::FaultAction::kGarbage) {
        failure = Status::Corruption("chaos:dpc.stream.prefetch garbage");
      } else {
        failure = Status::Unavailable(
            std::string("chaos:dpc.stream.prefetch injected ") +
            chaos::FaultActionName(fault.action));
        upstream_failed = true;
      }
      break;
    }
    Result<common::BufferChain> chunk = body->Next();
    if (!chunk.ok()) {
      failure = chunk.status();
      upstream_failed = true;
      break;
    }
    if (chunk->empty()) {
      failure = assembler.Finish(pending);
      complete = true;
      break;
    }
    template_bytes += chunk->size();
    instruments_.bytes_from_upstream->Increment(chunk->size());
    if (options_.max_template_bytes != 0 &&
        template_bytes > options_.max_template_bytes) {
      failure = Status::CapacityExceeded(
          "template exceeds limit: " + std::to_string(template_bytes) +
          " > " + std::to_string(options_.max_template_bytes));
      break;
    }
    for (const common::BufferChain::Slice& slice : chunk->slices()) {
      failure = assembler.Feed(slice.buffer, slice.view(), pending);
      if (!failure.ok()) break;
    }
    if (!failure.ok()) break;
  }
  if (upstream_failed) {
    instruments_.upstream_errors->Increment();
    return ServeDegraded(request, failure, false, outcome);
  }
  if (!failure.ok()) {
    instruments_.template_errors->Increment();
    *outcome = "template_error";
    return http::Response::MakeError(
        502, "Bad Gateway", "template error: " + failure.ToString());
  }
  if (complete) {
    // Whole template consumed during prefetch (in-process upstreams and
    // small templates): serve buffered — byte-identical to the streamed
    // form, minus the chunked framing.
    instruments_.stream_fallbacks->Increment();
    instruments_.assembled->Increment();
    instruments_.bytes_to_clients->Increment(pending.size());
    instruments_.body_bytes_copied->Increment(
        assembler.progress().bytes_copied);
    instruments_.body_bytes_referenced->Increment(
        assembler.progress().bytes_referenced);
    head.body.clear();
    head.body_chain = std::move(pending);
    *outcome = "assembled";
    return head;
  }
  // Commit: the head and `pending` go to the client now, while the
  // template tail is still arriving.
  instruments_.streamed->Increment();
  instruments_.ttfb->Observe(MicrosToSeconds(clock_->NowMicros() - start));
  *outcome = "streamed";
  head.body_stream = std::make_shared<AssemblingStream>(
      std::move(body), std::move(assembler), std::move(pending),
      template_bytes, std::move(ctx));
  return head;
}

}  // namespace dynaprox::dpc

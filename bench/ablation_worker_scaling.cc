// Ablation: BEM directory contention under concurrent ingress
// (docs/threading-model.md). upstream_concurrency's load shape —
// concurrent client threads, each on its own keep-alive connection, with
// a per-request latency histogram — against a real BEM-backed origin
// behind a TcpServer. Sweeps the client threads over {1, 2, 4, 8} with
// the total request count held fixed, so parallel pages served on
// different connection threads exercise the striped cache directory.
// The contended-lock counters say whether the striping holds up, which
// wall-clock on a small host cannot; latency is reported for context.
//
// Exits non-zero if any request fails, so the sweep doubles as a
// correctness check for concurrent page serving.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "appserver/origin_server.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "bench_util.h"
#include "common/metrics.h"
#include "net/tcp.h"
#include "storage/table.h"

using namespace dynaprox;

namespace {

constexpr int kTotalRequests = 320;
constexpr int kPages = 8;

// Runs the storm with `clients` threads; false if any request failed.
bool RunConfig(int clients) {
  storage::ContentRepository repository;
  appserver::ScriptRegistry scripts;
  for (int p = 0; p < kPages; ++p) {
    scripts.RegisterOrReplace(
        "/page/" + std::to_string(p), [p](appserver::ScriptContext& ctx) {
          ctx.Emit("[p]");
          Status status = ctx.CacheableBlock(
              bem::FragmentId("wrk", {{"n", std::to_string(p)}}),
              [](appserver::ScriptContext& c) {
                c.Emit("fragment-body");
                return Status::Ok();
              });
          ctx.Emit("[/p]");
          return status;
        });
  }
  bem::BemOptions bem_options;
  bem_options.capacity = 64;
  auto monitor = *bem::BackEndMonitor::Create(bem_options);
  monitor->AttachRepository(&repository);
  appserver::OriginServer origin(&scripts, &repository, monitor.get(), {});
  net::TcpServer server([&origin](const http::Request& request) {
    return origin.Handle(request);
  });
  if (!server.Start().ok()) {
    std::fprintf(stderr, "Start failed at clients=%d\n", clients);
    return false;
  }
  const int per_client = kTotalRequests / clients;
  metrics::LatencyHistogram latencies(benchutil::LatencyMsBounds());
  std::atomic<uint64_t> ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::TcpClientTransport client("127.0.0.1", server.port());
      for (int i = 0; i < per_client; ++i) {
        http::Request request;
        request.target = "/page/" + std::to_string((c + i) % kPages);
        auto start = std::chrono::steady_clock::now();
        Result<http::Response> response = client.RoundTrip(request);
        auto elapsed = std::chrono::steady_clock::now() - start;
        if (response.ok() && response->status_code == 200) {
          ++ok;
          latencies.Observe(
              std::chrono::duration<double, std::milli>(elapsed).count());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();
  metrics::LatencyHistogram::Snapshot h = latencies.snapshot();
  bem::CacheDirectory::ConcurrencyStats dir =
      monitor->directory().concurrency_stats();
  std::printf("%8d %8llu %10.2f %10.2f %10llu %10llu %10llu %8llu\n",
              clients, static_cast<unsigned long long>(ok.load()),
              h.mean(), h.Percentile(0.99),
              static_cast<unsigned long long>(
                  monitor->directory().stats().hits),
              static_cast<unsigned long long>(dir.stripe_contentions),
              static_cast<unsigned long long>(dir.policy_contentions),
              static_cast<unsigned long long>(dir.insert_races));
  return ok.load() == static_cast<uint64_t>(per_client * clients);
}

}  // namespace

int main() {
  std::printf("=== Ablation: BEM contention under concurrent ingress ===\n");
  std::printf(
      "%d keep-alive requests per config split across the client threads, "
      "against a BEM-backed origin (%d pages, one cacheable block each); "
      "latency is reported for context, contention counters are the "
      "evidence\n\n",
      kTotalRequests, kPages);
  std::printf("%8s %8s %10s %10s %10s %10s %10s %8s\n", "clients", "ok",
              "mean(ms)", "p99(ms)", "dir hits", "stripe c", "policy c",
              "races");
  bool all_ok = true;
  for (int clients : {1, 2, 4, 8}) all_ok = RunConfig(clients) && all_ok;
  std::printf(
      "\nstripe contentions staying near zero as client threads grow is "
      "the striping evidence; policy contentions count hits that waited "
      "on the global replacement-policy lock.\n");
  if (!all_ok) {
    std::fprintf(stderr, "concurrent page serving FAILED\n");
    return 1;
  }
  return 0;
}

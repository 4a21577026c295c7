// Shared pieces of the end-to-end benchmark: the site shape a workload
// runs, the per-response correctness check, keep-alive load loops
// (closed and open), Prometheus scrapes, and small statistics helpers.
// Used by perfbench_gen (drives the two tools over loopback) and
// perfbench_trace (the traced in-process stack).
#ifndef DYNAPROX_PERFBENCH_BENCH_COMMON_H_
#define DYNAPROX_PERFBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "http/message.h"
#include "net/tcp.h"

namespace dynaprox::perfbench {

// The site-shape flags both tools and the generator share; everything
// else stays at the tools' defaults.
struct SiteShape {
  int pages = 10;
  int fragments = 4;
  int fragment_size = 1000;
  double hit_ratio = 1.0;
  int capacity = 4096;
  double alpha = 1.0;  // Client-side Zipf popularity.
  uint64_t seed = 1;

  static Result<SiteShape> FromFlags(const Flags& flags);
};

// Checks one assembled page: exactly fragments * fragment-size bytes,
// fragment i starts with the <div id="s<slot>" of the page's i-th slot
// (slot = (page * fragments + i) mod (pages * fragments), the layout
// workload::SyntheticSite::SlotFor uses without a shared pool), and no
// DPC tag byte (STX) is left anywhere in the body.
class BodyChecker {
 public:
  explicit BodyChecker(const SiteShape& shape);
  bool Check(int page, std::string_view body) const;

 private:
  SiteShape shape_;
  std::vector<std::vector<std::string>> prefixes_;  // [page][fragment].
};

// Outcome of one load phase. Latencies are nanoseconds.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;             // 2xx with a correct body.
  uint64_t transport_errors = 0;
  uint64_t http_errors = 0;    // Non-2xx.
  uint64_t wrong_bodies = 0;
  double seconds = 0;          // Wall time of the phase.
  std::vector<int64_t> service_ns;  // Send -> response, per request.
  std::vector<int64_t> due_ns;      // Due -> response (open loop only).
  std::vector<int64_t> lag_ns;      // Due -> send (open loop only).

  uint64_t failed() const {
    return transport_errors + http_errors + wrong_bodies;
  }
  void Merge(PhaseResult other);
};

// Per-request hook for the traced run: called with the request's id
// (0 when ids are off) around each round trip.
struct RequestHooks {
  // Adds an X-DPC-Request-Id header (a decimal id, unique per request)
  // to every request when set.
  bool tag_request_ids = false;
  std::function<void(uint64_t id, int64_t start_ns, int64_t end_ns)>
      on_complete;
};

// The request stream of a load phase: each thread draws Zipf(alpha) pages
// from its own generator seeded from `seed` and the thread index.
struct LoadSpec {
  int pages = 10;
  double alpha = 1.0;
  uint64_t seed = 1;
};

// One keep-alive connection per load thread, kept for every window and
// phase of a run so no timed request pays for a connect or a cold socket.
using Connections = std::vector<std::unique_ptr<net::TcpClientTransport>>;
Connections Connect(uint16_t port, int count);

// Closed loop: every thread sends its next request on its connection as
// soon as the previous one completes, for `seconds`.
PhaseResult RunClosedLoop(Connections& connections, const LoadSpec& spec,
                          const BodyChecker& checker, double seconds,
                          const RequestHooks& hooks = {});

// Open loop at `rate` requests/s for `seconds`: request k is due at
// start + k / rate, the next free connection takes the next due slot, and
// latency is measured from the due time, so a stall that keeps every
// connection busy also charges the requests queued behind it. Threads
// sleep with 1 ns timer slack.
PhaseResult RunOpenLoop(Connections& connections, const LoadSpec& spec,
                        const BodyChecker& checker, double rate,
                        double seconds, const RequestHooks& hooks = {});

// Sequential pass on a fresh connection: every page once in page order
// (the cold fill), then `extra` Zipf requests.
PhaseResult RunWarmup(uint16_t port, const LoadSpec& spec,
                      const BodyChecker& checker, int extra);

using Series = std::map<std::string, double>;

// Scrapes /_dynaprox/metrics on 127.0.0.1:`port` into series -> value.
// Labeled series keep their label set in the key.
Result<Series> Scrape(uint16_t port);

// Both tiers' exposition, taken together at one phase boundary.
struct Scrapes {
  Series proxy;
  Series origin;
};
Result<Scrapes> ScrapeBoth(uint16_t proxy_port, uint16_t origin_port);

// The two conservation laws of a timed phase: the DPC counted exactly the
// client's requests (scrapes are not counted), and the bytes the DPC
// received from upstream equal the body bytes the origin sent. Appends a
// line per violation to `violations`.
void CheckConservation(const std::string& phase, const Scrapes& before,
                       const Scrapes& after, uint64_t client_requests,
                       std::vector<std::string>& violations);

// value(after) - value(before) for `name` (0 when absent in both).
double Delta(const Series& before, const Series& after,
             const std::string& name);

// Nearest-rank percentile of `values` (sorted in place); q in [0, 1].
double Percentile(std::vector<int64_t>& values, double q);
double Mean(const std::vector<int64_t>& values);

int64_t NowNs();  // steady_clock (CLOCK_MONOTONIC) nanoseconds.

}  // namespace dynaprox::perfbench

#endif  // DYNAPROX_PERFBENCH_BENCH_COMMON_H_

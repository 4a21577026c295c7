#include "bench_common.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "bem/protocol.h"
#include "bem/tag_codec.h"
#include "common/rng.h"
#include "net/tcp.h"

namespace dynaprox::perfbench {
namespace {

constexpr MicroTime kClientIoTimeoutMicros = 10 * kMicrosPerSecond;

// The n-th request (n from 1) of a thread gets id thread * kIdStride + n,
// unique across the threads of one phase and never 0.
constexpr uint64_t kIdStride = 1'000'000'000ULL;

http::Request PageRequest(int page) {
  http::Request request;
  request.method = "GET";
  request.target = "/page?id=" + std::to_string(page);
  request.headers.Add("Host", "www.booksonline.example");
  return request;
}

std::unique_ptr<net::TcpClientTransport> Dial(uint16_t port) {
  net::TcpClientOptions options;
  options.io_timeout_micros = kClientIoTimeoutMicros;
  return std::make_unique<net::TcpClientTransport>("127.0.0.1", port,
                                                   options);
}

// One round trip of the load loops: sends page `page`, classifies the
// answer into `result`, and returns the completion time.
int64_t Exchange(net::TcpClientTransport& client, const BodyChecker& checker,
                 const RequestHooks& hooks, int page, uint64_t id,
                 int64_t start_ns, PhaseResult& result) {
  http::Request request = PageRequest(page);
  if (hooks.tag_request_ids) {
    request.headers.Set(bem::kRequestIdHeader, std::to_string(id));
  }
  ++result.attempted;
  Result<http::Response> response = client.RoundTrip(request);
  int64_t end_ns = NowNs();
  if (hooks.on_complete) hooks.on_complete(id, start_ns, end_ns);
  result.service_ns.push_back(end_ns - start_ns);
  if (!response.ok()) {
    ++result.transport_errors;
  } else if (response->status_code < 200 || response->status_code >= 300) {
    ++result.http_errors;
  } else if (!checker.Check(page, response->BodyText())) {
    ++result.wrong_bodies;
  } else {
    ++result.ok;
  }
  return end_ns;
}

void SleepUntil(int64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000LL);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000LL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// Runs `body(thread_index, result)` on `threads` threads and merges.
PhaseResult RunThreads(int threads,
                       const std::function<void(int, PhaseResult&)>& body) {
  std::vector<PhaseResult> partial(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(partial.size());
  int64_t start = NowNs();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(body, t, std::ref(partial[static_cast<size_t>(t)]));
  }
  for (std::thread& worker : workers) worker.join();
  PhaseResult merged;
  for (PhaseResult& part : partial) merged.Merge(std::move(part));
  merged.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return merged;
}

}  // namespace

Result<SiteShape> SiteShape::FromFlags(const Flags& flags) {
  SiteShape shape;
  Result<int64_t> pages = flags.GetInt("pages", shape.pages);
  Result<int64_t> fragments = flags.GetInt("fragments", shape.fragments);
  Result<int64_t> fragment_size =
      flags.GetInt("fragment-size", shape.fragment_size);
  Result<int64_t> capacity = flags.GetInt("capacity", shape.capacity);
  Result<int64_t> seed = flags.GetInt("seed", 1);
  Result<double> hit_ratio = flags.GetDouble("hit-ratio", shape.hit_ratio);
  Result<double> alpha = flags.GetDouble("alpha", shape.alpha);
  for (const auto* r : {&pages, &fragments, &fragment_size, &capacity,
                        &seed}) {
    if (!r->ok()) return r->status();
  }
  if (!hit_ratio.ok()) return hit_ratio.status();
  if (!alpha.ok()) return alpha.status();
  // The body check needs every fragment to carry its <div id=...> head.
  if (*pages < 1 || *fragments < 1 || *fragment_size < 32 ||
      *capacity < 1) {
    return Status::InvalidArgument(
        "need pages >= 1, fragments >= 1, fragment-size >= 32, "
        "capacity >= 1");
  }
  shape.pages = static_cast<int>(*pages);
  shape.fragments = static_cast<int>(*fragments);
  shape.fragment_size = static_cast<int>(*fragment_size);
  shape.capacity = static_cast<int>(*capacity);
  shape.seed = static_cast<uint64_t>(*seed);
  shape.hit_ratio = *hit_ratio;
  shape.alpha = *alpha;
  return shape;
}

BodyChecker::BodyChecker(const SiteShape& shape) : shape_(shape) {
  const int slots = shape.pages * shape.fragments;
  prefixes_.resize(static_cast<size_t>(shape.pages));
  for (int page = 0; page < shape.pages; ++page) {
    for (int index = 0; index < shape.fragments; ++index) {
      int slot = (page * shape.fragments + index) % slots;
      prefixes_[static_cast<size_t>(page)].push_back(
          "<div id=\"s" + std::to_string(slot) + "\"");
    }
  }
}

bool BodyChecker::Check(int page, std::string_view body) const {
  const size_t size = static_cast<size_t>(shape_.fragment_size);
  if (page < 0 || page >= shape_.pages ||
      body.size() != size * static_cast<size_t>(shape_.fragments)) {
    return false;
  }
  const std::vector<std::string>& prefixes =
      prefixes_[static_cast<size_t>(page)];
  for (size_t index = 0; index < prefixes.size(); ++index) {
    if (body.compare(index * size, prefixes[index].size(),
                     prefixes[index]) != 0) {
      return false;
    }
  }
  return std::memchr(body.data(), bem::TagCodec::kStx, body.size()) ==
         nullptr;
}

void PhaseResult::Merge(PhaseResult other) {
  attempted += other.attempted;
  ok += other.ok;
  transport_errors += other.transport_errors;
  http_errors += other.http_errors;
  wrong_bodies += other.wrong_bodies;
  seconds += other.seconds;
  for (auto [into, from] : {std::pair{&service_ns, &other.service_ns},
                            std::pair{&due_ns, &other.due_ns},
                            std::pair{&lag_ns, &other.lag_ns}}) {
    into->insert(into->end(), from->begin(), from->end());
  }
}

Connections Connect(uint16_t port, int count) {
  Connections connections;
  for (int i = 0; i < count; ++i) connections.push_back(Dial(port));
  return connections;
}

PhaseResult RunClosedLoop(Connections& connections, const LoadSpec& spec,
                          const BodyChecker& checker, double seconds,
                          const RequestHooks& hooks) {
  const int64_t end_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const int threads = static_cast<int>(connections.size());
  return RunThreads(threads, [&](int thread, PhaseResult& result) {
    net::TcpClientTransport& client = *connections[thread];
    ZipfSampler pages(static_cast<size_t>(spec.pages), spec.alpha);
    Rng rng(spec.seed * 7919 + static_cast<uint64_t>(thread));
    uint64_t sequence = 0;
    int64_t now = NowNs();
    while (now < end_ns) {
      int page = static_cast<int>(pages.Sample(rng));
      uint64_t id = static_cast<uint64_t>(thread) * kIdStride + ++sequence;
      now = Exchange(client, checker, hooks, page, id, now, result);
    }
  });
}

PhaseResult RunOpenLoop(Connections& connections, const LoadSpec& spec,
                        const BodyChecker& checker, double rate,
                        double seconds, const RequestHooks& hooks) {
  const int threads = static_cast<int>(connections.size());
  // Every thread starts from the same schedule origin, a little ahead so
  // thread creation does not count as lag.
  const int64_t origin_ns = NowNs() + 2'000'000;
  const double interval_ns = 1e9 / rate;
  const int64_t slots = static_cast<int64_t>(std::floor(seconds * rate));
  // The next unclaimed due slot. A thread claims a slot only when its
  // connection is free, so one slow response does not hold back the slots
  // behind it while other connections are idle.
  std::atomic<int64_t> next_slot{0};
  return RunThreads(threads, [&](int thread, PhaseResult& result) {
    // Default timer slack (50 us) would add up to that much wake-up lag
    // to every scheduled send.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    net::TcpClientTransport& client = *connections[thread];
    ZipfSampler pages(static_cast<size_t>(spec.pages), spec.alpha);
    Rng rng(spec.seed * 7919 + 104729 + static_cast<uint64_t>(thread));
    const size_t expected = static_cast<size_t>(slots / threads + 1);
    result.service_ns.reserve(expected);
    result.due_ns.reserve(expected);
    result.lag_ns.reserve(expected);
    uint64_t sequence = 0;
    for (int64_t slot = next_slot++; slot < slots; slot = next_slot++) {
      const int64_t due =
          origin_ns + static_cast<int64_t>(static_cast<double>(slot) *
                                           interval_ns);
      if (NowNs() < due) SleepUntil(due);
      int page = static_cast<int>(pages.Sample(rng));
      uint64_t id = static_cast<uint64_t>(thread) * kIdStride + ++sequence;
      int64_t send = NowNs();
      int64_t done = Exchange(client, checker, hooks, page, id, send, result);
      result.lag_ns.push_back(send - due);
      result.due_ns.push_back(done - due);
    }
  });
}

PhaseResult RunWarmup(uint16_t port, const LoadSpec& spec,
                      const BodyChecker& checker, int extra) {
  int64_t start = NowNs();
  PhaseResult result;
  std::unique_ptr<net::TcpClientTransport> client = Dial(port);
  ZipfSampler pages(static_cast<size_t>(spec.pages), spec.alpha);
  Rng rng(spec.seed * 7919 + 15485863);
  RequestHooks no_hooks;
  for (int i = 0; i < spec.pages + extra; ++i) {
    int page = i < spec.pages ? i : static_cast<int>(pages.Sample(rng));
    Exchange(*client, checker, no_hooks, page, 0, NowNs(), result);
  }
  result.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return result;
}

Result<Series> Scrape(uint16_t port) {
  std::unique_ptr<net::TcpClientTransport> client = Dial(port);
  http::Request request;
  request.method = "GET";
  request.target = "/_dynaprox/metrics";
  request.headers.Add("Host", "127.0.0.1");
  Result<http::Response> response = client->RoundTrip(request);
  if (!response.ok()) return response.status();
  if (response->status_code != 200) {
    return Status::Internal("metrics scrape: HTTP " +
                            std::to_string(response->status_code));
  }
  Series series;
  std::string text = response->BodyText();
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    if (line.empty() || line.front() == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    series[std::string(line.substr(0, space))] =
        std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return series;
}

Result<Scrapes> ScrapeBoth(uint16_t proxy_port, uint16_t origin_port) {
  Result<Series> proxy = Scrape(proxy_port);
  if (!proxy.ok()) return proxy.status();
  Result<Series> origin = Scrape(origin_port);
  if (!origin.ok()) return origin.status();
  return Scrapes{std::move(*proxy), std::move(*origin)};
}

void CheckConservation(const std::string& phase, const Scrapes& before,
                       const Scrapes& after, uint64_t client_requests,
                       std::vector<std::string>& violations) {
  double dpc_requests =
      Delta(before.proxy, after.proxy, "dynaprox_requests_total");
  if (dpc_requests != static_cast<double>(client_requests)) {
    violations.push_back(phase + ": client sent " +
                         std::to_string(client_requests) +
                         " requests, DPC counted " +
                         std::to_string(dpc_requests));
  }
  double from_upstream =
      Delta(before.proxy, after.proxy, "dynaprox_bytes_from_upstream_total");
  double origin_sent = Delta(before.origin, after.origin,
                             "dynaprox_origin_body_bytes_sent_total");
  if (from_upstream != origin_sent) {
    violations.push_back(phase + ": DPC received " +
                         std::to_string(from_upstream) +
                         " upstream bytes, origin sent " +
                         std::to_string(origin_sent));
  }
}

double Delta(const Series& before, const Series& after,
             const std::string& name) {
  auto value = [&name](const Series& m) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

double Percentile(std::vector<int64_t>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[rank == 0 ? 0 : rank - 1]);
}

double Mean(const std::vector<int64_t>& values) {
  if (values.empty()) return 0;
  long double sum = 0;
  for (int64_t v : values) sum += v;
  return static_cast<double>(sum / values.size());
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace dynaprox::perfbench

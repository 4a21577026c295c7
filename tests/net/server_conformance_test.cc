// Connection-lifecycle conformance for TcpServer over net::ConnectionCore,
// over raw sockets:
//
//   - keep-alive connections are reused, not re-accepted;
//   - pipelined requests are answered in order, also when the client
//     half-closes right after sending them, and a large response queued
//     at the half-close still flushes in full;
//   - a malformed request gets 400 and a close; "Connection: close" is
//     honoured after the response;
//   - the header deadline resets on a clean message boundary (a quiet
//     keep-alive gap is not a slowloris) but holds for partial messages;
//   - the connection cap counts the server's own connections, never a
//     shared IngressCounters gauge;
//   - Stop(drain) finishes the in-flight request, answers it with
//     "Connection: close", and counts the connection drained — even
//     when the drain begins while the handler is still running;
//   - one fd-exhaustion outage is one episode, even when a single accept
//     succeeds in its middle.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/parser.h"
#include "net/connection_core.h"
#include "net/tcp.h"

namespace dynaprox::net {
namespace {

http::Response EchoHandler(const http::Request& request) {
  return http::Response::MakeOk("path=" + std::string(request.Path()));
}

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Reads one complete response off `fd` (bounded wait), or nullopt.
std::optional<http::Response> ReadOneResponse(int fd) {
  http::ResponseReader reader;
  char buf[8192];
  for (int i = 0; i < 400; ++i) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 25) <= 0) continue;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
    if (auto next = reader.Next(); next.has_value() && next->ok()) {
      return next->value();
    }
  }
  return std::nullopt;
}

// True once the peer closes `fd` within ~2.5 s. A close that races
// bytes still in the server's receive buffer surfaces as ECONNRESET
// rather than a clean FIN; both count as closed here.
bool WaitForEof(int fd) {
  char buf[4096];
  for (int i = 0; i < 100; ++i) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 25) <= 0) continue;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET;
  }
  return false;
}

TEST(ServerConformanceTest, KeepAliveReusesOneConnection) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  TcpClientTransport client("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) {
    http::Request request;
    request.target = "/r" + std::to_string(i);
    Result<http::Response> response = client.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "path=/r" + std::to_string(i));
  }
  EXPECT_EQ(server.ingress().accepted_total.load(), 1u);
  server.Stop();
}

// Everything the server sends on `fd` until it closes the connection.
std::string ReadUntilClose(int fd) {
  std::string received;
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return received;
    received.append(buf, static_cast<size_t>(n));
  }
}

// Every complete response in `wire`, in order.
std::vector<http::Response> ParseResponses(std::string_view wire) {
  http::ResponseReader reader;
  reader.Feed(wire);
  std::vector<http::Response> responses;
  while (auto next = reader.Next()) {
    if (!next->ok()) break;
    responses.push_back(next->value());
  }
  return responses;
}

TEST(ServerConformanceTest, PipelinedRequestsAnsweredInOrder) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  // Two requests in one write.
  http::Request a;
  a.target = "/a";
  http::Request b;
  b.target = "/b";
  std::string wire = a.Serialize() + b.Serialize();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  // Both responses may arrive in one read: parse them off one reader.
  http::ResponseReader reader;
  std::vector<std::string> bodies;
  char buf[4096];
  while (bodies.size() < 2) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
    while (auto next = reader.Next()) {
      ASSERT_TRUE(next->ok());
      bodies.push_back(next->value().body);
    }
  }
  EXPECT_EQ(bodies[0], "path=/a");
  EXPECT_EQ(bodies[1], "path=/b");
  ::close(fd);
  server.Stop();
}

TEST(ServerConformanceTest, PipelinedRequestsServedAfterClientHalfClose) {
  // Pipelined requests that arrive in the same read burst as the EOF
  // must still be answered before the server closes.
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  http::Request a;
  a.target = "/a";
  http::Request b;
  b.target = "/b";
  std::string wire = a.Serialize() + b.Serialize();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  // Half-close right away so requests and EOF land together server-side.
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::vector<http::Response> responses = ParseResponses(ReadUntilClose(fd));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "path=/a");
  EXPECT_EQ(responses[1].body, "path=/b");
  ::close(fd);
  server.Stop();
}

TEST(ServerConformanceTest, LargeResponseFlushedAfterClientHalfClose) {
  // EOF with a large response still queued: the server finishes the
  // flush before it closes rather than dropping the output.
  const std::string big(2 * 1024 * 1024, 'Y');
  TcpServer server(
      [&](const http::Request&) { return http::Response::MakeOk(big); });
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  std::string wire = http::Request{}.Serialize();
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::vector<http::Response> responses = ParseResponses(ReadUntilClose(fd));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body.size(), big.size());
  ::close(fd);
  server.Stop();
}

TEST(ServerConformanceTest, MalformedRequestGets400AndClose) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  const char kBad[] = "NOT HTTP AT ALL\r\n\r\n";
  ASSERT_GT(::send(fd, kBad, sizeof(kBad) - 1, 0), 0);
  // The server closes after the 400.
  EXPECT_NE(ReadUntilClose(fd).find("400 Bad Request"), std::string::npos);
  ::close(fd);
  server.Stop();
}

TEST(ServerConformanceTest, ConnectionCloseHeaderHonored) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  http::Request request;
  request.target = "/x";
  request.headers.Add("Connection", "close");
  std::string wire = request.Serialize();
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  // Full response, then EOF.
  std::vector<http::Response> responses = ParseResponses(ReadUntilClose(fd));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "path=/x");
  EXPECT_EQ(responses[0].headers.Get("Connection").value_or(""), "close");
  ::close(fd);
  server.Stop();
}

TEST(ServerConformanceTest, HeaderDeadlineResetsOnCleanBoundary) {
  ServerLimits limits;
  limits.header_timeout_micros = 200 * kMicrosPerMilli;
  TcpServer server(EchoHandler, 0, limits);
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);

  // Complete request, then a keep-alive gap much longer than the header
  // budget: the deadline clock reset on the clean boundary, so the
  // connection must survive and serve a second request.
  http::Request first;
  first.target = "/first";
  std::string wire = first.Serialize();
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  ASSERT_TRUE(ReadOneResponse(fd).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  http::Request second;
  second.target = "/second";
  wire = second.Serialize();
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  std::optional<http::Response> response = ReadOneResponse(fd);
  ASSERT_TRUE(response.has_value())
      << "keep-alive gap tripped the header deadline";
  EXPECT_EQ(response->body, "path=/second");
  EXPECT_EQ(server.ingress().header_timeouts.load(), 0u);

  // A partial message keeps its original clock: one unfinished header
  // line is a slowloris, reaped at the deadline.
  const char kPartial[] = "GET /slow HTTP/1.1\r\nX-Trickle: a";
  ASSERT_GT(::send(fd, kPartial, sizeof(kPartial) - 1, 0), 0);
  EXPECT_TRUE(WaitForEof(fd)) << "partial request not reaped";
  EXPECT_EQ(server.ingress().header_timeouts.load(), 1u);
  ::close(fd);
  server.Stop();
}

TEST(ServerConformanceTest, ConnectionCapCountsOwnConnectionsOnly) {
  // Two servers share one IngressCounters, each capped at 1. If either
  // enforced the cap against the shared gauge, the second server's
  // first client would be rejected by the other server's connection.
  IngressCounters shared;
  ServerLimits limits;
  limits.max_connections = 1;
  limits.counters = &shared;
  TcpServer a(EchoHandler, 0, limits);
  TcpServer b(EchoHandler, 0, limits);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());

  int on_a = ConnectTo(a.port());
  ASSERT_GE(on_a, 0);
  http::Request request;
  request.target = "/held";
  std::string wire = request.Serialize();
  ASSERT_GT(::send(on_a, wire.data(), wire.size(), 0), 0);
  ASSERT_TRUE(ReadOneResponse(on_a).has_value());

  // Server B must admit its own first connection despite the shared
  // gauge already being at 1 from server A.
  int on_b = ConnectTo(b.port());
  ASSERT_GE(on_b, 0);
  ASSERT_GT(::send(on_b, wire.data(), wire.size(), 0), 0);
  EXPECT_TRUE(ReadOneResponse(on_b).has_value())
      << "cap enforced against the shared gauge, not the server's own";
  EXPECT_EQ(shared.connection_limit_rejections.load(), 0u);

  // A second connection to A (its one slot held by on_a) is rejected:
  // closed without a response.
  int overflow = ConnectTo(a.port());
  ASSERT_GE(overflow, 0);
  ASSERT_GT(::send(overflow, wire.data(), wire.size(), 0), 0);
  EXPECT_TRUE(WaitForEof(overflow));
  EXPECT_EQ(shared.connection_limit_rejections.load(), 1u);

  ::close(on_a);
  ::close(on_b);
  ::close(overflow);
  a.Stop();
  b.Stop();
}

TEST(ServerConformanceTest, DrainFinishesInflightAndCountsIt) {
  // The drain begins while the handler is still running; the response
  // must still go out, carry "Connection: close", close the connection,
  // and count toward drained_connections.
  TcpServer server(
      [](const http::Request& request) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return EchoHandler(request);
      });
  ASSERT_TRUE(server.Start().ok());
  int fd = ConnectTo(server.port());
  ASSERT_GE(fd, 0);
  http::Request request;
  request.target = "/inflight";
  std::string wire = request.Serialize();
  ASSERT_GT(::send(fd, wire.data(), wire.size(), 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  server.Stop(/*drain_timeout_micros=*/2 * kMicrosPerSecond);
  std::optional<http::Response> response = ReadOneResponse(fd);
  ASSERT_TRUE(response.has_value()) << "in-flight request lost to drain";
  EXPECT_EQ(response->body, "path=/inflight");
  EXPECT_EQ(response->headers.Get("Connection").value_or(""), "close");
  EXPECT_EQ(server.ingress().drained_connections.load(), 1u);
  ::close(fd);
}

TEST(ServerConformanceTest, DrainServesRequestBytesAlreadyBuffered) {
  // The request reaches the kernel socket buffer before the drain begins
  // but the server has not read it yet (the handler is busy with another
  // connection). Drain must treat it as in flight — served with
  // "Connection: close" — not reap the connection as idle.
  TcpServer server(
      [](const http::Request& request) {
        if (request.Path() == "/busy") {
          std::this_thread::sleep_for(std::chrono::milliseconds(250));
        }
        return EchoHandler(request);
      });
  ASSERT_TRUE(server.Start().ok());

  // Establish the victim connection with a round trip so it is a known,
  // served keep-alive connection before the busy request starts.
  int victim = ConnectTo(server.port());
  ASSERT_GE(victim, 0);
  http::Request warm;
  warm.target = "/warm";
  std::string wire = warm.Serialize();
  ASSERT_GT(::send(victim, wire.data(), wire.size(), 0), 0);
  ASSERT_TRUE(ReadOneResponse(victim).has_value());

  int busy = ConnectTo(server.port());
  ASSERT_GE(busy, 0);
  http::Request slow;
  slow.target = "/busy";
  wire = slow.Serialize();
  ASSERT_GT(::send(busy, wire.data(), wire.size(), 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Now the victim's request lands while the server is busy with /busy;
  // it may still sit unread in the socket buffer when the drain begins.
  http::Request parked;
  parked.target = "/parked";
  wire = parked.Serialize();
  ASSERT_GT(::send(victim, wire.data(), wire.size(), 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.Stop(/*drain_timeout_micros=*/3 * kMicrosPerSecond);

  std::optional<http::Response> response = ReadOneResponse(victim);
  ASSERT_TRUE(response.has_value()) << "buffered request lost to drain";
  EXPECT_EQ(response->body, "path=/parked");
  std::optional<http::Response> slow_response = ReadOneResponse(busy);
  ASSERT_TRUE(slow_response.has_value());
  EXPECT_EQ(slow_response->body, "path=/busy");
  ::close(victim);
  ::close(busy);
}

// Opens /dev/null until the fd table is full; returns the fds.
std::vector<int> FillFdTable() {
  std::vector<int> dummies;
  for (;;) {
    int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    dummies.push_back(fd);
  }
  return dummies;
}

void CloseOne(std::vector<int>& fds) {
  ::close(fds.back());
  fds.pop_back();
}

// Polls `done` every millisecond for up to ~2 s.
template <typename Pred>
bool WaitFor(Pred done) {
  for (int i = 0; i < 2000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(ServerConformanceTest, FlappingFdExhaustionIsOneEpisode) {
  // A starved client that gives up frees one fd, so one accept succeeds
  // in the middle of the outage and the next client fails again at once.
  // That is still one episode; only a quiet period of healthy accepts
  // ends it, after which the next outage counts again.
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  const IngressCounters& ingress = server.ingress();
  auto episodes = [&] {
    return ingress.accept_fd_exhaustion_episodes.load();
  };

  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  rlimit tight = original;
  tight.rlim_cur = 128;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  std::vector<int> dummies = FillFdTable();
  ASSERT_GE(dummies.size(), 3u);
  // Client A's socket takes the one free fd; the server's accept fails.
  CloseOne(dummies);
  int a = ConnectTo(server.port());
  ASSERT_GE(a, 0);
  ASSERT_TRUE(WaitFor([&] { return episodes() == 1; }));
  // One more free fd: the server accepts A mid-outage, filling the table.
  CloseOne(dummies);
  ASSERT_TRUE(WaitFor([&] { return ingress.accepted_total.load() == 1; }));
  // Client B takes the next free fd; the server's accept fails again.
  CloseOne(dummies);
  int b = ConnectTo(server.port());
  ASSERT_GE(b, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(episodes(), 1u) << "a mid-outage accept split the episode";

  // The outage ends. A healthy accept followed by the quiet period
  // re-arms the latch, so the next outage is a new episode.
  for (int fd : dummies) ::close(fd);
  ::close(a);
  ::close(b);
  int healthy = ConnectTo(server.port());
  ASSERT_GE(healthy, 0);
  ASSERT_TRUE(WaitFor([&] { return ingress.accepted_total.load() == 3; }));
  ::close(healthy);
  ASSERT_TRUE(WaitFor([&] { return ingress.open_connections.load() == 0; }));
  std::this_thread::sleep_for(std::chrono::microseconds(
      3 * AcceptGate::kFdExhaustionQuietMicros));
  dummies = FillFdTable();
  ASSERT_FALSE(dummies.empty());
  CloseOne(dummies);
  int c = ConnectTo(server.port());
  ASSERT_GE(c, 0);
  EXPECT_TRUE(WaitFor([&] { return episodes() == 2; }));
  for (int fd : dummies) ::close(fd);
  ::close(c);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);
  EXPECT_EQ(episodes(), 2u);
  server.Stop();
}

// The episode rule on a simulated clock, without sockets in the outage.
TEST(AcceptGateTest, QuietPeriodOfHealthyAcceptsEndsAnEpisode) {
  SimClock clock(kMicrosPerSecond);
  ServerLimits limits;
  IngressCounters counters;
  std::atomic<int64_t> live{0};
  AcceptGate gate({&limits, &counters, &live, "test", &clock});
  auto admit = [&] {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(gate.Admit(fds[0]));
    gate.OnConnectionClosed();
    ::close(fds[0]);
    ::close(fds[1]);
  };
  auto episodes = [&] {
    return counters.accept_fd_exhaustion_episodes.load();
  };

  EXPECT_EQ(gate.OnAcceptFailure(EMFILE), AcceptGate::FailureAction::kBackoff);
  EXPECT_EQ(gate.OnAcceptFailure(EMFILE), AcceptGate::FailureAction::kBackoff);
  EXPECT_EQ(episodes(), 1u);
  // Flap: one accept succeeds, the next fails soon after.
  admit();
  clock.AdvanceMicros(AcceptGate::kFdExhaustionQuietMicros / 2);
  gate.OnAcceptFailure(EMFILE);
  EXPECT_EQ(episodes(), 1u);
  // Healthy accepts across the quiet period end the episode.
  admit();
  clock.AdvanceMicros(AcceptGate::kFdExhaustionQuietMicros);
  admit();
  gate.OnAcceptFailure(ENFILE);
  EXPECT_EQ(episodes(), 2u);
  // An idle quiet period after one healthy accept ends it as well.
  admit();
  clock.AdvanceMicros(AcceptGate::kFdExhaustionQuietMicros);
  gate.OnAcceptFailure(EMFILE);
  EXPECT_EQ(episodes(), 3u);
  EXPECT_EQ(live.load(), 0);
}

}  // namespace
}  // namespace dynaprox::net

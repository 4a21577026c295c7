#include "net/connection_pool.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "net/tcp.h"

namespace dynaprox::net {
namespace {

http::Response EchoHandler(const http::Request& request) {
  return http::Response::MakeOk("path=" + std::string(request.Path()) +
                                ";body=" + request.body);
}

TEST(ConnectionPoolTest, SequentialRoundTripsReuseOneConnection) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  PooledClientTransport transport("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    http::Request request;
    request.target = "/r" + std::to_string(i);
    Result<http::Response> response = transport.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "path=/r" + std::to_string(i) + ";body=");
  }
  PoolStats stats = transport.pool().stats();
  EXPECT_EQ(stats.checkouts, 5u);
  EXPECT_EQ(stats.connects, 1u);
  EXPECT_EQ(stats.open_connections, 1);
  EXPECT_EQ(stats.idle_connections, 1);
  EXPECT_EQ(stats.wait_queue_depth, 0);
  server.Stop();
}

TEST(ConnectionPoolTest, ConcurrentCheckoutsFanOutUnderSlowOrigin) {
  TcpServer server([](const http::Request& request) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return EchoHandler(request);
  });
  ASSERT_TRUE(server.Start().ok());
  PooledTransportOptions options;
  options.pool.max_connections = 8;
  PooledClientTransport transport("127.0.0.1", server.port(), options);

  constexpr int kClients = 8;
  constexpr int kPerClient = 3;
  std::atomic<int> failures{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&transport, &failures, c] {
      for (int i = 0; i < kPerClient; ++i) {
        http::Request request;
        request.target = "/c" + std::to_string(c);
        Result<http::Response> response = transport.RoundTrip(request);
        if (!response.ok() ||
            response->body != "path=/c" + std::to_string(c) + ";body=") {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(failures.load(), 0);

  PoolStats stats = transport.pool().stats();
  EXPECT_EQ(stats.checkouts,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_GT(stats.connects, 1u);  // The load fanned out over connections.
  EXPECT_LE(stats.open_connections, 8);
  // Serialized, 24 requests at 20 ms each would take >= 480 ms. The pool
  // must do clearly better; allow generous slack for slow machines.
  double elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  EXPECT_LT(elapsed_ms, 400.0);
  server.Stop();
}

// Accepts one connection at a time, reads one request off it, optionally
// answers, then closes the connection. Counts connections.
class OneShotServer {
 public:
  // `respond_from`: the 0-based connection index from which the server
  // starts answering; earlier connections are closed without a response.
  explicit OneShotServer(int respond_from) : respond_from_(respond_from) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~OneShotServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }
  int connections() const { return connections_.load(); }

 private:
  void Serve() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // Listener closed by the destructor.
      int index = connections_.fetch_add(1);
      char buf[4096];
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // Drain the request.
      if (n > 0 && index >= respond_from_) {
        const char kResponse[] =
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        (void)!::send(fd, kResponse, sizeof(kResponse) - 1, MSG_NOSIGNAL);
      }
      ::close(fd);
    }
  }

  int respond_from_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<int> connections_{0};
  std::thread thread_;
};

TEST(ConnectionPoolTest, StaleIdleConnectionIsReplacedTransparently) {
  // Every connection serves exactly one response then closes, so the
  // checked-in connection is dead by the next checkout.
  OneShotServer server(/*respond_from=*/0);
  PooledClientTransport transport("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    http::Request request;
    request.target = "/r" + std::to_string(i);
    Result<http::Response> response = transport.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->body, "ok");
    // Let the server's close (FIN) land before the next checkout peeks.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  PoolStats stats = transport.pool().stats();
  EXPECT_EQ(stats.connects, 3u);
  EXPECT_GE(stats.stale_closed, 2u);
  EXPECT_GE(stats.reconnects, 2u);
}

TEST(ConnectionPoolTest, WaiterTimesOutWhenPoolIsHeld) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.checkout_timeout_micros = 50 * kMicrosPerMilli;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> held = pool.Checkout();
  ASSERT_TRUE(held.ok());
  Result<ConnectionPool::Connection> waiter = pool.Checkout();
  EXPECT_FALSE(waiter.ok());

  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.waiter_timeouts, 1u);
  EXPECT_EQ(stats.wait_queue_depth, 0);
  EXPECT_GE(stats.wait_micros.count, 1u);
  EXPECT_GE(stats.wait_micros.max, 40.0 * kMicrosPerMilli);

  // Returning the held connection makes the pool usable again.
  pool.Checkin(*held, /*reusable=*/true);
  Result<ConnectionPool::Connection> again = pool.Checkout();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->fresh);  // Reused the checked-in connection.
  pool.Checkin(*again, /*reusable=*/true);
  server.Stop();
}

TEST(ConnectionPoolTest, WaiterQueueBoundRejectsImmediately) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.max_waiters = 0;
  options.checkout_timeout_micros = kMicrosPerSecond;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> held = pool.Checkout();
  ASSERT_TRUE(held.ok());
  auto start = std::chrono::steady_clock::now();
  Result<ConnectionPool::Connection> rejected = pool.Checkout();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(rejected.ok());
  // Rejected by the bound, not by waiting out the checkout deadline.
  double elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  EXPECT_LT(elapsed_ms, 500.0);
  EXPECT_EQ(pool.stats().waiter_rejections, 1u);
  pool.Checkin(*held, /*reusable=*/false);
  server.Stop();
}

TEST(ConnectionPoolTest, WaiterIsReleasedByCheckin) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.checkout_timeout_micros = 2 * kMicrosPerSecond;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> held = pool.Checkout();
  ASSERT_TRUE(held.ok());
  std::thread releaser([&pool, &held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    pool.Checkin(*held, /*reusable=*/true);
  });
  Result<ConnectionPool::Connection> waited = pool.Checkout();
  releaser.join();
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_FALSE(waited->fresh);
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.waiter_timeouts, 0u);
  EXPECT_GE(stats.wait_micros.count, 1u);
  pool.Checkin(*waited, /*reusable=*/true);
  server.Stop();
}

TEST(ConnectionPoolTest, IdleConnectionsAreReaped) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.idle_timeout_micros = 5 * kMicrosPerMilli;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> conn = pool.Checkout();
  ASSERT_TRUE(conn.ok());
  pool.Checkin(*conn, /*reusable=*/true);
  EXPECT_EQ(pool.stats().idle_connections, 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pool.ReapIdle(), 1);
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.idle_connections, 0);
  EXPECT_EQ(stats.open_connections, 0);
  EXPECT_EQ(stats.idle_reaped, 1u);
  server.Stop();
}

TEST(ConnectionPoolTest, ConnectFailureSurfacesAndFreesTheSlot) {
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.connect_retry = {/*max_attempts=*/1, /*initial_backoff=*/0};
  // Port 1 on loopback: nothing listening.
  ConnectionPool pool("127.0.0.1", 1, options);
  EXPECT_FALSE(pool.Checkout().ok());
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.connect_failures, 1u);
  EXPECT_EQ(stats.open_connections, 0);  // The reserved slot was released.
}

TEST(ConnectionPoolTest, NonReusableCheckinClosesTheConnection) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPool pool("127.0.0.1", server.port());
  Result<ConnectionPool::Connection> conn = pool.Checkout();
  ASSERT_TRUE(conn.ok());
  pool.Checkin(*conn, /*reusable=*/false);
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.open_connections, 0);
  EXPECT_EQ(stats.idle_connections, 0);
  server.Stop();
}

TEST(ConnectionPoolTest, AllConnectionsStaleAfterOriginRestart) {
  // An origin crash kills every pooled keep-alive connection at once.
  // After a restart on the same port, the pool must notice each dead
  // idle connection at checkout and redial transparently.
  auto server = std::make_unique<TcpServer>(EchoHandler);
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();

  PooledTransportOptions options;
  options.pool.max_connections = 4;
  PooledClientTransport transport("127.0.0.1", port, options);

  // Open several connections by fanning out concurrent requests.
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&transport, &failures] {
      http::Request request;
      request.target = "/warm";
      if (!transport.RoundTrip(request).ok()) ++failures;
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  uint64_t connects_before = transport.pool().stats().connects;
  ASSERT_GE(connects_before, 1u);

  // Crash and restart the origin on the same port.
  server->Stop();
  server = std::make_unique<TcpServer>(EchoHandler, port);
  ASSERT_TRUE(server->Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Every request after the restart succeeds; each one that picked up a
  // dead idle connection replaced it with a fresh dial.
  for (int i = 0; i < 4; ++i) {
    http::Request request;
    request.target = "/after-restart";
    Result<http::Response> response = transport.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  PoolStats stats = transport.pool().stats();
  EXPECT_GE(stats.stale_closed, connects_before);
  EXPECT_GT(stats.connects, connects_before);
  server->Stop();
}

TEST(ConnectionPoolTest, CheckoutDuringDialBackoffWaitsForTheSlot) {
  // One slot, dead origin, dial policy with a real backoff: while the
  // first checkout sits in its connect backoff it holds the only slot.
  // A second checkout must queue behind it, get the slot once the dial
  // fails, and fail its own dial — no deadlock, no leaked slot.
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.connect_retry = {/*max_attempts=*/2,
                           /*initial_backoff_micros=*/50 * kMicrosPerMilli};
  options.checkout_timeout_micros = 2 * kMicrosPerSecond;
  // Port 1 on loopback: nothing listening.
  ConnectionPool pool("127.0.0.1", 1, options);

  std::thread first([&pool] { EXPECT_FALSE(pool.Checkout().ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Lands while the first dial is mid-backoff.
  Result<ConnectionPool::Connection> second = pool.Checkout();
  first.join();
  EXPECT_FALSE(second.ok());

  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.connect_failures, 2u);
  EXPECT_EQ(stats.open_connections, 0);  // Both reserved slots released.
  EXPECT_EQ(stats.wait_queue_depth, 0);

  // The pool still works once an origin appears.
  TcpServer late_origin(EchoHandler);
  ASSERT_TRUE(late_origin.Start().ok());
  ConnectionPool live("127.0.0.1", late_origin.port(), options);
  Result<ConnectionPool::Connection> conn = live.Checkout();
  ASSERT_TRUE(conn.ok());
  live.Checkin(*conn, /*reusable=*/false);
  late_origin.Stop();
}

TEST(ConnectionPoolTest, WaiterTimeoutAccountingUnderManyWaiters) {
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.checkout_timeout_micros = 50 * kMicrosPerMilli;
  ConnectionPool pool("127.0.0.1", server.port(), options);

  Result<ConnectionPool::Connection> held = pool.Checkout();
  ASSERT_TRUE(held.ok());

  constexpr int kWaiters = 3;
  std::atomic<int> timed_out{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&pool, &timed_out] {
      if (!pool.Checkout().ok()) ++timed_out;
    });
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(timed_out.load(), kWaiters);

  PoolStats stats = pool.stats();
  // Every waiter is accounted exactly once: a timeout counter bump and
  // a wait-duration sample, and the queue gauge drains back to zero.
  EXPECT_EQ(stats.waiter_timeouts, static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(stats.wait_micros.count, static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(stats.wait_queue_depth, 0);
  EXPECT_EQ(stats.waiter_rejections, 0u);

  pool.Checkin(*held, /*reusable=*/false);
  server.Stop();
}

TEST(PooledClientTransportTest, RetriesIdempotentRequestAfterServerClose) {
  // Connection 0 is dropped after the request; connection 1 answers. A
  // GET is safe to re-send, so the round trip succeeds transparently.
  OneShotServer server(/*respond_from=*/0);
  PooledClientTransport transport("127.0.0.1", server.port());
  http::Request first;
  first.target = "/warm";
  ASSERT_TRUE(transport.RoundTrip(first).ok());
  // The checked-in connection is now dead (server closed it); the next
  // round trip must recover without surfacing an error.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  http::Request second;
  second.target = "/after-close";
  Result<http::Response> response = transport.RoundTrip(second);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->body, "ok");
}

TEST(PooledClientTransportTest, DoesNotResendNonIdempotentRequest) {
  OneShotServer server(/*respond_from=*/1);
  PooledTransportOptions options;
  options.pool.idle_timeout_micros = 0;
  PooledClientTransport transport("127.0.0.1", server.port(), options);
  http::Request post;
  post.method = "POST";
  post.target = "/charge";
  post.body = "amount=1";
  Result<http::Response> response = transport.RoundTrip(post);
  EXPECT_FALSE(response.ok());
  // One connection, one delivery: the POST was not re-sent even though a
  // second attempt would have succeeded.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.connections(), 1);
}

// Index of the bucket that holds `value` (first bound >= value).
size_t BucketOf(double value) {
  const std::vector<double>& bounds = PoolWaitTimes::BoundsMicros();
  return static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) -
      bounds.begin());
}

TEST(ConnectionPoolTest, WaitTimesStayFixedSizeAndBucketAccurate) {
  // PoolStats is plain scalars: copying it (once per gauge per scrape)
  // costs the same after any number of blocked checkouts.
  static_assert(std::is_trivially_copyable_v<PoolStats>);
  static_assert(std::is_trivially_copyable_v<PoolWaitSummary>);

  // 10k waits spread evenly over 100 µs .. 1 s.
  constexpr int kWaits = 10000;
  PoolWaitTimes waits;
  for (int i = 1; i <= kWaits; ++i) waits.Record(i * MicroTime{100});
  PoolWaitSummary summary = waits.Summary();
  EXPECT_EQ(summary.count, static_cast<uint64_t>(kWaits));
  EXPECT_EQ(summary.max, kWaits * 100.0);
  // Each quantile lands in the bucket that holds the exact value.
  const double exact_p50 = kWaits / 2 * 100.0;
  const double exact_p99 = kWaits * 99 / 100 * 100.0;
  EXPECT_EQ(BucketOf(summary.p50), BucketOf(exact_p50)) << summary.p50;
  EXPECT_EQ(BucketOf(summary.p99), BucketOf(exact_p99)) << summary.p99;
  EXPECT_LE(summary.p99, summary.max);

  // The pool summarizes its own waits the same way.
  TcpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  ConnectionPoolOptions options;
  options.max_connections = 1;
  options.checkout_timeout_micros = 20 * kMicrosPerMilli;
  ConnectionPool pool("127.0.0.1", server.port(), options);
  Result<ConnectionPool::Connection> held = pool.Checkout();
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(pool.Checkout().ok());
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.wait_micros.count, 1u);
  EXPECT_GE(stats.wait_micros.max, 15.0 * kMicrosPerMilli);
  EXPECT_EQ(BucketOf(stats.wait_micros.p50), BucketOf(stats.wait_micros.max));
  pool.Checkin(*held, /*reusable=*/false);
  server.Stop();
}

}  // namespace
}  // namespace dynaprox::net

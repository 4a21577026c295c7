// Non-blocking epoll shell over net::ConnectionCore. All connection
// lifecycle policy (limits, deadlines, dispatch, flush, drain
// transitions) lives in the core; the workers here own sockets, epoll
// interest sets, and the listener-sharding / drain choreography.
#include "net/epoll_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <vector>

#include "common/logging.h"
#include "net/socket_util.h"

namespace dynaprox::net {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// epoll_wait timeout used when any deadline limit is configured (or a
// drain is in progress); otherwise the loop blocks indefinitely as before.
constexpr int kDeadlineTickMs = 25;

// Listener setup lives in socket_util (shared with TcpServer); only the
// backlog and flags differ per shell.
Result<int> OpenListener(bool reuseport, uint16_t* port) {
  ListenerOptions options;
  options.nonblocking = true;
  options.reuseport = reuseport;
  options.backlog = 256;
  return OpenLoopbackListener(port, options);
}

}  // namespace

// One event loop: owns an epoll instance, every connection accepted on
// it, and (when listener sharding is active) its own SO_REUSEPORT
// listening socket. Single-threaded by construction.
class EpollServer::Worker {
 public:
  Worker(EpollServer* server, int listen_fd, bool owns_listener,
         IngressCounters* mirror)
      : server_(server),
        listen_fd_(listen_fd),
        owns_listener_(owns_listener),
        mirror_(mirror) {}

  ~Worker() {
    for (auto& [fd, conn] : connections_) {
      server_->gate_.OnConnectionClosed(mirror_);
      ::close(fd);
    }
    if (owns_listener_ && listen_fd_ >= 0) ::close(listen_fd_);
    if (drain_fd_ >= 0) ::close(drain_fd_);
    if (stop_fd_ >= 0) ::close(stop_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Status Init() {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
    stop_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (stop_fd_ < 0) return ErrnoStatus("eventfd");
    drain_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (drain_fd_ < 0) return ErrnoStatus("eventfd");

    epoll_event listen_event{};
    // An owned SO_REUSEPORT listener has exactly one waiter, so
    // EPOLLEXCLUSIVE only matters for the shared-listener fallback
    // (without it every worker would wake per connection).
    listen_event.events =
        owns_listener_ ? EPOLLIN : (EPOLLIN | EPOLLEXCLUSIVE);
    listen_event.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event) <
        0) {
      return ErrnoStatus("epoll_ctl(listen)");
    }
    epoll_event stop_event{};
    stop_event.events = EPOLLIN;
    stop_event.data.fd = stop_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &stop_event) < 0) {
      return ErrnoStatus("epoll_ctl(stop)");
    }
    epoll_event drain_event{};
    drain_event.events = EPOLLIN;
    drain_event.data.fd = drain_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, drain_fd_, &drain_event) < 0) {
      return ErrnoStatus("epoll_ctl(drain)");
    }
    return Status::Ok();
  }

  void RequestStop() {
    uint64_t one = 1;
    ssize_t n = ::write(stop_fd_, &one, sizeof(one));
    (void)n;
  }

  void RequestDrain() {
    uint64_t one = 1;
    ssize_t n = ::write(drain_fd_, &one, sizeof(one));
    (void)n;
  }

  void Run() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    const ServerLimits& limits = server_->limits_;
    const bool timed = limits.header_timeout_micros > 0 ||
                       limits.idle_timeout_micros > 0 ||
                       limits.write_stall_micros > 0;
    for (;;) {
      int timeout_ms = (timed || draining_) ? kDeadlineTickMs : -1;
      int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      // The drain event is deferred to the end of the batch: accepts and
      // reads fetched in the same epoll_wait round represent work that
      // arrived before the drain, so it is served rather than refused.
      bool drain_requested = false;
      for (int i = 0; i < n; ++i) {
        int fd = events[i].data.fd;
        if (fd == stop_fd_) return;
        if (fd == drain_fd_) {
          drain_requested = true;
          continue;
        }
        if (fd == listen_fd_) {
          AcceptReady();
        } else {
          OnConnectionEvent(fd, events[i].events);
        }
      }
      if (drain_requested) BeginDrain();
      if (timed) SweepDeadlines();
      if (draining_ && connections_.empty()) return;
    }
  }

 private:
  struct Connection {
    explicit Connection(const ConnectionCore::Env& env)
        : core(ConnectionCore::Mode::kNonBlocking, env) {}
    ConnectionCore core;
    uint32_t interest = EPOLLIN;  // Current epoll interest set.
    bool peer_eof = false;
  };

  void AcceptReady() {
    for (;;) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        switch (server_->gate_.OnAcceptFailure(errno)) {
          case AcceptGate::FailureAction::kRetry:
            continue;
          case AcceptGate::FailureAction::kNoneReady:
            return;  // Backlog drained.
          case AcceptGate::FailureAction::kBackoff:
            // Episode counted by the gate; the level-triggered listener
            // re-notifies once fds free up.
            return;
          case AcceptGate::FailureAction::kFatal:
            DYNAPROX_LOG(kWarning, "epoll")
                << "accept4: " << std::strerror(errno);
            return;
        }
      }
      if (!server_->gate_.Admit(fd, mirror_)) continue;
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
        server_->gate_.OnConnectionClosed(mirror_);
        ::close(fd);
        continue;
      }
      connections_.try_emplace(
          fd,
          ConnectionCore::Env{&server_->handler_, &server_->limits_,
                              server_->counters_, mirror_,
                              &server_->draining_});
      server_->accepted_.fetch_add(1, kRelaxed);
    }
  }

  void CloseConnection(int fd) {
    auto it = connections_.find(fd);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    if (it != connections_.end()) {
      it->second.core.AccountClose();
      connections_.erase(it);
      server_->gate_.OnConnectionClosed(mirror_);
    }
  }

  // Drain: stop accepting on this loop, reap idle keep-alive connections,
  // and let busy ones run to completion (their next response closes them).
  void BeginDrain() {
    uint64_t value = 0;
    ssize_t n = ::read(drain_fd_, &value, sizeof(value));
    (void)n;
    if (draining_) return;
    draining_ = true;
    if (listen_fd_ >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      if (owns_listener_) {
        // Closing the SO_REUSEPORT listener takes this worker out of the
        // kernel's shard set, so no connection can rot in its private
        // accept queue while the drain runs.
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // The shared fallback listener stays open (other workers are
      // deregistering it too); the server closes it in Stop().
    }
    std::vector<int> idle;
    for (auto& [fd, conn] : connections_) {
      if (conn.core.idle()) {
        // A connection can look idle while request bytes sit unread in
        // the socket buffer (its EPOLLIN event races the drain event).
        // Those bytes are a request in flight: leave the connection, the
        // still-armed EPOLLIN serves it, and the drain flag closes it
        // with its response.
        int pending = 0;
        if (::ioctl(fd, FIONREAD, &pending) == 0 && pending > 0) continue;
        idle.push_back(fd);
      } else if (conn.core.has_pending_output() || conn.core.has_stream()) {
        // Response already queued (or streaming): close once it flushes.
        // A connection mid-request instead closes after its response is
        // dispatched (the draining flag on Service).
        conn.core.RequestCloseAfterFlush();
      }
    }
    for (int fd : idle) CloseConnection(fd);
  }

  // Enforces the header, idle, and write-stall deadlines across this
  // loop's connections (policy in ConnectionCore::CheckDeadlines). Runs
  // at most every kDeadlineTickMs.
  void SweepDeadlines() {
    const MicroTime now = SystemClock::Default()->NowMicros();
    std::vector<int> doomed;
    for (auto& [fd, conn] : connections_) {
      if (conn.core.CheckDeadlines(now) != ConnectionCore::Doom::kNone) {
        doomed.push_back(fd);
      }
    }
    for (int fd : doomed) CloseConnection(fd);
  }

  void SetInterest(int fd, Connection& conn, uint32_t events) {
    if (conn.interest == events) return;
    epoll_event event{};
    event.events = events;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
    conn.interest = events;
  }

  // Runs the core and maps its verdict onto epoll interest / close.
  // Returns false when the connection was closed.
  bool Drive(int fd, Connection& conn) {
    switch (conn.core.Service(fd)) {
      case ConnectionCore::ServiceResult::kClose:
        CloseConnection(fd);
        return false;
      case ConnectionCore::ServiceResult::kBlocked:
        // After peer EOF the fd stays readable forever (level-
        // triggered), so watch only EPOLLOUT until the flush finishes.
        SetInterest(fd, conn,
                    conn.peer_eof ? EPOLLOUT : (EPOLLIN | EPOLLOUT));
        return true;
      case ConnectionCore::ServiceResult::kIdle:
        SetInterest(fd, conn, EPOLLIN);
        return true;
    }
    return true;
  }

  void OnConnectionEvent(int fd, uint32_t events) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = it->second;

    if (events & (EPOLLHUP | EPOLLERR)) {
      CloseConnection(fd);
      return;
    }
    if (events & EPOLLOUT) {
      // Backlog drained: flush, and let a paused stream (plus pipelined
      // requests parked behind it) resume.
      if (!Drive(fd, conn)) return;
    }
    if ((events & EPOLLIN) == 0) return;

    const MicroTime now = SystemClock::Default()->NowMicros();
    char buf[16 * 1024];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.core.OnBytes(std::string_view(buf, static_cast<size_t>(n)),
                          now);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) {
        // Half-close: the client is done sending but may still be
        // reading. Buffered pipelined requests are served and pending
        // output flushes before the close (core handles the ordering).
        conn.peer_eof = true;
        conn.core.OnPeerEof();
        break;
      }
      CloseConnection(fd);  // Hard error.
      return;
    }
    Drive(fd, conn);
  }

  EpollServer* server_;
  int listen_fd_;
  const bool owns_listener_;
  IngressCounters* const mirror_;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;
  int drain_fd_ = -1;
  // Loop-local drain state (listener released, idle conns reaped). The
  // flag the cores read is the server-level EpollServer::draining_.
  bool draining_ = false;
  std::map<int, Connection> connections_;
};

EpollServer::EpollServer(Handler handler, uint16_t port, int num_workers,
                         ServerLimits limits)
    : handler_(std::move(handler)),
      port_(port),
      requested_workers_(num_workers < 1 ? 1 : num_workers),
      limits_(limits),
      counters_(limits.counters != nullptr ? limits.counters
                                           : &own_counters_),
      gate_({&limits_, counters_, &live_connections_, "epoll"}) {
  if (limits_.worker_counters != nullptr &&
      limits_.worker_counter_count >= requested_workers_) {
    worker_counters_ = limits_.worker_counters;
  } else {
    own_worker_counters_ =
        std::make_unique<IngressCounters[]>(requested_workers_);
    worker_counters_ = own_worker_counters_.get();
  }
}

EpollServer::~EpollServer() { Stop(); }

Status EpollServer::Start() {
  // Listener sharding: with several workers and SO_REUSEPORT available,
  // every worker gets its own listener on the shared port and the kernel
  // distributes accepts. Otherwise (single worker, or kernels/sandboxes
  // without the option) all workers share one listener armed with
  // EPOLLEXCLUSIVE — same worker count, one accept queue.
  reuseport_ = requested_workers_ > 1 && SoReusePortSupported();
  if (requested_workers_ > 1 && !reuseport_) {
    DYNAPROX_LOG(kWarning, "epoll")
        << "SO_REUSEPORT unavailable; " << requested_workers_
        << " workers fall back to one shared listener (EPOLLEXCLUSIVE)";
  }
  std::vector<int> listeners;
  if (reuseport_) {
    for (int i = 0; i < requested_workers_; ++i) {
      // The first bind resolves an ephemeral port; the rest join it.
      Result<int> fd = OpenListener(/*reuseport=*/true, &port_);
      if (!fd.ok()) {
        for (int open : listeners) ::close(open);
        return fd.status();
      }
      listeners.push_back(*fd);
    }
  } else {
    Result<int> fd = OpenListener(/*reuseport=*/false, &port_);
    if (!fd.ok()) return fd.status();
    listen_fd_ = *fd;
  }

  running_.store(true);
  for (int i = 0; i < requested_workers_; ++i) {
    const int lfd = reuseport_ ? listeners[i] : listen_fd_;
    workers_.push_back(std::make_unique<Worker>(this, lfd, reuseport_,
                                                &worker_counters_[i]));
    Status init = workers_.back()->Init();
    if (!init.ok()) {
      // Workers own their listeners (closed by their destructors); only
      // the ones not yet handed over need closing here.
      for (int j = i + 1; j < static_cast<int>(listeners.size()); ++j) {
        ::close(listeners[j]);
      }
      workers_.clear();
      running_.store(false);
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      return init;
    }
  }
  for (auto& worker : workers_) {
    threads_.emplace_back([w = worker.get()] { w->Run(); });
  }
  return Status::Ok();
}

void EpollServer::Stop(MicroTime drain_timeout_micros) {
  if (drain_timeout_micros <= 0) {
    Stop();
    return;
  }
  if (!running_.load()) return;
  // Visible to every ConnectionCore immediately: a handler already
  // running when the drain begins still closes its connection with the
  // response it returns.
  draining_.store(true);
  for (auto& worker : workers_) worker->RequestDrain();
  const Clock& clock = *SystemClock::Default();
  const MicroTime deadline = clock.NowMicros() + drain_timeout_micros;
  while (clock.NowMicros() < deadline &&
         live_connections_.load(kRelaxed) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
}

void EpollServer::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& worker : workers_) worker->RequestStop();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  workers_.clear();  // Destructors close owned (sharded) listeners.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace dynaprox::net

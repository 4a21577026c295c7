#include "net/connection_core.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/fault_point.h"
#include "common/logging.h"
#include "common/strings.h"

namespace dynaprox::net {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

ConnectionCore::ConnectionCore(const Env& env) : env_(env) {
  reader_.set_limits(
      {env_.limits->max_header_bytes, env_.limits->max_body_bytes});
  // The idle deadline measures from accept until the first byte arrives,
  // then from the last activity.
  last_activity_ = SystemClock::Default()->NowMicros();
}

void ConnectionCore::Bump(std::atomic<uint64_t> IngressCounters::*field) {
  (env_.counters->*field).fetch_add(1, kRelaxed);
}

void ConnectionCore::OnBytes(std::string_view data, MicroTime now) {
  // A connection already marked close-after-flush (limit violation or
  // Connection: close) answers nothing further: drop the bytes so the
  // dead reader's buffer cannot grow.
  if (close_after_flush_) return;
  reader_.Feed(data);
  last_activity_ = now;
  if (read_start_ == 0) read_start_ = now;
}

void ConnectionCore::OnPeerEof() { peer_eof_ = true; }

ConnectionCore::ServiceResult ConnectionCore::Service(int fd) {
  const MicroTime now = SystemClock::Default()->NowMicros();
  for (;;) {
    DispatchBuffered(now);
    if (stream_ == nullptr) break;
    // Pipelined requests may be parked behind the stream.
    if (!PumpStream(fd)) return ServiceResult::kClose;
  }
  if (!Flush(fd)) return ServiceResult::kClose;
  return close_after_flush_ ? ServiceResult::kClose : ServiceResult::kIdle;
}

void ConnectionCore::DispatchBuffered(MicroTime now) {
  // Once close_after_flush_ is set nothing more may be dispatched — in
  // particular a failed reader must not be polled again, or every later
  // packet would re-count the same limit violation and queue a duplicate
  // error response.
  bool completed_request = false;
  while (!close_after_flush_ && stream_ == nullptr) {
    auto next = reader_.Next();
    if (!next.has_value()) break;
    if (!next->ok()) {
      http::Response bad = ResponseForReaderError(
          reader_.limit_violation(), next->status(), *env_.counters);
      out_.Append(bad.SerializeToChain());
      close_after_flush_ = true;
      break;
    }
    const http::Request& request = next->value();
    completed_request = true;
    http::Response response =
        DispatchAdmitted(*env_.handler, request, *env_.limits, *env_.counters);
    // Read the drain flag *after* the handler: a drain that began while
    // the handler ran still closes this connection with its response.
    if (env_.draining != nullptr &&
        env_.draining->load(std::memory_order_relaxed)) {
      // Finish this response, then close: new work goes elsewhere.
      close_after_flush_ = true;
      served_during_drain_ = true;
    }
    if (auto connection = request.headers.Get("Connection");
        connection.has_value() && EqualsIgnoreCase(*connection, "close")) {
      close_after_flush_ = true;
    }
    if (close_after_flush_) response.headers.Set("Connection", "close");
    if (response.body_stream != nullptr) {
      // Streamed response: queue the chunked head now; body chunks are
      // pumped by PumpStream. Later pipelined requests stay buffered
      // until the stream ends (responses must not interleave).
      out_.Append(
          common::MakeBuffer(http::SerializeStreamingHead(response)));
      stream_ = std::move(response.body_stream);
      continue;
    }
    out_.Append(response.SerializeToChain());
  }
  // Peer EOF closes the connection once everything dispatched above has
  // flushed — applied after the dispatch pass so requests buffered
  // before the EOF are still answered (half-close semantics).
  if (peer_eof_) close_after_flush_ = true;
  // The header deadline bounds total time from a message's first byte
  // to its completion, so a partial message must keep its original
  // read_start — restarting the clock per packet would let a slowloris
  // drip one byte per tick forever. The clock resets only on a clean
  // boundary, or restarts when leftover bytes begin a new pipelined
  // message.
  if (reader_.buffered_bytes() == 0) {
    read_start_ = 0;
  } else if (completed_request) {
    read_start_ = now;
  }
}

bool ConnectionCore::Flush(int fd) {
  constexpr size_t kMaxIovecs = 64;  // Under any sane IOV_MAX.
  struct iovec iov[kMaxIovecs];
  while (out_offset_ < out_.size()) {
    size_t n_iov = out_.FillIovecs(out_offset_, iov, kMaxIovecs);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      out_offset_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_SNDTIMEO bounds each send; EAGAIN here means the write-stall
      // budget elapsed with no progress.
      Bump(&IngressCounters::write_stall_closes);
    }
    return false;
  }
  // Fully flushed: drop the slices (and their buffer references).
  out_.Clear();
  out_offset_ = 0;
  return true;
}

bool ConnectionCore::PumpStream(int fd) {
  while (stream_ != nullptr) {
    if (!Flush(fd)) return false;
    Result<common::BufferChain> chunk = stream_->Next();
    if (!chunk.ok()) {
      // Mid-body failure: abort so the client sees a truncated chunked
      // body, never a complete-looking response.
      return false;
    }
    if (chunk->empty()) {
      http::AppendFinalChunkFrame(out_);
      stream_.reset();
    } else {
      http::AppendChunkFrame(out_, std::move(*chunk));
    }
  }
  return Flush(fd);
}

ConnectionCore::Doom ConnectionCore::CheckDeadlines(MicroTime now) {
  const ServerLimits& limits = *env_.limits;
  if (read_start_ != 0 && limits.header_timeout_micros > 0 &&
      now - read_start_ >= limits.header_timeout_micros) {
    // Slowloris: started a request, never finished it.
    Bump(&IngressCounters::header_timeouts);
    return Doom::kHeaderTimeout;
  }
  if (read_start_ == 0 && limits.idle_timeout_micros > 0 &&
      now - last_activity_ >= limits.idle_timeout_micros) {
    Bump(&IngressCounters::idle_timeouts);
    return Doom::kIdleTimeout;
  }
  return Doom::kNone;
}

void ConnectionCore::AccountClose() {
  if (served_during_drain_) Bump(&IngressCounters::drained_connections);
}

AcceptGate::FailureAction AcceptGate::OnAcceptFailure(int err) {
  switch (err) {
    case EINTR:
    case ECONNABORTED:  // Peer gave up; next one.
      return FailureAction::kRetry;
    case EMFILE:
    case ENFILE:
      // Fd exhaustion is an episode, not a fatal listener error: keep
      // the accept path alive, log/count once per *episode*. A failure
      // opens a new episode when the latch is clear, or when the accept
      // path had been healthy for the quiet period since the last one —
      // so a later outage is reported again rather than silenced for the
      // server's life, but a flapping outage stays one episode.
      if (MicroTime since = healthy_since_.exchange(0, kRelaxed);
          !fd_exhausted_.exchange(true) ||
          (since != 0 && env_.clock->NowMicros() - since >=
                             kFdExhaustionQuietMicros)) {
        env_.counters->accept_fd_exhaustion_episodes.fetch_add(1, kRelaxed);
        DYNAPROX_LOG(kError, env_.log_tag)
            << "accept: " << std::strerror(err)
            << " (fd limit reached; dropping new connections)";
      }
      return FailureAction::kBackoff;
    default:
      return FailureAction::kFatal;
  }
}

bool AcceptGate::Admit(int fd) {
  // Accept works again: re-arm per-episode exhaustion reporting once it
  // has kept working for the quiet period. The load screens out the
  // common case so the hot path stays write-free; the exchange makes sure
  // only one accepting thread logs the recovery.
  if (fd_exhausted_.load(kRelaxed)) {
    MicroTime now = env_.clock->NowMicros();
    MicroTime since = 0;
    if (!healthy_since_.compare_exchange_strong(since, now, kRelaxed) &&
        now - since >= kFdExhaustionQuietMicros &&
        fd_exhausted_.exchange(false)) {
      DYNAPROX_LOG(kInfo, env_.log_tag) << "accept: fd exhaustion cleared";
    }
  }
  if (chaos::FaultDecision fault =
          chaos::ApplyDelay(DYNAPROX_FAULT_POINT("net.accept")->Evaluate())) {
    if (fault.action != chaos::FaultAction::kDelayMs) {
      // Injected accept failure: drop the connection before any
      // admission accounting, as if the kernel never delivered it.
      ::close(fd);
      return false;
    }
  }
  // Enforce the cap against this server's own count, not the exported
  // gauge: ServerLimits::counters may be shared across servers, and a
  // shared gauge would count foreign connections toward our cap.
  if (env_.limits->max_connections > 0 &&
      env_.live->load(kRelaxed) >= env_.limits->max_connections) {
    env_.counters->connection_limit_rejections.fetch_add(1, kRelaxed);
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  env_.counters->accepted_total.fetch_add(1, kRelaxed);
  env_.counters->open_connections.fetch_add(1, kRelaxed);
  env_.live->fetch_add(1, kRelaxed);
  return true;
}

void AcceptGate::OnConnectionClosed() {
  env_.counters->open_connections.fetch_sub(1, kRelaxed);
  env_.live->fetch_sub(1, kRelaxed);
}

}  // namespace dynaprox::net

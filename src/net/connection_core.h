#ifndef DYNAPROX_NET_CONNECTION_CORE_H_
#define DYNAPROX_NET_CONNECTION_CORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "common/buffer_chain.h"
#include "common/clock.h"
#include "http/parser.h"
#include "net/server_limits.h"
#include "net/transport.h"

namespace dynaprox::net {

// The connection lifecycle of TcpServer, kept apart from its sockets
// and threads. One ConnectionCore per client connection: it accumulates
// request bytes, enforces the ServerLimits byte caps and deadlines,
// dispatches complete requests (pipelining supported) through the
// in-flight admission gate, queues responses in a BufferChain, and
// flushes them with vectored sendmsg resuming at the exact byte offset
// after partial writes. Streamed responses (Response::body_stream) are
// pumped chunk by chunk, flushing between pulls.
//
// The core never owns the fd: it reads nothing and closes nothing. The
// server feeds bytes in (OnBytes/OnPeerEof), asks the core to make
// progress (Service), and closes the fd on kClose. Deadline policy lives
// here too (CheckDeadlines): slowloris and idle connections are reaped
// under one set of rules.
//
// The fd is blocking; with a write-stall budget set, SO_SNDTIMEO bounds
// each send, so a send that fails with EAGAIN means the client stopped
// reading for that long: the core counts a write-stall close and gives
// up.
class ConnectionCore {
 public:
  // Everything a connection needs from its server. `draining` is the
  // server's drain flag, read *after* each handler return as well as
  // before dispatch — an in-flight request must notice a drain that
  // began while its handler ran, so its response still closes the
  // connection (and counts as drained).
  struct Env {
    const Handler* handler = nullptr;
    const ServerLimits* limits = nullptr;
    IngressCounters* counters = nullptr;
    const std::atomic<bool>* draining = nullptr;
  };

  explicit ConnectionCore(const Env& env);

  ConnectionCore(const ConnectionCore&) = delete;
  ConnectionCore& operator=(const ConnectionCore&) = delete;

  // Feeds received bytes. A connection already marked close-after-flush
  // (limit violation, Connection: close, peer EOF) answers nothing
  // further: the bytes are dropped so the dead reader's buffer cannot
  // grow. `now` stamps last-activity and starts the header-deadline
  // clock on a message's first byte.
  void OnBytes(std::string_view data, MicroTime now);

  // Peer half-closed its sending side. Buffered pipelined requests are
  // still served and pending output still flushes; the connection closes
  // once everything queued has gone out.
  void OnPeerEof();

  enum class ServiceResult {
    kIdle,   // All caught up; wait for more input.
    kClose,  // Connection is done (or dead); the server closes the fd.
  };

  // Makes all possible progress: dispatches every complete buffered
  // request, pumps each streamed response to its end, and flushes queued
  // bytes to `fd`. While Env::draining reads true, a dispatched response
  // is the connection's last (answered with "Connection: close").
  ServiceResult Service(int fd);

  enum class Doom { kNone, kHeaderTimeout, kIdleTimeout };

  // Deadline policy: a started request must complete within the header
  // budget (slowloris), and an idle keep-alive connection is reaped at
  // the idle deadline. Counts the violation; any verdict but kNone means
  // the server must close the fd.
  Doom CheckDeadlines(MicroTime now);

  // No request in progress and nothing buffered. Drain closes idle
  // connections immediately.
  bool idle() const {
    return read_start_ == 0 && reader_.buffered_bytes() == 0;
  }

  // Counts this connection toward drained_connections if it completed a
  // request during drain. Call exactly once, when the server closes the
  // connection.
  void AccountClose();

 private:
  void Bump(std::atomic<uint64_t> IngressCounters::*field);

  // Dispatches every complete buffered request until a streamed response
  // pauses the pipeline or the requests run out, then applies the
  // header-deadline reset rule (see the comment in the implementation).
  void DispatchBuffered(MicroTime now);

  // Writes all of out_ to `fd` (vectored, offset-resumed); false when
  // the connection died or stalled.
  bool Flush(int fd);

  // Runs the active streamed response to its end: pulls body chunks and
  // flushes between pulls, so head bytes reach the socket while the
  // tail is still being produced. False on a body-stream error: the
  // connection closes with a truncated chunked body on the wire, never
  // a complete-looking response.
  bool PumpStream(int fd);

  const Env env_;
  http::RequestReader reader_;
  common::BufferChain out_;  // Slices pending write (shared buffers).
  size_t out_offset_ = 0;    // Bytes of out_ already sent.
  bool close_after_flush_ = false;
  bool served_during_drain_ = false;
  // Peer half-closed; promoted to close_after_flush_ after the next
  // dispatch pass so already-buffered pipelined requests still answer.
  bool peer_eof_ = false;
  // Active streamed response body; while set, the head is already in
  // out_ and further pipelined dispatch waits for the stream to end.
  std::shared_ptr<http::BodyStream> stream_;
  // 0 = no request in progress; otherwise when its first bytes arrived.
  MicroTime read_start_ = 0;
  MicroTime last_activity_ = 0;
};

// Admission control on the accept path: accept-failure triage
// (EMFILE/ENFILE episode accounting included), the `net.accept` chaos
// fault point, the connection cap, TCP_NODELAY, and the accept gauges.
// One instance per server.
class AcceptGate {
 public:
  struct Env {
    const ServerLimits* limits = nullptr;
    IngressCounters* counters = nullptr;
    // The server's private open-connection count. The cap is enforced
    // against this, never against the (possibly shared) IngressCounters
    // gauge — a shared gauge would count foreign connections toward our
    // cap.
    std::atomic<int64_t>* live = nullptr;
    const char* log_tag = "net";
    // Time source for the fd-exhaustion quiet period (steady clock).
    const Clock* clock = SystemClock::Default();
  };

  // How long the accept path must stay healthy — accepts succeeding, no
  // EMFILE/ENFILE — after its first successful accept before the
  // exhaustion latch re-arms. One accept that succeeds mid-outage (a
  // starved client gave up and freed one fd) does not end the episode.
  static constexpr MicroTime kFdExhaustionQuietMicros = 10 * kMicrosPerMilli;

  explicit AcceptGate(const Env& env) : env_(env) {}

  enum class FailureAction {
    kRetry,    // Transient (EINTR/ECONNABORTED): accept again now.
    kBackoff,  // EMFILE/ENFILE episode: pause before retrying.
    kFatal,    // Listener is gone (Stop/drain) or unrecoverable.
  };

  // Triage for a failed accept(); counts/logs fd-exhaustion episodes.
  FailureAction OnAcceptFailure(int err);

  // Admission for a freshly accepted fd: evaluates the `net.accept`
  // fault point (error drops the connection, delay-ms stalls the accept
  // path), enforces the connection cap, sets TCP_NODELAY, and bumps the
  // accept gauges. Returns false when the connection was rejected — the
  // fd is already closed.
  bool Admit(int fd);

  // Reverses Admit's gauges when a connection ends. Thread-safe: called
  // from each connection's thread.
  void OnConnectionClosed();

 private:
  const Env env_;
  // EMFILE/ENFILE episode latch: set by the failure that opens an episode,
  // cleared once the accept path has been healthy for the quiet period.
  std::atomic<bool> fd_exhausted_{false};
  // When the first successful accept after the latest fd-exhaustion
  // failure happened; 0 = none since that failure.
  std::atomic<MicroTime> healthy_since_{0};
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_CONNECTION_CORE_H_

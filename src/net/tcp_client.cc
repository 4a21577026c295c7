// Blocking TCP client transport (see net/tcp.h). The server half lives
// in net/tcp.cc; splitting the two keeps client retry/idempotency logic
// out of the server.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault_point.h"
#include "common/strings.h"
#include "http/parser.h"
#include "net/idempotency.h"
#include "net/socket_util.h"
#include "net/tcp.h"

namespace dynaprox::net {

TcpClientTransport::TcpClientTransport(std::string host, uint16_t port,
                                       TcpClientOptions options)
    : host_(std::move(host)), port_(port), options_(options) {}

TcpClientTransport::~TcpClientTransport() { CloseConnection(); }

Status TcpClientTransport::EnsureConnected() {
  if (fd_ >= 0) return Status::Ok();
  Result<int> fd = DialTcp(host_, port_, options_.io_timeout_micros);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  return Status::Ok();
}

void TcpClientTransport::CloseConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<http::Response> TcpClientTransport::RoundTrip(
    const http::Request& request) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string wire = request.Serialize();
  for (int attempt = 0; attempt < 2; ++attempt) {
    DYNAPROX_RETURN_IF_ERROR(EnsureConnected());
    size_t sent = 0;
    Status write_status =
        chaos::InjectStatus(DYNAPROX_FAULT_POINT("net.write"));
    if (write_status.ok()) write_status = SendAll(fd_, wire, &sent);
    if (!write_status.ok()) {
      // Likely a stale keep-alive connection — but some request bytes may
      // have reached the origin, so only re-send when that cannot
      // duplicate a side effect.
      CloseConnection();
      if (attempt == 0 &&
          SafeToRetry(request, sent, options_.non_idempotent_headers)) {
        continue;
      }
      return write_status;
    }
    http::ResponseReader reader;
    char buf[16 * 1024];
    for (;;) {
      if (auto next = reader.Next()) {
        if (!next->ok()) {
          CloseConnection();
          return next->status();
        }
        return std::move(*next);
      }
      if (Status injected =
              chaos::InjectStatus(DYNAPROX_FAULT_POINT("net.read"));
          !injected.ok()) {
        CloseConnection();
        return injected;
      }
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // SO_RCVTIMEO elapsed: fail fast, don't retry into another stall.
        CloseConnection();
        return Status::IoError("receive timeout");
      }
      if (n <= 0) {
        CloseConnection();
        if (n == 0 && reader.buffered_bytes() == 0 && attempt == 0 &&
            SafeToRetry(request, wire.size(),
                        options_.non_idempotent_headers)) {
          break;  // Keep-alive closed before the response; safe to resend.
        }
        return Status::IoError("connection closed mid-response");
      }
      reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }
  return Status::IoError("could not complete round trip");
}

// Body stream over the transport's single connection. Holds the
// serialization lock for its whole lifetime, so the connection cannot be
// reused (or reconnected) under a half-read body. Draining to end-of-body
// keeps the connection for the next round trip; abandoning the stream —
// or any read error — closes it, because the framing state is unknown.
class TcpClientTransport::StreamingBody : public http::BodyStream {
 public:
  StreamingBody(TcpClientTransport* transport,
                std::unique_lock<std::mutex> lock,
                http::StreamingResponseReader reader, bool reusable)
      : transport_(transport),
        lock_(std::move(lock)),
        reader_(std::move(reader)),
        reusable_(reusable) {}

  ~StreamingBody() override {
    if (!finished_) {
      transport_->CloseConnection();
    }
  }

  Result<common::BufferChain> Next() override {
    if (finished_) return common::BufferChain();
    char buf[16 * 1024];
    for (;;) {
      std::string bytes = reader_.TakeBody();
      if (!bytes.empty()) {
        if (reader_.body_complete()) Finish();
        common::BufferChain out;
        out.Append(common::MakeBuffer(std::move(bytes)));
        return out;
      }
      if (reader_.body_complete()) {
        Finish();
        return common::BufferChain();
      }
      if (Status injected =
              chaos::InjectStatus(DYNAPROX_FAULT_POINT("net.read"));
          !injected.ok()) {
        return Abort(injected);
      }
      ssize_t n = ::recv(transport_->fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Abort(Status::IoError("receive timeout"));
      }
      if (n < 0) return Abort(ErrnoStatus("recv"));
      if (n == 0) {
        return Abort(Status::IoError("connection closed mid-response"));
      }
      reader_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (reader_.failed()) return Abort(reader_.status());
    }
  }

 private:
  void Finish() {
    finished_ = true;
    if (!reusable_ || reader_.excess_bytes() != 0) {
      transport_->CloseConnection();
    }
    lock_.unlock();
  }

  Status Abort(Status status) {
    finished_ = true;
    transport_->CloseConnection();
    lock_.unlock();
    return status;
  }

  TcpClientTransport* transport_;
  std::unique_lock<std::mutex> lock_;
  http::StreamingResponseReader reader_;
  bool reusable_;
  bool finished_ = false;
};

Result<StreamingResponse> TcpClientTransport::RoundTripStreaming(
    const http::Request& request) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::string wire = request.Serialize();
  for (int attempt = 0; attempt < 2; ++attempt) {
    DYNAPROX_RETURN_IF_ERROR(EnsureConnected());
    size_t sent = 0;
    Status write_status =
        chaos::InjectStatus(DYNAPROX_FAULT_POINT("net.write"));
    if (write_status.ok()) write_status = SendAll(fd_, wire, &sent);
    if (!write_status.ok()) {
      CloseConnection();
      if (attempt == 0 &&
          SafeToRetry(request, sent, options_.non_idempotent_headers)) {
        continue;
      }
      return write_status;
    }
    http::StreamingResponseReader reader;
    char buf[16 * 1024];
    bool retry = false;
    while (!retry) {
      if (auto head = reader.NextHead()) {
        if (!head->ok()) {
          CloseConnection();
          return head->status();
        }
        bool reusable = true;
        if (auto connection = head->value().headers.Get("Connection");
            connection.has_value() &&
            EqualsIgnoreCase(*connection, "close")) {
          reusable = false;
        }
        StreamingResponse streaming;
        streaming.head = std::move(head->value());
        streaming.body = std::make_unique<StreamingBody>(
            this, std::move(lock), std::move(reader), reusable);
        return streaming;
      }
      if (Status injected =
              chaos::InjectStatus(DYNAPROX_FAULT_POINT("net.read"));
          !injected.ok()) {
        CloseConnection();
        return injected;
      }
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        CloseConnection();
        return Status::IoError("receive timeout");
      }
      if (n < 0) {
        CloseConnection();
        return ErrnoStatus("recv");
      }
      if (n == 0) {
        CloseConnection();
        // Head bytes not yet started + idempotent: one fresh retry, same
        // as the buffered path's stale keep-alive recovery.
        if (reader.buffered_bytes() == 0 && attempt == 0 &&
            SafeToRetry(request, wire.size(),
                        options_.non_idempotent_headers)) {
          retry = true;
          break;
        }
        return Status::IoError("connection closed mid-response");
      }
      reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }
  return Status::IoError("could not complete round trip");
}

}  // namespace dynaprox::net

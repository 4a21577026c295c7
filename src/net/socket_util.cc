#include "net/socket_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dynaprox::net {

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

Status SendAll(int fd, std::string_view data, size_t* sent_out) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (sent_out != nullptr) *sent_out = sent;
      return ErrnoStatus("send");
    }
    sent += static_cast<size_t>(n);
  }
  if (sent_out != nullptr) *sent_out = sent;
  return Status::Ok();
}

Status SendChain(int fd, const common::BufferChain& chain,
                 size_t* sent_out) {
  constexpr size_t kMaxIovecs = 64;  // Under any sane IOV_MAX.
  struct iovec iov[kMaxIovecs];
  size_t sent = 0;
  while (sent < chain.size()) {
    size_t n_iov = chain.FillIovecs(sent, iov, kMaxIovecs);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (sent_out != nullptr) *sent_out = sent;
      return ErrnoStatus("sendmsg");
    }
    sent += static_cast<size_t>(n);
  }
  if (sent_out != nullptr) *sent_out = sent;
  return Status::Ok();
}

Result<int> DialTcp(const std::string& host, uint16_t port,
                    MicroTime io_timeout_micros) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (io_timeout_micros > 0) {
    timeval tv{};
    tv.tv_sec = io_timeout_micros / kMicrosPerSecond;
    tv.tv_usec = io_timeout_micros % kMicrosPerSecond;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = ErrnoStatus("connect");
    ::close(fd);
    return status;
  }
  return fd;
}

Result<int> OpenLoopbackListener(uint16_t* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  auto fail = [fd](const char* what) {
    Status status = ErrnoStatus(what);
    ::close(fd);
    return status;
  };
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(*port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail("bind");
  }
  if (::listen(fd, /*backlog=*/64) < 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return fail("getsockname");
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace dynaprox::net

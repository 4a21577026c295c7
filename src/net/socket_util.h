#ifndef DYNAPROX_NET_SOCKET_UTIL_H_
#define DYNAPROX_NET_SOCKET_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/buffer_chain.h"
#include "common/clock.h"
#include "common/result.h"

namespace dynaprox::net {

// Status::IoError carrying `what` and the current errno text.
Status ErrnoStatus(const char* what);

// Writes all of `data` to `fd`, retrying on partial writes and EINTR.
// `*sent_out` (optional) receives the count of bytes handed to the kernel
// even on failure — retry decisions depend on whether any bytes may have
// reached the peer (see net/idempotency.h).
Status SendAll(int fd, std::string_view data, size_t* sent_out = nullptr);

// Vectored equivalent of SendAll: writes the whole chain via sendmsg,
// resuming after partial writes at the exact byte offset (mid-iovec
// included). No flattening — the chain's slices go to the kernel as one
// iovec array per call. SO_SNDTIMEO on `fd` bounds each sendmsg like it
// bounds each send in SendAll.
Status SendChain(int fd, const common::BufferChain& chain,
                 size_t* sent_out = nullptr);

// Opens a blocking TCP connection to host:port with TCP_NODELAY set and,
// when `io_timeout_micros` > 0, SO_RCVTIMEO/SO_SNDTIMEO applied. Returns
// the connected fd; the caller owns it.
Result<int> DialTcp(const std::string& host, uint16_t port,
                    MicroTime io_timeout_micros);

// Opens a blocking TCP listener with SO_REUSEADDR on 127.0.0.1:*port
// (0 = ephemeral; `*port` is updated to the bound port either way).
// Returns the listening fd; the caller owns it.
Result<int> OpenLoopbackListener(uint16_t* port);

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_SOCKET_UTIL_H_

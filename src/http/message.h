#ifndef DYNAPROX_HTTP_MESSAGE_H_
#define DYNAPROX_HTTP_MESSAGE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/buffer_chain.h"
#include "common/result.h"
#include "http/header_map.h"

namespace dynaprox::http {

// An HTTP/1.1 request. `target` is the request-target as it appears on the
// request line (path plus optional "?query").
struct Request {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  // Path component of the target (before '?').
  std::string_view Path() const;

  // Raw query string (after '?', empty if none).
  std::string_view QueryString() const;

  // Decoded query parameters in target order; later duplicates win.
  std::map<std::string, std::string> QueryParams() const;

  // Serializes to wire form, adding Content-Length when a body is present
  // and none is set.
  std::string Serialize() const;

  // Bytes Serialize() would produce.
  size_t SerializedSize() const;
};

// Pull source for a response body produced incrementally (streamed page
// assembly, proxied upstream bodies). Next() blocks until at least one
// byte is available and returns it as a zero-copy chain; an empty chain
// signals the end of the body. An error aborts the stream: a server then
// closes the connection without the final chunk frame, so the client sees
// a truncated chunked body instead of a complete-looking response.
class BodyStream {
 public:
  virtual ~BodyStream() = default;
  virtual Result<common::BufferChain> Next() = 0;
};

// An HTTP/1.1 response. The body has two representations: the contiguous
// `body` string, and the zero-copy `body_chain` of shared buffer slices
// (assembled pages, spliced fragments). A non-empty chain IS the body —
// it takes precedence over `body`, which is then ignored by every
// serializer and accessor below. Producers set exactly one of the two.
//
// A third, streaming representation exists for servers only: when
// `body_stream` is non-null, `body`/`body_chain` are empty and the body
// arrives by pulling the stream. net::TcpServer sends such responses
// with chunked framing as chunks resolve; the serializers and accessors
// below ignore the stream (they cover the buffered representations), so
// in-process consumers must drain it themselves.
struct Response {
  int status_code = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;
  common::BufferChain body_chain;
  std::shared_ptr<BodyStream> body_stream;

  // Body size regardless of representation.
  size_t body_size() const {
    return body_chain.empty() ? body.size() : body_chain.size();
  }

  // Body bytes as a contiguous string (flattens a chained body — for
  // in-process consumers and tests, not the socket path).
  std::string BodyText() const {
    return body_chain.empty() ? body : body_chain.Flatten();
  }

  // Collapses a chained body into `body` (idempotent). Used where a
  // response is retained long-term in one contiguous allocation (stale
  // page cache) — at most one flatten per cached entry.
  void FlattenBody();

  // Status line + headers (Content-Length added if absent) + blank line,
  // without the body.
  std::string SerializeHead() const;

  // Full wire form as one contiguous string (copies a chained body).
  std::string Serialize() const;

  // Full wire form as a chain: one owned buffer for the head, then the
  // body as shared slices. The zero-copy socket path.
  common::BufferChain SerializeToChain() const;

  size_t SerializedSize() const;

  static Response MakeOk(std::string body,
                         std::string content_type = "text/html");
  static Response MakeError(int code, std::string reason, std::string body);
};

// Returns the canonical reason phrase for common status codes ("OK",
// "Not Found", ...), or "Unknown" otherwise.
std::string_view CanonicalReason(int status_code);

// Percent-decodes `s` ('+' becomes space). Invalid escapes pass through.
std::string UrlDecode(std::string_view s);

// Percent-encodes characters outside the URL-safe set.
std::string UrlEncode(std::string_view s);

// Parses "a=1&b=2" into a map (decoded); later duplicates win.
std::map<std::string, std::string> ParseQueryString(std::string_view query);

// Normalizes a request path: resolves "." and ".." segments (never above
// the root), collapses duplicate slashes, and ensures a leading '/'.
// "/a/./b/../c//d" -> "/a/c/d". Query strings are not part of the input.
std::string NormalizePath(std::string_view path);

}  // namespace dynaprox::http

#endif  // DYNAPROX_HTTP_MESSAGE_H_

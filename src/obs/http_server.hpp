#pragma once

// Minimal HTTP/1.1 listener backing the observability plane (`serve
// --http PORT`).  Scope is deliberately tiny: GET and HEAD requests, one
// response per connection (`Connection: close`), handler dispatch by
// target path.  There is no thread: the listener and every connection
// are non-blocking fds on the serve loop's EventLoop, so the handler runs
// on the loop's owner thread, between two polls, and reads the pipeline
// without a lock.  A request parses incrementally and must end
// (`\r\n\r\n`) within 8 KiB; a connection has 2 s from accept to finish,
// response included, so a slow or silent client holds nothing but its
// fd.  A response that does not fit the socket buffer resumes on the
// next writable event.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ingest/event_loop.hpp"

namespace efd::obs {

struct HttpRequest {
  std::string method;
  std::string target;  // path only, query string stripped
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer : private ingest::EventLoop::Watcher {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Bytes a request may take through its blank line.
  static constexpr std::size_t kMaxRequestBytes = 8192;
  /// From accept to the end of the response.
  static constexpr std::chrono::seconds kDeadline{2};

  struct Stats {
    std::uint64_t requests = 0;
    /// Malformed or oversized requests (answered 400) and connections
    /// whose request was still incomplete at the deadline.
    std::uint64_t bad_requests = 0;
  };

  /// Binds and listens on 127.0.0.1:<port> (0 = ephemeral) and registers
  /// the listener on \p loop.  Throws ingest::TransportError on bind
  /// failure.
  HttpServer(std::shared_ptr<ingest::EventLoop> loop, std::uint16_t port,
             Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (resolves an ephemeral request).
  std::uint16_t port() const noexcept { return port_; }

  const Stats& stats() const noexcept { return stats_; }

  /// Closes the listener and every connection.  Idempotent; loop owner.
  void stop();

 private:
  struct Connection;

  /// The listener is ready (accept), or the oldest deadline passed (0).
  void ready(std::uint32_t events,
             std::vector<ingest::Envelope>& out) override;
  void accept_ready();
  /// Reads, answers, writes or lingers, by the connection's state.
  void serve(Connection& connection);
  /// Builds the response to what the connection has read.
  void respond(Connection& connection);
  void close(Connection& connection);

  std::shared_ptr<ingest::EventLoop> loop_;
  Handler handler_;
  std::uint16_t port_ = 0;  ///< before listen_fd_: its initializer sets it
  int listen_fd_ = -1;
  Stats stats_;
  /// In accept order, which is deadline order.
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace efd::obs

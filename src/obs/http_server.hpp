#pragma once

// Minimal HTTP/1.1 listener backing the observability plane (`serve
// --http PORT`).  Scope is deliberately tiny: GET requests, one response
// per connection (`Connection: close`), handler dispatch by target path.
// Scrapes and LB probes are low-rate, so connections are serviced serially
// on the accept thread with a receive timeout bounding any one client.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

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

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t bad_requests = 0;
  };

  /// Binds and listens on 127.0.0.1:<port> (0 = ephemeral) and starts the
  /// accept thread.  Throws ingest::TransportError on bind failure.
  HttpServer(std::uint16_t port, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (resolves an ephemeral request).
  std::uint16_t port() const noexcept { return port_; }

  Stats stats() const noexcept;

  /// Shuts the listener down, which wakes the accept thread blocked in
  /// accept(2), and joins it.  Idempotent.
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::thread accept_thread_;
};

}  // namespace efd::obs

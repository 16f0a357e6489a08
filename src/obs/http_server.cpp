#include "obs/http_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ingest/tcp_transport.hpp"  // TransportError

namespace efd::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;

const char* status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t written = ::send(fd, data, size, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

}  // namespace

HttpServer::HttpServer(std::uint16_t port, Handler handler)
    : handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ingest::TransportError(std::string("http socket: ") +
                                 std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ingest::TransportError("http bind 127.0.0.1:" +
                                 std::to_string(port) + ": " + error);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  stopping_.store(true, std::memory_order_release);
  // Wakes the accept thread blocked in accept(2): a shut-down listener
  // fails every accept from now on.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

HttpServer::Stats HttpServer::stats() const noexcept {
  return Stats{requests_.load(std::memory_order_relaxed),
               bad_requests_.load(std::memory_order_relaxed)};
}

void HttpServer::accept_loop() {
  // Blocks until a client connects or stop() shuts the listener down, so
  // an idle endpoint never wakes.
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  // Bound how long one client can hold the accept loop: slow or silent
  // peers hit the receive timeout and get dropped.
  timeval timeout{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char chunk[1024];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      break;
    }
    request.append(chunk, static_cast<std::size_t>(got));
  }

  HttpResponse response;
  bool head = false;
  const std::size_t line_end = request.find("\r\n");
  std::size_t method_end = std::string::npos;
  std::size_t target_end = std::string::npos;
  if (line_end != std::string::npos) {
    method_end = request.find(' ');
    if (method_end != std::string::npos && method_end < line_end) {
      target_end = request.find(' ', method_end + 1);
    }
  }
  if (target_end == std::string::npos || target_end > line_end) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    response.status = 400;
    response.body = "bad request\n";
  } else {
    HttpRequest parsed;
    parsed.method = request.substr(0, method_end);
    parsed.target =
        request.substr(method_end + 1, target_end - method_end - 1);
    const std::size_t query = parsed.target.find('?');
    if (query != std::string::npos) parsed.target.resize(query);
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (parsed.method != "GET" && parsed.method != "HEAD") {
      response.status = 405;
      response.body = "method not allowed\n";
    } else {
      response = handler_(parsed);
      head = parsed.method == "HEAD";
    }
  }

  // A HEAD reply reports the length its GET body would have (RFC 9110
  // 9.3.2) and sends no body.
  std::string reply = "HTTP/1.1 " + std::to_string(response.status) + " " +
                      status_text(response.status) +
                      "\r\nContent-Type: " + response.content_type +
                      "\r\nContent-Length: " +
                      std::to_string(response.body.size()) +
                      "\r\nConnection: close\r\n\r\n";
  if (!head) reply += response.body;
  write_all(fd, reply.data(), reply.size());
}

}  // namespace efd::obs

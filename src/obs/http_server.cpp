#include "obs/http_server.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string_view>

namespace efd::obs {

namespace {

using Clock = ingest::EventLoop::Clock;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

bool would_block() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

}  // namespace

/// One accepted connection: it reads its request, then writes its
/// response, then lingers (reads and discards) until the client's EOF,
/// so closing never resets a client that is still sending.
struct HttpServer::Connection final : ingest::EventLoop::Watcher {
  Connection(HttpServer& server, int fd)
      : server(server), fd(fd), deadline(Clock::now() + kDeadline) {}

  void ready(std::uint32_t /*events*/,
             std::vector<ingest::Envelope>& /*out*/) override {
    server.serve(*this);
  }

  HttpServer& server;
  int fd;
  Clock::time_point deadline;
  std::string request;
  bool answered = false;  ///< reply holds the whole response
  std::string reply;
  std::size_t sent = 0;
};

HttpServer::HttpServer(std::shared_ptr<ingest::EventLoop> loop,
                       std::uint16_t port, Handler handler)
    : loop_(std::move(loop)),
      handler_(std::move(handler)),
      listen_fd_(ingest::bind_loopback(SOCK_STREAM | SOCK_NONBLOCK, port,
                                       port_)) {
  if (!loop_->add(listen_fd_, *this, EPOLLIN)) {
    ingest::throw_errno("http epoll_ctl");
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  if (listen_fd_ < 0) return;
  loop_->cancel(*this);
  loop_->remove(listen_fd_);
  ingest::close_fd(listen_fd_);
  while (!connections_.empty()) close(*connections_.back());
}

void HttpServer::ready(std::uint32_t events,
                       std::vector<ingest::Envelope>& /*out*/) {
  if (events != 0) {
    accept_ready();
    return;
  }
  // The oldest connections' deadlines passed: drop them, counting those
  // that never completed a request.
  const auto now = Clock::now();
  while (!connections_.empty() && connections_.front()->deadline <= now) {
    if (!connections_.front()->answered) ++stats_.bad_requests;
    close(*connections_.front());
  }
  if (!connections_.empty()) {
    loop_->call_at(*this, connections_.front()->deadline);
  }
}

void HttpServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: the backlog is empty
    }
    auto connection = std::make_unique<Connection>(*this, fd);
    if (!loop_->add(fd, *connection, EPOLLIN)) {
      ::close(fd);
      continue;
    }
    connections_.push_back(std::move(connection));
    // Any timer still pending is a closed connection's; the new one is
    // the oldest now.
    if (connections_.size() == 1) {
      loop_->call_at(*this, connections_.front()->deadline);
    }
  }
}

void HttpServer::serve(Connection& connection) {
  char chunk[4096];
  if (!connection.answered) {
    const ssize_t got = ::recv(connection.fd, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (!would_block()) close(connection);
      return;
    }
    connection.request.append(chunk, static_cast<std::size_t>(got));
    if (got > 0 &&
        connection.request.find("\r\n\r\n") == std::string::npos &&
        connection.request.size() < kMaxRequestBytes) {
      return;  // incomplete: wait for more
    }
    respond(connection);
  }
  if (connection.sent < connection.reply.size()) {
    const ssize_t wrote =
        ::send(connection.fd, connection.reply.data() + connection.sent,
               connection.reply.size() - connection.sent, MSG_NOSIGNAL);
    if (wrote < 0 && !would_block()) {
      close(connection);
      return;
    }
    connection.sent += static_cast<std::size_t>(std::max<ssize_t>(wrote, 0));
    if (connection.sent < connection.reply.size()) {
      loop_->modify(connection.fd, connection, EPOLLOUT);
      return;
    }
    // The whole response is out: half-close so the client sees its EOF,
    // then linger until the client's own EOF.
    ::shutdown(connection.fd, SHUT_WR);
    loop_->modify(connection.fd, connection, EPOLLIN);
    return;
  }
  const ssize_t got = ::recv(connection.fd, chunk, sizeof(chunk), 0);
  if (got == 0 || (got < 0 && !would_block())) close(connection);
}

void HttpServer::respond(Connection& connection) {
  constexpr auto npos = std::string_view::npos;
  const std::string_view request = connection.request;
  const bool oversized = request.size() >= kMaxRequestBytes &&
                         request.find("\r\n\r\n") == npos;
  // The request line: "METHOD TARGET VERSION", ended by CRLF.
  const std::string_view line =
      oversized ? "" : request.substr(0, request.find("\r\n"));
  const std::size_t method_end =
      line.size() < request.size() ? line.find(' ') : npos;
  const std::size_t target_end =
      method_end == npos ? npos : line.find(' ', method_end + 1);
  HttpResponse response;
  bool head = false;
  if (target_end == npos) {
    ++stats_.bad_requests;
    response.status = 400;
    response.body = "bad request\n";
  } else {
    HttpRequest parsed;
    parsed.method = line.substr(0, method_end);
    parsed.target = line.substr(method_end + 1, target_end - method_end - 1);
    parsed.target.resize(
        std::min(parsed.target.find('?'), parsed.target.size()));
    ++stats_.requests;
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
  connection.reply = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_text(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (!head) connection.reply += response.body;
  connection.answered = true;
}

void HttpServer::close(Connection& connection) {
  loop_->remove(connection.fd);
  ::close(connection.fd);
  std::erase_if(connections_, [&](const std::unique_ptr<Connection>& held) {
    return held.get() == &connection;
  });
}

}  // namespace efd::obs

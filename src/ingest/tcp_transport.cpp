#include "ingest/tcp_transport.hpp"

#include <arpa/inet.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#ifndef IOV_MAX
#define IOV_MAX 1024
#endif

namespace efd::ingest {

namespace {

/// Writes the whole buffer; returns false on a broken connection.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
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

/// One accepted connection. The shared_ptr doubles as the Envelope reply
/// channel, so a Connection outlives its place on the loop for as long
/// as undelivered verdicts reference it.
struct TcpServer::Connection final : VerdictSink, EventLoop::Watcher {
  Connection(TcpServer& server, int fd,
             std::shared_ptr<std::atomic<std::uint64_t>> write_failures)
      : server(server), fd(fd), write_failures(std::move(write_failures)) {}
  ~Connection() override { close_socket(); }

  /// Registered only while the server's live map holds it, so the
  /// server is alive whenever this runs.
  void ready(std::uint32_t /*events*/, std::vector<Envelope>& out) override {
    server.read_connection(*this, out);
  }

  void deliver(const Message& verdict) override {
    std::lock_guard lock(write_mutex);
    if (fd < 0) {  // connection already gone: best-effort drop
      write_failures->fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // The first deliver_many slot, reused: a steady verdict rate stops
    // allocating a frame per call.
    if (write_slots.empty()) write_slots.resize(1);
    std::vector<std::uint8_t>& frame = write_slots.front();
    frame.clear();
    encode_frame(verdict, frame);
    if (!write_all(fd, frame.data(), frame.size())) {
      // Peer vanished, or it stopped reading verdicts and the send
      // timed out (SO_SNDTIMEO, set at accept). deliver() runs on the
      // pipeline's only thread, so a peer that never drains its socket
      // must cost at most one timeout — kill the connection rather
      // than let one slow consumer stall every other connection. A
      // timed-out partial write has corrupted the peer's framing
      // anyway.
      write_failures->fetch_add(1, std::memory_order_relaxed);
      ::shutdown(fd, SHUT_RDWR);
    }
  }

  void deliver_many(std::span<const Message> verdicts) override {
    if (verdicts.empty()) return;
    if (verdicts.size() == 1) {
      deliver(verdicts.front());
      return;
    }
    std::lock_guard lock(write_mutex);
    if (fd < 0) {
      write_failures->fetch_add(verdicts.size(), std::memory_order_relaxed);
      return;
    }
    // One encoded frame per reused slot; the whole run then leaves in
    // IOV_MAX-sized vectored writes — one syscall instead of one per
    // verdict. Slots and iovecs are members so a steady verdict rate
    // recycles their capacity.
    if (write_slots.size() < verdicts.size()) {
      write_slots.resize(verdicts.size());
    }
    write_iov.clear();
    write_iov.reserve(verdicts.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      write_slots[i].clear();
      encode_frame(verdicts[i], write_slots[i]);
      write_iov.push_back(
          iovec{write_slots[i].data(), write_slots[i].size()});
    }
    // iov index == frame index (one iovec per frame), so on failure the
    // frames not yet fully written are exactly the ones counted lost.
    std::size_t next = 0;
    while (next < write_iov.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(IOV_MAX, write_iov.size() - next);
      msghdr msg{};
      msg.msg_iov = &write_iov[next];
      msg.msg_iovlen = chunk;
      const ssize_t written = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
      if (written < 0) {
        if (errno == EINTR) continue;
        // Same discipline as deliver(): a vanished or stalled peer
        // (SO_SNDTIMEO) costs at most one timeout, then the connection
        // dies — a timed-out partial write corrupted its framing anyway.
        write_failures->fetch_add(verdicts.size() - next,
                                  std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
        return;
      }
      // Consume fully-written frames; adjust the first partial one.
      std::size_t remaining = static_cast<std::size_t>(written);
      while (remaining > 0) {
        if (remaining >= write_iov[next].iov_len) {
          remaining -= write_iov[next].iov_len;
          ++next;
        } else {
          write_iov[next].iov_base =
              static_cast<std::uint8_t*>(write_iov[next].iov_base) +
              remaining;
          write_iov[next].iov_len -= remaining;
          remaining = 0;
        }
      }
    }
  }

  void shutdown_socket(int how) {
    std::lock_guard lock(write_mutex);
    if (fd >= 0) ::shutdown(fd, how);
  }

  void close_socket() {
    std::lock_guard lock(write_mutex);
    close_fd(fd);
  }

  TcpServer& server;
  std::mutex write_mutex;
  /// -1 once closed. Only the loop's owner and the destructor close it,
  /// so the owner's reads need no write_mutex.
  int fd;
  std::shared_ptr<std::atomic<std::uint64_t>> write_failures;
  /// deliver/deliver_many scratch (guarded by write_mutex).
  std::vector<std::vector<std::uint8_t>> write_slots;
  std::vector<iovec> write_iov;
  /// Owner-side stream state. Holds the bytes of the batch views
  /// decoded from this connection.
  FrameDecoder decoder;
};

TcpServer::TcpServer(const Config& config)
    : config_(config),
      listen_fd_(
          bind_loopback(SOCK_STREAM | SOCK_NONBLOCK, config.port, port_)),
      read_buffer_(std::max<std::size_t>(config.read_chunk, 1)) {}

TcpServer::~TcpServer() {
  if (loop_ != nullptr) {
    loop_->cancel(*this);
    if (listen_fd_ >= 0) loop_->remove(listen_fd_);
  }
  close_fd(listen_fd_);
  close_all();
}

bool TcpServer::attach(const std::shared_ptr<EventLoop>& loop, SourceId id) {
  loop_ = loop;
  id_ = id;
  if (!loop_->add(listen_fd_, *this, EPOLLIN)) throw_errno("epoll_ctl");
  return true;
}

void TcpServer::ready(std::uint32_t events, std::vector<Envelope>& /*out*/) {
  if (events == 0) {
    close_all();  // the drain grace ran out
  } else {
    accept_ready();
  }
}

void TcpServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: the backlog is empty
    }
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    // Bound verdict writes: a peer that stops reading stalls deliver()
    // for at most this long before the connection is dropped.
    timeval send_timeout{};
    send_timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    auto connection =
        std::make_shared<Connection>(*this, fd, verdict_write_failures_);
    // On failure the connection's destructor closes the socket.
    if (!loop_->add(fd, *connection, EPOLLIN)) continue;
    ++stats_.connections_accepted;
    connections_.emplace(connection.get(), std::move(connection));
  }
}

ssize_t TcpServer::read_some(const Connection& connection) {
  const ssize_t received = ::recv(connection.fd, read_buffer_.data(),
                                  read_buffer_.size(), MSG_DONTWAIT);
  if (received > 0) return received;
  if (received < 0 &&
      (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return 0;
  }
  return -1;  // EOF or a socket error: the peer is finished
}

void TcpServer::read_connection(Connection& connection,
                                std::vector<Envelope>& out) {
  // One recv per round is the per-connection read budget: the remainder
  // stays readable (level-triggered) for the next round.
  const ssize_t received = read_some(connection);
  if (draining_ || received <= 0) {
    // Draining reads and discards until the peer's EOF.
    if (received < 0) retire(connection);
    return;
  }
  FrameDecoder& decoder = connection.decoder;
  decoder.feed(read_buffer_.data(), static_cast<std::size_t>(received));

  const std::shared_ptr<Connection>& reply = connections_.at(&connection);
  DecodeStatus status;
  for (;;) {
    Envelope& envelope = out.emplace_back();
    status = decoder.next(envelope.message, envelope.batch);
    if (status != DecodeStatus::kMessage) {
      out.pop_back();
      break;
    }
    envelope.reply = reply;
    envelope.source = id_;
    ++stats_.frames;
  }
  if (status == DecodeStatus::kError) {
    // Corrupted framing is unrecoverable; drop the connection.
    ++stats_.connections_dropped;
    connection.shutdown_socket(SHUT_RDWR);
    retire(connection);
  }
}

void TcpServer::retire(Connection& connection) {
  loop_->remove(connection.fd);
  if (draining_) connection.close_socket();
  connections_.erase(&connection);  // may destroy the connection: last
}

void TcpServer::close_all() {
  for (const auto& entry : connections_) {
    loop_->remove(entry.second->fd);
    entry.second->close_socket();
  }
  connections_.clear();
}

bool TcpServer::poll(std::vector<Envelope>& /*out*/) {
  if (!draining_ && stopping_.load(std::memory_order_acquire)) {
    // Graceful drain: closing a socket that still holds unread bytes
    // makes the kernel answer the peer with a reset, failing a sender
    // that is still streaming a job's tail. Stop accepting (peers still
    // in the backlog are refused by the close) and half-close so peers
    // see the server is done; their watchers then read and discard until
    // each peer's EOF or the grace ends.
    draining_ = true;
    if (loop_ != nullptr) loop_->remove(listen_fd_);
    close_fd(listen_fd_);
    for (const auto& entry : connections_) {
      entry.second->shutdown_socket(SHUT_WR);
    }
    if (!connections_.empty()) {
      loop_->call_at(*this, EventLoop::Clock::now() + kStopGrace);
    }
  }
  if (!draining_) return true;
  if (connections_.empty() && loop_ != nullptr) loop_->cancel(*this);
  return !connections_.empty();
}

void TcpServer::stop() {
  stopping_.store(true, std::memory_order_release);
  if (loop_ != nullptr) loop_->wake();
}

TcpServer::Stats TcpServer::stats() const {
  Stats stats = stats_;
  stats.active_connections = connections_.size();
  stats.verdict_write_failures =
      verdict_write_failures_->load(std::memory_order_relaxed);
  return stats;
}

TransportCounters TcpServer::transport_counters() const {
  const Stats stats = this->stats();
  TransportCounters counters;
  counters.frames = stats.frames;
  counters.decode_errors = stats.connections_dropped;
  counters.drops = stats.verdict_write_failures;
  return counters;
}

TcpClient::TcpClient(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    close_fd(fd_);
    throw TransportError("invalid host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) < 0) {
    close_fd(fd_);
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  const int nodelay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
}

TcpClient::~TcpClient() { close_fd(fd_); }

void TcpClient::send(Message message) {
  std::lock_guard lock(write_mutex_);
  encode_buffer_.clear();
  encode_frame(message, encode_buffer_);
  if (!write_all(fd_, encode_buffer_.data(), encode_buffer_.size())) {
    throw TransportError("connection lost while sending");
  }
}

bool TcpClient::receive(Message& out, std::chrono::milliseconds timeout) {
  return receive_status(out, timeout) == ReceiveStatus::kMessage;
}

TcpClient::ReceiveStatus TcpClient::receive_status(
    Message& out, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::uint8_t chunk[16 * 1024];
  for (;;) {
    switch (decoder_.next(out)) {
      case DecodeStatus::kMessage:
        return ReceiveStatus::kMessage;
      case DecodeStatus::kError:
        // Corrupt framing is unrecoverable on a stream socket: the
        // connection is as dead as an EOF.
        return ReceiveStatus::kClosed;
      case DecodeStatus::kNeedMore:
        break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return ReceiveStatus::kTimeout;
    pollfd pfd{fd_, POLLIN, 0};
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    const int ready = ::poll(&pfd, 1, static_cast<int>(wait.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return ReceiveStatus::kClosed;
    if (ready == 0) return ReceiveStatus::kTimeout;
    const ssize_t received = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (received < 0 && errno == EINTR) continue;
    if (received <= 0) return ReceiveStatus::kClosed;  // EOF / socket error
    decoder_.feed(chunk, static_cast<std::size_t>(received));
  }
}

void TcpClient::finish_sending() {
  std::lock_guard lock(write_mutex_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

}  // namespace efd::ingest

#include "ingest/tcp_transport.hpp"

#include <arpa/inet.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
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

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

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

constexpr int kMaxEvents = 64;

/// epoll_wait timeout for \p left, rounded up so a sub-millisecond
/// remainder still sleeps instead of spinning.
int epoll_timeout_ms(std::chrono::steady_clock::duration left) {
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(left).count();
  return static_cast<int>(std::clamp<long long>(ms, 0, INT_MAX));
}

}  // namespace

/// One accepted connection. The shared_ptr doubles as the Envelope reply
/// channel, so a Connection outlives its place in the reactor for as
/// long as undelivered verdicts reference it.
struct TcpServer::Connection final : VerdictSink {
  Connection(int fd,
             std::shared_ptr<std::atomic<std::uint64_t>> write_failures)
      : fd(fd), write_failures(std::move(write_failures)) {}
  ~Connection() override { close_socket(); }

  void deliver(const Message& verdict) override {
    std::vector<std::uint8_t> frame;
    encode_frame(verdict, frame);
    std::lock_guard lock(write_mutex);
    if (fd < 0) {  // connection already gone: best-effort drop
      write_failures->fetch_add(1, std::memory_order_relaxed);
      return;
    }
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

  std::mutex write_mutex;
  /// -1 once closed. Only the reactor (under its mutex) and the
  /// destructor close it, so reactor-side reads need no write_mutex.
  int fd;
  std::shared_ptr<std::atomic<std::uint64_t>> write_failures;
  /// deliver_many scratch (guarded by write_mutex).
  std::vector<std::vector<std::uint8_t>> write_slots;
  std::vector<iovec> write_iov;
  /// Reactor-side stream state (poll()/stop() only). Holds the bytes
  /// of the batch views decoded from this connection.
  FrameDecoder decoder;
};

TcpServer::TcpServer(const Config& config)
    : config_(config),
      read_buffer_(std::max<std::size_t>(config.read_chunk, 1)) {
  const auto fail = [this](const std::string& what) {
    const int saved = errno;
    close_fd(listen_fd_);
    close_fd(epoll_fd_);
    close_fd(wake_fd_);
    errno = saved;
    throw_errno(what);
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) fail("socket");
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(config.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) < 0) {
    fail("bind");
  }
  socklen_t length = sizeof(address);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) < 0) {
    fail("getsockname");
  }
  port_ = ntohs(address.sin_port);
  if (::listen(listen_fd_, 64) < 0) fail("listen");

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) fail("eventfd");
  // The listener and the wake fd are tagged by their members' addresses;
  // every other event carries its Connection.
  for (int* tagged : {&listen_fd_, &wake_fd_}) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.ptr = tagged;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, *tagged, &event) < 0) {
      fail("epoll_ctl");
    }
  }
}

TcpServer::~TcpServer() { stop(); }

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
        std::make_shared<Connection>(fd, verdict_write_failures_);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.ptr = connection.get();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      continue;  // the connection's destructor closes the socket
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
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

bool TcpServer::read_connection(const std::shared_ptr<Connection>& connection,
                                std::vector<Envelope>& out) {
  // One recv per call is the per-connection read budget: the remainder
  // stays readable (level-triggered) for the next poll.
  const ssize_t received = read_some(*connection);
  if (received <= 0) return received == 0;
  FrameDecoder& decoder = connection->decoder;
  decoder.feed(read_buffer_.data(), static_cast<std::size_t>(received));

  std::uint64_t frames = 0;
  DecodeStatus status;
  for (;;) {
    Envelope& envelope = out.emplace_back();
    status = decoder.next(envelope.message, envelope.batch);
    if (status != DecodeStatus::kMessage) {
      out.pop_back();
      break;
    }
    envelope.reply = connection;
    ++frames;
  }
  frames_.fetch_add(frames, std::memory_order_relaxed);
  if (status == DecodeStatus::kError) {
    // Corrupted framing is unrecoverable; drop the connection.
    connections_dropped_.fetch_add(1, std::memory_order_relaxed);
    connection->shutdown_socket(SHUT_RDWR);
    return false;
  }
  return true;
}

void TcpServer::retire(ConnectionMap::iterator it) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  connections_.erase(it);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

bool TcpServer::poll(std::vector<Envelope>& out,
                     std::chrono::milliseconds timeout) {
  std::lock_guard lock(reactor_mutex_);
  const std::size_t before = out.size();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  epoll_event events[kMaxEvents];
  for (;;) {
    // stop() sets the flag before it writes the wake fd, so a stop that
    // lands after this check still ends the epoll_wait below at once.
    if (stopping_.load(std::memory_order_acquire)) return false;
    const int ready = ::epoll_wait(
        epoll_fd_, events, kMaxEvents,
        epoll_timeout_ms(deadline - std::chrono::steady_clock::now()));
    for (int i = 0; i < ready; ++i) {
      void* const tag = events[i].data.ptr;
      if (tag == &listen_fd_) {
        accept_ready();
        continue;
      }
      const auto it = connections_.find(static_cast<Connection*>(tag));
      if (it == connections_.end()) continue;  // the wake fd
      if (!read_connection(it->second, out)) retire(it);
    }
    // Accepts and partial frames are not progress: keep waiting until a
    // message decodes or the caller's timeout runs out. Returning after
    // the first round that decodes anything keeps its batch views valid:
    // no decoder is fed again before the caller dispatches them.
    if (out.size() > before ||
        std::chrono::steady_clock::now() >= deadline) {
      return true;
    }
  }
}

void TcpServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t woke = ::write(wake_fd_, &one, sizeof(one));
  std::lock_guard lock(reactor_mutex_);
  // Stop accepting (peers still in the backlog are refused by the close)
  // and silence the wake fd, which stays readable from here on.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  close_fd(listen_fd_);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, wake_fd_, nullptr);

  // Graceful drain: closing a socket that still holds unread bytes makes
  // the kernel answer the peer with a reset, failing a sender that is
  // still streaming a job's tail. Half-close so peers see the server is
  // done, then read and discard until each peer's EOF or the grace ends.
  for (const auto& entry : connections_) {
    entry.second->shutdown_socket(SHUT_WR);
  }
  const auto deadline = std::chrono::steady_clock::now() + kStopGrace;
  epoll_event events[kMaxEvents];
  while (!connections_.empty()) {
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::steady_clock::duration::zero()) break;
    const int ready =
        ::epoll_wait(epoll_fd_, events, kMaxEvents, epoll_timeout_ms(left));
    for (int i = 0; i < ready; ++i) {
      const auto it =
          connections_.find(static_cast<Connection*>(events[i].data.ptr));
      if (it == connections_.end() || read_some(*it->second) >= 0) continue;
      it->second->close_socket();
      retire(it);
    }
  }
  for (const auto& entry : connections_) entry.second->close_socket();
  connections_.clear();
  active_connections_.store(0, std::memory_order_relaxed);
  close_fd(epoll_fd_);
  close_fd(wake_fd_);
}

TcpServer::Stats TcpServer::stats() const {
  Stats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_dropped =
      connections_dropped_.load(std::memory_order_relaxed);
  stats.frames = frames_.load(std::memory_order_relaxed);
  stats.verdict_write_failures =
      verdict_write_failures_->load(std::memory_order_relaxed);
  stats.active_connections =
      active_connections_.load(std::memory_order_relaxed);
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

#pragma once
/// \file event_loop.hpp
/// \brief The serve loop's one wait: an epoll set plus a wake eventfd.
///
/// A SourceMux owns one EventLoop, shared with every source and HTTP
/// server attached to it so that it outlives whichever of them is
/// destroyed last. Every fd the serve loop reads is registered here
/// directly, each with a Watcher of its own: the TCP listener and its
/// connections, the UDP socket, the HTTP listener and its connections.
/// One epoll_wait therefore reports whatever is ready anywhere; no
/// source waits on a private epoll, poll(2) or wake fd.
///
/// Timers are one-shot call_at() entries (an HTTP connection's request
/// deadline, a stopping TCP server's drain grace). They bound the same
/// wait and fire as ready(0) after the fd events of a round.
///
/// Threading: one owner thread calls everything except wake(), which
/// any thread may call. A cross-thread stop() sets its server's flag
/// and rings wake(); the owner notices the flag and tears down.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ingest/transport.hpp"

namespace efd::ingest {

/// Throws TransportError("what: strerror(errno)").
[[noreturn]] void throw_errno(const std::string& what);
/// Closes \p fd when open and marks it closed (-1).
void close_fd(int& fd) noexcept;
/// A socket of \p type (SOCK_STREAM or SOCK_DGRAM, plus flags) bound to
/// 127.0.0.1:\p port (0 = ephemeral) and, for a stream, listening;
/// \p bound_port receives the port. Throws TransportError.
int bind_loopback(int type, std::uint16_t port, std::uint16_t& bound_port);

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;

  /// Something registered on the loop.
  class Watcher {
   public:
    /// \p events is the epoll mask of a ready fd, or 0 when a call_at()
    /// timer fired. Sources append what they decode to \p out. A
    /// watcher may remove its own fd here, but no other.
    virtual void ready(std::uint32_t events, std::vector<Envelope>& out) = 0;

   protected:
    ~Watcher() = default;
  };

  /// Throws TransportError when epoll or the eventfd cannot be made.
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers \p fd (level-triggered) with \p watcher as its tag;
  /// false (errno set) when epoll refuses it.
  [[nodiscard]] bool add(int fd, Watcher& watcher, std::uint32_t events);
  /// Changes the events \p fd waits for.
  void modify(int fd, Watcher& watcher, std::uint32_t events);
  /// Deregisters \p fd; call before closing it.
  void remove(int fd) noexcept;

  /// Calls \p watcher.ready(0, ...) from the first run_once() at or
  /// after \p when; replaces the watcher's earlier timer, if any.
  void call_at(Watcher& watcher, Clock::time_point when);
  void cancel(Watcher& watcher) noexcept;

  /// Ends the current or next wait at once. Any thread.
  void wake() noexcept;

  /// Waits up to \p timeout (less when a timer is due sooner), calls the
  /// watcher of each ready fd once, then every due timer.
  void run_once(std::chrono::milliseconds timeout, std::vector<Envelope>& out);

 private:
  struct Timer {
    Clock::time_point when;
    Watcher* watcher;
  };

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< registered with a null tag
  std::vector<Timer> timers_;
};

}  // namespace efd::ingest

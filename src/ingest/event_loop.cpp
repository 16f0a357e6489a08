#include "ingest/event_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <string>

namespace efd::ingest {

namespace {

constexpr int kMaxEvents = 64;

epoll_event event_of(EventLoop::Watcher* watcher, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.ptr = watcher;
  return event;
}

}  // namespace

void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void close_fd(int& fd) noexcept {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

int bind_loopback(int type, std::uint16_t port, std::uint16_t& bound_port) {
  int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  socklen_t length = sizeof(address);
  const bool stream = (type & SOCK_STREAM) != 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address), length) < 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length) < 0 ||
      (stream && ::listen(fd, 64) < 0)) {
    const int saved = errno;
    close_fd(fd);
    errno = saved;
    throw_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  bound_port = ntohs(address.sin_port);
  return fd;
}

EventLoop::EventLoop()
    : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  epoll_event event = event_of(nullptr, EPOLLIN);
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) < 0) {
    const int saved = errno;
    close_fd(wake_fd_);
    close_fd(epoll_fd_);
    errno = saved;
    throw_errno("event loop");
  }
}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

bool EventLoop::add(int fd, Watcher& watcher, std::uint32_t events) {
  epoll_event event = event_of(&watcher, events);
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) == 0;
}

void EventLoop::modify(int fd, Watcher& watcher, std::uint32_t events) {
  epoll_event event = event_of(&watcher, events);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
}

void EventLoop::remove(int fd) noexcept {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::call_at(Watcher& watcher, Clock::time_point when) {
  cancel(watcher);
  timers_.push_back(Timer{when, &watcher});
}

void EventLoop::cancel(Watcher& watcher) noexcept {
  std::erase_if(timers_,
                [&](const Timer& timer) { return timer.watcher == &watcher; });
}

void EventLoop::wake() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rung = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::run_once(std::chrono::milliseconds timeout,
                         std::vector<Envelope>& out) {
  using std::chrono::milliseconds;
  auto wait = std::max(timeout, milliseconds(0));
  for (const Timer& timer : timers_) {
    // Rounded up, so a timer less than a millisecond away still sleeps
    // instead of spinning.
    const auto left =
        std::chrono::ceil<milliseconds>(timer.when - Clock::now());
    wait = std::clamp(left, milliseconds(0), wait);
  }
  epoll_event events[kMaxEvents];
  const int ready = ::epoll_wait(
      epoll_fd_, events, kMaxEvents,
      static_cast<int>(std::min<long long>(wait.count(), INT_MAX)));
  for (int i = 0; i < ready; ++i) {
    auto* const watcher = static_cast<Watcher*>(events[i].data.ptr);
    if (watcher == nullptr) {
      std::uint64_t rings = 0;
      [[maybe_unused]] const ssize_t drained =
          ::read(wake_fd_, &rings, sizeof(rings));
      continue;
    }
    watcher->ready(events[i].events, out);
  }
  // A fired timer is removed before its watcher runs, so the watcher may
  // arm a new one.
  const auto now = Clock::now();
  const auto due = [now](const Timer& timer) { return timer.when <= now; };
  for (auto it = std::ranges::find_if(timers_, due); it != timers_.end();
       it = std::ranges::find_if(timers_, due)) {
    Watcher& watcher = *it->watcher;
    timers_.erase(it);
    watcher.ready(0, out);
  }
}

}  // namespace efd::ingest

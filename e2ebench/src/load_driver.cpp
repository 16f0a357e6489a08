#include "load_driver.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "ingest/shm_transport.hpp"

namespace e2ebench {

using efd::ingest::DecodeStatus;
using efd::ingest::FrameDecoder;
using efd::ingest::Message;
using efd::ingest::MessageType;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

class TcpChannel final : public Channel {
 public:
  explicit TcpChannel(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to serve failed: " +
                               std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~TcpChannel() override { ::close(fd_); }
  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  std::size_t write_some(const std::uint8_t* data, std::size_t size) override {
    for (;;) {
      const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    }
  }

  std::size_t read_some(std::uint8_t* out, std::size_t size) override {
    for (;;) {
      const ssize_t n = ::recv(fd_, out, size, 0);
      if (n > 0) return static_cast<std::size_t>(n);
      if (n == 0) throw std::runtime_error("serve closed the connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
    }
  }

  int fd() const override { return fd_; }

 private:
  int fd_ = -1;
};

/// Producer end of an EFD-SHM-V1 segment, speaking the ring protocol of
/// ingest/shm_transport.cpp byte-wise so sends never block and partial
/// frames are fine (the server decodes a byte stream, like TCP).
class ShmChannel final : public Channel {
 public:
  explicit ShmChannel(const std::string& name)
      : region_(name, /*create=*/false, 0, 0, 5000) {}

  std::size_t write_some(const std::uint8_t* data, std::size_t size) override {
    efd::ingest::ShmHeader& header = region_.header();
    if (header.consumer_closed.load(std::memory_order_acquire) != 0) {
      throw std::runtime_error("serve closed the shm segment");
    }
    const std::uint32_t capacity = header.inbound_capacity;
    const std::uint64_t head = header.in_head.load(std::memory_order_relaxed);
    const std::uint64_t tail = header.in_tail.load(std::memory_order_acquire);
    if (head - tail > capacity) throw std::runtime_error("shm cursors corrupt");
    const std::size_t n = std::min<std::size_t>(size, capacity - (head - tail));
    if (n == 0) return 0;
    const std::size_t at = static_cast<std::size_t>(head % capacity);
    const std::size_t first = std::min<std::size_t>(n, capacity - at);
    std::memcpy(region_.inbound() + at, data, first);
    if (first < n) std::memcpy(region_.inbound(), data + first, n - first);
    header.in_head.store(head + n, std::memory_order_release);
    return n;
  }

  std::size_t read_some(std::uint8_t* out, std::size_t size) override {
    efd::ingest::ShmHeader& header = region_.header();
    const std::uint32_t capacity = header.outbound_capacity;
    const std::uint64_t tail = header.out_tail.load(std::memory_order_relaxed);
    const std::uint64_t head = header.out_head.load(std::memory_order_acquire);
    if (head - tail > capacity) throw std::runtime_error("shm cursors corrupt");
    const std::size_t n = std::min<std::size_t>(size, head - tail);
    if (n == 0) return 0;
    const std::size_t at = static_cast<std::size_t>(tail % capacity);
    const std::size_t first = std::min<std::size_t>(n, capacity - at);
    std::memcpy(out, region_.outbound() + at, first);
    if (first < n) std::memcpy(out + first, region_.outbound(), n - first);
    header.out_tail.store(tail + n, std::memory_order_release);
    return n;
  }

  int fd() const override { return -1; }

 private:
  efd::ingest::ShmRegion region_;
};

/// Bytes handed to a channel but not yet accepted by it.
struct Outbox {
  std::vector<std::uint8_t> bytes;
  std::size_t head = 0;

  std::size_t pending() const noexcept { return bytes.size() - head; }
  void compact() {
    if (head == bytes.size()) {
      bytes.clear();
      head = 0;
    } else if (head > (64u << 10) && head * 2 > bytes.size()) {
      bytes.erase(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
};

/// Frames appended to an outbox before the generator stops filling it:
/// enough to keep a socket busy, small enough that back-pressure shows
/// as blocked time rather than as a deep local queue.
constexpr std::size_t kMaxOutbox = 64u << 10;

/// One connection as the generator sees it: data lanes carry a slice
/// of the schedule, the control link (churn) carries dictionary swaps.
struct Link {
  Channel* channel = nullptr;
  std::uint8_t id = 0;  ///< data lane index; kControl for the control link
  const std::vector<ScheduledFrame>* frames = nullptr;  ///< null: control
  std::size_t pos = 0;  ///< next schedule entry
  Outbox out;
  FrameDecoder decoder;
  std::int64_t blocked_since = -1;
  std::int64_t first_send_ns = 0;
  std::int64_t last_send_ns = 0;
  std::size_t opened = 0;
  std::size_t verdicts = 0;
  bool readable = true;  ///< the last poll saw POLLIN (always true for shm)

  bool has_frames() const { return frames != nullptr && pos < frames->size(); }
  bool sent_all() const { return !has_frames() && out.pending() == 0; }
};

constexpr std::uint8_t kControl = 255;

/// The load generator: one thread drives every link, so it occupies at
/// most one core and leaves the rest to serve.
class Generator {
 public:
  Generator(const std::vector<ExecTemplate>& execs, const Schedule& schedule,
            const std::vector<Channel*>& data, Channel* control,
            const DriveConfig& config, DriveResult& result)
      : execs_(execs), schedule_(schedule), config_(config), result_(result) {
    links_.resize(data.size() + (control != nullptr ? 1 : 0));
    for (std::size_t lane = 0; lane < data.size(); ++lane) {
      links_[lane].channel = data[lane];
      links_[lane].id = static_cast<std::uint8_t>(lane);
      links_[lane].frames = &schedule.lanes[lane];
      if (config.open_loop) result.lag_us.reserve(result.lag_us.size() + schedule.lanes[lane].size());
    }
    if (control != nullptr) {
      links_.back().channel = control;
      links_.back().id = kControl;
    }
    for (Link& link : links_) link.decoder.set_buffer_pool(nullptr);
    if (config.trace) {
      // Room for a send and a receive span per frame up front: growing
      // the vector mid-run would stall the generator it is tracing.
      std::size_t frames = 0;
      for (const auto& lane : schedule.lanes) frames += lane.size();
      result.spans.reserve(std::min<std::size_t>(2 * frames + 4096, 1u << 23));
    }
  }

  void run() {
    // Wake on the intended time, not up to 50 µs after it.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    // A common origin a little ahead for every lane's intended times.
    start_ns_ = now_ns() + 20'000'000;
    sleep_until(start_ns_);
    next_swap_ns_ = start_ns_ + config_.swap_period_ns;
    try {
      loop();
    } catch (const std::exception& error) {
      result_.error = error.what();
    }
    for (const Link& link : links_) {
      if (link.id == kControl) continue;
      if (link.blocked_since >= 0) {
        result_.blocked_ns += static_cast<double>(now_ns() - link.blocked_since);
      }
      if (link.first_send_ns == 0) continue;
      if (result_.first_send_ns == 0 || link.first_send_ns < result_.first_send_ns) {
        result_.first_send_ns = link.first_send_ns;
      }
      result_.last_send_ns = std::max(result_.last_send_ns, link.last_send_ns);
      result_.sending_ns += static_cast<double>(link.last_send_ns - link.first_send_ns);
    }
  }

 private:
  void loop() {
    std::int64_t done_ns = 0;
    for (;;) {
      std::int64_t now = now_ns();
      for (Link& link : links_) {
        if (link.id == kControl) {
          queue_swap(link, now);
        } else {
          fill(link, now);
        }
        now = flush(link, now);
      }
      for (Link& link : links_) {
        if (link.readable || link.channel->fd() < 0) receive(link);
        link.readable = false;
      }

      now = now_ns();
      const bool sent_all = std::all_of(links_.begin(), links_.end(), [](const Link& link) {
        return link.id == kControl || link.sent_all();
      });
      if (sent_all) {
        if (done_ns == 0) done_ns = now;
        const bool answered = std::all_of(links_.begin(), links_.end(), [&](const Link& link) {
          return link.id == kControl ? !swap_outstanding_ && link.out.pending() == 0
                                     : link.verdicts >= link.opened;
        });
        if (answered || now - done_ns > config_.drain_timeout_ns) break;
      }
      wait(now);
    }
  }

  bool data_flowing() const {
    return std::any_of(links_.begin(), links_.end(),
                       [](const Link& link) { return link.has_frames(); });
  }

  /// Moves every due frame of a data lane into its outbox.
  void fill(Link& link, std::int64_t now) {
    const std::vector<ScheduledFrame>& frames = *link.frames;
    while (link.pos < frames.size() && link.out.pending() < kMaxOutbox) {
      const ScheduledFrame& frame = frames[link.pos];
      const ScheduledJob& job = schedule_.jobs[frame.job];
      const ExecTemplate& exec = execs_[job.exec];
      const std::size_t index = job.job_id - 1;
      if (config_.open_loop) {
        if (start_ns_ + frame.due_ns > now) break;
        result_.lag_us.push_back(static_cast<double>(now - start_ns_ - frame.due_ns) / 1e3);
      } else if (!result_.opened[index] &&
                 (frame.frame != 0 ||
                  now - start_ns_ >= config_.stop_opening_after_ns)) {
        ++link.pos;  // closed loop winding down: never start this job
        continue;
      }
      const FrameRef& ref = exec.frames[frame.frame];
      Outbox& out = link.out;
      const std::size_t at = out.bytes.size();
      out.bytes.insert(out.bytes.end(), exec.bytes.begin() + ref.offset,
                       exec.bytes.begin() + ref.offset + ref.size);
      patch_job_id(out.bytes.data() + at, job.job_id);
      if (frame.frame == 0) {
        result_.opened[index] = 1;
        ++link.opened;
      }
      if (frame.frame == exec.closing_frame) {
        result_.close_ns[index] = config_.open_loop ? start_ns_ + frame.due_ns : now;
      }
      result_.samples_sent += ref.samples;
      ++result_.frames_sent;
      ++link.pos;
    }
  }

  /// Churn: one swap per period while data flows, at most one in flight.
  void queue_swap(Link& link, std::int64_t now) {
    if (swap_outstanding_ || config_.swap_frames.empty() ||
        config_.swap_period_ns <= 0 || now < next_swap_ns_ || !data_flowing()) {
      return;
    }
    const std::vector<std::uint8_t>& frame =
        *config_.swap_frames[swaps_sent_ % config_.swap_frames.size()];
    link.out.bytes.insert(link.out.bytes.end(), frame.begin(), frame.end());
    swap_sent_ns_ = now;
    swap_outstanding_ = true;
    ++swaps_sent_;
    next_swap_ns_ += config_.swap_period_ns;
  }

  /// Writes as much of the link's outbox as the channel takes and tracks
  /// the time data lanes spend with bytes due but nowhere to put them.
  /// Returns the time after the write.
  std::int64_t flush(Link& link, std::int64_t now) {
    if (link.out.pending() == 0) return now;
    const std::size_t n = link.channel->write_some(
        link.out.bytes.data() + link.out.head, link.out.pending());
    const std::int64_t end = now_ns();
    if (config_.trace && n > 0) {
      result_.spans.push_back({now, end, static_cast<std::uint32_t>(n), link.id, 0});
    }
    link.out.head += n;
    if (link.id != kControl) {
      result_.bytes_sent += n;
      if (n > 0) {
        if (link.first_send_ns == 0) link.first_send_ns = now;
        link.last_send_ns = end;
      }
      if (link.out.pending() > 0) {
        if (link.blocked_since < 0) link.blocked_since = end;
      } else if (link.blocked_since >= 0) {
        result_.blocked_ns += static_cast<double>(end - link.blocked_since);
        link.blocked_since = -1;
      }
    }
    link.out.compact();
    return end;
  }

  void receive(Link& link) {
    for (;;) {
      const std::int64_t begin = now_ns();
      const std::size_t n = link.channel->read_some(buffer_, sizeof buffer_);
      if (n == 0) return;
      const std::int64_t at = now_ns();
      if (config_.trace) {
        result_.spans.push_back({begin, at, static_cast<std::uint32_t>(n), link.id, 1});
      }
      link.decoder.feed(buffer_, n);
      Message message;
      DecodeStatus status;
      while ((status = link.decoder.next(message)) == DecodeStatus::kMessage) {
        handle(link, message, at);
      }
      if (status == DecodeStatus::kError) {
        throw std::runtime_error("undecodable reply: " + link.decoder.error());
      }
    }
  }

  void handle(Link& link, const Message& message, std::int64_t at) {
    if (message.type == MessageType::kVerdict) {
      const std::uint64_t id = message.job_id;
      if (id == 0 || id > schedule_.jobs.size() ||
          schedule_.jobs[id - 1].lane != link.id) {
        ++result_.unexpected;
        return;
      }
      if (result_.verdict_ns[id - 1] != 0) {
        ++result_.duplicates;
        return;
      }
      result_.verdict_ns[id - 1] = at;
      result_.verdicts[id - 1] = message.verdict;
      result_.last_verdict_ns = std::max(result_.last_verdict_ns, at);
      ++link.verdicts;
      return;
    }
    if (message.type == MessageType::kSwapAck && link.id == kControl &&
        swap_outstanding_) {
      swap_outstanding_ = false;
      if (!message.swap_ack.ok) ++result_.swap_failures;
      result_.swap_ack_ms.push_back(static_cast<double>(at - swap_sent_ns_) / 1e6);
      return;
    }
    ++result_.unexpected;
  }

  /// Sleeps until the next frame is due, a reply arrives, or a blocked
  /// socket drains — whichever comes first.
  void wait(std::int64_t now) {
    std::int64_t wake = now + 1'000'000;  // draining: re-check each ms
    bool blocked = false;
    bool sleep_only = false;
    pollfd fds[8];
    Link* polled[8];
    nfds_t count = 0;
    for (Link& link : links_) {
      if (link.out.pending() > 0) {
        blocked = true;
      } else if (link.has_frames()) {
        const ScheduledFrame& next = (*link.frames)[link.pos];
        wake = std::min(wake, config_.open_loop ? start_ns_ + next.due_ns : now);
      }
      if (link.channel->fd() < 0) {
        sleep_only = true;
      } else if (count < 8) {
        polled[count] = &link;
        fds[count++] = {link.channel->fd(),
                        static_cast<short>(POLLIN | (link.out.pending() > 0 ? POLLOUT : 0)),
                        0};
      }
    }
    if (!swap_outstanding_ && !config_.swap_frames.empty() && data_flowing()) {
      wake = std::min(wake, next_swap_ns_);
    }
    if (sleep_only) {
      // Shared memory has no descriptor: a short sleep bounds both the
      // send lateness and the reply-receipt resolution.
      wake = std::min(wake, now + 20'000);
      if (wake > now) sleep_until(wake);
      return;
    }
    const std::int64_t wait_ns =
        blocked ? std::min<std::int64_t>(std::max<std::int64_t>(0, wake - now), 1'000'000)
                : std::max<std::int64_t>(0, wake - now);
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds, count, &timeout, nullptr) <= 0) return;
    for (nfds_t i = 0; i < count; ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) polled[i]->readable = true;
    }
  }

  static void sleep_until(std::int64_t target_ns) {
    const timespec target{static_cast<time_t>(target_ns / 1'000'000'000),
                          static_cast<long>(target_ns % 1'000'000'000)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &target, nullptr) ==
           EINTR) {
    }
  }

  const std::vector<ExecTemplate>& execs_;
  const Schedule& schedule_;
  const DriveConfig& config_;
  DriveResult& result_;
  std::vector<Link> links_;
  std::int64_t start_ns_ = 0;
  std::uint8_t buffer_[64 * 1024];

  bool swap_outstanding_ = false;
  std::size_t swaps_sent_ = 0;
  std::int64_t swap_sent_ns_ = 0;
  std::int64_t next_swap_ns_ = 0;
};

}  // namespace

std::unique_ptr<Channel> connect_tcp(std::uint16_t port) {
  return std::make_unique<TcpChannel>(port);
}

std::unique_ptr<Channel> attach_shm(const std::string& name) {
  return std::make_unique<ShmChannel>(name);
}

DriveResult drive(const std::vector<ExecTemplate>& execs,
                  const Schedule& schedule, const std::vector<Channel*>& data,
                  Channel* control, const DriveConfig& config) {
  if (data.size() != schedule.lanes.size() || data.empty() || data.size() > 4) {
    throw std::invalid_argument("one data channel per schedule lane (1..4)");
  }
  DriveResult result;
  const std::size_t jobs = schedule.jobs.size();
  result.close_ns.assign(jobs, 0);
  result.verdict_ns.assign(jobs, 0);
  result.verdicts.resize(jobs);
  result.opened.assign(jobs, 0);
  // The generator gets its own thread so its timer slack setting does not
  // leak into the caller's.
  auto generator = std::make_unique<Generator>(execs, schedule, data, control,
                                               config, result);
  std::thread thread([&generator] { generator->run(); });
  thread.join();
  return result;
}

VerdictCheck check_verdicts(const Schedule& schedule, const DriveResult& result,
                            const ReferenceTable& reference) {
  VerdictCheck check;
  for (std::size_t i = 0; i < schedule.jobs.size(); ++i) {
    if (!result.opened[i]) continue;
    ++check.expected;
    if (result.verdict_ns[i] == 0) {
      ++check.missing;
      continue;
    }
    ++check.received;
    const efd::ingest::WireVerdict& expected = reference[schedule.jobs[i].exec];
    const efd::ingest::WireVerdict& got = result.verdicts[i];
    if (got == expected) continue;
    if (check.wrong++ == 0) {
      check.first_mismatch =
          "job " + std::to_string(schedule.jobs[i].job_id) + ": got " +
          got.application + "/" + got.label + " " +
          std::to_string(got.matched) + "/" + std::to_string(got.fingerprints) +
          ", expected " + expected.application + "/" + expected.label + " " +
          std::to_string(expected.matched) + "/" +
          std::to_string(expected.fingerprints);
    }
  }
  return check;
}

std::vector<double> verdict_latencies_us(const DriveResult& result) {
  std::vector<double> latencies;
  latencies.reserve(result.verdict_ns.size());
  for (std::size_t i = 0; i < result.verdict_ns.size(); ++i) {
    if (result.close_ns[i] == 0 || result.verdict_ns[i] == 0) continue;
    latencies.push_back(
        static_cast<double>(result.verdict_ns[i] - result.close_ns[i]) / 1e3);
  }
  return latencies;
}

double swap_round_trip_ms(Channel& channel,
                          const std::vector<std::uint8_t>& frame,
                          std::chrono::milliseconds timeout) {
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + timeout.count() * 1'000'000;
  std::size_t sent = 0;
  FrameDecoder decoder;
  decoder.set_buffer_pool(nullptr);
  std::vector<std::uint8_t> buffer(64 * 1024);
  while (now_ns() < deadline) {
    if (sent < frame.size()) {
      sent += channel.write_some(frame.data() + sent, frame.size() - sent);
    }
    const std::size_t n = channel.read_some(buffer.data(), buffer.size());
    if (n > 0) {
      decoder.feed(buffer.data(), n);
      Message message;
      while (decoder.next(message) == DecodeStatus::kMessage) {
        if (message.type == MessageType::kSwapAck) {
          if (!message.swap_ack.ok) return -1.0;
          return static_cast<double>(now_ns() - start) / 1e6;
        }
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return -1.0;
}

}  // namespace e2ebench

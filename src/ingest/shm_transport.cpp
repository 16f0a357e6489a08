#include "ingest/shm_transport.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <thread>
#include <utility>

namespace efd::ingest {

namespace {

using Clock = std::chrono::steady_clock;

/// Copies \p size bytes into a ring at absolute cursor \p pos (wraps).
void ring_write(std::uint8_t* ring, std::uint32_t capacity, std::uint64_t pos,
                const std::uint8_t* data, std::size_t size) {
  const std::size_t at = static_cast<std::size_t>(pos % capacity);
  const std::size_t first = std::min<std::size_t>(size, capacity - at);
  std::memcpy(ring + at, data, first);
  if (first < size) std::memcpy(ring, data + first, size - first);
}

/// Copies \p size bytes out of a ring at absolute cursor \p pos (wraps).
void ring_read(const std::uint8_t* ring, std::uint32_t capacity,
               std::uint64_t pos, std::uint8_t* data, std::size_t size) {
  const std::size_t at = static_cast<std::size_t>(pos % capacity);
  const std::size_t first = std::min<std::size_t>(size, capacity - at);
  std::memcpy(data, ring + at, first);
  if (first < size) std::memcpy(data + first, ring, size - first);
}

/// Millisecond sleep unit of every waiting side: monitoring cadence,
/// not a spin target.
void wait_tick() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }

/// CLOCK_MONOTONIC ns — comparable across the two processes sharing the
/// segment (std::chrono::steady_clock is CLOCK_MONOTONIC on Linux).
std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// A consumer silent past this is presumed dead. It refreshes every
/// poll (millisecond cadence when idle), so the margin is generous —
/// wide enough to ride out the poll loop's occasional synchronous work
/// (a large snapshot write or boot-time restore) without declaring a
/// live server dead under a blocked producer.
constexpr std::int64_t kConsumerStaleNs = 30'000'000'000;

/// True when \p segment_name holds an EFD-SHM-V1 segment whose consumer
/// heartbeat is fresh — i.e. a live server owns it. Anything else
/// (missing, undersized, foreign magic, stale or never-set heartbeat)
/// is safe to replace.
bool segment_has_live_consumer(const std::string& segment_name) {
  const int fd = ::shm_open(segment_name.c_str(), O_RDWR, 0600);
  if (fd < 0) return false;
  struct stat info{};
  bool live = false;
  if (::fstat(fd, &info) == 0 &&
      static_cast<std::size_t>(info.st_size) >= sizeof(ShmHeader)) {
    void* mapping = ::mmap(nullptr, sizeof(ShmHeader),
                           PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (mapping != MAP_FAILED) {
      const auto* header = static_cast<const ShmHeader*>(mapping);
      if (header->magic == kShmMagic) {
        const std::int64_t heartbeat =
            header->consumer_heartbeat_ns.load(std::memory_order_acquire);
        live = heartbeat != 0 &&
               monotonic_ns() - heartbeat <= kConsumerStaleNs;
      }
      ::munmap(mapping, sizeof(ShmHeader));
    }
  }
  ::close(fd);
  return live;
}

}  // namespace

std::string shm_segment_name(const std::string& name) {
  std::string out = "/efd_";
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

ShmRegion::ShmRegion(const std::string& name, bool create,
                     std::uint32_t inbound_capacity,
                     std::uint32_t outbound_capacity, int attach_timeout_ms)
    : segment_name_(shm_segment_name(name)), owner_(create) {
  int fd = -1;
  if (create) {
    if (inbound_capacity == 0 || outbound_capacity == 0) {
      throw TransportError("shm ring capacities must be > 0");
    }
    // A stale same-name segment (crashed predecessor) must not leak
    // into this serving lifetime — but a segment whose consumer
    // heartbeat is FRESH belongs to a live server, and replacing it
    // would silently hijack that endpoint (its clients re-attach here,
    // the old process keeps polling an orphan). Probe before unlinking.
    fd = ::shm_open(segment_name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0 && errno == EEXIST) {
      if (segment_has_live_consumer(segment_name_)) {
        throw TransportError("shm segment " + segment_name_ +
                             " is already served by a live process");
      }
      ::shm_unlink(segment_name_.c_str());
      fd = ::shm_open(segment_name_.c_str(), O_CREAT | O_EXCL | O_RDWR,
                      0600);
    }
    if (fd < 0) {
      throw TransportError("shm_open(create " + segment_name_ +
                           "): " + std::strerror(errno));
    }
    mapped_bytes_ = sizeof(ShmHeader) + inbound_capacity + outbound_capacity;
    if (::ftruncate(fd, static_cast<off_t>(mapped_bytes_)) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd);
      ::shm_unlink(segment_name_.c_str());
      throw TransportError("ftruncate " + segment_name_ + ": " + reason);
    }
  } else {
    const auto deadline = Clock::now() + std::chrono::milliseconds(
                                             std::max(attach_timeout_ms, 0));
    for (;;) {
      fd = ::shm_open(segment_name_.c_str(), O_RDWR, 0600);
      if (fd >= 0) {
        struct stat info{};
        if (::fstat(fd, &info) == 0 &&
            static_cast<std::size_t>(info.st_size) > sizeof(ShmHeader)) {
          mapped_bytes_ = static_cast<std::size_t>(info.st_size);
          break;
        }
        ::close(fd);
        fd = -1;
      }
      if (Clock::now() >= deadline) {
        throw TransportError("shm segment " + segment_name_ +
                             " not available");
      }
      wait_tick();
    }
  }

  mapping_ = ::mmap(nullptr, mapped_bytes_, PROT_READ | PROT_WRITE,
                    MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the segment alive
  if (mapping_ == MAP_FAILED) {
    mapping_ = nullptr;
    if (owner_) ::shm_unlink(segment_name_.c_str());
    throw TransportError("mmap " + segment_name_ + ": " +
                         std::strerror(errno));
  }

  if (create) {
    header_ = new (mapping_) ShmHeader();
    // Heartbeat before magic: a concurrent same-name creator probes
    // liveness as (magic && fresh heartbeat), so once it can see the
    // magic it also sees a live heartbeat — shrinking the double-start
    // window in which it could unlink this segment to nothing useful.
    header_->consumer_heartbeat_ns.store(monotonic_ns(),
                                         std::memory_order_release);
    header_->magic = kShmMagic;
    header_->version = kShmVersion;
    header_->inbound_capacity = inbound_capacity;
    header_->outbound_capacity = outbound_capacity;
  } else {
    header_ = static_cast<ShmHeader*>(mapping_);
    const auto deadline = Clock::now() + std::chrono::milliseconds(
                                             std::max(attach_timeout_ms, 0));
    while (header_->ready.load(std::memory_order_acquire) == 0) {
      if (Clock::now() >= deadline) {
        throw TransportError("shm segment " + segment_name_ + " never ready");
      }
      wait_tick();
    }
    if (header_->magic != kShmMagic || header_->version != kShmVersion ||
        sizeof(ShmHeader) + header_->inbound_capacity +
                header_->outbound_capacity >
            mapped_bytes_) {
      throw TransportError("shm segment " + segment_name_ +
                           " has an incompatible layout");
    }
  }
  inbound_ = static_cast<std::uint8_t*>(mapping_) + sizeof(ShmHeader);
  outbound_ = inbound_ + header_->inbound_capacity;
  if (create) header_->ready.store(1, std::memory_order_release);
}

ShmRegion::~ShmRegion() {
  if (mapping_ != nullptr) ::munmap(mapping_, mapped_bytes_);
  if (owner_) ::shm_unlink(segment_name_.c_str());
}

/// Writes verdict frames into the outbound ring; sheds (counted) when
/// the emitter stopped reading — the pipeline thread never stalls here.
class ShmRingServer::ReplySink final : public VerdictSink {
 public:
  explicit ReplySink(std::shared_ptr<ShmRegion> region)
      : region_(std::move(region)) {}

  void deliver(const Message& verdict) override {
    ShmHeader& header = region_->header();
    std::vector<std::uint8_t> frame;
    encode_frame(verdict, frame);
    const std::uint64_t head = header.out_head.load(std::memory_order_relaxed);
    const std::uint64_t tail = header.out_tail.load(std::memory_order_acquire);
    // out_tail is the peer's cursor: a corrupt value (tail > head, or a
    // delta past the ring) must shed the verdict, not fake free space.
    if (head - tail > header.outbound_capacity) {
      header.verdicts_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t space = header.outbound_capacity - (head - tail);
    if (frame.size() > space) {
      header.verdicts_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ring_write(region_->outbound(), header.outbound_capacity, head,
               frame.data(), frame.size());
    header.out_head.store(head + frame.size(), std::memory_order_release);
  }

 private:
  std::shared_ptr<ShmRegion> region_;
};

ShmRingServer::ShmRingServer(const std::string& name)
    : ShmRingServer(name, Config()) {}

ShmRingServer::ShmRingServer(const std::string& name, const Config& config)
    : name_(name),
      config_(config),
      region_(std::make_shared<ShmRegion>(name, /*create=*/true,
                                          config.inbound_bytes,
                                          config.outbound_bytes)),
      reply_(std::make_shared<ReplySink>(region_)) {
  // Liveness is visible to producers from the first attach, not the
  // first poll.
  region_->header().consumer_heartbeat_ns.store(monotonic_ns(),
                                                std::memory_order_relaxed);
}

ShmRingServer::~ShmRingServer() { stop(); }

void ShmRingServer::stop() {
  ShmHeader& header = region_->header();
  if (header.consumer_closed.load(std::memory_order_acquire) != 0) return;
  // Graceful drain, as TcpServer::stop() does: a producer in mid-session
  // (bytes written since the last turnover, not yet finished) would fail
  // its next send once consumer_closed is set. Keep discarding its bytes,
  // heartbeat fresh, until it finishes or the grace ends. An idle
  // segment closes at once.
  const auto deadline = Clock::now() + kStopGrace;
  while (header.producer_closed.load(std::memory_order_acquire) == 0 &&
         header.in_head.load(std::memory_order_acquire) != session_start_ &&
         Clock::now() < deadline) {
    header.consumer_heartbeat_ns.store(monotonic_ns(),
                                       std::memory_order_relaxed);
    header.in_tail.store(header.in_head.load(std::memory_order_acquire),
                         std::memory_order_release);
    wait_tick();
  }
  header.consumer_closed.store(1, std::memory_order_release);
}

void ShmRingServer::retire() {
  // Corrupt framing or cursors are unrecoverable mid-stream, exactly like
  // a poisoned TCP connection: retire the source, keep the service, and
  // close at once so the producer fails instead of blocking on a ring
  // nobody drains.
  ++stats_.decode_errors;
  dead_ = true;
  region_->header().consumer_closed.store(1, std::memory_order_release);
}

std::size_t ShmRingServer::drain_inbound() {
  ShmHeader& header = region_->header();
  const std::uint64_t tail = header.in_tail.load(std::memory_order_relaxed);
  const std::uint64_t head = header.in_head.load(std::memory_order_acquire);
  // The producer owns in_head and shares the segment: NEVER trust the
  // delta. A cursor pair that claims more bytes than the ring holds
  // (including tail > head underflow) is corruption — retire the
  // source, exactly like a poisoned frame stream, instead of
  // over-allocating or reading past the mapping.
  if (head - tail > header.inbound_capacity) {
    retire();
    return 0;
  }
  const std::size_t available = static_cast<std::size_t>(head - tail);
  if (available == 0) return 0;
  scratch_.resize(available);
  ring_read(region_->inbound(), header.inbound_capacity, tail,
            scratch_.data(), available);
  header.in_tail.store(tail + available, std::memory_order_release);
  decoder_.feed(scratch_.data(), available);
  stats_.bytes += available;
  return available;
}

bool ShmRingServer::poll(std::vector<Envelope>& out) {
  ShmHeader& header = region_->header();
  // Retired by a corrupt stream, or stopped.
  if (dead_ || header.consumer_closed.load(std::memory_order_acquire) != 0) {
    return false;
  }
  header.consumer_heartbeat_ns.store(monotonic_ns(),
                                     std::memory_order_relaxed);
  drain_inbound();
  if (dead_) return false;  // cursor corruption: source retired
  // Decode after the feed above: the batch views stay valid until the
  // next poll's feed.
  for (std::size_t appended = 0; appended < config_.max_messages_per_poll;
       ++appended) {
    Envelope& envelope = out.emplace_back();
    if (decoder_.next(envelope.message, envelope.batch) !=
        DecodeStatus::kMessage) {
      out.pop_back();
      break;
    }
    envelope.reply = reply_;
    ++stats_.frames;
  }
  if (decoder_.failed()) {
    retire();
    return false;
  }
  const bool producer_done =
      header.producer_closed.load(std::memory_order_acquire) != 0;
  const bool drained =
      header.in_head.load(std::memory_order_acquire) ==
          header.in_tail.load(std::memory_order_relaxed) &&
      decoder_.buffered_bytes() == 0;
  if (producer_done && drained) {
    // Session turnover, the TCP-hangup analog: this emitter finished
    // and is fully drained, so re-open the segment for the next one
    // instead of retiring the listener — a sole shm listener must not
    // shut the endpoint down because one replay ended. Only a corrupt
    // stream (dead_) or stop() retires the source.
    header.producer_closed.store(0, std::memory_order_release);
    session_start_ = header.in_head.load(std::memory_order_acquire);
  }
  return true;
}

ShmRingServer::Stats ShmRingServer::stats() const {
  Stats stats = stats_;
  const ShmHeader& header = region_->header();
  stats.producer_blocked =
      header.producer_blocked.load(std::memory_order_relaxed);
  stats.verdicts_dropped =
      header.verdicts_dropped.load(std::memory_order_relaxed);
  return stats;
}

TransportCounters ShmRingServer::transport_counters() const {
  const Stats stats = this->stats();
  TransportCounters counters;
  counters.frames = stats.frames;
  counters.decode_errors = stats.decode_errors;
  counters.drops = stats.verdicts_dropped;
  counters.blocked = stats.producer_blocked;
  return counters;
}

ShmRingClient::ShmRingClient(const std::string& name, int attach_timeout_ms)
    : region_(std::make_shared<ShmRegion>(name, /*create=*/false, 0, 0,
                                          attach_timeout_ms)) {}

void ShmRingClient::send(Message message) {
  ShmHeader& header = region_->header();
  encode_buffer_.clear();
  encode_frame(message, encode_buffer_);
  if (encode_buffer_.size() > header.inbound_capacity) {
    throw TransportError("frame larger than the shm inbound ring");
  }
  bool counted_block = false;
  for (;;) {
    if (header.consumer_closed.load(std::memory_order_acquire) != 0) {
      throw TransportError("send on a closed shm transport");
    }
    const std::uint64_t head = header.in_head.load(std::memory_order_relaxed);
    const std::uint64_t tail = header.in_tail.load(std::memory_order_acquire);
    if (head - tail > header.inbound_capacity) {
      // The consumer's tail cursor is corrupt: fail loudly rather than
      // write into a ring whose occupancy can no longer be reasoned
      // about.
      throw TransportError("shm inbound cursors corrupt");
    }
    const std::uint64_t space = header.inbound_capacity - (head - tail);
    if (encode_buffer_.size() <= space) {
      ring_write(region_->inbound(), header.inbound_capacity, head,
                 encode_buffer_.data(), encode_buffer_.size());
      header.in_head.store(head + encode_buffer_.size(),
                           std::memory_order_release);
      return;
    }
    if (!counted_block) {
      // One back-pressure event per stalled send, like the ring
      // transport's blocked_sends.
      header.producer_blocked.fetch_add(1, std::memory_order_relaxed);
      counted_block = true;
    }
    // Liveness: a consumer that CRASHED (rather than closed) stops
    // refreshing its heartbeat; blocking against its orphaned segment
    // would otherwise spin forever.
    const std::int64_t heartbeat =
        header.consumer_heartbeat_ns.load(std::memory_order_relaxed);
    if (heartbeat != 0 && monotonic_ns() - heartbeat > kConsumerStaleNs) {
      throw TransportError("shm consumer heartbeat stale (service dead?)");
    }
    wait_tick();
  }
}

bool ShmRingClient::receive(Message& out, std::chrono::milliseconds timeout) {
  ShmHeader& header = region_->header();
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    switch (decoder_.next(out)) {
      case DecodeStatus::kMessage:
        return true;
      case DecodeStatus::kError:
        return false;
      case DecodeStatus::kNeedMore:
        break;
    }
    const std::uint64_t tail = header.out_tail.load(std::memory_order_relaxed);
    const std::uint64_t head = header.out_head.load(std::memory_order_acquire);
    if (head - tail > header.outbound_capacity) {
      return false;  // corrupt peer cursor: never allocate from it
    }
    const std::size_t available = static_cast<std::size_t>(head - tail);
    if (available > 0) {
      std::vector<std::uint8_t> chunk(available);
      ring_read(region_->outbound(), header.outbound_capacity, tail,
                chunk.data(), available);
      header.out_tail.store(tail + available, std::memory_order_release);
      decoder_.feed(chunk);
      continue;
    }
    if (Clock::now() >= deadline) return false;
    wait_tick();
  }
}

void ShmRingClient::finish_sending() {
  region_->header().producer_closed.store(1, std::memory_order_release);
}

}  // namespace efd::ingest

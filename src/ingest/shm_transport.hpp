#pragma once
/// \file shm_transport.hpp
/// \brief Cross-process shared-memory ring transport (EFD-SHM-V1).
///
/// The zero-syscall path for a monitoring daemon co-located with the
/// serving endpoint: the mmap-backed, cross-process variant of the PR 2
/// in-process ring discipline. A POSIX shared-memory segment carries two
/// single-producer/single-consumer byte rings — inbound (emitter →
/// service) for EFD-WIRE-V1 frames, outbound (service → emitter) for
/// verdict/ack frames — plus a control header. The server creates and
/// owns the segment; one client attaches by name.
///
/// Segment layout:
///
///   segment  := ShmHeader | inbound bytes | outbound bytes
///   ShmHeader: magic "EFDSHM1\0", version, ring capacities, ready
///              flag, producer/consumer closed flags, and four
///              monotonic head/tail byte cursors (std::atomic<u64>,
///              required lock-free — position = cursor % capacity).
///
/// Discipline mirrors RingTransport: the inbound ring *blocks* the
/// producer when full (back-pressure, counted — never silent loss),
/// while the outbound ring sheds verdicts when the emitter stops
/// reading (counted — the service's poll loop must never stall on one
/// slow peer). Framing reuses the wire codec verbatim: the consumer
/// feeds drained bytes to the same fuzz-hardened FrameDecoder the TCP
/// reader uses, and a corrupt stream (or hostile ring cursors) retires
/// the source (like a dropped TCP connection) rather than crashing it.
///
/// Sessions turn over like TCP connections: when a producer declares
/// itself finished (finish_sending) and its bytes are drained, the
/// server resets the closed flag and keeps serving, so the next emitter
/// can attach to the same segment — a sole shm listener does not shut
/// the endpoint down because one replay ended. Producers detect a DEAD
/// consumer (crashed without closing) via a heartbeat the server
/// refreshes every poll; a send blocked against a stale heartbeat fails
/// loudly instead of waiting on an orphaned segment forever.
/// Shutdown drains like a stopping TcpServer: a producer in mid-session
/// keeps sending (its bytes discarded) until it finishes or kStopGrace
/// ends, and only then is the consumer side closed.
///
/// Synchronization is purely acquire/release on the head/tail cursors.
/// The segment has no fd to wait on: the consumer is polled on every
/// round of the SourceMux loop, which waits at most 1 ms while it is
/// live, and a blocked producer sleep-polls at the same cadence
/// (monitoring cadence, not a microsecond bus). One producer
/// process/thread and one consumer each side — this is a point-to-point
/// transport; register several segments on the SourceMux for several
/// co-located daemons.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ingest/transport.hpp"
#include "ingest/wire_format.hpp"

namespace efd::ingest {

inline constexpr std::uint64_t kShmMagic = 0x0031'4D48'5344'4645ull;  // "EFDSHM1\0"
inline constexpr std::uint32_t kShmVersion = 1;

/// Control header at the start of an EFD-SHM-V1 segment. Everything the
/// two processes share is either written once before `ready` publishes
/// (magic/version/capacities) or an atomic.
struct ShmHeader {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t inbound_capacity = 0;
  std::uint32_t outbound_capacity = 0;
  std::uint32_t reserved = 0;
  std::atomic<std::uint32_t> ready{0};
  std::atomic<std::uint32_t> producer_closed{0};
  std::atomic<std::uint32_t> consumer_closed{0};
  std::atomic<std::uint64_t> in_head{0};   ///< bytes written, emitter side
  std::atomic<std::uint64_t> in_tail{0};   ///< bytes consumed, service side
  std::atomic<std::uint64_t> out_head{0};  ///< bytes written, service side
  std::atomic<std::uint64_t> out_tail{0};  ///< bytes consumed, emitter side
  std::atomic<std::uint64_t> producer_blocked{0};  ///< back-pressure waits
  std::atomic<std::uint64_t> verdicts_dropped{0};  ///< outbound ring full
  /// CLOCK_MONOTONIC stamp the consumer refreshes every poll. Liveness
  /// for producers: a served segment whose consumer process died (never
  /// setting consumer_closed) goes stale here, so a blocked send() can
  /// fail loudly instead of waiting on an orphan forever.
  std::atomic<std::int64_t> consumer_heartbeat_ns{0};
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "EFD-SHM-V1 requires lock-free 64-bit atomics");

/// Maps "name" to the segment path both sides open ("/efd_<sanitized>").
std::string shm_segment_name(const std::string& name);

/// One mapped segment (create or attach) — shared plumbing of the
/// server and client classes below.
class ShmRegion {
 public:
  /// Creates (replacing any stale same-name segment) or attaches.
  /// Attach waits up to \p attach_timeout_ms for the segment to exist
  /// and publish ready. Throws TransportError.
  ShmRegion(const std::string& name, bool create,
            std::uint32_t inbound_capacity, std::uint32_t outbound_capacity,
            int attach_timeout_ms = 5000);
  ~ShmRegion();

  ShmRegion(const ShmRegion&) = delete;
  ShmRegion& operator=(const ShmRegion&) = delete;

  ShmHeader& header() noexcept { return *header_; }
  std::uint8_t* inbound() noexcept { return inbound_; }
  std::uint8_t* outbound() noexcept { return outbound_; }

 private:
  std::string segment_name_;
  bool owner_ = false;
  void* mapping_ = nullptr;
  std::size_t mapped_bytes_ = 0;
  ShmHeader* header_ = nullptr;
  std::uint8_t* inbound_ = nullptr;
  std::uint8_t* outbound_ = nullptr;
};

/// Service side: creates the segment, decodes inbound frames, replies
/// on the outbound ring.
class ShmRingServer final : public SampleSource {
 public:
  struct Config {
    std::uint32_t inbound_bytes = 1u << 20;   ///< emitter → service ring
    std::uint32_t outbound_bytes = 256u << 10; ///< service → emitter ring
    std::size_t max_messages_per_poll = 512;
  };

  struct Stats {
    std::uint64_t bytes = 0;          ///< inbound bytes consumed
    std::uint64_t frames = 0;         ///< messages decoded
    std::uint64_t decode_errors = 0;  ///< 0 or 1: a corrupt stream retires
    std::uint64_t producer_blocked = 0;
    std::uint64_t verdicts_dropped = 0;
  };

  explicit ShmRingServer(const std::string& name);
  ShmRingServer(const std::string& name, const Config& config);
  ~ShmRingServer() override;

  const std::string& name() const noexcept { return name_; }

  /// One look at the inbound ring: refreshes the heartbeat, drains and
  /// decodes what is there, never waits. The source has no fd, so the
  /// mux polls it on every loop round (at least once a millisecond).
  bool poll(std::vector<Envelope>& out) override;

  /// Graceful shutdown: while a producer is in mid-session, keeps
  /// reading and discarding its bytes until it finishes or kStopGrace
  /// ends, then marks the consumer side closed (producers error instead
  /// of blocking forever); poll() reports exhaustion from then on.
  /// Idempotent; the destructor calls it. Call it from the polling
  /// thread or once polling has ended.
  void stop();

  Stats stats() const;
  TransportCounters transport_counters() const override;

 private:
  class ReplySink;

  /// Drains available inbound bytes into the decoder; returns bytes.
  std::size_t drain_inbound();
  /// Retires the source on a corrupt stream: counted, closed at once.
  void retire();

  std::string name_;
  Config config_;
  std::shared_ptr<ShmRegion> region_;
  std::shared_ptr<ReplySink> reply_;
  /// Holds the bytes of the batch views poll() hands out; fed only at
  /// the start of a poll (see the lifetime contract in transport.hpp).
  FrameDecoder decoder_;
  bool dead_ = false;  ///< corrupt stream: source retired
  /// in_head at the last session turnover; the producer has written
  /// since when in_head moved past it.
  std::uint64_t session_start_ = 0;
  std::vector<std::uint8_t> scratch_;
  /// bytes, frames and decode_errors; the other two live in the segment.
  Stats stats_;
};

/// Emitter side: attaches to a server's segment; send() blocks on a
/// full inbound ring (back-pressure), receive() reads verdict frames
/// off the outbound ring. Mirrors TcpClient's shape for `efd_cli
/// replay`.
class ShmRingClient final : public MessageSender {
 public:
  /// Attaches to the segment \p name (waits for the server to create
  /// it); throws TransportError on timeout or layout mismatch.
  explicit ShmRingClient(const std::string& name,
                         int attach_timeout_ms = 5000);

  /// Encodes one frame into the inbound ring; blocks while full. Throws
  /// TransportError when the service closed or the frame can never fit.
  void send(Message message) override;

  /// Waits up to \p timeout for the next outbound message.
  bool receive(Message& out, std::chrono::milliseconds timeout);

  /// Declares the emitter done: the server drains what remains, then
  /// reports the source exhausted.
  void finish_sending();

 private:
  std::shared_ptr<ShmRegion> region_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> encode_buffer_;
};

}  // namespace efd::ingest

#pragma once
/// \file udp_transport.hpp
/// \brief UDP datagram transport: the lossy-tolerant LDMS ingestion mode.
///
/// Per-node samplers on a big cluster often ship over UDP: no connection
/// state on either side, and a dropped datagram costs one batch of
/// monitoring samples — never a stalled emitter. This transport embraces
/// that: datagrams carry an explicit sequence number, and the server
/// COUNTS loss (gaps), duplication, and reordering per peer instead of
/// treating them as errors. Loss degrades per-source counters — visible
/// in the `source.<id>.*` stats rows — never correctness or liveness of
/// the jobs that did arrive.
///
/// UdpServer runs on the loop of the SourceMux it is registered with,
/// like TcpServer: its socket sits on that one epoll, and each loop
/// round that finds it readable reads at most kPollDatagramBudget
/// datagrams with one non-blocking recvmmsg, then sequences, dedups and
/// decodes each straight into the caller's envelope vector, sample
/// batches as views into the receive buffer (see the lifetime contract
/// in transport.hpp). There is no receiver thread and no internal
/// queue: datagrams the pipeline has not polled wait in the kernel
/// receive buffer, and when that overflows the kernel sheds them, which
/// the next datagram's sequence number books as a gap. stop() may come
/// from any thread; it sets a flag and rings the loop's wake fd, and the
/// owner's next poll() closes the socket.
///
/// Datagram layout (EFD-DGRAM-V1; integers little-endian):
///
///   datagram := u32 magic ("EFDU") | u64 seq | frame
///
/// where `frame` is exactly one EFD-WIRE-V1 frame (wire_format.hpp) —
/// the same fuzz-hardened validation, run on the datagram where it was
/// received (decode_frame); trailing
/// bytes after the frame, a truncated frame, or a bad magic fail that
/// datagram alone (decode_errors), never a stream. seq starts at 1 and
/// increments per datagram per emitter socket; the server tracks the
/// highest seq seen per peer address:
///   seq == last+1  → in order
///   seq  > last+1  → delivered; gap of (seq-last-1) counted
///   seq <= last    → duplicate/reordered; dropped and counted (a
///                    re-delivered kSampleBatch would double-count)
///
/// Verdicts (and stats replies / swap acks) travel back as datagrams to
/// the peer's source address, best-effort: a vanished peer's verdicts
/// are counted as write failures and dropped, like the TCP path.
///
/// Frames must fit one datagram (kMaxUdpPayloadBytes); senders that
/// need bigger batches use TCP or shared memory — see the README's
/// "choosing a transport" table.

#include <netinet/in.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ingest/event_loop.hpp"
#include "ingest/transport.hpp"

namespace efd::ingest {

/// "EFDU", little-endian.
inline constexpr std::uint32_t kUdpMagic = 0x55444645u;
inline constexpr std::size_t kUdpHeaderBytes = 4 + 8;
/// Encoded frame cap per datagram (headroom under the 65507-byte UDP
/// maximum for the header and pathological stacks).
inline constexpr std::size_t kMaxUdpPayloadBytes = 60 * 1024;

/// Appends one EFD-DGRAM-V1 datagram (header + encoded frame) to \p out.
/// Throws std::invalid_argument when the frame cannot fit a datagram.
void encode_datagram(std::uint64_t seq, const Message& message,
                     std::vector<std::uint8_t>& out);

/// Decodes one datagram. Defensive against arbitrary bytes: returns
/// false (seq possibly set, out untouched) on bad magic, truncation, a
/// frame that fails the wire decoder, or trailing bytes — never throws,
/// crashes, or over-allocates beyond the bytes that arrived. With
/// \p batch non-null a kSampleBatch stays in \p data as a view (see
/// decode_frame in wire_format.hpp).
bool decode_datagram(const std::uint8_t* data, std::size_t size,
                     std::uint64_t& seq, Message& out,
                     SampleBatchView* batch = nullptr);

class UdpServer final : public SampleSource, private EventLoop::Watcher {
 public:
  struct Config {
    std::uint16_t port = 0;            ///< 0 = ephemeral (see port())
    /// Idle time after which a peer's sequencing state expires (0 =
    /// never). An emitter that reboots and restarts its seq at 1 within
    /// a live session would look like a flood of duplicates; once idle
    /// past this TTL its next datagram starts a fresh session instead.
    /// Long-idle peers are also evicted (amortized sweep), so a server
    /// facing ephemeral-port emitters cannot grow peer state forever.
    /// Tradeoff: gap/duplicate accounting only spans datagrams within
    /// one session — an emitter whose bursts are spaced further apart
    /// than this TTL gets no cross-burst loss accounting. Set it above
    /// the emitters' largest legitimate quiet spell.
    std::chrono::milliseconds peer_ttl{60 * 1000};
  };

  /// Datagrams one loop round reads at most (one recvmmsg): a flooding
  /// peer cannot make a round return more, and the rest stays queued in
  /// the kernel for the next round.
  static constexpr std::size_t kPollDatagramBudget = 32;

  struct Stats {
    std::uint64_t datagrams = 0;       ///< received from the socket
    std::uint64_t frames = 0;          ///< decoded and returned by poll()
    std::uint64_t decode_errors = 0;   ///< malformed datagrams
    std::uint64_t gaps = 0;            ///< sequence holes (lost datagrams)
    std::uint64_t duplicates = 0;      ///< seq <= last seen (dropped)
    std::uint64_t verdict_send_failures = 0;
    /// Duplicate kOpenJob/kCloseJob frames absorbed (an unacked emitter
    /// retransmits its control frames — see UdpClient — and each copy
    /// after the first is shed here instead of re-dispatching).
    std::uint64_t control_retransmits = 0;
    std::size_t peers = 0;             ///< source addresses currently tracked
  };

  /// Binds 127.0.0.1:<port>; throws TransportError.
  explicit UdpServer(const Config& config);
  ~UdpServer() override;

  UdpServer(const UdpServer&) = delete;
  UdpServer& operator=(const UdpServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Registers the socket on \p loop.
  bool attach(const std::shared_ptr<EventLoop>& loop, SourceId id) override;

  /// Closes the socket once stop() was called and reports exhaustion.
  bool poll(std::vector<Envelope>& out) override;

  /// Requests shutdown: the owner's next poll() closes the socket and
  /// reports exhaustion. Idempotent; any thread.
  void stop();

  Stats stats() const;
  TransportCounters transport_counters() const override;

 private:
  struct SharedSocket;  ///< mutex-guarded fd holder (outlives stop())
  struct PeerSink;
  /// Control frames remembered per peer for retransmit absorption.
  /// Must cover the emitter's whole unacked window even when jobs
  /// interleave (the client re-sends up to kMaxPendingControl opens
  /// AND closes with every datagram), so it is a ring, not a last-id.
  static constexpr std::size_t kControlHistorySize = 32;
  struct ControlSeen {
    std::uint64_t job_id = ~0ull;  ///< ~0 = empty slot
    bool close = false;
  };
  struct PeerState {
    std::uint64_t last_seq = 0;
    /// Ring of recently dispatched open/close frames; a repeat
    /// anywhere in it is an emitter retransmit, shed before dispatch.
    std::array<ControlSeen, kControlHistorySize> control_seen{};
    std::size_t control_next = 0;
    std::chrono::steady_clock::time_point last_activity{};
    std::shared_ptr<PeerSink> sink;
  };

  /// The socket is readable: one non-blocking recvmmsg, each datagram
  /// handled into \p out.
  void ready(std::uint32_t events, std::vector<Envelope>& out) override;
  /// Closes the socket; sinks see fd < 0 from here on.
  void close_socket();
  /// Sequencing, dedup, and decode of one received datagram into
  /// \p envelope; false when the datagram is shed (corrupt, duplicate,
  /// or a retransmitted control frame).
  bool handle_datagram(const sockaddr_in& peer, const std::uint8_t* data,
                       std::size_t size, Envelope& envelope);
  /// Amortized eviction of peers idle past the TTL.
  void sweep_idle_peers(std::chrono::steady_clock::time_point now);

  Config config_;
  /// The socket; the owner reads it, verdict sinks (also on the hub's
  /// dispatcher thread) write it under its mutex, and the owner closes
  /// it under that mutex.
  std::shared_ptr<SharedSocket> socket_;
  std::shared_ptr<EventLoop> loop_;
  SourceId id_ = 0;
  std::uint16_t port_ = 0;
  /// The one field other threads write (stop()).
  std::atomic<bool> stopping_{false};

  /// recvmmsg scratch: kPollDatagramBudget slots of one datagram each.
  /// Batch views point into it until the next round that reads.
  std::unique_ptr<std::uint8_t[]> receive_buffer_;
  /// Per-peer sequencing state.
  std::unordered_map<std::uint64_t, PeerState> peers_;
  std::size_t peers_sweep_at_ = 64;

  Stats stats_;
  /// Shared with every PeerSink (a sink held by undelivered envelopes
  /// can outlive the server).
  std::shared_ptr<std::atomic<std::uint64_t>> verdict_send_failures_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

/// Datagram emitter toward a UdpServer: send() frames, receive()
/// verdict datagrams. Mirrors TcpClient's shape so `efd_cli replay`
/// treats the transports interchangeably.
///
/// Control frames get extra protection on this lossy link: a lost
/// kSampleBatch costs one batch of samples, but a lost kOpenJob loses
/// the WHOLE job (the server sheds samples for a job it never saw open)
/// and a lost kCloseJob strands it until the stale sweep. So kOpenJob/
/// kCloseJob are kept pending and re-sent — bundled with each subsequent
/// send() in one sendmmsg() call, each copy under a fresh sequence
/// number — until the first verdict for their job acks the path, or a
/// bounded retransmit budget runs out. The server absorbs the duplicate
/// copies (Stats::control_retransmits) so re-delivery never re-opens or
/// re-closes anything.
class UdpClient final : public MessageSender {
 public:
  /// Pending control frames tracked at once (oldest dropped beyond).
  static constexpr std::size_t kMaxPendingControl = 8;
  /// Copies re-sent per control frame before giving up.
  static constexpr int kMaxRetransmits = 16;
  /// Connects (in the UDP sense) to host:port; throws TransportError.
  UdpClient(const std::string& host, std::uint16_t port);
  ~UdpClient() override;

  UdpClient(const UdpClient&) = delete;
  UdpClient& operator=(const UdpClient&) = delete;

  /// Encodes and sends one datagram. Throws TransportError on a socket
  /// failure or a frame too large for a datagram (emitters bound their
  /// batch size — see kMaxUdpPayloadBytes).
  void send(Message message) override;

  /// Waits up to \p timeout for the next inbound message (verdicts,
  /// acks). Returns false on timeout or a malformed datagram.
  bool receive(Message& out, std::chrono::milliseconds timeout);

  /// UDP has no half-close; provided for interface parity with
  /// TcpClient (the server ends jobs via kCloseJob frames or its sweep).
  void finish_sending() {}

  /// Control-frame copies re-sent so far (monotonic).
  std::uint64_t retransmits() const;

  /// Unacked control frames currently pending (test/monitoring view).
  std::size_t pending_control() const;

 private:
  struct PendingControl {
    Message message;
    int remaining = kMaxRetransmits;
  };

  int fd_ = -1;
  mutable std::mutex write_mutex_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::uint8_t> encode_buffer_;
  /// Unacked kOpenJob/kCloseJob frames awaiting a verdict ack (guarded
  /// by write_mutex_; receive() takes it briefly to clear acks).
  std::vector<PendingControl> pending_control_;
  /// sendmmsg scratch: one datagram buffer per bundled message.
  std::vector<std::vector<std::uint8_t>> datagram_buffers_;
  std::uint64_t retransmits_ = 0;  ///< guarded by write_mutex_
};

}  // namespace efd::ingest

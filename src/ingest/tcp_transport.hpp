#pragma once
/// \file tcp_transport.hpp
/// \brief TCP transport: the network ingestion front end.
///
/// TcpServer runs on the loop of the SourceMux it is registered with
/// (event_loop.hpp): the non-blocking listener and every accepted
/// connection sit on that one epoll, each with its own watcher. A ready
/// connection gets one bounded recv(MSG_DONTWAIT) per loop round (so a
/// flooding peer cannot starve the others), decoded with that
/// connection's own FrameDecoder straight into the caller's envelope
/// vector, each envelope tagged with its connection as the verdict
/// reply channel. Sample batches stay in the decoder's buffer as views
/// (see the lifetime contract in transport.hpp); the envelope's reply
/// pointer keeps the connection, and with it those bytes, alive. There
/// is no thread and no internal queue. Back-pressure is end-to-end by
/// construction: bytes the pipeline has not polled stay in the kernel
/// receive buffer, whose window stalls the remote sender. A connection
/// whose byte stream fails to decode is dropped (corrupted framing is
/// unrecoverable) and counted.
///
/// TcpClient is the emitter side: connect, send() frames, receive()
/// verdict messages. Used by `efd_cli replay` and by TransportFeed for
/// sampling loops that emit to a remote service.
///
/// Threading: the loop's owner thread runs everything except stop(),
/// which any thread may call: it sets a flag and rings the loop's wake
/// fd. The owner's next poll() tears down gracefully: it closes the
/// listener, half-closes every live connection, and keeps reading and
/// discarding each peer's bytes until its EOF or kStopGrace, so a peer
/// still sending never sees a reset; poll() reports exhaustion once the
/// last connection is gone. Verdict writes (Connection::deliver) stay
/// blocking with a send timeout; the subscription hub's dispatcher
/// thread also writes them, so they serialize on a per-connection mutex.

#include <sys/types.h>

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

class TcpServer final : public SampleSource, private EventLoop::Watcher {
 public:
  struct Config {
    std::uint16_t port = 0;          ///< 0 = ephemeral (see port())
    /// Per-connection read budget of one poll() call (one recv).
    std::size_t read_chunk = 64 * 1024;
  };

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_dropped = 0;  ///< decode errors
    std::uint64_t frames = 0;
    /// Verdicts that could not be written back (peer gone, or it
    /// stopped reading and the send timed out — that connection is
    /// then dropped).
    std::uint64_t verdict_write_failures = 0;
    std::size_t active_connections = 0;
  };

  /// Binds and listens on 127.0.0.1:<port>; throws TransportError.
  explicit TcpServer(const Config& config);
  ~TcpServer() override;

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolves ephemeral requests).
  std::uint16_t port() const noexcept { return port_; }

  /// Registers the listener on \p loop; connections are accepted from
  /// the loop's next wait on.
  bool attach(const std::shared_ptr<EventLoop>& loop, SourceId id) override;

  bool poll(std::vector<Envelope>& out) override;

  /// Requests the graceful shutdown described above. Idempotent; any
  /// thread.
  void stop();

  Stats stats() const;

  /// Mux view: frames decoded, corrupt connections as decode errors,
  /// failed verdict writes as drops.
  TransportCounters transport_counters() const override;

 private:
  struct Connection;

  using ConnectionMap =
      std::unordered_map<Connection*, std::shared_ptr<Connection>>;

  /// The listener is ready (accept), or the drain grace ran out (0).
  void ready(std::uint32_t events, std::vector<Envelope>& out) override;
  void accept_ready();
  /// One non-blocking recv into read_buffer_: the byte count, 0 when
  /// nothing is waiting, -1 once the peer is finished (EOF or error).
  ssize_t read_some(const Connection& connection);
  /// One bounded read + decode into \p out, or, while draining, one
  /// read discarded. Retires the connection once it is finished (EOF,
  /// socket error, or corrupt framing).
  void read_connection(Connection& connection, std::vector<Envelope>& out);
  /// Removes a finished connection from the loop and the live map.
  void retire(Connection& connection);
  /// Closes every live connection (the drain grace ran out, or the
  /// server is destroyed).
  void close_all();

  Config config_;
  std::shared_ptr<EventLoop> loop_;
  SourceId id_ = 0;
  std::uint16_t port_ = 0;  ///< before listen_fd_: its initializer sets it
  int listen_fd_ = -1;
  /// The one field other threads write (stop()).
  std::atomic<bool> stopping_{false};
  /// Set once the owner saw stopping_: the listener is closed and the
  /// live connections are being drained.
  bool draining_ = false;

  /// Live (registered, not yet finished) connections. A finished one
  /// leaves the map but stays open while undelivered verdicts reference
  /// it — a peer that half-closed still reads its verdicts.
  ConnectionMap connections_;
  std::vector<std::uint8_t> read_buffer_;
  Stats stats_;
  /// Shared with every Connection: the hub's dispatcher thread writes
  /// verdict events through them, and a connection (held alive by
  /// undelivered Envelopes) can outlive the server.
  std::shared_ptr<std::atomic<std::uint64_t>> verdict_write_failures_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

/// Blocking client for one connection to a TcpServer (or any EFD-WIRE-V1
/// endpoint).
class TcpClient final : public MessageSender {
 public:
  /// Connects to host:port; throws TransportError.
  TcpClient(const std::string& host, std::uint16_t port);
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Encodes and writes one frame. Blocking write is the back-pressure
  /// path; throws TransportError on a broken connection.
  void send(Message message) override;

  /// Waits up to \p timeout for the next inbound message (verdicts).
  /// Returns false on timeout, EOF, or a decode error.
  bool receive(Message& out, std::chrono::milliseconds timeout);

  /// receive(), but distinguishing a quiet link from a dead one — the
  /// replication follower's liveness signal (its promote-grace clock
  /// starts at kClosed, not at an idle leader).
  enum class ReceiveStatus {
    kMessage,  ///< one message decoded into \p out
    kTimeout,  ///< no complete frame within \p timeout; link still up
    kClosed,   ///< EOF, socket error, or corrupt framing — link is dead
  };
  ReceiveStatus receive_status(Message& out, std::chrono::milliseconds timeout);

  /// Half-closes the write side so the server sees EOF after the last
  /// frame; receive() keeps working.
  void finish_sending();

 private:
  int fd_ = -1;
  std::mutex write_mutex_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> encode_buffer_;
};

}  // namespace efd::ingest

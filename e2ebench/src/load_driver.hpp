#pragma once
/// \file load_driver.hpp
/// \brief The load generator: streams a pre-built schedule of pre-encoded
/// frames to `serve` over non-blocking TCP connections or a shm segment,
/// and drains verdicts on every connection while it sends.
///
/// A single thread sends and receives on every connection (the data
/// connections and the churn control connection), so the generator takes
/// at most one core from the box it measures. Open-loop
/// lanes send each frame at its intended time and latency is measured
/// from that time, so a stalled server (or generator) shows up in the
/// latency of every frame queued behind the stall instead of silently
/// lowering the offered load. Closed-loop lanes keep their socket full.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ingest/wire_format.hpp"
#include "workload.hpp"

namespace e2ebench {

/// steady_clock nanoseconds.
std::int64_t now_ns();

/// Non-blocking byte channel to the server.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Bytes accepted (0 when the peer's buffer is full). Throws when the
  /// link is broken.
  virtual std::size_t write_some(const std::uint8_t* data,
                                 std::size_t size) = 0;
  /// Bytes read into \p out (0 when nothing is ready). Throws when the
  /// link is closed.
  virtual std::size_t read_some(std::uint8_t* out, std::size_t size) = 0;
  /// Pollable descriptor, or -1 for shared memory (polled by sleeping).
  virtual int fd() const = 0;
};

/// Connects to serve's TCP listener on 127.0.0.1:port (TCP_NODELAY,
/// non-blocking, like the repository's own TcpClient).
std::unique_ptr<Channel> connect_tcp(std::uint16_t port);
/// Attaches as the producer of serve's EFD-SHM-V1 segment \p name.
std::unique_ptr<Channel> attach_shm(const std::string& name);

/// One traced send or receive call of the generator.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t bytes = 0;
  std::uint8_t lane = 0;   ///< data lane; 255 = control connection
  std::uint8_t kind = 0;   ///< 0 = send, 1 = receive
};

struct DriveConfig {
  bool open_loop = true;
  /// Closed loop: after this long, jobs not yet opened are skipped and
  /// only the jobs already streaming finish.
  std::int64_t stop_opening_after_ns = 0;
  /// How long to wait for outstanding verdicts after the last frame.
  std::int64_t drain_timeout_ns = 5'000'000'000;
  /// Keep a Span around every send and receive call.
  bool trace = false;
  /// Churn: encoded kSwapDictionary frames, sent in turn on the control
  /// connection every swap_period_ns while data flows.
  std::vector<const std::vector<std::uint8_t>*> swap_frames;
  std::int64_t swap_period_ns = 0;
};

struct DriveResult {
  /// Per job (index = job id - 1): start of its latency (intended send
  /// time of the closing frame on open loops, the moment it was handed
  /// to the socket on closed loops; 0 = never sent), verdict receipt
  /// time (0 = none), and the verdict itself.
  std::vector<std::int64_t> close_ns;
  std::vector<std::int64_t> verdict_ns;
  std::vector<efd::ingest::WireVerdict> verdicts;
  std::vector<std::uint8_t> opened;
  std::size_t duplicates = 0;
  std::size_t unexpected = 0;

  std::uint64_t samples_sent = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::int64_t first_send_ns = 0;
  std::int64_t last_send_ns = 0;
  std::int64_t last_verdict_ns = 0;

  /// Open loop: how late each frame was handed to the socket, in µs.
  std::vector<double> lag_us;
  /// Summed over data lanes: time with bytes due but the socket or ring
  /// full, and time from first send to last send.
  double blocked_ns = 0.0;
  double sending_ns = 0.0;

  std::vector<double> swap_ack_ms;
  std::size_t swap_failures = 0;

  /// Non-empty when a connection broke.
  std::string error;
  std::vector<Span> spans;
};

DriveResult drive(const std::vector<ExecTemplate>& execs,
                  const Schedule& schedule, const std::vector<Channel*>& data,
                  Channel* control, const DriveConfig& config);

/// Every received verdict compared with the reference table.
struct VerdictCheck {
  std::size_t expected = 0;  ///< jobs that were opened
  std::size_t received = 0;
  std::size_t wrong = 0;     ///< differs from the reference
  std::size_t missing = 0;   ///< opened, no verdict by the drain deadline
  std::string first_mismatch;
};

VerdictCheck check_verdicts(const Schedule& schedule, const DriveResult& result,
                            const ReferenceTable& reference);

/// Per-job latency in µs, from the closing frame's start (see
/// DriveResult::close_ns) to verdict receipt; jobs without both omitted.
std::vector<double> verdict_latencies_us(const DriveResult& result);

/// Sends one kSwapDictionary frame and waits for its kSwapAck: the
/// round trip in ms, or a negative value when it failed or was refused.
double swap_round_trip_ms(Channel& channel,
                          const std::vector<std::uint8_t>& frame,
                          std::chrono::milliseconds timeout);

}  // namespace e2ebench

#pragma once
/// \file transport.hpp
/// \brief Transport abstractions of the ingestion pipeline.
///
/// A transport moves wire-format Messages (see wire_format.hpp) from
/// emitters (node daemons, replayers, the in-process sampling loop) to
/// the recognition service, and verdicts back. Four implementations
/// ship: a TCP socket server (tcp_transport.hpp), a lossy-tolerant UDP
/// datagram server (udp_transport.hpp), a cross-process shared-memory
/// ring (shm_transport.hpp), and a bounded in-process ring
/// (ring_transport.hpp). The pipeline (pipeline.hpp) only ever sees the
/// interfaces here — plus SourceMux (source_mux.hpp), which fans any
/// number of registered sources into one polled stream with per-source
/// accounting — so new transports (RDMA, ...) slot in without touching
/// recognition code.
///
/// Batch view lifetime: the servers (TCP, UDP, shm) hand out each
/// kSampleBatch as a SampleBatchView into their own buffer instead of
/// copying it into WireSamples. A view stays valid until the loop's
/// next wait, that is, until SourceMux::poll() is called again. The
/// contract holds at every layer:
///  - IngestPipeline dispatches every envelope of a poll before it polls
///    again, and keeps no view past dispatch;
///  - SourceMux returns after the first loop round that yields anything,
///    and in one round it polls each fd-less source once and calls each
///    ready fd's watcher once (event_loop.hpp);
///  - so a TcpServer connection's decoder, the UdpServer's receive
///    buffers and the ShmRingServer's decoder are each fed at most once
///    per mux poll, before anything of theirs was handed out.
/// A consumer that keeps samples past the next poll copies them out
/// (the retrain recorder receives WireSamples built from the view).

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "ingest/wire_format.hpp"

namespace efd::ingest {

/// Thrown on socket-level failures (bind, connect, write, epoll).
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How long a stopping server keeps draining a peer that is still
/// sending before it closes on it (TcpServer, ShmRingServer).
inline constexpr std::chrono::seconds kStopGrace{1};

/// Stable identity of a registered ingest source within a SourceMux
/// (assigned at registration, dense from 0). 0 is also the implicit id
/// of a pipeline's only source in the legacy single-source mode.
using SourceId = std::uint32_t;

/// Where a job's verdict is sent back. Implementations must tolerate
/// delivery from the pipeline's thread and a destroyed peer (best
/// effort: a verdict for a vanished connection is dropped silently).
class VerdictSink {
 public:
  virtual ~VerdictSink() = default;
  virtual void deliver(const Message& verdict) = 0;

  /// Delivers a run of messages bound for the same peer. The default
  /// loops deliver(); transports with a cheaper bulk path override it
  /// (the TCP connection flushes the whole run in one vectored write).
  virtual void deliver_many(std::span<const Message> verdicts) {
    for (const Message& verdict : verdicts) deliver(verdict);
  }
};

/// One inbound message plus the reply channel it arrived on (null for
/// fire-and-forget emitters). The mux stamps `source` so verdict
/// routing and per-source accounting survive the fan-in. A kSampleBatch
/// arrives either owned (message.samples) or, from the servers, as
/// `batch`, a view into the source's buffer (message.samples empty; see
/// the lifetime contract above). Provenance rides the Envelope, NOT the
/// Message — Message stays a pure wire value (its defaulted equality is
/// load-bearing in round-trip tests).
struct Envelope {
  Message message;
  std::shared_ptr<VerdictSink> reply;
  SourceId source = 0;
  SampleBatchView batch{};

  /// Samples this envelope carries, in whichever form.
  std::size_t sample_count() const noexcept {
    return message.samples.size() + batch.count;
  }
};

/// Transport-level health counters a source exposes to the mux/stats
/// scrape. All monotonic. Transports without a concept (e.g. the
/// in-process ring has no sequence numbers) leave the field at 0.
struct TransportCounters {
  std::uint64_t frames = 0;        ///< messages decoded and enqueued
  std::uint64_t decode_errors = 0; ///< corrupt frames/datagrams/streams
  std::uint64_t drops = 0;         ///< messages shed (duplicates, lost replies)
  std::uint64_t gaps = 0;          ///< sequence holes observed (lossy links)
  std::uint64_t blocked = 0;       ///< producer back-pressure events
  /// Control-frame retransmissions observed: on an emitter, kOpenJob/
  /// kCloseJob copies it re-sent while unacked; on a server, duplicate
  /// control frames it absorbed from such an emitter.
  std::uint64_t retransmits = 0;
};

class EventLoop;

/// Consumer side of a transport: a SourceMux polls this.
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Joins the loop of the SourceMux the source is registered with
  /// (called once, by SourceMux::add_source). A source with fds
  /// registers each on \p loop and stamps \p id on the envelopes its
  /// watchers append; it returns true. An fd-less source returns false
  /// and is polled on every loop round instead.
  virtual bool attach(const std::shared_ptr<EventLoop>& /*loop*/,
                      SourceId /*id*/) {
    return false;
  }

  /// Never waits. An fd-less source appends the messages that are ready
  /// (bounded by its batch size); a source with fds reads in its
  /// watchers and uses this call, once per loop round, to notice stop()
  /// and tear down. Batch views appended by an earlier call are invalid
  /// from here on. Returns false once the source is exhausted (closed
  /// AND drained), after which no more messages will ever appear.
  virtual bool poll(std::vector<Envelope>& out) = 0;

  /// Transport-level loss/back-pressure counters (see TransportCounters).
  /// Owner thread; default is all-zero.
  virtual TransportCounters transport_counters() const { return {}; }
};

/// Producer side of a transport: samplers/replayers send through this.
class MessageSender {
 public:
  virtual ~MessageSender() = default;

  /// Delivers one message. Blocking is the back-pressure mechanism: a
  /// full transport stalls the producer, never drops silently.
  virtual void send(Message message) = 0;
};

}  // namespace efd::ingest

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
/// copying it into WireSamples. A batch view points into its source's
/// buffer and stays valid until that source's next poll(). The contract
/// holds at every layer:
///  - IngestPipeline dispatches every envelope of a poll before it polls
///    again, and keeps no view past dispatch;
///  - SourceMux never re-polls a source after that source has yielded
///    within one mux poll;
///  - TcpServer feeds each ready connection's decoder once per
///    epoll_wait round and ends the poll after the first round that
///    decodes anything, so no decoder is fed after it made a view;
///    ShmRingServer feeds its decoder before it decodes; UdpServer
///    reuses its receive buffers only after a receive that yielded
///    nothing.
/// A consumer that keeps samples past the next poll copies them out
/// (the retrain recorder receives WireSamples built from the view).

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ingest/wire_format.hpp"

namespace efd::ingest {

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

/// Consumer side of a transport: the pipeline polls this.
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Waits up to \p timeout for inbound messages and appends them to
  /// \p out (bounded by the transport's internal batch size). Batch
  /// views appended by an earlier call are invalid from here on. Returns
  /// false once the source is exhausted — closed AND fully drained —
  /// after which no more messages will ever appear. A true return with
  /// an empty \p out is a normal timeout.
  virtual bool poll(std::vector<Envelope>& out,
                    std::chrono::milliseconds timeout) = 0;

  /// Transport-level loss/back-pressure counters (see TransportCounters).
  /// Safe from any thread; default is all-zero.
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

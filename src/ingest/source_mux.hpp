#pragma once
/// \file source_mux.hpp
/// \brief N registered sample sources → one polled stream, with
/// per-source identity and accounting.
///
/// A production fingerprinting endpoint ingests from many emitters at
/// once: per-node samplers over lossy UDP, co-located daemons over a
/// shared-memory ring, remote replayers over TCP. SourceMux is the
/// fan-in: any number of SampleSources register under a stable name,
/// each gets a dense SourceId, and the mux presents them to the ingest
/// pipeline as one SampleSource whose envelopes are stamped with the
/// source they arrived on — so verdict routing, traffic capture, and the
/// stats scrape all stay per-source after the merge.
///
/// Poll discipline (one consumer — the pipeline):
///  - A sole live source is polled once with the caller's whole
///    timeout: it waits in its own readiness wait, with no empty sweep
///    first.
///  - With two or more live sources:
///    1. A non-blocking sweep over every live source, starting at a
///       rotating index so no source is structurally favored. Anything
///       ready is tagged and returned immediately.
///    2. Only if nothing was ready anywhere, the live sources are
///       waited on in turn, 1 ms each, round after round until one
///       yields or the caller's timeout runs out. A message on ANY
///       source is picked up within one round: a UDP socket has no flow
///       control, so a long wait on another source would overflow its
///       kernel receive buffer.
/// Either way a source that has yielded is not polled again in the same
/// call, which keeps its batch views valid (transport.hpp).
///
/// Exhaustion is collective: a source whose poll() returns false is
/// retired (its final batch is still delivered), and the mux reports
/// exhaustion only once every registered source has retired — one
/// replayer hanging up must not stop service for the others.
///
/// Per-source counters: envelopes/samples are counted at poll time,
/// verdicts are reported back by the pipeline (note_verdict), and the
/// transport's own TransportCounters (frames, decode errors, drops,
/// gaps, back-pressure) are sampled on demand — the `source.<id>.*`
/// rows of the kStatsReply scrape. restored cursors (per-source
/// envelope counts carried by EFD-SNAP-V1) seed the envelope counter so
/// monitoring stays continuous across a restart.
///
/// Thread-safety: register every source before the IngestPipeline that
/// consumes the mux is constructed (its HTTP listener starts there).
/// poll(), note_verdict() and seed_cursor() belong to the pipeline
/// thread; stats() and transport_counters() may also run on the HTTP
/// thread under the pipeline's service lock.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ingest/transport.hpp"

namespace efd::ingest {

/// One registered source's aggregate view (stats scrape material).
struct SourceMuxStats {
  SourceId id = 0;
  std::string name;                ///< registration name (stable)
  std::uint64_t envelopes = 0;     ///< messages dispatched (incl. restored cursor)
  std::uint64_t samples = 0;       ///< samples inside those messages
  std::uint64_t verdicts = 0;      ///< verdicts routed back to this source
  std::uint64_t restored_cursor = 0; ///< envelope count seeded from a snapshot
  bool exhausted = false;          ///< source retired (closed and drained)
  TransportCounters transport;     ///< the source's own loss/pressure view
};

class SourceMux final : public SampleSource {
 public:
  SourceMux() = default;

  SourceMux(const SourceMux&) = delete;
  SourceMux& operator=(const SourceMux&) = delete;

  /// Registers a source under a stable \p name (the snapshot cursor
  /// key — keep it identical across restarts). A name already taken is
  /// disambiguated deterministically ("name#<id>"), so duplicate
  /// registrations (e.g. `--listen tcp:0` twice) cannot make cursor
  /// restore misattribute one source's history to another. Returns the
  /// dense id. \p source is borrowed and must outlive the mux.
  SourceId add_source(std::string name, SampleSource& source);

  std::size_t source_count() const noexcept { return entries_.size(); }

  /// Polls the registered set (see the poll discipline above). Every
  /// appended envelope carries the id of the source it arrived on.
  bool poll(std::vector<Envelope>& out,
            std::chrono::milliseconds timeout) override;

  /// Pipeline report: one verdict was delivered for a job that arrived
  /// on \p id. Unknown ids are ignored.
  void note_verdict(SourceId id);

  /// Seeds the envelope counter of the source registered under \p name
  /// from a restored snapshot cursor, so lifetime per-source counters
  /// are continuous across a restart. Returns false when no source of
  /// that name is registered (the operator changed the topology — the
  /// cursor is dropped, never misattributed).
  bool seed_cursor(const std::string& name, std::uint64_t cursor);

  /// Aggregated TransportCounters across every registered source.
  TransportCounters transport_counters() const override;

  /// Per-source snapshot, in registration (id) order.
  std::vector<SourceMuxStats> stats() const;

 private:
  struct Entry {
    SourceId id = 0;
    std::string name;
    SampleSource* source = nullptr;
    // Relaxed atomics: poll() writes envelopes, samples and exhausted
    // while the pipeline has released its service lock, so a /metrics
    // scrape reads them mid-run.
    std::atomic<std::uint64_t> envelopes{0};
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> verdicts{0};
    std::atomic<std::uint64_t> restored_cursor{0};
    std::atomic<bool> exhausted{false};
  };

  /// Polls one entry, tags + counts its envelopes, retires it on
  /// exhaustion. Returns the number of envelopes appended.
  std::size_t poll_entry(Entry& entry, std::vector<Envelope>& out,
                         std::chrono::milliseconds timeout);

  /// In id order; a deque because entries hold atomics and cannot move.
  std::deque<Entry> entries_;
  std::vector<Entry*> live_scratch_;  ///< reused by poll()
  std::size_t rotate_ = 0;            ///< poll fairness cursor
};

}  // namespace efd::ingest

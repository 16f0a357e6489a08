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
/// pipeline as one polled stream whose envelopes are stamped with the
/// source they arrived on — so verdict routing, traffic capture, and the
/// stats scrape all stay per-source after the merge.
///
/// The loop: the mux owns the serve loop's one EventLoop (an epoll set
/// plus a wake eventfd, event_loop.hpp). add_source() attaches each
/// source to it: a source with fds (TCP, UDP) registers them there, and
/// the HTTP plane registers its listener on the same loop().
/// poll() runs rounds until one yields or the timeout runs out:
///  1. every live source's poll() runs once without waiting: an fd-less
///     source (shm, the in-process ring) reads what is ready, a source
///     with fds notices stop() and tears down;
///  2. one wait on the loop, then each ready fd's watcher once and each
///     due timer. The wait is the caller's remaining timeout, 0 when
///     round 1 yielded, and at most 1 ms while an fd-less source is
///     live (the cadence a shm producer sleep-polls at).
/// An idle mux of fd sources thus sleeps in one epoll_wait for the whole
/// timeout. Returning after the first round that yields keeps every
/// batch view valid (transport.hpp).
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
/// Thread-safety: one owner thread (the pipeline's) calls everything;
/// a source's stop() may come from another thread and rings the loop's
/// wake fd. Register every source before the IngestPipeline that
/// consumes the mux is constructed.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ingest/event_loop.hpp"
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

class SourceMux {
 public:
  SourceMux();

  SourceMux(const SourceMux&) = delete;
  SourceMux& operator=(const SourceMux&) = delete;

  /// Registers a source under a stable \p name (the snapshot cursor
  /// key — keep it identical across restarts). A name already taken is
  /// disambiguated deterministically ("name#<id>"), so duplicate
  /// registrations (e.g. `--listen tcp:0` twice) cannot make cursor
  /// restore misattribute one source's history to another. Returns the
  /// dense id. \p source is borrowed, must outlive the mux, and is
  /// attached to loop() here.
  SourceId add_source(std::string name, SampleSource& source);

  std::size_t source_count() const noexcept { return entries_.size(); }

  /// Runs loop rounds (see above) until one yields or \p timeout runs
  /// out. Every appended envelope carries the id of the source it
  /// arrived on. Returns false, without waiting, once every registered
  /// source has retired.
  bool poll(std::vector<Envelope>& out, std::chrono::milliseconds timeout);

  /// The serve loop. Shared with the sources and HTTP servers attached
  /// to it, so it outlives whichever of them is destroyed last.
  const std::shared_ptr<EventLoop>& loop() const noexcept { return loop_; }

  /// Pipeline report: one verdict was delivered for a job that arrived
  /// on \p id. Unknown ids are ignored.
  void note_verdict(SourceId id);

  /// Seeds the envelope counter of the source registered under \p name
  /// from a restored snapshot cursor, so lifetime per-source counters
  /// are continuous across a restart. Returns false when no source of
  /// that name is registered (the operator changed the topology — the
  /// cursor is dropped, never misattributed).
  bool seed_cursor(const std::string& name, std::uint64_t cursor);

  /// Per-source snapshot, in registration (id) order.
  std::vector<SourceMuxStats> stats() const;

 private:
  struct Entry {
    SourceMuxStats stats;  ///< transport is sampled by stats()
    SampleSource* source = nullptr;
    bool has_fds = false;  ///< attach() registered fds on the loop
  };

  std::shared_ptr<EventLoop> loop_;
  std::vector<Entry> entries_;  ///< in id order
};

}  // namespace efd::ingest

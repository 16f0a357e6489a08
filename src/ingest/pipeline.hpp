#pragma once
/// \file pipeline.hpp
/// \brief The bounded ingestion pipeline: transport → service → verdicts.
///
/// IngestPipeline is the single consumer of a SourceMux — the
/// registered set of SampleSources (TCP, UDP, shared memory, in-process
/// rings) fanned into one polled stream (source_mux.hpp; a single bare
/// SampleSource is wrapped into a private mux for the legacy shape). It
/// polls decoded message envelopes, each stamped with the source it
/// arrived on, dispatches them into a RecognitionService (open/push/
/// close, tagged with the source), drives deferred recognition across a
/// thread pool, periodically sweeps stale streams, and routes finished
/// verdicts back to the (source, connection) each job arrived on — the
/// complete vertical slice from socket bytes to recognition verdict,
/// with per-source loss/throughput accounting the whole way down.
///
/// Every stage is bounded: the transport's buffering (a TCP peer's
/// kernel receive window, the other transports' bounded queues), the
/// service's per-job queues (RecognitionServiceConfig), and the sweep
/// (stale TTL) together guarantee that a misbehaving emitter — too fast,
/// or one that vanishes mid-job — cannot grow service memory without
/// limit. Back-pressure propagates producer-ward at each boundary.
///
/// Durability hooks: with snapshot_path configured, run() periodically
/// captures the service with snapshot_capture(), its one writer, as an
/// EFD-SNAP-V2 base + delta chain (see service_snapshot.hpp and
/// snapshot_chain.hpp): a full base — the Dictionary included — only
/// when the dictionary epoch moved or the chain hit
/// snapshot_chain_limit, an incremental delta otherwise.
/// persist_capture() lands every file via fsync + atomic rename +
/// parent-directory fsync, so the chain on disk survives power loss, not
/// just process death. restore_on_start replays base → deltas
/// all-or-nothing through restore_chain(), the one restore, before the
/// first poll (a legacy, read-only EFD-SNAP-V1 file at the snapshot path
/// restores as a one-part chain); a broken delta link falls back to the
/// last complete base, loudly.
/// With allow_followers set, kFollowRequest peers become warm standbys:
/// every capture that fits a wire frame is streamed to them as
/// kSnapBase/kSnapDelta and acked once durable on their disk
/// (replication.hpp runs the other end). Restored jobs have
/// no reply connection (their emitter's socket died with the old
/// process); the pipeline re-binds a job's reply channel to the first
/// connection that streams samples (or a close) for it, so a
/// reconnecting emitter gets its verdict on the new connection.
/// Verdicts that completed pre-crash but were never shipped are parked
/// at restore (after passing through on_verdict) and delivered to the
/// first connection that mentions their job — an emitter that re-runs
/// the job may therefore see the verdict twice (at-least-once).
///
/// Live reconfiguration: a kSwapDictionary control frame hot-swaps a
/// retrained dictionary behind the service (when the operator enabled
/// allow_dictionary_swap — it is unauthenticated wire input, like
/// kShutdown) and acks with the new dictionary epoch. A candidate
/// byte-identical to the active dictionary is refused as already-active
/// instead of burning an epoch.
///
/// Closed-loop retraining: with a retrain::RetrainController attached
/// (config.retrain), the pipeline taps its TrafficRecorder on every
/// dispatched open/batch/verdict (an owned sample batch is moved in, a
/// wire view is copied out into WireSamples — only while retraining is
/// attached), checks the retrain triggers and promotes a finished
/// cycle's certified candidate at each poll boundary, broadcasts a kRetrainReport frame for every finished cycle
/// to all connections it has seen, and carries the controller's durable
/// state (EFD-RETRAIN-V1) inside the service snapshot's Retrain section
/// so a crash mid-cycle restores the attempt lineage.
///
/// Monitoring scrape: any connection can send kStatsRequest and gets a
/// kStatsReply whose body is a flat "name value" text block covering
/// RecognitionServiceStats, IngestPipelineStats, and (when retraining is
/// attached) RetrainStats + TrafficRecorderStats.
///
/// Threading: run() occupies the calling thread until the source is
/// exhausted, a Shutdown message arrives (when configured), the verdict
/// quota is reached, or stop() is called. start()/join() wrap run() in
/// an internal thread. The run() thread owns the pipeline, the service
/// and the mux, and it is the only thread: every fd, the HTTP listener
/// and its connections included, sits on the mux's one loop, so the
/// /metrics and /index handlers run inside SourceMux::poll on the run()
/// thread and take no lock. Any other reader calls stats() after run()
/// returns; no thread serves HTTP then. stop() is safe from any thread:
/// it sets a flag and rings the loop's wake fd.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/online/recognition_service.hpp"
#include "ingest/source_mux.hpp"
#include "ingest/transport.hpp"
#include "obs/exposition.hpp"

namespace efd::util {
class ThreadPool;
}
namespace efd::retrain {
class RetrainController;
}
namespace efd::obs {
class HttpServer;
}

namespace efd::ingest {

class SubscriptionHub;

struct IngestPipelineConfig {
  /// Cadence of RecognitionService::sweep_stale_jobs().
  std::chrono::milliseconds sweep_interval{1000};
  /// Stop after delivering this many verdicts (0 = unlimited) — lets
  /// `efd_cli serve` exit deterministically under test harnesses.
  std::uint64_t max_verdicts = 0;
  /// Treat an inbound kShutdown message as a stop request.
  bool stop_on_shutdown_message = true;
  /// Force-close still-open jobs when the source is exhausted, so every
  /// opened job yields a verdict even if its emitter died.
  bool close_jobs_on_end = true;
  /// Observer invoked (on the run() thread) for every verdict, before it
  /// ships to the reply channel — operator logging, metrics export.
  std::function<void(const core::JobVerdict&)> on_verdict;

  /// Snapshot chain root (empty = durability disabled): the base
  /// capture lives here, deltas next to it as "<path>.delta.<id>".
  /// Every write is tmp + fsync + rename + dir fsync, so the file at
  /// any path is always complete or absent — even across power loss.
  std::string snapshot_path;
  /// Deltas per base before the writer forces a fresh full base
  /// (bounds restore replay length and stale-delta disk). 0 = every
  /// capture is a full base — the pre-chain behavior, V2 framing.
  std::uint64_t snapshot_chain_limit = 16;
  /// Wall-clock snapshot cadence (0 = none; checked at poll boundaries).
  std::chrono::milliseconds snapshot_interval{0};
  /// Snapshot after this many verdicts since the last snapshot (0 =
  /// none). Deterministic under test harnesses, unlike the wall clock.
  std::uint64_t snapshot_every_verdicts = 0;
  /// Restore from snapshot_path before the first poll when the file
  /// exists (a missing file is a normal first boot, not an error; a
  /// corrupt file throws SnapshotError out of run()).
  bool restore_on_start = false;
  /// Honor inbound kSwapDictionary control frames. Off by default for
  /// the same reason stop_on_shutdown_message is operator-gated.
  bool allow_dictionary_swap = false;
  /// Observer invoked (on the run() thread) after each snapshot is
  /// durably in place, with the lifetime snapshot count — fault
  /// harnesses script crash points on it.
  std::function<void(std::uint64_t count, const std::string& path)> on_snapshot;

  /// Honor inbound kFollowRequest frames: stream the capture chain to
  /// warm standbys. Unauthenticated wire input (any peer could siphon
  /// the full service state), so operator-gated like allow_*.
  bool allow_followers = false;
  /// External stop flag (the CLI's signal handler). Polled every loop
  /// iteration; when it flips, run() winds down exactly like stop() —
  /// jobs close, the final snapshot lands, run() returns.
  const std::atomic<bool>* external_stop = nullptr;

  /// Closed-loop retraining controller (borrowed; must outlive run()).
  /// Null disables capture, triggering, retrain reports, and the
  /// Retrain snapshot section.
  retrain::RetrainController* retrain = nullptr;

  /// HTTP observability plane (`serve --http PORT`): -1 disables it,
  /// 0 binds an ephemeral port (tests), otherwise the given port on
  /// 127.0.0.1. Serves GET /metrics (Prometheus text), /index (JSON
  /// inventory), and /healthz. The listener binds in the constructor,
  /// so a bind failure throws out of it and probes can connect as soon
  /// as the process is up; run() answers them from its first poll.
  int http_port = -1;
};

struct IngestPipelineStats {
  std::uint64_t envelopes = 0;
  std::uint64_t samples = 0;          ///< samples dispatched into the service
  std::uint64_t jobs_opened = 0;
  std::uint64_t open_rejected = 0;    ///< duplicate job ids
  std::uint64_t jobs_closed = 0;
  std::uint64_t verdicts_delivered = 0;
  std::uint64_t unexpected_messages = 0;  ///< e.g. inbound verdicts
  std::uint64_t sweeps = 0;
  std::uint64_t evicted = 0;          ///< jobs closed by the stale sweep
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshot_failures = 0;    ///< write errors (serving continues)
  std::uint64_t snapshot_bases = 0;       ///< full base captures written
  std::uint64_t snapshot_deltas = 0;      ///< incremental delta captures
  /// Deltas found on disk at restore but discarded by the loud
  /// base-only fallback (broken link / corrupt delta).
  std::uint64_t restore_deltas_discarded = 0;
  std::uint64_t followers_accepted = 0;   ///< kFollowRequest handshakes served
  std::uint64_t follow_rejected = 0;      ///< gated off or reply-less peer
  std::uint64_t captures_replicated = 0;  ///< capture frames shipped out
  std::uint64_t captures_oversize = 0;    ///< too big for the wire path
  std::uint64_t snap_acks_ok = 0;         ///< follower: capture durable
  std::uint64_t snap_acks_failed = 0;     ///< follower rejected a capture
  /// Why the most recent snapshot write or chain restore failed
  /// (empty = never failed) — the `ingest.snapshot_last_error` scrape
  /// row, so silent durability rot is visible from monitoring.
  std::string snapshot_last_error;
  std::uint64_t jobs_restored = 0;    ///< open streams rebuilt on start
  std::uint64_t jobs_rebound = 0;     ///< restored jobs re-bound to a new peer
  std::uint64_t dictionary_swaps = 0; ///< accepted kSwapDictionary frames
  std::uint64_t swaps_rejected = 0;   ///< disabled, bad blob, or already-active
  std::uint64_t stats_requests = 0;   ///< kStatsRequest frames answered
  std::uint64_t retrain_reports = 0;  ///< kRetrainReport deliveries (fan-out)
  std::uint64_t subscribe_requests = 0;   ///< kSubscribe frames accepted
  std::uint64_t verdict_events = 0;   ///< kVerdictEvent publishes (pre-queue)
};

class IngestPipeline {
 public:
  /// \param service recognition service (borrowed; typically configured
  ///        with deferred = true so push() never blocks the poll loop on
  ///        recognition work). While run() is active the pipeline owns
  ///        it: no other thread may call it.
  /// \param sources the registered source set to consume (borrowed;
  ///        must outlive run()). Register >= 1 source before run().
  /// \param pool workers for deferred recognition (null = inline).
  IngestPipeline(core::RecognitionService& service, SourceMux& sources,
                 IngestPipelineConfig config = {},
                 util::ThreadPool* pool = nullptr);

  /// Legacy single-source shape: wraps \p source in a private mux
  /// (registered as "source", id 0).
  IngestPipeline(core::RecognitionService& service, SampleSource& source,
                 IngestPipelineConfig config = {},
                 util::ThreadPool* pool = nullptr);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Consumes the source on the calling thread until exhaustion or a
  /// stop condition. Returns the number of verdicts delivered.
  std::uint64_t run();

  /// run() on an internal thread.
  void start();
  /// Requests run() to wind down at once: sets the flag and rings the
  /// loop's wake fd. Any thread.
  void stop();
  /// Joins the start() thread (no-op without start()).
  void join();

  /// The pipeline's counters. Call on the run() thread (the HTTP
  /// handlers run there) or after run() returns (join()).
  const IngestPipelineStats& stats() const noexcept { return stats_; }

  /// Every row the scrapes report (kStatsReply's flat text, /metrics),
  /// declared once with its kind. Same threading rule as stats().
  obs::ScrapeRows scrape_rows() const;

  /// JSON inventory served as GET /index: live jobs, sources, dictionary
  /// epoch, snapshot-chain and follower state. Same threading rule as
  /// stats().
  std::string index_json() const;

  /// The registered source set (per-source counters live here).
  const SourceMux& sources() const noexcept { return *sources_; }

  /// The HTTP listener's bound port; 0 when config.http_port was -1.
  std::uint16_t http_port() const noexcept;
  /// The HTTP listener (null when config.http_port was -1). Same
  /// threading rule as stats().
  const obs::HttpServer* http() const noexcept { return http_.get(); }

 private:
  /// Where a job's verdict goes back: the connection it arrived on plus
  /// the source that connection belongs to (per-source accounting).
  struct ReplyRoute {
    std::shared_ptr<VerdictSink> sink;
    SourceId source = 0;
  };

  void dispatch(Envelope& envelope);
  /// Drains service verdicts to their reply sinks; returns count.
  std::uint64_t flush_verdicts();
  /// Points a restored (reply-less) job's verdict at the (source,
  /// connection) now streaming it. \p known_open skips the service
  /// lookup when the caller has already resolved the job as open.
  void maybe_rebind_reply(std::uint64_t job_id,
                          const std::shared_ptr<VerdictSink>& reply,
                          SourceId source, bool known_open = false);
  /// Ships a parked (restored, completed-pre-crash) verdict to the first
  /// connection that mentions its job.
  void deliver_parked(std::uint64_t job_id,
                      const std::shared_ptr<VerdictSink>& reply,
                      SourceId source);
  /// Captures the service into the snapshot chain (base or delta,
  /// written durably) and streams the capture to live followers.
  void write_snapshot();
  /// Registers a follower and catches it up from its cursor.
  void handle_follow_request(Envelope& envelope);
  /// Remembers a connection for retrain-report fan-out.
  void observe_sink(const std::shared_ptr<VerdictSink>& reply);
  /// Ships finished retrain cycles to every live observed connection.
  void publish_retrain_reports();
  /// Registers a kSubscribe peer with the hub and acks.
  void handle_subscribe(Envelope& envelope);
  /// Shared constructor tail: stamps the start time and starts the HTTP
  /// listener when configured (bind failure throws TransportError).
  void init_observability();

  core::RecognitionService& service_;
  /// Legacy single-source wrap (owned); sources_ points at it then.
  std::unique_ptr<SourceMux> owned_mux_;
  SourceMux* sources_;
  IngestPipelineConfig config_;
  util::ThreadPool* pool_;

  std::thread thread_;
  /// The one field other threads write (stop()).
  std::atomic<bool> stop_{false};

  // Everything below belongs to the run() thread.

  /// Reply route per open job.
  std::unordered_map<std::uint64_t, ReplyRoute> replies_;
  /// Restored pending verdicts awaiting their emitter's reconnect.
  std::unordered_map<std::uint64_t, Message> parked_verdicts_;
  /// Every distinct reply channel seen, for retrain-report broadcast
  /// (expired entries pruned on publish and by an amortized sweep when
  /// the map doubles past its post-sweep size).
  std::unordered_map<VerdictSink*, std::weak_ptr<VerdictSink>> observers_;
  std::size_t observers_sweep_at_ = 64;
  /// Reused per-batch view buffer for push_batch.
  std::vector<core::RecognitionService::SamplePush> scratch_;
  /// Reused per-flush staging for batched verdict delivery: messages
  /// and their routes, index-aligned, so runs of verdicts bound for the
  /// same connection collapse into one deliver_many() — one
  /// writev-style syscall instead of N.
  std::vector<Message> outbound_verdicts_;
  std::vector<ReplyRoute> outbound_routes_;
  /// Reused take_verdicts() output, reaped at the end of each flush.
  std::vector<core::JobVerdict> drained_verdicts_;

  /// Snapshot-chain bookkeeping: capture ids and per-stream digests the
  /// incremental writer diffs against.
  core::SnapshotChainState chain_;
  /// In-memory copy of the live chain (current base + its deltas) for
  /// follower catch-up; bytes == nullptr marks a capture too large for
  /// the wire path. Bounded by snapshot_chain_limit.
  struct ChainRecord {
    bool base = false;
    std::uint64_t capture_id = 0;
    std::uint64_t parent_id = 0;
    std::shared_ptr<const std::vector<std::uint8_t>> bytes;
  };
  std::vector<ChainRecord> chain_records_;
  /// Live follower reply channels (expired entries pruned on every
  /// capture broadcast).
  std::vector<std::weak_ptr<VerdictSink>> followers_;

  IngestPipelineStats stats_;
  /// Verdicts delivered when the last snapshot was taken.
  std::uint64_t verdicts_at_last_snapshot_ = 0;

  /// Construction time (uptime.seconds scrape row).
  std::int64_t start_ns_ = 0;

  /// Verdict pub/sub hub (created lazily on the first kSubscribe).
  std::unique_ptr<SubscriptionHub> hub_;

  /// HTTP observability listener (config.http_port >= 0), on the mux's
  /// loop. Declared last so it is destroyed first: its handler calls
  /// back into the pipeline's render methods.
  std::unique_ptr<obs::HttpServer> http_;
};

/// Builds a kVerdict message from a finished job's result.
Message make_verdict_message(const core::JobVerdict& verdict);

/// Reads a validated wire batch into \p out (resized to the batch) as
/// push_batch input, each metric a view into the frame's bytes: the one
/// decode a served sample gets. Reuses out's capacity.
void read_sample_batch(const SampleBatchView& batch,
                       std::vector<core::RecognitionService::SamplePush>& out);

}  // namespace efd::ingest

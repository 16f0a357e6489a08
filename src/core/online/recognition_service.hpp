#pragma once
/// \file recognition_service.hpp
/// \brief Multi-job streaming recognition service with bounded per-job
/// queues, back-pressure, and stale-stream eviction.
///
/// A production cluster runs many jobs at once; each node's monitoring
/// daemon pushes samples as they are taken. RecognitionService owns the
/// trained dictionary (published as a const epoch) and multiplexes one
/// OnlineRecognizer stream per job id, so many jobs are recognized at
/// once and a verdict fires the moment a job's last fingerprint window
/// closes (t = 120 s in the paper's configuration).
///
/// Production ingestion concerns (the scaling items PR 1 left open):
///  - Every job stream buffers samples in a *bounded* queue. When a
///    deferred queue is full a BackpressurePolicy decides: drain the
///    stream right there and keep the sample, drop the oldest queued
///    sample, or reject the new one. All three outcomes are observable
///    in RecognitionServiceStats.
///  - In the default (inline) mode push() drains the queue itself, so
///    verdicts still fire inside push() — the simulator path. With
///    config.deferred = true, push() only enqueues and marks the stream
///    dirty, and process_pending() — called by the ingest pipeline at
///    each poll boundary, optionally fanned across a thread pool (serve
///    --threads N) — drains exactly the dirty streams and fires
///    verdicts, so a poll costs O(streams pushed), not O(streams open).
///    Verdicts queue in the order they fire.
///  - Jobs that never complete (crashed daemons, killed executions)
///    stop consuming memory: sweep_stale_jobs() force-closes every
///    stream idle past the configured TTL, producing the paper's
///    unknown-application safeguard verdict.
///
/// Ownership: one thread owns a service, like an OnlineRecognizer. It
/// calls every method, one at a time; the service holds no lock and no
/// atomic of its own. Callers that share a service across threads
/// serialize those calls themselves (the ingest pipeline and
/// ldms::run_concurrent_jobs each hold one mutex for it).
/// swap_dictionary() is an owner call too: the retrain loop promotes a
/// certified candidate on the owner thread, at a poll boundary. Each
/// stream pins the epoch that was active when it opened and recognizes
/// against it for its whole life, so a swap never touches in-flight
/// streams. A published epoch is const, so recognition reads it without
/// any dictionary lock; new keys ("learning new applications is as
/// simple as adding new keys") arrive as such a successor.
/// One exception: process_pending(pool) runs its first pass on the
/// pool's workers. Each worker touches only its own dirty streams'
/// recognizer and queue and one result slot; the owner then folds the
/// slots in dirty-list order, so the pooled verdict order equals the
/// unpooled one.
///
/// Durability: snapshot_capture() is the one snapshot writer. It
/// serializes the service — active dictionary epoch, every open stream's
/// accumulators and queue, pending verdicts, lifetime counters — as an
/// EFD-SNAP-V2 base or delta capture, and restore_chain() is the one
/// restore: it rebuilds a fresh service from a base → delta chain, or
/// from a legacy EFD-SNAP-V1 file read as a one-part chain, so a serve
/// restart does not lose in-flight jobs (see
/// core/online/service_snapshot.hpp).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/dictionary_handle.hpp"
#include "core/online_recognizer.hpp"
#include "core/online/service_snapshot.hpp"

namespace efd::util {
class ThreadPool;
}

namespace efd::core {

/// A finished job's recognition outcome. The latency stamps are
/// steady_clock nanoseconds (now_ns() epoch): `enqueue_ns` is when the
/// sample that completed the job was admitted, `verdict_ns` when the
/// verdict was computed — their difference is the end-to-end
/// enqueue → verdict latency the observability plane histograms. Both
/// are 0 when unknown (force-closed, evicted, or snapshot-restored
/// verdicts). `source` is the ingest source tag the job arrived on.
struct JobVerdict {
  std::uint64_t job_id = 0;
  RecognitionResult result;
  std::uint32_t source = 0;
  std::int64_t enqueue_ns = 0;
  std::int64_t verdict_ns = 0;
};

/// What happens to a push when a job's sample queue is full.
enum class BackpressurePolicy : std::uint8_t {
  /// Lossless: a deferred push into a full queue drains that stream on
  /// the owner thread first, then enqueues. It never waits; each forced
  /// drain counts in pushes_blocked.
  kBlock,
  kDropOldest, ///< evict the oldest queued sample (bounded, freshest-wins)
  kReject,     ///< refuse the new sample (bounded, caller sees false)
};

const char* backpressure_policy_name(BackpressurePolicy policy);

/// Inverse of backpressure_policy_name ("block" / "drop-oldest" /
/// "reject"); nullopt for anything else. Shared by every flag parser so
/// a typo is rejected instead of silently running kBlock.
std::optional<BackpressurePolicy> parse_backpressure_policy(
    std::string_view name);

/// Service tuning knobs; the defaults reproduce PR 1's inline behavior.
struct RecognitionServiceConfig {
  /// Maximum samples buffered per job before the policy applies.
  std::size_t job_queue_capacity = 4096;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Idle time after which sweep_stale_jobs() force-closes a stream.
  std::chrono::steady_clock::duration stale_ttl = std::chrono::minutes(10);
  /// When true, push() only enqueues and process_pending() scores (on
  /// the caller's thread, or fanned across its pool). When false, the
  /// pushing thread drains inline (verdicts fire in push()).
  bool deferred = false;
};

/// Ingress counters of one source tag — the service-side view of a
/// multi-source ingest topology (tags are the mux's SourceIds; 0 is the
/// untagged/legacy default). Not persisted by snapshots: tags are a
/// property of the serving process's transport wiring, so they restart
/// at zero while the mux's own per-source cursors stay continuous.
struct SourceIngressStats {
  std::uint32_t source = 0;
  std::uint64_t jobs_opened = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t samples_pushed = 0;
};

/// Aggregate service counters (monitoring endpoint material).
struct RecognitionServiceStats {
  std::size_t active_jobs = 0;      ///< streams currently open
  std::size_t pending_verdicts = 0; ///< completed but not yet drained
  std::size_t queued_samples = 0;   ///< buffered, not yet recognized
  std::uint64_t jobs_opened = 0;    ///< lifetime total
  std::uint64_t jobs_completed = 0; ///< lifetime total (incl. force-closed)
  std::uint64_t jobs_evicted = 0;   ///< force-closed by the stale sweep
  std::uint64_t samples_pushed = 0; ///< accepted and recognized
  /// Pushes for a job the service does not hold: never opened, or
  /// already reaped after its verdict (drain_verdicts / reap).
  std::uint64_t samples_dropped = 0;
  /// Pushes for a job whose verdict fired but whose stream is not yet
  /// reaped. A post-verdict sample counts late or dropped depending on
  /// when the owner reaped, so only the sum of the two is stable across
  /// runs.
  std::uint64_t samples_late = 0;
  std::uint64_t samples_overflowed = 0; ///< evicted by kDropOldest
  std::uint64_t samples_rejected = 0;   ///< refused by kReject
  std::uint64_t pushes_blocked = 0;     ///< kBlock forced drains
  std::uint64_t dictionary_epoch = 0;   ///< active dictionary version
  std::uint64_t dictionary_swaps = 0;   ///< swaps that published a new epoch
  /// swap_dictionary calls rejected because the candidate was
  /// byte-identical to the active dictionary (already-active): a no-op
  /// swap must not burn an epoch — it would reset nothing yet make every
  /// in-flight stream look stale and defeat retrain double-promotion
  /// protection.
  std::uint64_t dictionary_swaps_noop = 0;
  /// Open streams still pinned to a superseded dictionary epoch (they
  /// finish against it; drops to 0 once pre-swap streams drain).
  std::size_t jobs_on_stale_epoch = 0;
  /// The active epoch's flat rows and tag table (dictionary_index.hpp):
  /// the wall-clock cost of the load() that built them (0 for a trained
  /// dictionary) and their resident footprint (0 only for an empty
  /// dictionary).
  double index_build_seconds = 0.0;
  std::uint64_t index_bytes = 0;
  /// Per-source ingress, ordered by tag. Populated only once a tagged
  /// open_job arrived (a single untagged source keeps this empty, so the
  /// legacy scrape is unchanged).
  std::vector<SourceIngressStats> by_source;
};

/// One ingest source's resume point inside a capture's Meta section
/// (opaque to the service, like replay_cursor): keyed by the mux
/// registration name so it survives restarts where transport ids could
/// be re-assigned.
struct SourceCursor {
  std::string name;
  std::uint64_t cursor = 0;

  bool operator==(const SourceCursor&) const = default;
};

/// What RecognitionService::restore_chain() rebuilt.
struct ServiceRestoreInfo {
  std::uint64_t replay_cursor = 0;    ///< caller-defined resume point
  /// Id of the newest capture applied (0 for an EFD-SNAP-V1 file).
  std::uint64_t last_capture_id = 0;
  std::uint64_t dictionary_epoch = 0; ///< restored active epoch version
  std::size_t jobs_restored = 0;      ///< open streams rebuilt
  std::size_t verdicts_restored = 0;  ///< pending (undrained) verdicts
  /// Streams restored OPEN but with fresh windows: they were pinned to
  /// an epoch whose accumulator layout (metrics/intervals) differs from
  /// the snapshot's active dictionary, so their sums could not transfer.
  std::size_t streams_reset = 0;
  /// Opaque Retrain-section bytes carried by the snapshot (empty when the
  /// snapshot had none). The retrain subsystem decodes these; the service
  /// only transports them.
  std::vector<std::uint8_t> retrain_state;
  /// Per-source resume points (empty for legacy single-cursor
  /// snapshots). Like replay_cursor, opaque: the ingest layer seeds its
  /// mux counters from them.
  std::vector<SourceCursor> source_cursors;
};

/// Multi-job streaming recognizer with one owner thread (see the file
/// comment). Non-copyable, non-movable (open streams hold pointers into
/// the owned dictionary).
class RecognitionService {
 public:
  /// Takes ownership of a trained dictionary; it becomes epoch 1.
  explicit RecognitionService(Dictionary dictionary,
                              RecognitionServiceConfig config = {});

  RecognitionService(const RecognitionService&) = delete;
  RecognitionService& operator=(const RecognitionService&) = delete;

  /// The ACTIVE dictionary. Borrowed reference: valid until the next
  /// swap_dictionary()/restore_chain() publishes a successor epoch —
  /// callers that must survive swaps should pin via
  /// dictionary_handle().acquire().
  const Dictionary& dictionary() const;
  const DictionaryHandle& dictionary_handle() const noexcept { return handle_; }
  const RecognitionServiceConfig& config() const noexcept { return config_; }

  /// What swap_dictionary did with a candidate.
  using SwapOutcome = DictionaryHandle::SwapOutcome;

  /// Atomically publishes a retrained dictionary as the new active
  /// epoch, mid-traffic. In-flight streams finish against the epoch they
  /// opened under; streams opened after this call recognize against
  /// \p next. A candidate whose EFD-DICT-V1 bytes equal the active
  /// epoch's (config AND content) is rejected as already-active: the
  /// epoch does not advance, the outcome reports the current version,
  /// and the attempt is counted in ServiceStats::dictionary_swaps_noop.
  /// The candidate's epoch (index and bytes) is built once, on the
  /// calling (owner) thread.
  SwapOutcome swap_dictionary(Dictionary next);

  /// The wire form: \p text is a candidate's EFD-DICT-V1 bytes. Text
  /// byte-equal to the active epoch's is refused as already-active (and
  /// counted) without a parse; other text is loaded, then published as
  /// above. Throws std::runtime_error on malformed text.
  SwapOutcome swap_dictionary(std::string_view text);

  /// Writes one EFD-SNAP-V2 capture — a BASE (complete snapshot,
  /// Dictionary included) or a DELTA (only streams whose serialized
  /// state changed since \p chain's last capture, plus closed jobs and
  /// fresh Meta/Verdicts/Stats[/Retrain]). A base is written when the
  /// chain is empty, when the active dictionary epoch or swap count
  /// differs from the chain's base, or when \p force_base is set
  /// (callers cap chain length with it); otherwise a delta chained to
  /// the previous capture by id. \p chain is caller-owned bookkeeping,
  /// updated on success.
  /// The owner calls it between other calls, so the capture is one
  /// consistent point: a job is either an open stream or a pending
  /// verdict. \p replay_cursor is an opaque caller-defined resume point
  /// stored verbatim (e.g. "messages applied"); restore_chain() hands it
  /// back. \p retrain_state, when non-empty, travels as the optional
  /// Retrain section (opaque to the service) and comes back in
  /// ServiceRestoreInfo::retrain_state. \p source_cursors, when
  /// non-empty, extends the Meta section with one named resume point per
  /// ingest source (multi-source pipelines).
  SnapshotCaptureInfo snapshot_capture(
      std::ostream& out, SnapshotChainState& chain, bool force_base = false,
      std::uint64_t replay_cursor = 0,
      std::span<const std::uint8_t> retrain_state = {},
      std::span<const SourceCursor> source_cursors = {}) const;

  /// Rebuilds service state from an EFD-SNAP-V2 capture chain: the
  /// first stream must be a base, each subsequent one a delta whose
  /// parent_id equals the previous capture_id. A legacy EFD-SNAP-V1 file
  /// restores as a one-part chain; a V1 part in a longer chain is
  /// rejected. Replay is all-or-nothing across the WHOLE chain — any
  /// broken link, CRC mismatch, or format violation throws SnapshotError
  /// with the service untouched (the caller decides whether to retry
  /// with a shorter chain). Latest capture wins for
  /// Meta/Verdicts/Stats/Retrain; stream sections add/replace by job id
  /// and ClosedJobs removes. Only valid on a service with no open jobs
  /// and no pending verdicts (a fresh restart). The restored dictionary
  /// replaces the constructor's; restored streams' TTL clocks restart at
  /// "now".
  ServiceRestoreInfo restore_chain(std::span<std::istream* const> parts);

  /// Declares an ingest source tag up front so its (possibly all-zero)
  /// counters appear in stats().by_source immediately. A multi-source
  /// pipeline registers every source at start; without this, a
  /// deployment whose traffic happened to arrive only on tag 0 would be
  /// indistinguishable from the legacy single-source mode and its
  /// per-source rows would be suppressed.
  void register_source_tag(std::uint32_t source_tag) {
    ingress_for(source_tag);
  }

  /// Opens a stream for a job. Returns false (and changes nothing) if the
  /// job id is already present (open, or completed but not yet drained —
  /// ids become reusable after drain_verdicts()). \p source_tag labels
  /// the ingest source the job arrived on (the mux's SourceId; 0 =
  /// untagged): the stream's opens/pushes/completions accumulate into
  /// RecognitionServiceStats::by_source under that tag.
  bool open_job(std::uint64_t job_id, std::uint32_t node_count,
                std::uint32_t source_tag = 0);

  /// True while the job's stream is open (completed streams awaiting
  /// reaping do not count).
  bool has_job(std::uint64_t job_id) const;

  /// Feeds one monitoring sample. Returns false if the service holds no
  /// such job (counted as dropped), if the verdict already fired but the
  /// stream is not yet reaped (late), or if the queue was full under
  /// kReject (rejected). In inline mode the sample is recognized here
  /// and the verdict may fire before this returns; in deferred mode it
  /// waits for process_pending() (or for a kBlock forced drain of its
  /// full queue).
  bool push(std::uint64_t job_id, std::uint32_t node_id,
            std::string_view metric_name, int t, double value);

  /// One sample of a push_batch call (views borrow the caller's memory
  /// for the duration of the call only).
  struct SamplePush {
    std::uint32_t node_id = 0;
    int t = 0;
    double value = 0.0;
    std::string_view metric;
  };

  /// Batched push for samples sharing one job (the ingest pipeline's
  /// hot path): resolves the stream and reads the clock once for the
  /// whole batch instead of per sample. Per-sample semantics (policy,
  /// counters, verdict firing) are identical to push(). Returns the
  /// number of samples accepted.
  std::size_t push_batch(std::uint64_t job_id,
                         std::span<const SamplePush> samples);

  /// push_batch for a batch of \p count samples the caller has not read
  /// yet (the ingest pipeline's wire views): resolves the job once and
  /// calls \p read() — which returns the samples as a
  /// std::span<const SamplePush> — only when the job is open. An unknown
  /// job's samples count as dropped and a finished job's as late, both
  /// unread; per sample, the counters move as push() moves them.
  template <typename Read>
  std::size_t push_unread_batch(std::uint64_t job_id, std::size_t count,
                                Read&& read) {
    JobStream* const stream = find_stream(job_id);
    if (stream == nullptr) {
      samples_dropped_ += count;
      return 0;
    }
    if (stream->done) {
      samples_late_ += count;
      return 0;
    }
    return push_stream(*stream, read());
  }

  /// Drains the queued samples of every stream marked dirty since the
  /// last call — pushed in deferred mode, or restored with a queue —
  /// and fans them out across \p pool when non-null. Idle streams are
  /// never visited. Verdicts queue in dirty-list order whether or not a
  /// pool is given. Must be called from outside the pool's own workers.
  /// Returns the number of samples recognized.
  std::size_t process_pending(util::ThreadPool* pool = nullptr);

  /// Force-closes a job, producing a verdict from whatever windows have
  /// closed (unrecognized if the stream never became ready). Queued
  /// samples are recognized first — they were accepted. Returns false
  /// if no such job is open.
  bool close_job(std::uint64_t job_id);

  /// Force-closes every stream idle (no accepted push) for at least
  /// \p ttl, bounding service memory when jobs die without closing.
  /// Evicted jobs yield a verdict like close_job(). Returns the number
  /// of evicted streams.
  std::size_t sweep_stale_jobs(std::chrono::steady_clock::duration ttl);

  /// sweep_stale_jobs with the configured TTL.
  std::size_t sweep_stale_jobs() { return sweep_stale_jobs(config_.stale_ttl); }

  /// Moves out all queued verdicts (in the order they fired) and reaps
  /// their streams from the jobs map: a job id is reusable once the
  /// drain that returned its verdict is over.
  std::vector<JobVerdict> drain_verdicts();
  /// drain_verdicts() into \p out (cleared first), reusing its capacity:
  /// a caller that keeps \p out drains with no steady-state allocation.
  /// The same as take_verdicts(out) followed by reap(out).
  void drain_verdicts(std::vector<JobVerdict>& out);

  /// The first half of drain_verdicts: moves the queued verdicts into
  /// \p out (cleared first) and leaves their finished streams in place,
  /// so a caller can ship the verdicts before it pays for the teardown.
  /// Until reap(), those job ids stay taken and late pushes count late.
  void take_verdicts(std::vector<JobVerdict>& out);
  /// The second half: reaps the finished streams of \p verdicts (as
  /// returned by take_verdicts). Their job ids are reusable afterwards.
  void reap(std::span<const JobVerdict> verdicts);

  RecognitionServiceStats stats() const;

  /// Ids of every currently open job, ascending (observability /index
  /// material).
  std::vector<std::uint64_t> open_job_ids() const;

 private:
  /// One queued monitoring sample. POD: the metric travels as the
  /// recognizer's slot index (resolved once at enqueue, since the push
  /// caller's string_view does not outlive the call), so queue churn
  /// copies plain bytes instead of constructing strings. kNoMetricSlot
  /// marks metrics the dictionary does not fingerprint — still queued,
  /// because the legacy path counted them as fed. `enqueue_ns` is the
  /// admission stamp (one now_ns() per accepted batch, shared by its
  /// samples) that the verdict latency histogram measures from; 0 for
  /// snapshot-restored samples.
  struct Sample {
    std::uint32_t node_id = 0;
    int t = 0;
    double value = 0.0;
    std::uint32_t metric_slot = kNoMetricSlot;
    std::int64_t enqueue_ns = 0;
  };

  struct JobStream {
    JobStream(std::shared_ptr<DictionaryHandle::Epoch> epoch,
              std::uint64_t job_id, std::uint32_t node_count)
        : job_id(job_id),
          epoch(std::move(epoch)),
          recognizer(this->epoch->dictionary, node_count) {}

    const std::uint64_t job_id;
    /// The dictionary epoch pinned at open: the recognizer reads this
    /// epoch's dictionary for the stream's whole life, across any number
    /// of swaps.
    const std::shared_ptr<DictionaryHandle::Epoch> epoch;
    /// Reaches the queue-capacity high-water mark and then recycles its
    /// storage, so steady-state enqueue and drain allocate nothing.
    std::vector<Sample> queue;
    OnlineRecognizer recognizer;
    /// The source tag's ingress counters (an entry of source_ingress_);
    /// null for snapshot-restored streams, which count under no tag.
    SourceIngressStats* ingress = nullptr;
    /// Set when the verdict is queued. Done streams linger until
    /// drain_verdicts reaps them, so post-verdict pushes classify as
    /// "late" rather than "dropped".
    bool done = false;
    /// True while the stream sits on dirty_ (so N pushes cost one slot).
    bool scheduled = false;
    std::int64_t last_activity_ns = 0;  ///< steady_clock epoch
  };

  /// One stream's drain result: what the first pass of process_pending
  /// leaves for the owner to fold into the counters and verdict queue.
  struct Drained {
    std::size_t fed = 0;   ///< samples that reached the recognizer
    std::size_t late = 0;  ///< queued behind the sample that fired
    std::optional<JobVerdict> verdict;
  };

  /// Get-or-create the counters of \p source_tag.
  SourceIngressStats* ingress_for(std::uint32_t source_tag);

  JobStream* find_stream(std::uint64_t job_id);
  /// Enqueues \p samples into the open \p stream (push_unread_batch
  /// once the job is resolved).
  std::size_t push_stream(JobStream& stream,
                          std::span<const SamplePush> samples);
  /// Applies the back-pressure policy and enqueues one sample. Returns
  /// false when the sample was not enqueued.
  bool enqueue(JobStream& stream, const SamplePush& sample,
               std::int64_t enqueue_ns);
  /// Feeds the stream's queue to its recognizer until the verdict fires
  /// and empties the queue. Touches only \p stream and \p out, so
  /// process_pending runs it on pool workers.
  static void drain_queue(JobStream& stream, Drained& out);
  /// Folds a drain result into the counters and, when it fired, queues
  /// the verdict and marks the stream done. Returns samples recognized.
  std::size_t settle(JobStream& stream, Drained& drained);
  /// drain_queue + settle on the owner thread.
  std::size_t drain_stream(JobStream& stream);
  /// Computes and queues a force-close verdict. Flushes queued samples
  /// first.
  void finish_stream(JobStream& stream);
  /// The stream's verdict as of now; \p enqueue_ns is the admission
  /// stamp of the sample that completed the job (0 = unknown).
  static JobVerdict make_verdict(JobStream& stream, std::int64_t enqueue_ns);
  static std::int64_t now_ns();

  /// Snapshot/restore internals (service_snapshot.cpp): the section
  /// writer behind snapshot_capture(), and the staged all-or-nothing
  /// decoder that restore_chain() runs once per part.
  struct RestoreStaging;
  std::size_t write_snapshot_sections(
      std::ostream& out,
      const std::shared_ptr<DictionaryHandle::Epoch>& dict_epoch,
      std::uint64_t dict_swap_count, SnapshotChainState& chain, bool delta,
      SnapshotCaptureInfo& info, std::uint64_t replay_cursor,
      std::span<const std::uint8_t> retrain_state,
      std::span<const SourceCursor> source_cursors) const;
  void decode_snapshot_sections(std::istream& in, RestoreStaging& staging,
                                bool delta) const;
  ServiceRestoreInfo commit_staging(RestoreStaging&& staging);

  DictionaryHandle handle_;
  RecognitionServiceConfig config_;

  /// Streams live in the map's nodes, so pointers to them (dirty_)
  /// stay valid until the stream is reaped.
  std::unordered_map<std::uint64_t, JobStream> jobs_;
  std::vector<JobVerdict> verdicts_;  ///< firing order
  /// Streams with work for process_pending, each listed once.
  std::vector<JobStream*> dirty_;
  /// process_pending's result slots, one per dirty stream (reused).
  std::vector<Drained> drained_;
  /// Source-tag → ingress counters. Map nodes are stable, so streams
  /// keep a pointer to their entry.
  std::map<std::uint32_t, SourceIngressStats> source_ingress_;

  std::uint64_t jobs_opened_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_evicted_ = 0;
  std::uint64_t samples_pushed_ = 0;
  std::uint64_t samples_dropped_ = 0;
  std::uint64_t samples_late_ = 0;
  std::uint64_t samples_overflowed_ = 0;
  std::uint64_t samples_rejected_ = 0;
  std::uint64_t pushes_blocked_ = 0;
};

}  // namespace efd::core

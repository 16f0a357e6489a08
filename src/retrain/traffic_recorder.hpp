#pragma once
/// \file traffic_recorder.hpp
/// \brief Rolling capture of served recognition traffic — the data side
/// of the closed retraining loop (see retrain_controller.hpp).
///
/// The paper trains its dictionary once, offline. A production endpoint
/// tracking workload drift needs training data that mirrors what it is
/// serving RIGHT NOW, and the only place that data exists is the traffic
/// itself. TrafficRecorder taps the ingest pipeline's dispatch path and
/// keeps a bounded, per-application window of recently served jobs:
///
///  - Capture is cheap on the hot path: sample batches are MOVED in
///    (the pipeline has already dispatched them; their backing memory
///    would otherwise be freed), and filtering keeps only what training
///    can use — metrics the dictionary layout fingerprints, ticks below
///    the capture horizon (the last interval end; later samples cannot
///    influence any window mean). Everything else is dropped at the door
///    and counted.
///  - A job becomes trainable only when its verdict fires AND names a
///    known application: the incumbent dictionary labels the traffic
///    (self-training). Unrecognized verdicts carry no usable label and
///    are counted, not stored.
///  - Each application's window is a fixed-capacity ring; once an app
///    has produced more jobs than fit, admission switches to reservoir
///    sampling (Algorithm R, seeded — deterministic), so the window
///    stays a uniform sample of the app's served history at O(capacity)
///    memory no matter how much traffic flows.
///  - Captured jobs are immutable once admitted and shared-owned, so
///    snapshot_window() is pointer copies — the retrain worker works on
///    frozen data while capture (including reservoir replacement)
///    continues without ever stalling the dispatch thread behind a deep
///    copy.
///
/// slice_window() turns a window snapshot into train/holdout datasets:
/// per application, the most recent ceil(fraction * n) jobs are held
/// out (validate on the freshest traffic — that is where drift shows),
/// the rest train the candidate.
///
/// Thread-safety: one thread owns a recorder (the pipeline's run()
/// thread) and calls every method. A WindowSnapshot's jobs are const and
/// shared-owned, so another thread may read them while capture goes on.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fingerprint.hpp"
#include "ingest/wire_format.hpp"
#include "telemetry/dataset.hpp"
#include "util/rng.hpp"

namespace efd::retrain {

struct TrafficRecorderConfig {
  /// Per-application window capacity (completed jobs). The total window
  /// is bounded by window_jobs_per_app * max_applications.
  std::size_t window_jobs_per_app = 32;
  /// Distinct application windows tracked; jobs for further applications
  /// are counted (jobs_untracked) and dropped.
  std::size_t max_applications = 64;
  /// Ticks at/after this are not stored (0 = derive from the layout:
  /// the maximum interval end, since later samples cannot change any
  /// window mean).
  int capture_horizon_seconds = 0;
  /// Seed for reservoir admission (deterministic runs).
  std::uint64_t seed = 42;
  /// Recency-weighted reservoir eviction (0 = keep forever): captured
  /// jobs older than this are expired — pruned at the next admission and
  /// excluded from window snapshots — so a quiet application's window
  /// cannot keep training on stale traffic. After a prune, the
  /// reservoir's admission odds reset to the surviving population, so
  /// fresh jobs re-enter readily (recency weighting).
  std::chrono::milliseconds window_ttl{0};
  /// Ingest source tags (the mux's SourceIds) whose jobs are never
  /// admitted — the operator's knob to keep a high-loss source (e.g. a
  /// congested UDP sampler) from training the dictionary on truncated
  /// traffic. Counted in jobs_excluded_source.
  std::vector<std::uint32_t> excluded_sources;
};

struct TrafficRecorderStats {
  std::size_t window_jobs = 0;        ///< jobs currently held
  std::uint64_t window_samples = 0;   ///< samples currently held
  std::size_t applications = 0;       ///< distinct app windows
  std::uint64_t jobs_captured = 0;    ///< completed recognized jobs seen
  std::uint64_t jobs_admitted = 0;    ///< entered a window
  std::uint64_t jobs_replaced = 0;    ///< reservoir evictions
  std::uint64_t jobs_sampled_out = 0; ///< reservoir declined admission
  std::uint64_t jobs_unrecognized = 0;///< verdict had no usable label
  std::uint64_t jobs_untracked = 0;   ///< no open capture / app cap hit
  std::uint64_t samples_recorded = 0; ///< accepted into a capture (lifetime)
  std::uint64_t samples_filtered = 0; ///< beyond horizon / foreign metric
  std::uint64_t window_resets = 0;    ///< layout rebinds dropping the window
  std::uint64_t jobs_expired = 0;     ///< evicted by the window TTL
  std::uint64_t jobs_excluded_source = 0; ///< from an excluded ingest source
};

/// One completed, labeled, captured job. Immutable once admitted to a
/// window (shared between the live window and in-flight snapshots).
struct CapturedJob {
  std::uint64_t job_id = 0;
  std::uint32_t node_count = 0;
  std::uint32_t source = 0;         ///< ingest source the job arrived on
  telemetry::ExecutionLabel label;  ///< from the verdict (self-labeled)
  std::uint64_t sequence = 0;       ///< completion order within the recorder
  std::int64_t captured_ns = 0;     ///< admission time (window TTL clock)
  std::vector<ingest::WireSample> samples;  ///< filtered, arrival order
};

/// A frozen view of the capture window (shared, immutable jobs).
using WindowSnapshot = std::vector<std::shared_ptr<const CapturedJob>>;

/// Train/holdout datasets sliced from a window snapshot. Records carry
/// the captured labels, so the gate can score accuracy directly.
struct WindowSlices {
  telemetry::Dataset train;
  telemetry::Dataset holdout;
};

class TrafficRecorder {
 public:
  /// \param layout the serving dictionary's fingerprint layout: defines
  ///        the metric filter, the capture horizon, and the dataset axis
  ///        snapshots are built on. Stable across content retrains.
  explicit TrafficRecorder(core::FingerprintConfig layout,
                           TrafficRecorderConfig config = {});

  const core::FingerprintConfig& layout() const noexcept { return layout_; }
  const TrafficRecorderConfig& config() const noexcept { return config_; }
  /// Ticks at/after this are never stored.
  int capture_horizon() const noexcept { return horizon_; }

  /// Starts capturing a job (pipeline tap: successful kOpenJob).
  /// \p source tags the ingest source the job arrived on; jobs from
  /// excluded sources are dropped at completion (never admitted).
  void job_opened(std::uint64_t job_id, std::uint32_t node_count,
                  std::uint32_t source = 0);

  /// Appends a dispatched sample batch to the job's pending capture,
  /// consuming the vector (zero-copy tap: the pipeline is done with it).
  /// Unknown job ids are ignored (restored jobs, late batches).
  void record_batch(std::uint64_t job_id,
                    std::vector<ingest::WireSample>&& samples);

  /// Finalizes a capture with its verdict: a recognized verdict admits
  /// the job to its application's window (ring, then reservoir);
  /// anything else discards it with the matching counter.
  void job_finished(std::uint64_t job_id, bool recognized,
                    const std::string& label_prediction);

  /// Freezes the current window (all applications, capture order):
  /// O(window) pointer copies, never a data copy.
  WindowSnapshot snapshot_window() const;

  /// Adopts a new fingerprint layout (a restore or manual swap-dict can
  /// install an epoch whose metrics/intervals differ from the boot
  /// dictionary's). Captures made under the old layout cannot mix with
  /// the new filter, so pending captures AND the window are dropped
  /// (counted in window_resets); capture restarts from live traffic.
  void rebind_layout(core::FingerprintConfig layout);

  /// Completed recognized jobs seen so far (the retrain count trigger).
  std::uint64_t jobs_captured() const;

  TrafficRecorderStats stats() const;

 private:
  struct PendingCapture {
    std::uint32_t node_count = 0;
    std::uint32_t source = 0;
    std::vector<ingest::WireSample> samples;
    std::uint64_t filtered = 0;
  };
  struct AppWindow {
    /// Ring storage, admission order; entries are immutable and shared
    /// with snapshots.
    std::vector<std::shared_ptr<const CapturedJob>> jobs;
    std::uint64_t seen = 0;  ///< completed jobs offered to this window
  };

  /// Recomputes horizon/caps from layout_ (constructor + rebind_layout).
  void adopt_layout();
  /// Evicts window entries older than the TTL (no-op when disabled).
  /// Resets each pruned window's reservoir odds to its survivors.
  void prune_expired(std::int64_t now_ns);
  static std::int64_t now_ns();

  core::FingerprintConfig layout_;
  TrafficRecorderConfig config_;
  int horizon_ = 0;
  std::size_t max_samples_per_job_ = 0;

  std::unordered_map<std::uint64_t, PendingCapture> pending_;
  std::unordered_map<std::string, AppWindow> windows_;
  util::Rng rng_;
  std::uint64_t next_sequence_ = 0;
  TrafficRecorderStats stats_;
};

/// Splits a window snapshot into train/holdout datasets on the layout's
/// metric axis. Per application (jobs ordered by capture sequence), the
/// newest ceil(holdout_fraction * n) jobs — at least one when the app
/// has two or more — are held out; the rest train. Fully deterministic.
/// Sparse capture is tolerated: each (node, metric) series is rebuilt
/// dense up to the last captured tick, forward-filling interior gaps.
WindowSlices slice_window(const WindowSnapshot& window,
                          const core::FingerprintConfig& layout,
                          double holdout_fraction);

}  // namespace efd::retrain

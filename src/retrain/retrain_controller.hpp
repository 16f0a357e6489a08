#pragma once
/// \file retrain_controller.hpp
/// \brief The closed retraining loop: rolling traffic capture →
/// background retrain → validation gate → self-swap.
///
/// PR 3's DictionaryHandle made a retrained dictionary publishable
/// mid-traffic, but only an operator hand-shipping bytes over swap-dict
/// ever exercised it. RetrainController closes the loop: the service
/// retrains itself from the traffic it serves and promotes the result —
/// but only past a quantitative gate.
///
/// One cycle (trigger → train → gate → promote):
///  1. Trigger: a wall-clock interval and/or a captured-job count (both
///     checked at the pipeline's poll boundary, maybe_trigger()). A
///     cycle never starts while another is in flight.
///  2. Snapshot: the TrafficRecorder window is deep-copied at a
///     consistent point and sliced per application into train (older)
///     and holdout (newest) datasets. Capture continues concurrently.
///  3. Train: train_dictionary() builds the candidate on a background
///     thread (fingerprints fanned out across a worker pool), under the
///     incumbent epoch's fingerprint layout — recognition never stalls;
///     the trainer inserts in record order, so the candidate is
///     byte-identical to a sequential retrain.
///  4. Gate: the ValidationGate replays the holdout through candidate
///     AND incumbent (the epoch pinned in step 2 — a concurrent manual
///     swap cannot slip under the comparison) and only certifies a
///     candidate that clears the margin.
///  5. Promote: RecognitionService::swap_dictionary publishes the
///     candidate as a new epoch; in-flight streams finish against the
///     epoch they pinned at open. A candidate byte-identical to the
///     active dictionary reports already-active WITHOUT burning an
///     epoch — this is also what makes an at-least-once replay after a
///     crash unable to double-promote.
///
/// Durability: every attempt (outcome, scores, epoch) lands in
/// RetrainStats and a bounded lineage, serialized as the EFD-RETRAIN-V1
/// blob the service snapshot carries in its optional Retrain section —
/// a crash mid-cycle restores the attempt history; the traffic window
/// itself is deliberately NOT persisted (it re-fills from live traffic,
/// and a snapshot that embedded it would dwarf the dictionary).
///
/// Threading: maybe_trigger()/drain_reports() belong to one scheduler
/// thread (the ingest pipeline's run() loop); the cycle body runs on an
/// internal background thread (or inline with background = false — the
/// deterministic-test mode). stats()/encode_state() are safe from any
/// thread. The recorder taps are internally synchronized.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/online/recognition_service.hpp"
#include "retrain/traffic_recorder.hpp"
#include "retrain/validation_gate.hpp"

namespace efd::util {
class ThreadPool;
}

namespace efd::retrain {

/// How a triggered cycle ended. Values travel in EFD-RETRAIN-V1 and the
/// kRetrainReport wire frame — append only, never renumber.
enum class RetrainOutcome : std::uint8_t {
  kPromoted = 1,      ///< candidate certified and published as a new epoch
  kGatedOut = 2,      ///< candidate failed the validation gate
  kAlreadyActive = 3, ///< candidate identical to the active dictionary
  kSkippedNoData = 4, ///< window had no trainable slice
  kFailed = 5,        ///< training/gate threw (detail carries the reason)
  kDryRun = 6,        ///< gate passed but dry-run withheld the promotion
};

const char* retrain_outcome_name(RetrainOutcome outcome);

/// One finished cycle, as reported to observers (and the wire).
struct RetrainReport {
  std::uint64_t cycle = 0;  ///< lifetime trigger number (1-based)
  RetrainOutcome outcome = RetrainOutcome::kFailed;
  std::uint64_t epoch = 0;  ///< active dictionary epoch after the cycle
  double candidate_score = 0.0;
  double incumbent_score = 0.0;
  std::size_t window_jobs = 0;
  std::size_t holdout_jobs = 0;
  double train_seconds = 0.0;
  double gate_seconds = 0.0;
  std::string detail;  ///< gate reason / error text
};

struct RetrainConfig {
  /// Wall-clock trigger cadence (0 = timer disabled).
  std::chrono::milliseconds interval{0};
  /// Trigger after this many newly captured jobs since the last cycle
  /// (0 = count trigger disabled). Deterministic under test harnesses.
  std::uint64_t min_new_jobs = 0;
  /// Fraction of each application's window held out for the gate.
  double holdout_fraction = 0.25;
  ValidationGateConfig gate;
  /// Run the full cycle but never promote (report kDryRun instead) —
  /// the operator's shadow-mode knob.
  bool dry_run = false;
  /// Run cycles on an internal background thread (the serving mode).
  /// false runs them inline inside maybe_trigger()/run_cycle() — the
  /// deterministic mode tests and benches use.
  bool background = true;
  /// Worker pool for the trainer's fingerprint construction (borrowed;
  /// null = global pool).
  util::ThreadPool* pool = nullptr;
  TrafficRecorderConfig recorder;
  /// Test/fault hook: invoked on the cycle thread after the candidate is
  /// trained, before the gate runs — the scripted crash point between
  /// train and promote.
  std::function<void()> after_train;
  /// Observer invoked (on the cycle thread, outside the controller's
  /// lock) for every finished cycle — operator logging. Wire fan-out
  /// happens separately via drain_reports().
  std::function<void(const RetrainReport&)> on_report;
};

/// One remembered attempt (the epoch lineage; bounded, durable).
struct RetrainAttempt {
  std::uint64_t cycle = 0;
  RetrainOutcome outcome = RetrainOutcome::kFailed;
  std::uint64_t epoch = 0;
  double candidate_score = 0.0;
  double incumbent_score = 0.0;

  bool operator==(const RetrainAttempt&) const = default;
};

/// Aggregate counters (monitoring endpoint material; durable).
struct RetrainStats {
  std::uint64_t cycles_triggered = 0;
  std::uint64_t cycles_trained = 0;  ///< produced a candidate
  std::uint64_t cycles_promoted = 0;
  std::uint64_t cycles_gated_out = 0;
  std::uint64_t cycles_already_active = 0;
  std::uint64_t cycles_skipped_no_data = 0;
  std::uint64_t cycles_failed = 0;
  std::uint64_t cycles_dry_run = 0;
  std::uint64_t last_cycle = 0;          ///< last FINISHED cycle number
  std::uint64_t last_promoted_epoch = 0; ///< 0 = never promoted
  double last_candidate_score = 0.0;
  double last_incumbent_score = 0.0;
};

/// Maximum attempts the durable lineage retains (oldest dropped first).
inline constexpr std::size_t kMaxRetrainLineage = 64;

class RetrainController {
 public:
  /// \param service the serving endpoint (borrowed; must outlive). The
  ///        recorder adopts the ACTIVE epoch's fingerprint layout;
  ///        content retrains never change it, but a restore or a manual
  ///        swap-dict CAN install a different layout — the controller
  ///        detects that at the next trigger/cycle and rebinds the
  ///        recorder (dropping the now-unusable window, counted in
  ///        TrafficRecorderStats::window_resets).
  RetrainController(core::RecognitionService& service, RetrainConfig config);
  ~RetrainController();

  RetrainController(const RetrainController&) = delete;
  RetrainController& operator=(const RetrainController&) = delete;

  TrafficRecorder& recorder() noexcept { return recorder_; }
  const TrafficRecorder& recorder() const noexcept { return recorder_; }
  const RetrainConfig& config() const noexcept { return config_; }

  /// Scheduler-thread poll: starts a cycle when a trigger condition
  /// holds and none is in flight. Returns true when a cycle was started
  /// (background) or completed (inline).
  bool maybe_trigger(std::chrono::steady_clock::time_point now);

  /// Runs one full cycle synchronously on the calling thread, regardless
  /// of trigger state (tests, benches, an operator's "retrain now").
  /// Must not be called concurrently with a background cycle.
  RetrainReport run_cycle();

  /// Moves out reports finished since the last drain (completion order).
  std::vector<RetrainReport> drain_reports();

  bool cycle_in_flight() const noexcept {
    return busy_.load(std::memory_order_acquire);
  }

  /// Waits for an in-flight background cycle to finish.
  void join();

  RetrainStats stats() const;

  /// Finished attempts, oldest first (bounded by kMaxRetrainLineage).
  std::vector<RetrainAttempt> lineage() const;

  /// EFD-RETRAIN-V1: serializes stats + lineage for the snapshot's
  /// Retrain section.
  std::vector<std::uint8_t> encode_state() const;

  /// Inverse of encode_state(). Returns false (controller untouched) on
  /// an unrecognized or corrupt blob; an empty blob is a no-op success.
  bool restore_state(const std::vector<std::uint8_t>& blob);

 private:
  RetrainReport execute_cycle(std::uint64_t cycle);
  void finish_cycle(RetrainReport report);
  /// Reaps a finished background thread (scheduler thread only).
  void reap_worker();
  /// Rebinds the recorder when the active epoch's fingerprint layout no
  /// longer matches the capture filter (scheduler/cycle thread only).
  /// Returns true when a rebind (window reset) happened.
  bool maybe_rebind_layout();

  core::RecognitionService& service_;
  RetrainConfig config_;
  TrafficRecorder recorder_;

  std::thread worker_;
  std::atomic<bool> busy_{false};
  bool timer_armed_ = false;
  std::chrono::steady_clock::time_point last_trigger_{};
  std::uint64_t captured_at_last_trigger_ = 0;

  mutable std::mutex mutex_;  ///< stats_, lineage_, pending_reports_
  RetrainStats stats_;
  std::vector<RetrainAttempt> lineage_;
  std::vector<RetrainReport> pending_reports_;
};

}  // namespace efd::retrain

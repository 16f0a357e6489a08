#pragma once
/// \file retrain_controller.hpp
/// \brief The closed retraining loop: rolling traffic capture →
/// retrain and validation gate on a worker → promotion on the owner.
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
///  2. Inputs: the owner pins the incumbent epoch and freezes the
///     TrafficRecorder window (pointer copies of immutable jobs) — the
///     worker's only two inputs. Capture continues on the owner.
///  3. Train: on a worker thread, the window is sliced per application
///     into train (older) and holdout (newest) datasets and
///     train_dictionary() builds the candidate (fingerprints fanned out
///     across a worker pool) under the incumbent's fingerprint layout —
///     recognition never stalls; the trainer inserts in record order, so
///     the candidate is byte-identical to a sequential retrain.
///  4. Gate: the worker replays the holdout through candidate AND the
///     pinned incumbent, and certifies only a candidate that clears the
///     margin. It returns the report and the certified candidate; it
///     never publishes.
///  5. Promote: at the owner's next maybe_trigger() (or join()),
///     RecognitionService::swap_dictionary publishes the candidate as a
///     new epoch; in-flight streams finish against the epoch they
///     pinned at open. A candidate byte-identical to the active
///     dictionary reports already-active WITHOUT burning an epoch — this
///     is also what makes an at-least-once replay after a crash unable
///     to double-promote.
///
/// Durability: every attempt (outcome, scores, epoch) lands in
/// RetrainStats and a bounded lineage, serialized as the EFD-RETRAIN-V1
/// blob the service snapshot carries in its optional Retrain section —
/// a crash mid-cycle restores the attempt history; the traffic window
/// itself is deliberately NOT persisted (it re-fills from live traffic,
/// and a snapshot that embedded it would dwarf the dictionary).
///
/// Threading: one owner thread (the ingest pipeline's run() loop) calls
/// every method; the controller and its recorder hold no lock. Only the
/// train + gate step of a maybe_trigger() cycle runs on a worker
/// thread, and it touches nothing but its two inputs and the immutable
/// config. run_cycle() runs all of it on the caller.

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
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
  /// Worker pool for the trainer's fingerprint construction (borrowed;
  /// null = global pool).
  util::ThreadPool* pool = nullptr;
  TrafficRecorderConfig recorder;
  /// Test/fault hook: invoked on the thread that trains (the worker, or
  /// run_cycle()'s caller) after the candidate is trained, before the
  /// gate runs — the scripted crash point between train and promote.
  std::function<void()> after_train;
  /// Observer invoked on the owner thread for every finished cycle —
  /// operator logging. Wire fan-out happens separately via
  /// drain_reports().
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

  RetrainController(const RetrainController&) = delete;
  RetrainController& operator=(const RetrainController&) = delete;

  TrafficRecorder& recorder() noexcept { return recorder_; }
  const TrafficRecorder& recorder() const noexcept { return recorder_; }
  const RetrainConfig& config() const noexcept { return config_; }

  /// Owner poll: promotes a finished cycle's candidate, then starts a
  /// cycle on a worker thread when a trigger condition holds and none is
  /// in flight. Returns true when a cycle was started.
  bool maybe_trigger(std::chrono::steady_clock::time_point now);

  /// Runs one full cycle synchronously on the calling thread, regardless
  /// of trigger state (tests, benches, an operator's "retrain now").
  /// Finishes an in-flight cycle first.
  RetrainReport run_cycle();

  /// Moves out reports finished since the last drain (completion order).
  std::vector<RetrainReport> drain_reports();

  /// True from a maybe_trigger() that started a cycle until the owner
  /// promotes its outcome.
  bool cycle_in_flight() const noexcept { return cycle_.valid(); }

  /// Waits for an in-flight cycle, then promotes and records it.
  void join();

  const RetrainStats& stats() const noexcept { return stats_; }

  /// Finished attempts, oldest first (bounded by kMaxRetrainLineage).
  const std::vector<RetrainAttempt>& lineage() const noexcept {
    return lineage_;
  }

  /// EFD-RETRAIN-V1: serializes stats + lineage for the snapshot's
  /// Retrain section.
  std::vector<std::uint8_t> encode_state() const;

  /// Inverse of encode_state(). Returns false (controller untouched) on
  /// an unrecognized or corrupt blob; an empty blob is a no-op success.
  bool restore_state(const std::vector<std::uint8_t>& blob);

 private:
  /// The worker's result: the gate's report, and the candidate when it
  /// was certified for promotion.
  struct CycleResult {
    RetrainReport report;
    std::optional<core::Dictionary> candidate;
  };

  /// Train + gate: a pure function of the config and the two inputs the
  /// owner took when the cycle triggered. Never publishes.
  static CycleResult train_and_gate(
      const RetrainConfig& config, std::uint64_t cycle,
      std::shared_ptr<const core::DictionaryHandle::Epoch> incumbent,
      const WindowSnapshot& window);
  /// Owner side of a cycle: promotes a certified candidate, then records
  /// the outcome (stats, lineage, pending reports, on_report).
  RetrainReport finish_cycle(CycleResult result);
  /// Rebinds the recorder when the active epoch's fingerprint layout no
  /// longer matches the capture filter.
  void maybe_rebind_layout();

  core::RecognitionService& service_;
  RetrainConfig config_;
  TrafficRecorder recorder_;

  bool timer_armed_ = false;
  std::chrono::steady_clock::time_point last_trigger_{};
  std::uint64_t captured_at_last_trigger_ = 0;

  RetrainStats stats_;
  std::vector<RetrainAttempt> lineage_;
  std::vector<RetrainReport> pending_reports_;
  /// The in-flight cycle; declared last so that it is destroyed (and its
  /// worker waited for) before the config the worker reads.
  std::future<CycleResult> cycle_;
};

}  // namespace efd::retrain

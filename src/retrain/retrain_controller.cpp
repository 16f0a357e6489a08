#include "retrain/retrain_controller.hpp"

#include <chrono>
#include <utility>

#include "core/trainer.hpp"
#include "util/thread_pool.hpp"
#include "util/binary_io.hpp"

namespace efd::retrain {

namespace {

/// EFD-RETRAIN-V1 blob version byte.
constexpr std::uint8_t kRetrainStateVersion = 1;
constexpr std::size_t kAttemptBytes = 8 + 1 + 8 + 8 + 8;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool valid_outcome(std::uint8_t byte) {
  return byte >= static_cast<std::uint8_t>(RetrainOutcome::kPromoted) &&
         byte <= static_cast<std::uint8_t>(RetrainOutcome::kDryRun);
}

}  // namespace

const char* retrain_outcome_name(RetrainOutcome outcome) {
  switch (outcome) {
    case RetrainOutcome::kPromoted: return "promoted";
    case RetrainOutcome::kGatedOut: return "gated-out";
    case RetrainOutcome::kAlreadyActive: return "already-active";
    case RetrainOutcome::kSkippedNoData: return "skipped-no-data";
    case RetrainOutcome::kFailed: return "failed";
    case RetrainOutcome::kDryRun: return "dry-run";
  }
  return "unknown";
}

RetrainController::RetrainController(core::RecognitionService& service,
                                     RetrainConfig config)
    : service_(service),
      config_(std::move(config)),
      recorder_(service.dictionary().config(), config_.recorder) {}

void RetrainController::join() {
  if (cycle_.valid()) finish_cycle(cycle_.get());
}

void RetrainController::maybe_rebind_layout() {
  const core::FingerprintConfig& live = service_.dictionary().config();
  const core::FingerprintConfig& captured = recorder_.layout();
  // A restore or manual swap-dict installed a different layout: the
  // captured window filters the wrong metrics/horizon and would train
  // every future candidate on systematically truncated data. Reset and
  // refill from live traffic instead of silently degrading.
  if (live.metrics != captured.metrics ||
      live.intervals != captured.intervals) {
    recorder_.rebind_layout(live);
  }
}

bool RetrainController::maybe_trigger(
    std::chrono::steady_clock::time_point now) {
  if (cycle_.valid()) {
    if (cycle_.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      return false;
    }
    join();
  }
  maybe_rebind_layout();

  if (!timer_armed_) {
    // The first interval is measured from the first poll, not from an
    // epoch-zero time point that would fire immediately at startup.
    last_trigger_ = now;
    timer_armed_ = true;
  }
  const std::uint64_t captured = recorder_.jobs_captured();
  const std::uint64_t fresh = captured - captured_at_last_trigger_;
  // Without at least one new captured job a cycle could only retrain the
  // exact window the previous cycle saw — wasted work at best, an
  // already-active churn loop at worst.
  if (fresh == 0) return false;

  const bool timer_due =
      config_.interval.count() > 0 && now - last_trigger_ >= config_.interval;
  const bool count_due =
      config_.min_new_jobs > 0 && fresh >= config_.min_new_jobs;
  if (!timer_due && !count_due) return false;

  last_trigger_ = now;
  captured_at_last_trigger_ = captured;
  // The worker's two inputs, taken here on the owner: the incumbent
  // pinned NOW (the gate compares against the epoch serving when the
  // cycle started, even if a manual swap-dict lands mid-train) and the
  // frozen window.
  cycle_ = std::async(std::launch::async, &RetrainController::train_and_gate,
                      std::cref(config_), ++stats_.cycles_triggered,
                      service_.dictionary_handle().acquire(),
                      recorder_.snapshot_window());
  return true;
}

RetrainReport RetrainController::run_cycle() {
  join();
  maybe_rebind_layout();
  captured_at_last_trigger_ = recorder_.jobs_captured();
  return finish_cycle(train_and_gate(
      config_, ++stats_.cycles_triggered,
      service_.dictionary_handle().acquire(), recorder_.snapshot_window()));
}

RetrainController::CycleResult RetrainController::train_and_gate(
    const RetrainConfig& config, std::uint64_t cycle,
    std::shared_ptr<const core::DictionaryHandle::Epoch> incumbent,
    const WindowSnapshot& window) {
  CycleResult result;
  RetrainReport& report = result.report;
  report.cycle = cycle;
  report.epoch = incumbent->version;
  report.window_jobs = window.size();
  try {
    const core::FingerprintConfig layout = incumbent->dictionary.config();
    WindowSlices slices = slice_window(window, layout, config.holdout_fraction);
    report.holdout_jobs = slices.holdout.size();
    if (slices.train.empty()) {
      report.outcome = RetrainOutcome::kSkippedNoData;
      report.detail = "window has no trainable slice";
      return result;
    }
    if (slices.holdout.size() < config.gate.min_holdout_jobs) {
      // The gate could never certify this cycle — skip BEFORE paying for
      // the training run, and report it as a data problem (skipped), not
      // a quality verdict (gated-out).
      report.outcome = RetrainOutcome::kSkippedNoData;
      report.detail = "holdout too small to certify (" +
                      std::to_string(slices.holdout.size()) + " < " +
                      std::to_string(config.gate.min_holdout_jobs) +
                      " jobs)";
      return result;
    }

    const auto train_start = std::chrono::steady_clock::now();
    core::Dictionary candidate = core::train_dictionary(
        slices.train, layout, {},
        config.pool != nullptr ? config.pool : &util::global_pool());
    report.train_seconds = seconds_since(train_start);

    if (config.after_train) config.after_train();

    const auto gate_start = std::chrono::steady_clock::now();
    const GateDecision decision = evaluate_gate(
        candidate, incumbent->dictionary, slices.holdout, config.gate);
    report.gate_seconds = seconds_since(gate_start);
    report.candidate_score = decision.candidate.score;
    report.incumbent_score = decision.incumbent.score;
    report.detail = decision.reason;

    if (!decision.promote) {
      report.outcome = RetrainOutcome::kGatedOut;
    } else if (config.dry_run) {
      report.outcome = RetrainOutcome::kDryRun;
      report.detail = "dry-run withheld promotion: " + decision.reason;
    } else {
      result.candidate = std::move(candidate);
    }
  } catch (const std::exception& error) {
    report.outcome = RetrainOutcome::kFailed;
    report.detail = error.what();
  }
  return result;
}

RetrainReport RetrainController::finish_cycle(CycleResult result) {
  RetrainReport& report = result.report;
  if (result.candidate) {
    try {
      const auto swap =
          service_.swap_dictionary(std::move(*result.candidate));
      report.epoch = swap.epoch;
      if (swap.already_active) {
        // The no-op guard doubles as double-promotion protection: an
        // at-least-once replay after a crash retrains the same window
        // and arrives here with a byte-identical candidate.
        report.outcome = RetrainOutcome::kAlreadyActive;
        report.detail = "candidate identical to the active dictionary";
      } else {
        report.outcome = RetrainOutcome::kPromoted;
      }
    } catch (const std::exception& error) {
      report.outcome = RetrainOutcome::kFailed;
      report.detail = error.what();
    }
  }
  switch (report.outcome) {
    case RetrainOutcome::kPromoted:
      ++stats_.cycles_trained;
      ++stats_.cycles_promoted;
      stats_.last_promoted_epoch = report.epoch;
      break;
    case RetrainOutcome::kGatedOut:
      ++stats_.cycles_trained;
      ++stats_.cycles_gated_out;
      break;
    case RetrainOutcome::kAlreadyActive:
      ++stats_.cycles_trained;
      ++stats_.cycles_already_active;
      break;
    case RetrainOutcome::kSkippedNoData:
      ++stats_.cycles_skipped_no_data;
      break;
    case RetrainOutcome::kFailed:
      ++stats_.cycles_failed;
      break;
    case RetrainOutcome::kDryRun:
      ++stats_.cycles_trained;
      ++stats_.cycles_dry_run;
      break;
  }
  stats_.last_cycle = report.cycle;
  stats_.last_candidate_score = report.candidate_score;
  stats_.last_incumbent_score = report.incumbent_score;

  lineage_.push_back({report.cycle, report.outcome, report.epoch,
                      report.candidate_score, report.incumbent_score});
  if (lineage_.size() > kMaxRetrainLineage) {
    lineage_.erase(lineage_.begin(),
                   lineage_.begin() +
                       static_cast<std::ptrdiff_t>(lineage_.size() -
                                                   kMaxRetrainLineage));
  }
  pending_reports_.push_back(report);
  if (config_.on_report) config_.on_report(report);
  return report;
}

std::vector<RetrainReport> RetrainController::drain_reports() {
  std::vector<RetrainReport> drained;
  drained.swap(pending_reports_);
  return drained;
}

std::vector<std::uint8_t> RetrainController::encode_state() const {
  std::vector<std::uint8_t> out;
  util::put_u8(out, kRetrainStateVersion);
  util::put_u64(out, stats_.cycles_triggered);
  util::put_u64(out, stats_.cycles_trained);
  util::put_u64(out, stats_.cycles_promoted);
  util::put_u64(out, stats_.cycles_gated_out);
  util::put_u64(out, stats_.cycles_already_active);
  util::put_u64(out, stats_.cycles_skipped_no_data);
  util::put_u64(out, stats_.cycles_failed);
  util::put_u64(out, stats_.cycles_dry_run);
  util::put_u64(out, stats_.last_cycle);
  util::put_u64(out, stats_.last_promoted_epoch);
  util::put_f64(out, stats_.last_candidate_score);
  util::put_f64(out, stats_.last_incumbent_score);
  util::put_u32(out, static_cast<std::uint32_t>(lineage_.size()));
  for (const RetrainAttempt& attempt : lineage_) {
    util::put_u64(out, attempt.cycle);
    util::put_u8(out, static_cast<std::uint8_t>(attempt.outcome));
    util::put_u64(out, attempt.epoch);
    util::put_f64(out, attempt.candidate_score);
    util::put_f64(out, attempt.incumbent_score);
  }
  return out;
}

bool RetrainController::restore_state(const std::vector<std::uint8_t>& blob) {
  if (blob.empty()) return true;  // snapshot predates the retrain loop
  util::ByteReader reader(blob.data(), blob.size());
  std::uint8_t version = 0;
  if (!reader.read_u8(version) || version != kRetrainStateVersion) {
    return false;
  }
  // Stage everything; the controller mutates only after the blob fully
  // validated (the snapshot decoder's all-or-nothing discipline).
  RetrainStats staged;
  if (!reader.read_u64(staged.cycles_triggered) ||
      !reader.read_u64(staged.cycles_trained) ||
      !reader.read_u64(staged.cycles_promoted) ||
      !reader.read_u64(staged.cycles_gated_out) ||
      !reader.read_u64(staged.cycles_already_active) ||
      !reader.read_u64(staged.cycles_skipped_no_data) ||
      !reader.read_u64(staged.cycles_failed) ||
      !reader.read_u64(staged.cycles_dry_run) ||
      !reader.read_u64(staged.last_cycle) ||
      !reader.read_u64(staged.last_promoted_epoch) ||
      !reader.read_f64(staged.last_candidate_score) ||
      !reader.read_f64(staged.last_incumbent_score)) {
    return false;
  }
  std::uint32_t count = 0;
  if (!reader.read_u32(count) ||
      static_cast<std::size_t>(count) * kAttemptBytes > reader.remaining() ||
      count > kMaxRetrainLineage) {
    return false;
  }
  std::vector<RetrainAttempt> staged_lineage;
  staged_lineage.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RetrainAttempt attempt;
    std::uint8_t outcome = 0;
    if (!reader.read_u64(attempt.cycle) || !reader.read_u8(outcome) ||
        !valid_outcome(outcome) || !reader.read_u64(attempt.epoch) ||
        !reader.read_f64(attempt.candidate_score) ||
        !reader.read_f64(attempt.incumbent_score)) {
      return false;
    }
    attempt.outcome = static_cast<RetrainOutcome>(outcome);
    staged_lineage.push_back(attempt);
  }
  if (reader.remaining() != 0) return false;

  stats_ = staged;
  lineage_ = std::move(staged_lineage);
  return true;
}

}  // namespace efd::retrain

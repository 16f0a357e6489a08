#pragma once
/// \file validation_gate.hpp
/// \brief The certification step of the closed retraining loop: never
/// publish a candidate dictionary without a quantitative check that it
/// serves the current workload at least as well as the incumbent.
///
/// The gate replays a held-out slice of the captured traffic window
/// (the newest jobs per application — where drift shows first) through
/// BOTH dictionaries with the offline Matcher and scores each:
///
///   accuracy  fraction of holdout jobs whose prediction matches the
///             label they were captured under
///   coverage  mean fraction of a job's fingerprints found in the
///             dictionary (the early-warning signal: under drift,
///             coverage decays before accuracy does)
///   score     (1 - coverage_weight) * accuracy
///             + coverage_weight * coverage
///
/// The candidate is promoted only when its score clears the incumbent's
/// by the configured margin. A margin > 0 demands a measurable win
/// (steady-state retrains that merely tie the incumbent are rejected —
/// an epoch bump with no benefit still resets observability); margin 0
/// promotes on any non-regression. Echoes the certification idea of
/// *Certifying clusters from sum-of-norms clustering*: the check is on
/// the published artifact, not on the training procedure.

#include <cstddef>
#include <string>

#include "core/dictionary.hpp"
#include "telemetry/dataset.hpp"

namespace efd::retrain {

struct ValidationGateConfig {
  /// candidate.score must be >= incumbent.score + margin to promote.
  double margin = 0.0;
  /// Weight of coverage in the combined score (accuracy gets the rest).
  double coverage_weight = 0.3;
  /// Gate refuses to certify (rejects) on fewer holdout jobs than this.
  std::size_t min_holdout_jobs = 1;
};

/// One dictionary's replay score over the holdout slice.
struct GateScore {
  double accuracy = 0.0;
  double coverage = 0.0;
  double score = 0.0;
  std::size_t jobs = 0;
};

struct GateDecision {
  bool promote = false;
  std::string reason;  ///< human-readable, one line
  GateScore candidate;
  GateScore incumbent;
};

/// Replays \p holdout through one dictionary. Records carry the labels
/// they were captured under; prediction is scored at the application
/// level (the paper's scoring).
GateScore score_dictionary(const core::Dictionary& dictionary,
                           const telemetry::Dataset& holdout);

/// Scores candidate and incumbent and applies the margin rule.
GateDecision evaluate_gate(const core::Dictionary& candidate,
                           const core::Dictionary& incumbent,
                           const telemetry::Dataset& holdout,
                           const ValidationGateConfig& config);

}  // namespace efd::retrain

#include "retrain/validation_gate.hpp"

#include <algorithm>
#include <sstream>

#include "core/matcher.hpp"
#include "util/string_utils.hpp"

namespace efd::retrain {

GateScore score_dictionary(const core::Dictionary& dictionary,
                           const telemetry::Dataset& holdout) {
  GateScore score;
  score.jobs = holdout.size();
  if (holdout.empty()) return score;

  const core::Matcher matcher(dictionary);
  std::size_t correct = 0;
  double coverage_sum = 0.0;
  for (const telemetry::ExecutionRecord& record : holdout.records()) {
    const core::RecognitionResult result = matcher.recognize(record, holdout);
    if (result.prediction() == record.label().application) ++correct;
    if (result.fingerprint_count > 0) {
      coverage_sum += static_cast<double>(result.matched_count) /
                      static_cast<double>(result.fingerprint_count);
    }
  }
  score.accuracy =
      static_cast<double>(correct) / static_cast<double>(holdout.size());
  score.coverage = coverage_sum / static_cast<double>(holdout.size());
  return score;
}

GateDecision evaluate_gate(const core::Dictionary& candidate,
                           const core::Dictionary& incumbent,
                           const telemetry::Dataset& holdout,
                           const ValidationGateConfig& config) {
  GateDecision decision;
  decision.candidate = score_dictionary(candidate, holdout);
  decision.incumbent = score_dictionary(incumbent, holdout);

  const double weight = std::clamp(config.coverage_weight, 0.0, 1.0);
  const auto combine = [weight](GateScore& score) {
    score.score =
        (1.0 - weight) * score.accuracy + weight * score.coverage;
  };
  combine(decision.candidate);
  combine(decision.incumbent);

  std::ostringstream reason;
  if (holdout.size() < config.min_holdout_jobs) {
    decision.promote = false;
    reason << "holdout too small (" << holdout.size() << " < "
           << config.min_holdout_jobs << " jobs)";
  } else if (decision.candidate.score >=
             decision.incumbent.score + config.margin) {
    decision.promote = true;
    reason << "candidate " << util::format_fixed(decision.candidate.score, 4)
           << " >= incumbent "
           << util::format_fixed(decision.incumbent.score, 4) << " + margin "
           << util::format_fixed(config.margin, 4);
  } else {
    decision.promote = false;
    reason << "candidate " << util::format_fixed(decision.candidate.score, 4)
           << " below incumbent "
           << util::format_fixed(decision.incumbent.score, 4) << " + margin "
           << util::format_fixed(config.margin, 4);
  }
  decision.reason = std::move(reason).str();
  return decision;
}

}  // namespace efd::retrain

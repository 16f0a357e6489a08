#pragma once
/// \file matcher.hpp
/// \brief The testing phase: looks up an unlabeled execution's fingerprints
/// and votes — the paper's Figure 1 steps (2) and (3).
///
/// A published dictionary is probed through its compiled DictionaryIndex;
/// one that was never compiled (an offline or freshly trained dictionary)
/// is probed through Dictionary::lookup by pointer. Both tally votes with
/// the same RecognitionScratch::score_entry_ids, so they agree exactly.

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/dictionary.hpp"
#include "telemetry/dataset.hpp"

namespace efd::util {
class ThreadPool;
}

namespace efd::core {

class RecognitionScratch;
struct IdRecognitionResult;

/// Label returned for executions with no matching fingerprints — the
/// paper's in-built safeguard against unknown applications.
inline const std::string kUnknownApplication = "unknown";

/// Outcome of recognizing one execution.
struct RecognitionResult {
  /// True if at least one fingerprint matched a dictionary key.
  bool recognized = false;

  /// Application names with the maximum vote count, in dictionary
  /// first-seen order. Size > 1 means the EFD "cannot distinguish between
  /// them and will return an array of these application names" (the paper
  /// scores the first element).
  std::vector<std::string> applications;

  /// Votes per application name (one vote per matched node fingerprint
  /// containing that application).
  std::map<std::string, int> votes;

  /// Votes per full label ("sp_X"). Enables input-size identification on
  /// top of application recognition: executions have "two identifying
  /// dimensions: application name and input size" (Section 4).
  std::map<std::string, int> label_votes;

  /// Full labels ("sp_X") present in the matched entries, first-seen order.
  std::vector<std::string> matched_labels;

  std::size_t fingerprint_count = 0;  ///< fingerprints built for the execution
  std::size_t matched_count = 0;      ///< fingerprints found in the dictionary

  /// The label the evaluation scores: first tied application, or
  /// kUnknownApplication when nothing matched. Defensive: a recognized
  /// result with an (invalid) empty tie array also reports unknown
  /// instead of dereferencing an empty vector.
  const std::string& prediction() const {
    return recognized && !applications.empty() ? applications.front()
                                               : kUnknownApplication;
  }

  /// Most-voted full label ("sp_X") among labels of the winning
  /// application; kUnknownApplication when nothing matched. Ties resolve
  /// to the earliest matched label.
  std::string label_prediction() const;
};

/// Recognizes executions against a dictionary. Stateless; cheap to copy;
/// safe to share across threads over a dictionary nobody mutates (every
/// published epoch).
class Matcher {
 public:
  /// \param dictionary borrowed; must outlive the matcher.
  explicit Matcher(const Dictionary& dictionary)
      : dictionary_(&dictionary) {}

  /// Builds the execution's fingerprints with the dictionary's own config
  /// (guaranteeing identical rounding) and tallies votes.
  RecognitionResult recognize(const telemetry::ExecutionRecord& record,
                              const telemetry::Dataset& dataset) const;

  /// Variant with pre-resolved metric slots (hot path for sweeps).
  RecognitionResult recognize(const telemetry::ExecutionRecord& record,
                              const std::vector<std::size_t>& metric_slots) const;

  /// Tallies votes over already-built fingerprints (online path).
  RecognitionResult recognize_keys(const std::vector<FingerprintKey>& keys) const;

  /// Allocation-free scoring into a worker-local scratch: votes are
  /// tallied in interned-id space (recognition_scratch.hpp) and read via
  /// scratch.result(), or rendered to a RecognitionResult with
  /// scratch.render_result(). Probes the dictionary's compiled index when
  /// it has one, else Dictionary::lookup(); both yield the same votes.
  void recognize_keys_into(std::span<const FingerprintKey> keys,
                           RecognitionScratch& scratch) const;

  /// Builds fingerprints into the scratch arena (SoA rounding lanes) and
  /// scores them — the zero-allocation form of recognize().
  void recognize_into(const telemetry::ExecutionRecord& record,
                      const std::vector<std::size_t>& metric_slots,
                      RecognitionScratch& scratch) const;

  /// Recognizes a batch of executions, fanning the records out across a
  /// thread pool (the global pool when \p pool is null). Results align
  /// with \p records and are identical to calling recognize() per record.
  /// Must be called from outside the pool's own workers.
  std::vector<RecognitionResult> recognize_batch(
      std::span<const telemetry::ExecutionRecord> records,
      const std::vector<std::size_t>& metric_slots,
      util::ThreadPool* pool = nullptr) const;

  /// Convenience batch over every record of a dataset.
  std::vector<RecognitionResult> recognize_batch(
      const telemetry::Dataset& dataset, util::ThreadPool* pool = nullptr) const;

 private:
  /// Slot index per configured metric, resolved against a dataset.
  std::vector<std::size_t> resolve_metric_slots(
      const telemetry::Dataset& dataset) const;

  /// String-keyed scoring behind recognize_keys: the reference the
  /// id-space path is checked against.
  RecognitionResult recognize_key_span(
      std::span<const FingerprintKey> keys) const;

  const Dictionary* dictionary_;
};

}  // namespace efd::core

#pragma once
/// \file recognizer.hpp
/// \brief High-level facade: configure once, train, recognize — the
/// public entry point most library users want (see examples/quickstart).

#include <optional>
#include <string>
#include <vector>

#include "core/depth_selector.hpp"
#include "core/dictionary.hpp"
#include "core/matcher.hpp"
#include "core/trainer.hpp"
#include "telemetry/dataset.hpp"

namespace efd::core {

/// End-user configuration of the recognizer.
struct RecognizerConfig {
  /// Metrics to fingerprint; the paper's headline configuration is the
  /// single metric "nr_mapped_vmstat".
  std::vector<std::string> metrics{"nr_mapped_vmstat"};

  /// Fingerprint windows (paper: {[60,120)}).
  std::vector<telemetry::Interval> intervals{telemetry::kPaperInterval};

  /// Fixed rounding depth; ignored when auto_depth is set.
  int rounding_depth = 2;

  /// Select the depth by inner cross-validation on the training set (the
  /// paper's procedure). Falls back to rounding_depth if selection is
  /// impossible (e.g. too few training executions for the inner folds).
  bool auto_depth = true;
  DepthSelectionConfig depth_selection{};

  /// Combinatorial multi-metric fingerprints (paper Section 6).
  bool combine_metrics = false;
};

/// Trainable application recognizer.
class Recognizer {
 public:
  explicit Recognizer(RecognizerConfig config = {});

  /// Learns a dictionary from the given records (empty = all). Performs
  /// depth selection first when configured.
  void train(const telemetry::Dataset& dataset,
             const std::vector<std::size_t>& train_indices = {});

  /// Like train(), but builds fingerprints in parallel across \p pool
  /// (the global pool when null); see train_dictionary. The resulting
  /// dictionary is byte-identical to the one train() produces. Call from
  /// outside pool workers only.
  void train_parallel(const telemetry::Dataset& dataset,
                      const std::vector<std::size_t>& train_indices = {},
                      util::ThreadPool* pool = nullptr);

  /// Recognizes one execution. Requires train() first.
  RecognitionResult recognize(const telemetry::Dataset& dataset,
                              const telemetry::ExecutionRecord& record) const;

  /// Recognizes every record of \p dataset, fanned out across a thread
  /// pool (global pool when null). Results align with dataset records.
  std::vector<RecognitionResult> recognize_batch(
      const telemetry::Dataset& dataset,
      util::ThreadPool* pool = nullptr) const;

  /// Adds one labeled execution to an already-trained dictionary —
  /// "learning new applications is as simple as adding new keys"
  /// (paper Section 6).
  void learn_execution(const telemetry::Dataset& dataset,
                       const telemetry::ExecutionRecord& record);

  bool trained() const noexcept { return dictionary_.has_value(); }
  const Dictionary& dictionary() const;

  /// Depth actually in use (after auto selection).
  int rounding_depth() const;

  /// Inner-CV scores from the last auto selection (empty if fixed depth).
  const std::map<int, double>& depth_scores() const noexcept {
    return depth_scores_;
  }

  /// Persistence.
  void save(const std::string& path) const;
  static Recognizer load(const std::string& path);

 private:
  FingerprintConfig fingerprint_config() const;
  void select_depth(const telemetry::Dataset& dataset,
                    const std::vector<std::size_t>& train_indices);

  RecognizerConfig config_;
  std::optional<Dictionary> dictionary_;
  std::map<int, double> depth_scores_;
  int selected_depth_ = 0;
};

}  // namespace efd::core

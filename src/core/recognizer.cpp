#include "core/recognizer.hpp"

#include <stdexcept>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace efd::core {

Recognizer::Recognizer(RecognizerConfig config)
    : config_(std::move(config)), selected_depth_(config_.rounding_depth) {}

FingerprintConfig Recognizer::fingerprint_config() const {
  FingerprintConfig fp;
  fp.metrics = config_.metrics;
  fp.intervals = config_.intervals;
  fp.rounding_depth = selected_depth_;
  fp.combine_metrics = config_.combine_metrics;
  return fp;
}

void Recognizer::train(const telemetry::Dataset& dataset,
                       const std::vector<std::size_t>& train_indices) {
  select_depth(dataset, train_indices);
  dictionary_ = train_dictionary(dataset, fingerprint_config(), train_indices);
}

void Recognizer::train_parallel(const telemetry::Dataset& dataset,
                                const std::vector<std::size_t>& train_indices,
                                util::ThreadPool* pool) {
  select_depth(dataset, train_indices);
  dictionary_ = train_dictionary(dataset, fingerprint_config(), train_indices,
                                 pool != nullptr ? pool : &util::global_pool());
}

void Recognizer::select_depth(const telemetry::Dataset& dataset,
                              const std::vector<std::size_t>& train_indices) {
  selected_depth_ = config_.rounding_depth;
  depth_scores_.clear();

  if (config_.auto_depth) {
    const std::size_t train_count =
        train_indices.empty() ? dataset.size() : train_indices.size();
    if (train_count >= config_.depth_selection.folds * 2) {
      FingerprintConfig base = fingerprint_config();
      const DepthSelectionResult selection = select_rounding_depth(
          dataset, base, train_indices, config_.depth_selection);
      selected_depth_ = selection.best_depth;
      depth_scores_ = selection.f_score_by_depth;
    } else {
      EFD_LOG(kWarn, "recognizer")
          << "too few executions for depth selection; using fixed depth "
          << selected_depth_;
    }
  }
}

RecognitionResult Recognizer::recognize(
    const telemetry::Dataset& dataset,
    const telemetry::ExecutionRecord& record) const {
  if (!dictionary_) throw std::logic_error("Recognizer not trained");
  return Matcher(*dictionary_).recognize(record, dataset);
}

void Recognizer::learn_execution(const telemetry::Dataset& dataset,
                                 const telemetry::ExecutionRecord& record) {
  if (!dictionary_) throw std::logic_error("Recognizer not trained");
  const std::string label = record.label().full();
  for (const FingerprintKey& key :
       build_fingerprints(record, dictionary_->config(), dataset)) {
    dictionary_->insert(key, label);
  }
}

std::vector<RecognitionResult> Recognizer::recognize_batch(
    const telemetry::Dataset& dataset, util::ThreadPool* pool) const {
  if (!dictionary_) throw std::logic_error("Recognizer not trained");
  return Matcher(*dictionary_).recognize_batch(dataset, pool);
}

const Dictionary& Recognizer::dictionary() const {
  if (!dictionary_) throw std::logic_error("Recognizer not trained");
  return *dictionary_;
}

int Recognizer::rounding_depth() const { return selected_depth_; }

void Recognizer::save(const std::string& path) const {
  if (!dictionary_) throw std::logic_error("Recognizer not trained");
  dictionary_->save_file(path);
}

Recognizer Recognizer::load(const std::string& path) {
  Dictionary dictionary = Dictionary::load_file(path);
  RecognizerConfig config;
  config.metrics = dictionary.config().metrics;
  config.intervals = dictionary.config().intervals;
  config.rounding_depth = dictionary.config().rounding_depth;
  config.auto_depth = false;  // depth is baked into the loaded dictionary
  config.combine_metrics = dictionary.config().combine_metrics;

  Recognizer recognizer(config);
  recognizer.selected_depth_ = config.rounding_depth;
  recognizer.dictionary_ = std::move(dictionary);
  return recognizer;
}

}  // namespace efd::core

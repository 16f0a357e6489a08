/// \file test_extensions.cpp
/// \brief Tests for the library extensions beyond the paper's minimal
/// scope: label-level (input size) prediction and recognition over
/// downsampled telemetry.

#include <gtest/gtest.h>

#include "core/matcher.hpp"
#include "core/recognizer.hpp"
#include "core/trainer.hpp"
#include "sim/dataset_generator.hpp"
#include "telemetry/resample.hpp"

namespace {

using namespace efd;
using namespace efd::core;

telemetry::Dataset make_dataset(std::size_t repetitions = 5) {
  sim::GeneratorConfig config;
  config.seed = 42;
  config.small_repetitions = repetitions;
  config.include_large_input = false;
  config.metrics = {"nr_mapped_vmstat"};
  return sim::generate_paper_dataset(config);
}

FingerprintConfig fp_config(int depth = 3) {
  FingerprintConfig fp;
  fp.metrics = {"nr_mapped_vmstat"};
  fp.rounding_depth = depth;
  return fp;
}

// --- Label-level prediction (input-size identification) ---

TEST(LabelPrediction, InputSensitiveAppIdentifiesItsInput) {
  // miniAMR's nr_mapped levels differ per input, so the exact label is
  // recoverable.
  const auto dataset = make_dataset();
  const Dictionary dictionary = train_dictionary(dataset, fp_config());
  const Matcher matcher(dictionary);

  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto& record = dataset.record(i);
    if (record.label().application != "miniAMR") continue;
    const auto result = matcher.recognize(record, dataset);
    ASSERT_TRUE(result.recognized);
    EXPECT_EQ(result.label_prediction(), record.label().full());
  }
}

TEST(LabelPrediction, InvariantAppStillNamesItsApplication) {
  // ft's fingerprints repeat across inputs: the exact input is ambiguous
  // but the predicted label must still belong to ft.
  const auto dataset = make_dataset();
  const Dictionary dictionary = train_dictionary(dataset, fp_config());
  const Matcher matcher(dictionary);

  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto& record = dataset.record(i);
    if (record.label().application != "ft") continue;
    const auto result = matcher.recognize(record, dataset);
    const auto parsed = telemetry::parse_label(result.label_prediction());
    EXPECT_EQ(parsed.application, "ft");
  }
}

TEST(LabelPrediction, UnknownWhenNothingMatched) {
  const auto dataset = make_dataset(3);
  const Dictionary dictionary = train_dictionary(dataset, fp_config());

  RecognitionResult empty = Matcher(dictionary).recognize_keys({});
  EXPECT_EQ(empty.label_prediction(), kUnknownApplication);
}

TEST(LabelPrediction, LabelVotesArePerFingerprint) {
  const auto dataset = make_dataset(3);
  const Dictionary dictionary = train_dictionary(dataset, fp_config());
  const Matcher matcher(dictionary);
  const auto result = matcher.recognize(dataset.record(0), dataset);
  ASSERT_TRUE(result.recognized);
  // Each of the 4 node fingerprints can vote each label at most once.
  for (const auto& [label, votes] : result.label_votes) {
    EXPECT_LE(votes, 4) << label;
    EXPECT_GE(votes, 1) << label;
  }
}

// --- Recognition over downsampled telemetry ---

TEST(DownsampledRecognition, SurvivesCoarserCadence) {
  const auto dataset = make_dataset();
  const telemetry::Dataset coarse = telemetry::downsample(dataset, 5);

  Recognizer recognizer;
  recognizer.train(coarse);

  std::size_t correct = 0;
  for (const auto& record : coarse.records()) {
    correct += recognizer.recognize(coarse, record).prediction() ==
                       record.label().application
                   ? 1
                   : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(coarse.size()),
            0.95);
}

TEST(DownsampledRecognition, MixedCadenceStillMatches) {
  // Train at 1 Hz, recognize a record downsampled to 5 s: because the
  // fingerprint is the window mean, the keys agree.
  const auto dataset = make_dataset();
  const Dictionary dictionary = train_dictionary(dataset, fp_config());
  const Matcher matcher(dictionary);

  const auto coarse_record = telemetry::downsample(dataset.record(0), 5);
  const auto result = matcher.recognize(coarse_record, dataset);
  EXPECT_EQ(result.prediction(), dataset.record(0).label().application);
}

}  // namespace

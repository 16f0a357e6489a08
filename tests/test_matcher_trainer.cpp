/// \file test_matcher_trainer.cpp
/// \brief Tests for the learning and testing phases on hand-built
/// telemetry where the correct dictionary and votes are known exactly —
/// including the paper's tie semantics (SP before BT) — plus parity of
/// pooled training and batch recognition with their sequential forms.

#include <gtest/gtest.h>

#include <sstream>

#include "core/matcher.hpp"
#include "core/trainer.hpp"
#include "sim/dataset_generator.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace efd;
using namespace efd::core;

/// A dataset where each application has a constant, designed level.
class MatcherFixture : public ::testing::Test {
 protected:
  MatcherFixture() : dataset_({"nr_mapped_vmstat"}) {
    // Mirrors Table 4's structure: sp/bt collide at depth 2, others are
    // exclusive. Two executions per app for repetition counts.
    std::uint64_t id = 0;
    for (int repeat = 0; repeat < 2; ++repeat) {
      add_execution(++id, "ft", "X", 6013.0);
      add_execution(++id, "mg", "X", 6087.0);
      add_execution(++id, "sp", "X", 7540.0);  // depth2 -> 7500
      add_execution(++id, "bt", "X", 7460.0);  // depth2 -> 7500 (collides)
    }
  }

  void add_execution(std::uint64_t id, const std::string& app,
                     const std::string& input, double level,
                     std::size_t nodes = 2) {
    telemetry::ExecutionRecord record(id, {app, input}, nodes, 1);
    for (std::size_t n = 0; n < nodes; ++n) {
      for (int t = 0; t < 150; ++t) record.series(n, 0).push_back(level);
    }
    dataset_.add(std::move(record));
  }

  telemetry::ExecutionRecord probe(const std::string& app, double level,
                                   std::size_t nodes = 2) const {
    telemetry::ExecutionRecord record(999, {app, "X"}, nodes, 1);
    for (std::size_t n = 0; n < nodes; ++n) {
      for (int t = 0; t < 150; ++t) record.series(n, 0).push_back(level);
    }
    return record;
  }

  FingerprintConfig config(int depth) const {
    FingerprintConfig fp;
    fp.metrics = {"nr_mapped_vmstat"};
    fp.rounding_depth = depth;
    return fp;
  }

  telemetry::Dataset dataset_;
};

TEST_F(MatcherFixture, TrainBuildsExpectedKeys) {
  const Dictionary dictionary = train_dictionary(dataset_, config(2));
  // Levels collapse to 6000 (ft), 6100 (mg), 7500 (sp+bt) on 2 nodes each.
  EXPECT_EQ(dictionary.size(), 3u * 2);
  const auto stats = dictionary.stats();
  EXPECT_EQ(stats.exclusive_keys, 4u);
  EXPECT_EQ(stats.colliding_keys, 2u);
}

TEST_F(MatcherFixture, TrainOnSubsetOnly) {
  // Train only on ft executions (indices 0 and 4).
  const Dictionary dictionary = train_dictionary(dataset_, config(2), {0, 4});
  EXPECT_EQ(dictionary.size(), 2u);  // ft's two node keys
  EXPECT_EQ(dictionary.stats().total_observations, 4u);
}

TEST_F(MatcherFixture, RecognizesExclusiveApplication) {
  const Dictionary dictionary = train_dictionary(dataset_, config(2));
  const Matcher matcher(dictionary);
  const auto result = matcher.recognize(probe("?", 6020.0), dataset_);

  EXPECT_TRUE(result.recognized);
  EXPECT_EQ(result.prediction(), "ft");
  EXPECT_EQ(result.applications.size(), 1u);
  EXPECT_EQ(result.matched_count, 2u);      // both node fingerprints hit
  EXPECT_EQ(result.fingerprint_count, 2u);
  EXPECT_EQ(result.votes.at("ft"), 2);
}

TEST_F(MatcherFixture, UnknownWhenNothingMatches) {
  const Dictionary dictionary = train_dictionary(dataset_, config(2));
  const Matcher matcher(dictionary);
  const auto result = matcher.recognize(probe("?", 999999.0), dataset_);

  EXPECT_FALSE(result.recognized);
  EXPECT_EQ(result.prediction(), kUnknownApplication);
  EXPECT_TRUE(result.applications.empty());
  EXPECT_EQ(result.matched_count, 0u);
}

TEST_F(MatcherFixture, TieReturnsArrayInFirstSeenOrder) {
  const Dictionary dictionary = train_dictionary(dataset_, config(2));
  const Matcher matcher(dictionary);
  // 7490 rounds to 7500 at depth 2: the sp/bt shared bucket.
  const auto result = matcher.recognize(probe("?", 7490.0), dataset_);

  EXPECT_TRUE(result.recognized);
  ASSERT_EQ(result.applications.size(), 2u);
  // sp was trained before bt, so the paper's evaluation scores sp.
  EXPECT_EQ(result.applications[0], "sp");
  EXPECT_EQ(result.applications[1], "bt");
  EXPECT_EQ(result.prediction(), "sp");
  EXPECT_EQ(result.votes.at("sp"), result.votes.at("bt"));
}

TEST_F(MatcherFixture, Depth3ResolvesTheTie) {
  const Dictionary dictionary = train_dictionary(dataset_, config(3));
  const Matcher matcher(dictionary);
  // At depth 3, 7460 keeps bt's own bucket.
  const auto result = matcher.recognize(probe("?", 7461.0), dataset_);
  EXPECT_EQ(result.prediction(), "bt");
  EXPECT_EQ(result.applications.size(), 1u);
}

TEST_F(MatcherFixture, MatchedLabelsListFullLabels) {
  const Dictionary dictionary = train_dictionary(dataset_, config(2));
  const Matcher matcher(dictionary);
  const auto result = matcher.recognize(probe("?", 7510.0), dataset_);
  // The shared bucket carries both sp_X and bt_X.
  EXPECT_EQ(result.matched_labels,
            (std::vector<std::string>{"sp_X", "bt_X"}));
}

TEST_F(MatcherFixture, MajorityVoteAcrossNodes) {
  // Train an app whose node levels differ (node asymmetry), then probe
  // with one matching node and one unmatched node: the matching node's
  // vote decides.
  telemetry::Dataset dataset({"nr_mapped_vmstat"});
  telemetry::ExecutionRecord train_record(1, {"lu", "X"}, 2, 1);
  for (int t = 0; t < 150; ++t) {
    train_record.series(0, 0).push_back(8400.0);
    train_record.series(1, 0).push_back(8300.0);
  }
  dataset.add(train_record);

  const Dictionary dictionary = train_dictionary(dataset, config(3));
  const Matcher matcher(dictionary);

  telemetry::ExecutionRecord test_record(2, {"lu", "X"}, 2, 1);
  for (int t = 0; t < 150; ++t) {
    test_record.series(0, 0).push_back(8400.0);   // matches
    test_record.series(1, 0).push_back(5555.0);   // novel
  }
  const auto result = matcher.recognize(test_record, dataset);
  EXPECT_EQ(result.prediction(), "lu");
  EXPECT_EQ(result.matched_count, 1u);
  EXPECT_EQ(result.fingerprint_count, 2u);
}

TEST_F(MatcherFixture, RecognizeKeysDirectly) {
  const Dictionary dictionary = train_dictionary(dataset_, config(2));
  const Matcher matcher(dictionary);

  FingerprintKey key;
  key.metric = "nr_mapped_vmstat";
  key.node_id = 0;
  key.interval = telemetry::kPaperInterval;
  key.rounded_means = {6100.0};
  const auto result = matcher.recognize_keys({key});
  EXPECT_EQ(result.prediction(), "mg");
}

TEST_F(MatcherFixture, EmptyKeyListIsUnknown) {
  const Dictionary dictionary = train_dictionary(dataset_, config(2));
  const Matcher matcher(dictionary);
  const auto result = matcher.recognize_keys({});
  EXPECT_FALSE(result.recognized);
  EXPECT_EQ(result.prediction(), kUnknownApplication);
}

TEST_F(MatcherFixture, VotesCountNamesNotLabels) {
  // An entry containing ft_X and ft_Y must yield ONE ft vote per
  // fingerprint, not two.
  telemetry::Dataset dataset({"nr_mapped_vmstat"});
  telemetry::ExecutionRecord x(1, {"ft", "X"}, 1, 1);
  telemetry::ExecutionRecord y(2, {"ft", "Y"}, 1, 1);
  for (int t = 0; t < 150; ++t) {
    x.series(0, 0).push_back(6000.0);
    y.series(0, 0).push_back(6000.0);
  }
  dataset.add(x);
  dataset.add(y);

  const Dictionary dictionary = train_dictionary(dataset, config(2));
  const Matcher matcher(dictionary);
  telemetry::ExecutionRecord t(3, {"ft", "Z"}, 1, 1);
  for (int i = 0; i < 150; ++i) t.series(0, 0).push_back(6000.0);
  const auto result = matcher.recognize(t, dataset);
  EXPECT_EQ(result.votes.at("ft"), 1);
}

TEST(Trainer, EmptyConfigMetricsYieldEmptyDictionary) {
  telemetry::Dataset dataset({"m"});
  telemetry::ExecutionRecord record(1, {"ft", "X"}, 1, 1);
  for (int t = 0; t < 150; ++t) record.series(0, 0).push_back(1.0);
  dataset.add(record);

  FingerprintConfig config;  // no metrics configured
  const Dictionary dictionary = train_dictionary(dataset, config);
  EXPECT_TRUE(dictionary.empty());
}

TEST(Trainer, UnknownMetricThrows) {
  telemetry::Dataset dataset({"m"});
  FingerprintConfig config;
  config.metrics = {"missing"};
  EXPECT_THROW(train_dictionary(dataset, config), std::out_of_range);
}

/// Small generated dataset shared by the parity tests below.
telemetry::Dataset small_dataset() {
  sim::GeneratorConfig config;
  config.seed = 7;
  config.small_repetitions = 2;
  config.include_large_input = false;
  config.metrics = {"nr_mapped_vmstat"};
  return sim::generate_paper_dataset(config);
}

FingerprintConfig depth2() {
  FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

std::string saved(const Dictionary& dictionary) {
  std::ostringstream out;
  dictionary.save(out);
  return std::move(out).str();
}

TEST(Trainer, PooledTrainingIsByteIdenticalToSequential) {
  const telemetry::Dataset dataset = small_dataset();
  const Dictionary sequential = train_dictionary(dataset, depth2());
  for (std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    const Dictionary pooled = train_dictionary(dataset, depth2(), {}, &pool);
    EXPECT_EQ(saved(pooled), saved(sequential)) << threads << " threads";
    EXPECT_EQ(pooled.applications_in_order(),
              sequential.applications_in_order())
        << threads << " threads";
  }
}

TEST(Trainer, PooledTrainingPredictionsIdenticalToSequential) {
  // Tie arrays and label-level votes included, not just the winner.
  const telemetry::Dataset dataset = small_dataset();
  const Dictionary sequential = train_dictionary(dataset, depth2());
  util::ThreadPool pool(4);
  const Dictionary pooled = train_dictionary(dataset, depth2(), {}, &pool);

  const Matcher a(sequential);
  const Matcher b(pooled);
  for (const auto& record : dataset.records()) {
    const RecognitionResult lhs = a.recognize(record, dataset);
    const RecognitionResult rhs = b.recognize(record, dataset);
    EXPECT_EQ(lhs.prediction(), rhs.prediction());
    EXPECT_EQ(lhs.applications, rhs.applications);
    EXPECT_EQ(lhs.votes, rhs.votes);
    EXPECT_EQ(lhs.label_votes, rhs.label_votes);
    EXPECT_EQ(lhs.matched_labels, rhs.matched_labels);
    EXPECT_EQ(lhs.matched_count, rhs.matched_count);
  }
}

TEST(Trainer, PooledTrainingRespectsTrainingIndices) {
  const telemetry::Dataset dataset = small_dataset();
  std::vector<std::size_t> half;
  for (std::size_t i = 0; i < dataset.size(); i += 2) half.push_back(i);

  const Dictionary sequential = train_dictionary(dataset, depth2(), half);
  util::ThreadPool pool(2);
  const Dictionary pooled = train_dictionary(dataset, depth2(), half, &pool);
  EXPECT_EQ(saved(pooled), saved(sequential));
  EXPECT_LT(sequential.size(), train_dictionary(dataset, depth2()).size());
}

TEST(Matcher, RecognizeBatchMatchesPerRecordRecognition) {
  const telemetry::Dataset dataset = small_dataset();
  const Dictionary dictionary = train_dictionary(dataset, depth2());
  const Matcher matcher(dictionary);

  util::ThreadPool pool(4);
  const std::vector<RecognitionResult> batch =
      matcher.recognize_batch(dataset, &pool);
  ASSERT_EQ(batch.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const RecognitionResult single =
        matcher.recognize(dataset.record(i), dataset);
    EXPECT_EQ(batch[i].prediction(), single.prediction());
    EXPECT_EQ(batch[i].applications, single.applications);
    EXPECT_EQ(batch[i].votes, single.votes);
  }
}

TEST(RecognitionResult, PredictionSafeWhenApplicationsEmpty) {
  // A (mis)constructed result flagged recognized with an empty tie array
  // must not dereference an empty vector.
  RecognitionResult result;
  result.recognized = true;
  EXPECT_EQ(result.prediction(), kUnknownApplication);
  EXPECT_EQ(result.label_prediction(), kUnknownApplication);
}

}  // namespace

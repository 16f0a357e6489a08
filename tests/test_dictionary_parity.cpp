/// \file test_dictionary_parity.cpp
/// \brief EFD-DICT-V1 bytes pinned across rewrites of the dictionary's
/// storage: save() of a paper-trained dictionary and of a B1-shape one
/// (the same plus 10k decoy keys), save() after loading non-canonical
/// text (unsorted rows, a key split over two rows, a label repeated in a
/// row, leading-zero integers), and save() after merge, prune_rare and a
/// copy. Every expected value was recorded from the node-map dictionary
/// these bytes must never drift from.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dictionary.hpp"
#include "core/trainer.hpp"
#include "sim/dataset_generator.hpp"
#include "util/binary_io.hpp"

namespace {

using namespace efd;
using core::Dictionary;

std::string text_of(const Dictionary& dictionary) {
  std::string text;
  dictionary.save(text);
  return text;
}

std::uint32_t crc_of(const std::string& text) {
  return util::crc32(reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size());
}

telemetry::Dataset paper_dataset() {
  sim::GeneratorConfig generator;
  generator.seed = 42;
  generator.small_repetitions = 3;
  generator.large_repetitions = 1;
  generator.metrics = {"nr_mapped_vmstat"};
  return sim::generate_paper_dataset(generator);
}

core::FingerprintConfig paper_config(int depth = 2) {
  core::FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = depth;
  return config;
}

/// e2ebench's B1 recipe: 10k distinct depth-2 keys far beyond any
/// monitored value, all labelled decoy_D.
Dictionary with_decoys(Dictionary dictionary) {
  for (std::size_t k = 0; k < 10000; ++k) {
    core::FingerprintKey key;
    key.metric = "nr_mapped_vmstat";
    key.node_id = static_cast<std::uint32_t>(k % 32);
    key.interval = telemetry::kPaperInterval;
    key.rounded_means = {static_cast<double>(10 + k % 90) *
                         std::pow(10.0, 13 + static_cast<int>(k / 90))};
    dictionary.insert(key, "decoy_D");
  }
  return dictionary;
}

struct Pinned {
  std::size_t size;
  std::uint32_t crc;
};

void expect_pinned(const std::string& text, Pinned expected,
                   const char* what) {
  EXPECT_EQ(text.size(), expected.size) << what;
  EXPECT_EQ(crc_of(text), expected.crc)
      << what << ": crc 0x" << std::hex << crc_of(text);
}

class DictionaryParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new telemetry::Dataset(paper_dataset());
    trained_ = new Dictionary(core::train_dictionary(*dataset_, paper_config()));
  }
  static void TearDownTestSuite() {
    delete trained_;
    delete dataset_;
  }

  static telemetry::Dataset* dataset_;
  static Dictionary* trained_;
};

telemetry::Dataset* DictionaryParity::dataset_ = nullptr;
Dictionary* DictionaryParity::trained_ = nullptr;

constexpr Pinned kTrained{8517, 0x3a77c86a};
constexpr Pinned kB1{455649, 0x042b2971};
constexpr Pinned kMerged{7458, 0x0fff5d4e};
constexpr Pinned kPruned{2864, 0x9291f463};
constexpr std::size_t kPrunedKeys = 123;

TEST_F(DictionaryParity, PaperTrainedAndB1ShapeSaves) {
  const std::string trained = text_of(*trained_);
  expect_pinned(trained, kTrained, "paper-trained");
  const std::string b1 = text_of(with_decoys(*trained_));
  expect_pinned(b1, kB1, "B1 shape");
  // A load writes back exactly what it read.
  EXPECT_EQ(text_of(Dictionary::load(trained)), trained);
  EXPECT_EQ(text_of(Dictionary::load(b1)), b1);
}

TEST_F(DictionaryParity, MergePruneAndCopySaves) {
  std::vector<std::size_t> even;
  std::vector<std::size_t> odd;
  for (std::size_t i = 0; i < dataset_->size(); ++i) {
    (i % 2 == 0 ? even : odd).push_back(i);
  }
  // Depth 1 shares keys across applications, so the merge interleaves
  // label runs: odd records' labels first, then the even records' ones.
  Dictionary merged = core::train_dictionary(*dataset_, paper_config(1), odd);
  merged.merge(core::train_dictionary(*dataset_, paper_config(1), even));
  expect_pinned(text_of(merged), kMerged, "merge");

  Dictionary pruned = *trained_;
  EXPECT_EQ(pruned.prune_rare(3), kPrunedKeys);
  expect_pinned(text_of(pruned), kPruned, "prune_rare(3)");

  const Dictionary loaded = Dictionary::load(text_of(with_decoys(*trained_)));
  const Dictionary copy = loaded;
  expect_pinned(text_of(copy), kB1, "copy of a loaded B1");
  const Dictionary trained_copy = *trained_;
  expect_pinned(text_of(trained_copy), kTrained, "copy of the trained");
}

constexpr char kHeader[] =
    "EFD-DICT-V1\nmetrics m\nintervals 60:120\ndepth 2\ncombine 0\n";

TEST(DictionaryParityText, NonCanonicalInputsSaveCanonically) {
  const auto resaved = [](const std::string& text) {
    return text_of(Dictionary::load(text));
  };
  // Unsorted rows.
  EXPECT_EQ(resaved(std::string(kHeader) +
                    "keys 4\n"
                    "m|1|60:120|6000.0|ft_X=1\n"
                    "m|0|60:120|7000.0|mg_X=2\n"
                    "m|0|0:60|9000.0|lu_X=1\n"
                    "m|0|60:120|6000.0|sp_X=1,bt_X=3\n"),
            std::string(kHeader) +
                "keys 4\n"
                "m|0|0:60|9000.0|lu_X=1\n"
                "m|0|60:120|6000.0|sp_X=1,bt_X=3\n"
                "m|1|60:120|6000.0|ft_X=1\n"
                "m|0|60:120|7000.0|mg_X=2\n");
  // One key split over two rows: the labels merge in row order.
  EXPECT_EQ(resaved(std::string(kHeader) +
                    "keys 3\n"
                    "m|0|60:120|6000.0|ft_X=1,mg_X=2\n"
                    "m|0|60:120|7000.0|lu_X=1\n"
                    "m|0|60:120|6000.0|mg_X=1,sp_X=4\n"),
            std::string(kHeader) +
                "keys 2\n"
                "m|0|60:120|6000.0|ft_X=1,mg_X=3,sp_X=4\n"
                "m|0|60:120|7000.0|lu_X=1\n");
  // A label repeated within a row.
  EXPECT_EQ(resaved(std::string(kHeader) +
                    "keys 1\n"
                    "m|0|60:120|6000.0|ft_X=1,mg_X=2,ft_X=5\n"),
            std::string(kHeader) +
                "keys 1\n"
                "m|0|60:120|6000.0|ft_X=6,mg_X=2\n");
  // Leading zeros in every integer field, and an unpadded mean.
  EXPECT_EQ(resaved("EFD-DICT-V1\nmetrics m\nintervals 060:0120\ndepth 02\n"
                    "combine 0\nkeys 02\n"
                    "m|007|060:0120|6000|ft_X=0003\n"
                    "m|0|00:060|0042.50|mg_X=01\n"),
            std::string(kHeader) +
                "keys 2\n"
                "m|0|0:60|42.5|mg_X=1\n"
                "m|7|60:120|6000.0|ft_X=3\n");
}

}  // namespace

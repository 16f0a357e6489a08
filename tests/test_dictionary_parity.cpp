/// \file test_dictionary_parity.cpp
/// \brief EFD-DICT-V1 bytes pinned across rewrites of the dictionary's
/// storage: save() of a paper-trained dictionary and of a B1-shape one
/// (the same plus 10k decoy keys), save() after loading non-canonical
/// text (unsorted rows, a key split over two rows, a label repeated in a
/// row, leading-zero integers, other spellings of a number), and save()
/// after merge, prune_rare and a copy. Every expected value was recorded
/// from the node-map dictionary these bytes must never drift from.
///
/// The same texts pin the publication path: an epoch built from
/// canonical text adopts it as its bytes, and any other text takes the
/// write path to the same pinned bytes. A seeded property test holds
/// the loader's mean certification to save()'s own formatting, and a
/// seeded fuzz of one-row dictionaries holds the whole certification to
/// "adopted only when save() writes the text back".
///
/// The loader's row paths (rows appended in key order without a probe,
/// and every other row) are pinned by texts recorded from the loader
/// that probed for each row, and by a seeded fuzz of row edits whose
/// error texts, adoption flags and bytes fold into one recorded CRC.
/// Means at the edge of the double range save and load as themselves.
///
/// Every text loaded here is also loaded with its rows read in forced
/// counts of slices (dictionary_detail::load_sliced), which must give
/// the sequential load's dictionary, flag or error text exactly; a text
/// that is not canonical is always read by the sequential loader.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dictionary.hpp"
#include "core/dictionary_handle.hpp"
#include "core/trainer.hpp"
#include "sim/dataset_generator.hpp"
#include "thread_probe.hpp"
#include "util/binary_io.hpp"
#include "util/string_utils.hpp"

namespace {

using namespace efd;
using core::Dictionary;
using Epoch = core::DictionaryHandle::Epoch;

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

/// A key's labels as save() lists them ("ft_X=3,bt_X=1"); "" when the
/// dictionary has no such key.
std::string labels_at(const Dictionary& dictionary,
                      const core::FingerprintKey& key) {
  const std::optional<core::DictionaryEntry> entry = dictionary.lookup(key);
  std::string out;
  for (std::size_t i = 0; entry && i < entry->size(); ++i) {
    if (i != 0) out += ',';
    out += entry->label(i) + "=" + std::to_string(entry->counts()[i]);
  }
  return out;
}

/// Loads \p text with its rows read in \p slices slices and in one, and
/// expects the same outcome: the same error text, or the same bytes,
/// certification, label and metric ids, table and lookups. Returns the
/// slices that read the rows.
std::size_t expect_same_load(const std::string& text, std::size_t slices,
                             const std::string& what) {
  const auto load = [&](std::size_t count, bool& canonical, std::size_t& read,
                        std::string& error) -> std::optional<Dictionary> {
    try {
      return core::dictionary_detail::load_sliced(text, canonical, count, &read);
    } catch (const std::runtime_error& failure) {
      error = failure.what();
      return std::nullopt;
    }
  };
  const std::string where = what + ", " + std::to_string(slices) + " slices";
  bool serial_canonical = false;
  bool sliced_canonical = false;
  std::size_t serial_read = 0;
  std::size_t sliced_read = 0;
  std::string serial_error;
  std::string sliced_error;
  const std::optional<Dictionary> serial =
      load(1, serial_canonical, serial_read, serial_error);
  const std::optional<Dictionary> sliced =
      load(slices, sliced_canonical, sliced_read, sliced_error);
  EXPECT_EQ(serial_read, 1u) << where;
  EXPECT_EQ(sliced_error, serial_error) << where;
  if (!serial || !sliced) {
    EXPECT_EQ(sliced.has_value(), serial.has_value()) << where;
    return sliced_read;
  }
  EXPECT_EQ(sliced_canonical, serial_canonical) << where;
  if (!serial_canonical) EXPECT_EQ(sliced_read, 1u) << where;
  EXPECT_EQ(text_of(*sliced), text_of(*serial)) << where;
  const auto label_names = [](const Dictionary& dictionary) {
    std::vector<std::string> names;
    for (std::uint32_t id = 0; id < dictionary.label_table().label_count(); ++id) {
      names.push_back(dictionary.label_table().label_name(id));
    }
    return names;
  };
  EXPECT_EQ(label_names(*sliced), label_names(*serial)) << where;
  EXPECT_EQ(sliced->applications_in_order(), serial->applications_in_order())
      << where;
  const core::DictionaryIndex& sliced_index = *sliced->probe_index();
  const core::DictionaryIndex& serial_index = *serial->probe_index();
  EXPECT_EQ(sliced_index.slot_count(), serial_index.slot_count()) << where;
  EXPECT_EQ(sliced_index.resident_bytes(), serial_index.resident_bytes()) << where;
  EXPECT_EQ(sliced->size(), serial->size()) << where;
  for (std::size_t i = 0; i < serial->size() && i < sliced->size(); ++i) {
    core::FingerprintKey key = serial->entry(i).key();
    const core::DictionaryIndex::Entry* a = sliced_index.find(key);
    const core::DictionaryIndex::Entry* b = serial_index.find(key);
    if (sliced->entry(i).key() != key || a == nullptr || b == nullptr) {
      ADD_FAILURE() << where << ": row " << i << " differs";
      break;
    }
    EXPECT_EQ(a->metric_id, b->metric_id) << where << ": row " << i;
    EXPECT_TRUE(std::ranges::equal(sliced_index.label_ids(*a),
                                   serial_index.label_ids(*b)))
        << where << ": row " << i;
    EXPECT_TRUE(std::ranges::equal(sliced_index.counts(*a), serial_index.counts(*b)))
        << where << ": row " << i;
    // A key next to this one is absent from both, or present in both.
    key.node_id += 1000;
    EXPECT_EQ(labels_at(*sliced, key), labels_at(*serial, key)) << where;
  }
  return sliced_read;
}

/// expect_same_load at every forced count from 2 to 8 slices.
void expect_slices_agree(const std::string& text, const std::string& what) {
  for (std::size_t slices = 2; slices <= 8; ++slices) {
    expect_same_load(text, slices, what);
  }
}

/// Canonical text: the epoch built from it keeps it, unwritten.
void expect_adopted(const std::string& text, const char* what) {
  expect_slices_agree(text, what);
  const Epoch epoch(1, text);
  EXPECT_TRUE(epoch.adopted_text) << what;
  EXPECT_EQ(epoch.bytes, text) << what;
  EXPECT_EQ(epoch.bytes, text_of(epoch.dictionary)) << what;
}

/// Non-canonical text: the epoch writes \p expected, what save() writes
/// after a plain load.
void expect_written(const std::string& text, const std::string& expected) {
  expect_slices_agree(text, text);
  const Epoch epoch(1, text);
  EXPECT_FALSE(epoch.adopted_text) << text;
  EXPECT_EQ(epoch.bytes, expected) << text;
  EXPECT_EQ(text_of(Dictionary::load(text)), expected) << text;
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
  // A load writes back exactly what it read, and an epoch keeps it.
  EXPECT_EQ(text_of(Dictionary::load(trained)), trained);
  EXPECT_EQ(text_of(Dictionary::load(b1)), b1);
  expect_adopted(trained, "paper-trained");
  expect_adopted(b1, "B1 shape");
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

  expect_adopted(text_of(merged), "merge");
  expect_adopted(text_of(pruned), "prune_rare(3)");
}

constexpr char kHeader[] =
    "EFD-DICT-V1\nmetrics m\nintervals 60:120\ndepth 2\ncombine 0\n";

TEST(DictionaryParityText, NonCanonicalInputsSaveCanonically) {
  // Unsorted rows.
  expect_written(std::string(kHeader) +
                     "keys 4\n"
                     "m|1|60:120|6000.0|ft_X=1\n"
                     "m|0|60:120|7000.0|mg_X=2\n"
                     "m|0|0:60|9000.0|lu_X=1\n"
                     "m|0|60:120|6000.0|sp_X=1,bt_X=3\n",
                 std::string(kHeader) +
                     "keys 4\n"
                     "m|0|0:60|9000.0|lu_X=1\n"
                     "m|0|60:120|6000.0|sp_X=1,bt_X=3\n"
                     "m|1|60:120|6000.0|ft_X=1\n"
                     "m|0|60:120|7000.0|mg_X=2\n");
  // One key split over two rows: the labels merge in row order.
  expect_written(std::string(kHeader) +
                     "keys 3\n"
                     "m|0|60:120|6000.0|ft_X=1,mg_X=2\n"
                     "m|0|60:120|7000.0|lu_X=1\n"
                     "m|0|60:120|6000.0|mg_X=1,sp_X=4\n",
                 std::string(kHeader) +
                     "keys 2\n"
                     "m|0|60:120|6000.0|ft_X=1,mg_X=3,sp_X=4\n"
                     "m|0|60:120|7000.0|lu_X=1\n");
  // A label repeated within a row.
  expect_written(std::string(kHeader) +
                     "keys 1\n"
                     "m|0|60:120|6000.0|ft_X=1,mg_X=2,ft_X=5\n",
                 std::string(kHeader) +
                     "keys 1\n"
                     "m|0|60:120|6000.0|ft_X=6,mg_X=2\n");
  // Leading zeros in every integer field, and an unpadded mean.
  expect_written("EFD-DICT-V1\nmetrics m\nintervals 060:0120\ndepth 02\n"
                 "combine 0\nkeys 02\n"
                 "m|007|060:0120|6000|ft_X=0003\n"
                 "m|0|00:060|0042.50|mg_X=01\n",
                 std::string(kHeader) +
                     "keys 2\n"
                     "m|0|0:60|42.5|mg_X=1\n"
                     "m|7|60:120|6000.0|ft_X=3\n");
}

/// One row under kHeader.
std::string one_row(const std::string& row) {
  return std::string(kHeader) + "keys 1\n" + row + "\n";
}

// --- the loader's row paths ------------------------------------------------
//
// Each text below takes another branch of load(): rows strictly
// increasing in key order, then a row that is not; a key repeated; the
// two zeros of one key (== but hashed apart); metric names that change
// and change back; labels that change within a row; one label on 10k
// sorted rows. Every expected value was recorded from the loader that
// probed the table for each row, before rows in key order were appended
// without a probe.

core::FingerprintKey row_key(std::string metric, std::uint32_t node,
                             double mean) {
  core::FingerprintKey key;
  key.metric = std::move(metric);
  key.node_id = node;
  key.interval = telemetry::kPaperInterval;
  key.rounded_means = {mean};
  return key;
}

struct LoadedShape {
  bool adopted;
  std::vector<std::string> labels;  ///< label names in id order
  std::size_t slots;
  std::uint64_t resident;
  std::vector<std::pair<core::FingerprintKey, std::string>> lookups;
};

/// Builds an epoch from \p text, checks it against \p shape and returns
/// the epoch's bytes (save() of what was loaded).
std::string expect_shape(const std::string& text, const LoadedShape& shape,
                         const char* what) {
  expect_slices_agree(text, what);
  const Epoch epoch(1, text);
  const Dictionary& loaded = epoch.dictionary;
  EXPECT_EQ(epoch.adopted_text, shape.adopted) << what;
  EXPECT_EQ(epoch.bytes, text_of(loaded)) << what;
  EXPECT_EQ(text_of(Dictionary::load(text)), epoch.bytes) << what;
  std::vector<std::string> labels;
  for (std::uint32_t id = 0; id < loaded.label_table().label_count(); ++id) {
    labels.push_back(loaded.label_table().label_name(id));
  }
  EXPECT_EQ(labels, shape.labels) << what;
  EXPECT_EQ(loaded.probe_index()->slot_count(), shape.slots) << what;
  EXPECT_EQ(loaded.probe_index()->resident_bytes(), shape.resident) << what;
  for (const auto& [key, expected] : shape.lookups) {
    EXPECT_EQ(labels_at(loaded, key), expected) << what << ": " << key.to_string();
  }
  return epoch.bytes;
}

TEST(DictionaryParityText, SortedPrefixThenAnOutOfOrderRow) {
  // Two rows in key order, one before them, one after, then the first
  // key again with a new label: it must merge into the first row.
  const std::string saved = expect_shape(
      std::string(kHeader) +
          "keys 5\n"
          "m|0|60:120|6000.0|ft_X=1\n"
          "m|1|60:120|6000.0|mg_X=1\n"
          "m|0|60:120|5000.0|lu_X=2\n"
          "m|0|60:120|7000.0|sp_X=1\n"
          "m|0|60:120|6000.0|ft_X=2,bt_X=1\n",
      {false,
       {"ft_X", "mg_X", "lu_X", "sp_X", "bt_X"},
       32,
       433,
       {{row_key("m", 0, 6000.0), "ft_X=3,bt_X=1"},
        {row_key("m", 1, 6000.0), "mg_X=1"},
        {row_key("m", 0, 5000.0), "lu_X=2"},
        {row_key("m", 0, 7000.0), "sp_X=1"},
        {row_key("m", 2, 6000.0), ""}}},
      "sorted prefix, then out of order");
  EXPECT_EQ(saved, std::string(kHeader) +
                       "keys 4\n"
                       "m|0|60:120|5000.0|lu_X=2\n"
                       "m|0|60:120|6000.0|ft_X=3,bt_X=1\n"
                       "m|1|60:120|6000.0|mg_X=1\n"
                       "m|0|60:120|7000.0|sp_X=1\n");
}

TEST(DictionaryParityText, AnExactDuplicateRowMerges) {
  const std::string saved = expect_shape(
      std::string(kHeader) +
          "keys 3\n"
          "m|0|60:120|6000.0|ft_X=1\n"
          "m|0|60:120|6000.0|ft_X=1\n"
          "m|1|60:120|6000.0|ft_X=1\n",
      {false,
       {"ft_X"},
       32,
       305,
       {{row_key("m", 0, 6000.0), "ft_X=2"},
        {row_key("m", 1, 6000.0), "ft_X=1"}}},
      "duplicate row");
  EXPECT_EQ(saved, std::string(kHeader) +
                       "keys 2\n"
                       "m|0|60:120|6000.0|ft_X=2\n"
                       "m|1|60:120|6000.0|ft_X=1\n");
}

TEST(DictionaryParityText, BothZerosOfOneKey) {
  // 0.0 == -0.0, yet the two hash apart: each row keeps its own key, in
  // either order, and neither order is strictly increasing.
  const std::string negative_first = expect_shape(
      std::string(kHeader) +
          "keys 2\n"
          "m|0|60:120|-0.0|ft_X=1\n"
          "m|0|60:120|0.0|mg_X=1\n",
      {false,
       {"ft_X", "mg_X"},
       32,
       305,
       {{row_key("m", 0, -0.0), "ft_X=1"}, {row_key("m", 0, 0.0), "mg_X=1"}}},
      "-0.0 then 0.0");
  EXPECT_EQ(negative_first, std::string(kHeader) +
                                "keys 2\n"
                                "m|0|60:120|-0.0|ft_X=1\n"
                                "m|0|60:120|0.0|mg_X=1\n");
  const std::string positive_first = expect_shape(
      std::string(kHeader) +
          "keys 2\n"
          "m|0|60:120|0.0|ft_X=1\n"
          "m|0|60:120|-0.0|mg_X=1\n",
      {false,
       {"ft_X", "mg_X"},
       32,
       305,
       {{row_key("m", 0, 0.0), "ft_X=1"}, {row_key("m", 0, -0.0), "mg_X=1"}}},
      "0.0 then -0.0");
  EXPECT_EQ(positive_first, std::string(kHeader) +
                                "keys 2\n"
                                "m|0|60:120|0.0|ft_X=1\n"
                                "m|0|60:120|-0.0|mg_X=1\n");
}

TEST(DictionaryParityText, MetricNamesThatChangeAndChangeBack) {
  // In key order, with a name that extends the one before it.
  const std::string sorted = std::string(kHeader) +
                             "keys 5\n"
                             "a|0|60:120|1.0|ft_X=1\n"
                             "a|1|60:120|1.0|ft_X=1\n"
                             "b|0|60:120|1.0|mg_X=1\n"
                             "bb|0|60:120|1.0|mg_X=1\n"
                             "c|0|60:120|1.0|ft_X=1\n";
  EXPECT_EQ(expect_shape(sorted,
                         {true,
                          {"ft_X", "mg_X"},
                          32,
                          477,
                          {{row_key("a", 0, 1.0), "ft_X=1"},
                           {row_key("a", 1, 1.0), "ft_X=1"},
                           {row_key("b", 0, 1.0), "mg_X=1"},
                           {row_key("bb", 0, 1.0), "mg_X=1"},
                           {row_key("c", 0, 1.0), "ft_X=1"},
                           {row_key("b", 1, 1.0), ""}}},
                         "metrics in order"),
            sorted);
  // Alternating, back to the first name, and its first key again.
  const std::string saved = expect_shape(
      std::string(kHeader) +
          "keys 5\n"
          "a|0|60:120|1.0|ft_X=1\n"
          "b|0|60:120|1.0|mg_X=1\n"
          "a|1|60:120|1.0|ft_X=1\n"
          "b|1|60:120|1.0|mg_X=2\n"
          "a|0|60:120|1.0|sp_X=1\n",
      {false,
       {"ft_X", "mg_X", "sp_X"},
       32,
       434,
       {{row_key("a", 0, 1.0), "ft_X=1,sp_X=1"},
        {row_key("b", 0, 1.0), "mg_X=1"},
        {row_key("a", 1, 1.0), "ft_X=1"},
        {row_key("b", 1, 1.0), "mg_X=2"}}},
      "alternating metrics");
  EXPECT_EQ(saved, std::string(kHeader) +
                       "keys 4\n"
                       "a|0|60:120|1.0|ft_X=1,sp_X=1\n"
                       "a|1|60:120|1.0|ft_X=1\n"
                       "b|0|60:120|1.0|mg_X=1\n"
                       "b|1|60:120|1.0|mg_X=2\n");
}

TEST(DictionaryParityText, LabelsThatChangeWithinARow) {
  const std::string saved = expect_shape(
      std::string(kHeader) +
          "keys 3\n"
          "m|0|60:120|6000.0|ft_X=1,mg_X=2\n"
          "m|0|60:120|7000.0|mg_X=1,ft_X=3\n"
          "m|1|60:120|6000.0|ft_X=1,sp_X=4,ft_X=2\n",
      {false,
       {"ft_X", "mg_X", "sp_X"},
       32,
       385,
       {{row_key("m", 0, 6000.0), "ft_X=1,mg_X=2"},
        {row_key("m", 0, 7000.0), "mg_X=1,ft_X=3"},
        {row_key("m", 1, 6000.0), "ft_X=3,sp_X=4"}}},
      "labels within a row");
  EXPECT_EQ(saved, std::string(kHeader) +
                       "keys 3\n"
                       "m|0|60:120|6000.0|ft_X=1,mg_X=2\n"
                       "m|1|60:120|6000.0|ft_X=3,sp_X=4\n"
                       "m|0|60:120|7000.0|mg_X=1,ft_X=3\n");
}

/// 10k sorted rows of one label, one key per node.
std::string ten_thousand_rows() {
  std::string text = std::string(kHeader) + "keys 10000\n";
  for (int node = 0; node < 10000; ++node) {
    text += "m|" + std::to_string(node) + "|60:120|6000.0|decoy_D=1\n";
  }
  return text;
}

TEST(DictionaryParityText, TenThousandSortedRowsOfOneLabel) {
  const std::string text = ten_thousand_rows();
  const std::string saved = expect_shape(
      text,
      {true,
       {"decoy_D"},
       32768,
       723873,
       {{row_key("m", 0, 6000.0), "decoy_D=1"},
        {row_key("m", 4999, 6000.0), "decoy_D=1"},
        {row_key("m", 9999, 6000.0), "decoy_D=1"},
        {row_key("m", 10000, 6000.0), ""},
        {row_key("m", 0, 7000.0), ""}}},
      "10k rows of one label");
  expect_pinned(saved, {308958, 0x5dd521dc}, "10k rows of one label");
}

/// The outcome of publishing one text: its error text, or whether the
/// epoch adopts it and the epoch's bytes.
using Publish = std::function<std::string(const std::string& text)>;

/// Runs the row-edit fuzz below through \p publish; returns each
/// outcome's count and the CRC of every outcome in order.
std::pair<std::map<std::string, std::size_t>, std::uint32_t> row_edit_fuzz(
    const Publish& publish) {
  // Seeded edits of a canonical four-row text (a byte of the row
  // alphabet inserted, replaced or deleted, up to three times, two rows
  // swapped, a key count one off) reach every row error and both
  // publication paths.
  const std::string rows[] = {"m|1|0:60|1e+10|ft_X=4294967295\n",
                              "m|0|60:120|6000.0|ft_X=1\n",
                              "m|1|60:120|6000.0,2.5|mg_X=2,ft_X=1\n",
                              "mm|7|60:120|-0.0015|sp_X=3\n"};
  std::mt19937_64 rng(29);
  std::uniform_int_distribution<int> pick(0, 99);
  static constexpr char kAlphabet[] = "|,:=\n\r-.e+0159 xm_";
  std::string outcomes;
  std::map<std::string, std::size_t> counts;
  constexpr std::size_t kTexts = 30'000;
  for (std::size_t i = 0; i < kTexts; ++i) {
    std::vector<std::string> text_rows(std::begin(rows), std::end(rows));
    if (pick(rng) < 15) {
      std::swap(text_rows[std::uniform_int_distribution<std::size_t>(0, 3)(rng)],
                text_rows[std::uniform_int_distribution<std::size_t>(0, 3)(rng)]);
    }
    std::string body;
    for (const std::string& row : text_rows) body += row;
    const int edits = std::uniform_int_distribution<int>(0, 3)(rng);
    for (int e = 0; e < edits && !body.empty(); ++e) {
      const std::size_t at =
          std::uniform_int_distribution<std::size_t>(0, body.size() - 1)(rng);
      const char c = kAlphabet[std::uniform_int_distribution<std::size_t>(
          0, sizeof(kAlphabet) - 2)(rng)];
      const int kind = pick(rng);
      if (kind < 40) {
        body.insert(at, 1, c);
      } else if (kind < 80) {
        body[at] = c;
      } else {
        body.erase(at, 1);
      }
    }
    const int declared = pick(rng);
    const std::string text =
        std::string(kHeader) +
        (declared < 5 ? "keys 3\n" : declared < 10 ? "keys 5\n" : "keys 4\n") +
        body;
    std::string outcome;
    try {
      outcome = publish(text);
      ++counts[outcome.substr(0, outcome.find('\n'))];
    } catch (const std::runtime_error& error) {
      outcome = error.what();
      ++counts[outcome];
    }
    outcomes += outcome;
    outcomes += '\0';
  }
  return {counts, crc_of(outcomes)};
}

TEST(DictionaryParityText, RowEditFuzzKeepsErrorsAdoptionAndBytes) {
  // Each text's outcome is folded into one CRC recorded from the loader
  // that probed the table for each row; the per-outcome counts say which
  // path drifted when it does not match. The epoch reads these four rows
  // in one slice; read in three, every outcome must be the same.
  const std::map<std::string, std::size_t> expected = {
      {"adopted", 8865},
      {"written", 3036},
      {"malformed dictionary: CRLF line ending", 66},
      {"malformed dictionary: bad key interval", 765},
      {"malformed dictionary: bad key interval numbers", 2260},
      {"malformed dictionary: bad key row", 5197},
      {"malformed dictionary: bad label count", 2577},
      {"malformed dictionary: bad label token", 1241},
      {"malformed dictionary: bad mean", 3561},
      {"malformed dictionary: bad node id", 939},
      {"malformed dictionary: text after the declared key rows", 834},
      {"malformed dictionary: truncated key list", 659}};
  const auto epoch = [](const std::string& text) {
    const Epoch published(1, text);
    return (published.adopted_text ? "adopted\n" : "written\n") + published.bytes;
  };
  std::size_t sliced_reads = 0;
  const auto in_three_slices = [&](const std::string& text) {
    bool canonical = false;
    std::size_t read = 0;
    const Dictionary loaded =
        core::dictionary_detail::load_sliced(text, canonical, 3, &read);
    sliced_reads += read == 3;
    return canonical ? "adopted\n" + text : "written\n" + text_of(loaded);
  };
  for (const Publish& publish : {Publish(epoch), Publish(in_three_slices)}) {
    const auto [counts, crc] = row_edit_fuzz(publish);
    EXPECT_EQ(counts, expected);
    EXPECT_EQ(crc, 0xdf183647u) << "crc 0x" << std::hex << crc;
  }
  // Three slices read every adopted text whose rows keep one mean each.
  EXPECT_GT(sliced_reads, 0u);
}

TEST(DictionaryParityText, MeansAtTheEdgeOfTheDoubleRangeRoundTrip) {
  // Ten significant digits round every value within ~5e298 of DBL_MAX
  // up to 1.797693135e+308, past the range; it reads as DBL_MAX.
  constexpr double kMax = std::numeric_limits<double>::max();
  const double near_max = std::nextafter(kMax, 0.0);
  for (const double mean : {kMax, -kMax, near_max, -near_max, 1.7976931345e308,
                            1.797693134e308, -1.797693134e308}) {
    core::FingerprintKey key = row_key("m", 0, mean);
    Dictionary dictionary(paper_config());
    dictionary.insert(key, "ft_X");
    const std::string text = text_of(dictionary);
    Dictionary loaded;
    ASSERT_NO_THROW(loaded = Dictionary::load(text)) << text;
    EXPECT_EQ(text_of(loaded), text) << text;
    expect_adopted(text, text.c_str());
    const bool rounds_past = std::abs(mean) > 1.797693134e308;
    const double read = loaded.entry(0).key().rounded_means.at(0);
    EXPECT_EQ(read, rounds_past ? std::copysign(kMax, mean) : mean) << text;
    key.rounded_means = {read};
    EXPECT_EQ(labels_at(loaded, key), "ft_X=1") << text;
  }
  EXPECT_EQ(core::dictionary_text::canonical_mean("1.797693135e+308"), kMax);
  EXPECT_EQ(core::dictionary_text::canonical_mean("-1.797693135e+308"), -kMax);
  // Other spellings past the range, and the next ten-digit value, are
  // still no mean.
  for (const char* bad : {"1.797693136e+308", "1.7976931350e+308",
                          "17.97693135e+307", "1e+309"}) {
    EXPECT_FALSE(core::dictionary_text::canonical_mean(bad)) << bad;
    EXPECT_THROW(Dictionary::load(one_row(std::string("m|0|60:120|") + bad +
                                          "|ft_X=1")),
                 std::runtime_error)
        << bad;
  }
}


TEST(DictionaryParityText, OtherSpellingsOfANumberTakeTheWritePath) {
  // A space before an integer or a mean; "-0"; a trailing zero; digits
  // that %.10g lays out the other way (1e5 is 100000.0, 1e10 is 1e+10);
  // an exponent padded or spelled as a fraction.
  expect_written(one_row("m| 5|60:120|6000.0|ft_X=1"),
                 one_row("m|5|60:120|6000.0|ft_X=1"));
  expect_written(one_row("m|0|60:120| 5|ft_X= 5"),
                 one_row("m|0|60:120|5.0|ft_X=5"));
  expect_written(one_row("m|0|-0:120|1.50|ft_X=1"),
                 one_row("m|0|0:120|1.5|ft_X=1"));
  expect_written(one_row("m|0|60:120|1e5|ft_X=1"),
                 one_row("m|0|60:120|100000.0|ft_X=1"));
  expect_written(one_row("m|0|60:120|10000000000.0|ft_X=1"),
                 one_row("m|0|60:120|1e+10|ft_X=1"));
  expect_written(one_row("m|0|60:120|1e+010|ft_X=1"),
                 one_row("m|0|60:120|1e+10|ft_X=1"));
  expect_written(one_row("m|0|60:120|0.00001|ft_X=1"),
                 one_row("m|0|60:120|1e-05|ft_X=1"));
  expect_written(one_row("m|0|60:120|1.0e-05|ft_X=1"),
                 one_row("m|0|60:120|1e-05|ft_X=1"));
  // More than 10 significant digits round to 10.
  expect_written(one_row("m|0|60:120|1.23456789012|ft_X=1"),
                 one_row("m|0|60:120|1.23456789|ft_X=1"));
  // A subnormal mean prints with 10 digits of its binary value; one
  // that happens to print back as itself is still not certified.
  expect_written(one_row("m|0|60:120|4.9e-324|ft_X=1"),
                 one_row("m|0|60:120|4.940656458e-324|ft_X=1"));
  expect_written(one_row("m|0|60:120|1e-310|ft_X=1"),
                 one_row("m|0|60:120|1e-310|ft_X=1"));
  // A final row without its newline, and blank lines after the rows.
  const std::string row = one_row("m|0|60:120|6000.0|ft_X=1");
  expect_written(row.substr(0, row.size() - 1), row);
  expect_written(row + "\n\n", row);

  // "+5" is no integer and no mean on either path.
  for (const char* bad : {"m|+5|60:120|6000.0|ft_X=1", "m|0|60:120|+5|ft_X=1",
                          "m|0|60:120|6000.0|ft_X=+5"}) {
    EXPECT_THROW(Dictionary::load(one_row(bad)), std::runtime_error) << bad;
    EXPECT_THROW(Epoch(1, one_row(bad)), std::runtime_error) << bad;
  }

  // The spellings save() itself writes are adopted.
  for (const char* mean :
       {"100000.0", "1e+10", "1e-05", "0.0001", "1234567890.0", "-0.0",
        "0.0", "-2.5", "1.23456789e+300", "2.225073859e-308"}) {
    expect_adopted(one_row(std::string("m|0|60:120|") + mean + "|ft_X=1"),
                   mean);
  }
  expect_adopted(std::string(kHeader) + "keys 0\n", "no keys");
  expect_adopted(std::string(kHeader) +
                     "keys 2\n"
                     "m|4294967295|-2147483648:2147483647|6000.0|ft_X=4294967295\n"
                     "m|0|60:120|6000.0,7000.0|ft_X=1,mg_X=2\n",
                 "field extremes and multi-value rows");
}

// --- mean certification --------------------------------------------------

/// A random decimal token: a mix of save()'s spellings of random values
/// and near misses (other layouts, padding, signs, digit counts).
std::string random_mean_token(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> pick(0, 99);
  const auto digits = [&](int count, bool nonzero_first) {
    std::string out;
    for (int i = 0; i < count; ++i) {
      const int low = i == 0 && nonzero_first ? 1 : 0;
      out += static_cast<char>('0' + std::uniform_int_distribution<int>(low, 9)(rng));
    }
    return out;
  };
  const int shape = pick(rng);
  if (shape < 40) {
    // save()'s own spelling of a value with 1-17 significant digits
    // anywhere in (and just past) the normal range.
    const int significant = std::uniform_int_distribution<int>(1, 17)(rng);
    const int exponent = std::uniform_int_distribution<int>(-330, 310)(rng);
    const std::string text = (pick(rng) < 20 ? "-" : "") + digits(1, true) +
                             "." + digits(significant, false) + "e" +
                             std::to_string(exponent);
    const std::optional<double> value = util::parse_double(text);
    return value ? util::format_mean(*value) : text;
  }
  if (shape < 60) {
    // Fixed layouts around the %.10g boundaries.
    const int whole = std::uniform_int_distribution<int>(0, 12)(rng);
    const int fraction = std::uniform_int_distribution<int>(0, 12)(rng);
    std::string text = (pick(rng) < 10 ? "-" : "") +
                       (whole == 0 ? std::string("0") : digits(whole, pick(rng) < 90));
    if (fraction > 0 || pick(rng) < 50) text += "." + digits(fraction, false);
    return text;
  }
  if (shape < 80) {
    // Scientific layouts with every exponent width and sign.
    std::string text = (pick(rng) < 10 ? "-" : "") + digits(1, pick(rng) < 90);
    const int fraction = std::uniform_int_distribution<int>(0, 11)(rng);
    if (fraction > 0 || pick(rng) < 10) text += "." + digits(fraction, false);
    text += pick(rng) < 95 ? "e" : "E";
    const int sign = pick(rng);
    text += sign < 45 ? "+" : sign < 90 ? "-" : "";
    text += digits(std::uniform_int_distribution<int>(1, 4)(rng), false);
    return text;
  }
  // Random strings over the token alphabet.
  static constexpr char kAlphabet[] = "0123456789.-+e 0000";
  std::string text;
  const int length = std::uniform_int_distribution<int>(1, 14)(rng);
  for (int i = 0; i < length; ++i) {
    text += kAlphabet[std::uniform_int_distribution<int>(
        0, static_cast<int>(sizeof(kAlphabet)) - 2)(rng)];
  }
  return text;
}

TEST(DictionaryParityText, MeanCertificationNeverAcceptsAnotherSpelling) {
  // util::format_mean is save()'s mean format (save() writes the same
  // bytes without snprintf).
  std::mt19937_64 rng(20261019);
  std::size_t accepted = 0;
  std::size_t wrong = 0;
  constexpr std::size_t kTokens = 1'200'000;
  for (std::size_t i = 0; i < kTokens; ++i) {
    const std::string token = random_mean_token(rng);
    const std::optional<double> value = core::dictionary_text::canonical_mean(token);
    if (!value) continue;
    ++accepted;
    if (util::format_mean(*value) != token && ++wrong <= 10) {
      ADD_FAILURE() << "accepted '" << token << "', save() writes '"
                    << util::format_mean(*value) << "'";
    }
  }
  EXPECT_EQ(wrong, 0u);
  // The generator reaches both sides of the rule.
  EXPECT_GT(accepted, kTokens / 4);
  EXPECT_LT(accepted, kTokens * 3 / 4);

  // Every finite normal value's own spelling is accepted as that value.
  std::uniform_int_distribution<std::uint64_t> bits;
  for (std::size_t i = 0; i < 100'000; ++i) {
    const double value = std::bit_cast<double>(bits(rng));
    if (!std::isnormal(value)) continue;
    const std::string token = util::format_mean(value);
    const std::optional<double> certified = core::dictionary_text::canonical_mean(token);
    ASSERT_TRUE(certified) << token;
    EXPECT_EQ(util::format_mean(*certified), token);
  }
}

// --- whole-text certification ----------------------------------------------

TEST(DictionaryParityText, OneRowFuzzAdoptsExactlyTheTextsSaveWritesBack) {
  std::mt19937_64 rng(28);
  std::uniform_int_distribution<int> pick(0, 99);
  const auto integer = [&](long long value) {
    std::string text = std::to_string(value);
    const int spelling = pick(rng);
    if (spelling < 5) return "0" + text;
    if (spelling < 8) return " " + text;
    if (spelling < 10 && value == 0) return std::string("-0");
    return text;
  };
  std::size_t adopted = 0;
  std::size_t rejected = 0;
  constexpr std::size_t kTexts = 40'000;
  for (std::size_t i = 0; i < kTexts; ++i) {
    std::string row = pick(rng) < 50 ? "m|" : "nr_mapped_vmstat|";
    row += integer(std::uniform_int_distribution<long long>(0, 40)(rng)) + "|";
    row += integer(std::uniform_int_distribution<long long>(-60, 60)(rng)) + ":";
    row += integer(std::uniform_int_distribution<long long>(60, 180)(rng)) + "|";
    const int means = pick(rng) < 80 ? 1 : 2;
    for (int m = 0; m < means; ++m) {
      if (m != 0) row += ',';
      row += random_mean_token(rng);
    }
    row += '|';
    const int labels = pick(rng) < 70 ? 1 : 2;
    for (int l = 0; l < labels; ++l) {
      if (l != 0) row += ',';
      row += pick(rng) < 50 ? "ft_X=" : "mg_Y=";
      row += integer(std::uniform_int_distribution<long long>(1, 9)(rng));
    }
    std::string text = std::string(kHeader) + "keys 1\n" + row;
    if (pick(rng) < 95) text += '\n';

    std::string written;
    try {
      written = text_of(Dictionary::load(text));
    } catch (const std::runtime_error&) {
      ++rejected;
      EXPECT_THROW(Epoch(1, text), std::runtime_error) << text;
      continue;
    }
    const Epoch epoch(1, text);
    EXPECT_EQ(epoch.bytes, written) << text;
    EXPECT_EQ(epoch.bytes, text_of(epoch.dictionary)) << text;
    if (epoch.adopted_text) {
      ++adopted;
      EXPECT_EQ(text, written) << "adopted text that save() rewrites";
    } else if (text == written) {
      // Only a mean save() cannot certify by its digits may miss.
      bool uncertifiable = false;
      for (const std::string& mean : util::split(util::split(row, '|')[3], ',')) {
        const std::optional<double> value = util::parse_double(mean);
        uncertifiable |= value && !std::isnormal(*value) && *value != 0.0;
      }
      EXPECT_TRUE(uncertifiable) << "save() writes back unadopted text " << text;
    }
  }
  EXPECT_GT(adopted, kTexts / 10);
  EXPECT_GT(rejected, 0u);
}

// --- rows read in slices ----------------------------------------------------
//
// load() reads the rows of a canonical text that declares at least
// 2 * kRowsPerSlice of them in slices, one thread each; load_sliced
// forces a count. Every check above already loads its texts in 2 to 8
// slices (expect_slices_agree); these pin that the slices do read the
// rows they should, and that where slices meet is certified.

TEST_F(DictionaryParity, PinnedCanonicalTextsAreReadInEveryCountOfSlices) {
  std::vector<std::size_t> even;
  std::vector<std::size_t> odd;
  for (std::size_t i = 0; i < dataset_->size(); ++i) {
    (i % 2 == 0 ? even : odd).push_back(i);
  }
  Dictionary merged = core::train_dictionary(*dataset_, paper_config(1), odd);
  merged.merge(core::train_dictionary(*dataset_, paper_config(1), even));
  Dictionary pruned = *trained_;
  pruned.prune_rare(3);
  const std::pair<std::string, std::string> texts[] = {
      {"paper-trained", text_of(*trained_)},
      {"B1 shape", text_of(with_decoys(*trained_))},
      {"merge", text_of(merged)},
      {"prune_rare(3)", text_of(pruned)},
      {"10k rows of one label", ten_thousand_rows()}};
  for (const auto& [what, text] : texts) {
    const std::size_t rows = Dictionary::load(text).size();
    for (std::size_t slices = 1; slices <= 8; ++slices) {
      EXPECT_EQ(expect_same_load(text, slices, what), std::min(slices, rows))
          << what << ", " << slices << " slices";
    }
  }
  bool canonical = false;
  expect_pinned(text_of(core::dictionary_detail::load_sliced(texts[1].second,
                                                             canonical, 4)),
                kB1, "B1 shape in 4 slices");
  EXPECT_TRUE(canonical);
}

/// Six rows of equal length: n equal byte shares of the rows start at
/// row boundaries, so six slices put a boundary after every row. The
/// metrics and labels change from row to row and come back.
constexpr std::string_view kEqualRows[] = {
    "a|0|60:120|1.0|ft_X=1,mg_X=2\n", "a|1|60:120|1.0|mg_X=1,ft_X=3\n",
    "a|0|60:120|2.0|sp_X=1,ft_X=1\n", "b|0|60:120|1.0|bt_X=4,sp_X=2\n",
    "b|0|60:120|3.0|mg_X=1,lu_X=1\n", "c|5|60:120|1.0|lu_X=2,ft_X=2\n"};

std::string equal_rows_text(const std::vector<std::size_t>& order) {
  std::string text = std::string(kHeader) + "keys " + std::to_string(order.size()) + "\n";
  for (const std::size_t row : order) text += kEqualRows[row];
  return text;
}

TEST(DictionaryParityText, ASliceBoundaryAfterEveryRow) {
  const std::string sorted = equal_rows_text({0, 1, 2, 3, 4, 5});
  for (std::size_t slices = 1; slices <= 8; ++slices) {
    EXPECT_EQ(expect_same_load(sorted, slices, "every row a slice"),
              std::min<std::size_t>(slices, 6))
        << slices;
  }
  bool canonical = false;
  const Dictionary loaded =
      core::dictionary_detail::load_sliced(sorted, canonical, 6);
  EXPECT_TRUE(canonical);
  EXPECT_EQ(text_of(loaded), sorted);
  EXPECT_EQ(labels_at(loaded, row_key("b", 0, 1.0)), "bt_X=4,sp_X=2");
  EXPECT_EQ(loaded.applications_in_order(),
            (std::vector<std::string>{"ft", "mg", "sp", "bt", "lu"}));

  // Each slice reads its one row in order; only the owner, where two
  // slices meet, sees rows out of order or a key repeated.
  const std::vector<std::vector<std::size_t>> joins_out_of_order = {
      {0, 1, 3, 2, 4, 5}, {1, 0, 2, 3, 4, 5}, {0, 1, 2, 3, 5, 4},
      {0, 1, 1, 3, 4, 5}, {0, 0, 2, 3, 4, 5}};
  for (const std::vector<std::size_t>& order : joins_out_of_order) {
    const std::string text = equal_rows_text(order);
    EXPECT_EQ(expect_same_load(text, 6, "rows out of order where slices meet"), 1u)
        << text;
  }
}

TEST(DictionaryParityText, ARowNoSliceTakesInAnySliceGoesToTheSequentialLoad) {
  // Rows edited in the first, second, third and last of four slices of
  // 10k rows: errors, merges and other spellings are the sequential
  // loader's, to the byte and the error text.
  const std::string text = ten_thousand_rows();
  const auto row_at = [](std::size_t node) {
    return "m|" + std::to_string(node) + "|60:120|6000.0|decoy_D=1\n";
  };
  const std::vector<std::pair<std::string, std::string>> edits = {
      {"a bad node id", "m|x|60:120|6000.0|decoy_D=1\n"},
      {"a CRLF row", "m|@|60:120|6000.0|decoy_D=1\r\n"},
      {"a repeated key", "m|@-|60:120|6000.0|decoy_D=2\n"},
      {"a label repeated in its row", "m|@|60:120|6000.0|decoy_D=1,decoy_D=2\n"},
      {"a leading zero", "m|0@|60:120|6000.0|decoy_D=1\n"},
      {"a padded mean", "m|@|60:120|6000.00|decoy_D=1\n"},
      {"a second mean", "m|@|60:120|6000.0,1.0|decoy_D=1\n"},
      {"a missing field", "m|@|60:120|decoy_D=1\n"},
      {"a blank line", "\n"}};
  for (const std::size_t node : {7u, 2507u, 5007u, 9993u}) {
    for (const auto& [what, edit] : edits) {
      std::string row = edit;
      const std::size_t at = row.find('@');
      if (at != std::string::npos) {
        const bool previous = row[at + 1] == '-';
        row.replace(at, previous ? 2 : 1, std::to_string(previous ? node - 1 : node));
      }
      std::string edited = text;
      const std::string original = row_at(node);
      edited.replace(edited.find(original), original.size(), row);
      EXPECT_EQ(expect_same_load(edited, 4, what + " at node " + std::to_string(node)),
                1u);
    }
  }
}

TEST(DictionaryParityText, SliceRule) {
  using core::dictionary_detail::slice_count;
  // fleet-tcp's 171-row dictionary is read in one slice; churn-tcp's
  // 10,171-row B1 in one slice per 2,048 rows, up to the hardware's
  // threads.
  EXPECT_EQ(slice_count(171, 4), 1u);
  EXPECT_EQ(slice_count(10171, 4), 4u);
  EXPECT_EQ(slice_count(10171, 64), 4u);
  EXPECT_EQ(slice_count(10171, 2), 2u);
  EXPECT_EQ(slice_count(10171, 1), 1u);
  EXPECT_EQ(slice_count(10171, 0), 1u);
  EXPECT_EQ(slice_count(4095, 4), 1u);
  EXPECT_EQ(slice_count(4096, 4), 2u);
  EXPECT_EQ(slice_count(0, 4), 1u);
}

TEST_F(DictionaryParity, NoThreadOutlivesASlicedLoad) {
  const std::string b1 = text_of(with_decoys(*trained_));
  std::string bad = b1;
  bad.replace(bad.rfind("decoy_D=1"), 9, "decoy_D=0");
  const std::set<std::string> before = test::thread_ids();
  bool canonical = false;
  std::size_t read = 0;
  EXPECT_EQ(core::dictionary_detail::load_sliced(b1, canonical, 4, &read).size(),
            trained_->size() + 10000);
  EXPECT_EQ(read, 4u);
  EXPECT_EQ(test::thread_ids(), before);
  // A slice that rejects its rows, and a load that then throws, leave
  // none behind either.
  EXPECT_THROW(core::dictionary_detail::load_sliced(bad, canonical, 4, &read),
               std::runtime_error);
  EXPECT_EQ(test::thread_ids(), before);
}

}  // namespace

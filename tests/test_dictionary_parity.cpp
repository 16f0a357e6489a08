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

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dictionary.hpp"
#include "core/dictionary_handle.hpp"
#include "core/trainer.hpp"
#include "sim/dataset_generator.hpp"
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

/// Canonical text: the epoch built from it keeps it, unwritten.
void expect_adopted(const std::string& text, const char* what) {
  const Epoch epoch(1, text);
  EXPECT_TRUE(epoch.adopted_text) << what;
  EXPECT_EQ(epoch.bytes, text) << what;
  EXPECT_EQ(epoch.bytes, text_of(epoch.dictionary)) << what;
}

/// Non-canonical text: the epoch writes \p expected, what save() writes
/// after a plain load.
void expect_written(const std::string& text, const std::string& expected) {
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

TEST(DictionaryParityText, TenThousandSortedRowsOfOneLabel) {
  std::string text = std::string(kHeader) + "keys 10000\n";
  for (int node = 0; node < 10000; ++node) {
    text += "m|" + std::to_string(node) + "|60:120|6000.0|decoy_D=1\n";
  }
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

TEST(DictionaryParityText, RowEditFuzzKeepsErrorsAdoptionAndBytes) {
  // Seeded edits of a canonical four-row text (a byte of the row
  // alphabet inserted, replaced or deleted, up to three times, two rows
  // swapped, a key count one off) reach every row error and both
  // publication paths. Each text's outcome (its error text, or the adoption flag and the
  // epoch's bytes) is folded into one CRC recorded from the loader that
  // probed the table for each row; the per-outcome counts say which
  // path drifted when it does not match.
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
      const Epoch epoch(1, text);
      outcome = epoch.adopted_text ? "adopted" : "written";
      ++counts[outcome];
      outcome += '\n' + epoch.bytes;
    } catch (const std::runtime_error& error) {
      outcome = error.what();
      ++counts[outcome];
    }
    outcomes += outcome;
    outcomes += '\0';
  }
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
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(crc_of(outcomes), 0xdf183647u)
      << "crc 0x" << std::hex << crc_of(outcomes);
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

}  // namespace

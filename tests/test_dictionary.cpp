/// \file test_dictionary.cpp
/// \brief Tests for the EFD data structure: insertion semantics, tie
/// ordering, pruning, merging, statistics, reverse lookup, and the
/// serialization round-trip.

#include "core/dictionary.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string_view>

#include "core/matcher.hpp"
#include "core/rounding.hpp"
#include "util/string_utils.hpp"

namespace {

using namespace efd::core;
namespace detail = efd::core::dictionary_detail;

FingerprintKey key_of(double mean, std::uint32_t node = 0,
                      const std::string& metric = "nr_mapped_vmstat") {
  FingerprintKey key;
  key.metric = metric;
  key.node_id = node;
  key.interval = {60, 120};
  key.rounded_means = {mean};
  return key;
}

std::vector<std::string> labels_of(const DictionaryEntry& entry) {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < entry.size(); ++i) labels.push_back(entry.label(i));
  return labels;
}

std::vector<std::uint32_t> counts_of(const DictionaryEntry& entry) {
  return {entry.counts().begin(), entry.counts().end()};
}

FingerprintConfig config_of(int depth = 2) {
  FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = depth;
  return config;
}

TEST(DictionaryEntry, InsertAccumulatesCountsPerLabel) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(6000.0), "ft_X");
  dictionary.insert(key_of(6000.0), "ft_Y");
  dictionary.insert(key_of(6000.0), "ft_X", 2);
  const DictionaryEntry entry = *dictionary.lookup(key_of(6000.0));
  ASSERT_EQ(labels_of(entry), (std::vector<std::string>{"ft_X", "ft_Y"}));
  EXPECT_EQ(counts_of(entry), (std::vector<std::uint32_t>{3, 1}));
  ASSERT_EQ(entry.label_ids().size(), 2u);
  EXPECT_EQ(dictionary.label_table().label_name(entry.label_ids()[0]), "ft_X");
  EXPECT_EQ(dictionary.label_table().label_name(entry.label_ids()[1]), "ft_Y");
  EXPECT_EQ(entry.total_count(), 4u);
  EXPECT_TRUE(entry.contains("ft_Y"));
  EXPECT_FALSE(entry.contains("mg_X"));
}

TEST(Dictionary, InsertAndLookup) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(6000.0), "ft_X");
  EXPECT_EQ(dictionary.size(), 1u);

  const std::optional<DictionaryEntry> entry = dictionary.lookup(key_of(6000.0));
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->label(0), "ft_X");
  EXPECT_EQ(entry->key(), key_of(6000.0));
  EXPECT_FALSE(dictionary.lookup(key_of(6100.0)));
}

TEST(Dictionary, KeysAreUnique) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(6000.0), "ft_X");
  dictionary.insert(key_of(6000.0), "ft_Y");
  dictionary.insert(key_of(6000.0), "ft_X");
  EXPECT_EQ(dictionary.size(), 1u);
  EXPECT_EQ(dictionary.lookup(key_of(6000.0))->total_count(), 3u);
}

TEST(Dictionary, ApplicationOrderFollowsFirstInsertion) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(7500.0), "sp_X");  // sp learned first
  dictionary.insert(key_of(7500.0), "bt_X");  // then bt (Table 2 order)
  dictionary.insert(key_of(6000.0), "ft_X");
  EXPECT_LT(dictionary.application_order("sp"),
            dictionary.application_order("bt"));
  EXPECT_LT(dictionary.application_order("bt"),
            dictionary.application_order("ft"));
  // Unknown applications sort last.
  EXPECT_GT(dictionary.application_order("nope"),
            dictionary.application_order("ft"));
  EXPECT_EQ(dictionary.applications_in_order(),
            (std::vector<std::string>{"sp", "bt", "ft"}));
}

TEST(Dictionary, PruneRareRemovesLowCountKeys) {
  Dictionary dictionary(config_of());
  for (int i = 0; i < 5; ++i) dictionary.insert(key_of(6000.0), "ft_X");
  dictionary.insert(key_of(9999.0), "ft_X");  // a one-off noise key
  EXPECT_EQ(dictionary.prune_rare(2), 1u);
  EXPECT_EQ(dictionary.size(), 1u);
  EXPECT_TRUE(dictionary.lookup(key_of(6000.0)));
}

TEST(Dictionary, MergeCombinesObservations) {
  Dictionary a(config_of());
  a.insert(key_of(6000.0), "ft_X");
  Dictionary b(config_of());
  b.insert(key_of(6000.0), "ft_X");
  b.insert(key_of(6100.0), "mg_X");

  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.lookup(key_of(6000.0))->total_count(), 2u);
  EXPECT_TRUE(a.lookup(key_of(6100.0)));
}

TEST(Dictionary, MergeRejectsDifferentConfigs) {
  Dictionary a(config_of(2));
  Dictionary b(config_of(3));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Dictionary, StatsCountExclusiveAndColliding) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(6000.0), "ft_X");    // exclusive (ft only)
  dictionary.insert(key_of(6000.0), "ft_Y");    // still exclusive
  dictionary.insert(key_of(7500.0), "sp_X");
  dictionary.insert(key_of(7500.0), "bt_X");    // colliding (sp + bt)

  const DictionaryStats stats = dictionary.stats();
  EXPECT_EQ(stats.key_count, 2u);
  EXPECT_EQ(stats.exclusive_keys, 1u);
  EXPECT_EQ(stats.colliding_keys, 1u);
  EXPECT_EQ(stats.total_observations, 4u);
  EXPECT_DOUBLE_EQ(stats.mean_labels_per_key, 2.0);
}

TEST(Dictionary, SortedViewDeterministicOrder) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(8000.0, 1), "a_X");
  dictionary.insert(key_of(6000.0, 0), "b_X");
  dictionary.insert(key_of(6000.0, 1), "b_X");
  // Same metric, begin, means and node: only the interval end tells
  // these two apart, and it orders them.
  FingerprintKey long_window = key_of(6000.0, 1);
  long_window.interval = {60, 180};
  dictionary.insert(long_window, "c_X");

  const auto order = dictionary.sorted_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<FingerprintKey> sorted;
  for (const std::uint32_t ordinal : order) {
    sorted.push_back(dictionary.entry(ordinal).key());
  }
  EXPECT_DOUBLE_EQ(sorted[0].rounded_means[0], 6000.0);
  EXPECT_EQ(sorted[0].node_id, 0u);
  EXPECT_EQ(sorted[1].node_id, 1u);
  EXPECT_EQ(sorted[1].interval.end_seconds, 120);
  EXPECT_EQ(sorted[2].interval.end_seconds, 180);
  EXPECT_DOUBLE_EQ(sorted[3].rounded_means[0], 8000.0);
  // The order names the dictionary's own ordinals (insertion order).
  EXPECT_EQ(order[3], 0u);
  EXPECT_EQ(sorted[3], key_of(8000.0, 1));
}

TEST(Dictionary, KeysForLabelReverseLookup) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(6000.0, 0), "ft_X");
  dictionary.insert(key_of(6000.0, 1), "ft_X");
  dictionary.insert(key_of(7500.0, 0), "sp_X");

  const auto ft_keys = dictionary.keys_for_label("ft_X");
  ASSERT_EQ(ft_keys.size(), 2u);
  EXPECT_DOUBLE_EQ(ft_keys[0].rounded_means[0], 6000.0);
  EXPECT_TRUE(dictionary.keys_for_label("zz_X").empty());
}

TEST(Dictionary, SaveLoadRoundTrip) {
  Dictionary original(config_of(3));
  original.insert(key_of(6000.0, 0), "ft_X");
  original.insert(key_of(6000.0, 0), "ft_X");
  original.insert(key_of(7500.0, 2), "sp_X");
  original.insert(key_of(7500.0, 2), "bt_X");

  std::stringstream stream;
  original.save(stream);
  const Dictionary loaded = Dictionary::load(stream);

  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.config().rounding_depth, 3);
  EXPECT_EQ(loaded.config().metrics, original.config().metrics);

  const auto entry = loaded.lookup(key_of(6000.0, 0));
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->total_count(), 2u);

  const auto shared = loaded.lookup(key_of(7500.0, 2));
  ASSERT_TRUE(shared);
  EXPECT_EQ(labels_of(*shared), (std::vector<std::string>{"sp_X", "bt_X"}));
}

TEST(Dictionary, SaveLoadPreservesMultiInterval) {
  FingerprintConfig config;
  config.metrics = {"a", "b"};
  config.intervals = {{60, 120}, {120, 180}};
  config.rounding_depth = 2;
  config.combine_metrics = true;
  Dictionary original(config);

  FingerprintKey key;
  key.metric = "a+b";
  key.node_id = 3;
  key.interval = {120, 180};
  key.rounded_means = {1.5, 2.5};
  original.insert(key, "kripke_L");

  std::stringstream stream;
  original.save(stream);
  const Dictionary loaded = Dictionary::load(stream);
  EXPECT_EQ(loaded.config().intervals.size(), 2u);
  EXPECT_TRUE(loaded.config().combine_metrics);
  ASSERT_TRUE(loaded.lookup(key));
}

TEST(Dictionary, LoadRejectsMalformedInputs) {
  auto expect_throws = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(Dictionary::load(in), std::runtime_error) << text;
  };
  expect_throws("");                                    // no header
  expect_throws("WRONG-TAG\n");                         // bad header
  expect_throws("EFD-DICT-V1\nmetrics m\n");            // truncated
  expect_throws(
      "EFD-DICT-V1\nmetrics m\nintervals 60:120\ndepth 2\ncombine 0\n"
      "keys 1\n");                                      // missing key row
  expect_throws(
      "EFD-DICT-V1\nmetrics m\nintervals 60:120\ndepth 2\ncombine 0\n"
      "keys 1\nm|0|60:120|abc|ft_X=1\n");               // bad mean

  // Integers outside the field's type are rejected, not narrowed: a
  // wrapped label count would silently drop (2^32 -> 0) or rewrite
  // (2^32 + 1 -> 1) an observation.
  const std::string header =
      "EFD-DICT-V1\nmetrics m\nintervals 60:120\ndepth 2\ncombine 0\n";
  expect_throws(header + "keys 1\nm|0|60:120|6000|ft_X=4294967296\n");
  expect_throws(header + "keys 1\nm|0|60:120|6000|ft_X=4294967297\n");
  expect_throws(header + "keys 1\nm|-1|60:120|6000|ft_X=1\n");
  expect_throws(header + "keys 1\nm|4294967296|60:120|6000|ft_X=1\n");
  expect_throws(header + "keys 1\nm|0|60:2147483648|6000|ft_X=1\n");
  expect_throws(header + "keys 1\nm|0|-2147483649:120|6000|ft_X=1\n");
  expect_throws(
      "EFD-DICT-V1\nmetrics m\nintervals 60:4294967416\ndepth 2\n"
      "combine 0\nkeys 0\n");                           // interval > int
  expect_throws(
      "EFD-DICT-V1\nmetrics m\nintervals 60:120\ndepth 4294967298\n"
      "combine 0\nkeys 0\n");                           // depth > int

  // Row shapes a string_view tokenizer could get wrong.
  expect_throws(header + "keys 1\nm|0|60:120|6000|ft_X=1|extra\n");
  expect_throws(header + "keys 1\nm|0|60:120||ft_X=1\n");   // no means
  expect_throws(header + "keys 1\nm|0|60:120|6000,|ft_X=1\n");
  expect_throws(header + "keys 1\nm|0|60:120:180|6000|ft_X=1\n");
  expect_throws(header + "keys 1\nm|0|60:120|6000|\n");    // no labels
  expect_throws(header + "keys 1\nm|0|60:120|6000|ft_X=\n");
  expect_throws(header + "keys 2\nm|0|60:120|6000|ft_X=1\n");
  expect_throws(
      "EFD-DICT-V1\r\nmetrics m\r\nintervals 60:120\r\ndepth 2\r\n"
      "combine 0\r\nkeys 1\r\nm|0|60:120|6000|ft_X=1\r\n");
  expect_throws(header + "keys 1\nm|0|60:120|6000|ft_X=1\r\n");
  {
    // A final row without its newline is still a row.
    std::istringstream unterminated(header +
                                    "keys 1\nm|0|60:120|6000|ft_X=1");
    EXPECT_EQ(Dictionary::load(unterminated).size(), 1u);
  }

  // The extremes that do fit still load.
  std::istringstream extremes(
      header + "keys 1\nm|4294967295|-2147483648:2147483647|6000|"
               "ft_X=4294967295\n");
  const Dictionary loaded = Dictionary::load(extremes);
  ASSERT_EQ(loaded.size(), 1u);
  const DictionaryEntry entry = loaded.entry(0);
  const FingerprintKey key = entry.key();
  EXPECT_EQ(key.node_id, 4294967295u);
  EXPECT_EQ(key.interval.begin_seconds, std::numeric_limits<int>::min());
  EXPECT_EQ(key.interval.end_seconds, std::numeric_limits<int>::max());
  EXPECT_EQ(counts_of(entry), std::vector<std::uint32_t>{4294967295u});
}

TEST(Dictionary, LoadRejectsRowsPastTheDeclaredCountAndBadCombineFlags) {
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      Dictionary::load(text);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    return "loaded";
  };
  const std::string head =
      "EFD-DICT-V1\nmetrics m\nintervals 60:120\ndepth 2\n";
  const std::string header = head + "combine 0\n";
  const std::string row = "m|0|60:120|6000.0|ft_X=1\n";

  // A row past the declared count, or trailing text, is not dropped.
  const std::string extra = "malformed dictionary: text after the declared key rows";
  EXPECT_EQ(error_of(header + "keys 1\n" + row + "m|1|60:120|6000.0|mg_X=1\n"),
            extra);
  EXPECT_EQ(error_of(header + "keys 1\n" + row + "garbage"), extra);
  EXPECT_EQ(error_of(header + "keys 0\n" + row), extra);
  EXPECT_EQ(error_of(header + "keys 1\n" + row + "\n\n" + row), extra);
  // Blank lines after the rows are not text.
  EXPECT_EQ(Dictionary::load(header + "keys 1\n" + row + "\n\n").size(), 1u);

  // Only 0 and 1 are combine flags.
  const std::string flag = "malformed dictionary: bad combine flag";
  for (const char* bad : {"yes", "2", "", " 1", "1 ", "01", "true"}) {
    EXPECT_EQ(error_of(head + "combine " + bad + "\nkeys 1\n" + row), flag)
        << "combine '" << bad << "'";
  }
  EXPECT_FALSE(Dictionary::load(head + "combine 0\nkeys 1\n" + row)
                   .config()
                   .combine_metrics);
  EXPECT_TRUE(Dictionary::load(head + "combine 1\nkeys 1\n" + row)
                  .config()
                  .combine_metrics);
}

// Checked-in EFD-DICT-V1: every mean rendering the writer must keep
// (integral ".0", plain decimals, negatives, small and large exponents,
// the full 10 significant digits, nan), multi-mean and multi-label rows,
// and the key order (metric, begin, means, node).
constexpr char kGoldenDictionary[] =
    "EFD-DICT-V1\n"
    "metrics m,n\n"
    "intervals 60:120 120:180\n"
    "depth 2\n"
    "combine 0\n"
    "keys 10\n"
    "m|0|60:120|-2.0|ft_X=1\n"
    "m|0|60:120|1e-05|ft_X=2\n"
    "m|0|60:120|0.04|sp_X=1,bt_X=3\n"
    "m|0|60:120|5.3|mg_Y=1\n"
    "m|0|60:120|6000.0|ft_X=1\n"
    "m|1|60:120|6000.0|ft_X=1\n"
    "m|0|60:120|1.23456789e+10|cg_X=1\n"
    "m|2|60:120|1.234567891e+21|lu_X=4294967295\n"
    "m|3|120:180|5.3,6000.0|ft_X=1,mg_Y=2\n"
    "n|0|60:120|nan|ep_X=1\n";

TEST(Dictionary, GoldenTextLoadsAndResavesByteForByte) {
  const Dictionary loaded = Dictionary::load(std::string_view(kGoldenDictionary));
  EXPECT_EQ(loaded.size(), 10u);
  std::string text;
  loaded.save(text);
  EXPECT_EQ(text, kGoldenDictionary);
  std::ostringstream stream;
  loaded.save(stream);
  EXPECT_EQ(stream.str(), kGoldenDictionary);
}

TEST(Dictionary, WriterRendersMeansExactlyLikeFormatMean) {
  // The writer renders means with to_chars; util::format_mean (%.10g via
  // snprintf) is the reference it must match digit for digit.
  std::mt19937_64 rng(20211);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  std::vector<double> means;
  means.reserve(100000);
  while (means.size() < 100000) {
    double value = 0.0;
    switch (means.size() % 4) {
      case 0: {  // arbitrary finite bit patterns
        const std::uint64_t bits = rng();
        std::memcpy(&value, &bits, sizeof(value));
        if (!std::isfinite(value)) continue;
        break;
      }
      case 1:  // any magnitude
        value = (unit(rng) - 0.5) * std::pow(10.0, exponent(rng));
        break;
      case 2:  // integral values, where the ".0" rule applies
        value = std::round((unit(rng) - 0.5) * 1e12);
        break;
      default:  // rounded means as training makes them
        value = round_to_depth(unit(rng) * std::pow(10.0, exponent(rng)), 2);
        break;
    }
    means.push_back(value);
  }
  means.push_back(-0.0);
  means.push_back(std::numeric_limits<double>::max());
  means.push_back(std::numeric_limits<double>::denorm_min());

  // Eight means per key; each key's node is its ordinal so keys stay
  // distinct whatever the values.
  Dictionary dictionary(config_of());
  constexpr std::size_t kMeansPerKey = 8;
  for (std::size_t first = 0; first < means.size(); first += kMeansPerKey) {
    FingerprintKey key = key_of(0.0, static_cast<std::uint32_t>(first));
    key.rounded_means.assign(
        means.begin() + static_cast<std::ptrdiff_t>(first),
        means.begin() + static_cast<std::ptrdiff_t>(
                            std::min(first + kMeansPerKey, means.size())));
    dictionary.insert(key, "ft_X");
  }
  std::string text;
  dictionary.save(text);

  std::istringstream lines(text);
  std::string line;
  for (int header = 0; header < 6; ++header) std::getline(lines, line);
  std::size_t rows = 0;
  for (const std::uint32_t ordinal : dictionary.sorted_order()) {
    ASSERT_TRUE(std::getline(lines, line));
    const std::vector<double> means = dictionary.entry(ordinal).key().rounded_means;
    std::string expected;
    for (std::size_t i = 0; i < means.size(); ++i) {
      if (i != 0) expected += ',';
      expected += efd::util::format_mean(means[i]);
    }
    const auto fields = efd::util::split(line, '|');
    ASSERT_EQ(fields.size(), 5u) << line;
    ASSERT_EQ(fields[3], expected) << "row " << rows;
    ++rows;
  }
  EXPECT_EQ(rows, dictionary.size());
}

TEST(Dictionary, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/efd_dict_test.txt";
  Dictionary original(config_of());
  original.insert(key_of(6000.0), "ft_X");
  original.save_file(path);
  const Dictionary loaded = Dictionary::load_file(path);
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());
  EXPECT_THROW(Dictionary::load_file("/no/such/file"), std::runtime_error);
}

/// Writes \p text to \p path through a temporary file renamed over it,
/// as an operator replaces a served dictionary.
void replace_file(const std::string& path, const std::string& text) {
  const std::string temporary = path + ".tmp";
  std::ofstream(temporary, std::ios::binary) << text;
  ASSERT_EQ(std::rename(temporary.c_str(), path.c_str()), 0);
}

TEST(Dictionary, ReadFileReadsTheFileItOpened) {
  // A dictionary renamed over the path between the open and the read,
  // longer or shorter than the one opened: the descriptor's own file is
  // read whole, sized by the descriptor and not by the path.
  const std::string path = ::testing::TempDir() + "/efd_dict_replaced.txt";
  Dictionary original(config_of());
  original.insert(key_of(6000.0), "ft_X");
  original.insert(key_of(7000.0), "mg_X");
  std::string opened;
  original.save(opened);
  Dictionary shorter(config_of());
  shorter.insert(key_of(1.0), "ft_X");
  std::string replacement;
  shorter.save(replacement);
  const std::string longer = opened + opened;
  for (const std::string& replaced : {replacement, longer}) {
    replace_file(path, opened);
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    replace_file(path, replaced);
    EXPECT_EQ(detail::read_descriptor(fd, path), opened);
    ::close(fd);
    EXPECT_EQ(Dictionary::read_file(path), replaced);
  }
  std::remove(path.c_str());
  try {
    Dictionary::read_file("/no/such/file");
    ADD_FAILURE() << "read a missing file";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "cannot open dictionary: /no/such/file");
  }
}

TEST(Dictionary, ReadFileReadsAPipeToItsEnd) {
  // A pipe has no length: it is read until its writer closes it, through
  // a path (/proc/self/fd) as through a descriptor.
  std::string text;
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(6000.0), "ft_X");
  dictionary.save(text);
  for (const bool by_path : {false, true}) {
    int ends[2];
    ASSERT_EQ(::pipe(ends), 0);
    ASSERT_EQ(::write(ends[1], text.data(), text.size()),
              static_cast<ssize_t>(text.size()));
    ::close(ends[1]);
    const std::string path = "/proc/self/fd/" + std::to_string(ends[0]);
    EXPECT_EQ(by_path ? Dictionary::read_file(path)
                      : detail::read_descriptor(ends[0], path),
              text);
    ::close(ends[0]);
  }
}

TEST(Dictionary, EmptyDictionaryBehaviour) {
  Dictionary dictionary(config_of());
  EXPECT_TRUE(dictionary.empty());
  EXPECT_FALSE(dictionary.lookup(key_of(1.0)));
  EXPECT_EQ(dictionary.stats().key_count, 0u);
  EXPECT_DOUBLE_EQ(dictionary.stats().mean_labels_per_key, 0.0);
  std::stringstream stream;
  dictionary.save(stream);
  EXPECT_EQ(Dictionary::load(stream).size(), 0u);
}

TEST(Dictionary, SaveLoadRoundTripPreservesLabelOrderAndCounts) {
  Dictionary original(config_of());
  original.insert(key_of(7500.0), "sp_X");
  original.insert(key_of(7500.0), "bt_X");
  original.insert(key_of(7500.0), "bt_X");

  std::stringstream stream;
  original.save(stream);
  const Dictionary loaded = Dictionary::load(stream);
  const auto entry = loaded.lookup(key_of(7500.0));
  ASSERT_TRUE(entry);
  EXPECT_EQ(labels_of(*entry), (std::vector<std::string>{"sp_X", "bt_X"}));
  EXPECT_EQ(counts_of(*entry), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_LT(loaded.application_order("sp"), loaded.application_order("bt"));
}

TEST(Dictionary, SaveLoadRoundTripKeepsTieOrder) {
  // Ties must still resolve to the first-seen application after a
  // save -> load cycle (paper Section 3 / Table 4).
  Dictionary original(config_of());
  original.insert(key_of(7500.0), "sp_X");  // sp first
  original.insert(key_of(7500.0), "bt_X");
  original.insert(key_of(7500.0), "sp_X");
  original.insert(key_of(6000.0), "ft_X");

  std::stringstream stream;
  original.save(stream);
  const Dictionary loaded = Dictionary::load(stream);

  EXPECT_EQ(loaded.size(), original.size());
  const auto entry = loaded.lookup(key_of(7500.0));
  ASSERT_TRUE(entry);
  EXPECT_EQ(labels_of(*entry), (std::vector<std::string>{"sp_X", "bt_X"}));
  EXPECT_EQ(counts_of(*entry), (std::vector<std::uint32_t>{2, 1}));

  const RecognitionResult result =
      Matcher(loaded).recognize_keys({key_of(7500.0)});
  ASSERT_TRUE(result.recognized);
  EXPECT_EQ(result.applications, (std::vector<std::string>{"sp", "bt"}));
  EXPECT_EQ(result.prediction(), "sp");
}

TEST(Dictionary, PruneRareAndStatsOverMixedKeys) {
  Dictionary dictionary(config_of());
  for (int i = 0; i < 5; ++i) dictionary.insert(key_of(6000.0), "ft_X");
  dictionary.insert(key_of(9999.0), "ft_X");
  dictionary.insert(key_of(7500.0), "sp_X");
  dictionary.insert(key_of(7500.0), "bt_X");

  const DictionaryStats stats = dictionary.stats();
  EXPECT_EQ(stats.key_count, 3u);
  EXPECT_EQ(stats.exclusive_keys, 2u);
  EXPECT_EQ(stats.colliding_keys, 1u);
  EXPECT_EQ(stats.total_observations, 8u);
  EXPECT_DOUBLE_EQ(stats.mean_labels_per_key, 4.0 / 3.0);

  EXPECT_EQ(dictionary.prune_rare(2), 1u);  // only the one-off 9999 key
  EXPECT_EQ(dictionary.size(), 2u);
  EXPECT_FALSE(dictionary.lookup(key_of(9999.0)));
}

TEST(Dictionary, KeysForLabelFollowSortedEntryOrder) {
  Dictionary dictionary(config_of());
  for (double mean : {7500.0, 6000.0, 6100.0}) {
    dictionary.insert(key_of(mean), "ft_X");
  }
  const auto keys = dictionary.keys_for_label("ft_X");
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_DOUBLE_EQ(keys[0].rounded_means[0], 6000.0);
  EXPECT_DOUBLE_EQ(keys[1].rounded_means[0], 6100.0);
  EXPECT_DOUBLE_EQ(keys[2].rounded_means[0], 7500.0);
}

}  // namespace

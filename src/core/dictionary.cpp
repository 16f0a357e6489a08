#include "core/dictionary.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/string_utils.hpp"

namespace efd::core {

bool DictionaryEntry::contains(const std::string& label) const {
  // No run holds kNoLabelId, the id of a label never interned.
  const std::span<const std::uint32_t> ids = label_ids();
  return std::find(ids.begin(), ids.end(), labels_->id_of(label)) != ids.end();
}

std::uint64_t DictionaryEntry::total_count() const noexcept {
  const std::span<const std::uint32_t> observed = counts();
  return std::accumulate(observed.begin(), observed.end(), std::uint64_t{0});
}

void Dictionary::insert(const FingerprintKey& key, const std::string& label,
                        std::uint32_t count) {
  if (count == 0) return;
  // Only an unpublished dictionary is ever mutated (epochs are const), so
  // nothing probes the table while it grows.
  index_.add_label(index_.find_or_add(key), labels_.intern(label), count);
}

std::optional<DictionaryEntry> Dictionary::lookup(
    const FingerprintKey& key) const {
  const DictionaryIndex::Entry* row = index_.find(key);
  if (row == nullptr) return std::nullopt;
  return DictionaryEntry(index_, labels_, *row);
}

std::size_t Dictionary::application_order(const std::string& application) const {
  std::uint32_t id = 0;
  while (id < labels_.application_count() &&
         labels_.application_name(id) != application) {
    ++id;
  }
  return id;  // unknowns rank last
}

std::vector<std::string> Dictionary::applications_in_order() const {
  std::vector<std::string> ordered;
  for (std::uint32_t id = 0; id < labels_.application_count(); ++id) {
    ordered.push_back(labels_.application_name(id));
  }
  return ordered;
}

std::size_t Dictionary::prune_rare(std::uint32_t min_observations) {
  // The kept rows, re-appended in their order into a fresh table; label
  // ids stay valid because the label table is untouched.
  DictionaryIndex kept;
  for (std::size_t i = 0; i < size(); ++i) {
    const DictionaryEntry row = entry(i);
    if (row.total_count() < min_observations) continue;
    const std::uint32_t ordinal = kept.find_or_add(row.key());
    for (std::size_t l = 0; l < row.size(); ++l) {
      kept.add_label(ordinal, row.label_ids()[l], row.counts()[l]);
    }
  }
  const std::size_t removed = size() - kept.key_count();
  index_ = std::move(kept);
  return removed;
}

void Dictionary::merge(const Dictionary& other) {
  const auto same_config = [&] {
    const FingerprintConfig& a = config_;
    const FingerprintConfig& b = other.config_;
    return a.metrics == b.metrics && a.intervals == b.intervals &&
           a.rounding_depth == b.rounding_depth &&
           a.combine_metrics == b.combine_metrics;
  };
  if (!same_config()) {
    throw std::invalid_argument("cannot merge dictionaries with different configs");
  }
  // Intern the source's labels in its own id order first: its new
  // applications then rank after ours in its order, whatever the entry
  // order below.
  std::vector<std::uint32_t> ids_here(other.labels_.label_count());
  for (std::uint32_t id = 0; id < ids_here.size(); ++id) {
    ids_here[id] = labels_.intern(other.labels_.label_name(id));
  }
  for (const DictionaryIndex::Entry& row : other.index_.entries_) {
    const auto ids = other.index_.label_ids(row);
    const auto counts = other.index_.counts(row);
    std::optional<std::uint32_t> ordinal;  // insert() skips zero counts
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (counts[i] == 0) continue;
      if (!ordinal) ordinal = index_.find_or_add(other.index_.key_of(row));
      index_.add_label(*ordinal, ids_here[ids[i]], counts[i]);
    }
  }
}

DictionaryStats Dictionary::stats() const {
  DictionaryStats stats;
  stats.key_count = size();
  std::size_t label_total = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    const DictionaryEntry row = entry(i);
    const auto ids = row.label_ids();
    const bool exclusive = std::all_of(ids.begin(), ids.end(), [&](std::uint32_t id) {
      return labels_.application_of(id) == labels_.application_of(ids.front());
    });
    ++(exclusive ? stats.exclusive_keys : stats.colliding_keys);
    label_total += row.size();
    stats.total_observations += row.total_count();
  }
  stats.mean_labels_per_key =
      empty() ? 0.0
              : static_cast<double>(label_total) / static_cast<double>(size());
  return stats;
}

std::vector<std::uint32_t> Dictionary::sorted_order() const {
  // Table-4 key ordering: metric, interval begin, means, node; the
  // interval end only splits keys that agree on everything else, so the
  // order is total. Distinct metric ids name distinct metrics.
  const std::span<const DictionaryIndex::Entry> rows = index_.entries_;
  std::vector<std::uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const DictionaryIndex::Entry& x = rows[a];
    const DictionaryIndex::Entry& y = rows[b];
    if (x.metric_id != y.metric_id) {
      return index_.metric_names_[x.metric_id] < index_.metric_names_[y.metric_id];
    }
    if (x.begin_seconds != y.begin_seconds) {
      return x.begin_seconds < y.begin_seconds;
    }
    const double* mx = index_.means_.data() + x.means_begin;
    const double* my = index_.means_.data() + y.means_begin;
    if (!std::equal(mx, mx + x.means_count, my, my + y.means_count)) {
      return std::lexicographical_compare(mx, mx + x.means_count, my,
                                          my + y.means_count);
    }
    if (x.node_id != y.node_id) return x.node_id < y.node_id;
    return x.end_seconds < y.end_seconds;
  });
  return order;
}

std::vector<FingerprintKey> Dictionary::keys_for_label(
    const std::string& label) const {
  std::vector<FingerprintKey> keys;
  for (const std::uint32_t ordinal : sorted_order()) {
    const DictionaryEntry row = entry(ordinal);
    if (row.contains(label)) keys.push_back(row.key());
  }
  return keys;
}

namespace {

constexpr std::string_view kFormatTag = "EFD-DICT-V1";

/// util::parse_int narrowed to T: nullopt when the text is not an integer
/// or its value does not fit T, where a static_cast would wrap or
/// truncate (a label count of 2^32 would become 0).
template <typename T>
std::optional<T> parse_as(std::string_view text) {
  const auto value = util::parse_int(text);
  if (!value || !std::in_range<T>(*value)) return std::nullopt;
  return static_cast<T>(*value);
}

void append_int(std::string& out, long long value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

/// util::format_mean's bytes without its snprintf and temporary string:
/// to_chars with general format and precision 10 is printf's %.10g, and
/// the same ".0" rule keeps a decimal point on integral values.
void append_mean(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "nan";
    return;
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 10);
  const std::string_view text(buffer, static_cast<std::size_t>(result.ptr - buffer));
  out += text;
  if (text.find_first_of(".e") == std::string_view::npos) out += ".0";
}

/// Calls fn on each \p delimiter-separated token of \p text, empty tokens
/// included (util::split's tokens, without the vector).
template <typename Fn>
void for_each_token(std::string_view text, char delimiter, Fn&& fn) {
  while (true) {
    const std::size_t pos = text.find(delimiter);
    fn(text.substr(0, pos));
    if (pos == std::string_view::npos) return;
    text.remove_prefix(pos + 1);
  }
}

/// Splits \p text into exactly N tokens; false on any other count.
template <std::size_t N>
bool split_exact(std::string_view text, char delimiter,
                 std::array<std::string_view, N>& out) {
  std::size_t count = 0;
  for_each_token(text, delimiter, [&](std::string_view token) {
    if (count < N) out[count] = token;
    ++count;
  });
  return count == N;
}

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error("malformed dictionary: " + why);
}

/// std::getline over a string: yields each '\n'-terminated line (the last
/// line may lack its '\n'). A line ending in '\r' is a CRLF file, which
/// is not EFD-DICT-V1.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t newline = rest_.find('\n');
    line = rest_.substr(0, newline);
    rest_.remove_prefix(newline == std::string_view::npos ? rest_.size()
                                                          : newline + 1);
    if (!line.empty() && line.back() == '\r') fail("CRLF line ending");
    return true;
  }

 private:
  std::string_view rest_;
};

}  // namespace

void Dictionary::save(std::string& out) const {
  const std::vector<std::uint32_t> order = sorted_order();
  // ~40 bytes per row in practice; one reservation covers most of it.
  out.reserve(out.size() + 64 + order.size() * 48);
  out += kFormatTag;
  out += "\nmetrics ";
  out += util::join(config_.metrics, ",");
  out += "\nintervals";
  for (const auto& interval : config_.intervals) {
    out += ' ';
    append_int(out, interval.begin_seconds);
    out += ':';
    append_int(out, interval.end_seconds);
  }
  out += "\ndepth ";
  append_int(out, config_.rounding_depth);
  out += "\ncombine ";
  out += config_.combine_metrics ? '1' : '0';
  out += "\nkeys ";
  append_int(out, static_cast<long long>(order.size()));
  out += '\n';
  const std::span<const DictionaryIndex::Entry> rows = index_.entries_;
  for (const std::uint32_t ordinal : order) {
    const DictionaryIndex::Entry& row = rows[ordinal];
    out += index_.metric_names_[row.metric_id];
    out += '|';
    append_int(out, row.node_id);
    out += '|';
    append_int(out, row.begin_seconds);
    out += ':';
    append_int(out, row.end_seconds);
    out += '|';
    for (std::uint32_t i = 0; i < row.means_count; ++i) {
      if (i != 0) out += ',';
      append_mean(out, index_.means_[row.means_begin + i]);
    }
    out += '|';
    const std::span<const std::uint32_t> ids = index_.label_ids(row);
    const std::span<const std::uint32_t> counts = index_.counts(row);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i != 0) out += ',';
      out += labels_.label_name(ids[i]);
      out += '=';
      append_int(out, counts[i]);
    }
    out += '\n';
  }
}

void Dictionary::save(std::ostream& out) const {
  std::string text;
  save(text);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void Dictionary::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save(out);
  if (!out) throw std::runtime_error("write failed: " + path);
}

Dictionary Dictionary::load(std::string_view text) {
  const auto start = std::chrono::steady_clock::now();
  LineReader lines(text);
  std::string_view line;

  if (!lines.next(line) || line != kFormatTag) fail("bad header");

  FingerprintConfig config;
  config.intervals.clear();

  if (!lines.next(line) || !util::starts_with(line, "metrics "))
    fail("missing metrics");
  const std::string_view metric_csv = line.substr(8);
  if (!metric_csv.empty()) config.metrics = util::split(metric_csv, ',');

  if (!lines.next(line) || !util::starts_with(line, "intervals"))
    fail("missing intervals");
  for_each_token(line, ' ', [&](std::string_view token) {
    if (token == "intervals" || token.empty()) return;
    std::array<std::string_view, 2> bounds;
    if (!split_exact(token, ':', bounds)) fail("bad interval token");
    const auto begin = parse_as<int>(bounds[0]);
    const auto end = parse_as<int>(bounds[1]);
    if (!begin || !end) fail("bad interval numbers");
    config.intervals.push_back({*begin, *end});
  });

  if (!lines.next(line) || !util::starts_with(line, "depth "))
    fail("missing depth");
  const auto depth = parse_as<int>(line.substr(6));
  if (!depth) fail("bad depth");
  config.rounding_depth = *depth;

  if (!lines.next(line) || !util::starts_with(line, "combine "))
    fail("missing combine flag");
  config.combine_metrics = line.substr(8) == "1";

  if (!lines.next(line) || !util::starts_with(line, "keys "))
    fail("missing key count");
  const auto key_count = util::parse_int(line.substr(5));
  if (!key_count || *key_count < 0) fail("bad key count");

  Dictionary dictionary(config);
  // A row is at least 14 bytes ("m|0|0:0|0|a=1\n") and a mean at least
  // 2 ("0,"), so the text bounds how much a hostile header can make this
  // reserve. One label per key is the common shape.
  const std::size_t rows = static_cast<std::size_t>(
      std::min<long long>(*key_count, static_cast<long long>(text.size() / 14)));
  DictionaryIndex& index = dictionary.index_;
  index.entries_.reserve(rows);
  index.hashes_.reserve(rows);
  index.means_.reserve(config.combine_metrics
                           ? std::min(rows * config.metrics.size(), text.size() / 2)
                           : rows);
  index.label_ids_.reserve(rows);
  index.counts_.reserve(rows);
  if (rows != 0) index.resize_table(rows);
  // Rows of one label are common (all of B1's decoys): the previous
  // token's id is reused without hashing the name again.
  std::string label;
  std::uint32_t label_id = kNoLabelId;
  FingerprintKey key;  // its buffers are reused row after row
  for (long long k = 0; k < *key_count; ++k) {
    if (!lines.next(line)) fail("truncated key list");
    std::array<std::string_view, 5> fields;
    if (!split_exact(line, '|', fields)) fail("bad key row");
    key.metric.assign(fields[0]);
    const auto node = parse_as<std::uint32_t>(fields[1]);
    if (!node) fail("bad node id");
    key.node_id = *node;
    std::array<std::string_view, 2> bounds;
    if (!split_exact(fields[2], ':', bounds)) fail("bad key interval");
    const auto ib = parse_as<int>(bounds[0]);
    const auto ie = parse_as<int>(bounds[1]);
    if (!ib || !ie) fail("bad key interval numbers");
    key.interval = {*ib, *ie};
    key.rounded_means.clear();
    for_each_token(fields[3], ',', [&](std::string_view mean_text) {
      const auto mean = util::parse_double(mean_text);
      if (!mean) fail("bad mean");
      key.rounded_means.push_back(*mean);
    });
    const std::uint32_t ordinal = index.find_or_add(key);
    for_each_token(fields[4], ',', [&](std::string_view label_token) {
      const std::size_t eq = label_token.rfind('=');
      if (eq == std::string_view::npos) fail("bad label token");
      const auto count = parse_as<std::uint32_t>(label_token.substr(eq + 1));
      if (!count || *count < 1) fail("bad label count");
      const std::string_view name = label_token.substr(0, eq);
      if (label_id == kNoLabelId || name != label) {
        label.assign(name);
        label_id = dictionary.labels_.intern(label);
      }
      index.add_label(ordinal, label_id, *count);
    });
  }
  index.build_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return dictionary;
}

Dictionary Dictionary::load(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return load(std::move(text).str());
}

Dictionary Dictionary::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open dictionary: " + path);
  return load(in);
}

}  // namespace efd::core

#include "core/dictionary.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/dictionary_index.hpp"
#include "telemetry/execution_record.hpp"
#include "util/string_utils.hpp"

namespace efd::core {

bool DictionaryEntry::contains(const std::string& label) const {
  return std::find(labels.begin(), labels.end(), label) != labels.end();
}

std::uint64_t DictionaryEntry::total_count() const noexcept {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

void Dictionary::insert(const FingerprintKey& key, const std::string& label,
                        std::uint32_t count) {
  if (count == 0) return;
  // Only an unpublished dictionary is ever mutated (epochs are const), so
  // nothing probes the index this drops.
  index_.reset();
  observe(entries_[key], label, count);
}

void Dictionary::observe(DictionaryEntry& entry, const std::string& label,
                         std::uint32_t count) {
  const std::size_t interned = labels_.label_count();
  const std::uint32_t label_id = labels_.intern(label);
  if (labels_.label_count() != interned) {
    // A label's application was ranked when the label was first interned,
    // so only a new label can introduce a new application.
    application_first_seen_.emplace(telemetry::parse_label(label).application,
                                    application_first_seen_.size());
  }
  // label_ids is aligned with labels, so matching ids finds the label
  // without string compares.
  for (std::size_t i = 0; i < entry.label_ids.size(); ++i) {
    if (entry.label_ids[i] == label_id) {
      entry.counts[i] += count;
      return;
    }
  }
  entry.labels.push_back(label);
  entry.counts.push_back(count);
  entry.label_ids.push_back(label_id);
}

const DictionaryEntry* Dictionary::lookup(const FingerprintKey& key) const {
  const auto it = entries_.find(key);
  return it != entries_.end() ? &it->second : nullptr;
}

std::size_t Dictionary::application_order(const std::string& application) const {
  const auto it = application_first_seen_.find(application);
  return it != application_first_seen_.end()
             ? it->second
             : application_first_seen_.size();  // unknowns sort last
}

std::vector<std::string> Dictionary::applications_in_order() const {
  std::vector<std::string> ordered(application_first_seen_.size());
  for (const auto& [application, rank] : application_first_seen_) {
    ordered[rank] = application;
  }
  return ordered;
}

std::size_t Dictionary::prune_rare(std::uint32_t min_observations) {
  index_.reset();
  std::size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.total_count() < min_observations) {
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
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
  // Adopt the source's application epoch order first so tie-breaking
  // stays deterministic regardless of entry iteration order below.
  for (const std::string& application : other.applications_in_order()) {
    application_first_seen_.emplace(application,
                                    application_first_seen_.size());
  }
  for (const auto& [key, entry] : other.entries_) {
    for (std::size_t i = 0; i < entry.labels.size(); ++i) {
      insert(key, entry.labels[i], entry.counts[i]);
    }
  }
}

DictionaryStats Dictionary::stats() const {
  DictionaryStats stats;
  stats.key_count = entries_.size();
  std::size_t label_total = 0;
  for (const auto& [key, entry] : entries_) {
    std::set<std::string> applications;
    for (const auto& label : entry.labels) {
      applications.insert(telemetry::parse_label(label).application);
    }
    if (applications.size() <= 1) ++stats.exclusive_keys;
    else ++stats.colliding_keys;
    label_total += entry.labels.size();
    stats.total_observations += entry.total_count();
  }
  stats.mean_labels_per_key =
      entries_.empty() ? 0.0
                       : static_cast<double>(label_total) /
                             static_cast<double>(entries_.size());
  return stats;
}

namespace {

/// Table-4 key ordering of sorted_view() and the serialization (metric,
/// interval begin, means, node; the interval end only splits keys that
/// agree on everything else, so the order is total).
bool fingerprint_key_before(const FingerprintKey& a, const FingerprintKey& b) {
  if (a.metric != b.metric) return a.metric < b.metric;
  if (a.interval.begin_seconds != b.interval.begin_seconds) {
    return a.interval.begin_seconds < b.interval.begin_seconds;
  }
  if (a.rounded_means != b.rounded_means) {
    return a.rounded_means < b.rounded_means;
  }
  if (a.node_id != b.node_id) return a.node_id < b.node_id;
  return a.interval.end_seconds < b.interval.end_seconds;
}

}  // namespace

std::vector<const Dictionary::Row*> Dictionary::sorted_view() const {
  // Most comparisons are settled by the metric, the interval begin and
  // the first mean. Copying those into flat records keeps the sort off
  // the map's nodes and each key's heap-held metric and means; only ties
  // on all three fall back to fingerprint_key_before. The metric becomes
  // its rank among the distinct metric names, which orders like the name.
  struct SortRecord {
    std::uint32_t metric_rank;
    int begin;
    double first_mean;  ///< -inf for no means: the empty vector sorts first
    const Row* row;
  };
  std::map<std::string_view, std::uint32_t> metric_rank;
  // try_emplace builds a node only for a metric not yet in the map.
  for (const Row& row : entries_) {
    metric_rank.try_emplace(row.first.metric, 0);
  }
  std::uint32_t next_rank = 0;
  for (auto& [metric, rank] : metric_rank) rank = next_rank++;

  std::vector<SortRecord> records;
  records.reserve(entries_.size());
  for (const Row& row : entries_) {
    const FingerprintKey& key = row.first;
    records.push_back({metric_rank.find(key.metric)->second,
                       key.interval.begin_seconds,
                       key.rounded_means.empty()
                           ? -std::numeric_limits<double>::infinity()
                           : key.rounded_means.front(),
                       &row});
  }
  std::sort(records.begin(), records.end(),
            [](const SortRecord& a, const SortRecord& b) {
              if (a.metric_rank != b.metric_rank) {
                return a.metric_rank < b.metric_rank;
              }
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.first_mean < b.first_mean) return true;
              if (b.first_mean < a.first_mean) return false;
              return fingerprint_key_before(a.row->first, b.row->first);
            });
  std::vector<const Row*> rows;
  rows.reserve(records.size());
  for (const SortRecord& record : records) rows.push_back(record.row);
  return rows;
}

std::vector<FingerprintKey> Dictionary::keys_for_label(
    const std::string& label) const {
  std::vector<FingerprintKey> keys;
  for (const Row* row : sorted_view()) {
    if (row->second.contains(label)) keys.push_back(row->first);
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

void Dictionary::save(std::string& out) const { save(out, sorted_view()); }

void Dictionary::save(std::string& out,
                      const std::vector<const Row*>& rows) const {
  // ~40 bytes per row in practice; one reservation covers most of it.
  out.reserve(out.size() + 64 + rows.size() * 48);
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
  append_int(out, static_cast<long long>(rows.size()));
  out += '\n';
  for (const Row* row : rows) {
    const auto& [key, entry] = *row;
    out += key.metric;
    out += '|';
    append_int(out, key.node_id);
    out += '|';
    append_int(out, key.interval.begin_seconds);
    out += ':';
    append_int(out, key.interval.end_seconds);
    out += '|';
    for (std::size_t i = 0; i < key.rounded_means.size(); ++i) {
      if (i != 0) out += ',';
      append_mean(out, key.rounded_means[i]);
    }
    out += '|';
    for (std::size_t i = 0; i < entry.labels.size(); ++i) {
      if (i != 0) out += ',';
      out += entry.labels[i];
      out += '=';
      append_int(out, entry.counts[i]);
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
  // A row is at least 14 bytes ("m|0|0:0|0|a=1\n"), so the text bounds
  // how much a hostile key count can make this reserve.
  dictionary.entries_.reserve(static_cast<std::size_t>(
      std::min<long long>(*key_count, static_cast<long long>(text.size() / 14))));
  std::string label;
  for (long long k = 0; k < *key_count; ++k) {
    if (!lines.next(line)) fail("truncated key list");
    std::array<std::string_view, 5> fields;
    if (!split_exact(line, '|', fields)) fail("bad key row");
    FingerprintKey key;
    key.metric = fields[0];
    const auto node = parse_as<std::uint32_t>(fields[1]);
    if (!node) fail("bad node id");
    key.node_id = *node;
    std::array<std::string_view, 2> bounds;
    if (!split_exact(fields[2], ':', bounds)) fail("bad key interval");
    const auto ib = parse_as<int>(bounds[0]);
    const auto ie = parse_as<int>(bounds[1]);
    if (!ib || !ie) fail("bad key interval numbers");
    key.interval = {*ib, *ie};
    for_each_token(fields[3], ',', [&](std::string_view mean_text) {
      const auto mean = util::parse_double(mean_text);
      if (!mean) fail("bad mean");
      key.rounded_means.push_back(*mean);
    });
    DictionaryEntry& entry = dictionary.entries_[std::move(key)];
    for_each_token(fields[4], ',', [&](std::string_view label_token) {
      const std::size_t eq = label_token.rfind('=');
      if (eq == std::string_view::npos) fail("bad label token");
      const auto count = parse_as<std::uint32_t>(label_token.substr(eq + 1));
      if (!count || *count < 1) fail("bad label count");
      label.assign(label_token.substr(0, eq));
      dictionary.observe(entry, label, *count);
    });
  }
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

void Dictionary::compile_probe_index() {
  index_ = DictionaryIndex::compile(sorted_view());
}

std::string Dictionary::compile_for_publication() {
  const std::vector<const Row*> rows = sorted_view();
  index_ = DictionaryIndex::compile(rows);
  std::string text;
  save(text, rows);
  return text;
}

double Dictionary::index_build_seconds() const noexcept {
  return index_ != nullptr ? index_->build_seconds() : 0.0;
}

std::uint64_t Dictionary::index_resident_bytes() const noexcept {
  return index_ != nullptr ? index_->resident_bytes() : 0;
}

}  // namespace efd::core

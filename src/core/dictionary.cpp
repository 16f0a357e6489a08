#include "core/dictionary.hpp"

#include <algorithm>
#include <fstream>
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

void DictionaryEntry::observe(const std::string& label, std::uint32_t count) {
  if (count == 0) return;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) {
      counts[i] += count;
      return;
    }
  }
  labels.push_back(label);
  counts.push_back(count);
}

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
  const std::uint32_t label_id = labels_.intern(label);
  DictionaryEntry& entry = entries_[key];
  entry.observe(label, count);
  // observe() appends at most this one label at the end, so the id lists
  // stay aligned by appending exactly when labels grew.
  if (entry.label_ids.size() < entry.labels.size()) {
    entry.label_ids.push_back(label_id);
  }
  const std::string application = telemetry::parse_label(label).application;
  application_first_seen_.emplace(application, application_first_seen_.size());
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

/// Table-4 key ordering of sorted_entries() and the serialization
/// (metric, interval begin, means, node).
bool fingerprint_key_before(const FingerprintKey& a, const FingerprintKey& b) {
  if (a.metric != b.metric) return a.metric < b.metric;
  if (a.interval.begin_seconds != b.interval.begin_seconds) {
    return a.interval.begin_seconds < b.interval.begin_seconds;
  }
  if (a.rounded_means != b.rounded_means) {
    return a.rounded_means < b.rounded_means;
  }
  return a.node_id < b.node_id;
}

}  // namespace

std::vector<std::pair<FingerprintKey, DictionaryEntry>>
Dictionary::sorted_entries() const {
  std::vector<std::pair<FingerprintKey, DictionaryEntry>> sorted(
      entries_.begin(), entries_.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return fingerprint_key_before(a.first, b.first);
  });
  return sorted;
}

std::vector<FingerprintKey> Dictionary::keys_for_label(
    const std::string& label) const {
  std::vector<FingerprintKey> keys;
  for (const auto& [key, entry] : sorted_entries()) {
    if (entry.contains(label)) keys.push_back(key);
  }
  return keys;
}

namespace {

constexpr char kFormatTag[] = "EFD-DICT-V1";

/// util::parse_int narrowed to T: nullopt when the text is not an integer
/// or its value does not fit T, where a static_cast would wrap or
/// truncate (a label count of 2^32 would become 0).
template <typename T>
std::optional<T> parse_as(std::string_view text) {
  const auto value = util::parse_int(text);
  if (!value || !std::in_range<T>(*value)) return std::nullopt;
  return static_cast<T>(*value);
}

}  // namespace

void Dictionary::save(std::ostream& out) const {
  out << kFormatTag << '\n';
  out << "metrics " << util::join(config_.metrics, ",") << '\n';
  out << "intervals";
  for (const auto& interval : config_.intervals) {
    out << ' ' << interval.begin_seconds << ':' << interval.end_seconds;
  }
  out << '\n';
  out << "depth " << config_.rounding_depth << '\n';
  out << "combine " << (config_.combine_metrics ? 1 : 0) << '\n';
  const auto sorted = sorted_entries();
  out << "keys " << sorted.size() << '\n';
  for (const auto& [key, entry] : sorted) {
    out << key.metric << '|' << key.node_id << '|' << key.interval.begin_seconds
        << ':' << key.interval.end_seconds << '|';
    for (std::size_t i = 0; i < key.rounded_means.size(); ++i) {
      if (i != 0) out << ',';
      out << util::format_mean(key.rounded_means[i]);
    }
    out << '|';
    for (std::size_t i = 0; i < entry.labels.size(); ++i) {
      if (i != 0) out << ',';
      out << entry.labels[i] << '=' << entry.counts[i];
    }
    out << '\n';
  }
}

void Dictionary::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save(out);
  if (!out) throw std::runtime_error("write failed: " + path);
}

Dictionary Dictionary::load(std::istream& in) {
  std::string line;
  auto fail = [](const std::string& why) -> Dictionary {
    throw std::runtime_error("malformed dictionary: " + why);
  };

  if (!std::getline(in, line) || line != kFormatTag) return fail("bad header");

  FingerprintConfig config;
  config.intervals.clear();

  if (!std::getline(in, line) || !util::starts_with(line, "metrics "))
    return fail("missing metrics");
  const std::string metric_csv = line.substr(8);
  if (!metric_csv.empty()) config.metrics = util::split(metric_csv, ',');

  if (!std::getline(in, line) || !util::starts_with(line, "intervals"))
    return fail("missing intervals");
  for (const std::string& token : util::split(line, ' ')) {
    if (token == "intervals" || token.empty()) continue;
    const auto parts = util::split(token, ':');
    if (parts.size() != 2) return fail("bad interval token");
    const auto begin = parse_as<int>(parts[0]);
    const auto end = parse_as<int>(parts[1]);
    if (!begin || !end) return fail("bad interval numbers");
    config.intervals.push_back({*begin, *end});
  }

  if (!std::getline(in, line) || !util::starts_with(line, "depth "))
    return fail("missing depth");
  const auto depth = parse_as<int>(line.substr(6));
  if (!depth) return fail("bad depth");
  config.rounding_depth = *depth;

  if (!std::getline(in, line) || !util::starts_with(line, "combine "))
    return fail("missing combine flag");
  config.combine_metrics = line.substr(8) == "1";

  if (!std::getline(in, line) || !util::starts_with(line, "keys "))
    return fail("missing key count");
  const auto key_count = util::parse_int(line.substr(5));
  if (!key_count || *key_count < 0) return fail("bad key count");

  Dictionary dictionary(config);
  for (long long k = 0; k < *key_count; ++k) {
    if (!std::getline(in, line)) return fail("truncated key list");
    const auto fields = util::split(line, '|');
    if (fields.size() != 5) return fail("bad key row");
    FingerprintKey key;
    key.metric = fields[0];
    const auto node = parse_as<std::uint32_t>(fields[1]);
    if (!node) return fail("bad node id");
    key.node_id = *node;
    const auto interval_parts = util::split(fields[2], ':');
    if (interval_parts.size() != 2) return fail("bad key interval");
    const auto ib = parse_as<int>(interval_parts[0]);
    const auto ie = parse_as<int>(interval_parts[1]);
    if (!ib || !ie) return fail("bad key interval numbers");
    key.interval = {*ib, *ie};
    for (const std::string& mean_text : util::split(fields[3], ',')) {
      const auto mean = util::parse_double(mean_text);
      if (!mean) return fail("bad mean");
      key.rounded_means.push_back(*mean);
    }
    for (const std::string& label_token : util::split(fields[4], ',')) {
      const auto eq = label_token.rfind('=');
      if (eq == std::string::npos) return fail("bad label token");
      const auto count = parse_as<std::uint32_t>(label_token.substr(eq + 1));
      if (!count || *count < 1) return fail("bad label count");
      const std::string label = label_token.substr(0, eq);
      dictionary.insert(key, label, *count);
    }
  }
  return dictionary;
}

Dictionary Dictionary::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open dictionary: " + path);
  return load(in);
}

void Dictionary::compile_probe_index() {
  index_ = DictionaryIndex::compile(sorted_entries());
}

double Dictionary::index_build_seconds() const noexcept {
  return index_ != nullptr ? index_->build_seconds() : 0.0;
}

std::uint64_t Dictionary::index_resident_bytes() const noexcept {
  return index_ != nullptr ? index_->resident_bytes() : 0;
}

}  // namespace efd::core

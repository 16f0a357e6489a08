#include "core/sharded_dictionary.hpp"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <thread>

#include "telemetry/execution_record.hpp"

namespace efd::core {

std::size_t ShardedDictionary::default_shard_count() {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(kMaxShards, std::max<std::size_t>(1, hardware * 4));
}

ShardedDictionary::ShardedDictionary(FingerprintConfig config,
                                     std::size_t shard_count)
    : config_(std::move(config)) {
  if (shard_count == 0) shard_count = default_shard_count();
  shard_count = std::min(shard_count, kMaxShards);
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ShardedDictionary::compile_probe_index() {
  index_ = DictionaryIndex::compile(sorted_entries());
}

std::size_t ShardedDictionary::shard_of(
    const FingerprintKey& key) const noexcept {
  return FingerprintKeyHash{}(key) % shards_.size();
}

std::size_t ShardedDictionary::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

void ShardedDictionary::register_application(const std::string& application) {
  applications_.register_application(application);
}

void ShardedDictionary::insert(const FingerprintKey& key,
                               const std::string& label,
                               std::uint32_t count) {
  if (count == 0) return;
  // Only an unpublished dictionary is ever mutated (epochs are const), so
  // nothing probes the index this drops. The guard keeps concurrent
  // training inserts, which never have an index, to reads of index_.
  if (index_) index_.reset();
  // Lock-free when the application is already registered (every insert
  // but an application's first); no lock is ever held with a shard mutex.
  // Interning likewise happens before the shard lock, so a reader that
  // copies an entry out under the shard lock is guaranteed to find every
  // id it sees already published in the label table.
  applications_.register_application(telemetry::parse_label(label).application);
  const std::uint32_t label_id = labels_->intern(label);
  Shard& shard = *shards_[shard_of(key)];
  std::unique_lock lock(shard.mutex);
  DictionaryEntry& entry = shard.entries[key];
  entry.observe(label, count);
  // observe() appends at most this one label at the end; append the id
  // exactly when labels grew to keep the lists aligned.
  if (entry.label_ids.size() < entry.labels.size()) {
    entry.label_ids.push_back(label_id);
  }
}

bool ShardedDictionary::lookup_entry(const FingerprintKey& key,
                                     DictionaryEntry& out) const {
  out.labels.clear();
  out.counts.clear();
  out.label_ids.clear();
  const Shard& shard = *shards_[shard_of(key)];
  std::shared_lock lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return false;
  out = it->second;
  return true;
}

std::size_t ShardedDictionary::application_order(
    const std::string& application) const {
  return applications_.order_of(application);  // unknowns sort last
}

std::vector<std::string> ShardedDictionary::applications_in_order() const {
  return applications_.in_order();
}

std::size_t ShardedDictionary::prune_rare(std::uint32_t min_observations) {
  if (index_) index_.reset();
  std::size_t removed = 0;
  for (const auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    for (auto it = shard->entries.begin(); it != shard->entries.end();) {
      if (it->second.total_count() < min_observations) {
        it = shard->entries.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

void ShardedDictionary::merge(const Dictionary& other) {
  const FingerprintConfig& a = config_;
  const FingerprintConfig& b = other.config();
  if (!(a.metrics == b.metrics && a.intervals == b.intervals &&
        a.rounding_depth == b.rounding_depth &&
        a.combine_metrics == b.combine_metrics)) {
    throw std::invalid_argument(
        "cannot merge dictionaries with different configs");
  }
  // Adopt the source's application epoch order first so tie-breaking is
  // deterministic regardless of entry iteration order below.
  for (const std::string& application : other.applications_in_order()) {
    register_application(application);
  }
  for (const auto& [key, entry] : other) {
    for (std::size_t i = 0; i < entry.labels.size(); ++i) {
      insert(key, entry.labels[i], entry.counts[i]);
    }
  }
}

DictionaryStats ShardedDictionary::stats() const {
  DictionaryStats stats;
  std::size_t label_total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    stats.key_count += shard->entries.size();
    for (const auto& [key, entry] : shard->entries) {
      std::set<std::string> applications;
      for (const auto& label : entry.labels) {
        applications.insert(telemetry::parse_label(label).application);
      }
      if (applications.size() <= 1) ++stats.exclusive_keys;
      else ++stats.colliding_keys;
      label_total += entry.labels.size();
      stats.total_observations += entry.total_count();
    }
  }
  stats.mean_labels_per_key =
      stats.key_count == 0 ? 0.0
                           : static_cast<double>(label_total) /
                                 static_cast<double>(stats.key_count);
  return stats;
}

std::vector<std::pair<FingerprintKey, DictionaryEntry>>
ShardedDictionary::sorted_entries() const {
  std::vector<std::pair<FingerprintKey, DictionaryEntry>> sorted;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    sorted.insert(sorted.end(), shard->entries.begin(), shard->entries.end());
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return detail::fingerprint_key_before(a.first, b.first);
  });
  return sorted;
}

std::vector<FingerprintKey> ShardedDictionary::keys_for_label(
    const std::string& label) const {
  std::vector<FingerprintKey> keys;
  for (const auto& [key, entry] : sorted_entries()) {
    if (entry.contains(label)) keys.push_back(key);
  }
  return keys;
}

void ShardedDictionary::save(std::ostream& out) const {
  detail::save_dictionary_text(out, config_, sorted_entries());
}

void ShardedDictionary::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save(out);
  if (!out) throw std::runtime_error("write failed: " + path);
}

ShardedDictionary ShardedDictionary::load(std::istream& in,
                                          std::size_t shard_count) {
  return from_dictionary(Dictionary::load(in), shard_count);
}

ShardedDictionary ShardedDictionary::load_file(const std::string& path,
                                               std::size_t shard_count) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open dictionary: " + path);
  return load(in, shard_count);
}

ShardedDictionary ShardedDictionary::from_dictionary(
    const Dictionary& dictionary, std::size_t shard_count) {
  ShardedDictionary sharded(dictionary.config(), shard_count);
  sharded.merge(dictionary);
  return sharded;
}

Dictionary ShardedDictionary::to_dictionary() const {
  Dictionary dictionary(config_);
  // Replay observations label-by-label: entry label order and counts are
  // preserved, and pre-seeding the epoch order keeps tie-breaking exact.
  for (const std::string& application : applications_in_order()) {
    dictionary.register_application(application);
  }
  for (const auto& [key, entry] : sorted_entries()) {
    for (std::size_t i = 0; i < entry.labels.size(); ++i) {
      dictionary.insert(key, entry.labels[i], entry.counts[i]);
    }
  }
  return dictionary;
}

}  // namespace efd::core

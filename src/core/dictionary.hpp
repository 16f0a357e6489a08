#pragma once
/// \file dictionary.hpp
/// \brief The Execution Fingerprint Dictionary: a hash-based lookup table
/// from fingerprint keys to application information — the paper's core
/// data structure, analogous to Shazam's fingerprint index.
///
/// Keys are unique; each key's value is the ordered set of
/// "application_input" labels whose training executions produced that
/// fingerprint, plus per-label observation counts. Insertion order is
/// preserved because the paper resolves recognition ties by "the first
/// application name in the array" (Section 3) — e.g. SP before BT for
/// their shared depth-2 keys in Table 4.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dictionary_view.hpp"
#include "core/fingerprint.hpp"
#include "core/label_table.hpp"

namespace efd::core {

/// Value of one dictionary entry.
struct DictionaryEntry {
  /// Distinct full labels ("ft_X"), in first-observation order.
  std::vector<std::string> labels;
  /// How many training executions contributed each label (aligned with
  /// labels). Used for pruning statistics and the ablation benches.
  std::vector<std::uint32_t> counts;
  /// Interned id per label (aligned with labels) in the owning
  /// dictionary's LabelTable — the allocation-free scoring path votes on
  /// these instead of re-parsing label strings. Not serialized; id values
  /// depend on interning order, which sharded training makes
  /// nondeterministic, but labels/counts (the durable content) do not.
  std::vector<std::uint32_t> label_ids;

  /// Adds one observation of a label.
  void observe(const std::string& label) { observe(label, 1); }

  /// Adds \p count observations at once (bulk merge/load path).
  void observe(const std::string& label, std::uint32_t count);

  /// True if the entry contains the label.
  bool contains(const std::string& label) const;

  /// Total observations across labels.
  std::uint64_t total_count() const noexcept;
};

/// Exclusiveness/pruning statistics (Section 5 discussion).
struct DictionaryStats {
  std::size_t key_count = 0;          ///< unique fingerprints
  std::size_t exclusive_keys = 0;     ///< keys with exactly 1 application
  std::size_t colliding_keys = 0;     ///< keys shared by >= 2 applications
  double mean_labels_per_key = 0.0;
  std::uint64_t total_observations = 0;
};

/// The dictionary proper. Single-threaded: for concurrent training and
/// lookup use ShardedDictionary (sharded_dictionary.hpp), which exposes
/// the same interface behind per-shard locks.
class Dictionary : public DictionaryView {
 public:
  Dictionary() = default;

  /// Construction-time config; stored so lookups are guaranteed to use the
  /// same fingerprinting settings as training (the paper's "same rounding
  /// depth as in the learning phase").
  explicit Dictionary(FingerprintConfig config) : config_(std::move(config)) {}

  const FingerprintConfig& config() const noexcept override { return config_; }

  /// The label interner entries' label_ids index into. Shared (not
  /// deep-copied) between copies of a dictionary: the table is
  /// append-only, so a copy's ids stay valid against the shared table.
  const LabelTable& label_table() const noexcept override {
    return *labels_;
  }

  /// Number of unique keys.
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Adds one (key, label) observation. Creates the key if absent.
  void insert(const FingerprintKey& key, const std::string& label) {
    insert(key, label, 1);
  }

  /// Adds \p count observations of (key, label) at once.
  void insert(const FingerprintKey& key, const std::string& label,
              std::uint32_t count);

  /// Entry for a key, or nullptr if absent. O(1) expected.
  const DictionaryEntry* lookup(const FingerprintKey& key) const;

  /// DictionaryView copy-out lookup (see dictionary_view.hpp).
  bool lookup_entry(const FingerprintKey& key,
                    DictionaryEntry& out) const override;

  /// Application-name first-seen order (for deterministic tie arrays).
  /// Applications are indexed in the order their first key was inserted.
  std::size_t application_order(const std::string& application) const override;

  /// Application names in first-seen order (the global tie-break epoch
  /// order). Used to transplant the order into a ShardedDictionary.
  std::vector<std::string> applications_in_order() const;

  /// Pre-registers an application in the first-seen order without
  /// inserting a key (idempotent). Lets conversions from sharded
  /// dictionaries reproduce the tie-break epoch exactly.
  void register_application(const std::string& application);

  /// Removes all keys whose total observation count is below
  /// \p min_observations; returns the number of keys removed. Models
  /// eviction of one-off noise fingerprints.
  std::size_t prune_rare(std::uint32_t min_observations);

  /// Merges another dictionary built with the same config (distributed
  /// learning across ingest shards). Throws std::invalid_argument on
  /// config mismatch.
  void merge(const Dictionary& other);

  /// Aggregate statistics over keys.
  DictionaryStats stats() const;

  /// All entries, sorted lexicographically by key string rendering — the
  /// order used for the Table 4 dump and for serialization determinism.
  std::vector<std::pair<FingerprintKey, DictionaryEntry>> sorted_entries() const;

  /// Reverse lookup (Section 6: "using the dictionary in reverse"): every
  /// key observed for a full label, e.g. to predict a known application's
  /// expected resource usage.
  std::vector<FingerprintKey> keys_for_label(const std::string& label) const;

  /// Serializes to a line-oriented text format.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;

  /// Deserializes; throws std::runtime_error on malformed input,
  /// including integers that do not fit their field (a node id or label
  /// count outside u32, an interval bound or depth outside int).
  static Dictionary load(std::istream& in);
  static Dictionary load_file(const std::string& path);

  /// Iteration support (unordered).
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  FingerprintConfig config_;
  std::unordered_map<FingerprintKey, DictionaryEntry, FingerprintKeyHash> entries_;
  std::unordered_map<std::string, std::size_t> application_first_seen_;
  std::shared_ptr<LabelTable> labels_ = std::make_shared<LabelTable>();
};

namespace detail {

/// Table-4 key ordering shared by Dictionary and ShardedDictionary
/// sorted_entries/serialization (metric, interval begin, means, node).
bool fingerprint_key_before(const FingerprintKey& a, const FingerprintKey& b);

/// Writes the EFD-DICT-V1 text rendering of (config, sorted entries) —
/// the single source of truth for the on-disk format.
void save_dictionary_text(
    std::ostream& out, const FingerprintConfig& config,
    const std::vector<std::pair<FingerprintKey, DictionaryEntry>>& sorted_entries);

}  // namespace detail

}  // namespace efd::core

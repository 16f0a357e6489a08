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
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dictionary_index.hpp"
#include "core/fingerprint.hpp"
#include "core/label_table.hpp"

namespace efd::core {

/// One key's row, viewed in place in its dictionary's flat arrays: the
/// key and its labels, in first-observation order, with their
/// observation counts. Valid until the dictionary is mutated or
/// destroyed.
class DictionaryEntry {
 public:
  DictionaryEntry(const DictionaryIndex& index, const LabelTable& labels,
                  const DictionaryIndex::Entry& row) noexcept
      : index_(&index), labels_(&labels), row_(&row) {}

  /// The key, rebuilt as a FingerprintKey.
  FingerprintKey key() const { return index_->key_of(*row_); }

  /// Number of distinct labels.
  std::size_t size() const noexcept { return row_->labels_count; }
  /// Full label ("ft_X") \p i, named through the dictionary's LabelTable.
  const std::string& label(std::size_t i) const noexcept {
    return labels_->label_name(label_ids()[i]);
  }
  /// Interned label ids — the allocation-free scoring path votes on these.
  std::span<const std::uint32_t> label_ids() const noexcept {
    return index_->label_ids(*row_);
  }
  /// How many training executions contributed each label (aligned with
  /// label_ids()). Used for pruning statistics and the ablation benches.
  std::span<const std::uint32_t> counts() const noexcept {
    return index_->counts(*row_);
  }

  /// True if the entry contains the label.
  bool contains(const std::string& label) const;

  /// Total observations across labels.
  std::uint64_t total_count() const noexcept;

 private:
  const DictionaryIndex* index_;
  const LabelTable* labels_;
  const DictionaryIndex::Entry* row_;
};

/// Exclusiveness/pruning statistics (Section 5 discussion).
struct DictionaryStats {
  std::size_t key_count = 0;          ///< unique fingerprints
  std::size_t exclusive_keys = 0;     ///< keys with exactly 1 application
  std::size_t colliding_keys = 0;     ///< keys shared by >= 2 applications
  double mean_labels_per_key = 0.0;
  std::uint64_t total_observations = 0;
};

/// The dictionary proper: the one form of the EFD. Its rows live flat
/// in a DictionaryIndex (dictionary_index.hpp), which is also its only
/// lookup structure. Built single-threaded (train_dictionary, load,
/// merge), then published as a const epoch (dictionary_handle.hpp); a
/// published dictionary is never mutated, so any number of threads may
/// read it.
class Dictionary {
 public:
  Dictionary() = default;

  /// Construction-time config; stored so lookups are guaranteed to use the
  /// same fingerprinting settings as training (the paper's "same rounding
  /// depth as in the learning phase").
  explicit Dictionary(FingerprintConfig config) : config_(std::move(config)) {}

  const FingerprintConfig& config() const noexcept { return config_; }

  /// The label interner entries' label ids index into. insert() interns
  /// every label before it writes the entry, so every entry's label ids
  /// resolve here; a copy of the dictionary copies the table.
  const LabelTable& label_table() const noexcept { return labels_; }

  /// Number of unique keys.
  std::size_t size() const noexcept { return index_.key_count(); }
  bool empty() const noexcept { return size() == 0; }

  /// Adds one (key, label) observation. Creates the key if absent.
  void insert(const FingerprintKey& key, const std::string& label) {
    insert(key, label, 1);
  }

  /// Adds \p count observations of (key, label) at once.
  void insert(const FingerprintKey& key, const std::string& label,
              std::uint32_t count);

  /// Entry for a key, or nullopt if absent. O(1) expected.
  std::optional<DictionaryEntry> lookup(const FingerprintKey& key) const;

  /// The entry of key ordinal \p ordinal (< size()), in insertion order.
  DictionaryEntry entry(std::size_t ordinal) const noexcept {
    return {index_, labels_, index_.entries_[ordinal]};
  }

  /// Application-name first-seen rank (for deterministic tie arrays):
  /// applications are indexed in the order their first label was
  /// interned, which is their LabelTable id; unknown applications rank
  /// last.
  std::size_t application_order(const std::string& application) const;

  /// Application names in first-seen order (the tie-break epoch order).
  std::vector<std::string> applications_in_order() const;

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

  /// Every key ordinal, sorted by key (metric, interval begin, means,
  /// node, interval end): the order of the Table 4 dump and of the
  /// EFD-DICT-V1 key list.
  std::vector<std::uint32_t> sorted_order() const;

  /// Reverse lookup (Section 6: "using the dictionary in reverse"): every
  /// key observed for a full label, e.g. to predict a known application's
  /// expected resource usage.
  std::vector<FingerprintKey> keys_for_label(const std::string& label) const;

  /// Serializes to the line-oriented EFD-DICT-V1 text, appended to
  /// \p out. Deterministic: keys are written in sorted_order().
  void save(std::string& out) const;
  /// The same bytes, written to a stream.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;

  /// Deserializes EFD-DICT-V1 text straight into the flat rows; throws
  /// std::runtime_error on malformed input, including CRLF line endings
  /// and integers that do not fit their field (a node id or label count
  /// outside u32, an interval bound or depth outside int). A key on
  /// several rows, or a label repeated within a row, merges as insert()
  /// would. Text after the declared key rows is ignored.
  static Dictionary load(std::string_view text);
  /// Reads \p in to its end, then load(text).
  static Dictionary load(std::istream& in);
  static Dictionary load_file(const std::string& path);

  /// The table is built as rows arrive, so there is nothing left to
  /// compile: a no-op, kept for callers written against the compiled
  /// index.
  void compile_probe_index() noexcept {}

  /// The rows and their tag table; never null.
  const DictionaryIndex* probe_index() const noexcept { return &index_; }

  /// Build cost of the table (see DictionaryIndex::build_seconds).
  double index_build_seconds() const noexcept { return index_.build_seconds(); }

 private:
  FingerprintConfig config_;
  LabelTable labels_;
  DictionaryIndex index_;
};

}  // namespace efd::core

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
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/label_table.hpp"

namespace efd::core {

class DictionaryIndex;

/// Value of one dictionary entry.
struct DictionaryEntry {
  /// Distinct full labels ("ft_X"), in first-observation order.
  std::vector<std::string> labels;
  /// How many training executions contributed each label (aligned with
  /// labels). Used for pruning statistics and the ablation benches.
  std::vector<std::uint32_t> counts;
  /// Interned id per label (aligned with labels) in the owning
  /// dictionary's LabelTable — the allocation-free scoring path votes on
  /// these instead of re-parsing label strings. Not serialized: id values
  /// depend on interning order, the durable content is labels/counts.
  std::vector<std::uint32_t> label_ids;

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

/// The dictionary proper: the one trained form of the EFD. Built
/// single-threaded (train_dictionary, load, merge), then published as a
/// const epoch (dictionary_handle.hpp) with its compiled probe index;
/// a published dictionary is never mutated, so any number of threads
/// may read it.
class Dictionary {
 public:
  Dictionary() = default;

  /// Construction-time config; stored so lookups are guaranteed to use the
  /// same fingerprinting settings as training (the paper's "same rounding
  /// depth as in the learning phase").
  explicit Dictionary(FingerprintConfig config) : config_(std::move(config)) {}

  const FingerprintConfig& config() const noexcept { return config_; }

  /// The label interner entries' label_ids index into. insert() interns
  /// every label before it writes the entry, so every entry's label_ids
  /// resolve here; a copy of the dictionary copies the table.
  const LabelTable& label_table() const noexcept { return labels_; }

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

  /// Application-name first-seen rank (for deterministic tie arrays):
  /// applications are indexed in the order their first key was inserted;
  /// unknown applications rank last.
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

  /// One stored (key, entry) row.
  using Row = std::pair<const FingerprintKey, DictionaryEntry>;

  /// Every row, sorted by key (metric, interval begin, means, node,
  /// interval end): the order of the Table 4 dump, of the EFD-DICT-V1 key
  /// list and of the probe index's entries. The pointers are into this
  /// dictionary and stay valid until it is mutated or destroyed.
  std::vector<const Row*> sorted_view() const;

  /// Reverse lookup (Section 6: "using the dictionary in reverse"): every
  /// key observed for a full label, e.g. to predict a known application's
  /// expected resource usage.
  std::vector<FingerprintKey> keys_for_label(const std::string& label) const;

  /// Serializes to the line-oriented EFD-DICT-V1 text, appended to
  /// \p out. Deterministic: keys are written in sorted_view() order.
  void save(std::string& out) const;
  /// The same bytes, written to a stream.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;

  /// Deserializes EFD-DICT-V1 text; throws std::runtime_error on
  /// malformed input, including CRLF line endings and integers that do
  /// not fit their field (a node id or label count outside u32, an
  /// interval bound or depth outside int). Text after the declared key
  /// rows is ignored.
  static Dictionary load(std::string_view text);
  /// Reads \p in to its end, then load(text).
  static Dictionary load(std::istream& in);
  static Dictionary load_file(const std::string& path);

  /// Compiles the flat probe index (dictionary_index.hpp) from the
  /// current content. DictionaryHandle::Epoch's constructor is the
  /// production call site (train completion, epoch swap, snapshot
  /// restore); it compiles before the epoch's const member exists. The
  /// index is derived state: never serialized, and dropped again if
  /// insert()/merge()/prune_rare() later mutate this (unpublished)
  /// dictionary.
  void compile_probe_index();

  /// Publication in one pass: sorts once, compiles the probe index from
  /// that view and returns the canonical EFD-DICT-V1 text (save()'s
  /// bytes) written from the same view. DictionaryHandle::Epoch's
  /// constructor calls it and keeps the text beside the dictionary.
  std::string compile_for_publication();

  /// The compiled index, or nullptr when none is compiled (a dictionary
  /// that was never published, or one mutated since its compile: the
  /// Matcher then probes lookup()). A published epoch is const, so its
  /// index lives as long as the epoch pin.
  const DictionaryIndex* probe_index() const noexcept { return index_.get(); }

  /// Build cost / footprint of the compiled index (0 when none).
  double index_build_seconds() const noexcept;
  std::uint64_t index_resident_bytes() const noexcept;

  /// Iteration support (unordered).
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  /// Adds \p count observations of \p label to \p entry (a row of this
  /// dictionary): interns the label, ranks its application on the
  /// label's first sight, and keeps label_ids aligned with labels.
  void observe(DictionaryEntry& entry, const std::string& label,
               std::uint32_t count);
  /// save() over an already sorted view.
  void save(std::string& out, const std::vector<const Row*>& rows) const;

  FingerprintConfig config_;
  std::unordered_map<FingerprintKey, DictionaryEntry, FingerprintKeyHash> entries_;
  std::unordered_map<std::string, std::size_t> application_first_seen_;
  LabelTable labels_;
  std::shared_ptr<const DictionaryIndex> index_;
};

}  // namespace efd::core

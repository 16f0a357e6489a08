#pragma once
/// \file sharded_dictionary.hpp
/// \brief Concurrent, sharded variant of the Execution Fingerprint
/// Dictionary.
///
/// The single hash table of dictionary.hpp is split into N shards, each
/// owning a disjoint slice of the key space (shard = hash(key) mod N)
/// behind its own std::shared_mutex. Lookups take a shard's shared lock;
/// inserts take its exclusive lock — so parallel training can insert from
/// many threads while lookups run, with contention limited to 1/N of the
/// key space. A served dictionary never changes: DictionaryHandle
/// publishes each epoch as a const ShardedDictionary with its flat probe
/// index compiled, and new keys arrive in a successor epoch.
///
/// Tie-break semantics stay paper-identical: application first-seen
/// order is a *global* epoch counter held in an ApplicationRegistry
/// (lock-free reads; a writer mutex only on first registration of an
/// application), and because every key maps to exactly one shard,
/// per-entry label first-seen order is exactly the insertion order
/// within that shard. The deterministic parallel builder in trainer.hpp
/// exploits this: one worker per shard, each consuming records in
/// dataset order, reproduces the sequential Dictionary byte-for-byte
/// (same entries, same label order, same serialization).
///
/// Locking discipline:
///  - shard mutex:  guards that shard's hash map and its entries.
///  - application registry: lock-free to read (see app_registry.hpp);
///    insert's already-registered check and every tie-break order query
///    take no lock at all, so there is no global contention point on
///    either the write or the read path.
///  - Bulk operations (prune_rare, merge, stats, sorted_entries, save)
///    lock one shard at a time; they are safe against concurrent
///    inserts/lookups but see a point-in-time view per shard.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/app_registry.hpp"
#include "core/dictionary.hpp"
#include "core/dictionary_index.hpp"
#include "core/dictionary_view.hpp"
#include "core/fingerprint.hpp"
#include "core/label_table.hpp"

namespace efd::core {

/// Concurrent EFD. Same serialization format and lookup semantics as
/// Dictionary; thread-safe insert/lookup_entry/application_order.
class ShardedDictionary final : public DictionaryView {
 public:
  /// Shard-count heuristic: 4x hardware concurrency, clamped to
  /// [1, kMaxShards]. Over-provisioning shards relative to threads keeps
  /// the probability of two concurrent inserts hitting the same shard
  /// low without measurable memory cost.
  static std::size_t default_shard_count();
  static constexpr std::size_t kMaxShards = 256;

  /// \param shard_count 0 means default_shard_count().
  explicit ShardedDictionary(FingerprintConfig config = {},
                             std::size_t shard_count = 0);

  /// Movable (not thread-safe to move while in use), not copyable.
  ShardedDictionary(ShardedDictionary&& other) noexcept = default;
  ShardedDictionary& operator=(ShardedDictionary&& other) noexcept = default;
  ShardedDictionary(const ShardedDictionary&) = delete;
  ShardedDictionary& operator=(const ShardedDictionary&) = delete;

  const FingerprintConfig& config() const noexcept override { return config_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Label interner for the id-based scoring path. Interning order (and
  /// therefore id values) depends on insert interleaving under parallel
  /// training; ids are never serialized or compared across dictionaries,
  /// so this nondeterminism is unobservable.
  const LabelTable& label_table() const noexcept override {
    return *labels_;
  }

  /// Shard index a key lives in (stable for the dictionary's lifetime).
  std::size_t shard_of(const FingerprintKey& key) const noexcept;

  /// Unique keys across all shards. Takes each shard's shared lock.
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Adds one (key, label) observation. Thread-safe.
  void insert(const FingerprintKey& key, const std::string& label) {
    insert(key, label, 1);
  }

  /// Adds \p count observations of (key, label) at once. Thread-safe.
  void insert(const FingerprintKey& key, const std::string& label,
              std::uint32_t count);

  /// Thread-safe copy-out lookup (see dictionary_view.hpp).
  bool lookup_entry(const FingerprintKey& key,
                    DictionaryEntry& out) const override;

  /// Lock-free epoch lookup; unknown applications rank last.
  std::size_t application_order(const std::string& application) const override;

  /// Pre-registers an application in the global epoch order without
  /// inserting any key. The deterministic parallel builder uses this to
  /// fix tie-break order up front (idempotent: the first call wins).
  void register_application(const std::string& application);

  /// Applications in epoch order.
  std::vector<std::string> applications_in_order() const;

  /// Removes keys with total observations below the threshold; returns
  /// the number removed. Locks one shard at a time (exclusive).
  std::size_t prune_rare(std::uint32_t min_observations);

  /// Merges a single-threaded dictionary's observations (same config
  /// required; throws std::invalid_argument otherwise).
  void merge(const Dictionary& other);

  /// Aggregate statistics; same definition as Dictionary::stats().
  DictionaryStats stats() const;

  /// All entries sorted by key rendering order — identical ordering (and
  /// therefore identical serialization) to Dictionary::sorted_entries().
  std::vector<std::pair<FingerprintKey, DictionaryEntry>> sorted_entries() const;

  /// Every key observed for a full label, in sorted-entry order.
  std::vector<FingerprintKey> keys_for_label(const std::string& label) const;

  /// Serialization: byte-identical format to Dictionary (EFD-DICT-V1),
  /// so dictionaries trained sharded and sequentially interchange.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  static ShardedDictionary load(std::istream& in, std::size_t shard_count = 0);
  static ShardedDictionary load_file(const std::string& path,
                                     std::size_t shard_count = 0);

  /// Conversions to/from the single-threaded Dictionary. Both preserve
  /// entry label order and the application epoch order exactly.
  static ShardedDictionary from_dictionary(const Dictionary& dictionary,
                                           std::size_t shard_count = 0);
  Dictionary to_dictionary() const;

  /// Compiles the flat probe index from the current content. Not safe
  /// against concurrent mutators. DictionaryHandle::Epoch's constructor
  /// is the production call site (train completion, epoch swap, snapshot
  /// restore); it compiles before the epoch's const member exists. The
  /// index is derived state: never serialized, and dropped again if
  /// insert()/merge()/prune_rare() later mutate this (unpublished)
  /// dictionary.
  void compile_probe_index();

  /// The compiled index, or nullptr when none is compiled (a dictionary
  /// that was never published, or one mutated since its compile: those
  /// probe through the sharded copy-out path). Lock-free.
  const DictionaryIndex* probe_index() const noexcept override {
    return index_.get();
  }

  /// Build cost / footprint of the compiled index (0 when none).
  double index_build_seconds() const noexcept {
    return index_ != nullptr ? index_->build_seconds() : 0.0;
  }
  std::uint64_t index_resident_bytes() const noexcept {
    return index_ != nullptr ? index_->resident_bytes() : 0;
  }

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<FingerprintKey, DictionaryEntry, FingerprintKeyHash>
        entries;
  };

  FingerprintConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ApplicationRegistry applications_;
  std::shared_ptr<LabelTable> labels_ = std::make_shared<LabelTable>();
  /// Set by compile_probe_index() before publication; a published epoch
  /// is const, so its index lives exactly as long as the dictionary and
  /// probe_index()'s raw pointer stays valid for every epoch pin.
  std::shared_ptr<const DictionaryIndex> index_;
};

}  // namespace efd::core

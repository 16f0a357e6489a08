#pragma once
/// \file dictionary_view.hpp
/// \brief Read-side abstraction over a trained Execution Fingerprint
/// Dictionary.
///
/// The recognition path (Matcher, OnlineRecognizer, RecognitionService)
/// only ever needs three things from a dictionary: its fingerprint
/// config, entry lookup, and the application first-seen order used for
/// paper-identical tie-breaking. DictionaryView captures exactly that,
/// so the same recognition code runs against the single-threaded
/// Dictionary and the concurrent ShardedDictionary.
///
/// lookup_entry copies the entry out instead of returning a pointer:
/// concurrent implementations hold their shard lock only for the
/// duration of the copy, so readers never observe a half-written entry
/// while training keeps inserting. Served dictionaries are published
/// epochs (dictionary_handle.hpp): const, with a compiled probe_index()
/// that the scorer reads instead; the copy-out path serves uncompiled
/// dictionaries and is the index's parity reference.

#include <string>

#include "core/fingerprint.hpp"

namespace efd::core {

struct DictionaryEntry;
class DictionaryIndex;
class LabelTable;

/// Read-only view of a trained dictionary. Implementations state their
/// own thread-safety: Dictionary is single-threaded, ShardedDictionary
/// supports concurrent lookup_entry/application_order against inserts.
class DictionaryView {
 public:
  virtual ~DictionaryView() = default;

  /// Fingerprinting settings the dictionary was trained with. Stable for
  /// the lifetime of the dictionary (never mutated after construction).
  virtual const FingerprintConfig& config() const noexcept = 0;

  /// Copies the entry for \p key into \p out (clearing previous
  /// contents); returns false and leaves \p out empty if absent.
  virtual bool lookup_entry(const FingerprintKey& key,
                            DictionaryEntry& out) const = 0;

  /// Application-name first-seen rank (for deterministic tie arrays);
  /// unknown applications rank last.
  virtual std::size_t application_order(const std::string& application) const = 0;

  /// Label interner backing the allocation-free id-based scoring path.
  /// insert() interns every label before it writes the entry, so every
  /// entry's label_ids resolve here. The table is append-only and owned
  /// by the dictionary; ids are stable for the dictionary's lifetime.
  virtual const LabelTable& label_table() const noexcept = 0;

  /// Compiled flat probe index (dictionary_index.hpp), or nullptr when
  /// none is compiled (Dictionary never compiles one; a ShardedDictionary
  /// compiles when published as an epoch). A published epoch is const,
  /// so callers holding it may hold the returned pointer as long.
  virtual const DictionaryIndex* probe_index() const noexcept {
    return nullptr;
  }
};

}  // namespace efd::core

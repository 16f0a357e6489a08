#pragma once
/// \file dictionary_index.hpp
/// \brief Immutable flat probe index compiled from a frozen dictionary.
///
/// Dictionary is built for *training*: a node-based hash map that insert()
/// grows one observation at a time. Between epoch swaps the published
/// dictionary never changes, yet a map probe still chases a bucket list
/// and string-compares node by node. DictionaryIndex is the read-side
/// artifact the serve path deserves: at publication time (train
/// completion, epoch swap, snapshot restore — see DictionaryHandle::Epoch)
/// the frozen content is compiled once into flat arrays, and probes touch
/// nothing else.
///
/// Layout (all contiguous, no per-node allocation, no locks):
///
///   tags_        one byte per slot: 0 = empty, else 0x80 | top-7-bits of
///                the key's hash. A kTagScanWindow-byte mirror of the
///                first slots is appended so a scan window starting at any
///                slot can load wrap-free.
///   slot_entry_  u32 per slot -> entry ordinal (valid where tag != 0).
///   entries_     32-byte POD per key: node/interval/metric-id plus
///                [begin,count) cursors into the payload arrays.
///   means_       every key's rounded means, concatenated (CSR values).
///   label_ids_   every entry's interned label ids, concatenated — the
///                scoring loop votes straight off this span.
///
/// Probing is open addressing with linear windows: hash the key, scan
/// kTagScanWindow tags at once for candidate matches (SIMD fast path:
/// AVX2 compare+movemask, runtime-dispatched exactly like
/// rounding_kernel.cpp and honoring EFD_SIMD=off; the scalar build
/// produces bit-identical masks), verify candidates with full key
/// equality, stop at the first empty slot. Found/not-found semantics match
/// Dictionary::lookup exactly because equality is FingerprintKey::operator==
/// and the table holds precisely the published key set.
///
/// The index is derived state: never serialized (EFD-DICT-V1 unchanged)
/// and compiled once per published epoch, whose dictionary is const from
/// then on, so an index is never patched or invalidated while readers
/// hold it. A mutator on a not-yet-published dictionary drops the index
/// (see Dictionary::probe_index).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dictionary.hpp"
#include "core/fingerprint.hpp"

namespace efd::core {

/// Slots examined per tag-scan step — one AVX2 register of tags.
inline constexpr std::size_t kTagScanWindow = 32;

namespace index_detail {

/// Computes candidate masks over one kTagScanWindow-byte window: bit i of
/// *match is set when tags[i] == tag, bit i of *empty when tags[i] == 0.
/// Both builds produce identical masks by construction (pure byte
/// compares); test_dictionary_index asserts it anyway.
void tag_scan_scalar(const std::uint8_t* tags, std::uint8_t tag,
                     std::uint32_t* match, std::uint32_t* empty) noexcept;
void tag_scan_avx2(const std::uint8_t* tags, std::uint8_t tag,
                   std::uint32_t* match, std::uint32_t* empty) noexcept;

}  // namespace index_detail

/// Name of the dispatched tag-scan kernel ("avx2" or "scalar").
const char* index_kernel_name() noexcept;

/// The compiled index. Immutable after compile(); concurrent probes from
/// any number of threads are safe (const reads of frozen arrays).
class DictionaryIndex {
 public:
  /// One key's packed descriptor. 32 bytes: half a cache line, so a
  /// random probe touches at most two lines before the payload.
  struct Entry {
    std::uint32_t node_id = 0;
    std::uint32_t metric_id = 0;       ///< index into metric_names_
    std::int32_t begin_seconds = 0;
    std::int32_t end_seconds = 0;
    std::uint32_t means_begin = 0;     ///< cursor into means_
    std::uint32_t means_count = 0;
    std::uint32_t labels_begin = 0;    ///< cursor into label_ids_
    std::uint32_t labels_count = 0;
  };
  static_assert(sizeof(Entry) == 32);

  /// The placement hash: the dictionary's own FingerprintKeyHash run
  /// through a splitmix64 finalizer, because open addressing masks with
  /// the LOW bits while FNV concentrates its quality in the high ones.
  static std::uint64_t hash_key(const FingerprintKey& key) noexcept;

  /// Compiles the index from a dictionary's sorted_view() rows.
  /// Deterministic: identical content (in identical order) produces an
  /// identical table shape regardless of which process builds it — the
  /// restored-snapshot-equals-live-training test leans on this. Every
  /// entry's label_ids must be aligned with its labels, which insert()
  /// guarantees by interning each label before it writes the entry.
  static std::shared_ptr<const DictionaryIndex> compile(
      std::span<const Dictionary::Row* const> rows);

  /// Pulls the probe's first tag/slot cache lines toward L1. Issue this
  /// for key i+K while resolving key i (Matcher pipelines with K = 8) so
  /// the random-access miss overlaps useful work instead of stalling it.
  void prefetch(std::uint64_t hash) const noexcept {
    if (slots_ == 0) return;
    const std::size_t pos = static_cast<std::size_t>(hash) & mask_;
    __builtin_prefetch(tags_.data() + pos, 0, 3);
    __builtin_prefetch(slot_entry_.data() + pos, 0, 2);
  }

  /// Probe with a precomputed hash_key() value. Returns the entry or
  /// nullptr; lock-free, allocation-free, safe from any thread.
  const Entry* find_hashed(const FingerprintKey& key,
                           std::uint64_t hash) const noexcept;

  /// Convenience single probe.
  const Entry* find(const FingerprintKey& key) const noexcept {
    return find_hashed(key, hash_key(key));
  }

  /// The entry's interned label ids — feed straight to
  /// RecognitionScratch::score_entry_ids.
  std::span<const std::uint32_t> label_ids(const Entry& entry) const noexcept {
    return {label_ids_.data() + entry.labels_begin, entry.labels_count};
  }

  std::size_t key_count() const noexcept { return entries_.size(); }
  std::size_t slot_count() const noexcept { return slots_; }

  /// Wall-clock cost of compile() — the efd_dictionary_index_build_seconds
  /// gauge, visible before anyone ships a thousand-tenant config.
  double build_seconds() const noexcept { return build_seconds_; }

  /// Total bytes resident in the index's arrays (the
  /// efd_dictionary_index_bytes gauge).
  std::uint64_t resident_bytes() const noexcept { return resident_bytes_; }

 private:
  DictionaryIndex() = default;

  /// Full key equality against a packed entry, cheapest fields first.
  /// Mirrors FingerprintKey::operator== (double ==, so a NaN mean never
  /// matches — same behavior Dictionary::lookup has).
  bool key_matches(const Entry& entry,
                   const FingerprintKey& key) const noexcept;

  std::size_t slots_ = 0;  ///< power of two >= kTagScanWindow; 0 = empty
  std::size_t mask_ = 0;
  std::vector<std::uint8_t> tags_;        ///< slots_ + kTagScanWindow mirror
  std::vector<std::uint32_t> slot_entry_;
  std::vector<Entry> entries_;
  std::vector<double> means_;
  std::vector<std::uint32_t> label_ids_;
  std::vector<std::string> metric_names_;  ///< distinct, first-seen order
  double build_seconds_ = 0.0;
  std::uint64_t resident_bytes_ = 0;
};

}  // namespace efd::core

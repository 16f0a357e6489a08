#pragma once
/// \file dictionary_index.hpp
/// \brief The dictionary's rows, stored flat, with the tag table that
/// finds them: the one form of the EFD that is built, published and
/// probed.
///
/// Dictionary (dictionary.hpp) owns one DictionaryIndex and grows it as
/// insert() and load() add rows; a published dictionary is const, so its
/// index never changes while readers hold it. Nothing is compiled or
/// copied between training, publication and serving.
///
/// Layout (all contiguous, no per-key allocation, no locks):
///
///   entries_     32-byte POD per key, in insertion order: node/interval/
///                metric-id plus [begin,count) cursors into the payload
///                arrays; hashes_ holds each key's hash beside it, so the
///                table regrows without rehashing keys.
///   means_       every key's rounded means, concatenated.
///   label_ids_   every key's interned label ids, one contiguous run per
///   counts_      key, with each label's observation count beside it. A
///                key that gains a label while its run is not the last one
///                moves its run to the arrays' end, so every run stays one
///                span (the old run is left unused).
///   tags_        one byte per slot: 0 = empty, else 0x80 | top-7-bits of
///                the key's hash. A kTagScanWindow-byte mirror of the
///                first slots is appended so a scan window starting at any
///                slot can load wrap-free.
///   slot_entry_  u32 per slot -> entry ordinal (valid where tag != 0).
///
/// Probing is open addressing with linear windows: hash the key, scan
/// kTagScanWindow tags at once for candidate matches (SIMD fast path:
/// AVX2 compare+movemask, runtime-dispatched exactly like
/// rounding_kernel.cpp and honoring EFD_SIMD=off; the scalar build
/// produces bit-identical masks), verify candidates with full key
/// equality, stop at the first empty slot. Equality is
/// FingerprintKey::operator== (double ==, so a NaN mean never matches),
/// and the table stays at load factor <= 0.5.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

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

/// The flat rows and their probe table. Const reads are safe from any
/// number of threads; the owning Dictionary is the only writer, and only
/// before it is published.
class DictionaryIndex {
 public:
  /// One key's packed descriptor. 32 bytes: half a cache line, so a
  /// random probe touches at most two lines before the payload.
  /// Trivial, so rows a loader fills in place are not zeroed first.
  struct Entry {
    std::uint32_t node_id;
    std::uint32_t metric_id;       ///< index into metric_names_
    std::int32_t begin_seconds;
    std::int32_t end_seconds;
    std::uint32_t means_begin;     ///< cursor into means_
    std::uint32_t means_count;
    std::uint32_t labels_begin;    ///< cursor into label_ids_/counts_
    std::uint32_t labels_count;
  };
  static_assert(sizeof(Entry) == 32);
  static_assert(std::is_trivially_default_constructible_v<Entry>);

  /// The placement hash: the dictionary's own FingerprintKeyHash run
  /// through a splitmix64 finalizer, because open addressing masks with
  /// the LOW bits while FNV concentrates its quality in the high ones.
  static std::uint64_t hash_key(const FingerprintKey& key) noexcept {
    return spread(FingerprintKeyHash{}(key));
  }
  /// The splitmix64 finalizer hash_key() runs FingerprintKeyHash through.
  static std::uint64_t spread(std::uint64_t h) noexcept {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
  }

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

  /// The entry's key, rebuilt as a FingerprintKey.
  FingerprintKey key_of(const Entry& entry) const;

  /// The entry's interned label ids, in first-observation order — feed
  /// straight to RecognitionScratch::score_entry_ids.
  std::span<const std::uint32_t> label_ids(const Entry& entry) const noexcept {
    return {label_ids_.data() + entry.labels_begin, entry.labels_count};
  }
  /// Observation count per label, aligned with label_ids().
  std::span<const std::uint32_t> counts(const Entry& entry) const noexcept {
    return {counts_.data() + entry.labels_begin, entry.labels_count};
  }

  std::size_t key_count() const noexcept { return entries_.size(); }
  std::size_t slot_count() const noexcept { return slots_; }

  /// Wall-clock seconds the Dictionary::load() that built this table
  /// took, parse included (the efd_dictionary_index_build_seconds
  /// gauge); 0 for a table grown by insert().
  double build_seconds() const noexcept { return build_seconds_; }

  /// Total bytes held by the arrays (the efd_dictionary_index_bytes
  /// gauge), runs left behind by a moved label run included.
  std::uint64_t resident_bytes() const noexcept;

  /// The Table-4 key order of the EFD-DICT-V1 key list: metric name,
  /// interval begin, means, node, interval end. Total over keys without
  /// a NaN mean: two such entries compare equal only as the same key.
  /// Inline: it is the comparator of the writer's sort.
  bool key_less(const Entry& x, const Entry& y) const noexcept {
    return key_less(metric_names_, means_.data(), x, y);
  }
  /// key_less for rows whose metric ids index \p metric_names and whose
  /// means cursors index \p means: a parse slice's own ids.
  template <typename Names>
  static bool key_less(const Names& metric_names, const double* means,
                       const Entry& x, const Entry& y) noexcept {
    // Distinct metric ids name distinct metrics; the interval end only
    // splits keys that agree on everything else.
    if (x.metric_id != y.metric_id) {
      return metric_names[x.metric_id] < metric_names[y.metric_id];
    }
    if (x.begin_seconds != y.begin_seconds) {
      return x.begin_seconds < y.begin_seconds;
    }
    const double* mx = means + x.means_begin;
    const double* my = means + y.means_begin;
    if (!std::equal(mx, mx + x.means_count, my, my + y.means_count)) {
      return std::lexicographical_compare(mx, mx + x.means_count, my,
                                          my + y.means_count);
    }
    if (x.node_id != y.node_id) return x.node_id < y.node_id;
    return x.end_seconds < y.end_seconds;
  }

 private:
  friend class Dictionary;

  /// Full key equality against a packed entry, cheapest fields first.
  bool key_matches(const Entry& entry,
                   const FingerprintKey& key) const noexcept;
  /// Ordinal of \p key's entry, appended (with no labels) when absent;
  /// \p hash is hash_key(key).
  std::uint32_t find_or_add(const FingerprintKey& key, std::uint64_t hash);
  std::uint32_t find_or_add(const FingerprintKey& key) {
    return find_or_add(key, hash_key(key));
  }
  /// Appends \p key (with no labels) without probing when it sorts
  /// strictly after the last entry under key_less; false, with nothing
  /// appended, when it does not. Only a caller that knows every entry so
  /// far was appended this way, none with a NaN mean, may take true to
  /// mean "absent": key_less is then a chain, and no key on it equals an
  /// earlier one. \p metric_id is metric_id(key.metric).
  bool append_after_last(const FingerprintKey& key, std::uint32_t metric_id,
                         std::uint64_t hash);
  /// The id of metric name \p metric, added when new.
  std::uint32_t metric_id(const std::string& metric);
  /// Adds \p count observations of \p label_id to entry \p ordinal;
  /// true when the label is new to the entry, false when it merged.
  bool add_label(std::uint32_t ordinal, std::uint32_t label_id,
                 std::uint32_t count);
  /// Rebuilds the tag table with room for \p keys keys at load <= 0.5.
  void resize_table(std::size_t keys);
  void place(std::uint32_t ordinal) noexcept;

  /// std::allocator whose construct() with no value default-initialises:
  /// resize() leaves trivial rows unwritten, so the threads that fill
  /// them in place are the first to touch their pages.
  template <typename T>
  struct Unzeroed : std::allocator<T> {
    using std::allocator<T>::allocator;
    template <typename U>
    struct rebind {
      using other = Unzeroed<U>;
    };
    template <typename U, typename... Args>
    void construct(U* at, Args&&... args) {
      if constexpr (sizeof...(Args) == 0) {
        ::new (static_cast<void*>(at)) U;
      } else {
        ::new (static_cast<void*>(at)) U(std::forward<Args>(args)...);
      }
    }
  };
  template <typename T>
  using Rows = std::vector<T, Unzeroed<T>>;
  /// Appends \p key's means; returns its entry (no labels), not yet added.
  Entry append_means(const FingerprintKey& key, std::uint32_t metric_id);
  /// Appends \p row, whose means are already at its cursor, and places it.
  std::uint32_t add_entry(const Entry& row, std::uint64_t hash);

  std::size_t slots_ = 0;  ///< power of two >= kTagScanWindow; 0 = empty
  std::size_t mask_ = 0;
  std::vector<std::uint8_t> tags_;        ///< slots_ + kTagScanWindow mirror
  std::vector<std::uint32_t> slot_entry_;
  Rows<Entry> entries_;  ///< insertion order: ordinal = position
  Rows<std::uint64_t> hashes_;  ///< hash_key() per entry
  Rows<double> means_;
  std::vector<std::uint32_t> label_ids_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::string> metric_names_;  ///< distinct, first-seen order
  std::unordered_map<std::string, std::uint32_t> metric_ids_;
  double build_seconds_ = 0.0;
};

}  // namespace efd::core

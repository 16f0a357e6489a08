#include "core/dictionary_index.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace efd::core {

namespace index_detail {

void tag_scan_scalar(const std::uint8_t* tags, std::uint8_t tag,
                     std::uint32_t* match, std::uint32_t* empty) noexcept {
  std::uint32_t match_bits = 0;
  std::uint32_t empty_bits = 0;
  for (std::size_t i = 0; i < kTagScanWindow; ++i) {
    match_bits |= static_cast<std::uint32_t>(tags[i] == tag) << i;
    empty_bits |= static_cast<std::uint32_t>(tags[i] == 0) << i;
  }
  *match = match_bits;
  *empty = empty_bits;
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void tag_scan_avx2(
    const std::uint8_t* tags, std::uint8_t tag, std::uint32_t* match,
    std::uint32_t* empty) noexcept {
  // One unaligned 32-byte load (the mirror tail makes every window
  // in-bounds), two byte-compares, two movemasks. Bit i corresponds to
  // tags[i] exactly as in the scalar build, so the masks are identical.
  const __m256i window =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags));
  const __m256i needle = _mm256_set1_epi8(static_cast<char>(tag));
  *match = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(window, needle)));
  *empty = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(window, _mm256_setzero_si256())));
}
#else
void tag_scan_avx2(const std::uint8_t* tags, std::uint8_t tag,
                   std::uint32_t* match, std::uint32_t* empty) noexcept {
  tag_scan_scalar(tags, tag, match, empty);
}
#endif

}  // namespace index_detail

namespace {

using ScanFn = void (*)(const std::uint8_t*, std::uint8_t, std::uint32_t*,
                        std::uint32_t*) noexcept;

// Same env contract as rounding_kernel.cpp: EFD_SIMD=off|OFF|0|scalar
// forces the scalar tag scan.
bool simd_disabled_by_env() {
  const char* env = std::getenv("EFD_SIMD");
  if (env == nullptr) return false;
  const std::string value(env);
  return value == "off" || value == "OFF" || value == "0" ||
         value == "scalar";
}

ScanFn pick_scan(const char** name) {
#if defined(__x86_64__) || defined(__i386__)
  if (!simd_disabled_by_env() && __builtin_cpu_supports("avx2")) {
    *name = "avx2";
    return &index_detail::tag_scan_avx2;
  }
#else
  (void)simd_disabled_by_env;
#endif
  *name = "scalar";
  return &index_detail::tag_scan_scalar;
}

struct ScanDispatch {
  const char* name = "scalar";
  ScanFn fn = &index_detail::tag_scan_scalar;
  ScanDispatch() { fn = pick_scan(&name); }
};

const ScanDispatch& scan_dispatch() {
  static const ScanDispatch chosen;
  return chosen;
}

std::uint8_t tag_of(std::uint64_t hash) noexcept {
  // Top 7 hash bits OR'd with 0x80: never 0 (the empty marker), and
  // independent of the low bits that pick the slot.
  return static_cast<std::uint8_t>(0x80u | (hash >> 57));
}

}  // namespace

const char* index_kernel_name() noexcept { return scan_dispatch().name; }

FingerprintKey DictionaryIndex::key_of(const Entry& entry) const {
  const double* means = means_.data() + entry.means_begin;
  return {metric_names_[entry.metric_id], entry.node_id,
          {entry.begin_seconds, entry.end_seconds},
          {means, means + entry.means_count}};
}

bool DictionaryIndex::key_matches(const Entry& entry,
                                  const FingerprintKey& key) const noexcept {
  if (entry.node_id != key.node_id) return false;
  if (entry.begin_seconds != key.interval.begin_seconds ||
      entry.end_seconds != key.interval.end_seconds) {
    return false;
  }
  if (entry.means_count != key.rounded_means.size()) return false;
  const double* means = means_.data() + entry.means_begin;
  for (std::uint32_t i = 0; i < entry.means_count; ++i) {
    if (!(means[i] == key.rounded_means[i])) return false;
  }
  return metric_names_[entry.metric_id] == key.metric;
}

const DictionaryIndex::Entry* DictionaryIndex::find_hashed(
    const FingerprintKey& key, std::uint64_t hash) const noexcept {
  if (slots_ == 0) return nullptr;
  const std::uint8_t tag = tag_of(hash);
  const ScanFn scan = scan_dispatch().fn;
  std::size_t pos = static_cast<std::size_t>(hash) & mask_;
  // Load factor <= 0.5 guarantees an empty slot terminates every probe;
  // the window cap is a defensive bound, never reached.
  for (std::size_t probed = 0; probed <= slots_; probed += kTagScanWindow) {
    std::uint32_t match = 0;
    std::uint32_t empty = 0;
    scan(tags_.data() + pos, tag, &match, &empty);
    // Candidates past the first empty slot were placed by *later*
    // probe chains; linear probing never skips an empty, so mask them.
    const std::uint32_t limit =
        empty != 0 ? (1u << std::countr_zero(empty)) - 1u : 0xFFFFFFFFu;
    for (std::uint32_t m = match & limit; m != 0; m &= m - 1) {
      const std::size_t slot =
          (pos + static_cast<std::size_t>(std::countr_zero(m))) & mask_;
      const Entry& entry = entries_[slot_entry_[slot]];
      if (key_matches(entry, key)) return &entry;
    }
    if (empty != 0) return nullptr;
    pos = (pos + kTagScanWindow) & mask_;
  }
  return nullptr;
}

std::uint32_t DictionaryIndex::find_or_add(const FingerprintKey& key,
                                           std::uint64_t hash) {
  if (const Entry* found = find_hashed(key, hash)) {
    return static_cast<std::uint32_t>(found - entries_.data());
  }
  return add_entry(append_means(key, metric_id(key.metric)), hash);
}

bool DictionaryIndex::append_after_last(const FingerprintKey& key,
                                        std::uint32_t metric_id,
                                        std::uint64_t hash) {
  const Entry row = append_means(key, metric_id);
  if (!entries_.empty() && !key_less(entries_.back(), row)) {
    means_.resize(row.means_begin);
    return false;
  }
  add_entry(row, hash);
  return true;
}

DictionaryIndex::Entry DictionaryIndex::append_means(const FingerprintKey& key,
                                                     std::uint32_t metric_id) {
  const Entry row{key.node_id, metric_id, key.interval.begin_seconds,
                  key.interval.end_seconds,
                  static_cast<std::uint32_t>(means_.size()),
                  static_cast<std::uint32_t>(key.rounded_means.size()),
                  static_cast<std::uint32_t>(label_ids_.size()), 0};
  means_.insert(means_.end(), key.rounded_means.begin(), key.rounded_means.end());
  return row;
}

std::uint32_t DictionaryIndex::metric_id(const std::string& metric) {
  // Only a metric not seen before builds a string.
  const auto [it, added] = metric_ids_.try_emplace(
      metric, static_cast<std::uint32_t>(metric_names_.size()));
  if (added) metric_names_.push_back(metric);
  return it->second;
}

std::uint32_t DictionaryIndex::add_entry(const Entry& row, std::uint64_t hash) {
  if (2 * (entries_.size() + 1) > slots_) resize_table(entries_.size() + 1);
  const auto ordinal = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(row);
  hashes_.push_back(hash);
  place(ordinal);
  return ordinal;
}

bool DictionaryIndex::add_label(std::uint32_t ordinal, std::uint32_t label_id,
                                std::uint32_t count) {
  Entry& entry = entries_[ordinal];
  for (std::uint32_t i = 0; i < entry.labels_count; ++i) {
    if (label_ids_[entry.labels_begin + i] == label_id) {
      counts_[entry.labels_begin + i] += count;
      return false;
    }
  }
  if (entry.labels_begin + entry.labels_count != label_ids_.size()) {
    // Another key's run follows this one: move this run to the end.
    const std::uint32_t from = entry.labels_begin;
    entry.labels_begin = static_cast<std::uint32_t>(label_ids_.size());
    for (std::uint32_t i = 0; i < entry.labels_count; ++i) {
      const std::uint32_t id = label_ids_[from + i];
      const std::uint32_t observed = counts_[from + i];
      label_ids_.push_back(id);
      counts_.push_back(observed);
    }
  }
  label_ids_.push_back(label_id);
  counts_.push_back(count);
  ++entry.labels_count;
  return true;
}

void DictionaryIndex::resize_table(std::size_t keys) {
  // Power-of-two slots at load factor <= 0.5: probe chains stay short
  // and the tag bytes cost 1/16th of what they save in entry touches.
  std::size_t slots = kTagScanWindow;
  while (slots < 2 * keys) slots <<= 1;
  slots_ = slots;
  mask_ = slots - 1;
  tags_.assign(slots + kTagScanWindow, 0);
  slot_entry_.assign(slots, 0);
  for (std::uint32_t e = 0; e < entries_.size(); ++e) place(e);
}

void DictionaryIndex::place(std::uint32_t ordinal) noexcept {
  const std::uint64_t hash = hashes_[ordinal];
  std::size_t pos = static_cast<std::size_t>(hash) & mask_;
  while (tags_[pos] != 0) pos = (pos + 1) & mask_;
  tags_[pos] = tag_of(hash);
  slot_entry_[pos] = ordinal;
  // Mirror tail: a window starting near the last slot reads the first
  // kTagScanWindow-1 tags again instead of branching on wraparound.
  if (pos < kTagScanWindow) tags_[slots_ + pos] = tags_[pos];
}

std::uint64_t DictionaryIndex::resident_bytes() const noexcept {
  std::uint64_t bytes = tags_.size();
  bytes += slot_entry_.size() * sizeof(std::uint32_t);
  bytes += entries_.size() * (sizeof(Entry) + sizeof(std::uint64_t));
  bytes += means_.size() * sizeof(double);
  bytes += (label_ids_.size() + counts_.size()) * sizeof(std::uint32_t);
  for (const std::string& name : metric_names_) bytes += name.size();
  return bytes;
}

}  // namespace efd::core

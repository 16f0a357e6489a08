#pragma once
/// \file recognition_scratch.hpp
/// \brief Per-worker reusable state for allocation-free recognition.
///
/// The legacy scoring path allocates on every call: a fresh
/// std::vector<FingerprintKey> (each key owning a metric string and a
/// means vector), a std::set to dedup applications per entry, and a
/// std::map node per vote. At sampling rate that is thousands of
/// allocations per second per stream for results that are discarded
/// moments later.
///
/// RecognitionScratch replaces all of it with flat arrays owned by the
/// caller (one scratch per worker thread) that reach a steady state
/// after the first few calls and then never touch the heap again:
///
///  - a fingerprint *arena*: FingerprintKey slots reused in place, so
///    metric strings and means vectors keep their capacity;
///  - SoA *lanes*: the interval means of a whole record are gathered
///    contiguously and rounded in one round_lanes() pass (the
///    vectorizable form of the per-key round_to_depth calls);
///  - *stamped vote arrays* indexed by the dictionary's interned label
///    and application ids (core/label_table.hpp): a generation stamp
///    makes "clear" O(1) instead of O(table size), and an entry serial
///    stamp replaces the per-entry application dedup set.
///
/// The scoring product is IdRecognitionResult — ids and parallel flat
/// vectors. The string-keyed RecognitionResult the CLI and evaluation
/// use is produced on demand by render_result(), which allocates (map
/// nodes, strings) and is therefore called once per verdict, not once
/// per sample.
///
/// Thread-compatibility: a scratch belongs to exactly one thread at a
/// time (Matcher::recognize_batch keeps one per pool worker in
/// thread_local storage). Concurrent scratches over one shared
/// dictionary are safe: they only read the dictionary and label table.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dictionary.hpp"
#include "core/label_table.hpp"
#include "core/matcher.hpp"

namespace efd::core {

/// Recognition outcome in interned-id space. All vectors are owned by
/// the scratch's result buffer and reused across calls; copy what you
/// need to keep. Use LabelTable::label_name / application_name to
/// resolve ids.
struct IdRecognitionResult {
  bool recognized = false;
  std::size_t fingerprint_count = 0;
  std::size_t matched_count = 0;

  /// Application ids with the maximum vote count, in dictionary
  /// first-seen (tie-break) order — same contract as
  /// RecognitionResult::applications.
  std::vector<std::uint32_t> applications;

  /// Every application that received votes, in first-touch order, with
  /// the vote count parallel in app_votes.
  std::vector<std::uint32_t> matched_apps;
  std::vector<int> app_votes;

  /// Every matched label id in first-seen order (the legacy
  /// matched_labels order), with counts parallel in label_votes.
  std::vector<std::uint32_t> matched_labels;
  std::vector<int> label_votes;
};

class RecognitionScratch {
 public:
  RecognitionScratch() = default;

  // Scratches are worker-local by design; copying one would defeat the
  // buffer reuse that is its entire purpose.
  RecognitionScratch(const RecognitionScratch&) = delete;
  RecognitionScratch& operator=(const RecognitionScratch&) = delete;
  RecognitionScratch(RecognitionScratch&&) = default;
  RecognitionScratch& operator=(RecognitionScratch&&) = default;

  // --- fingerprint arena (filled by build_fingerprints_into) ---

  /// Resets the arena to empty without releasing key capacity.
  void begin_keys() noexcept { key_count_ = 0; }

  /// Returns the next reusable key slot: rounded_means cleared, metric
  /// string left with its capacity for assign().
  FingerprintKey& next_key();

  /// The keys built since begin_keys().
  std::span<const FingerprintKey> keys() const noexcept {
    return {keys_.data(), key_count_};
  }

  /// SoA lanes and the reused combined-metric-name buffer, exposed for
  /// build_fingerprints_into.
  std::vector<double>& means_lane() noexcept { return means_; }
  std::vector<std::uint8_t>& covered_lane() noexcept { return covered_; }
  std::string& name_buffer() noexcept { return combined_name_; }

  /// Reused per-batch key-hash buffer for the flat-index probe pipeline
  /// (Matcher precomputes every hash, then prefetches probe i+K's bucket
  /// while resolving probe i).
  std::vector<std::uint64_t>& hash_buffer() noexcept { return hashes_; }

  // --- scoring (driven by Matcher::recognize_keys_into) ---

  /// Starts a scoring pass against \p table: sizes the vote arrays to
  /// the table and advances the generation stamp (O(1) logical clear).
  void begin(const LabelTable& table);

  /// Tallies one matched entry's votes from its interned label ids,
  /// shared verbatim by the map path (DictionaryEntry's label_ids) and
  /// the flat-index path (DictionaryIndex::label_ids spans) — vote
  /// parity between the two probe paths holds by construction, not by
  /// testing alone.
  void score_entry_ids(std::span<const std::uint32_t> label_ids);

  /// Finalizes result(): copies touched votes out and computes the tied
  /// winner array in \p dictionary first-seen order.
  void finish(const Dictionary& dictionary, std::size_t fingerprint_count);

  /// The id-space result of the last scoring pass.
  const IdRecognitionResult& result() const noexcept { return result_; }

  /// Renders the last result as the legacy string-keyed struct. This is
  /// the allocating step (strings, map nodes); call it once per verdict,
  /// not once per sample.
  void render_result(RecognitionResult& out) const;

 private:
  // Fingerprint arena + SoA lanes.
  std::vector<FingerprintKey> keys_;
  std::size_t key_count_ = 0;
  std::vector<double> means_;
  std::vector<std::uint8_t> covered_;
  std::string combined_name_;
  std::vector<std::uint64_t> hashes_;

  // Vote arrays indexed by label/application id, valid for the current
  // generation only (stamp != generation_ means "zero").
  std::vector<int> label_votes_;
  std::vector<int> app_votes_;
  std::vector<std::uint64_t> label_stamp_;
  std::vector<std::uint64_t> app_stamp_;
  // Per-entry application dedup: one vote per app per entry.
  std::vector<std::uint64_t> app_entry_stamp_;
  std::uint64_t generation_ = 0;
  std::uint64_t entry_serial_ = 0;

  std::vector<std::uint32_t> touched_labels_;  // first-seen order
  std::vector<std::uint32_t> touched_apps_;    // first-touch order

  const LabelTable* table_ = nullptr;

  IdRecognitionResult result_;
};

}  // namespace efd::core

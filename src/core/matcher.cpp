#include "core/matcher.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "core/recognition_scratch.hpp"
#include "util/thread_pool.hpp"

namespace efd::core {

std::string RecognitionResult::label_prediction() const {
  if (!recognized || applications.empty()) return kUnknownApplication;
  const std::string& winner = applications.front();
  int best_votes = 0;
  std::string best_label;
  // matched_labels preserves first-seen order, so ties resolve earliest.
  for (const std::string& label : matched_labels) {
    if (telemetry::parse_label(label).application != winner) continue;
    const auto it = label_votes.find(label);
    const int count = it != label_votes.end() ? it->second : 0;
    if (count > best_votes) {
      best_votes = count;
      best_label = label;
    }
  }
  return best_label.empty() ? winner : best_label;
}

RecognitionResult Matcher::recognize_keys(
    const std::vector<FingerprintKey>& keys) const {
  return recognize_key_span(keys);
}

RecognitionResult Matcher::recognize_key_span(
    std::span<const FingerprintKey> keys) const {
  RecognitionResult result;
  result.fingerprint_count = keys.size();

  std::set<std::string> seen_labels;  // dedup while preserving first-seen order
  for (const FingerprintKey& key : keys) {
    const std::optional<DictionaryEntry> entry = dictionary_->lookup(key);
    if (!entry) continue;
    ++result.matched_count;

    // One vote per matched fingerprint per distinct application name in
    // the entry (an entry listing sp_X, sp_Y, bt_X yields one sp vote and
    // one bt vote for this fingerprint).
    std::set<std::string> applications_in_entry;
    for (std::size_t i = 0; i < entry->size(); ++i) {
      const std::string& label = entry->label(i);
      applications_in_entry.insert(telemetry::parse_label(label).application);
      ++result.label_votes[label];
      if (seen_labels.insert(label).second) {
        result.matched_labels.push_back(label);
      }
    }
    for (const std::string& application : applications_in_entry) {
      ++result.votes[application];
    }
  }

  if (result.matched_count == 0) return result;  // recognized stays false

  int best_votes = 0;
  for (const auto& [application, votes] : result.votes) {
    best_votes = std::max(best_votes, votes);
  }
  for (const auto& [application, votes] : result.votes) {
    if (votes == best_votes) result.applications.push_back(application);
  }
  // Tie array ordered by dictionary first-seen order (paper Section 3 /
  // Table 4: "in this case SP" — SP was learned before BT).
  std::sort(result.applications.begin(), result.applications.end(),
            [this](const std::string& a, const std::string& b) {
              return dictionary_->application_order(a) <
                     dictionary_->application_order(b);
            });
  result.recognized = true;
  return result;
}

RecognitionResult Matcher::recognize(
    const telemetry::ExecutionRecord& record,
    const std::vector<std::size_t>& metric_slots) const {
  return recognize_keys(
      build_fingerprints(record, dictionary_->config(), metric_slots));
}

RecognitionResult Matcher::recognize(const telemetry::ExecutionRecord& record,
                                     const telemetry::Dataset& dataset) const {
  return recognize(record, resolve_metric_slots(dataset));
}

void Matcher::recognize_keys_into(std::span<const FingerprintKey> keys,
                                  RecognitionScratch& scratch) const {
  scratch.begin(dictionary_->label_table());
  // Batch probe: every key's hash first (one pass of pure arithmetic over
  // the arena), then a software-pipelined probe loop — prefetch probe
  // i+K's bucket while resolving probe i, so the random-access cache miss
  // of each lookup overlaps the tag scan and vote tally of an earlier one
  // instead of serializing behind it.
  const DictionaryIndex& index = *dictionary_->probe_index();
  std::vector<std::uint64_t>& hashes = scratch.hash_buffer();
  hashes.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    hashes[i] = DictionaryIndex::hash_key(keys[i]);
  }
  constexpr std::size_t kPrefetchDistance = 8;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i + kPrefetchDistance < keys.size()) {
      index.prefetch(hashes[i + kPrefetchDistance]);
    }
    const DictionaryIndex::Entry* entry = index.find_hashed(keys[i], hashes[i]);
    if (entry != nullptr) scratch.score_entry_ids(index.label_ids(*entry));
  }
  scratch.finish(keys.size());
}

void Matcher::recognize_into(const telemetry::ExecutionRecord& record,
                             const std::vector<std::size_t>& metric_slots,
                             RecognitionScratch& scratch) const {
  build_fingerprints_into(record, dictionary_->config(), metric_slots, scratch);
  recognize_keys_into(scratch.keys(), scratch);
}

std::vector<RecognitionResult> Matcher::recognize_batch(
    std::span<const telemetry::ExecutionRecord> records,
    const std::vector<std::size_t>& metric_slots, util::ThreadPool* pool) const {
  std::vector<RecognitionResult> results(records.size());
  util::ThreadPool& workers = pool != nullptr ? *pool : util::global_pool();
  util::parallel_for(workers, 0, records.size(), [&](std::size_t i) {
    // One scratch per pool worker, kept warm across records and batches:
    // after the first few records each iteration runs allocation-free up
    // to the final per-record render.
    thread_local RecognitionScratch scratch;
    recognize_into(records[i], metric_slots, scratch);
    scratch.render_result(results[i]);
  });
  return results;
}

std::vector<RecognitionResult> Matcher::recognize_batch(
    const telemetry::Dataset& dataset, util::ThreadPool* pool) const {
  return recognize_batch(std::span(dataset.records()),
                         resolve_metric_slots(dataset), pool);
}

std::vector<std::size_t> Matcher::resolve_metric_slots(
    const telemetry::Dataset& dataset) const {
  std::vector<std::size_t> slots;
  slots.reserve(dictionary_->config().metrics.size());
  for (const std::string& name : dictionary_->config().metrics) {
    slots.push_back(dataset.metric_slot(name));
  }
  return slots;
}

}  // namespace efd::core

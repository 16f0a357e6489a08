#include "core/recognition_scratch.hpp"

#include <algorithm>

namespace efd::core {

FingerprintKey& RecognitionScratch::next_key() {
  if (key_count_ == keys_.size()) keys_.emplace_back();
  FingerprintKey& key = keys_[key_count_++];
  key.rounded_means.clear();  // metric keeps its capacity for assign()
  return key;
}

void RecognitionScratch::begin(const LabelTable& table) {
  table_ = &table;

  const std::size_t labels = table.label_count();
  const std::size_t apps = table.application_count();
  // Grow-only: a scratch reused against a smaller dictionary keeps its
  // larger arrays; stale high indices are never read because entries only
  // carry ids valid for their own table.
  if (label_votes_.size() < labels) {
    label_votes_.resize(labels, 0);
    label_stamp_.resize(labels, 0);
  }
  if (app_votes_.size() < apps) {
    app_votes_.resize(apps, 0);
    app_stamp_.resize(apps, 0);
    app_entry_stamp_.resize(apps, 0);
  }

  ++generation_;
  touched_labels_.clear();
  touched_apps_.clear();

  result_.recognized = false;
  result_.fingerprint_count = 0;
  result_.matched_count = 0;
  result_.applications.clear();
  result_.matched_apps.clear();
  result_.app_votes.clear();
  result_.matched_labels.clear();
  result_.label_votes.clear();
}

void RecognitionScratch::score_entry_ids(
    std::span<const std::uint32_t> label_ids) {
  ++result_.matched_count;
  ++entry_serial_;

  for (const std::uint32_t label_id : label_ids) {
    // Concurrent interning can publish ids past the counts begin() saw;
    // grow to cover them (rare, training-time only).
    if (label_id >= label_votes_.size()) {
      label_votes_.resize(label_id + 1, 0);
      label_stamp_.resize(label_id + 1, 0);
    }
    if (label_stamp_[label_id] != generation_) {
      label_stamp_[label_id] = generation_;
      label_votes_[label_id] = 0;
      touched_labels_.push_back(label_id);
    }
    ++label_votes_[label_id];

    const std::uint32_t app = table_->application_of(label_id);
    if (app >= app_votes_.size()) {
      app_votes_.resize(app + 1, 0);
      app_stamp_.resize(app + 1, 0);
      app_entry_stamp_.resize(app + 1, 0);
    }
    // entry_serial_ never repeats (monotone across generations), so this
    // exactly reproduces the legacy per-entry application dedup set: one
    // application vote per entry however many of its labels matched.
    if (app_entry_stamp_[app] != entry_serial_) {
      app_entry_stamp_[app] = entry_serial_;
      if (app_stamp_[app] != generation_) {
        app_stamp_[app] = generation_;
        app_votes_[app] = 0;
        touched_apps_.push_back(app);
      }
      ++app_votes_[app];
    }
  }
}

void RecognitionScratch::finish(std::size_t fingerprint_count) {
  result_.fingerprint_count = fingerprint_count;
  if (result_.matched_count == 0) return;  // recognized stays false

  for (const std::uint32_t label_id : touched_labels_) {
    result_.matched_labels.push_back(label_id);
    result_.label_votes.push_back(label_votes_[label_id]);
  }

  int best_votes = 0;
  for (const std::uint32_t app : touched_apps_) {
    result_.matched_apps.push_back(app);
    result_.app_votes.push_back(app_votes_[app]);
    best_votes = std::max(best_votes, app_votes_[app]);
  }
  for (const std::uint32_t app : touched_apps_) {
    if (app_votes_[app] == best_votes) result_.applications.push_back(app);
  }
  // Tie array in the dictionary's first-seen order, which is the label
  // table's application id order (Dictionary::application_order).
  std::sort(result_.applications.begin(), result_.applications.end());
  result_.recognized = true;
}

void RecognitionScratch::render_result(RecognitionResult& out) const {
  if (table_ == nullptr) {  // render before any scoring pass
    out = RecognitionResult{};
    return;
  }
  out.recognized = result_.recognized;
  out.fingerprint_count = result_.fingerprint_count;
  out.matched_count = result_.matched_count;
  out.applications.clear();
  out.votes.clear();
  out.label_votes.clear();
  out.matched_labels.clear();

  for (std::size_t i = 0; i < result_.matched_labels.size(); ++i) {
    const std::string& label = table_->label_name(result_.matched_labels[i]);
    out.matched_labels.push_back(label);
    out.label_votes.emplace(label, result_.label_votes[i]);
  }
  for (std::size_t i = 0; i < result_.matched_apps.size(); ++i) {
    out.votes.emplace(table_->application_name(result_.matched_apps[i]),
                      result_.app_votes[i]);
  }
  for (const std::uint32_t app : result_.applications) {
    out.applications.push_back(table_->application_name(app));
  }
}

}  // namespace efd::core

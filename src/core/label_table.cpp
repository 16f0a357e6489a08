#include "core/label_table.hpp"

#include "telemetry/execution_record.hpp"

namespace efd::core {

namespace {
const std::string kEmptyString;
}  // namespace

std::uint32_t LabelTable::intern(const std::string& label) {
  const auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;

  const std::string application = telemetry::parse_label(label).application;
  const auto [app_it, inserted] = app_ids_.emplace(
      application, static_cast<std::uint32_t>(app_names_.size()));
  if (inserted) app_names_.push_back(application);

  const auto label_id = static_cast<std::uint32_t>(label_names_.size());
  label_ids_.emplace(label, label_id);
  label_names_.push_back(label);
  label_app_.push_back(app_it->second);
  return label_id;
}

std::uint32_t LabelTable::id_of(const std::string& label) const noexcept {
  const auto it = label_ids_.find(label);
  return it != label_ids_.end() ? it->second : kNoLabelId;
}

const std::string& LabelTable::label_name(
    std::uint32_t label_id) const noexcept {
  return label_id < label_names_.size() ? label_names_[label_id]
                                        : kEmptyString;
}

std::uint32_t LabelTable::application_of(
    std::uint32_t label_id) const noexcept {
  return label_id < label_app_.size() ? label_app_[label_id] : kNoLabelId;
}

const std::string& LabelTable::application_name(
    std::uint32_t app_id) const noexcept {
  return app_id < app_names_.size() ? app_names_[app_id] : kEmptyString;
}

}  // namespace efd::core

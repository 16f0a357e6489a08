#pragma once
/// \file label_table.hpp
/// \brief Interner of full labels ("ft_X") and their applications to
/// dense u32 ids — the id space the allocation-free recognition hot path
/// votes in.
///
/// The string-keyed scoring loop pays for itself many times per matched
/// entry: a parse_label per label, a std::set per entry to dedup
/// applications, and a std::map node per vote. Interning every label the
/// dictionary has ever observed to a dense id turns all of that into
/// flat-array arithmetic (see recognition_scratch.hpp); names reappear
/// only when a verdict is rendered for a human or the wire.
///
/// Plain containers, owned by one Dictionary: intern() runs only while
/// the dictionary is built (training, load), before it is published as a
/// const epoch; every reader after publication sees a frozen table.
///
/// Note the table's application ids are its own dense space for vote
/// arrays; the tie-break epoch order remains the dictionary's
/// application first-seen order — ranks are queried by name at verdict
/// time.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace efd::core {

/// "No id": returned for strings never interned; never a valid id.
inline constexpr std::uint32_t kNoLabelId = 0xFFFFFFFFu;

class LabelTable {
 public:
  /// Dense id of \p label, interning it (and its application) on first
  /// sight.
  std::uint32_t intern(const std::string& label);

  /// Id of an already-interned label; kNoLabelId if never seen.
  std::uint32_t id_of(const std::string& label) const noexcept;

  /// Full label name for an id. Empty string for out-of-range ids.
  const std::string& label_name(std::uint32_t label_id) const noexcept;

  /// Application id of a label id; kNoLabelId for out-of-range ids.
  std::uint32_t application_of(std::uint32_t label_id) const noexcept;

  /// Application name for an application id; empty for out-of-range.
  const std::string& application_name(std::uint32_t app_id) const noexcept;

  /// Distinct labels / applications interned so far.
  std::size_t label_count() const noexcept { return label_names_.size(); }
  std::size_t application_count() const noexcept { return app_names_.size(); }

 private:
  std::unordered_map<std::string, std::uint32_t> label_ids_;
  std::vector<std::string> label_names_;      ///< index == label id
  std::vector<std::uint32_t> label_app_;      ///< label id -> app id
  std::unordered_map<std::string, std::uint32_t> app_ids_;
  std::vector<std::string> app_names_;        ///< index == app id
};

}  // namespace efd::core

#pragma once

// The scrape row list.  Every row a scrape reports is declared once, with
// its flat name, its Prometheus family and labels, and its kind; the flat
// `name value` text (kStatsReply, `efd_cli stats --port`) and the `/metrics`
// exposition both render from the same list.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace efd::obs {

class MetricsRegistry;

/// Escapes a raw string for use inside a Prometheus label value per the
/// text-format spec: backslash, double-quote, and newline become \\, \",
/// and \n.
std::string escape_label_value(std::string_view raw);

/// One label pair, `name="value"`, with the value escaped.
std::string label(std::string_view name, std::string_view value);

enum class RowKind { kCounter, kGauge, kText };

struct ScrapeRow {
  std::string name;    ///< flat name, e.g. `source.0.drops`
  std::string family;  ///< Prometheus family; empty for a flat-only text row
  std::string labels;  ///< escaped label body without braces
  RowKind kind = RowKind::kCounter;
  std::string value;   ///< printed as `operator<<` prints the number
};

class ScrapeRows {
 public:
  /// Rows declared after this call are named `flat_prefix` + name, belong
  /// to the family `family_prefix` + name and carry `labels`.
  void block(std::string flat_prefix, std::string family_prefix,
             std::string labels = {});

  void counter(std::string_view name, std::uint64_t value);
  void gauge(std::string_view name, std::uint64_t value);
  void gauge(std::string_view name, double value);
  /// A text row: printed in the flat scrape only.
  void text(std::string_view name, std::string value);
  /// A text row that is also the label `label_name` of the info gauge
  /// `family` (`family{label_name="value",...} 1`); rows of one family
  /// share its one series, labels in declaration order.
  void info(std::string_view name, std::string value, std::string family,
            std::string_view label_name);

  /// The process-age row `uptime.seconds` (`efd_uptime_seconds`), in a
  /// block of its own.
  void uptime(std::uint64_t seconds);

  const std::vector<ScrapeRow>& rows() const noexcept { return rows_; }

  /// Sorted `name value` lines.
  std::string flat() const;

  /// Prometheus text exposition: counter and gauge families in
  /// first-appearance order of the sorted rows, each under one `# TYPE`
  /// line with its sample lines sorted; then one info gauge per family of
  /// text rows; then `efd_uptime_seconds`; then `registry.render()`.
  std::string exposition(const MetricsRegistry& registry) const;

 private:
  ScrapeRow& add(std::string_view name, RowKind kind, std::string value);

  std::string flat_prefix_;
  std::string family_prefix_;
  std::string labels_;
  std::vector<ScrapeRow> rows_;
};

}  // namespace efd::obs

#include "obs/exposition.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/metrics.hpp"

namespace efd::obs {

namespace {

// The process-age row's family: the exposition renders it last, after
// the info series.
constexpr std::string_view kUptimeFamily = "efd_uptime_seconds";

std::vector<const ScrapeRow*> sorted_by_name(
    const std::vector<ScrapeRow>& rows) {
  std::vector<const ScrapeRow*> sorted;
  sorted.reserve(rows.size());
  for (const ScrapeRow& row : rows) sorted.push_back(&row);
  std::sort(sorted.begin(), sorted.end(),
            [](const ScrapeRow* a, const ScrapeRow* b) {
              return a->name < b->name;
            });
  return sorted;
}

}  // namespace

std::string escape_label_value(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
        break;
    }
  }
  return out;
}

std::string label(std::string_view name, std::string_view value) {
  return std::string(name) + "=\"" + escape_label_value(value) + "\"";
}

void ScrapeRows::block(std::string flat_prefix, std::string family_prefix,
                       std::string labels) {
  flat_prefix_ = std::move(flat_prefix);
  family_prefix_ = std::move(family_prefix);
  labels_ = std::move(labels);
}

ScrapeRow& ScrapeRows::add(std::string_view name, RowKind kind,
                           std::string value) {
  return rows_.emplace_back(flat_prefix_ + std::string(name),
                            family_prefix_ + std::string(name), labels_,
                            kind, std::move(value));
}

void ScrapeRows::counter(std::string_view name, std::uint64_t value) {
  add(name, RowKind::kCounter, std::to_string(value));
}

void ScrapeRows::gauge(std::string_view name, std::uint64_t value) {
  add(name, RowKind::kGauge, std::to_string(value));
}

void ScrapeRows::gauge(std::string_view name, double value) {
  // "%g" is what `operator<<` prints for a double with default flags.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  add(name, RowKind::kGauge, buf);
}

void ScrapeRows::text(std::string_view name, std::string value) {
  add(name, RowKind::kText, std::move(value)).family.clear();
}

void ScrapeRows::info(std::string_view name, std::string value,
                      std::string family, std::string_view label_name) {
  ScrapeRow& row = add(name, RowKind::kText, std::move(value));
  row.family = std::move(family);
  row.labels = label(label_name, row.value);
}

void ScrapeRows::uptime(std::uint64_t seconds) {
  block("uptime.", "efd_uptime_");
  gauge("seconds", seconds);
}

std::string ScrapeRows::flat() const {
  std::string out;
  for (const ScrapeRow* row : sorted_by_name(rows_)) {
    out += row->name;
    out += ' ';
    out += row->value;
    out += '\n';
  }
  return out;
}

std::string ScrapeRows::exposition(const MetricsRegistry& registry) const {
  // One entry per family: its `# TYPE` line, then its sample lines.
  std::vector<std::pair<std::string_view, std::vector<std::string>>> families;
  const auto family_of = [&families](std::string_view name,
                                     const char* type) -> auto& {
    const auto it = std::find_if(
        families.begin(), families.end(),
        [name](const auto& family) { return family.first == name; });
    if (it != families.end()) return it->second;
    families.emplace_back(name, std::vector<std::string>{});
    families.back().second.push_back("# TYPE " + std::string(name) + " " +
                                     type);
    return families.back().second;
  };
  for (const ScrapeRow* row : sorted_by_name(rows_)) {
    if (row->kind == RowKind::kText) continue;
    std::string sample = row->family;
    if (!row->labels.empty()) sample += "{" + row->labels + "}";
    sample += " " + row->value;
    family_of(row->family,
              row->kind == RowKind::kCounter ? "counter" : "gauge")
        .push_back(std::move(sample));
  }
  // Text rows fold into info gauges, one series per family.
  std::vector<std::pair<std::string_view, std::string>> infos;
  for (const ScrapeRow& row : rows_) {
    if (row.kind != RowKind::kText || row.family.empty()) continue;
    const auto it = std::find_if(
        infos.begin(), infos.end(),
        [&row](const auto& info) { return info.first == row.family; });
    if (it == infos.end()) {
      infos.emplace_back(row.family, row.labels);
    } else {
      it->second += "," + row.labels;
    }
  }

  std::string out;
  const auto emit = [&out](std::vector<std::string>& lines) {
    std::sort(lines.begin() + 1, lines.end());
    for (const std::string& line : lines) out += line + "\n";
  };
  for (auto& [family, lines] : families) {
    if (family != kUptimeFamily) emit(lines);
  }
  for (const auto& [family, labels] : infos) {
    out += "# TYPE " + std::string(family) + " gauge\n" +
           std::string(family) + "{" + labels + "} 1\n";
  }
  for (auto& [family, lines] : families) {
    if (family == kUptimeFamily) emit(lines);
  }
  out += registry.render();
  return out;
}

}  // namespace efd::obs

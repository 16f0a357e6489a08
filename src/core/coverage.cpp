#include "core/coverage.hpp"

#include <numeric>
#include <set>
#include <sstream>

#include "util/string_utils.hpp"

namespace efd::core {

std::string CoverageReport::to_string() const {
  std::ostringstream out;
  out << "executions: " << executions << " (" << fully_matched << " fully, "
      << partially_matched << " partially, " << unmatched
      << " unmatched); mean match fraction "
      << util::format_fixed(mean_match_fraction, 3) << "\n";
  for (const auto& [application, fraction] : match_fraction_by_application) {
    out << "  " << application << ": match "
        << util::format_fixed(fraction, 3) << ", ";
    const auto it = keys_by_application.find(application);
    out << (it != keys_by_application.end() ? it->second : 0) << " keys\n";
  }
  return out.str();
}

CoverageReport analyze_coverage(const Dictionary& dictionary,
                                const telemetry::Dataset& dataset,
                                const std::vector<std::size_t>& indices) {
  std::vector<std::size_t> all = indices;
  if (all.empty()) {
    all.resize(dataset.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
  }

  std::vector<std::size_t> slots;
  slots.reserve(dictionary.config().metrics.size());
  for (const std::string& name : dictionary.config().metrics) {
    slots.push_back(dataset.metric_slot(name));
  }

  CoverageReport report;
  report.executions = all.size();
  std::map<std::string, double> fraction_sum;
  std::map<std::string, std::size_t> fraction_count;

  double total_fraction = 0.0;
  for (std::size_t index : all) {
    const auto& record = dataset.record(index);
    const auto keys = build_fingerprints(record, dictionary.config(), slots);
    std::size_t matched = 0;
    for (const auto& key : keys) {
      if (dictionary.lookup(key)) ++matched;
    }
    const double fraction =
        keys.empty() ? 0.0
                     : static_cast<double>(matched) /
                           static_cast<double>(keys.size());
    total_fraction += fraction;
    if (matched == 0) ++report.unmatched;
    else if (matched == keys.size()) ++report.fully_matched;
    else ++report.partially_matched;

    const std::string& application = record.label().application;
    fraction_sum[application] += fraction;
    ++fraction_count[application];
  }
  report.mean_match_fraction =
      all.empty() ? 0.0 : total_fraction / static_cast<double>(all.size());
  for (const auto& [application, sum] : fraction_sum) {
    report.match_fraction_by_application[application] =
        sum / static_cast<double>(fraction_count[application]);
  }

  // Bucket spread per application, from the dictionary side.
  for (std::size_t ordinal = 0; ordinal < dictionary.size(); ++ordinal) {
    const DictionaryEntry entry = dictionary.entry(ordinal);
    std::set<std::string> applications;
    for (std::size_t i = 0; i < entry.size(); ++i) {
      applications.insert(telemetry::parse_label(entry.label(i)).application);
    }
    for (const auto& application : applications) {
      ++report.keys_by_application[application];
    }
  }
  return report;
}

}  // namespace efd::core

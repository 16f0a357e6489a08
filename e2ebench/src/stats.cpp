#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace e2ebench {

std::size_t percentile_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // The epsilon keeps exact products (0.99 * 1000 = 990) from rounding up
  // to the next rank through binary representation error.
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - percentile_rank(n, q);
}

bool percentile_supported(std::size_t n, double q, std::size_t min_beyond) {
  return n > 0 && samples_beyond(n, q) >= min_beyond;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = percentile_rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

Scrape Scrape::parse(std::string_view text) {
  Scrape scrape;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(at, end - at);
    at = end + 1;
    if (line.empty() || line.front() == '#') continue;
    // The value follows the last space; label values never hold one in
    // this exposition, but splitting at the last space is safe anyway.
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) continue;
    const std::string value(line.substr(space + 1));
    char* parsed_end = nullptr;
    const double number = std::strtod(value.c_str(), &parsed_end);
    if (parsed_end == value.c_str()) continue;
    scrape.series_[std::string(line.substr(0, space))] = number;
  }
  return scrape;
}

double Scrape::value(const std::string& series) const {
  const auto it = series_.find(series);
  return it == series_.end() ? 0.0 : it->second;
}

double Scrape::sum_family(std::string_view family) const {
  double total = 0.0;
  for (auto it = series_.lower_bound(family); it != series_.end(); ++it) {
    const std::string& name = it->first;
    if (name.compare(0, family.size(), family) != 0) break;
    if (name.size() == family.size() || name[family.size()] == '{') {
      total += it->second;
    }
  }
  return total;
}

std::string Scrape::label(std::string_view family,
                          std::string_view label) const {
  for (auto it = series_.lower_bound(family); it != series_.end(); ++it) {
    const std::string& name = it->first;
    if (name.compare(0, family.size(), family) != 0) break;
    if (name.size() == family.size() || name[family.size()] != '{') continue;
    const std::string key = std::string(label) + "=\"";
    std::size_t pos = name.find(key, family.size());
    if (pos == std::string::npos) continue;
    pos += key.size();
    const std::size_t close = name.find('"', pos);
    if (close == std::string::npos) continue;
    return name.substr(pos, close - pos);
  }
  return {};
}

std::vector<std::pair<double, double>> Scrape::buckets(
    std::string_view family, std::string_view labels) const {
  std::string prefix = std::string(family) + "_bucket{";
  if (!labels.empty()) prefix += std::string(labels) + ",";
  prefix += "le=\"";
  std::vector<std::pair<double, double>> out;
  for (auto it = series_.lower_bound(prefix); it != series_.end(); ++it) {
    const std::string& name = it->first;
    if (name.compare(0, prefix.size(), prefix) != 0) break;
    const std::size_t close = name.find('"', prefix.size());
    if (close == std::string::npos) continue;
    const std::string edge = name.substr(prefix.size(), close - prefix.size());
    const double upper = edge == "+Inf"
                             ? std::numeric_limits<double>::infinity()
                             : std::strtod(edge.c_str(), nullptr);
    out.emplace_back(upper, it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// Per-bucket cumulative deltas, aligned on \p after's edges (a series
/// missing from \p before counts as 0 there).
std::vector<std::pair<double, double>> bucket_delta(
    const std::vector<std::pair<double, double>>& before,
    const std::vector<std::pair<double, double>>& after) {
  std::vector<std::pair<double, double>> delta;
  delta.reserve(after.size());
  for (const auto& [edge, count] : after) {
    double earlier = 0.0;
    for (const auto& [old_edge, old_count] : before) {
      if (old_edge == edge) {
        earlier = old_count;
        break;
      }
    }
    delta.emplace_back(edge, std::max(0.0, count - earlier));
  }
  return delta;
}

}  // namespace

double histogram_quantile(const std::vector<std::pair<double, double>>& before,
                          const std::vector<std::pair<double, double>>& after,
                          double q) {
  const auto delta = bucket_delta(before, after);
  if (delta.empty() || delta.back().second <= 0.0) return 0.0;
  const double total = delta.back().second;
  const double rank = std::clamp(q, 0.0, 1.0) * total;
  double lower_edge = 0.0;
  double lower_count = 0.0;
  for (const auto& [edge, cumulative] : delta) {
    if (cumulative >= rank && cumulative > lower_count) {
      if (std::isinf(edge)) return lower_edge;
      const double share = (rank - lower_count) / (cumulative - lower_count);
      return lower_edge + (edge - lower_edge) * share;
    }
    if (!std::isinf(edge)) lower_edge = edge;
    lower_count = cumulative;
  }
  return lower_edge;
}

}  // namespace e2ebench

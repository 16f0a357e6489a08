#pragma once
/// \file stats.hpp
/// \brief Nearest-rank percentiles and Prometheus-scrape arithmetic shared
/// by the end-to-end benchmark and its tests (medians come from
/// util/stats.hpp).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2ebench {

/// Nearest-rank position (1-based) of quantile \p q in \p n sorted
/// samples: ceil(q * n), clamped to [1, n]. 0 when n == 0.
std::size_t percentile_rank(std::size_t n, double q);

/// Samples strictly beyond the nearest-rank position of \p q.
std::size_t samples_beyond(std::size_t n, double q);

/// True when the quantile has at least \p min_beyond samples past it —
/// the rule that makes a reported tail percentile more than one outlier.
bool percentile_supported(std::size_t n, double q,
                          std::size_t min_beyond = 10);

/// Nearest-rank quantile of \p values (copied and sorted); 0 when empty.
double percentile(std::vector<double> values, double q);

/// One `/metrics` scrape: every sample line, keyed by the series text as
/// printed (family name plus its `{...}` label body, when present).
class Scrape {
 public:
  static Scrape parse(std::string_view text);

  /// Value of one exact series (0 when absent).
  double value(const std::string& series) const;

  /// Sum over every label set of \p family (0 when absent).
  double sum_family(std::string_view family) const;

  /// Value of label \p label on the first series of \p family (empty
  /// when absent), e.g. the `sha` of efd_build_info.
  std::string label(std::string_view family, std::string_view label) const;

  /// Cumulative histogram buckets of \p family restricted to the label
  /// body \p labels (without braces, may be empty), as (upper edge,
  /// cumulative count) sorted by edge; +Inf is encoded as infinity.
  std::vector<std::pair<double, double>> buckets(
      std::string_view family, std::string_view labels) const;

 private:
  std::map<std::string, double, std::less<>> series_;
};

/// Quantile \p q of the observations that arrived between two scrapes
/// of one cumulative histogram (Prometheus histogram_quantile: linear
/// interpolation inside the bucket that holds the rank; the +Inf bucket
/// reports the highest finite edge). 0 when nothing arrived.
double histogram_quantile(const std::vector<std::pair<double, double>>& before,
                          const std::vector<std::pair<double, double>>& after,
                          double q);

}  // namespace e2ebench

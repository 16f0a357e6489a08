#include "core/fingerprint.hpp"

#include <sstream>
#include <stdexcept>

#include "core/recognition_scratch.hpp"
#include "core/rounding.hpp"
#include "core/rounding_kernel.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"

namespace efd::core {

std::string FingerprintKey::to_string() const {
  std::ostringstream out;
  out << '[' << metric << ", " << node_id << ", [" << interval.begin_seconds
      << ':' << interval.end_seconds << "], ";
  for (std::size_t i = 0; i < rounded_means.size(); ++i) {
    if (i != 0) out << " + ";
    out << util::format_mean(rounded_means[i]);
  }
  out << ']';
  return out.str();
}

std::vector<FingerprintKey> build_fingerprints(
    const telemetry::ExecutionRecord& record, const FingerprintConfig& config,
    const std::vector<std::size_t>& metric_slots) {
  if (metric_slots.size() != config.metrics.size()) {
    throw std::invalid_argument("metric_slots must align with config.metrics");
  }
  std::vector<FingerprintKey> keys;

  for (const telemetry::Interval& interval : config.intervals) {
    if (!interval.valid()) {
      throw std::invalid_argument("invalid fingerprint interval");
    }
    for (std::size_t node = 0; node < record.node_count(); ++node) {
      if (config.combine_metrics) {
        // One combinatorial key carrying every metric's rounded mean.
        FingerprintKey key;
        key.metric = util::join(config.metrics, "+");
        key.node_id = record.node(node).node_id;
        key.interval = interval;
        bool covered = true;
        for (std::size_t m = 0; m < metric_slots.size(); ++m) {
          const telemetry::TimeSeries& series = record.series(node, metric_slots[m]);
          if (!series.covers(interval)) {
            covered = false;
            break;
          }
          key.rounded_means.push_back(
              round_to_depth(series.mean_over(interval), config.rounding_depth));
        }
        if (covered) keys.push_back(std::move(key));
      } else {
        for (std::size_t m = 0; m < metric_slots.size(); ++m) {
          const telemetry::TimeSeries& series = record.series(node, metric_slots[m]);
          if (!series.covers(interval)) continue;
          FingerprintKey key;
          key.metric = config.metrics[m];
          key.node_id = record.node(node).node_id;
          key.interval = interval;
          key.rounded_means.push_back(
              round_to_depth(series.mean_over(interval), config.rounding_depth));
          keys.push_back(std::move(key));
        }
      }
    }
  }
  return keys;
}

std::vector<FingerprintKey> build_fingerprints(
    const telemetry::ExecutionRecord& record, const FingerprintConfig& config,
    const telemetry::Dataset& dataset) {
  std::vector<std::size_t> slots;
  slots.reserve(config.metrics.size());
  for (const std::string& name : config.metrics) {
    slots.push_back(dataset.metric_slot(name));
  }
  return build_fingerprints(record, config, slots);
}

void build_fingerprints_into(const telemetry::ExecutionRecord& record,
                             const FingerprintConfig& config,
                             const std::vector<std::size_t>& metric_slots,
                             RecognitionScratch& scratch) {
  if (metric_slots.size() != config.metrics.size()) {
    throw std::invalid_argument("metric_slots must align with config.metrics");
  }
  for (const telemetry::Interval& interval : config.intervals) {
    if (!interval.valid()) {
      throw std::invalid_argument("invalid fingerprint interval");
    }
  }

  scratch.begin_keys();
  std::vector<double>& means = scratch.means_lane();
  std::vector<std::uint8_t>& covered = scratch.covered_lane();
  means.clear();
  covered.clear();

  // Pass 1 — gather every (interval, node, metric) window mean into one
  // contiguous lane (uncovered windows contribute a placeholder 0.0 so
  // the lane layout stays rectangular)...
  for (const telemetry::Interval& interval : config.intervals) {
    for (std::size_t node = 0; node < record.node_count(); ++node) {
      for (const std::size_t slot : metric_slots) {
        const telemetry::TimeSeries& series = record.series(node, slot);
        const bool covers = series.covers(interval);
        covered.push_back(covers ? 1 : 0);
        means.push_back(covers ? series.mean_over(interval) : 0.0);
      }
    }
  }

  // ...round the whole lane in one dispatched kernel pass...
  round_lanes(means, config.rounding_depth);

  // ...then emit keys in build_fingerprints' exact traversal order,
  // consuming the lane at the same stride.
  const std::size_t metric_count = metric_slots.size();
  std::string& combined_name = scratch.name_buffer();
  if (config.combine_metrics) {
    combined_name.clear();
    for (std::size_t m = 0; m < config.metrics.size(); ++m) {
      if (m != 0) combined_name += '+';
      combined_name += config.metrics[m];
    }
  }

  std::size_t lane = 0;
  for (const telemetry::Interval& interval : config.intervals) {
    for (std::size_t node = 0; node < record.node_count(); ++node, lane += metric_count) {
      if (config.combine_metrics) {
        bool all_covered = true;  // zero metrics: a key with no means, like build_fingerprints
        for (std::size_t m = 0; m < metric_count; ++m) {
          if (!covered[lane + m]) {
            all_covered = false;
            break;
          }
        }
        if (!all_covered) continue;
        FingerprintKey& key = scratch.next_key();
        key.metric.assign(combined_name);
        key.node_id = record.node(node).node_id;
        key.interval = interval;
        for (std::size_t m = 0; m < metric_count; ++m) {
          key.rounded_means.push_back(means[lane + m]);
        }
      } else {
        for (std::size_t m = 0; m < metric_count; ++m) {
          if (!covered[lane + m]) continue;
          FingerprintKey& key = scratch.next_key();
          key.metric.assign(config.metrics[m]);
          key.node_id = record.node(node).node_id;
          key.interval = interval;
          key.rounded_means.push_back(means[lane + m]);
        }
      }
    }
  }
}

}  // namespace efd::core

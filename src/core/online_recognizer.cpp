#include "core/online_recognizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/rounding.hpp"
#include "core/rounding_kernel.hpp"

namespace efd::core {

namespace {
const std::string kEmptyMetricName;
}  // namespace

void WindowAccumulator::push(int t, double value) noexcept {
  if (t <= last_t_) return;  // duplicate/out-of-order ticks are dropped
  last_t_ = t;
  if (t >= interval_.begin_seconds && t < interval_.end_seconds) {
    sum_ += value;
    ++count_;
  }
}

bool WindowAccumulator::complete() const noexcept {
  return last_t_ >= interval_.end_seconds - 1 && count_ > 0;
}

double WindowAccumulator::mean() const noexcept {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

OnlineRecognizer::OnlineRecognizer(const Dictionary& dictionary,
                                   std::uint32_t node_count)
    : dictionary_(&dictionary), node_count_(node_count) {
  const FingerprintConfig& config = dictionary_->config();
  metric_count_ = config.metrics.size();
  interval_count_ = config.intervals.size();
  windows_total_ =
      static_cast<std::size_t>(node_count_) * metric_count_ * interval_count_;
  sums_.assign(windows_total_, 0.0);
  counts_.assign(windows_total_, 0);
  last_ts_.assign(windows_total_, -1);
  interval_begins_.reserve(interval_count_);
  interval_ends_.reserve(interval_count_);
  for (const telemetry::Interval& interval : config.intervals) {
    interval_begins_.push_back(interval.begin_seconds);
    interval_ends_.push_back(interval.end_seconds);
  }
}

std::uint32_t OnlineRecognizer::metric_slot(
    std::string_view metric_name) const noexcept {
  const FingerprintConfig& config = dictionary_->config();
  for (std::size_t m = 0; m < config.metrics.size(); ++m) {
    if (config.metrics[m] == metric_name) return static_cast<std::uint32_t>(m);
  }
  return kNoMetricSlot;
}

const std::string& OnlineRecognizer::metric_name(
    std::uint32_t slot) const noexcept {
  const FingerprintConfig& config = dictionary_->config();
  if (slot >= config.metrics.size()) return kEmptyMetricName;
  return config.metrics[slot];
}

void OnlineRecognizer::push_slot(std::uint32_t node_id, std::uint32_t slot,
                                 int t, double value) noexcept {
  if (node_id >= node_count_) return;
  if (slot >= metric_count_) return;
  // One accumulate_lanes pass over the (node, slot) block's interval
  // lanes: WindowAccumulator::push semantics per lane plus the
  // complete-transition count (complete() is monotone — last_t and count
  // only grow — so counting transitions keeps windows_complete_ exact).
  const std::size_t base = lane_index(node_id, slot, 0);
  windows_complete_ += accumulate_lanes(
      AccumulatorLanes{sums_.data() + base, counts_.data() + base,
                       last_ts_.data() + base, interval_begins_.data(),
                       interval_ends_.data(), interval_count_},
      t, value);
  cached_.reset();  // new data invalidates a cached verdict
}

void OnlineRecognizer::push(std::uint32_t node_id, std::string_view metric_name,
                            int t, double value) {
  const std::uint32_t slot = metric_slot(metric_name);
  if (slot == kNoMetricSlot) return;
  push_slot(node_id, slot, t, value);
}

bool OnlineRecognizer::ready() const noexcept {
  // Same truth table as walking every accumulator: zero-metric configs
  // have windows_total_ == 0 and report ready whenever nodes exist.
  return node_count_ > 0 && windows_complete_ == windows_total_;
}

std::vector<OnlineRecognizer::AccumulatorState> OnlineRecognizer::export_state()
    const {
  // The flat lane order IS the historical (node, metric, interval)
  // snapshot serialization order, so EFD-SNAP-V1 streams stay
  // byte-compatible across the AoS -> SoA restructure.
  std::vector<AccumulatorState> states;
  states.reserve(windows_total_);
  for (std::size_t w = 0; w < windows_total_; ++w) {
    states.push_back({sums_[w], counts_[w], last_ts_[w]});
  }
  return states;
}

void OnlineRecognizer::import_state(
    const std::vector<AccumulatorState>& states) {
  if (states.size() != windows_total_) {
    throw std::invalid_argument(
        "accumulator state count does not match recognizer layout");
  }
  windows_complete_ = 0;
  for (std::size_t w = 0; w < windows_total_; ++w) {
    sums_[w] = states[w].sum;
    counts_[w] = states[w].count;
    last_ts_[w] = states[w].last_t;
    const std::int32_t end = interval_ends_[w % interval_count_];
    if (last_ts_[w] >= end - 1 && counts_[w] > 0) ++windows_complete_;
  }
  cached_.reset();
}

int OnlineRecognizer::seconds_until_ready(int current_t) const noexcept {
  int latest_end = 0;
  for (const telemetry::Interval& interval : dictionary_->config().intervals) {
    latest_end = std::max(latest_end, interval.end_seconds);
  }
  return std::max(0, latest_end - current_t);
}

std::optional<RecognitionResult> OnlineRecognizer::result() const {
  if (!ready()) return std::nullopt;
  if (cached_) return cached_;
  RecognitionScratch& scratch = scratch_;

  const FingerprintConfig& config = dictionary_->config();

  // Gather every window mean into one contiguous lane (node, interval,
  // metric order — this path's historical key order) and round it in a
  // single vectorized pass.
  std::vector<double>& means = scratch.means_lane();
  means.clear();
  for (std::uint32_t node = 0; node < node_count_; ++node) {
    for (std::size_t i = 0; i < interval_count_; ++i) {
      for (std::size_t m = 0; m < metric_count_; ++m) {
        means.push_back(lane_mean(lane_index(node, m, i)));
      }
    }
  }
  round_lanes(means, config.rounding_depth);

  // Combined keys join all metric names, matching build_fingerprints.
  std::string& joined = scratch.name_buffer();
  if (config.combine_metrics) {
    joined.clear();
    for (std::size_t m = 0; m < config.metrics.size(); ++m) {
      if (m != 0) joined += '+';
      joined += config.metrics[m];
    }
  }

  scratch.begin_keys();
  std::size_t lane = 0;
  for (std::uint32_t node = 0; node < node_count_; ++node) {
    for (std::size_t i = 0; i < interval_count_; ++i) {
      if (config.combine_metrics) {
        FingerprintKey& key = scratch.next_key();
        key.metric.assign(joined);
        key.node_id = node;
        key.interval = config.intervals[i];
        for (std::size_t m = 0; m < metric_count_; ++m) {
          key.rounded_means.push_back(means[lane++]);
        }
      } else {
        for (std::size_t m = 0; m < metric_count_; ++m) {
          FingerprintKey& key = scratch.next_key();
          key.metric.assign(config.metrics[m]);
          key.node_id = node;
          key.interval = config.intervals[i];
          key.rounded_means.push_back(means[lane++]);
        }
      }
    }
  }

  Matcher(*dictionary_).recognize_keys_into(scratch.keys(), scratch);
  RecognitionResult rendered;
  scratch.render_result(rendered);
  cached_ = std::move(rendered);
  return cached_;
}

}  // namespace efd::core

#include "retrain/traffic_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "core/matcher.hpp"

namespace efd::retrain {

namespace {

/// Verdict labels that cannot train anything.
bool usable_label(const std::string& label_prediction) {
  return !label_prediction.empty() &&
         label_prediction != core::kUnknownApplication;
}

}  // namespace

TrafficRecorder::TrafficRecorder(core::FingerprintConfig layout,
                                 TrafficRecorderConfig config)
    : layout_(std::move(layout)), config_(config), rng_(config.seed) {
  if (config_.window_jobs_per_app == 0) config_.window_jobs_per_app = 1;
  if (config_.max_applications == 0) config_.max_applications = 1;
  adopt_layout();
}

void TrafficRecorder::adopt_layout() {
  horizon_ = config_.capture_horizon_seconds;
  if (horizon_ <= 0) {
    for (const telemetry::Interval& interval : layout_.intervals) {
      horizon_ = std::max(horizon_, interval.end_seconds);
    }
  }
  if (horizon_ <= 0) horizon_ = 1;
  // A fully dense capture is one sample per (metric, tick) per node; any
  // excess is duplicate ticks and cannot improve a window mean's fidelity
  // enough to justify unbounded memory.
  max_samples_per_job_ = layout_.metrics.size() *
                         static_cast<std::size_t>(horizon_);
}

void TrafficRecorder::rebind_layout(core::FingerprintConfig layout) {
  layout_ = std::move(layout);
  adopt_layout();
  // Old-layout captures cannot mix with the new filter: drop them and
  // refill from live traffic (observable, never silent).
  pending_.clear();
  windows_.clear();
  ++stats_.window_resets;
}

std::int64_t TrafficRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TrafficRecorder::prune_expired(std::int64_t now) {
  if (config_.window_ttl.count() <= 0) return;
  const std::int64_t horizon =
      now - std::chrono::duration_cast<std::chrono::nanoseconds>(
                config_.window_ttl)
                .count();
  for (auto& [app, window] : windows_) {
    const std::size_t before = window.jobs.size();
    std::erase_if(window.jobs, [horizon](const auto& job) {
      return job->captured_ns < horizon;
    });
    const std::size_t expired = before - window.jobs.size();
    if (expired > 0) {
      stats_.jobs_expired += expired;
      // Recency weighting: the reservoir's admission probability is
      // capacity/seen — resetting `seen` to the surviving population
      // lets fresh jobs re-enter at ring odds instead of fighting the
      // full (now partly expired) history.
      window.seen = window.jobs.size();
    }
  }
}

void TrafficRecorder::job_opened(std::uint64_t job_id,
                                 std::uint32_t node_count,
                                 std::uint32_t source) {
  PendingCapture& capture = pending_[job_id];
  capture.node_count = std::max<std::uint32_t>(node_count, 1);
  capture.source = source;
  capture.samples.clear();
  capture.filtered = 0;
}

void TrafficRecorder::record_batch(std::uint64_t job_id,
                                   std::vector<ingest::WireSample>&& samples) {
  const auto it = pending_.find(job_id);
  if (it == pending_.end()) return;  // restored or already-finished job
  PendingCapture& capture = it->second;
  const std::size_t limit =
      max_samples_per_job_ * static_cast<std::size_t>(capture.node_count);

  // Filter at the door: training can only use layout metrics, ticks
  // below the horizon, and node ids inside the job. Samples are moved,
  // never copied — the pipeline has already dispatched this batch.
  for (ingest::WireSample& sample : samples) {
    const bool wanted =
        sample.t >= 0 && sample.t < horizon_ &&
        sample.node_id < capture.node_count &&
        capture.samples.size() < limit &&
        std::find(layout_.metrics.begin(), layout_.metrics.end(),
                  sample.metric) != layout_.metrics.end();
    if (wanted) {
      capture.samples.push_back(std::move(sample));
      ++stats_.samples_recorded;
    } else {
      ++capture.filtered;
      ++stats_.samples_filtered;
    }
  }
}

void TrafficRecorder::job_finished(std::uint64_t job_id, bool recognized,
                                   const std::string& label_prediction) {
  const auto it = pending_.find(job_id);
  if (it == pending_.end()) {
    ++stats_.jobs_untracked;
    return;
  }
  PendingCapture capture = std::move(it->second);
  pending_.erase(it);

  if (!recognized || !usable_label(label_prediction)) {
    // Self-training needs the incumbent's label; an unknown verdict has
    // none. The samples are released, the miss is observable.
    ++stats_.jobs_unrecognized;
    return;
  }
  if (std::find(config_.excluded_sources.begin(),
                config_.excluded_sources.end(),
                capture.source) != config_.excluded_sources.end()) {
    // Operator-excluded ingest source (e.g. lossy UDP): its truncated
    // traffic must not shape the next dictionary.
    ++stats_.jobs_excluded_source;
    return;
  }
  ++stats_.jobs_captured;
  const std::int64_t now = now_ns();
  prune_expired(now);

  const telemetry::ExecutionLabel label =
      telemetry::parse_label(label_prediction);
  auto window_it = windows_.find(label.application);
  if (window_it == windows_.end()) {
    if (windows_.size() >= config_.max_applications) {
      ++stats_.jobs_untracked;
      return;
    }
    window_it = windows_.emplace(label.application, AppWindow{}).first;
  }
  AppWindow& window = window_it->second;
  ++window.seen;

  auto job = std::make_shared<CapturedJob>();
  job->job_id = job_id;
  job->node_count = capture.node_count;
  job->source = capture.source;
  job->label = label;
  job->sequence = next_sequence_++;
  job->captured_ns = now;
  job->samples = std::move(capture.samples);

  if (window.jobs.size() < config_.window_jobs_per_app) {
    window.jobs.push_back(std::move(job));
    ++stats_.jobs_admitted;
    return;
  }
  // Ring full: reservoir admission (Algorithm R) keeps the window a
  // uniform sample of this application's served history. Replacement
  // swaps a shared pointer — a snapshot holding the victim keeps it
  // alive and frozen.
  const std::uint64_t slot = rng_.uniform_index(window.seen);
  if (slot < window.jobs.size()) {
    window.jobs[slot] = std::move(job);
    ++stats_.jobs_admitted;
    ++stats_.jobs_replaced;
  } else {
    ++stats_.jobs_sampled_out;
  }
}

WindowSnapshot TrafficRecorder::snapshot_window() const {
  // Pointer copies only: the dispatch thread never pays for a data
  // copy. Deterministic order: applications sorted by name, jobs
  // by capture sequence — identical histories snapshot identically.
  // TTL-expired entries are excluded here even before an admission has
  // pruned them, so a retrain during a quiet spell never trains on
  // stale traffic.
  std::int64_t ttl_horizon = std::numeric_limits<std::int64_t>::min();
  if (config_.window_ttl.count() > 0) {
    ttl_horizon = now_ns() -
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      config_.window_ttl)
                      .count();
  }
  std::map<std::string, const AppWindow*> ordered;
  for (const auto& [app, window] : windows_) ordered.emplace(app, &window);
  WindowSnapshot out;
  for (const auto& [app, window] : ordered) {
    const std::size_t first = out.size();
    for (const auto& job : window->jobs) {
      if (job->captured_ns >= ttl_horizon) out.push_back(job);
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const auto& a, const auto& b) {
                return a->sequence < b->sequence;
              });
  }
  return out;
}

std::uint64_t TrafficRecorder::jobs_captured() const {
  return stats_.jobs_captured;
}

TrafficRecorderStats TrafficRecorder::stats() const {
  TrafficRecorderStats stats = stats_;
  stats.applications = windows_.size();
  stats.window_jobs = 0;
  stats.window_samples = 0;
  for (const auto& [app, window] : windows_) {
    stats.window_jobs += window.jobs.size();
    for (const auto& job : window.jobs) {
      stats.window_samples += job->samples.size();
    }
  }
  return stats;
}

namespace {

/// Rebuilds one job's telemetry as a dense ExecutionRecord on the layout
/// metric axis. Interior gaps forward-fill (a missed scrape does not
/// shift later ticks); the leading gap back-fills from the first sample.
telemetry::ExecutionRecord record_of(const CapturedJob& job,
                                     const core::FingerprintConfig& layout) {
  const std::size_t metric_count = layout.metrics.size();
  telemetry::ExecutionRecord record(job.job_id, job.label, job.node_count,
                                    metric_count);
  // (node, slot) -> samples in arrival order.
  std::vector<std::vector<std::pair<int, double>>> cells(
      static_cast<std::size_t>(job.node_count) * metric_count);
  for (const ingest::WireSample& sample : job.samples) {
    const auto slot_it =
        std::find(layout.metrics.begin(), layout.metrics.end(), sample.metric);
    if (slot_it == layout.metrics.end()) continue;  // layout changed mid-run
    const std::size_t slot =
        static_cast<std::size_t>(slot_it - layout.metrics.begin());
    if (sample.node_id >= job.node_count || sample.t < 0) continue;
    cells[sample.node_id * metric_count + slot].emplace_back(sample.t,
                                                             sample.value);
  }
  for (std::uint32_t node = 0; node < job.node_count; ++node) {
    for (std::size_t slot = 0; slot < metric_count; ++slot) {
      auto& cell = cells[node * metric_count + slot];
      if (cell.empty()) continue;
      std::stable_sort(cell.begin(), cell.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      telemetry::TimeSeries& series = record.series(node, slot);
      const int last_t = cell.back().first;
      series.reserve(static_cast<std::size_t>(last_t) + 1);
      std::size_t cursor = 0;
      double value = cell.front().second;
      for (int t = 0; t <= last_t; ++t) {
        while (cursor < cell.size() && cell[cursor].first == t) {
          value = cell[cursor].second;  // duplicate ticks: last wins
          ++cursor;
        }
        series.push_back(value);
      }
    }
  }
  return record;
}

}  // namespace

WindowSlices slice_window(const WindowSnapshot& window,
                          const core::FingerprintConfig& layout,
                          double holdout_fraction) {
  holdout_fraction = std::clamp(holdout_fraction, 0.0, 0.9);
  WindowSlices slices{telemetry::Dataset(layout.metrics),
                      telemetry::Dataset(layout.metrics)};

  std::map<std::string, std::vector<const CapturedJob*>> by_app;
  for (const auto& job : window) {
    by_app[job->label.application].push_back(job.get());
  }
  for (auto& [app, jobs] : by_app) {
    std::sort(jobs.begin(), jobs.end(),
              [](const CapturedJob* a, const CapturedJob* b) {
                return a->sequence < b->sequence;
              });
    // Hold out the newest slice: drift shows up in the freshest traffic
    // first, and the candidate must beat the incumbent exactly there.
    std::size_t holdout = static_cast<std::size_t>(
        std::ceil(holdout_fraction * static_cast<double>(jobs.size())));
    if (jobs.size() >= 2 && holdout_fraction > 0.0) {
      holdout = std::max<std::size_t>(holdout, 1);
    }
    holdout = std::min(holdout, jobs.size() > 0 ? jobs.size() - 1 : 0);
    const std::size_t train = jobs.size() - holdout;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      (i < train ? slices.train : slices.holdout)
          .add(record_of(*jobs[i], layout));
    }
  }
  return slices;
}

}  // namespace efd::retrain

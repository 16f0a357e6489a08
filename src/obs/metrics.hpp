#pragma once

// Lock-free metrics registry: monotonic counters, gauges, and fixed-bucket
// log2-scale latency histograms.  Registration (naming a series) takes a
// mutex once; every subsequent update is a relaxed atomic op, so the
// recognition hot path can publish per-stage timings without locks or
// allocation.  `render()` emits Prometheus text exposition with families
// sorted by name and series sorted by label set, so scrapes are
// byte-deterministic.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace efd::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// Log2-bucket histogram over non-negative integer observations (latencies
// in nanoseconds).  Bucket i counts observations v with bit_width(v) == i,
// i.e. 2^(i-1) <= v < 2^i (bucket 0 holds v == 0), so p50/p90/p99/p999 are
// derivable from the cumulative bucket counts to within a factor of two.
// observe() is two relaxed fetch_adds — wait-free and allocation-free.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(std::int64_t v) noexcept {
    const std::uint64_t u = v > 0 ? static_cast<std::uint64_t>(v) : 0;
    int idx = std::bit_width(u);
    if (idx >= kBuckets) idx = kBuckets - 1;
    buckets_[static_cast<std::size_t>(idx)].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(u, std::memory_order_relaxed);
  }

  std::uint64_t bucket(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  // Upper-bound estimate for quantile q in [0, 1]: the nominal upper edge
  // (2^i) of the first bucket whose cumulative count reaches q * total.
  // Returns 0 when the histogram is empty.
  double quantile(double q) const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

// Registry of named series.  counter()/gauge()/histogram() return a stable
// reference for the (family, labels) pair — calling again with the same
// pair returns the same object.  `labels` is the raw label body without
// braces (e.g. `stage="decode"`); label values must already be escaped
// (see obs::escape_label_value).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& family, const std::string& help,
                   const std::string& labels = {});
  Gauge& gauge(const std::string& family, const std::string& help,
               const std::string& labels = {});
  Histogram& histogram(const std::string& family, const std::string& help,
                       const std::string& labels = {});

  // Prometheus text exposition of every registered series, families sorted
  // by name, series within a family sorted by label set.
  std::string render() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    std::string labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<Series> series;
  };

  Family& family_locked(const std::string& name, const std::string& help,
                        Kind kind);
  Series& series_locked(Family& family, const std::string& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;
};

// Process-wide registry backing the HTTP /metrics endpoint.
MetricsRegistry& global_metrics();

// Per-stage hot-path timers plus the end-to-end enqueue -> verdict
// histogram.  All series live in global_metrics(); `enabled` gates the
// steady-state clock reads so the overhead can be benchmarked on/off
// (bench_hot_path stage "obs_overhead").
struct HotPathMetrics {
  // The per-batch stages (enqueue, score) run in ~a microsecond, where
  // two clock reads are a measurable tax — they time 1 batch in
  // kSampleEvery instead.  Duration histograms stay representative;
  // only their _count undercounts (by design).  The e2e verdict latency
  // is NOT sampled: it reuses the admission stamp every batch already
  // takes, so it stays exact per verdict.
  static constexpr std::uint64_t kSampleEvery = 8;  // power of two

  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> tick{0};
  Histogram& decode_ns;    // one frame's validation + decode (views too)
  Histogram& enqueue_ns;   // sample batch admission (push_batch)
  Histogram& score_ns;     // drained batch scoring (drain_stream)
  Histogram& flush_ns;     // verdict flush pass (flush_verdicts)
  Histogram& verdict_e2e_ns;  // sample enqueue stamp -> verdict creation

  // True when this batch should carry stage timers: enabled, and its
  // turn in the 1-in-kSampleEvery rotation (the first batch always
  // samples, so the series exist as soon as traffic flows).
  bool sample_now() noexcept {
    return enabled.load(std::memory_order_relaxed) &&
           (tick.fetch_add(1, std::memory_order_relaxed) &
            (kSampleEvery - 1)) == 0;
  }
};

HotPathMetrics& hot_path();

// Build metadata for efd_build_info / the flat scrape.
const char* build_version() noexcept;
const char* build_sha() noexcept;

}  // namespace efd::obs

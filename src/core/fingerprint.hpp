#pragma once
/// \file fingerprint.hpp
/// \brief Execution fingerprints — the dictionary keys of the EFD.
///
/// A fingerprint identifies "how one node used one resource during one
/// window": (metric name, node id, time interval, rounded mean). The
/// paper's example: [nr_mapped_vmstat, 0, [60:120], 6000.0].
///
/// The key type generalizes the paper's single-metric fingerprint to the
/// multi-metric *combinatorial* fingerprints its Section 6 proposes: a key
/// carries one rounded mean per fingerprinted metric (one entry in the
/// paper's baseline configuration).

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/dataset.hpp"
#include "telemetry/execution_record.hpp"
#include "telemetry/time_series.hpp"

namespace efd::core {

/// Dictionary key. Equality is exact (that is the point of rounding).
struct FingerprintKey {
  std::string metric;        ///< metric name, or "+"-joined names when combined
  std::uint32_t node_id = 0;
  telemetry::Interval interval{60, 120};
  std::vector<double> rounded_means;  ///< one per fingerprinted metric

  bool operator==(const FingerprintKey& other) const = default;

  /// Human-readable rendering matching the paper's notation:
  /// "[nr_mapped_vmstat, 0, [60:120], 6000.0]".
  std::string to_string() const;
};

/// Hash for unordered containers: FNV-1a over the metric's bytes, then
/// the node, interval and means mixed into that state. The two steps are
/// public so that a caller meeting one metric name on many keys (the
/// dictionary loader) hashes its bytes once and gets the same value.
struct FingerprintKeyHash {
  std::size_t operator()(const FingerprintKey& key) const noexcept {
    return static_cast<std::size_t>(
        fields(metric(key.metric), key.node_id, key.interval,
               key.rounded_means.data(), key.rounded_means.size()));
  }

  /// The state after the metric name's bytes.
  static std::uint64_t metric(std::string_view name) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return h;
  }

  /// The hash of a key whose metric left \p state.
  static std::uint64_t fields(std::uint64_t state, std::uint32_t node_id,
                              telemetry::Interval interval,
                              const double* means, std::size_t count) noexcept {
    const auto mix64 = [&state](std::uint64_t word) {
      state ^= word;
      state *= 0x100000001b3ULL;
      state ^= state >> 29;
    };
    mix64(node_id);
    mix64(static_cast<std::uint32_t>(interval.begin_seconds));
    mix64(static_cast<std::uint32_t>(interval.end_seconds));
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(means[i]));
      __builtin_memcpy(&bits, &means[i], sizeof(bits));
      mix64(bits);
    }
    return state;
  }
};

/// Settings that determine how fingerprints are constructed. Training and
/// testing must use identical settings — the recognizer enforces this by
/// storing the config inside the dictionary.
struct FingerprintConfig {
  /// Metrics to fingerprint. Each metric yields its own keys unless
  /// \p combine_metrics is set.
  std::vector<std::string> metrics;

  /// Time windows; the paper uses exactly {[60,120)}. Multiple intervals
  /// co-exist in one dictionary (Section 6).
  std::vector<telemetry::Interval> intervals{telemetry::kPaperInterval};

  /// The EFD's only tunable parameter.
  int rounding_depth = 2;

  /// Combinatorial fingerprints: one key per (node, interval) carrying the
  /// rounded means of *all* configured metrics jointly (Section 6).
  bool combine_metrics = false;
};

/// Builds the fingerprint keys of one execution under a config.
///
/// \param record the execution's telemetry.
/// \param metric_slots dataset slot index per configured metric (aligned
///   with config.metrics).
/// \returns one key per (node, interval[, metric]) whose window is covered
///   by the record's series; windows the record does not cover are skipped
///   (short executions simply yield fewer fingerprints).
std::vector<FingerprintKey> build_fingerprints(
    const telemetry::ExecutionRecord& record, const FingerprintConfig& config,
    const std::vector<std::size_t>& metric_slots);

/// Convenience: resolves slots from the dataset's metric list first.
std::vector<FingerprintKey> build_fingerprints(
    const telemetry::ExecutionRecord& record, const FingerprintConfig& config,
    const telemetry::Dataset& dataset);

class RecognitionScratch;

/// Allocation-free variant of build_fingerprints: emits the same keys in
/// the same order into \p scratch's reusable arena (recognition_scratch
/// .hpp). Interval means are first gathered into contiguous lanes and
/// rounded in one vectorized round_lanes() pass instead of per-key
/// round_to_depth calls. After the scratch's buffers warm up, this
/// performs zero heap allocations per record.
void build_fingerprints_into(const telemetry::ExecutionRecord& record,
                             const FingerprintConfig& config,
                             const std::vector<std::size_t>& metric_slots,
                             RecognitionScratch& scratch);

}  // namespace efd::core

namespace std {
template <>
struct hash<efd::core::FingerprintKey> {
  std::size_t operator()(const efd::core::FingerprintKey& key) const noexcept {
    return efd::core::FingerprintKeyHash{}(key);
  }
};
}  // namespace std

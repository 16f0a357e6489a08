#pragma once
/// \file bench_common.hpp
/// \brief Shared helpers for the table/figure regeneration binaries:
/// a common dataset configuration (scaled-down Table 2 by default, full
/// scale via --full), formatting utilities, and a machine-readable JSON
/// emitter so throughput trajectories can be tracked across PRs.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/dataset_generator.hpp"
#include "telemetry/dataset.hpp"
#include "telemetry/metric_registry.hpp"
#include "util/arg_parser.hpp"
#include "util/string_utils.hpp"
#include "util/table_printer.hpp"

namespace efd::bench {

/// Dataset knobs common to all benches. The default scale keeps every
/// binary under ~a minute on a laptop; --full reproduces Table 2's 30/6
/// repetitions exactly.
struct BenchDataset {
  sim::GeneratorConfig generator;
  telemetry::Dataset dataset;
};

inline BenchDataset make_bench_dataset(const util::ArgParser& args,
                                       std::vector<std::string> metrics,
                                       std::size_t default_repetitions = 15) {
  BenchDataset out;
  out.generator.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  out.generator.small_repetitions = args.has("full")
      ? 30
      : static_cast<std::size_t>(
            args.get_int("repetitions",
                         static_cast<long long>(default_repetitions)));
  out.generator.large_repetitions = 6;
  out.generator.include_large_input = !args.has("no-large");
  out.generator.noise_scale = args.get_double("noise-scale", 1.0);
  out.generator.metrics = std::move(metrics);
  out.dataset = sim::generate_paper_dataset(out.generator);
  return out;
}

/// All behaviour-modeled metric names from the standard catalog.
inline std::vector<std::string> modeled_metric_names() {
  const telemetry::MetricRegistry registry =
      telemetry::MetricRegistry::standard_catalog();
  std::vector<std::string> names;
  for (telemetry::MetricId id : registry.modeled_metrics()) {
    names.push_back(registry.name(id));
  }
  return names;
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Parses a --name a,b,c option of positive integers (thread/source
/// sweeps); returns \p fallback when absent or nothing parses.
inline std::vector<std::size_t> parse_size_list(
    const util::ArgParser& args, const std::string& name,
    std::vector<std::size_t> fallback) {
  const std::string csv = args.get(name);
  if (csv.empty()) return fallback;
  std::vector<std::size_t> values;
  for (const std::string& token : util::split(csv, ',')) {
    if (const auto value = util::parse_int(token); value && *value > 0) {
      values.push_back(static_cast<std::size_t>(*value));
    }
  }
  return values.empty() ? fallback : values;
}

/// One machine-readable benchmark record, rendered as a single-line JSON
/// object. Keep field names stable across PRs: downstream tooling diffs
/// these lines to track throughput trajectories.
class JsonRecord {
 public:
  JsonRecord& field(const std::string& key, const std::string& value) {
    separator();
    body_ += quote(key) + ":" + quote(value);
    return *this;
  }
  JsonRecord& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonRecord& field(const std::string& key, double value) {
    separator();
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    body_ += quote(key) + ":" + buffer;
    return *this;
  }
  JsonRecord& field(const std::string& key, long long value) {
    separator();
    body_ += quote(key) + ":" + std::to_string(value);
    return *this;
  }
  JsonRecord& field(const std::string& key, std::size_t value) {
    return field(key, static_cast<long long>(value));
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& text) {
    std::string quoted = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return quoted + "\"";
  }
  void separator() {
    if (!body_.empty()) body_ += ",";
  }

  std::string body_;
};

/// Emits one JSONL record: appended to --json PATH when given, otherwise
/// printed to stdout prefixed with "json: " (grep-friendly).
inline void emit_json(const util::ArgParser& args, const JsonRecord& record) {
  const std::string path = args.get("json");
  if (path.empty()) {
    std::cout << "json: " << record.str() << "\n";
    return;
  }
  std::ofstream out(path, std::ios::app);
  out << record.str() << "\n";
  if (!out) {
    // Don't lose trend data silently: fall back to stdout and say why.
    std::cerr << "warning: cannot append to " << path << "\n";
    std::cout << "json: " << record.str() << "\n";
  }
}

}  // namespace efd::bench

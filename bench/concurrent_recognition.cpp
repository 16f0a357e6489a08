/// \file concurrent_recognition.cpp
/// \brief Throughput of concurrent recognition on the simulated Table 2
/// dataset: single-thread Matcher loop (the seed's path) vs
/// Matcher::recognize_batch across a pool, plus the end-to-end
/// RecognitionService streaming many concurrent jobs.
///
/// Flags: --repetitions N  dataset scale (default 10, --full = 30)
///        --threads-list 1,2,4,8   --jobs N (default 32) --repeats N
///        --json PATH (JSONL output for trend tracking)

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/matcher.hpp"
#include "core/online/recognition_service.hpp"
#include "core/trainer.hpp"
#include "ldms/sampler.hpp"
#include "ldms/streaming.hpp"
#include "sim/app_model.hpp"
#include "telemetry/metric_registry.hpp"
#include "util/arg_parser.hpp"
#include "util/string_utils.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace efd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const auto repeats = static_cast<std::size_t>(args.get_int("repeats", 3));
  const auto jobs = static_cast<std::size_t>(args.get_int("jobs", 32));

  const std::vector<std::size_t> thread_counts =
      bench::parse_size_list(args, "threads-list", {1, 2, 4, 8});

  bench::print_header("concurrent recognition throughput");
  const bench::BenchDataset data =
      bench::make_bench_dataset(args, {"nr_mapped_vmstat"}, 10);
  const telemetry::Dataset& dataset = data.dataset;

  core::FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;

  const core::Dictionary dictionary = core::train_dictionary(dataset, config);

  util::TablePrinter table(
      {"path", "threads", "exec/s", "speedup vs 1-thread"});

  // Baseline: the seed's serial loop.
  double baseline_rate = 0.0;
  {
    const core::Matcher matcher(dictionary);
    std::vector<std::size_t> slots = {dataset.metric_slot("nr_mapped_vmstat")};
    std::size_t recognized = 0;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < repeats; ++r) {
      for (const auto& record : dataset.records()) {
        recognized +=
            matcher.recognize(record, slots).recognized ? 1u : 0u;
      }
    }
    const double elapsed = seconds_since(start);
    baseline_rate =
        static_cast<double>(dataset.size() * repeats) / elapsed;
    table.add_row({"serial loop", "1",
                   util::format_fixed(baseline_rate, 0), "1.00"});
    bench::emit_json(args, bench::JsonRecord()
                               .field("bench", "concurrent_recognition")
                               .field("path", "serial")
                               .field("threads", 1LL)
                               .field("exec_per_s", baseline_rate)
                               .field("recognized", recognized));
  }

  for (const std::size_t threads : thread_counts) {
    util::ThreadPool pool(threads);
    const core::Matcher matcher(dictionary);
    std::vector<std::size_t> slots = {dataset.metric_slot("nr_mapped_vmstat")};
    std::size_t recognized = 0;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < repeats; ++r) {
      const auto results =
          matcher.recognize_batch(std::span(dataset.records()), slots, &pool);
      for (const auto& result : results) recognized += result.recognized;
    }
    const double elapsed = seconds_since(start);
    const double rate = static_cast<double>(dataset.size() * repeats) / elapsed;
    table.add_row({"recognize_batch", std::to_string(threads),
                   util::format_fixed(rate, 0),
                   util::format_fixed(rate / baseline_rate, 2)});
    bench::emit_json(args, bench::JsonRecord()
                               .field("bench", "concurrent_recognition")
                               .field("path", "batch")
                               .field("threads", threads)
                               .field("exec_per_s", rate)
                               .field("speedup", rate / baseline_rate)
                               .field("recognized", recognized));
  }

  table.print(std::cout);

  // End-to-end streaming service: many concurrent simulated jobs, full
  // LDMS sampling path, verdicts at window close.
  bench::print_header("recognition service streaming");
  const telemetry::MetricRegistry registry =
      telemetry::MetricRegistry::standard_catalog();
  const auto apps = sim::make_paper_applications();
  const auto samplers = ldms::make_standard_samplers(registry);

  util::TablePrinter service_table(
      {"jobs", "threads", "jobs/s", "samples/s", "recognized"});
  for (const std::size_t threads : thread_counts) {
    std::vector<sim::ExecutionPlan> plans;
    plans.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      sim::ExecutionPlan plan;
      plan.app = apps[j % apps.size()].get();
      plan.input_size = "X";
      plan.node_count = 4;
      plan.execution_id = j + 1;
      plans.push_back(plan);
    }
    util::ThreadPool pool(threads);
    core::RecognitionService service(dictionary);
    const auto start = Clock::now();
    const ldms::StreamingRunReport report = ldms::run_concurrent_jobs(
        service, registry, plans, samplers, data.generator.seed,
        /*duration_seconds=*/130.0, &pool);
    const double elapsed = seconds_since(start);
    const auto stats = service.stats();
    const double jobs_rate = static_cast<double>(report.jobs_run) / elapsed;
    const double samples_rate =
        static_cast<double>(stats.samples_pushed) / elapsed;
    service_table.add_row(
        {std::to_string(report.jobs_run), std::to_string(threads),
         util::format_fixed(jobs_rate, 1), util::format_fixed(samples_rate, 0),
         std::to_string(report.recognized) + "/" +
             std::to_string(report.verdicts)});
    bench::emit_json(args, bench::JsonRecord()
                               .field("bench", "concurrent_recognition")
                               .field("path", "service_streaming")
                               .field("threads", threads)
                               .field("jobs", report.jobs_run)
                               .field("jobs_per_s", jobs_rate)
                               .field("samples_per_s", samples_rate)
                               .field("recognized", report.recognized));
  }
  service_table.print(std::cout);
  std::cout << "(hardware threads = " << std::thread::hardware_concurrency()
            << ")\n";
  return 0;
}

/// \file multi_source_throughput.cpp
/// \brief Prices the multi-source ingestion mux: the same total workload
/// ingested through 1 → 2 → 4 → 8 concurrently registered ring sources
/// of one pipeline, against the single-source baseline (sources=1 IS
/// the baseline — identical path, mux with one entry). Reports
/// samples/s and verdicts/s per fan-in width, so regressions in the
/// mux's poll discipline (a poll of every fd-less source per loop round,
/// waits capped at 1 ms) show up as a throughput cliff at high source
/// counts.
///
/// Flags: --jobs N (default 96)   --ticks N (default 130)  --nodes N (2)
///        --batch N (128)         --ring N (512)
///        --sources-list 1,2,4,8  --repeats N (3)
///        --threads N (0 = inline recognition)
///        --json PATH (JSONL output for trend tracking)

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/dictionary.hpp"
#include "core/online/recognition_service.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/ring_transport.hpp"
#include "ingest/source_mux.hpp"
#include "ingest/transport_feed.hpp"
#include "util/arg_parser.hpp"
#include "util/string_utils.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace efd;
using Clock = std::chrono::steady_clock;

core::FingerprintConfig fingerprint_config() {
  core::FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

core::Dictionary make_dictionary(std::uint32_t nodes) {
  core::Dictionary dictionary(fingerprint_config());
  for (std::uint32_t node = 0; node < nodes; ++node) {
    core::FingerprintKey key;
    key.metric = "nr_mapped_vmstat";
    key.node_id = node;
    key.interval = {60, 120};
    key.rounded_means = {6000.0};
    dictionary.insert(key, "ft_X");
    key.rounded_means = {6100.0};
    dictionary.insert(key, "mg_X");
  }
  return dictionary;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const auto jobs = static_cast<std::size_t>(args.get_int("jobs", 96));
  const auto ticks = static_cast<int>(args.get_int("ticks", 130));
  const auto nodes = static_cast<std::uint32_t>(args.get_int("nodes", 2));
  const auto batch = static_cast<std::size_t>(args.get_int("batch", 128));
  const auto ring_capacity =
      static_cast<std::size_t>(args.get_int("ring", 512));
  const auto repeats = static_cast<std::size_t>(args.get_int("repeats", 3));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));
  const auto source_counts =
      bench::parse_size_list(args, "sources-list", {1, 2, 4, 8});

  bench::print_header("ingest: multi-source mux fan-in");
  util::TablePrinter table({"sources", "jobs", "samples", "elapsed s",
                            "samples/s", "verdicts/s", "vs 1-source"});
  double baseline_rate = 0.0;

  for (const std::size_t sources : source_counts) {
    if (sources == 0) continue;
    double best_rate = 0.0, best_elapsed = 0.0, best_verdicts_rate = 0.0;
    const std::uint64_t total_samples =
        static_cast<std::uint64_t>(jobs) * nodes *
        static_cast<std::uint64_t>(ticks);

    for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
      core::RecognitionServiceConfig service_config;
      service_config.deferred = true;
      core::RecognitionService service(make_dictionary(nodes),
                                       service_config);

      std::vector<std::unique_ptr<ingest::RingTransport>> rings;
      ingest::SourceMux mux;
      for (std::size_t s = 0; s < sources; ++s) {
        rings.push_back(
            std::make_unique<ingest::RingTransport>(ring_capacity));
        mux.add_source("ring" + std::to_string(s), *rings[s]);
      }

      std::unique_ptr<util::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
      ingest::IngestPipelineConfig pipeline_config;
      pipeline_config.max_verdicts = jobs;
      ingest::IngestPipeline pipeline(service, mux, pipeline_config,
                                      pool.get());

      const auto start = Clock::now();
      pipeline.start();
      // One producer thread per source, the workload split evenly: the
      // multi-emitter topology the mux exists for.
      std::vector<std::thread> producers;
      producers.reserve(sources);
      for (std::size_t s = 0; s < sources; ++s) {
        producers.emplace_back([&, s] {
          ingest::TransportFeed feed(*rings[s], batch);
          for (std::uint64_t job = s + 1; job <= jobs; job += sources) {
            feed.job_opened(job, nodes);
            const double level = job % 2 == 0 ? 6000.0 : 6100.0;
            for (int t = 0; t < ticks; ++t) {
              for (std::uint32_t node = 0; node < nodes; ++node) {
                feed.publish(node, "nr_mapped_vmstat", t, level);
              }
            }
            feed.job_closed(job);
          }
        });
      }
      for (std::thread& producer : producers) producer.join();
      for (const auto& ring : rings) ring->close();
      pipeline.join();
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();

      const ingest::IngestPipelineStats stats = pipeline.stats();
      if (stats.verdicts_delivered != jobs) {
        std::cerr << "verdict shortfall: " << stats.verdicts_delivered
                  << "/" << jobs << " at sources=" << sources << "\n";
        return 1;
      }
      const double rate =
          elapsed > 0.0 ? static_cast<double>(total_samples) / elapsed : 0.0;
      if (rate > best_rate) {
        best_rate = rate;
        best_elapsed = elapsed;
        best_verdicts_rate =
            elapsed > 0.0 ? static_cast<double>(jobs) / elapsed : 0.0;
      }
    }

    if (sources == source_counts.front()) baseline_rate = best_rate;
    const double ratio =
        baseline_rate > 0.0 ? best_rate / baseline_rate : 0.0;
    table.add_row({std::to_string(sources), std::to_string(jobs),
                   std::to_string(total_samples),
                   util::format_fixed(best_elapsed, 3),
                   util::format_fixed(best_rate, 0),
                   util::format_fixed(best_verdicts_rate, 1),
                   util::format_fixed(ratio, 2) + "x"});

    bench::emit_json(args, bench::JsonRecord()
                               .field("bench", "multi_source_throughput")
                               .field("sources", sources)
                               .field("jobs", jobs)
                               .field("ticks", static_cast<long long>(ticks))
                               .field("threads", threads)
                               .field("samples_per_s", best_rate)
                               .field("verdicts_per_s", best_verdicts_rate)
                               .field("vs_single_source", ratio));
  }
  table.print(std::cout);
  std::cout << "(workload fixed at " << jobs << " jobs x " << nodes
            << " nodes x " << ticks
            << " ticks, split across the sources; hardware threads = "
            << std::thread::hardware_concurrency() << ")\n";
  return 0;
}

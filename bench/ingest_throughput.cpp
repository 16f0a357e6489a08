/// \file ingest_throughput.cpp
/// \brief Throughput of the ingestion path: the EFD-WIRE-V1 codec in
/// isolation (encode / decode), and the full vertical slice — concurrent
/// producers framing samples into the ring transport, the ingest
/// pipeline dispatching into a deferred RecognitionService across a
/// worker pool, verdicts delivered back — at several pool sizes and
/// back-pressure policies.
///
/// Flags: --jobs N (default 64)  --ticks N (default 130)  --nodes N (2)
///        --producers N (4)      --batch N (128)          --ring N (1024)
///        --queue N (512)        --policy block|drop-oldest|reject
///        --threads-list 1,2,4   --repeats N (3)
///        --json PATH (JSONL output for trend tracking)

#include <atomic>
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
#include "ingest/transport_feed.hpp"
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

core::FingerprintConfig fingerprint_config() {
  core::FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

/// Two-app constant-level dictionary covering \p nodes nodes.
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

/// Counts verdicts coming back over the transport.
class CountingSink final : public ingest::VerdictSink {
 public:
  void deliver(const ingest::Message&) override {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const auto jobs = static_cast<std::size_t>(args.get_int("jobs", 64));
  const auto ticks = static_cast<int>(args.get_int("ticks", 130));
  const auto nodes = static_cast<std::uint32_t>(args.get_int("nodes", 2));
  const auto producers =
      static_cast<std::size_t>(args.get_int("producers", 4));
  const auto batch = static_cast<std::size_t>(args.get_int("batch", 128));
  const auto ring_capacity =
      static_cast<std::size_t>(args.get_int("ring", 1024));
  const auto repeats = static_cast<std::size_t>(args.get_int("repeats", 3));
  const auto thread_counts =
      bench::parse_size_list(args, "threads-list", {1, 2, 4});

  const std::string policy_name = args.get("policy", "block");
  const auto parsed_policy = core::parse_backpressure_policy(policy_name);
  if (!parsed_policy) {
    // Rejecting beats silently benchmarking kBlock under a mislabeled
    // JSONL record — the artifact would poison the trend data.
    std::cerr << "unknown policy: " << policy_name << "\n";
    return 2;
  }
  const core::BackpressurePolicy policy = *parsed_policy;

  // --- codec in isolation -------------------------------------------------
  bench::print_header("ingest: EFD-WIRE-V1 codec");
  {
    ingest::Message message;
    message.type = ingest::MessageType::kSampleBatch;
    message.job_id = 1;
    for (std::size_t i = 0; i < batch; ++i) {
      ingest::WireSample sample;
      sample.node_id = static_cast<std::uint32_t>(i % nodes);
      sample.t = static_cast<std::int32_t>(i);
      sample.value = 6000.0 + static_cast<double>(i);
      sample.metric = "nr_mapped_vmstat";
      message.samples.push_back(std::move(sample));
    }

    constexpr std::size_t kFrames = 20000;
    std::vector<std::uint8_t> buffer;
    const auto encode_start = Clock::now();
    for (std::size_t i = 0; i < kFrames; ++i) {
      buffer.clear();
      ingest::encode_frame(message, buffer);
    }
    const double encode_seconds = seconds_since(encode_start);
    const double frame_bytes = static_cast<double>(buffer.size());

    ingest::FrameDecoder decoder;
    ingest::Message decoded;
    const auto decode_start = Clock::now();
    for (std::size_t i = 0; i < kFrames; ++i) {
      decoder.feed(buffer);
      if (decoder.next(decoded) != ingest::DecodeStatus::kMessage) {
        std::cerr << "decode failed: " << decoder.error() << "\n";
        return 1;
      }
    }
    const double decode_seconds = seconds_since(decode_start);

    const double samples_total =
        static_cast<double>(kFrames) * static_cast<double>(batch);
    util::TablePrinter table({"path", "M samples/s", "MB/s"});
    const double encode_rate = samples_total / encode_seconds;
    const double decode_rate = samples_total / decode_seconds;
    const double encode_mb =
        static_cast<double>(kFrames) * frame_bytes / encode_seconds / 1e6;
    const double decode_mb =
        static_cast<double>(kFrames) * frame_bytes / decode_seconds / 1e6;
    table.add_row({"encode", util::format_fixed(encode_rate / 1e6, 2),
                   util::format_fixed(encode_mb, 0)});
    table.add_row({"decode", util::format_fixed(decode_rate / 1e6, 2),
                   util::format_fixed(decode_mb, 0)});
    table.print(std::cout);
    bench::emit_json(args, bench::JsonRecord()
                               .field("bench", "ingest_throughput")
                               .field("path", "codec_encode")
                               .field("samples_per_s", encode_rate)
                               .field("mb_per_s", encode_mb));
    bench::emit_json(args, bench::JsonRecord()
                               .field("bench", "ingest_throughput")
                               .field("path", "codec_decode")
                               .field("samples_per_s", decode_rate)
                               .field("mb_per_s", decode_mb));
  }

  // --- full pipeline ------------------------------------------------------
  bench::print_header("ingest: ring transport -> pipeline -> verdicts");
  util::TablePrinter table(
      {"threads", "jobs", "samples/s", "verdicts", "blocked sends"});
  const std::uint64_t samples_per_run =
      static_cast<std::uint64_t>(jobs) * nodes *
      static_cast<std::uint64_t>(ticks);

  for (const std::size_t threads : thread_counts) {
    double best_rate = 0.0;
    std::uint64_t verdicts = 0, blocked = 0;
    for (std::size_t repeat = 0; repeat < repeats; ++repeat) {
      core::RecognitionServiceConfig service_config;
      service_config.deferred = true;
      service_config.policy = policy;
      service_config.job_queue_capacity =
          static_cast<std::size_t>(args.get_int("queue", 512));
      core::RecognitionService service(make_dictionary(nodes),
                                       service_config);

      auto sink = std::make_shared<CountingSink>();
      ingest::RingTransport ring(ring_capacity);
      ring.set_verdict_sink(sink);
      util::ThreadPool pool(threads);
      ingest::IngestPipeline pipeline(service, ring, {}, &pool);
      pipeline.start();

      const auto start = Clock::now();
      std::vector<std::thread> workers;
      for (std::size_t p = 0; p < producers; ++p) {
        workers.emplace_back([&, p] {
          for (std::size_t job = p; job < jobs; job += producers) {
            ingest::TransportFeed feed(ring, batch);
            feed.job_opened(job + 1, nodes);
            const double level = job % 2 == 0 ? 6030.0 : 6080.0;
            for (int t = 0; t < ticks; ++t) {
              for (std::uint32_t node = 0; node < nodes; ++node) {
                feed.publish(node, "nr_mapped_vmstat", t, level);
              }
            }
            feed.job_closed(job + 1);
          }
        });
      }
      for (auto& worker : workers) worker.join();
      ring.close();
      pipeline.join();
      const double elapsed = seconds_since(start);

      best_rate = std::max(
          best_rate, static_cast<double>(samples_per_run) / elapsed);
      verdicts = sink->count();
      blocked = ring.transport_counters().blocked;
    }
    table.add_row({std::to_string(threads), std::to_string(jobs),
                   util::format_fixed(best_rate, 0), std::to_string(verdicts),
                   std::to_string(blocked)});
    bench::emit_json(args, bench::JsonRecord()
                               .field("bench", "ingest_throughput")
                               .field("path", "pipeline")
                               .field("policy", policy_name)
                               .field("threads", threads)
                               .field("jobs", jobs)
                               .field("samples_per_s", best_rate)
                               .field("verdicts", verdicts)
                               .field("blocked_sends", blocked));
  }
  table.print(std::cout);
  std::cout << "(jobs = " << jobs << " x " << nodes << " nodes x " << ticks
            << " ticks; producers = " << producers
            << "; hardware threads = " << std::thread::hardware_concurrency()
            << ")\n";
  return 0;
}

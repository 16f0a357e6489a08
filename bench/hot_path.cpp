/// \file hot_path.cpp
/// \brief Prices each stage of the recognition hot path and emits one
/// JSONL record for regression tracking.
///
/// Six stages, each timed as best-of-R over a fixed work unit:
///
///  1. rounding kernel — legacy libm round_to_depth vs. the table-driven
///     scalar kernel vs. the dispatched round_lanes() (AVX2 where the
///     CPU has it), in ns/value;
///  2. batch scoring — the allocating string-keyed path
///     (build_fingerprints + recognize_keys) vs. the scratch/SoA path
///     (recognize_into), in ns/record; the ratio is the PR's headline
///     `batch_scoring_speedup`;
///  3. frame decode — FrameDecoder with fresh sample vectors per frame
///     (set_buffer_pool(nullptr), the pre-pool behavior) vs. the
///     recycling pool, in ns/sample; plus, informational, serve's view
///     decode (validate in place, read into the push scratch) over mixed
///     batch sizes as `decode_view_ns_per_sample`;
///  4. observability overhead — the full RecognitionService open/push/
///     close loop with the obs::hot_path() stage timers enabled vs.
///     disabled, in ns/sample; `obs_overhead_ratio` (off/on) gates that
///     instrumentation stays within the CI budget (>= 0.95 means the
///     timers cost at most ~5%);
///  5. dictionary lookup — batch probes through the dictionary's tag
///     table (dictionary_index.hpp), in ns/key over pre-built key sets
///     (`lookup_index_ns_per_key`, informational);
///  6. dictionary publication — the trained dictionary plus 10k decoy
///     keys (the shape of e2ebench's churn-tcp B1/B2 dictionaries): load
///     of its EFD-DICT-V1 text (read in slices by the loader's rule:
///     `publish_load_ms`; in one: `publish_load_serial_ms`), write, the
///     writer's key sort, an
///     in-process swap_dictionary (epoch build included), a no-op swap
///     of an identical candidate, a no-op swap of the active epoch's own
///     bytes (the wire path, refused before any parse), a wire swap of
///     the other variant's text (one parse, its canonical text adopted
///     as the epoch's bytes: `publish_text_swap_ms`), and the snapshot
///     base captured right after a swap, in ms. Informational: no
///     threshold reads it.
///
/// CI runs this via the hot-path-smoke job and feeds the JSONL line to
/// tools/bench_check.py, which compares the ratio fields against the
/// checked-in BENCH_hot_path.json thresholds. Absolute ns/* numbers are
/// machine-dependent and informational; only the ratios gate.
///
/// Usage: bench_hot_path [--json PATH] [--repetitions N] [--seed N]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/dictionary_index.hpp"
#include "core/fingerprint.hpp"
#include "core/matcher.hpp"
#include "core/online/recognition_service.hpp"
#include "core/online/service_snapshot.hpp"
#include "core/recognition_scratch.hpp"
#include "core/rounding.hpp"
#include "core/rounding_kernel.hpp"
#include "core/trainer.hpp"
#include "ingest/buffer_pool.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/wire_format.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace efd;

/// Best-of-R wall time of fn() in nanoseconds. Best (not mean) because
/// the quantity being priced is the code's cost, not the machine's
/// scheduling noise.
template <typename Fn>
double best_of(int repetitions, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    best = std::min(
        best, static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                      .count()));
  }
  return best;
}

/// Defeats dead-code elimination without the benchmark library.
volatile double g_sink = 0.0;

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const int repetitions =
      static_cast<int>(args.get_int("repetitions", 7));

  bench::print_header("Hot path: per-stage cost");
  std::cout << "dispatched kernel: " << core::kernel_name() << "\n\n";

  // --- Stage 1: rounding kernel -------------------------------------
  constexpr std::size_t kValues = 1 << 14;
  constexpr int kDepth = 3;
  constexpr int kPasses = 64;  // amortize timer granularity
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  std::vector<double> values(kValues);
  for (double& value : values) value = rng.lognormal(8.0, 3.0);
  std::vector<double> lane(kValues);

  const double legacy_ns = best_of(repetitions, [&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      double acc = 0.0;
      for (double value : values) acc += core::round_to_depth(value, kDepth);
      g_sink = acc;
    }
  }) / (kValues * kPasses);
  const double scalar_ns = best_of(repetitions, [&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      std::copy(values.begin(), values.end(), lane.begin());
      core::round_lanes_scalar(lane, kDepth);
      g_sink = lane.back();
    }
  }) / (kValues * kPasses);
  const double simd_ns = best_of(repetitions, [&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      std::copy(values.begin(), values.end(), lane.begin());
      core::round_lanes(lane, kDepth);
      g_sink = lane.back();
    }
  }) / (kValues * kPasses);

  util::TablePrinter rounding({"rounding", "ns/value"});
  rounding.add_row({"legacy (libm)", util::format_mean(legacy_ns)});
  rounding.add_row({"kernel scalar", util::format_mean(scalar_ns)});
  rounding.add_row({std::string("kernel ") + core::kernel_name(),
                    util::format_mean(simd_ns)});
  rounding.print(std::cout);

  // --- Stage 2: batch scoring ---------------------------------------
  const bench::BenchDataset bench_data = bench::make_bench_dataset(
      args, {"nr_mapped_vmstat", "MemFree_meminfo", "iowait_procstat"}, 6);
  const telemetry::Dataset& dataset = bench_data.dataset;
  core::FingerprintConfig config;
  config.metrics = dataset.metric_names();
  config.rounding_depth = 2;
  const core::Dictionary dictionary = core::train_dictionary(dataset, config);
  const core::Matcher matcher(dictionary);
  std::vector<std::size_t> slots;
  for (const std::string& metric : config.metrics) {
    slots.push_back(dataset.metric_slot(metric));
  }

  const double legacy_record_ns = best_of(repetitions, [&] {
    std::size_t matched = 0;
    for (const telemetry::ExecutionRecord& record : dataset.records()) {
      const std::vector<core::FingerprintKey> keys =
          core::build_fingerprints(record, config, slots);
      matched += matcher.recognize_keys(keys).matched_count;
    }
    g_sink = static_cast<double>(matched);
  }) / dataset.size();
  core::RecognitionScratch scratch;
  const double hot_record_ns = best_of(repetitions, [&] {
    std::size_t matched = 0;
    for (const telemetry::ExecutionRecord& record : dataset.records()) {
      matcher.recognize_into(record, slots, scratch);
      matched += scratch.result().matched_count;
    }
    g_sink = static_cast<double>(matched);
  }) / dataset.size();
  const double scoring_speedup = legacy_record_ns / hot_record_ns;

  std::cout << "\n";
  util::TablePrinter scoring({"batch scoring", "ns/record"});
  scoring.add_row({"legacy (alloc)", util::format_mean(legacy_record_ns)});
  scoring.add_row({"scratch/SoA", util::format_mean(hot_record_ns)});
  scoring.print(std::cout);
  std::cout << "batch_scoring_speedup: " << util::format_mean(scoring_speedup)
            << "x over " << dataset.size() << " records\n";

  // --- Stage 3: frame decode ----------------------------------------
  constexpr std::size_t kSamplesPerFrame = 512;
  constexpr int kFrames = 256;
  ingest::Message batch;
  batch.type = ingest::MessageType::kSampleBatch;
  batch.job_id = 1;
  for (std::size_t i = 0; i < kSamplesPerFrame; ++i) {
    ingest::WireSample sample;
    sample.metric = "nr_mapped_vmstat";
    sample.node_id = static_cast<std::uint32_t>(i % 8);
    sample.t = static_cast<std::int64_t>(i);
    sample.value = 6000.0 + static_cast<double>(i);
    batch.samples.push_back(std::move(sample));
  }
  std::vector<std::uint8_t> frame;
  ingest::encode_frame(batch, frame);

  const auto decode_loop = [&](ingest::SampleBufferPool* pool) {
    ingest::FrameDecoder decoder;
    decoder.set_buffer_pool(pool);
    ingest::Message out;
    for (int i = 0; i < kFrames; ++i) {
      decoder.feed(frame);
      if (decoder.next(out) != ingest::DecodeStatus::kMessage) std::abort();
      g_sink = out.samples.back().value;
      // The pipeline's post-dispatch recycle; a no-op pointer-wise when
      // decoding unpooled, but release() still banks the capacity, so
      // the fresh-vector baseline must simply not call it.
      if (pool != nullptr) pool->release(std::move(out.samples));
    }
  };
  const double fresh_ns = best_of(repetitions, [&] { decode_loop(nullptr); }) /
                          (kSamplesPerFrame * kFrames);
  const double pooled_ns =
      best_of(repetitions,
              [&] { decode_loop(&ingest::sample_buffer_pool()); }) /
      (kSamplesPerFrame * kFrames);
  const double decode_speedup = fresh_ns / pooled_ns;

  // Informational (no threshold reads it): serve's decode, a batch view
  // validated in the decoder's buffer and read into the push scratch,
  // over the fleet shape of mixed batch sizes.
  constexpr std::size_t kMixedSizes[] = {1, 2, 5, 16, 32};
  std::vector<std::uint8_t> mixed;
  std::size_t mixed_samples = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    ingest::Message small;
    small.type = ingest::MessageType::kSampleBatch;
    small.job_id = 1 + i % 8;
    const std::size_t size = kMixedSizes[i % std::size(kMixedSizes)];
    for (std::size_t s = 0; s < size; ++s) {
      small.samples.push_back(batch.samples[(i + s) % kSamplesPerFrame]);
    }
    ingest::encode_frame(small, mixed);
    mixed_samples += size;
  }
  std::vector<core::RecognitionService::SamplePush> pushes;
  constexpr int kViewPasses = 16;
  const double view_ns =
      best_of(repetitions,
              [&] {
                for (int pass = 0; pass < kViewPasses; ++pass) {
                  ingest::FrameDecoder decoder;
                  decoder.feed(mixed);
                  ingest::Message out;
                  ingest::SampleBatchView view;
                  while (decoder.next(out, view) ==
                         ingest::DecodeStatus::kMessage) {
                    ingest::read_sample_batch(view, pushes);
                    g_sink = pushes.back().value;
                  }
                }
              }) /
      static_cast<double>(mixed_samples * kViewPasses);

  std::cout << "\n";
  util::TablePrinter decode({"frame decode", "ns/sample"});
  decode.add_row({"fresh vectors", util::format_mean(fresh_ns)});
  decode.add_row({"pooled", util::format_mean(pooled_ns)});
  decode.add_row({"view, mixed sizes", util::format_mean(view_ns)});
  decode.print(std::cout);
  std::cout << "decode_pooled_speedup: " << util::format_mean(decode_speedup)
            << "x\n";

  // --- Stage 4: observability overhead ------------------------------
  // Full service loop (open -> push_batch -> close -> drain) with the
  // hot-path stage timers on vs. off. The ratio is what hot-path-smoke
  // gates: instrumentation must never buy back the PRs that made this
  // path fast.
  constexpr std::size_t kServeJobs = 64;
  constexpr std::size_t kBatchesPerJob = 16;
  constexpr std::size_t kServeBatch = 48;
  std::vector<std::vector<core::RecognitionService::SamplePush>> batches(
      kBatchesPerJob);
  for (std::size_t b = 0; b < kBatchesPerJob; ++b) {
    batches[b].reserve(kServeBatch);
    for (std::size_t i = 0; i < kServeBatch; ++i) {
      core::RecognitionService::SamplePush push;
      push.node_id = static_cast<std::uint32_t>(i % 8);
      push.t = static_cast<int>(b * kServeBatch + i);
      push.value = 6000.0 + static_cast<double>((b * kServeBatch + i) % 97);
      push.metric = config.metrics[i % config.metrics.size()];
      batches[b].push_back(push);
    }
  }
  const auto service_rep = [&](bool timers_on) {
    obs::hot_path().enabled.store(timers_on, std::memory_order_relaxed);
    core::RecognitionService service(dictionary, {});
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t job = 1; job <= kServeJobs; ++job) {
      service.open_job(job, 8, 0);
      for (const auto& samples : batches) {
        service.push_batch(job, samples);
      }
      service.close_job(job);
    }
    g_sink = static_cast<double>(service.drain_verdicts().size());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                   .count()) /
           (kServeJobs * kBatchesPerJob * kServeBatch);
  };
  // Interleave the on/off repetitions (and double them up — this stage
  // gates CI, so a machine-load blip must not decide the ratio): each
  // mode's best-of competes under the same drift.
  service_rep(true);  // warm-up, not measured
  double obs_on_ns = std::numeric_limits<double>::infinity();
  double obs_off_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2 * repetitions; ++rep) {
    obs_on_ns = std::min(obs_on_ns, service_rep(true));
    obs_off_ns = std::min(obs_off_ns, service_rep(false));
  }
  obs::hot_path().enabled.store(true, std::memory_order_relaxed);
  const double obs_overhead_ratio = obs_off_ns / obs_on_ns;

  std::cout << "\n";
  util::TablePrinter obs_table({"service loop", "ns/sample"});
  obs_table.add_row({"obs timers on", util::format_mean(obs_on_ns)});
  obs_table.add_row({"obs timers off", util::format_mean(obs_off_ns)});
  obs_table.print(std::cout);
  std::cout << "obs_overhead_ratio: " << util::format_mean(obs_overhead_ratio)
            << " (off/on; 1.0 = free instrumentation)\n";

  // --- Stage 5: dictionary lookup -------------------------------------
  // Keys are pre-built once so the stage prices exactly the lookup+tally
  // loop the serve path runs per verdict, nothing else.
  std::vector<std::vector<core::FingerprintKey>> key_sets;
  std::size_t key_total = 0;
  for (const telemetry::ExecutionRecord& record : dataset.records()) {
    key_sets.push_back(core::build_fingerprints(record, config, slots));
    key_total += key_sets.back().size();
  }
  const core::Matcher lookup_matcher(dictionary);
  core::RecognitionScratch lookup_scratch;
  constexpr int kLookupPasses = 16;  // amortize timer granularity
  const double lookup_index_ns =
      best_of(repetitions, [&] {
        std::size_t matched = 0;
        for (int pass = 0; pass < kLookupPasses; ++pass) {
          for (const std::vector<core::FingerprintKey>& keys : key_sets) {
            lookup_matcher.recognize_keys_into(keys, lookup_scratch);
            matched += lookup_scratch.result().matched_count;
          }
        }
        g_sink = static_cast<double>(matched);
      }) /
      (key_total * kLookupPasses);

  std::cout << "\ndictionary lookup (" << core::index_kernel_name()
            << " tag scan): " << util::format_mean(lookup_index_ns)
            << " ns/key over " << key_total << " keys (table "
            << dictionary.probe_index()->resident_bytes() << " bytes)\n";

  // --- Stage 6: dictionary publication -------------------------------
  // Two decoy variants, so consecutive swaps alternate real content
  // changes exactly like churn-tcp's B1 <-> B2.
  constexpr std::size_t kDecoys = 10000;
  const auto with_decoys = [&](int variant) {
    core::Dictionary decoyed = dictionary;
    const int base = variant == 1 ? 13 : 140;
    for (std::size_t k = 0; k < kDecoys; ++k) {
      core::FingerprintKey key;
      key.metric = config.metrics.front();
      key.node_id = static_cast<std::uint32_t>(k % 32);
      key.interval = telemetry::kPaperInterval;
      key.rounded_means = {static_cast<double>(10 + k % 90) *
                           std::pow(10.0, base + static_cast<int>(k / 90))};
      decoyed.insert(key, "decoy_D");
    }
    std::string text;
    decoyed.save(text);
    return text;
  };
  const std::string b1_text = with_decoys(1);
  const std::string b2_text = with_decoys(2);
  const core::Dictionary b1 = core::Dictionary::load(b1_text);
  constexpr double kNsPerMs = 1e6;

  const double publish_load_ms =
      best_of(repetitions, [&] {
        g_sink = static_cast<double>(core::Dictionary::load(b1_text).size());
      }) / kNsPerMs;
  // The same load forced into one slice, on the calling thread.
  const double publish_load_serial_ms =
      best_of(repetitions, [&] {
        bool canonical = false;
        g_sink = static_cast<double>(
            core::dictionary_detail::load_sliced(b1_text, canonical, 1).size());
      }) / kNsPerMs;
  const double publish_write_ms =
      best_of(repetitions, [&] {
        std::string text;
        b1.save(text);
        g_sink = static_cast<double>(text.size());
      }) / kNsPerMs;
  // The key order the writer sorts (write includes it).
  const double publish_sort_ms =
      best_of(repetitions, [&] {
        g_sink = static_cast<double>(b1.sorted_order().size());
      }) / kNsPerMs;

  // Candidates are parsed before the clock starts, as the wire handler's
  // load is priced above.
  core::RecognitionService publisher(b1);
  std::vector<core::Dictionary> candidates;
  for (int rep = 0; rep < repetitions; ++rep) {
    candidates.push_back(core::Dictionary::load(rep % 2 == 0 ? b2_text : b1_text));
  }
  std::size_t next_candidate = 0;
  const double publish_swap_ms =
      best_of(repetitions, [&] {
        g_sink = static_cast<double>(
            publisher.swap_dictionary(std::move(candidates[next_candidate++]))
                .epoch);
      }) / kNsPerMs;
  // The base right after the last swap; a fresh chain starts with a base
  // on every repetition.
  const double publish_capture_ms =
      best_of(repetitions, [&] {
        core::SnapshotChainState chain;
        std::ostringstream capture;
        publisher.snapshot_capture(capture, chain);
      }) / kNsPerMs;
  std::vector<core::Dictionary> identical(static_cast<std::size_t>(repetitions),
                                          publisher.dictionary());
  std::size_t next_identical = 0;
  const double publish_noop_swap_ms =
      best_of(repetitions, [&] {
        g_sink = static_cast<double>(
            publisher.swap_dictionary(std::move(identical[next_identical++]))
                .already_active);
      }) / kNsPerMs;
  // The wire's no-op: the active epoch's own bytes, refused unparsed.
  const std::string active_text = publisher.dictionary_handle().acquire()->bytes;
  const double publish_noop_wire_swap_ms =
      best_of(repetitions, [&] {
        g_sink = static_cast<double>(
            publisher.swap_dictionary(std::string_view(active_text))
                .already_active);
      }) / kNsPerMs;

  // A wire swap from text: the other decoy variant's bytes each time, so
  // every swap parses, certifies and adopts a real change.
  const double publish_text_swap_ms =
      best_of(repetitions, [&] {
        const bool b1_active =
            publisher.dictionary_handle().acquire()->bytes == b1_text;
        g_sink = static_cast<double>(
            publisher.swap_dictionary(std::string_view(b1_active ? b2_text
                                                                 : b1_text))
                .epoch);
      }) / kNsPerMs;

  std::cout << "\n";
  util::TablePrinter publish({"dictionary publication", "ms"});
  publish.add_row({"load", util::format_mean(publish_load_ms)});
  publish.add_row({"load, one slice", util::format_mean(publish_load_serial_ms)});
  publish.add_row({"write", util::format_mean(publish_write_ms)});
  publish.add_row({"sort", util::format_mean(publish_sort_ms)});
  publish.add_row({"swap", util::format_mean(publish_swap_ms)});
  publish.add_row({"no-op swap", util::format_mean(publish_noop_swap_ms)});
  publish.add_row({"no-op wire swap (unparsed)",
                   util::format_mean(publish_noop_wire_swap_ms)});
  publish.add_row({"wire swap (parse, adopt)",
                   util::format_mean(publish_text_swap_ms)});
  publish.add_row({"base capture after swap",
                   util::format_mean(publish_capture_ms)});
  publish.print(std::cout);
  std::cout << "publish dictionary: " << b1.size() << " keys, "
            << b1_text.size() << " bytes\n";

  bench::JsonRecord record;
  record.field("bench", "hot_path")
      .field("kernel", core::kernel_name())
      .field("simd_active", static_cast<long long>(core::simd_active() ? 1 : 0))
      .field("round_legacy_ns", legacy_ns)
      .field("round_scalar_ns", scalar_ns)
      .field("round_simd_ns", simd_ns)
      .field("round_speedup", legacy_ns / simd_ns)
      .field("score_legacy_ns_per_record", legacy_record_ns)
      .field("score_hot_ns_per_record", hot_record_ns)
      .field("batch_scoring_speedup", scoring_speedup)
      .field("decode_fresh_ns_per_sample", fresh_ns)
      .field("decode_pooled_ns_per_sample", pooled_ns)
      .field("decode_pooled_speedup", decode_speedup)
      .field("decode_view_ns_per_sample", view_ns)
      .field("obs_on_ns_per_sample", obs_on_ns)
      .field("obs_off_ns_per_sample", obs_off_ns)
      .field("obs_overhead_ratio", obs_overhead_ratio)
      .field("lookup_index_ns_per_key", lookup_index_ns)
      .field("index_kernel", core::index_kernel_name())
      .field("index_bytes",
             static_cast<long long>(dictionary.probe_index()->resident_bytes()))
      .field("index_build_seconds", b1.index_build_seconds())
      .field("publish_keys", static_cast<long long>(b1.size()))
      .field("publish_bytes", static_cast<long long>(b1_text.size()))
      .field("publish_load_ms", publish_load_ms)
      .field("publish_load_serial_ms", publish_load_serial_ms)
      .field("publish_write_ms", publish_write_ms)
      .field("publish_sort_ms", publish_sort_ms)
      .field("publish_swap_ms", publish_swap_ms)
      .field("publish_noop_swap_ms", publish_noop_swap_ms)
      .field("publish_noop_wire_swap_ms", publish_noop_wire_swap_ms)
      .field("publish_text_swap_ms", publish_text_swap_ms)
      .field("publish_base_capture_ms", publish_capture_ms)
      .field("records", dataset.size());
  bench::emit_json(args, record);
  return 0;
}

#include "layers.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/matcher.hpp"
#include "core/online/recognition_service.hpp"
#include "core/recognition_scratch.hpp"
#include "core/rounding_kernel.hpp"
#include "core/sharded_dictionary.hpp"
#include "ingest/buffer_pool.hpp"
#include "ingest/pipeline.hpp"
#include "load_driver.hpp"
#include "util/stats.hpp"

namespace e2ebench {

namespace {

using efd::core::RecognitionService;
using efd::core::ShardedDictionary;
using efd::ingest::DecodeStatus;
using efd::ingest::Message;
using efd::ingest::MessageType;

/// Each micro-timing loop repeats until it has run this long.
constexpr std::int64_t kMinTimedNs = 20'000'000;

ShardedDictionary load_dictionary(const std::string& text) {
  std::istringstream in(text);
  ShardedDictionary dictionary = ShardedDictionary::load(in);
  dictionary.compile_probe_index();
  return dictionary;
}

/// Lane 0's frames as the server would read them, patched with their job
/// ids, cut after the first frame that reaches \p sample_cap samples.
std::vector<std::uint8_t> record_stream(const Inputs& inputs,
                                        const Schedule& schedule,
                                        std::size_t sample_cap,
                                        std::vector<std::uint32_t>& closed_jobs) {
  std::vector<std::uint8_t> stream;
  std::size_t samples = 0;
  for (const ScheduledFrame& frame : schedule.lanes.front()) {
    if (samples >= sample_cap) break;
    const ScheduledJob& job = schedule.jobs[frame.job];
    const ExecTemplate& exec = inputs.execs[job.exec];
    const FrameRef& ref = exec.frames[frame.frame];
    const std::size_t at = stream.size();
    stream.insert(stream.end(), exec.bytes.begin() + ref.offset,
                  exec.bytes.begin() + ref.offset + ref.size);
    patch_job_id(stream.data() + at, job.job_id);
    samples += ref.samples;
    if (frame.frame == exec.closing_frame) closed_jobs.push_back(frame.job);
  }
  return stream;
}

/// Times \p body (which processes \p items items per call) until
/// kMinTimedNs elapsed; returns ns per item.
template <typename Body>
double ns_per_item(std::size_t items, Body&& body) {
  body();  // warm caches and lazy dispatch
  std::int64_t spent = 0;
  std::size_t calls = 0;
  while (spent < kMinTimedNs) {
    const std::int64_t begin = now_ns();
    body();
    spent += now_ns() - begin;
    ++calls;
  }
  return static_cast<double>(spent) /
         static_cast<double>(calls * std::max<std::size_t>(items, 1));
}

}  // namespace

LayerTimings run_layer_pass(const WorkloadSpec& spec, const Inputs& inputs,
                            const Schedule& schedule, std::size_t sample_cap) {
  LayerTimings out;
  const std::string& serving_text =
      spec.churn ? inputs.dictionaries.b1 : inputs.dictionaries.a;

  // --- ingest + online: the pipeline's per-poll sequence, in process ---
  std::vector<std::uint32_t> closed_jobs;
  const std::vector<std::uint8_t> stream =
      record_stream(inputs, schedule, sample_cap, closed_jobs);
  efd::core::RecognitionServiceConfig config;
  config.deferred = true;  // as `serve` configures it
  RecognitionService service(load_dictionary(serving_text), config);
  efd::ingest::SampleBufferPool pool;
  efd::ingest::FrameDecoder decoder;
  decoder.set_buffer_pool(&pool);

  std::int64_t decode_ns = 0, enqueue_ns = 0, drain_ns = 0, collect_ns = 0,
               encode_ns = 0;
  std::size_t collect_calls = 0, verdicts = 0;
  std::vector<std::uint8_t> encoded;
  std::vector<Message> batch;
  std::vector<RecognitionService::SamplePush> pushes;
  std::vector<efd::ingest::WireVerdict> got(schedule.jobs.size());
  std::vector<std::uint8_t> have(schedule.jobs.size(), 0);
  std::vector<double> delta_ms, delta_bytes;
  efd::core::SnapshotChainState chain;
  constexpr std::size_t kChunk = 64 * 1024;  // TcpServer's read chunk
  for (std::size_t offset = 0; offset < stream.size(); offset += kChunk) {
    const std::size_t size = std::min(kChunk, stream.size() - offset);
    std::int64_t begin = now_ns();
    decoder.feed(stream.data() + offset, size);
    Message message;
    while (decoder.next(message) == DecodeStatus::kMessage) {
      batch.push_back(std::move(message));
      message = Message();
    }
    decode_ns += now_ns() - begin;

    for (Message& item : batch) {
      if (item.type == MessageType::kOpenJob) {
        service.open_job(item.job_id, item.node_count);
      } else if (item.type == MessageType::kCloseJob) {
        service.close_job(item.job_id);
      } else if (item.type == MessageType::kSampleBatch) {
        pushes.clear();
        for (const auto& sample : item.samples) {
          pushes.push_back({sample.node_id, sample.t, sample.value,
                            std::string_view(sample.metric)});
        }
        begin = now_ns();
        service.push_batch(item.job_id, pushes);
        enqueue_ns += now_ns() - begin;
        out.samples += item.samples.size();
        pool.release(std::move(item.samples));
      }
    }
    batch.clear();

    begin = now_ns();
    service.process_pending(nullptr);
    drain_ns += now_ns() - begin;

    begin = now_ns();
    std::vector<efd::core::JobVerdict> finished = service.drain_verdicts();
    if (!finished.empty()) {
      collect_ns += now_ns() - begin;
      ++collect_calls;
    }
    for (const efd::core::JobVerdict& verdict : finished) {
      begin = now_ns();
      const Message reply = efd::ingest::make_verdict_message(verdict);
      encoded.clear();
      efd::ingest::encode_frame(reply, encoded);
      encode_ns += now_ns() - begin;
      ++verdicts;
      const std::size_t index = verdict.job_id - 1;
      if (index < got.size()) {
        got[index] = reply.verdict;
        have[index] = 1;
      }
    }

    // Snapshot captures on a service holding this workload's open
    // streams: a base at the halfway point, then deltas.
    const bool halfway = offset + size >= stream.size() / 2;
    if (halfway && delta_ms.size() < 5) {
      std::ostringstream capture(std::ios::binary);
      begin = now_ns();
      const efd::core::SnapshotCaptureInfo info =
          service.snapshot_capture(capture, chain, chain.last_capture_id == 0);
      const double ms = static_cast<double>(now_ns() - begin) / 1e6;
      if (info.base) {
        out.snapshot_base_ms = ms;
        out.snapshot_base_bytes = static_cast<double>(info.bytes);
        out.snapshot_open_streams = service.stats().active_jobs;
      } else {
        delta_ms.push_back(ms);
        delta_bytes.push_back(static_cast<double>(info.bytes));
      }
    }
  }
  const double samples = static_cast<double>(std::max<std::size_t>(out.samples, 1));
  out.decode_ns_per_sample = static_cast<double>(decode_ns) / samples;
  out.enqueue_ns_per_sample = static_cast<double>(enqueue_ns) / samples;
  out.drain_ns_per_sample = static_cast<double>(drain_ns) / samples;
  out.drain_verdicts_ns =
      collect_calls > 0 ? static_cast<double>(collect_ns) / collect_calls : 0.0;
  out.verdict_encode_ns =
      verdicts > 0 ? static_cast<double>(encode_ns) / verdicts : 0.0;
  out.snapshot_capture_ms = efd::util::median(delta_ms);
  out.snapshot_delta_bytes = efd::util::median(delta_bytes);
  for (const std::uint32_t job : closed_jobs) {
    ++out.verdicts_checked;
    const std::size_t exec = schedule.jobs[job].exec;
    if (!have[job] || !(got[job] == inputs.reference[exec])) {
      ++out.verdict_mismatches;
    }
  }

  // --- core: scoring, probing, rounding, index compile ---
  const ShardedDictionary dict_a = load_dictionary(inputs.dictionaries.a);
  const ShardedDictionary dict_b1 = load_dictionary(inputs.dictionaries.b1);
  const efd::telemetry::Dataset& held_out = inputs.held_out;
  const std::vector<std::size_t> slots = {held_out.metric_slot(inputs.metric)};
  const efd::core::Matcher matcher(dict_a);
  efd::core::RecognitionScratch scratch;
  out.score_us_per_verdict =
      ns_per_item(held_out.size(), [&] {
        for (const auto& record : held_out.records()) {
          matcher.recognize_into(record, slots, scratch);
        }
      }) / 1e3;

  std::vector<efd::core::FingerprintKey> keys;
  std::vector<double> means;
  for (const auto& record : held_out.records()) {
    for (auto& key : efd::core::build_fingerprints(record, dict_a.config(), slots)) {
      keys.push_back(std::move(key));
    }
    for (std::size_t node = 0; node < record.node_count(); ++node) {
      const auto series = record.series(node, slots.front()).samples();
      double sum = 0.0;
      std::size_t count = 0;
      for (std::size_t t = 60; t < std::min<std::size_t>(120, series.size()); ++t) {
        sum += series[t];
        ++count;
      }
      if (count > 0) means.push_back(sum / static_cast<double>(count));
    }
  }
  std::size_t found = 0;
  const auto probe = [&](const ShardedDictionary& dictionary) {
    const efd::core::DictionaryIndex* index = dictionary.probe_index();
    return ns_per_item(keys.size(), [&] {
      for (const auto& key : keys) found += index->find(key) != nullptr;
    });
  };
  if (dict_a.probe_index() != nullptr && dict_b1.probe_index() != nullptr) {
    out.lookup_ns_per_key_a = probe(dict_a);
    out.lookup_ns_per_key_b1 = probe(dict_b1);
    if (found == 0) {
      throw std::logic_error("no held-out fingerprint is in dictionary A");
    }
  }

  std::vector<double> lanes(means);
  const int depth = dict_a.config().rounding_depth;
  out.round_ns_per_value = ns_per_item(means.size(), [&] {
    std::copy(means.begin(), means.end(), lanes.begin());
    efd::core::round_lanes(lanes, depth);
  });

  {
    ShardedDictionary serving = load_dictionary(serving_text);
    std::vector<double> build_ms;
    for (int i = 0; i < 5; ++i) {
      serving.compile_probe_index();
      build_ms.push_back(serving.index_build_seconds() * 1e3);
    }
    out.index_build_ms = efd::util::median(build_ms);
  }

  // --- online: epoch publication B1 <-> B2 (index compile included) ---
  {
    RecognitionService swapper(load_dictionary(inputs.dictionaries.b1), config);
    std::vector<ShardedDictionary> next;
    for (int i = 0; i < 6; ++i) {
      std::istringstream in(i % 2 == 0 ? inputs.dictionaries.b2
                                       : inputs.dictionaries.b1);
      next.push_back(ShardedDictionary::load(in));
    }
    std::vector<double> swap_us;
    for (ShardedDictionary& dictionary : next) {
      const std::int64_t begin = now_ns();
      swapper.swap_dictionary(std::move(dictionary));
      swap_us.push_back(static_cast<double>(now_ns() - begin) / 1e3);
    }
    out.swap_us = efd::util::median(swap_us);
  }
  return out;
}

}  // namespace e2ebench

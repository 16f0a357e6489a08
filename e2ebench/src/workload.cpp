#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/dictionary.hpp"
#include "core/online/recognition_service.hpp"
#include "core/online_recognizer.hpp"
#include "core/recognizer.hpp"
#include "core/sharded_dictionary.hpp"
#include "ingest/pipeline.hpp"
#include "sim/dataset_generator.hpp"
#include "telemetry/metric_registry.hpp"

namespace e2ebench {

namespace {

using efd::ingest::DecodeStatus;
using efd::ingest::FrameDecoder;
using efd::ingest::Message;
using efd::ingest::MessageType;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Seeded Fisher-Yates permutation of [0, n): identical on every
/// platform (std::shuffle's algorithm is unspecified).
std::vector<std::uint32_t> permutation(std::size_t n, std::uint64_t& state) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = splitmix64(state) % i;
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

efd::telemetry::Dataset generate(std::uint64_t seed, const std::string& metric) {
  efd::sim::GeneratorConfig config;
  config.seed = seed;
  config.small_repetitions = kRepetitions;
  config.include_large_input = true;
  config.metrics = {metric};
  config.parallel = false;
  return efd::sim::generate_paper_dataset(config);
}

std::string train_dictionary(const efd::telemetry::Dataset& dataset,
                             const std::string& metric) {
  efd::core::RecognizerConfig config;
  config.metrics = {metric};
  config.auto_depth = false;
  config.rounding_depth = 2;
  efd::core::Recognizer recognizer(config);
  recognizer.train(dataset);
  std::ostringstream out;
  recognizer.dictionary().save(out);
  return std::move(out).str();
}

/// Decodes one template into its messages, in send order.
std::vector<Message> decode_template(const ExecTemplate& exec) {
  FrameDecoder decoder;
  decoder.set_buffer_pool(nullptr);
  decoder.feed(exec.bytes);
  std::vector<Message> messages;
  Message message;
  while (decoder.next(message) == DecodeStatus::kMessage) {
    messages.push_back(std::move(message));
    message = Message();
  }
  if (decoder.failed() || messages.size() != exec.frames.size()) {
    throw std::logic_error("frame template does not decode");
  }
  return messages;
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> list;
    WorkloadSpec fleet;
    fleet.name = "fleet-tcp";
    fleet.transport = Transport::kTcp;
    fleet.open_loop = true;
    fleet.concurrent_jobs = 1000;
    fleet.batch_samples = 0;
    fleet.data_connections = 2;
    list.push_back(fleet);

    WorkloadSpec flood;
    flood.name = "flood-tcp";
    flood.transport = Transport::kTcp;
    flood.open_loop = false;
    flood.concurrent_jobs = 64;
    flood.batch_samples = 256;
    flood.data_connections = 2;
    list.push_back(flood);

    WorkloadSpec shm = fleet;
    shm.name = "fleet-shm";
    shm.transport = Transport::kShm;
    shm.data_connections = 1;
    list.push_back(shm);

    WorkloadSpec churn = fleet;
    churn.name = "churn-tcp";
    churn.churn = true;
    list.push_back(churn);
    return list;
  }();
  return workloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void patch_job_id(std::uint8_t* frame, std::uint64_t job_id) {
  for (std::size_t i = 0; i < 8; ++i) {
    frame[kJobIdOffset + i] = static_cast<std::uint8_t>(job_id >> (8 * i));
  }
}

std::string add_decoys(const std::string& dictionary_text, int variant,
                       std::size_t count) {
  std::istringstream in(dictionary_text);
  efd::core::Dictionary dictionary = efd::core::Dictionary::load(in);
  const std::string metric = dictionary.config().metrics.empty()
                                 ? std::string(efd::telemetry::kHeadlineMetric)
                                 : dictionary.config().metrics.front();
  const efd::telemetry::Interval interval =
      dictionary.config().intervals.empty() ? efd::telemetry::kPaperInterval
                                            : dictionary.config().intervals.front();
  // Two significant digits (a valid depth-2 rounded mean) scaled by
  // 10^(base + k / 90): every key distinct, all far beyond any
  // monitored value. The variant moves the base so B1 and B2 differ.
  const int base = variant == 1 ? 13 : 140;
  for (std::size_t k = 0; k < count; ++k) {
    efd::core::FingerprintKey key;
    key.metric = metric;
    key.node_id = static_cast<std::uint32_t>(k % 32);
    key.interval = interval;
    const double mantissa = static_cast<double>(10 + k % 90);
    const int exponent = base + static_cast<int>(k / 90);
    key.rounded_means = {mantissa * std::pow(10.0, exponent)};
    dictionary.insert(key, "decoy_D");
  }
  std::ostringstream out;
  dictionary.save(out);
  return std::move(out).str();
}

ExecTemplate make_template(const ExecSamples& samples,
                           const std::string& metric,
                           std::size_t batch_samples) {
  ExecTemplate exec;
  exec.node_count = samples.node_count;
  const auto append = [&exec](const Message& message, std::uint32_t count) {
    const std::size_t offset = exec.bytes.size();
    efd::ingest::encode_frame(message, exec.bytes);
    exec.frames.push_back({static_cast<std::uint32_t>(offset),
                           static_cast<std::uint32_t>(exec.bytes.size() - offset),
                           count});
    exec.samples += count;
  };
  append(efd::ingest::make_open_job(0, samples.node_count), 0);

  std::size_t longest = 0;
  for (const auto& series : samples.series) {
    longest = std::max(longest, series.size());
  }
  Message batch;
  batch.type = MessageType::kSampleBatch;
  const auto flush = [&] {
    if (batch.samples.empty()) return;
    append(batch, static_cast<std::uint32_t>(batch.samples.size()));
    batch.samples.clear();
  };
  for (std::size_t t = 0; t < longest; ++t) {
    for (std::size_t node = 0; node < samples.series.size(); ++node) {
      if (t >= samples.series[node].size()) continue;
      efd::ingest::WireSample sample;
      sample.node_id = static_cast<std::uint32_t>(node);
      sample.t = static_cast<std::int32_t>(t);
      sample.value = samples.series[node][t];
      sample.metric = metric;
      batch.samples.push_back(std::move(sample));
      if (batch_samples > 0 && batch.samples.size() >= batch_samples) flush();
    }
    if (batch_samples == 0) flush();  // one frame per tick
  }
  flush();
  append(efd::ingest::make_close_job(0), 0);
  return exec;
}

ReferenceTable build_reference(const std::string& dictionary_text,
                               std::vector<ExecTemplate>& execs,
                               bool set_closing) {
  std::istringstream in(dictionary_text);
  efd::core::RecognitionService service(efd::core::ShardedDictionary::load(in));
  ReferenceTable table;
  table.reserve(execs.size());
  std::vector<efd::core::RecognitionService::SamplePush> pushes;
  for (std::size_t i = 0; i < execs.size(); ++i) {
    ExecTemplate& exec = execs[i];
    const std::uint64_t job_id = i + 1;
    efd::core::OnlineRecognizer online(service.dictionary(), exec.node_count);
    bool closed = false;
    const std::vector<Message> messages = decode_template(exec);
    for (std::size_t f = 0; f < messages.size(); ++f) {
      const Message& message = messages[f];
      switch (message.type) {
        case MessageType::kOpenJob:
          service.open_job(job_id, message.node_count);
          break;
        case MessageType::kSampleBatch:
          pushes.clear();
          for (const auto& sample : message.samples) {
            pushes.push_back({sample.node_id, sample.t, sample.value,
                              std::string_view(sample.metric)});
            online.push(sample.node_id, sample.metric, sample.t, sample.value);
          }
          service.push_batch(job_id, pushes);
          break;
        case MessageType::kCloseJob:
          service.close_job(job_id);
          break;
        default:
          throw std::logic_error("unexpected frame in a job template");
      }
      if (set_closing && !closed &&
          (online.ready() || message.type == MessageType::kCloseJob)) {
        exec.closing_frame = static_cast<std::uint32_t>(f);
        closed = true;
      }
    }
    const std::vector<efd::core::JobVerdict> verdicts = service.drain_verdicts();
    if (verdicts.size() != 1) {
      throw std::logic_error("reference run produced no single verdict");
    }
    table.push_back(efd::ingest::make_verdict_message(verdicts.front()).verdict);
  }
  return table;
}

Schedule build_schedule(const std::vector<ExecTemplate>& execs,
                        const ScheduleParams& params) {
  if (execs.empty() || params.slots == 0 || params.lanes == 0) {
    throw std::invalid_argument("schedule needs executions, slots and lanes");
  }
  Schedule schedule;
  schedule.lanes.resize(params.lanes);
  std::uint64_t rng = params.seed;
  std::vector<std::uint32_t> order;

  struct Slot {
    std::int64_t job = -1;     ///< index into schedule.jobs, -1 = idle
    std::uint32_t frame = 0;   ///< next template frame
    std::size_t start_round = 0;
    bool retired = false;
  };
  std::vector<Slot> slots(params.slots);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    slots[s].start_round = s * params.stagger_rounds / params.slots;
  }

  const auto due_now = [&]() -> std::int64_t {
    if (params.rate_sps <= 0.0) return 0;
    return static_cast<std::int64_t>(static_cast<double>(schedule.samples) *
                                     1e9 / params.rate_sps);
  };
  const auto emit = [&](Slot& slot) {
    const ScheduledJob& job = schedule.jobs[static_cast<std::size_t>(slot.job)];
    const ExecTemplate& exec = execs[job.exec];
    const FrameRef& ref = exec.frames[slot.frame];
    const std::int64_t due = due_now();
    schedule.lanes[job.lane].push_back(
        {static_cast<std::uint32_t>(slot.job), slot.frame, due});
    schedule.last_due_ns = std::max(schedule.last_due_ns, due);
    schedule.samples += ref.samples;
    ++slot.frame;
  };

  std::size_t retired = 0;
  for (std::size_t round = 0; retired < slots.size(); ++round) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (slot.retired) continue;
      if (slot.job < 0) {
        if (round < slot.start_round) continue;
        if (schedule.samples >= params.sample_budget) {
          slot.retired = true;
          ++retired;
          continue;
        }
        const std::size_t k = schedule.jobs.size();
        if (k % execs.size() == 0) order = permutation(execs.size(), rng);
        schedule.jobs.push_back({k + 1, order[k % execs.size()],
                                 static_cast<std::uint32_t>(s % params.lanes)});
        slot.job = static_cast<std::int64_t>(k);
        slot.frame = 0;
      }
      const ExecTemplate& exec =
          execs[schedule.jobs[static_cast<std::size_t>(slot.job)].exec];
      // One sample frame per round, with the job's control frames riding
      // along on either side of it.
      if (exec.frames[slot.frame].samples == 0) emit(slot);  // kOpenJob
      if (slot.frame < exec.frames.size()) emit(slot);
      if (slot.frame + 1 == exec.frames.size()) emit(slot);  // kCloseJob
      if (slot.frame >= exec.frames.size()) slot.job = -1;
    }
  }
  return schedule;
}

Inputs build_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  inputs.metric = std::string(efd::telemetry::kHeadlineMetric);
  const efd::telemetry::Dataset train = generate(seed, inputs.metric);
  inputs.held_out = generate(seed + 1, inputs.metric);
  const efd::telemetry::Dataset& held_out = inputs.held_out;

  inputs.dictionaries.a = train_dictionary(train, inputs.metric);
  // churn-tcp serves and swaps B1/B2; every workload's traced run also
  // times swaps and B1 probes in-process.
  inputs.dictionaries.b1 = add_decoys(inputs.dictionaries.a, 1, kDecoyKeys);
  inputs.dictionaries.b2 = add_decoys(inputs.dictionaries.a, 2, kDecoyKeys);

  const std::size_t slot = held_out.metric_slot(inputs.metric);
  inputs.execs.reserve(held_out.size());
  for (const auto& record : held_out.records()) {
    ExecSamples samples;
    samples.node_count = static_cast<std::uint32_t>(record.node_count());
    for (std::size_t node = 0; node < record.node_count(); ++node) {
      const auto values = record.series(node, slot).samples();
      samples.series.emplace_back(values.begin(), values.end());
    }
    inputs.execs.push_back(
        make_template(samples, inputs.metric, spec.batch_samples));
  }
  inputs.reference = build_reference(inputs.dictionaries.a, inputs.execs, true);
  inputs.reference_b1 =
      build_reference(inputs.dictionaries.b1, inputs.execs, false);
  return inputs;
}

}  // namespace e2ebench

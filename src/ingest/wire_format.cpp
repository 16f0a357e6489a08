#include "ingest/wire_format.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "ingest/buffer_pool.hpp"
#include "obs/metrics.hpp"
#include "util/binary_io.hpp"

namespace efd::ingest {

namespace {

using util::ByteReader;
using util::put_f64;
using util::put_string;
using util::put_u32;
using util::put_u64;

/// Body sizes that don't depend on string payloads.
constexpr std::size_t kHeaderBytes = 2;  // version + type
constexpr std::size_t kOpenJobBody = 8 + 4;
constexpr std::size_t kCloseJobBody = 8;
constexpr std::size_t kBatchPrefix = 8 + 4;              // job_id + count
constexpr std::size_t kSampleFixed = 4 + 4 + 8 + 2;      // + metric bytes
constexpr std::size_t kVerdictFixed = 8 + 1 + 4 + 4 + 2 + 2;
constexpr std::size_t kSwapAckFixed = 1 + 8 + 2;
constexpr std::size_t kStatsReplyPrefix = 4;  // u32 text length
constexpr std::size_t kRetrainReportBody = 8 + 1 + 8 + 8 + 8 + 8 + 8;
constexpr std::size_t kSnapCapturePrefix = 8 + 8;  // capture_id + parent_id
constexpr std::size_t kSnapAckFixed = 1 + 8 + 2;
constexpr std::size_t kFollowRequestBody = 8;
constexpr std::size_t kSubscribePrefix = 4;        // app_count (then sources)
constexpr std::size_t kVerdictEventFixed = 8 + 4 + 8 + 1 + 4 + 4 + 2 + 2;

void encode_frame_impl(const Message& message, std::vector<std::uint8_t>& out,
                       std::size_t frame_start);

}  // namespace

Message make_open_job(std::uint64_t job_id, std::uint32_t node_count) {
  Message message;
  message.type = MessageType::kOpenJob;
  message.job_id = job_id;
  message.node_count = node_count;
  return message;
}

Message make_close_job(std::uint64_t job_id) {
  Message message;
  message.type = MessageType::kCloseJob;
  message.job_id = job_id;
  return message;
}

Message make_shutdown() {
  Message message;
  message.type = MessageType::kShutdown;
  return message;
}

Message make_swap_dictionary(std::vector<std::uint8_t> dictionary_bytes) {
  Message message;
  message.type = MessageType::kSwapDictionary;
  message.dictionary_blob = std::move(dictionary_bytes);
  return message;
}

Message make_swap_ack(bool ok, std::uint64_t epoch, std::string error) {
  Message message;
  message.type = MessageType::kSwapAck;
  message.swap_ack.ok = ok;
  message.swap_ack.epoch = epoch;
  message.swap_ack.error = std::move(error);
  return message;
}

Message make_stats_request() {
  Message message;
  message.type = MessageType::kStatsRequest;
  return message;
}

Message make_stats_reply(std::string text) {
  Message message;
  message.type = MessageType::kStatsReply;
  message.stats_text = std::move(text);
  return message;
}

Message make_retrain_report(WireRetrainReport report) {
  Message message;
  message.type = MessageType::kRetrainReport;
  message.retrain_report = report;
  return message;
}

Message make_snap_capture(bool base, std::uint64_t capture_id,
                          std::uint64_t parent_id,
                          std::vector<std::uint8_t> capture_bytes) {
  Message message;
  message.type = base ? MessageType::kSnapBase : MessageType::kSnapDelta;
  message.capture_id = capture_id;
  message.parent_id = base ? 0 : parent_id;
  message.snapshot_blob = std::move(capture_bytes);
  return message;
}

Message make_snap_ack(bool ok, std::uint64_t capture_id, std::string error) {
  Message message;
  message.type = MessageType::kSnapAck;
  message.snap_ack.ok = ok;
  message.snap_ack.capture_id = capture_id;
  message.snap_ack.error = std::move(error);
  return message;
}

Message make_follow_request(std::uint64_t last_capture_id) {
  Message message;
  message.type = MessageType::kFollowRequest;
  message.capture_id = last_capture_id;
  return message;
}

Message make_promote() {
  Message message;
  message.type = MessageType::kPromote;
  return message;
}

Message make_promote_ack(bool ok, std::uint64_t capture_id,
                         std::string error) {
  Message message;
  message.type = MessageType::kPromoteAck;
  message.snap_ack.ok = ok;
  message.snap_ack.capture_id = capture_id;
  message.snap_ack.error = std::move(error);
  return message;
}

Message make_subscribe(std::vector<std::string> applications,
                       std::vector<std::uint32_t> sources) {
  Message message;
  message.type = MessageType::kSubscribe;
  message.subscribe.applications = std::move(applications);
  message.subscribe.sources = std::move(sources);
  return message;
}

Message make_subscribe_ack(bool ok, std::uint64_t subscriber_id,
                           std::string error) {
  Message message;
  message.type = MessageType::kSubscribeAck;
  message.snap_ack.ok = ok;
  message.snap_ack.capture_id = subscriber_id;
  message.snap_ack.error = std::move(error);
  return message;
}

Message make_verdict_event(std::uint64_t job_id, std::uint32_t source,
                           std::uint64_t latency_ns, WireVerdict verdict) {
  Message message;
  message.type = MessageType::kVerdictEvent;
  message.job_id = job_id;
  message.verdict_event.source = source;
  message.verdict_event.latency_ns = latency_ns;
  message.verdict = std::move(verdict);
  return message;
}

void encode_frame(const Message& message, std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  try {
    encode_frame_impl(message, out, frame_start);
  } catch (...) {
    out.resize(frame_start);  // never leave a half-written frame behind
    throw;
  }
}

namespace {

void encode_frame_impl(const Message& message, std::vector<std::uint8_t>& out,
                       std::size_t frame_start) {
  put_u32(out, 0);  // payload length backpatched below
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(message.type));

  switch (message.type) {
    case MessageType::kOpenJob:
      put_u64(out, message.job_id);
      put_u32(out, message.node_count);
      break;
    case MessageType::kCloseJob:
      put_u64(out, message.job_id);
      break;
    case MessageType::kShutdown:
      break;
    case MessageType::kSampleBatch: {
      if (message.samples.size() > kMaxSamplesPerBatch) {
        throw std::invalid_argument("sample batch exceeds wire limit");
      }
      put_u64(out, message.job_id);
      put_u32(out, static_cast<std::uint32_t>(message.samples.size()));
      for (const WireSample& sample : message.samples) {
        put_u32(out, sample.node_id);
        put_u32(out, static_cast<std::uint32_t>(sample.t));
        put_f64(out, sample.value);
        put_string(out, sample.metric);
      }
      break;
    }
    case MessageType::kVerdict:
      put_u64(out, message.job_id);
      out.push_back(message.verdict.recognized ? 1 : 0);
      put_u32(out, message.verdict.matched);
      put_u32(out, message.verdict.fingerprints);
      put_string(out, message.verdict.application);
      put_string(out, message.verdict.label);
      break;
    case MessageType::kSwapDictionary:
      // The blob runs to the end of the body; the frame's length prefix
      // bounds it (and the kMaxFrameBytes check below enforces the cap).
      out.insert(out.end(), message.dictionary_blob.begin(),
                 message.dictionary_blob.end());
      break;
    case MessageType::kSwapAck:
      out.push_back(message.swap_ack.ok ? 1 : 0);
      put_u64(out, message.swap_ack.epoch);
      put_string(out, message.swap_ack.error);
      break;
    case MessageType::kStatsRequest:
      break;
    case MessageType::kStatsReply:
      // u32 length (stats text can outgrow the u16 string prefix on a
      // busy endpoint); the frame cap below still bounds it.
      put_u32(out, static_cast<std::uint32_t>(message.stats_text.size()));
      out.insert(out.end(), message.stats_text.begin(),
                 message.stats_text.end());
      break;
    case MessageType::kRetrainReport:
      put_u64(out, message.retrain_report.cycle);
      out.push_back(message.retrain_report.outcome);
      put_u64(out, message.retrain_report.epoch);
      put_f64(out, message.retrain_report.candidate_score);
      put_f64(out, message.retrain_report.incumbent_score);
      put_u64(out, message.retrain_report.window_jobs);
      put_u64(out, message.retrain_report.holdout_jobs);
      break;
    case MessageType::kSnapBase:
    case MessageType::kSnapDelta:
      // The capture blob runs to the end of the body; the frame's length
      // prefix bounds it (and the kMaxFrameBytes check below enforces the
      // cap — larger captures cannot travel this path).
      put_u64(out, message.capture_id);
      put_u64(out, message.parent_id);
      out.insert(out.end(), message.snapshot_blob.begin(),
                 message.snapshot_blob.end());
      break;
    case MessageType::kSnapAck:
    case MessageType::kPromoteAck:
      out.push_back(message.snap_ack.ok ? 1 : 0);
      put_u64(out, message.snap_ack.capture_id);
      put_string(out, message.snap_ack.error);
      break;
    case MessageType::kFollowRequest:
      put_u64(out, message.capture_id);
      break;
    case MessageType::kPromote:
      break;
    case MessageType::kSubscribe: {
      if (message.subscribe.applications.size() > kMaxSubscribeFilters ||
          message.subscribe.sources.size() > kMaxSubscribeFilters) {
        throw std::invalid_argument("subscribe filter list exceeds wire limit");
      }
      put_u32(out, static_cast<std::uint32_t>(
                       message.subscribe.applications.size()));
      for (const std::string& application : message.subscribe.applications) {
        put_string(out, application);
      }
      put_u32(out,
              static_cast<std::uint32_t>(message.subscribe.sources.size()));
      for (const std::uint32_t source : message.subscribe.sources) {
        put_u32(out, source);
      }
      break;
    }
    case MessageType::kSubscribeAck:
      out.push_back(message.snap_ack.ok ? 1 : 0);
      put_u64(out, message.snap_ack.capture_id);
      put_string(out, message.snap_ack.error);
      break;
    case MessageType::kVerdictEvent:
      put_u64(out, message.job_id);
      put_u32(out, message.verdict_event.source);
      put_u64(out, message.verdict_event.latency_ns);
      out.push_back(message.verdict.recognized ? 1 : 0);
      put_u32(out, message.verdict.matched);
      put_u32(out, message.verdict.fingerprints);
      put_string(out, message.verdict.application);
      put_string(out, message.verdict.label);
      break;
  }

  const std::size_t payload = out.size() - frame_start - 4;
  if (payload > kMaxFrameBytes) {
    out.resize(frame_start);
    throw std::invalid_argument("frame exceeds kMaxFrameBytes");
  }
  // Backpatch the length prefix.
  for (int i = 0; i < 4; ++i) {
    out[frame_start + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload >> (8 * i));
  }
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& message) {
  std::vector<std::uint8_t> out;
  encode_frame(message, out);
  return out;
}

namespace {

/// The length-prefix checks every frame passes before its payload is
/// looked at. Returns nullptr or the error text.
const char* check_payload_length(std::uint32_t payload_len) {
  if (payload_len < kHeaderBytes) return "frame shorter than header";
  if (payload_len > kMaxFrameBytes) return "frame exceeds size limit";
  return nullptr;
}

/// The one validation of a kSampleBatch body (`u64 job_id | u32 count |
/// count * sample`): the prefix, the count against the bytes that
/// arrived, every sample's fixed fields and metric length, and no
/// trailing bytes. Fills \p job_id and \p batch and returns nullptr, or
/// returns the error text.
const char* check_sample_batch(const std::uint8_t* body, std::size_t size,
                               std::uint64_t& job_id,
                               SampleBatchView& batch) {
  if (size < kBatchPrefix) return "malformed sample-batch prefix";
  const auto count = detail::load_le<std::uint32_t>(body + 8);
  // Never trust the count field: the body that actually arrived bounds
  // how many samples can exist.
  std::size_t left = size - kBatchPrefix;
  if (static_cast<std::size_t>(count) * kSampleFixed > left) {
    return "sample count inconsistent with frame length";
  }
  const std::uint8_t* at = body + kBatchPrefix;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (left < kSampleFixed) return "truncated sample in batch";
    // The u16 metric length closes the sample's fixed fields.
    const std::size_t sample =
        kSampleFixed + detail::load_le<std::uint16_t>(at + kSampleFixed - 2);
    if (sample > left) return "truncated sample in batch";
    at += sample;
    left -= sample;
  }
  if (left != 0) return "trailing bytes in batch";
  job_id = detail::load_le<std::uint64_t>(body);
  batch = SampleBatchView{count, body + kBatchPrefix, size - kBatchPrefix};
  return nullptr;
}

/// Decodes the body of every type but kSampleBatch into \p message.
/// Returns nullptr or the error text.
const char* decode_body(MessageType type, ByteReader& reader,
                        Message& message) {
  switch (type) {
    case MessageType::kOpenJob:
      message.type = MessageType::kOpenJob;
      if (reader.remaining() != kOpenJobBody ||
          !reader.read_u64(message.job_id) ||
          !reader.read_u32(message.node_count)) {
        return "malformed open-job body";
      }
      break;
    case MessageType::kCloseJob:
      message.type = MessageType::kCloseJob;
      if (reader.remaining() != kCloseJobBody ||
          !reader.read_u64(message.job_id)) {
        return "malformed close-job body";
      }
      break;
    case MessageType::kShutdown:
      message.type = MessageType::kShutdown;
      if (reader.remaining() != 0) return "malformed shutdown body";
      break;
    case MessageType::kVerdict: {
      message.type = MessageType::kVerdict;
      std::uint8_t recognized = 0;
      if (reader.remaining() < kVerdictFixed ||
          !reader.read_u64(message.job_id) || !reader.read_u8(recognized) ||
          !reader.read_u32(message.verdict.matched) ||
          !reader.read_u32(message.verdict.fingerprints) ||
          !reader.read_string(message.verdict.application) ||
          !reader.read_string(message.verdict.label)) {
        return "malformed verdict body";
      }
      message.verdict.recognized = recognized != 0;
      if (reader.remaining() != 0) return "trailing bytes in verdict";
      break;
    }
    case MessageType::kSwapDictionary:
      message.type = MessageType::kSwapDictionary;
      // Whatever the body holds IS the dictionary blob: allocation is
      // bounded by the bytes that actually arrived (<= kMaxFrameBytes).
      reader.read_bytes(message.dictionary_blob, reader.remaining());
      break;
    case MessageType::kSwapAck: {
      message.type = MessageType::kSwapAck;
      std::uint8_t ok = 0;
      if (reader.remaining() < kSwapAckFixed || !reader.read_u8(ok) ||
          !reader.read_u64(message.swap_ack.epoch) ||
          !reader.read_string(message.swap_ack.error)) {
        return "malformed swap-ack body";
      }
      message.swap_ack.ok = ok != 0;
      if (reader.remaining() != 0) return "trailing bytes in swap-ack";
      break;
    }
    case MessageType::kStatsRequest:
      message.type = MessageType::kStatsRequest;
      if (reader.remaining() != 0) return "malformed stats-request body";
      break;
    case MessageType::kStatsReply: {
      message.type = MessageType::kStatsReply;
      std::uint32_t text_len = 0;
      if (reader.remaining() < kStatsReplyPrefix ||
          !reader.read_u32(text_len)) {
        return "malformed stats-reply prefix";
      }
      // The declared length must match the bytes that actually arrived —
      // never an allocation source beyond them.
      if (text_len != reader.remaining()) {
        return "stats text length inconsistent with frame length";
      }
      std::vector<std::uint8_t> text;
      reader.read_bytes(text, text_len);
      message.stats_text.assign(text.begin(), text.end());
      break;
    }
    case MessageType::kRetrainReport: {
      message.type = MessageType::kRetrainReport;
      if (reader.remaining() != kRetrainReportBody ||
          !reader.read_u64(message.retrain_report.cycle) ||
          !reader.read_u8(message.retrain_report.outcome) ||
          !reader.read_u64(message.retrain_report.epoch) ||
          !reader.read_f64(message.retrain_report.candidate_score) ||
          !reader.read_f64(message.retrain_report.incumbent_score) ||
          !reader.read_u64(message.retrain_report.window_jobs) ||
          !reader.read_u64(message.retrain_report.holdout_jobs)) {
        return "malformed retrain-report body";
      }
      break;
    }
    case MessageType::kSnapBase:
    case MessageType::kSnapDelta: {
      message.type = type;
      if (reader.remaining() < kSnapCapturePrefix ||
          !reader.read_u64(message.capture_id) ||
          !reader.read_u64(message.parent_id)) {
        return "malformed snap-capture prefix";
      }
      if (message.type == MessageType::kSnapBase && message.parent_id != 0) {
        return "snap-base with nonzero parent";
      }
      // Whatever the body holds IS the capture blob: allocation is
      // bounded by the bytes that actually arrived (<= kMaxFrameBytes).
      // The blob's own EFD-SNAP-V2 CRCs are checked at restore time.
      reader.read_bytes(message.snapshot_blob, reader.remaining());
      break;
    }
    case MessageType::kSnapAck:
    case MessageType::kPromoteAck: {
      message.type = type;
      std::uint8_t ok = 0;
      if (reader.remaining() < kSnapAckFixed || !reader.read_u8(ok) ||
          !reader.read_u64(message.snap_ack.capture_id) ||
          !reader.read_string(message.snap_ack.error)) {
        return "malformed snap-ack body";
      }
      message.snap_ack.ok = ok != 0;
      if (reader.remaining() != 0) return "trailing bytes in snap-ack";
      break;
    }
    case MessageType::kFollowRequest:
      message.type = MessageType::kFollowRequest;
      if (reader.remaining() != kFollowRequestBody ||
          !reader.read_u64(message.capture_id)) {
        return "malformed follow-request body";
      }
      break;
    case MessageType::kPromote:
      message.type = MessageType::kPromote;
      if (reader.remaining() != 0) return "malformed promote body";
      break;
    case MessageType::kSubscribe: {
      message.type = MessageType::kSubscribe;
      std::uint32_t app_count = 0;
      if (reader.remaining() < kSubscribePrefix ||
          !reader.read_u32(app_count)) {
        return "malformed subscribe prefix";
      }
      // Each filter name costs at least its u16 length prefix; the body
      // that actually arrived bounds the allocation, never the count.
      if (static_cast<std::size_t>(app_count) * 2 > reader.remaining()) {
        return "subscribe app count inconsistent with frame length";
      }
      message.subscribe.applications.resize(app_count);
      for (std::uint32_t i = 0; i < app_count; ++i) {
        if (!reader.read_string(message.subscribe.applications[i])) {
          return "truncated subscribe application filter";
        }
      }
      std::uint32_t source_count = 0;
      if (!reader.read_u32(source_count) ||
          static_cast<std::size_t>(source_count) * 4 > reader.remaining()) {
        return "subscribe source count inconsistent with frame length";
      }
      message.subscribe.sources.resize(source_count);
      for (std::uint32_t i = 0; i < source_count; ++i) {
        if (!reader.read_u32(message.subscribe.sources[i])) {
          return "truncated subscribe source filter";
        }
      }
      if (reader.remaining() != 0) return "trailing bytes in subscribe";
      break;
    }
    case MessageType::kSubscribeAck: {
      message.type = MessageType::kSubscribeAck;
      std::uint8_t ok = 0;
      if (reader.remaining() < kSnapAckFixed || !reader.read_u8(ok) ||
          !reader.read_u64(message.snap_ack.capture_id) ||
          !reader.read_string(message.snap_ack.error)) {
        return "malformed subscribe-ack body";
      }
      message.snap_ack.ok = ok != 0;
      if (reader.remaining() != 0) {
        return "trailing bytes in subscribe-ack";
      }
      break;
    }
    case MessageType::kVerdictEvent: {
      message.type = MessageType::kVerdictEvent;
      std::uint8_t recognized = 0;
      if (reader.remaining() < kVerdictEventFixed ||
          !reader.read_u64(message.job_id) ||
          !reader.read_u32(message.verdict_event.source) ||
          !reader.read_u64(message.verdict_event.latency_ns) ||
          !reader.read_u8(recognized) ||
          !reader.read_u32(message.verdict.matched) ||
          !reader.read_u32(message.verdict.fingerprints) ||
          !reader.read_string(message.verdict.application) ||
          !reader.read_string(message.verdict.label)) {
        return "malformed verdict-event body";
      }
      message.verdict.recognized = recognized != 0;
      if (reader.remaining() != 0) {
        return "trailing bytes in verdict-event";
      }
      break;
    }
    default:
      return "unknown message type";
  }
  return nullptr;
}

/// Decodes one whole frame payload (`version | type | body`). A
/// kSampleBatch passes check_sample_batch and is then either left in
/// place (\p batch non-null: out gets the type and job id) or built
/// into out.samples from \p pool (null = fresh vectors). Returns nullptr
/// or the error text; \p out is untouched on error.
const char* decode_payload(const std::uint8_t* payload, std::size_t size,
                           Message& out, SampleBatchView* batch,
                           SampleBufferPool* pool) {
  // Decode-stage timer: one steady_clock pair per sampled frame (1 in
  // HotPathMetrics::kSampleEvery); gated so bench_hot_path can measure
  // the instrumentation on/off.
  const bool timed = obs::hot_path().sample_now();
  const auto decode_start = timed ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};

  if (payload[0] != kWireVersion) return "unsupported wire version";
  const auto type = static_cast<MessageType>(payload[1]);
  if (type == MessageType::kSampleBatch) {
    std::uint64_t job_id = 0;
    SampleBatchView view;
    if (const char* error = check_sample_batch(
            payload + kHeaderBytes, size - kHeaderBytes, job_id, view)) {
      return error;
    }
    if (batch != nullptr) {
      out.type = MessageType::kSampleBatch;
      out.job_id = job_id;
      out.samples.clear();
      *batch = view;
    } else {
      Message message;
      message.type = MessageType::kSampleBatch;
      message.job_id = job_id;
      // Decode IN PLACE into a recycled buffer: every field of every
      // element is overwritten below, and assign() reuses each metric
      // string's capacity from the buffer's previous batch.
      if (pool != nullptr) message.samples = pool->acquire();
      message.samples.resize(view.count);
      WireSample* sample = message.samples.data();
      for_each_sample(view, [&sample](const SampleRef& ref) {
        sample->node_id = ref.node_id;
        sample->t = ref.t;
        sample->value = ref.value;
        sample->metric.assign(ref.metric);
        ++sample;
      });
      out = std::move(message);
    }
  } else {
    Message message;
    ByteReader reader(payload + kHeaderBytes, size - kHeaderBytes);
    if (const char* error = decode_body(type, reader, message)) return error;
    out = std::move(message);
    if (batch != nullptr) *batch = SampleBatchView{};
  }

  if (timed) {
    obs::hot_path().decode_ns.observe(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - decode_start)
            .count());
  }
  return nullptr;
}

}  // namespace

const char* decode_frame(const std::uint8_t* frame, std::size_t size,
                         Message& out, SampleBatchView* batch) {
  if (size < 4) return "truncated frame";
  const auto payload_len = detail::load_le<std::uint32_t>(frame);
  if (const char* error = check_payload_length(payload_len)) return error;
  if (size - 4 < payload_len) return "truncated frame";
  if (size - 4 > payload_len) return "trailing bytes after frame";
  return decode_payload(frame + 4, payload_len, out, batch,
                        &sample_buffer_pool());
}

FrameDecoder::FrameDecoder() : pool_(&sample_buffer_pool()) {}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (failed_ || size == 0) return;
  // Compact the consumed prefix before growing (keeps the buffer bounded
  // by one frame plus one read's worth of bytes).
  if (offset_ > 0 && offset_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

DecodeStatus FrameDecoder::fail(const char* reason) {
  failed_ = true;
  error_ = reason;
  return DecodeStatus::kError;
}

DecodeStatus FrameDecoder::next(Message& out) {
  return next_frame(out, nullptr);
}

DecodeStatus FrameDecoder::next(Message& out, SampleBatchView& batch) {
  return next_frame(out, &batch);
}

DecodeStatus FrameDecoder::next_frame(Message& out, SampleBatchView* batch) {
  if (failed_) return DecodeStatus::kError;
  const std::size_t available = buffer_.size() - offset_;
  if (available < 4) return DecodeStatus::kNeedMore;
  const std::uint8_t* head = buffer_.data() + offset_;
  const auto payload_len = detail::load_le<std::uint32_t>(head);
  if (const char* error = check_payload_length(payload_len)) {
    return fail(error);
  }
  if (available - 4 < payload_len) return DecodeStatus::kNeedMore;
  if (const char* error =
          decode_payload(head + 4, payload_len, out, batch, pool_)) {
    return fail(error);
  }
  offset_ += 4 + payload_len;
  ++frames_decoded_;
  return DecodeStatus::kMessage;
}

}  // namespace efd::ingest

#pragma once
/// \file wire_format.hpp
/// \brief EFD-WIRE-V1: versioned, length-prefixed binary codec for
/// monitoring samples and recognition verdicts.
///
/// This is the on-the-wire contract between node-side emitters (LDMS
/// sampling loops, replayers) and the recognition service's ingest
/// pipeline — transport-agnostic: the same frames flow over a TCP
/// socket, an in-process ring, or any future transport.
///
/// Frame layout (all integers little-endian):
///
///   frame    := u32 payload_len | payload          (payload_len bytes)
///   payload  := u8 version (=1) | u8 type | body
///
///   OpenJob     body := u64 job_id | u32 node_count
///   SampleBatch body := u64 job_id | u32 count | count * sample
///     sample         := u32 node_id | i32 t | f64 value
///                       | u16 metric_len | metric bytes
///   CloseJob    body := u64 job_id
///   Verdict     body := u64 job_id | u8 recognized
///                       | u32 matched | u32 fingerprints
///                       | u16 app_len | app | u16 label_len | label
///   Shutdown    body := (empty)
///   SwapDictionary body := dictionary bytes (EFD-DICT-V1, to body end)
///   SwapAck     body := u8 ok | u64 epoch | u16 err_len | err
///   StatsRequest body := (empty)
///   StatsReply  body := u32 text_len | text  (flat "name value" lines)
///   RetrainReport body := u64 cycle | u8 outcome | u64 epoch
///                       | f64 candidate_score | f64 incumbent_score
///                       | u64 window_jobs | u64 holdout_jobs
///   SnapBase    body := u64 capture_id | u64 parent_id (=0)
///                       | capture bytes (EFD-SNAP-V2, to body end)
///   SnapDelta   body := u64 capture_id | u64 parent_id
///                       | capture bytes (EFD-SNAP-V2, to body end)
///   SnapAck     body := u8 ok | u64 capture_id | u16 err_len | err
///   FollowRequest body := u64 last_capture_id (0 = send the full chain)
///   Promote     body := (empty)
///   PromoteAck  body := u8 ok | u64 capture_id | u16 err_len | err
///   Subscribe   body := u32 app_count | app_count * (u16 len | name)
///                       | u32 source_count | source_count * u32 source
///   SubscribeAck body := u8 ok | u64 subscriber_id | u16 err_len | err
///   VerdictEvent body := u64 job_id | u32 source | u64 latency_ns
///                       | u8 recognized | u32 matched | u32 fingerprints
///                       | u16 app_len | app | u16 label_len | label
///
/// Subscribe/SubscribeAck/VerdictEvent are the verdict pub/sub path: any
/// connected peer sends kSubscribe with optional per-application and
/// per-source filters (empty filter lists mean "everything"), gets back a
/// kSubscribeAck carrying its subscriber id, and from then on receives a
/// kVerdictEvent copy of every matching verdict the pipeline flushes.
/// Events ride per-subscriber bounded queues that drop-and-count when the
/// consumer is slow — the verdict flush path never blocks on a
/// subscriber (see ingest/subscription.hpp). latency_ns is the end-to-end
/// sample-enqueue to verdict latency (0 when unknown, e.g. force-closed
/// or snapshot-restored jobs).
///
/// SnapBase/SnapDelta/SnapAck/FollowRequest are the warm-standby
/// replication path: a follower (`serve --follow host:port`) connects
/// like any peer and sends FollowRequest carrying the newest capture id
/// already durable in its local chain; the leader (gated by
/// `--allow-followers` — like kShutdown this is unauthenticated wire
/// input) streams the missing EFD-SNAP-V2 captures and every subsequent
/// one, each acked by the follower once it is durably on the follower's
/// disk. Captures above kMaxFrameBytes cannot travel this path (the
/// kSwapDictionary limitation); the leader counts and skips them.
/// Promote/PromoteAck flip a follower into a serving leader (`efd_cli
/// promote`); the ack reports the newest capture id the follower will
/// restore from.
///
/// StatsRequest/StatsReply are the monitoring scrape path: any connected
/// peer can ask the serving endpoint for its aggregate counters
/// (RecognitionServiceStats + IngestPipelineStats + RetrainStats) as a
/// flat `name value` text block — the precursor of a Prometheus-style
/// endpoint. RetrainReport is pushed (never requested) to every
/// connection the pipeline has seen whenever a closed-loop retrain cycle
/// finishes, so clients observe promotions/gate rejections as they
/// happen; the outcome byte matches retrain::RetrainOutcome.
///
/// SwapDictionary is the live-reconfiguration control frame: it carries a
/// full retrained dictionary and asks the service to hot-swap it behind
/// every open stream (see core/dictionary_handle.hpp). Like kShutdown it
/// is unauthenticated wire input, so the pipeline only honors it when the
/// operator opted in; the SwapAck reply reports the new dictionary epoch
/// (or ok=0 and a reason). Dictionaries above kMaxFrameBytes cannot
/// travel this path — restart with the snapshot/restore flow instead.
///
/// Decoding is defensive by construction: the decoder is fed arbitrary
/// byte streams (network input) and must never crash, read out of
/// bounds, or over-allocate. Frames longer than kMaxFrameBytes, batch
/// counts inconsistent with the frame length, string lengths overrunning
/// the body, unknown versions/types, and trailing garbage inside a body
/// all produce DecodeStatus::kError; after an error the decoder stays
/// failed (a corrupted stream has lost framing — the transport must drop
/// the connection). Allocation is bounded by what actually arrived:
/// sample vectors reserve at most payload-implied counts, never the raw
/// count field.
///
/// A kSampleBatch has two decoded forms behind one validation: owned
/// WireSamples (Message::samples, for callers that keep them) or a
/// SampleBatchView over the frame's own bytes (the servers' form, which
/// the ingest pipeline reads straight into the service's push buffer).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace efd::ingest {

inline constexpr std::uint8_t kWireVersion = 1;

/// Decode guard: frames above this fail the stream. Note a batch of
/// kMaxSamplesPerBatch samples only fits when metric names stay short
/// (~18 bytes + name per sample); emitters bound *bytes*, not just
/// sample count — TransportFeed flushes at kBatchFlushBytes, which
/// keeps every frame it emits far below this limit.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Encode-side cap per kSampleBatch message (emitters flush at this).
inline constexpr std::size_t kMaxSamplesPerBatch = 4096;

/// Encode-side byte threshold at which TransportFeed flushes a pending
/// batch. A single sample's wire size is bounded by 18 + 65535 (u16
/// metric length), so threshold + one sample always fits kMaxFrameBytes.
inline constexpr std::size_t kBatchFlushBytes = 256u << 10;

enum class MessageType : std::uint8_t {
  kOpenJob = 1,
  kSampleBatch = 2,
  kCloseJob = 3,
  kVerdict = 4,
  kShutdown = 5,
  kSwapDictionary = 6,
  kSwapAck = 7,
  kStatsRequest = 8,
  kStatsReply = 9,
  kRetrainReport = 10,
  kSnapBase = 11,       ///< one EFD-SNAP-V2 base capture (leader → follower)
  kSnapDelta = 12,      ///< one EFD-SNAP-V2 delta capture (leader → follower)
  kSnapAck = 13,        ///< follower: capture durably persisted (or not)
  kFollowRequest = 14,  ///< follower's cursor handshake (last capture id)
  kPromote = 15,        ///< operator: stop following, start serving
  kPromoteAck = 16,     ///< follower's reply before it switches over
  kSubscribe = 17,      ///< peer: start streaming me matching verdicts
  kSubscribeAck = 18,   ///< pipeline's reply with the subscriber id
  kVerdictEvent = 19,   ///< one flushed verdict, pushed to subscribers
};

/// Encode-side cap on kSubscribe filter-list lengths (per list).
inline constexpr std::size_t kMaxSubscribeFilters = 64;

/// One monitoring sample as it travels the wire.
struct WireSample {
  std::uint32_t node_id = 0;
  std::int32_t t = 0;
  double value = 0.0;
  std::string metric;

  bool operator==(const WireSample&) const = default;
};

/// A kSampleBatch validated where it arrived instead of copied into
/// WireSamples: `count` samples packed in [data, data + size), each
/// `u32 node_id | i32 t | f64 value | u16 metric_len | metric`. It
/// borrows its source's buffer; see the lifetime contract in
/// transport.hpp. A default view (data == nullptr) holds no batch.
struct SampleBatchView {
  std::uint32_t count = 0;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// One sample read out of a SampleBatchView; `metric` points into the
/// frame's bytes.
struct SampleRef {
  std::uint32_t node_id = 0;
  std::int32_t t = 0;
  double value = 0.0;
  std::string_view metric;
};

namespace detail {
/// Little-endian load of a T (one plain load on little-endian hosts).
template <typename T>
T load_le(const std::uint8_t* at) noexcept {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<std::uint64_t>(at[i]) << (8 * i);
  }
  return static_cast<T>(value);
}
}  // namespace detail

/// Calls \p fn(const SampleRef&) for each sample of \p batch in wire
/// order. The decoder checked every length when it made the view, so
/// this reads without checks.
template <typename Fn>
void for_each_sample(const SampleBatchView& batch, Fn&& fn) {
  const std::uint8_t* at = batch.data;
  for (std::uint32_t i = 0; i < batch.count; ++i) {
    const std::uint16_t metric_len = detail::load_le<std::uint16_t>(at + 16);
    fn(SampleRef{
        detail::load_le<std::uint32_t>(at),
        static_cast<std::int32_t>(detail::load_le<std::uint32_t>(at + 4)),
        std::bit_cast<double>(detail::load_le<std::uint64_t>(at + 8)),
        std::string_view(reinterpret_cast<const char*>(at + 18),
                         metric_len)});
    at += 18 + metric_len;
  }
}

/// A finished job's verdict as it travels back to the emitter.
struct WireVerdict {
  bool recognized = false;
  std::uint32_t matched = 0;
  std::uint32_t fingerprints = 0;
  std::string application;  ///< RecognitionResult::prediction()
  std::string label;        ///< RecognitionResult::label_prediction()

  bool operator==(const WireVerdict&) const = default;
};

/// Outcome of a kSwapDictionary request, shipped back to the requester.
struct WireSwapAck {
  bool ok = false;
  std::uint64_t epoch = 0;  ///< active dictionary epoch after the request
  std::string error;        ///< reason when ok is false

  bool operator==(const WireSwapAck&) const = default;
};

/// One finished closed-loop retrain cycle, broadcast to observers. The
/// outcome byte is retrain::RetrainOutcome (promoted / gated-out /
/// already-active / skipped-no-data / failed / dry-run), transported raw
/// so the wire layer does not depend on the retrain layer.
struct WireRetrainReport {
  std::uint64_t cycle = 0;        ///< lifetime trigger number
  std::uint8_t outcome = 0;
  std::uint64_t epoch = 0;        ///< active dictionary epoch after the cycle
  double candidate_score = 0.0;   ///< validation-gate scores
  double incumbent_score = 0.0;
  std::uint64_t window_jobs = 0;  ///< captured jobs the cycle trained on
  std::uint64_t holdout_jobs = 0; ///< held-out jobs the gate replayed

  bool operator==(const WireRetrainReport&) const = default;
};

/// Outcome of persisting one replicated capture (kSnapAck) or of a
/// promotion request (kPromoteAck).
struct WireSnapAck {
  bool ok = false;
  std::uint64_t capture_id = 0;  ///< the capture acked / restored from
  std::string error;             ///< reason when ok is false

  bool operator==(const WireSnapAck&) const = default;
};

/// A kSubscribe request's filters. Empty lists match everything; a
/// verdict is forwarded when its application matches (or `applications`
/// is empty) AND its source id matches (or `sources` is empty).
struct WireSubscribe {
  std::vector<std::string> applications;
  std::vector<std::uint32_t> sources;

  bool operator==(const WireSubscribe&) const = default;
};

/// kVerdictEvent metadata beyond the verdict itself (which reuses
/// Message::verdict and Message::job_id).
struct WireVerdictEvent {
  std::uint32_t source = 0;      ///< source id the job arrived on
  std::uint64_t latency_ns = 0;  ///< enqueue -> verdict latency (0 unknown)

  bool operator==(const WireVerdictEvent&) const = default;
};

/// One decoded (or to-encode) message. Only the fields of the active
/// type are meaningful.
struct Message {
  MessageType type = MessageType::kShutdown;
  std::uint64_t job_id = 0;
  std::uint32_t node_count = 0;        ///< kOpenJob
  std::vector<WireSample> samples;     ///< kSampleBatch
  WireVerdict verdict;                 ///< kVerdict
  std::vector<std::uint8_t> dictionary_blob;  ///< kSwapDictionary
  WireSwapAck swap_ack;                ///< kSwapAck
  std::string stats_text;              ///< kStatsReply
  WireRetrainReport retrain_report;    ///< kRetrainReport
  std::uint64_t capture_id = 0;        ///< kSnapBase/kSnapDelta: chain id;
                                       ///< kFollowRequest: newest durable id
  std::uint64_t parent_id = 0;         ///< kSnapBase (0) / kSnapDelta
  std::vector<std::uint8_t> snapshot_blob;  ///< kSnapBase/kSnapDelta capture
  WireSnapAck snap_ack;                ///< kSnapAck / kPromoteAck /
                                       ///< kSubscribeAck (capture_id carries
                                       ///< the subscriber id)
  WireSubscribe subscribe;             ///< kSubscribe
  WireVerdictEvent verdict_event;      ///< kVerdictEvent (+ verdict, job_id)

  bool operator==(const Message&) const = default;
};

/// Convenience constructors.
Message make_open_job(std::uint64_t job_id, std::uint32_t node_count);
Message make_close_job(std::uint64_t job_id);
Message make_shutdown();
Message make_swap_dictionary(std::vector<std::uint8_t> dictionary_bytes);
Message make_swap_ack(bool ok, std::uint64_t epoch, std::string error = {});
Message make_stats_request();
Message make_stats_reply(std::string text);
Message make_retrain_report(WireRetrainReport report);
/// \p base selects kSnapBase vs kSnapDelta (a base's parent_id is 0).
Message make_snap_capture(bool base, std::uint64_t capture_id,
                          std::uint64_t parent_id,
                          std::vector<std::uint8_t> capture_bytes);
Message make_snap_ack(bool ok, std::uint64_t capture_id,
                      std::string error = {});
Message make_follow_request(std::uint64_t last_capture_id);
Message make_promote();
Message make_promote_ack(bool ok, std::uint64_t capture_id,
                         std::string error = {});
Message make_subscribe(std::vector<std::string> applications = {},
                       std::vector<std::uint32_t> sources = {});
Message make_subscribe_ack(bool ok, std::uint64_t subscriber_id,
                           std::string error = {});
Message make_verdict_event(std::uint64_t job_id, std::uint32_t source,
                           std::uint64_t latency_ns, WireVerdict verdict);

/// Appends one encoded frame to \p out. Throws std::invalid_argument if
/// the message would exceed the wire limits (batch too large, string too
/// long) — emitter bugs, not data-dependent conditions.
void encode_frame(const Message& message, std::vector<std::uint8_t>& out);

/// Encodes into a fresh buffer.
std::vector<std::uint8_t> encode(const Message& message);

enum class DecodeStatus {
  kNeedMore,  ///< no complete frame buffered yet
  kMessage,   ///< one message produced
  kError,     ///< stream corrupt; decoder is dead (see error())
};

class SampleBufferPool;

/// Decodes exactly one frame that fills [frame, frame + size): the
/// datagram path, where a short or over-long frame is an error, never
/// "need more". Returns nullptr on success, else the error text (the
/// same texts FrameDecoder::error() reports); \p out is untouched on
/// error. With \p batch non-null, a kSampleBatch is left in place as
/// FrameDecoder::next(Message&, SampleBatchView&) leaves it, and any
/// other type resets \p batch.
const char* decode_frame(const std::uint8_t* frame, std::size_t size,
                         Message& out, SampleBatchView* batch = nullptr);

/// Incremental frame decoder over an arbitrary byte stream (partial
/// frames across feeds are the normal case for TCP reads).
class FrameDecoder {
 public:
  FrameDecoder();

  /// Appends raw bytes. Accepts anything; errors surface in next().
  /// Invalidates every SampleBatchView this decoder has returned.
  void feed(const std::uint8_t* data, std::size_t size);
  void feed(const std::vector<std::uint8_t>& data) {
    feed(data.data(), data.size());
  }

  /// Tries to decode the next buffered frame into \p out; a
  /// kSampleBatch lands in out.samples.
  DecodeStatus next(Message& out);

  /// next(), but a kSampleBatch passes the same validation and stays in
  /// this decoder's buffer: out gets its type and job id (out.samples is
  /// left empty) and \p batch views its samples until the next feed().
  /// Any other type decodes into \p out as next() does and resets
  /// \p batch.
  DecodeStatus next(Message& out, SampleBatchView& batch);

  /// True after the first kError; all further next() calls return kError.
  bool failed() const noexcept { return failed_; }

  /// Description of the first error (empty while healthy).
  const std::string& error() const noexcept { return error_; }

  std::uint64_t frames_decoded() const noexcept { return frames_decoded_; }
  /// Undecoded bytes (0 once failed: a failed stream has none to offer).
  std::size_t buffered_bytes() const noexcept {
    return failed_ ? 0 : buffer_.size() - offset_;
  }

  /// Overrides where next(Message&)'s kSampleBatch buffers come from:
  /// nullptr decodes into fresh vectors (the pre-pool behavior — the
  /// bench baseline). Default: the process-global sample_buffer_pool().
  void set_buffer_pool(SampleBufferPool* pool) noexcept { pool_ = pool; }

 private:
  DecodeStatus next_frame(Message& out, SampleBatchView* batch);
  /// Marks the stream failed. The buffered bytes stay: views decoded
  /// before the corrupt frame remain readable until the decoder dies.
  DecodeStatus fail(const char* reason);

  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;  ///< consumed prefix of buffer_
  bool failed_ = false;
  std::string error_;
  std::uint64_t frames_decoded_ = 0;
  SampleBufferPool* pool_;  ///< set in the constructor (wire_format.cpp)
};

}  // namespace efd::ingest

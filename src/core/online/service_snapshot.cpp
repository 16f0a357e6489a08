/// \file service_snapshot.cpp
/// \brief RecognitionService::snapshot_capture() — the EFD-SNAP-V2
/// base/delta encoder — and restore_chain(), its defensive decoder, which
/// also reads legacy EFD-SNAP-V1 files. Formats: service_snapshot.hpp.
/// Bases and deltas share one section writer, and every part (V1 file,
/// base, delta) goes through one staged all-or-nothing section reader,
/// so deltas reuse every defensive check.

#include "core/online/service_snapshot.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/online/recognition_service.hpp"
#include "util/binary_io.hpp"

namespace efd::core {

namespace {

using util::ByteReader;
using util::put_f64;
using util::put_string;
using util::put_u32;
using util::put_u64;
using util::put_u8;

/// Minimum encoded sizes, used to validate element counts against the
/// bytes that actually arrived BEFORE any allocation.
constexpr std::size_t kAccumulatorBytes = 8 + 8 + 4;
constexpr std::size_t kMinSampleBytes = 4 + 4 + 8 + 2;
constexpr std::size_t kMinStringBytes = 2;
constexpr std::size_t kMinVoteBytes = 2 + 4;
constexpr std::size_t kMinVerdictBytes = 8 + 1 + 8 + 8 + 4 * 4;
constexpr std::size_t kMinSourceCursorBytes = 2 + 8;  // name prefix + u64
constexpr std::size_t kClosedJobBytes = 8;
/// Stats body sizes: current (10 counters) and the legacy 9-counter body
/// written before dictionary_swaps_noop existed — both restore.
constexpr std::size_t kStatsCounters = 10;
constexpr std::size_t kStatsBytes = kStatsCounters * 8;
constexpr std::size_t kLegacyStatsBytes = 9 * 8;

std::size_t write_section(std::ostream& out,
                          const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> header;
  put_u32(header, static_cast<std::uint32_t>(payload.size()));
  put_u32(header, util::crc32(payload));
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  return header.size() + payload.size();
}

void put_result(std::vector<std::uint8_t>& out, std::uint64_t job_id,
                const RecognitionResult& result) {
  put_u64(out, job_id);
  put_u8(out, result.recognized ? 1 : 0);
  put_u64(out, static_cast<std::uint64_t>(result.fingerprint_count));
  put_u64(out, static_cast<std::uint64_t>(result.matched_count));
  put_u32(out, static_cast<std::uint32_t>(result.applications.size()));
  for (const std::string& application : result.applications) {
    put_string(out, application);
  }
  put_u32(out, static_cast<std::uint32_t>(result.votes.size()));
  for (const auto& [name, votes] : result.votes) {
    put_string(out, name);
    put_u32(out, static_cast<std::uint32_t>(votes));
  }
  put_u32(out, static_cast<std::uint32_t>(result.label_votes.size()));
  for (const auto& [name, votes] : result.label_votes) {
    put_string(out, name);
    put_u32(out, static_cast<std::uint32_t>(votes));
  }
  put_u32(out, static_cast<std::uint32_t>(result.matched_labels.size()));
  for (const std::string& label : result.matched_labels) {
    put_string(out, label);
  }
}

/// Throws SnapshotError(reason) — the decoder's single failure path.
/// restore_chain() prefixes the format of the part being decoded.
[[noreturn]] void fail(const std::string& reason) {
  throw SnapshotError(reason);
}

/// Identity of the accumulator layout a stream's window state was
/// exported under: the fingerprinted metrics (names and order) and the
/// intervals. A stream pinned to an epoch whose layout differs from the
/// snapshot's active dictionary (a crash inside a hot-swap window)
/// cannot transfer its sums — restore_chain() gives such streams fresh
/// windows instead of misattributing state or refusing to boot.
/// Rounding depth and metric combination are deliberately excluded:
/// they shape keys, not accumulators, so state transfers across them.
std::string config_signature(const FingerprintConfig& config) {
  std::string signature;
  for (const std::string& metric : config.metrics) {
    signature += metric;
    signature += '\x1F';
  }
  signature += '|';
  for (const telemetry::Interval& interval : config.intervals) {
    signature += std::to_string(interval.begin_seconds);
    signature += ':';
    signature += std::to_string(interval.end_seconds);
    signature += ',';
  }
  return signature;
}

bool read_count(ByteReader& reader, std::size_t min_item_bytes,
                std::uint32_t& out) {
  if (!reader.read_u32(out)) return false;
  // Never trust a count for allocation: the body that actually arrived
  // bounds how many items can exist.
  return static_cast<std::size_t>(out) * min_item_bytes <= reader.remaining();
}

bool read_result(ByteReader& reader, std::uint64_t& job_id,
                 RecognitionResult& result) {
  std::uint8_t recognized = 0;
  std::uint64_t fingerprints = 0, matched = 0;
  if (reader.remaining() < kMinVerdictBytes || !reader.read_u64(job_id) ||
      !reader.read_u8(recognized) || !reader.read_u64(fingerprints) ||
      !reader.read_u64(matched)) {
    return false;
  }
  result.recognized = recognized != 0;
  result.fingerprint_count = static_cast<std::size_t>(fingerprints);
  result.matched_count = static_cast<std::size_t>(matched);

  std::uint32_t count = 0;
  if (!read_count(reader, kMinStringBytes, count)) return false;
  result.applications.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    if (!reader.read_string(name)) return false;
    result.applications.push_back(std::move(name));
  }
  for (auto* votes : {&result.votes, &result.label_votes}) {
    if (!read_count(reader, kMinVoteBytes, count)) return false;
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name;
      std::uint32_t value = 0;
      if (!reader.read_string(name) || !reader.read_u32(value)) return false;
      (*votes)[std::move(name)] = static_cast<int>(value);
    }
  }
  if (!read_count(reader, kMinStringBytes, count)) return false;
  result.matched_labels.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string label;
    if (!reader.read_string(label)) return false;
    result.matched_labels.push_back(std::move(label));
  }
  return true;
}

std::vector<std::uint8_t> read_exact(std::istream& in, std::size_t size,
                                     const char* what) {
  std::vector<std::uint8_t> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in.gcount()) != size) {
    fail(std::string("truncated ") + what);
  }
  return bytes;
}

}  // namespace

std::optional<CaptureEnvelope> read_capture_envelope(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kCaptureHeadBytes ||
      !std::equal(kSnapshotMagicV2, kSnapshotMagicV2 + kSnapshotMagicBytes,
                  bytes.begin())) {
    return std::nullopt;
  }
  ByteReader reader(bytes.data() + kSnapshotMagicBytes,
                    kCaptureHeadBytes - kSnapshotMagicBytes);
  std::uint8_t kind = 0;
  CaptureEnvelope envelope;
  reader.read_u8(kind);
  reader.read_u64(envelope.capture_id);
  reader.read_u64(envelope.parent_id);
  envelope.kind = static_cast<CaptureKind>(kind);
  return envelope;
}

/// Everything a decode stages before commit_staging() mutates the
/// service. Chain replay feeds multiple captures into one staging:
/// latest capture wins for cursor/verdicts/stats/retrain, stream
/// sections add/replace by job id, ClosedJobs removes.
struct RecognitionService::RestoreStaging {
  std::uint64_t replay_cursor = 0;
  std::uint64_t epoch_version = 0;
  std::uint64_t swap_count = 0;
  std::shared_ptr<DictionaryHandle::Epoch> epoch;
  std::unordered_map<std::uint64_t, JobStream> jobs;
  std::vector<JobVerdict> verdicts;
  /// Job ids restored with fresh windows (layout-signature mismatch);
  /// a later capture replacing or closing the stream updates the set,
  /// so streams_reset counts live streams only.
  std::unordered_set<std::uint64_t> reset_jobs;
  std::uint64_t counters[kStatsCounters] = {};
  std::vector<std::uint8_t> retrain;
  std::vector<SourceCursor> source_cursors;
};

std::size_t RecognitionService::write_snapshot_sections(
    std::ostream& out,
    const std::shared_ptr<DictionaryHandle::Epoch>& dict_epoch,
    std::uint64_t dict_swap_count, SnapshotChainState& chain, bool delta,
    SnapshotCaptureInfo& info, std::uint64_t replay_cursor,
    std::span<const std::uint8_t> retrain_state,
    std::span<const SourceCursor> source_cursors) const {
  std::size_t bytes = 0;
  std::vector<std::uint8_t> payload;
  payload.reserve(64);

  // Meta. The per-source cursor list is an optional tail: a snapshot
  // without one is byte-identical to the pre-multi-source format, and
  // both bodies restore.
  put_u8(payload, static_cast<std::uint8_t>(SnapshotSection::kMeta));
  put_u64(payload, replay_cursor);
  if (!source_cursors.empty()) {
    put_u32(payload, static_cast<std::uint32_t>(source_cursors.size()));
    for (const SourceCursor& source : source_cursors) {
      put_string(payload, source.name);
      put_u64(payload, source.cursor);
    }
  }
  bytes += write_section(out, payload);

  // Dictionary: the ACTIVE epoch — full captures only; a delta's whole
  // point is not rewriting it. Streams pinned to older epochs are
  // re-pinned to this one on restore (documented at-least-once shift: a
  // crash inside a swap window may re-evaluate those windows against the
  // newer dictionary).
  if (!delta) {
    payload.clear();
    put_u8(payload, static_cast<std::uint8_t>(SnapshotSection::kDictionary));
    put_u64(payload, dict_epoch->version);
    put_u64(payload, dict_swap_count);
    payload.insert(payload.end(), dict_epoch->bytes.begin(),
                   dict_epoch->bytes.end());
    bytes += write_section(out, payload);
  }

  // Open streams. Streams whose verdict already fired are skipped —
  // their verdict travels in the Verdicts section. Each stream's
  // serialized payload is digested; a delta skips streams whose digest
  // matches the previous capture.
  std::unordered_map<std::uint64_t, StreamDigest> new_digests;
  for (const auto& [job_id, stream] : jobs_) {
    if (stream.done) continue;

    payload.clear();
    put_u8(payload, static_cast<std::uint8_t>(SnapshotSection::kStream));
    put_u64(payload, job_id);
    put_u32(payload, stream.recognizer.node_count());
    put_string(payload, config_signature(stream.epoch->dictionary.config()));
    const auto states = stream.recognizer.export_state();
    put_u32(payload, static_cast<std::uint32_t>(states.size()));
    for (const auto& state : states) {
      put_f64(payload, state.sum);
      put_u64(payload, state.count);
      put_u32(payload, static_cast<std::uint32_t>(state.last_t));
    }
    put_u32(payload, static_cast<std::uint32_t>(stream.queue.size()));
    for (const Sample& sample : stream.queue) {
      put_u32(payload, sample.node_id);
      put_u32(payload, static_cast<std::uint32_t>(sample.t));
      put_f64(payload, sample.value);
      // The wire keeps the metric NAME (EFD-SNAP-V1 is slot-free); samples
      // carrying kNoMetricSlot encode as "" and restore as unknown.
      put_string(payload, stream.recognizer.metric_name(sample.metric_slot));
    }

    const StreamDigest digest{util::crc32(payload),
                              static_cast<std::uint32_t>(payload.size())};
    new_digests.emplace(job_id, digest);
    if (delta) {
      const auto it = chain.streams.find(job_id);
      if (it != chain.streams.end() && it->second == digest) {
        ++info.streams_unchanged;
        continue;
      }
    }
    bytes += write_section(out, payload);
    ++info.streams_written;
  }

  // Deltas name the streams that vanished since the parent capture so
  // replay reaps them (their last verdict rides the Verdicts section).
  if (delta) {
    std::vector<std::uint64_t> closed;
    for (const auto& [job_id, digest] : chain.streams) {
      if (new_digests.find(job_id) == new_digests.end()) {
        closed.push_back(job_id);
      }
    }
    std::sort(closed.begin(), closed.end());
    payload.clear();
    put_u8(payload, static_cast<std::uint8_t>(SnapshotSection::kClosedJobs));
    put_u32(payload, static_cast<std::uint32_t>(closed.size()));
    for (const std::uint64_t job_id : closed) put_u64(payload, job_id);
    bytes += write_section(out, payload);
    info.jobs_closed = closed.size();
  }

  // Pending (undrained) verdicts — non-destructive copy, in firing
  // order.
  payload.clear();
  put_u8(payload, static_cast<std::uint8_t>(SnapshotSection::kVerdicts));
  put_u32(payload, static_cast<std::uint32_t>(verdicts_.size()));
  for (const JobVerdict& verdict : verdicts_) {
    put_result(payload, verdict.job_id, verdict.result);
  }
  bytes += write_section(out, payload);

  // Lifetime counters (monitoring continuity across the restart).
  payload.clear();
  put_u8(payload, static_cast<std::uint8_t>(SnapshotSection::kStats));
  for (const std::uint64_t counter :
       {jobs_opened_, jobs_completed_, jobs_evicted_, samples_pushed_,
        samples_dropped_, samples_late_, samples_overflowed_,
        samples_rejected_, pushes_blocked_, handle_.noop_swap_count()}) {
    put_u64(payload, counter);
  }
  bytes += write_section(out, payload);

  // Optional opaque retrain-subsystem state (trigger/train/gate/promote
  // lineage) — the service transports it, the retrain layer decodes it.
  if (!retrain_state.empty()) {
    payload.clear();
    put_u8(payload, static_cast<std::uint8_t>(SnapshotSection::kRetrain));
    payload.insert(payload.end(), retrain_state.begin(), retrain_state.end());
    bytes += write_section(out, payload);
  }

  // Terminator: its presence is how the decoder distinguishes a complete
  // snapshot from one truncated at a section boundary.
  payload.clear();
  put_u8(payload, static_cast<std::uint8_t>(SnapshotSection::kEnd));
  bytes += write_section(out, payload);

  if (!out) fail("EFD-SNAP-V2: snapshot write failed");

  // Commit the digest bookkeeping only once every byte landed: a failed
  // capture must leave the chain state describing the last GOOD capture.
  chain.streams = std::move(new_digests);
  return bytes;
}

SnapshotCaptureInfo RecognitionService::snapshot_capture(
    std::ostream& out, SnapshotChainState& chain, bool force_base,
    std::uint64_t replay_cursor, std::span<const std::uint8_t> retrain_state,
    std::span<const SourceCursor> source_cursors) const {
  // One epoch acquisition feeds both the base/delta decision and the
  // Dictionary section, so a concurrent swap can't split them: the
  // written capture always matches the recorded chain identity.
  const auto epoch = handle_.acquire();
  const std::uint64_t swap_count = handle_.swap_count();
  const bool base = force_base || chain.last_capture_id == 0 ||
                    epoch->version != chain.base_epoch ||
                    swap_count != chain.base_swap_count;

  SnapshotCaptureInfo info;
  info.capture_id = chain.next_capture_id;
  info.parent_id = base ? 0 : chain.last_capture_id;
  info.base = base;

  std::vector<std::uint8_t> head(kSnapshotMagicV2,
                                 kSnapshotMagicV2 + kSnapshotMagicBytes);
  put_u8(head, static_cast<std::uint8_t>(base ? CaptureKind::kBase
                                              : CaptureKind::kDelta));
  put_u64(head, info.capture_id);
  put_u64(head, info.parent_id);
  out.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));

  info.bytes =
      head.size() +
      write_snapshot_sections(out, epoch, swap_count, chain, !base, info,
                              replay_cursor, retrain_state, source_cursors);

  // Chain bookkeeping commits only on success (write failures threw).
  chain.last_capture_id = info.capture_id;
  chain.next_capture_id = info.capture_id + 1;
  if (base) {
    chain.base_capture_id = info.capture_id;
    chain.base_epoch = epoch->version;
    chain.base_swap_count = swap_count;
    chain.deltas_since_base = 0;
  } else {
    ++chain.deltas_since_base;
  }
  return info;
}

void RecognitionService::decode_snapshot_sections(std::istream& in,
                                                  RestoreStaging& staging,
                                                  bool delta) const {
  bool saw_verdicts = false;
  bool saw_stats = false;
  bool saw_retrain = false;
  bool saw_end = false;
  // Stream ids seen in THIS capture: a duplicate within one capture is
  // hostile, while re-serializing a job across chain captures replaces.
  std::unordered_set<std::uint64_t> streams_this_capture;

  // Strict section order. Full capture: Meta, Dictionary, Stream*,
  // Verdicts, Stats, [Retrain,] End. Delta: Meta, Stream*, ClosedJobs,
  // Verdicts, Stats, [Retrain,] End.
  SnapshotSection expected = SnapshotSection::kMeta;
  while (!saw_end) {
    const auto header = read_exact(in, 8, "section header");
    ByteReader header_reader(header.data(), header.size());
    std::uint32_t payload_len = 0, stored_crc = 0;
    header_reader.read_u32(payload_len);
    header_reader.read_u32(stored_crc);
    if (payload_len < 1) fail("section shorter than its type byte");
    if (payload_len > kMaxSnapshotSectionBytes) {
      fail("section exceeds size limit");
    }
    const auto payload = read_exact(in, payload_len, "section payload");
    if (util::crc32(payload) != stored_crc) fail("section CRC mismatch");

    ByteReader reader(payload.data(), payload.size());
    std::uint8_t type_byte = 0;
    reader.read_u8(type_byte);
    const auto type = static_cast<SnapshotSection>(type_byte);

    switch (type) {
      case SnapshotSection::kMeta: {
        if (expected != SnapshotSection::kMeta) fail("unexpected meta section");
        if (reader.remaining() < 8 || !reader.read_u64(staging.replay_cursor)) {
          fail("malformed meta section");
        }
        staging.source_cursors.clear();
        if (reader.remaining() > 0) {
          // Extended body: named per-source cursors (multi-source
          // pipelines). A legacy 8-byte body skips this block.
          std::uint32_t count = 0;
          if (!read_count(reader, kMinSourceCursorBytes, count)) {
            fail("source cursor count inconsistent with section length");
          }
          staging.source_cursors.reserve(count);
          for (std::uint32_t i = 0; i < count; ++i) {
            SourceCursor cursor;
            if (!reader.read_string(cursor.name) ||
                !reader.read_u64(cursor.cursor)) {
              fail("truncated source cursor");
            }
            staging.source_cursors.push_back(std::move(cursor));
          }
        }
        expected = delta ? SnapshotSection::kStream
                         : SnapshotSection::kDictionary;
        break;
      }

      case SnapshotSection::kDictionary: {
        if (delta || expected != SnapshotSection::kDictionary) {
          fail("unexpected dictionary section");
        }
        if (!reader.read_u64(staging.epoch_version) ||
            !reader.read_u64(staging.swap_count)) {
          fail("malformed dictionary section");
        }
        const std::string_view text(
            reinterpret_cast<const char*>(payload.data() +
                                          (payload.size() - reader.remaining())),
            reader.remaining());
        try {
          staging.epoch = std::make_shared<DictionaryHandle::Epoch>(
              staging.epoch_version, Dictionary::load(text));
        } catch (const std::exception& error) {
          fail(std::string("embedded dictionary rejected: ") + error.what());
        }
        expected = SnapshotSection::kStream;
        break;
      }

      case SnapshotSection::kStream: {
        if (expected != SnapshotSection::kStream) {
          fail("unexpected stream section");
        }
        if (staging.epoch == nullptr) fail("stream section before dictionary");
        std::uint64_t job_id = 0;
        std::uint32_t node_count = 0;
        std::string signature;
        if (!reader.read_u64(job_id) || !reader.read_u32(node_count) ||
            !reader.read_string(signature)) {
          fail("malformed stream header");
        }
        std::uint32_t acc_count = 0;
        if (!read_count(reader, kAccumulatorBytes, acc_count)) {
          fail("accumulator count inconsistent with section length");
        }
        std::vector<OnlineRecognizer::AccumulatorState> states;
        states.reserve(acc_count);
        for (std::uint32_t i = 0; i < acc_count; ++i) {
          OnlineRecognizer::AccumulatorState state;
          std::uint32_t last_t = 0;
          if (!reader.read_f64(state.sum) || !reader.read_u64(state.count) ||
              !reader.read_u32(last_t)) {
            fail("truncated accumulator state");
          }
          state.last_t = static_cast<std::int32_t>(last_t);
          states.push_back(state);
        }
        if (!streams_this_capture.insert(job_id).second) {
          fail("duplicate stream job id");
        }
        // Across chain captures the newest serialization wins.
        staging.jobs.erase(job_id);
        JobStream& stream =
            staging.jobs.try_emplace(job_id, staging.epoch, job_id, node_count)
                .first->second;
        staging.reset_jobs.erase(job_id);
        if (signature == config_signature(staging.epoch->dictionary.config())) {
          try {
            stream.recognizer.import_state(states);
          } catch (const std::invalid_argument& error) {
            fail(std::string("stream state rejected: ") + error.what());
          }
        } else {
          // Pinned to an epoch whose accumulator layout differs from the
          // snapshot's active dictionary: window sums cannot transfer.
          // The stream restores OPEN with fresh windows (its queue still
          // replays) rather than misattributing state or failing the
          // whole boot — an unfinishable stream ends in the stale sweep's
          // unknown-application safeguard, the paper's semantics.
          staging.reset_jobs.insert(job_id);
        }
        std::uint32_t queue_len = 0;
        if (!read_count(reader, kMinSampleBytes, queue_len)) {
          fail("queued-sample count inconsistent with section length");
        }
        std::string metric;
        for (std::uint32_t i = 0; i < queue_len; ++i) {
          Sample sample;
          std::uint32_t t_bits = 0;
          if (!reader.read_u32(sample.node_id) || !reader.read_u32(t_bits) ||
              !reader.read_f64(sample.value) || !reader.read_string(metric)) {
            fail("truncated queued sample");
          }
          sample.t = static_cast<int>(static_cast<std::int32_t>(t_bits));
          sample.metric_slot = stream.recognizer.metric_slot(metric);
          stream.queue.push_back(sample);
        }
        stream.last_activity_ns = now_ns();
        break;
      }

      case SnapshotSection::kClosedJobs: {
        // Delta-only, exactly once, directly after the stream sections.
        if (!delta || expected != SnapshotSection::kStream) {
          fail("unexpected closed-jobs section");
        }
        std::uint32_t count = 0;
        if (!read_count(reader, kClosedJobBytes, count)) {
          fail("closed-job count inconsistent with section length");
        }
        for (std::uint32_t i = 0; i < count; ++i) {
          std::uint64_t job_id = 0;
          if (!reader.read_u64(job_id)) fail("truncated closed-job id");
          if (staging.jobs.erase(job_id) == 0) {
            fail("closed job unknown to the chain");
          }
          staging.reset_jobs.erase(job_id);
        }
        expected = SnapshotSection::kVerdicts;
        break;
      }

      case SnapshotSection::kVerdicts: {
        // In a full capture streams are optional, so Verdicts is
        // accepted from the post-dictionary state directly; in a delta
        // the mandatory ClosedJobs section must have passed first.
        if (expected !=
            (delta ? SnapshotSection::kVerdicts : SnapshotSection::kStream)) {
          fail("unexpected verdicts section");
        }
        std::uint32_t count = 0;
        if (!read_count(reader, kMinVerdictBytes, count)) {
          fail("verdict count inconsistent with section length");
        }
        staging.verdicts.clear();
        staging.verdicts.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          JobVerdict verdict;
          if (!read_result(reader, verdict.job_id, verdict.result)) {
            fail("truncated verdict");
          }
          staging.verdicts.push_back(std::move(verdict));
        }
        saw_verdicts = true;
        expected = SnapshotSection::kStats;
        break;
      }

      case SnapshotSection::kStats: {
        if (expected != SnapshotSection::kStats) {
          fail("unexpected stats section");
        }
        if (reader.remaining() != kStatsBytes &&
            reader.remaining() != kLegacyStatsBytes) {
          fail("malformed stats section");
        }
        const std::size_t present = reader.remaining() / 8;
        for (std::size_t i = 0; i < present; ++i) {
          reader.read_u64(staging.counters[i]);
        }
        saw_stats = true;
        expected = SnapshotSection::kEnd;
        break;
      }

      case SnapshotSection::kRetrain:
        // Optional, at most once, only between Stats and End. Opaque:
        // validated (CRC, bounds) but not interpreted here. A capture
        // that carries it replaces the staged state; one without leaves
        // the previous capture's state in place.
        if (expected != SnapshotSection::kEnd || saw_retrain) {
          fail("unexpected retrain section");
        }
        staging.retrain.assign(payload.begin() + 1, payload.end());
        saw_retrain = true;
        break;

      case SnapshotSection::kEnd:
        if (expected != SnapshotSection::kEnd) fail("unexpected end section");
        saw_end = true;
        break;

      default:
        fail("unknown section type");
    }
    // The dictionary and retrain bodies legitimately run to the section
    // end (their bytes are consumed wholesale above); every other section
    // must account for every byte it carried.
    if (type != SnapshotSection::kEnd && type != SnapshotSection::kDictionary &&
        type != SnapshotSection::kRetrain && reader.remaining() != 0) {
      fail("trailing bytes in section");
    }
  }
  if (!saw_verdicts || !saw_stats || (!delta && staging.epoch == nullptr)) {
    fail("incomplete snapshot");  // unreachable via order machine; belt
  }
}

ServiceRestoreInfo RecognitionService::commit_staging(
    RestoreStaging&& staging) {
  if (staging.epoch == nullptr) fail("incomplete snapshot");

  const std::size_t jobs_restored = staging.jobs.size();
  const std::size_t verdicts_restored = staging.verdicts.size();
  const std::size_t streams_reset = staging.reset_jobs.size();
  handle_.reset(staging.epoch, staging.swap_count, staging.counters[9]);
  jobs_ = std::move(staging.jobs);
  // The snapshot's verdict section IS the firing order.
  verdicts_ = std::move(staging.verdicts);
  jobs_opened_ = staging.counters[0];
  jobs_completed_ = staging.counters[1];
  jobs_evicted_ = staging.counters[2];
  samples_pushed_ = staging.counters[3];
  samples_dropped_ = staging.counters[4];
  samples_late_ = staging.counters[5];
  samples_overflowed_ = staging.counters[6];
  samples_rejected_ = staging.counters[7];
  pushes_blocked_ = staging.counters[8];

  // Restored streams with queued samples would otherwise sit dirty
  // until their next push: list them for the next process_pending.
  for (auto& [job_id, stream] : jobs_) {
    if (!stream.queue.empty()) {
      stream.scheduled = true;
      dirty_.push_back(&stream);
    }
  }

  ServiceRestoreInfo info;
  info.replay_cursor = staging.replay_cursor;
  info.dictionary_epoch = staging.epoch_version;
  info.jobs_restored = jobs_restored;
  info.verdicts_restored = verdicts_restored;
  info.streams_reset = streams_reset;
  info.retrain_state = std::move(staging.retrain);
  info.source_cursors = std::move(staging.source_cursors);
  return info;
}

ServiceRestoreInfo RecognitionService::restore_chain(
    std::span<std::istream* const> parts) {
  // Restore is a startup operation: refuse on a service that has
  // already seen traffic (open streams or undrained verdicts).
  if (!jobs_.empty()) fail("restore requires a service with no open jobs");
  if (!verdicts_.empty()) {
    fail("restore requires a service with no pending verdicts");
  }
  if (parts.empty()) fail("empty capture chain");

  RestoreStaging staging;
  std::uint64_t previous_id = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::istream* part = parts[i];
    if (part == nullptr) fail("null capture stream");
    // Every error names the format of the part it was found in.
    const char* format = "EFD-SNAP-V2";
    try {
      std::vector<std::uint8_t> head =
          read_exact(*part, kSnapshotMagicBytes, "magic");
      bool delta = false;
      if (std::equal(head.begin(), head.end(), kSnapshotMagic)) {
        // A legacy V1 file is a complete snapshot with no chain identity.
        format = "EFD-SNAP-V1";
        if (parts.size() != 1) fail("file inside a capture chain");
      } else {
        const auto rest = read_exact(*part, kCaptureHeadBytes - head.size(),
                                     "capture envelope");
        head.insert(head.end(), rest.begin(), rest.end());
        const auto envelope = read_capture_envelope(head);
        if (!envelope) fail("bad capture magic");
        if (envelope->kind != CaptureKind::kBase &&
            envelope->kind != CaptureKind::kDelta) {
          fail("unknown capture kind");
        }
        if (envelope->capture_id == 0) fail("capture id must be nonzero");
        delta = envelope->kind == CaptureKind::kDelta;
        if (i == 0) {
          if (delta) fail("chain must start with a base capture");
          if (envelope->parent_id != 0) {
            fail("base capture with nonzero parent");
          }
        } else {
          if (!delta) fail("unexpected base capture mid-chain");
          if (envelope->parent_id != previous_id) {
            fail("broken chain link: delta parent does not match the "
                 "previous capture");
          }
        }
        previous_id = envelope->capture_id;
      }
      decode_snapshot_sections(*part, staging, delta);
      if (part->peek() != std::istream::traits_type::eof()) {
        fail("trailing bytes after end section");
      }
    } catch (const SnapshotError& error) {
      throw SnapshotError(std::string(format) + ": " + error.what());
    }
  }
  ServiceRestoreInfo info = commit_staging(std::move(staging));
  info.last_capture_id = previous_id;
  return info;
}

}  // namespace efd::core

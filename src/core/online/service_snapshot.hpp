#pragma once
/// \file service_snapshot.hpp
/// \brief EFD-SNAP-V2 capture chains (base + deltas) and the read-only
/// EFD-SNAP-V1 single-file format — the durable service-state formats
/// behind RecognitionService::snapshot_capture() (the one writer) and
/// RecognitionService::restore_chain() (the one restore).
///
/// A `serve` restart must not lose in-flight jobs: a capture holds
/// everything a fresh process needs to carry on — the active dictionary
/// epoch, every open stream's window accumulators and queued samples,
/// verdicts that completed but were not yet drained, and the lifetime
/// counters (so monitoring stays continuous across the restart).
///
/// Section stream (all integers little-endian, same primitive vocabulary
/// as EFD-WIRE-V1 via util/binary_io.hpp). An EFD-SNAP-V1 file is this
/// stream behind its own magic; nothing writes V1 any more, and
/// restore_chain() reads a V1 file as a one-part chain:
///
///   file     := magic "EFDSNAP1" | section*
///   section  := u32 payload_len | u32 crc32(payload) | payload
///   payload  := u8 section_type | body
///
///   Meta       body := u64 replay_cursor
///                      [ | u32 n_sources | n_sources *
///                          (u16 name_len | name | u64 cursor) ]
///                      (OPTIONAL tail: one named resume cursor per
///                      registered ingest source — multi-source
///                      pipelines. Legacy 8-byte bodies still restore,
///                      with an empty source list.)
///   Dictionary body := u64 epoch_version | u64 swap_count
///                      | dictionary bytes (EFD-DICT-V1, to body end)
///   Stream     body := u64 job_id | u32 node_count
///                      | u16 sig_len | sig (the pinned epoch's
///                        metric/interval layout signature; a mismatch
///                        with the embedded dictionary restores the
///                        stream with fresh windows instead of failing)
///                      | u32 acc_count   | acc_count * accumulator
///                      | u32 queue_len   | queue_len * sample
///     accumulator    := f64 sum | u64 count | i32 last_t
///     sample         := u32 node_id | i32 t | f64 value
///                       | u16 metric_len | metric bytes
///   Verdicts   body := u32 count | count * verdict
///     verdict        := u64 job_id | u8 recognized
///                       | u64 fingerprints | u64 matched
///                       | u32 n_apps        | n_apps * string
///                       | u32 n_votes       | n_votes * (string | i32)
///                       | u32 n_label_votes | n_label_votes * (string | i32)
///                       | u32 n_labels      | n_labels * string
///   Stats      body := 10 * u64 (jobs_opened, jobs_completed,
///                      jobs_evicted, samples_pushed, samples_dropped,
///                      samples_late, samples_overflowed,
///                      samples_rejected, pushes_blocked,
///                      dictionary_swaps_noop)
///                      (decoders accept the legacy 9-counter body:
///                      snapshots written before the no-op-swap counter
///                      restore with dictionary_swaps_noop = 0)
///   Retrain    body := opaque bytes (OPTIONAL; at most one). The
///                      closed-loop retraining subsystem's durable state
///                      (EFD-RETRAIN-V1, see retrain/retrain_controller
///                      .hpp). The service treats it as an uninterpreted
///                      blob: snapshot_capture() writes whatever extension
///                      bytes the caller hands it, restore_chain() hands
///                      them back in ServiceRestoreInfo::retrain_state —
///                      so a crash mid-retrain-cycle restores the attempt
///                      lineage without core depending on the retrain
///                      layer.
///   End        body := (empty; REQUIRED terminator)
///
/// Sections appear in exactly this order: Meta, Dictionary, Stream*,
/// Verdicts, Stats, [Retrain,] End.
///
/// EFD-SNAP-V2 — incremental capture chains. A V2 *capture* reuses the
/// V1 section vocabulary behind a chain envelope:
///
///   capture  := magic "EFDSNAP2" | u8 kind | u64 capture_id
///               | u64 parent_id | section*
///   kind     := 1 (base) | 2 (delta)
///
/// A BASE capture (parent_id = 0) carries the exact V1 section stream —
/// Dictionary included — and is a complete snapshot on its own: "EFDSNAP1"
/// plus a base minus its 25-byte head is a V1 file. A DELTA
/// carries only what changed since its parent capture: Meta (always —
/// the cursor moved), Stream sections only for streams whose serialized
/// state differs from the parent capture (tracked by CRC+length
/// digests in SnapshotChainState), a ClosedJobs section naming streams
/// that disappeared since the parent, then fresh Verdicts/Stats
/// [/Retrain] (small; latest capture wins on replay):
///
///   delta sections := Meta, Stream*, ClosedJobs, Verdicts, Stats,
///                     [Retrain,] End
///   ClosedJobs body := u32 count | count * u64 job_id
///
/// restore_chain() replays base → deltas all-or-nothing: every link's
/// parent_id must equal the previous capture_id, every section is
/// CRC-checked, and any violation throws SnapshotError with the service
/// untouched (callers fall back to the last complete base, loudly). A V1
/// file restores only as the sole part of a chain. The decoder is
/// defensive by construction — it is fed files that may have been truncated by a crashing writer or
/// corrupted at rest, and must never crash, read out of bounds, or
/// over-allocate: every section is CRC-checked before parsing, hostile
/// length fields are rejected from the 8-byte section header alone,
/// element counts are validated against the bytes that actually arrived
/// before any allocation, a missing End section (truncation at a section
/// boundary) is an error, and everything fails by throwing SnapshotError
/// with the service untouched.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>

namespace efd::core {

inline constexpr std::size_t kSnapshotMagicBytes = 8;
inline constexpr char kSnapshotMagic[kSnapshotMagicBytes + 1] = "EFDSNAP1";
inline constexpr char kSnapshotMagicV2[kSnapshotMagicBytes + 1] = "EFDSNAP2";
/// A V2 capture's head: magic | u8 kind | u64 capture_id | u64 parent_id.
inline constexpr std::size_t kCaptureHeadBytes = kSnapshotMagicBytes + 1 + 8 + 8;

/// Decode guard: a section whose length prefix exceeds this fails the
/// restore before anything is allocated. The dictionary section is the
/// only one that grows with deployment size; 256 MB of EFD-DICT-V1 text
/// is orders of magnitude past the paper's largest dictionaries.
inline constexpr std::size_t kMaxSnapshotSectionBytes = 1u << 28;

enum class SnapshotSection : std::uint8_t {
  kMeta = 1,
  kDictionary = 2,
  kStream = 3,
  kVerdicts = 4,
  kStats = 5,
  kEnd = 6,
  kRetrain = 7,     ///< optional opaque retrain-subsystem state
  kClosedJobs = 8,  ///< V2 deltas only: streams gone since the parent
};

/// V2 capture kinds (the envelope's `kind` byte).
enum class CaptureKind : std::uint8_t {
  kBase = 1,   ///< complete snapshot (Dictionary section included)
  kDelta = 2,  ///< changes since the parent capture only
};

/// The envelope at the head of a V2 capture.
struct CaptureEnvelope {
  CaptureKind kind = CaptureKind::kBase;
  std::uint64_t capture_id = 0;
  std::uint64_t parent_id = 0;
};

/// Parses the V2 envelope from the first kCaptureHeadBytes of \p bytes
/// (a capture blob, or the head of a capture file). nullopt when fewer
/// bytes arrived or the magic is not EFD-SNAP-V2. The kind byte is
/// returned as stored; callers check it.
std::optional<CaptureEnvelope> read_capture_envelope(
    std::span<const std::uint8_t> bytes);

/// Any EFD-SNAP violation: bad magic, truncation, CRC mismatch,
/// hostile lengths, out-of-order or unknown sections, a broken chain
/// link, or stream state inconsistent with the embedded dictionary.
/// restore_chain() guarantees the service is untouched when this is
/// thrown.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC + length digest of one stream's serialized section payload — how
/// the delta encoder decides a stream is unchanged without keeping the
/// parent capture's bytes around.
struct StreamDigest {
  std::uint32_t crc = 0;
  std::uint32_t bytes = 0;

  bool operator==(const StreamDigest&) const = default;
};

/// Caller-owned chain bookkeeping across snapshot_capture() calls: the
/// id counter, the chain head, the base's dictionary identity (an epoch
/// or swap-count change forces the next capture to be a base), and the
/// per-stream digests of the last capture. Start from a
/// default-constructed state for a fresh chain; the first capture is
/// always a base.
struct SnapshotChainState {
  std::uint64_t next_capture_id = 1;
  std::uint64_t last_capture_id = 0;  ///< 0 = no capture yet
  std::uint64_t base_capture_id = 0;
  std::uint64_t base_epoch = 0;
  std::uint64_t base_swap_count = 0;
  std::size_t deltas_since_base = 0;
  /// job id → digest of its stream payload as of the last capture.
  std::unordered_map<std::uint64_t, StreamDigest> streams;
};

/// What one snapshot_capture() call wrote.
struct SnapshotCaptureInfo {
  std::uint64_t capture_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for a base
  bool base = false;
  std::size_t bytes = 0;             ///< capture size on the wire/disk
  std::size_t streams_written = 0;   ///< stream sections in this capture
  std::size_t streams_unchanged = 0; ///< skipped by digest match (delta)
  std::size_t jobs_closed = 0;       ///< ClosedJobs entries (delta)
};

}  // namespace efd::core

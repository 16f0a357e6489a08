#pragma once
/// \file snapshot_chain.hpp
/// \brief On-disk layout and durability discipline for EFD-SNAP-V2
/// capture chains.
///
/// Layout: the base capture lives at the configured snapshot path;
/// every delta lives next to it as `<path>.delta.<capture_id>`. A new
/// base atomically replaces the file at the snapshot path and then
/// deletes the superseded delta files — a crash between the two leaves
/// stale deltas whose parent ids no longer chain, which restore detects
/// and discards with a loud fallback to the (correct) new base.
/// persist_capture() owns this rule; the serving pipeline's snapshot
/// writer and the warm-standby follower both call it.
///
/// Durability: write_file_durable() is the single write path — tmp file
/// in the same directory, write, fsync, atomic rename, fsync of the
/// parent directory — so a power loss can never leave a zero-length or
/// torn file at the final path, and a completed rename survives the
/// directory entry itself being lost.
///
/// Restore: restore_service_from_chain() replays base → deltas through
/// RecognitionService::restore_chain(), which also reads a legacy
/// EFD-SNAP-V1 file at the base path. A broken link or corrupt delta
/// falls back to the base alone, loudly (the caller gets the reason and
/// a discard count); a base that itself fails to decode propagates
/// SnapshotError — an unreadable snapshot fails the boot loudly rather
/// than silently starting empty.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/online/recognition_service.hpp"

namespace efd::ingest {

/// Durably replaces the file at \p path with \p size bytes: same-
/// directory tmp file, write + ::fsync, ::rename, parent-directory
/// fsync. On failure returns false, fills \p error (errno text), and
/// removes the tmp file.
bool write_file_durable(const std::string& path, const void* data,
                        std::size_t size, std::string* error);

/// Where one capture of the chain rooted at \p base_path lives: a base
/// at \p base_path itself, a delta at `<base_path>.delta.<capture_id>`.
std::string capture_path(const std::string& base_path, bool base,
                         std::uint64_t capture_id);

/// One delta file found next to a base.
struct ChainFile {
  std::string path;
  std::uint64_t capture_id = 0;
};

/// Every `<base_path>.delta.<id>` in the base's directory, sorted by
/// capture id. Non-numeric suffixes are ignored.
std::vector<ChainFile> list_chain_deltas(const std::string& base_path);

/// Best-effort delete of every delta file next to \p base_path (a new
/// base supersedes the old chain). Returns the number removed.
std::size_t remove_chain_deltas(const std::string& base_path);

/// Durably writes one capture to its capture_path(); a base then deletes
/// every delta next to it. On a failed write returns false with \p error
/// = "<path>: <reason>" and leaves the chain's files as they were.
bool persist_capture(const std::string& base_path, bool base,
                     std::uint64_t capture_id,
                     std::span<const std::uint8_t> bytes, std::string* error);

/// The V2 chain envelope of the capture file at \p path, read without
/// decoding the body. nullopt when the file is missing, too short, or
/// not EFD-SNAP-V2.
std::optional<core::CaptureEnvelope> peek_capture_envelope(
    const std::string& path);

/// What restore_service_from_chain rebuilt. info.last_capture_id is the
/// newest capture applied.
struct ChainRestoreResult {
  core::ServiceRestoreInfo info;
  /// Deltas found on disk but discarded by the loud base-only fallback.
  std::size_t deltas_discarded = 0;
  std::string fallback_error;  ///< why they were discarded (empty = none)
};

/// Restores \p service from the snapshot chain rooted at \p base_path.
/// Throws core::SnapshotError when the base itself is unreadable (torn,
/// truncated, corrupt) — boot must fail loudly, not silently start
/// empty. A failure replaying the deltas retries with the base alone
/// and reports the discard in the result.
ChainRestoreResult restore_service_from_chain(
    core::RecognitionService& service, const std::string& base_path);

}  // namespace efd::ingest

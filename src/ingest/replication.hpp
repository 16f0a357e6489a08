#pragma once
/// \file replication.hpp
/// \brief Warm-standby follower: continuously mirrors a leader's
/// EFD-SNAP-V2 capture chain onto local disk, promotable on demand or
/// on leader death.
///
/// `efd_cli serve --follow host:port` runs a ReplicationFollower
/// instead of the ingest loop. The follower connects to the leader's
/// ordinary listener like any peer, sends kFollowRequest carrying the
/// newest capture id already durable in its LOCAL chain (so a
/// restarted follower resumes instead of re-pulling the world), and
/// then applies every kSnapBase / kSnapDelta the leader streams:
///
///  1. envelope check — the frame's capture/parent ids must match the
///     EFD-SNAP-V2 envelope inside the blob (a disagreement means the
///     leader is confused; the capture is rejected, never persisted);
///  2. durable persist — persist_capture() places it in the local
///     chain exactly as the leader's pipeline places its own captures:
///     a base at the snapshot path (deleting superseded local deltas),
///     a delta at `<path>.delta.<id>`;
///  3. shadow validation — a throwaway RecognitionService restores the
///     full local chain from disk, proving the bytes that just became
///     durable actually replay (torn or incoherent captures are
///     removed and rejected before the ack);
///  4. kSnapAck — only after all of the above, so a leader-side ack
///     means the capture genuinely survives follower power loss.
///
/// A delta whose parent is not the follower's newest capture (leader
/// restarted mid-stream, follower missed a frame) is rejected and the
/// connection is dropped to re-handshake from the follower's cursor.
///
/// Promotion ends the loop two ways: an operator's kPromote frame on
/// the follower's own control listener (`efd_cli promote`), or —
/// when promote_grace is nonzero — automatically once the leader link
/// has been dead for that long AND a restorable local base exists.
/// Either way run() returns kPromoted and the caller (cmd_serve)
/// restores from the local chain and starts serving; verdict parity
/// with the dead leader follows from replaying the same durable
/// captures plus the shared replay cursor.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/online/recognition_service.hpp"
#include "ingest/source_mux.hpp"

namespace efd::ingest {

struct FollowerConfig {
  std::string leader_host;        ///< leader's listener
  std::uint16_t leader_port = 0;
  std::string snapshot_path;      ///< root of the LOCAL chain (base file)

  /// Auto-promote after the leader link has been down this long
  /// (0 = never; promotion then requires an explicit kPromote).
  std::chrono::milliseconds promote_grace{0};
  std::chrono::milliseconds reconnect_interval{500};
  std::chrono::milliseconds poll_interval{50};

  /// Cooperative stop (the CLI's signal flag). Checked every poll
  /// round; run() returns kStopped soon after it flips.
  const std::atomic<bool>* external_stop = nullptr;

  /// The follower's own listener fan-in (kPromote / kStatsRequest
  /// arrive here). Optional; without it only auto-promotion works.
  SourceMux* control = nullptr;

  /// Builds the throwaway service used to validate each persisted
  /// capture by restoring the full local chain. Must produce a service
  /// configured identically to the one a promotion would boot.
  std::function<std::unique_ptr<core::RecognitionService>()> shadow_factory;

  /// Operator-facing progress/warning lines (nullptr = silent).
  std::function<void(const std::string&)> log;
};

struct FollowerStats {
  std::uint64_t captures_applied = 0;  ///< persisted + validated + acked
  std::uint64_t bases_applied = 0;     ///< subset of the above
  std::uint64_t captures_rejected = 0; ///< envelope/persist/validate failures
  std::uint64_t reconnects = 0;        ///< leader link re-established
  std::uint64_t messages_shed = 0;     ///< non-replication frames ignored
  std::uint64_t last_capture_id = 0;   ///< newest durable local capture
};

class ReplicationFollower {
 public:
  enum class Outcome {
    kPromoted,  ///< caller should restore the local chain and serve
    kStopped,   ///< external_stop flipped — exit without serving
  };

  explicit ReplicationFollower(FollowerConfig config);

  /// Blocks mirroring the leader until promotion or stop. Safe to call
  /// once. Throws nothing: connection failures retry, capture failures
  /// are counted and acked as errors.
  Outcome run();

  const FollowerStats& stats() const noexcept { return stats_; }

 private:
  /// Envelope-check → durable persist → shadow-validate one capture.
  /// False (with \p error filled) = reject; nothing acked yet.
  bool apply_capture(const Message& message, bool base, std::string* error);

  /// Polls the control mux; true = promotion requested.
  bool poll_control(std::chrono::milliseconds timeout);
  bool should_stop() const;
  /// True when a local base exists to promote from.
  bool promotable() const;
  void note(const std::string& line) const;
  std::string stats_text() const;

  FollowerConfig config_;
  FollowerStats stats_;
  std::vector<Envelope> control_scratch_;
};

}  // namespace efd::ingest

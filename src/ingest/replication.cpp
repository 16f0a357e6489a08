/// \file replication.cpp
/// \brief Warm-standby follower loop (design: replication.hpp).

#include "ingest/replication.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/online/service_snapshot.hpp"
#include "ingest/snapshot_chain.hpp"
#include "ingest/tcp_transport.hpp"
#include "obs/exposition.hpp"

namespace efd::ingest {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

ReplicationFollower::ReplicationFollower(FollowerConfig config)
    : config_(std::move(config)) {
  // Resume from whatever is already durable locally: a restarted
  // follower re-handshakes from its newest capture instead of 0.
  if (const auto deltas = list_chain_deltas(config_.snapshot_path);
      !deltas.empty()) {
    stats_.last_capture_id = deltas.back().capture_id;
  } else if (const auto envelope =
                 peek_capture_envelope(config_.snapshot_path)) {
    stats_.last_capture_id = envelope->capture_id;
  }
}

bool ReplicationFollower::should_stop() const {
  return config_.external_stop != nullptr &&
         config_.external_stop->load(std::memory_order_relaxed);
}

bool ReplicationFollower::promotable() const {
  return peek_capture_envelope(config_.snapshot_path).has_value();
}

void ReplicationFollower::note(const std::string& line) const {
  if (config_.log) config_.log(line);
}

std::string ReplicationFollower::stats_text() const {
  obs::ScrapeRows rows;
  rows.block("follower.", "efd_follower_");
  rows.counter("captures_applied", stats_.captures_applied);
  rows.counter("bases_applied", stats_.bases_applied);
  rows.counter("captures_rejected", stats_.captures_rejected);
  rows.counter("reconnects", stats_.reconnects);
  rows.counter("messages_shed", stats_.messages_shed);
  rows.gauge("last_capture_id", stats_.last_capture_id);
  return rows.flat();
}

bool ReplicationFollower::poll_control(std::chrono::milliseconds timeout) {
  if (config_.control == nullptr) {
    if (timeout.count() > 0) std::this_thread::sleep_for(timeout);
    return false;
  }
  control_scratch_.clear();
  config_.control->poll(control_scratch_, timeout);
  bool promote = false;
  for (Envelope& envelope : control_scratch_) {
    switch (envelope.message.type) {
      case MessageType::kPromote:
        promote = true;
        if (envelope.reply) {
          envelope.reply->deliver(
              make_promote_ack(true, stats_.last_capture_id));
        }
        break;
      case MessageType::kStatsRequest:
        if (envelope.reply) {
          envelope.reply->deliver(make_stats_reply(stats_text()));
        }
        break;
      default:
        // A follower serves no jobs: samples, swaps, anything else on
        // the control listener is shed (and visible in the stats).
        ++stats_.messages_shed;
        break;
    }
  }
  return promote;
}

ReplicationFollower::Outcome ReplicationFollower::run() {
  std::optional<Clock::time_point> link_down_since;
  bool connected_before = false;

  while (!should_stop()) {
    // ---- (Re)connect + cursor handshake -----------------------------
    std::unique_ptr<TcpClient> leader;
    try {
      leader = std::make_unique<TcpClient>(config_.leader_host,
                                           config_.leader_port);
      leader->send(make_follow_request(stats_.last_capture_id));
    } catch (const TransportError&) {
      leader.reset();
    }

    if (leader == nullptr) {
      if (!link_down_since) link_down_since = Clock::now();
      if (config_.promote_grace.count() > 0 &&
          Clock::now() - *link_down_since >= config_.promote_grace &&
          promotable()) {
        note("follower: leader link down past grace period; promoting from "
             "local chain (last capture " +
             std::to_string(stats_.last_capture_id) + ")");
        return Outcome::kPromoted;
      }
      if (poll_control(config_.reconnect_interval)) return Outcome::kPromoted;
      continue;
    }

    if (connected_before) ++stats_.reconnects;
    connected_before = true;
    link_down_since.reset();
    note("follower: connected to leader " + config_.leader_host + ":" +
         std::to_string(config_.leader_port) + ", resuming from capture " +
         std::to_string(stats_.last_capture_id));

    // ---- Mirror the capture stream ----------------------------------
    bool link_alive = true;
    while (link_alive && !should_stop()) {
      Message message;
      switch (leader->receive_status(message, config_.poll_interval)) {
        case TcpClient::ReceiveStatus::kClosed:
          link_alive = false;
          break;
        case TcpClient::ReceiveStatus::kTimeout:
          break;
        case TcpClient::ReceiveStatus::kMessage: {
          if (message.type != MessageType::kSnapBase &&
              message.type != MessageType::kSnapDelta) {
            ++stats_.messages_shed;
            break;
          }
          std::string error;
          const bool base = message.type == MessageType::kSnapBase;
          if (!apply_capture(message, base, &error)) {
            ++stats_.captures_rejected;
            note("follower: rejected " +
                 std::string(base ? "base" : "delta") + " capture " +
                 std::to_string(message.capture_id) + ": " + error);
            try {
              leader->send(make_snap_ack(false, message.capture_id, error));
            } catch (const TransportError&) {
            }
            // A rejected delta usually means our cursor and the
            // leader's stream disagree — drop the link and
            // re-handshake from the durable local cursor.
            link_alive = false;
            break;
          }
          stats_.last_capture_id = message.capture_id;
          ++stats_.captures_applied;
          if (base) ++stats_.bases_applied;
          try {
            leader->send(make_snap_ack(true, message.capture_id));
          } catch (const TransportError&) {
            link_alive = false;
          }
          break;
        }
      }
      if (poll_control(std::chrono::milliseconds(0))) {
        return Outcome::kPromoted;
      }
    }
    link_down_since = Clock::now();
    note("follower: leader link lost");
  }
  return Outcome::kStopped;
}

bool ReplicationFollower::apply_capture(const Message& message, bool base,
                                        std::string* error) {
  // 1. The blob must be a well-formed V2 envelope agreeing with the
  //    frame's routing fields — never persist a capture the leader
  //    itself is confused about.
  const auto envelope = core::read_capture_envelope(message.snapshot_blob);
  if (!envelope) {
    *error = "capture blob is not EFD-SNAP-V2";
    return false;
  }
  const auto expected_kind =
      base ? core::CaptureKind::kBase : core::CaptureKind::kDelta;
  if (envelope->kind != expected_kind ||
      envelope->capture_id != message.capture_id ||
      envelope->parent_id != message.parent_id) {
    *error = "frame/envelope mismatch";
    return false;
  }
  if (!base && message.parent_id != stats_.last_capture_id) {
    *error = "delta parent " + std::to_string(message.parent_id) +
             " is not our newest capture " +
             std::to_string(stats_.last_capture_id);
    return false;
  }

  // 2. Durable persist into the local chain (a base resets it).
  if (!persist_capture(config_.snapshot_path, base, message.capture_id,
                       message.snapshot_blob, error)) {
    return false;
  }

  // 3. Shadow validation: restore the WHOLE durable local chain into a
  //    throwaway service. This proves the bytes on disk — not the bytes
  //    in memory — replay end to end before we ack. A delta that fails
  //    it is removed again.
  const auto drop_delta = [&] {
    if (base) return;
    const std::string target =
        capture_path(config_.snapshot_path, false, message.capture_id);
    std::remove(target.c_str());
  };
  if (config_.shadow_factory) {
    try {
      auto shadow = config_.shadow_factory();
      const ChainRestoreResult check =
          restore_service_from_chain(*shadow, config_.snapshot_path);
      if (!check.fallback_error.empty()) {
        *error = "chain validation fell back: " + check.fallback_error;
        drop_delta();
        return false;
      }
    } catch (const std::exception& failure) {
      *error = std::string("chain validation failed: ") + failure.what();
      drop_delta();
      return false;
    }
  }
  return true;
}

}  // namespace efd::ingest

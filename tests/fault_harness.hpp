#pragma once
/// \file fault_harness.hpp
/// \brief Deterministic fault-injection harness for durable-serving
/// tests — the reusable crash/recovery test subsystem.
///
/// The harness drives a scripted workload (an ordered list of EFD-WIRE
/// messages: opens, sample batches, closes) into a RecognitionService
/// one message at a time, capturing an EFD-SNAP-V2 base+delta chain
/// every N messages (with the message index as the capture's replay
/// cursor), and "kills" the service at scripted points: the service
/// object is destroyed —
/// everything since the last snapshot is lost, exactly like a SIGKILL —
/// a fresh service is built from the factory, restored from the last
/// snapshot, and the workload resumes from the restored cursor
/// (modelling an emitter that re-sends from its last acknowledged
/// point, i.e. at-least-once delivery). Plans can also TEAR a scripted
/// snapshot write — persist a prefix, die on the spot — modelling power
/// loss under the old no-fsync rename: recovery must reject the torn
/// file with SnapshotError and fall back to an older restore point.
///
/// Everything is single-threaded and index-driven: a plan's crash points
/// produce byte-identical runs every time, which is what lets tests
/// assert exact verdict parity against an uninterrupted run. Verdicts
/// are collected continuously (the harness plays the durable client):
/// re-delivered verdicts for a job are deduplicated, but their content
/// must match what was delivered before the crash — any divergence is
/// counted in content_mismatches and fails parity.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/online/recognition_service.hpp"
#include "core/online/service_snapshot.hpp"
#include "ingest/wire_format.hpp"

namespace efd::testkit {

/// A scripted traffic trace, applied strictly in order.
using Workload = std::vector<ingest::Message>;

struct FaultPlan {
  /// Snapshot cadence in applied messages (0 = never snapshot; a crash
  /// then replays from the very beginning).
  std::size_t snapshot_every_messages = 0;
  /// Kill/restore points: "crash after applying this many messages".
  /// Must be increasing. A crash rewinds the cursor to the last
  /// snapshot, so later points fire after the rewound section replays.
  std::vector<std::size_t> crash_after_messages;
  /// Rebase cadence, read like IngestPipelineConfig::snapshot_chain_limit:
  /// force a fresh base once the chain holds this many deltas; 0 = every
  /// capture is a base (the store then holds one complete file).
  std::size_t chain_limit = 0;
  /// Torn-write injection: the Nth snapshot write (1-based, counted
  /// across the whole run) persists only a PREFIX of its bytes and the
  /// process dies on the spot — the power-loss-without-fsync shape.
  /// Recovery must detect the torn file and fall back loudly, never
  /// crash or half-restore.
  std::vector<std::size_t> torn_snapshot_writes;
};

struct HarnessRun {
  /// One verdict per job id (deduplicated across re-deliveries).
  std::map<std::uint64_t, core::RecognitionResult> verdicts;
  std::size_t duplicate_verdicts = 0;  ///< expected under at-least-once
  std::size_t content_mismatches = 0;  ///< re-delivery disagreed: MUST be 0
  std::size_t crashes = 0;
  std::size_t snapshots = 0;
  std::size_t restores = 0;            ///< crashes recovered from a snapshot
  std::size_t restarts_from_scratch = 0;  ///< crashes with no snapshot yet
  std::size_t chain_bases = 0;   ///< base captures written
  std::size_t chain_deltas = 0;  ///< delta captures written
  std::size_t torn_writes = 0;   ///< injected torn snapshot writes
  /// Recoveries that had to DISCARD a persisted file (torn/corrupt) and
  /// fall back to an older restore point — each one was a loud
  /// SnapshotError, never a silent half-restore.
  std::size_t fallbacks = 0;
  core::RecognitionServiceStats final_stats;
};

inline bool same_result(const core::RecognitionResult& a,
                        const core::RecognitionResult& b) {
  return a.recognized == b.recognized && a.applications == b.applications &&
         a.votes == b.votes && a.label_votes == b.label_votes &&
         a.matched_labels == b.matched_labels &&
         a.fingerprint_count == b.fingerprint_count &&
         a.matched_count == b.matched_count;
}

/// Exact-parity assertion between a faulted run and its uninterrupted
/// baseline: same job set, same verdict contents, no content mismatches.
inline ::testing::AssertionResult verdict_parity(const HarnessRun& faulted,
                                                 const HarnessRun& baseline) {
  if (faulted.content_mismatches != 0) {
    return ::testing::AssertionFailure()
           << faulted.content_mismatches
           << " re-delivered verdicts disagreed with their pre-crash content";
  }
  if (faulted.verdicts.size() != baseline.verdicts.size()) {
    return ::testing::AssertionFailure()
           << "verdict count " << faulted.verdicts.size() << " != baseline "
           << baseline.verdicts.size();
  }
  for (const auto& [job_id, result] : baseline.verdicts) {
    const auto it = faulted.verdicts.find(job_id);
    if (it == faulted.verdicts.end()) {
      return ::testing::AssertionFailure()
             << "job " << job_id << " has no verdict in the faulted run";
    }
    if (!same_result(it->second, result)) {
      return ::testing::AssertionFailure()
             << "job " << job_id << " verdict diverged (baseline "
             << result.prediction() << " vs " << it->second.prediction()
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

class FaultHarness {
 public:
  using ServiceFactory =
      std::function<std::unique_ptr<core::RecognitionService>()>;

  explicit FaultHarness(ServiceFactory factory)
      : factory_(std::move(factory)) {}

  /// Applies the workload under a fault plan. Deterministic: the same
  /// (workload, plan) always produces the same HarnessRun.
  HarnessRun run(const Workload& workload, const FaultPlan& plan) {
    HarnessRun out;
    std::unique_ptr<core::RecognitionService> service = factory_();
    // The simulated durable store: a base + delta file list (a new base
    // replaces the whole list, like the on-disk layout's
    // rebase-then-prune).
    std::vector<std::string> chain_files;
    core::SnapshotChainState chain_state;
    auto next_crash = plan.crash_after_messages.begin();
    std::size_t cursor = 0;
    std::size_t snapshot_ordinal = 0;

    // Persists one snapshot/capture; returns false when the write was
    // torn by the plan — the process died mid-write (power loss).
    const auto persist = [&]() -> bool {
      ++snapshot_ordinal;
      ++out.snapshots;
      const bool torn =
          std::find(plan.torn_snapshot_writes.begin(),
                    plan.torn_snapshot_writes.end(),
                    snapshot_ordinal) != plan.torn_snapshot_writes.end();
      const bool force_base = plan.chain_limit == 0 ||
                              chain_state.deltas_since_base >= plan.chain_limit;
      std::ostringstream snap;
      const core::SnapshotCaptureInfo info =
          service->snapshot_capture(snap, chain_state, force_base, cursor);
      std::string bytes = std::move(snap).str();
      if (info.base) {
        ++out.chain_bases;
      } else {
        ++out.chain_deltas;
      }
      if (torn) {
        ++out.torn_writes;
        bytes = bytes.substr(0, bytes.size() / 2);
      }
      if (info.base) {
        chain_files.assign(1, std::move(bytes));
      } else {
        chain_files.push_back(std::move(bytes));
      }
      return !torn;
    };

    // The kill + recovery: destroy the service — every sample, stream,
    // and undrained verdict since the last durable point is gone — and
    // rebuild from what the simulated store holds. Torn/corrupt files
    // surface as SnapshotError and are discarded (counted), falling
    // back to the next-older restore point, exactly like the serving
    // pipeline's loud chain fallback.
    const auto recover = [&]() {
      service = factory_();
      while (!chain_files.empty()) {
        std::vector<std::istringstream> streams;
        streams.reserve(chain_files.size());
        for (const std::string& file : chain_files) streams.emplace_back(file);
        std::vector<std::istream*> pointers;
        pointers.reserve(streams.size());
        for (auto& stream : streams) pointers.push_back(&stream);
        try {
          const core::ServiceRestoreInfo info =
              service->restore_chain(pointers);
          cursor = static_cast<std::size_t>(info.replay_cursor);
          ++out.restores;
          collect(*service, out);  // verdicts the capture carried
          // A restarted writer has no digest memory: the next capture
          // is a fresh base (mirrors the serving pipeline).
          chain_state = core::SnapshotChainState{};
          return;
        } catch (const core::SnapshotError&) {
          ++out.fallbacks;
          chain_files.pop_back();
          service = factory_();
        }
      }
      chain_state = core::SnapshotChainState{};
      cursor = 0;
      ++out.restarts_from_scratch;
    };

    while (cursor < workload.size()) {
      apply(*service, workload[cursor]);
      ++cursor;
      collect(*service, out);

      if (plan.snapshot_every_messages != 0 &&
          cursor % plan.snapshot_every_messages == 0) {
        if (!persist()) {  // died mid-write
          ++out.crashes;
          recover();
          continue;
        }
      }

      if (next_crash != plan.crash_after_messages.end() &&
          cursor == *next_crash) {
        ++next_crash;
        ++out.crashes;
        recover();
      }
    }

    service->process_pending();  // deferred services finish their queues
    collect(*service, out);
    out.final_stats = service->stats();
    return out;
  }

  /// The uninterrupted reference run.
  HarnessRun run_baseline(const Workload& workload) {
    return run(workload, FaultPlan{});
  }

 private:
  static void apply(core::RecognitionService& service,
                    const ingest::Message& message) {
    switch (message.type) {
      case ingest::MessageType::kOpenJob:
        service.open_job(message.job_id, message.node_count);
        break;
      case ingest::MessageType::kSampleBatch: {
        std::vector<core::RecognitionService::SamplePush> batch;
        batch.reserve(message.samples.size());
        for (const ingest::WireSample& sample : message.samples) {
          batch.push_back({sample.node_id, sample.t, sample.value,
                           std::string_view(sample.metric)});
        }
        service.push_batch(message.job_id, batch);
        break;
      }
      case ingest::MessageType::kCloseJob:
        service.close_job(message.job_id);
        break;
      default:
        break;  // control frames are not part of harness workloads
    }
  }

  void collect(core::RecognitionService& service, HarnessRun& out) {
    for (core::JobVerdict& verdict : service.drain_verdicts()) {
      // try_emplace leaves verdict.result untouched when the job already
      // has a verdict, so the mismatch check below compares real content.
      const auto [it, inserted] =
          out.verdicts.try_emplace(verdict.job_id, std::move(verdict.result));
      if (!inserted) {
        ++out.duplicate_verdicts;
        if (!same_result(it->second, verdict.result)) {
          ++out.content_mismatches;
        }
      }
    }
  }

  ServiceFactory factory_;
};

/// Builds an interleaved multi-job trace: every job is opened, sample
/// batches of \p ticks_per_batch ticks (x nodes) rotate round-robin
/// across the jobs until \p total_ticks are streamed, then every job is
/// closed. Crash points landing anywhere inside produce partially
/// streamed jobs, jobs mid-batch, and completed-but-unclosed jobs.
inline Workload interleaved_workload(
    const std::vector<std::pair<std::uint64_t, double>>& jobs,
    const std::string& metric, std::uint32_t node_count = 2,
    int total_ticks = 130, int ticks_per_batch = 16) {
  Workload workload;
  for (const auto& [job_id, level] : jobs) {
    workload.push_back(ingest::make_open_job(job_id, node_count));
  }
  for (int t = 0; t < total_ticks; t += ticks_per_batch) {
    const int end = std::min(total_ticks, t + ticks_per_batch);
    for (const auto& [job_id, level] : jobs) {
      ingest::Message batch;
      batch.type = ingest::MessageType::kSampleBatch;
      batch.job_id = job_id;
      for (int tick = t; tick < end; ++tick) {
        for (std::uint32_t node = 0; node < node_count; ++node) {
          ingest::WireSample sample;
          sample.node_id = node;
          sample.t = tick;
          sample.value = level;
          sample.metric = metric;
          batch.samples.push_back(std::move(sample));
        }
      }
      workload.push_back(std::move(batch));
    }
  }
  for (const auto& [job_id, level] : jobs) {
    workload.push_back(ingest::make_close_job(job_id));
  }
  return workload;
}

}  // namespace efd::testkit

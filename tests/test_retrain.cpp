/// \file test_retrain.cpp
/// \brief Closed-loop continuous retraining tests: traffic capture
/// (window bounds, reservoir admission, horizon filtering,
/// self-labeling), window slicing, the validation gate's margin rule,
/// and the deterministic end-to-end cycle the subsystem promises — a
/// fixed drifting workload where the gate first rejects a
/// no-better-than-incumbent candidate, then promotes a better one
/// exactly once; a scripted crash between train and promote restores
/// (EFD-SNAP-V1 Retrain section) without double-promotion, mirroring
/// tests/fault_harness.hpp's kill/restore discipline.

#include "retrain/retrain_controller.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/online/service_snapshot.hpp"
#include "core/trainer.hpp"
#include "retrain/traffic_recorder.hpp"
#include "retrain/validation_gate.hpp"
#include "util/binary_io.hpp"

namespace {

using namespace efd;
using namespace efd::core;
using namespace efd::retrain;

FingerprintConfig config_of() {
  FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

/// Constant-signal training dataset: one record per (app, level), both
/// nodes at the same level.
Dictionary train_levels(
    const std::vector<std::pair<std::string, double>>& apps) {
  telemetry::Dataset dataset({"nr_mapped_vmstat"});
  std::uint64_t id = 1;
  for (const auto& [app, level] : apps) {
    telemetry::ExecutionRecord record(id++, {app, "X"}, 2, 1);
    for (std::size_t n = 0; n < 2; ++n) {
      for (int t = 0; t < 150; ++t) record.series(n, 0).push_back(level);
    }
    dataset.add(std::move(record));
  }
  return train_dictionary(dataset, config_of());
}

/// A base capture of \p service, the first of its own fresh chain.
std::string base_capture(const RecognitionService& service,
                         std::uint64_t replay_cursor,
                         std::span<const std::uint8_t> retrain_state = {}) {
  SnapshotChainState chain;
  std::ostringstream out;
  service.snapshot_capture(out, chain, /*force_base=*/true, replay_cursor,
                           retrain_state);
  return std::move(out).str();
}

/// restore_chain() over one part (a base capture or a V1 file).
ServiceRestoreInfo restore_one(RecognitionService& service,
                               const std::string& bytes) {
  std::istringstream in(bytes);
  std::istream* parts[] = {&in};
  return service.restore_chain(parts);
}

/// Simulates the ingest pipeline's taps for one complete job: open,
/// stream per-node constant levels through both the service and the
/// recorder (moved batches, like dispatch), then route the verdict to
/// the recorder. Returns the verdict.
JobVerdict serve_job(RecognitionService& service, TrafficRecorder& recorder,
                     std::uint64_t job_id, double node0_level,
                     double node1_level, int ticks = 130) {
  EXPECT_TRUE(service.open_job(job_id, 2));
  recorder.job_opened(job_id, 2);
  const double levels[2] = {node0_level, node1_level};
  for (int t = 0; t < ticks; t += 16) {
    const int end = std::min(ticks, t + 16);
    std::vector<ingest::WireSample> batch;
    std::vector<RecognitionService::SamplePush> pushes;
    for (int tick = t; tick < end; ++tick) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        batch.push_back({node, tick, levels[node], "nr_mapped_vmstat"});
        pushes.push_back(
            {node, tick, levels[node], std::string_view("nr_mapped_vmstat")});
      }
    }
    service.push_batch(job_id, pushes);
    recorder.record_batch(job_id, std::move(batch));
  }
  JobVerdict verdict;
  bool found = false;
  for (JobVerdict& v : service.drain_verdicts()) {
    if (v.job_id == job_id) {
      verdict = std::move(v);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "job " << job_id << " produced no verdict";
  recorder.job_finished(job_id, verdict.result.recognized,
                        verdict.result.label_prediction());
  return verdict;
}

TEST(TrafficRecorder, CapturesFiltersAndSelfLabels) {
  TrafficRecorderConfig config;
  config.window_jobs_per_app = 4;
  TrafficRecorder recorder(config_of(), config);
  EXPECT_EQ(recorder.capture_horizon(), 120);  // max interval end

  recorder.job_opened(1, 2);
  std::vector<ingest::WireSample> batch;
  batch.push_back({0, 10, 6000.0, "nr_mapped_vmstat"});   // kept
  batch.push_back({1, 119, 6000.0, "nr_mapped_vmstat"});  // kept (last tick)
  batch.push_back({0, 120, 6000.0, "nr_mapped_vmstat"});  // beyond horizon
  batch.push_back({0, 10, 6000.0, "other_metric"});       // foreign metric
  batch.push_back({7, 10, 6000.0, "nr_mapped_vmstat"});   // node out of range
  recorder.record_batch(1, std::move(batch));

  // Unknown verdict: the capture is discarded (no usable label).
  recorder.job_finished(1, false, "unknown");
  TrafficRecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.samples_recorded, 2u);
  EXPECT_EQ(stats.samples_filtered, 3u);
  EXPECT_EQ(stats.jobs_unrecognized, 1u);
  EXPECT_EQ(stats.window_jobs, 0u);
  EXPECT_EQ(stats.jobs_captured, 0u);

  // Recognized verdict: admitted under the verdict's label.
  recorder.job_opened(2, 2);
  recorder.record_batch(2, {{0, 5, 6100.0, "nr_mapped_vmstat"}});
  recorder.job_finished(2, true, "mg_X");
  // A verdict with no matching capture (restored job) is counted.
  recorder.job_finished(99, true, "ft_X");
  stats = recorder.stats();
  EXPECT_EQ(stats.jobs_captured, 1u);
  EXPECT_EQ(stats.jobs_admitted, 1u);
  EXPECT_EQ(stats.jobs_untracked, 1u);
  EXPECT_EQ(stats.window_jobs, 1u);
  EXPECT_EQ(stats.applications, 1u);

  const WindowSnapshot window = recorder.snapshot_window();
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0]->job_id, 2u);
  EXPECT_EQ(window[0]->label.application, "mg");
  EXPECT_EQ(window[0]->label.input_size, "X");
  ASSERT_EQ(window[0]->samples.size(), 1u);
  EXPECT_EQ(window[0]->samples[0].value, 6100.0);
}

TEST(TrafficRecorder, ExcludedSourcesNeverTrainAndSourcesAreRecorded) {
  TrafficRecorderConfig config;
  config.window_jobs_per_app = 8;
  config.excluded_sources = {2};  // e.g. a congested UDP sampler
  TrafficRecorder recorder(config_of(), config);

  recorder.job_opened(1, 1, /*source=*/0);
  recorder.record_batch(1, {{0, 5, 6000.0, "nr_mapped_vmstat"}});
  recorder.job_finished(1, true, "ft_X");

  recorder.job_opened(2, 1, /*source=*/2);
  recorder.record_batch(2, {{0, 5, 6000.0, "nr_mapped_vmstat"}});
  recorder.job_finished(2, true, "ft_X");

  const TrafficRecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.jobs_captured, 1u);
  EXPECT_EQ(stats.jobs_admitted, 1u);
  EXPECT_EQ(stats.jobs_excluded_source, 1u);
  const WindowSnapshot window = recorder.snapshot_window();
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0]->job_id, 1u);
  EXPECT_EQ(window[0]->source, 0u);  // the originating source is kept
}

TEST(TrafficRecorder, WindowTtlExpiresStaleJobsAndResetsReservoirOdds) {
  TrafficRecorderConfig config;
  config.window_jobs_per_app = 8;
  config.window_ttl = std::chrono::milliseconds(30);
  TrafficRecorder recorder(config_of(), config);

  const auto capture = [&recorder](std::uint64_t id) {
    recorder.job_opened(id, 1);
    recorder.record_batch(id, {{0, 1, 6000.0, "nr_mapped_vmstat"}});
    recorder.job_finished(id, true, "ft_X");
  };
  capture(1);
  capture(2);
  EXPECT_EQ(recorder.stats().window_jobs, 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Even before any admission prunes, a snapshot during the quiet spell
  // must not hand stale traffic to a retrain.
  EXPECT_TRUE(recorder.snapshot_window().empty());

  // The next admission prunes the expired entries (counted) and the
  // fresh job stands alone in the window.
  capture(3);
  const TrafficRecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.jobs_expired, 2u);
  EXPECT_EQ(stats.window_jobs, 1u);
  const WindowSnapshot window = recorder.snapshot_window();
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0]->job_id, 3u);

  // Recency weighting: after the prune the reservoir's `seen` restarts
  // at the survivors, so subsequent jobs admit at ring odds again.
  capture(4);
  EXPECT_EQ(recorder.stats().window_jobs, 2u);
}

TEST(TrafficRecorder, WindowStaysBoundedUnderReservoirAdmission) {
  TrafficRecorderConfig config;
  config.window_jobs_per_app = 8;
  config.seed = 7;
  TrafficRecorder recorder(config_of(), config);

  constexpr std::uint64_t kJobs = 200;
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    recorder.job_opened(id, 1);
    recorder.record_batch(id, {{0, 1, 6000.0, "nr_mapped_vmstat"}});
    recorder.job_finished(id, true, "ft_X");
  }
  const TrafficRecorderStats stats = recorder.stats();
  EXPECT_EQ(stats.jobs_captured, kJobs);
  EXPECT_EQ(stats.window_jobs, 8u);  // bounded, whatever the traffic
  EXPECT_EQ(stats.window_samples, 8u);
  EXPECT_EQ(stats.jobs_admitted + stats.jobs_sampled_out, kJobs);
  EXPECT_EQ(stats.jobs_replaced, stats.jobs_admitted - 8u);
  EXPECT_GT(stats.jobs_replaced, 0u);    // the reservoir did replace
  EXPECT_GT(stats.jobs_sampled_out, 0u); // ...and did decline

  // Deterministic: the same seed admits the same jobs.
  TrafficRecorder replay(config_of(), config);
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    replay.job_opened(id, 1);
    replay.record_batch(id, {{0, 1, 6000.0, "nr_mapped_vmstat"}});
    replay.job_finished(id, true, "ft_X");
  }
  const auto window_a = recorder.snapshot_window();
  const auto window_b = replay.snapshot_window();
  ASSERT_EQ(window_a.size(), window_b.size());
  for (std::size_t i = 0; i < window_a.size(); ++i) {
    EXPECT_EQ(window_a[i]->job_id, window_b[i]->job_id);
  }
}

TEST(TrafficRecorder, SliceHoldsOutNewestJobsPerApplication) {
  TrafficRecorderConfig config;
  config.window_jobs_per_app = 16;
  TrafficRecorder recorder(config_of(), config);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    recorder.job_opened(id, 2);
    std::vector<ingest::WireSample> batch;
    for (int t = 0; t < 120; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        batch.push_back({node, t, 6000.0 + static_cast<double>(id), "nr_mapped_vmstat"});
      }
    }
    recorder.record_batch(id, std::move(batch));
    recorder.job_finished(id, true, id % 2 == 0 ? "ft_X" : "mg_Y");
  }

  const WindowSlices slices =
      slice_window(recorder.snapshot_window(), config_of(), 0.25);
  EXPECT_EQ(slices.train.size() + slices.holdout.size(), 8u);
  EXPECT_EQ(slices.holdout.size(), 2u);  // ceil(0.25 * 4) per app
  // The holdout carries each application's NEWEST capture.
  for (const auto& record : slices.holdout.records()) {
    EXPECT_GE(record.id(), 7u) << record.label().full();
  }
  // Labels round-trip from the verdicts; series are dense and full-length.
  for (const auto& record : slices.train.records()) {
    EXPECT_EQ(record.label().application, record.id() % 2 == 0 ? "ft" : "mg");
    EXPECT_EQ(record.series(0, 0).size(), 120u);
  }
}

TEST(ValidationGate, MarginRuleAndScores) {
  // Holdout: both nodes of every job at a drifted level only the
  // "retrained" dictionary knows.
  telemetry::Dataset holdout({"nr_mapped_vmstat"});
  for (std::uint64_t id = 1; id <= 4; ++id) {
    telemetry::ExecutionRecord record(id, {"ft", "X"}, 2, 1);
    for (std::size_t n = 0; n < 2; ++n) {
      for (int t = 0; t < 130; ++t) {
        record.series(n, 0).push_back(n == 0 ? 6630.0 : 6030.0);
      }
    }
    holdout.add(std::move(record));
  }
  const Dictionary incumbent = train_levels({{"ft", 6000.0}});  // node0 misses
  telemetry::Dataset drifted({"nr_mapped_vmstat"});
  {
    telemetry::ExecutionRecord record(1, {"ft", "X"}, 2, 1);
    for (std::size_t n = 0; n < 2; ++n) {
      for (int t = 0; t < 130; ++t) {
        record.series(n, 0).push_back(n == 0 ? 6630.0 : 6030.0);
      }
    }
    drifted.add(std::move(record));
  }
  const Dictionary candidate = train_dictionary(drifted, config_of());

  ValidationGateConfig config;
  config.margin = 0.05;
  config.coverage_weight = 0.3;
  const GateDecision decision =
      evaluate_gate(candidate, incumbent, holdout, config);
  // Incumbent: node1 matches, node0 does not -> accuracy 1, coverage .5.
  EXPECT_DOUBLE_EQ(decision.incumbent.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(decision.incumbent.coverage, 0.5);
  EXPECT_DOUBLE_EQ(decision.incumbent.score, 0.85);
  // Candidate: trained on the drifted shape -> full coverage.
  EXPECT_DOUBLE_EQ(decision.candidate.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(decision.candidate.coverage, 1.0);
  EXPECT_DOUBLE_EQ(decision.candidate.score, 1.0);
  EXPECT_TRUE(decision.promote) << decision.reason;

  // A tie never clears a positive margin (reversed roles).
  const GateDecision tie =
      evaluate_gate(incumbent, incumbent, holdout, config);
  EXPECT_FALSE(tie.promote) << tie.reason;

  // An empty holdout refuses to certify.
  const GateDecision starved =
      evaluate_gate(candidate, incumbent,
                    telemetry::Dataset({"nr_mapped_vmstat"}), config);
  EXPECT_FALSE(starved.promote);
  EXPECT_NE(starved.reason.find("holdout too small"), std::string::npos);
}

/// Fixture for full-cycle tests: a service serving `ft` at level 6000,
/// plus a controller (margin 0.05). run_cycle() runs a cycle inline;
/// maybe_trigger() trains it on the controller's worker thread.
class RetrainCycle : public ::testing::Test {
 protected:
  static RetrainConfig controller_config() {
    RetrainConfig config;
    config.min_new_jobs = 8;
    config.holdout_fraction = 0.25;
    config.gate.margin = 0.05;
    config.recorder.window_jobs_per_app = 32;
    return config;
  }

  static RecognitionService make_service() {
    return RecognitionService(train_levels({{"ft", 6000.0}}));
  }

  /// Streams \p jobs complete jobs; steady jobs keep both nodes in the
  /// trained bucket, drifted jobs move node 0 to an unseen bucket (the
  /// incumbent still recognizes via node 1 — self-labeling keeps
  /// working, coverage decays: the drift signature).
  static void serve_phase(RecognitionService& service,
                          TrafficRecorder& recorder, std::uint64_t first_id,
                          std::size_t jobs, bool drifted) {
    for (std::uint64_t id = first_id; id < first_id + jobs; ++id) {
      const JobVerdict verdict = serve_job(
          service, recorder, id, drifted ? 6630.0 : 6030.0, 6030.0);
      EXPECT_TRUE(verdict.result.recognized);
      EXPECT_EQ(verdict.result.prediction(), "ft");
    }
  }
};

TEST_F(RetrainCycle, GateRejectsTieThenPromotesOnDriftExactlyOnce) {
  RecognitionService service = make_service();
  RetrainController controller(service, controller_config());

  // Phase 1 — steady traffic. The candidate retrained from it scores
  // exactly like the incumbent (same keys), so a 0.05 margin gates it
  // out and no epoch is burned.
  serve_phase(service, controller.recorder(), 1, 8, /*drifted=*/false);
  const RetrainReport first = controller.run_cycle();
  EXPECT_EQ(first.outcome, RetrainOutcome::kGatedOut) << first.detail;
  EXPECT_EQ(first.window_jobs, 8u);
  EXPECT_DOUBLE_EQ(first.candidate_score, first.incumbent_score);
  EXPECT_EQ(service.stats().dictionary_epoch, 1u);

  // Phase 2 — drift: node 0 migrates to an unseen bucket. Coverage on
  // the freshest (held-out) traffic decays for the incumbent; the
  // candidate trained on the drifted window clears the margin.
  serve_phase(service, controller.recorder(), 101, 8, /*drifted=*/true);

  // An in-flight stream across the promotion must keep its pinned epoch.
  ASSERT_TRUE(service.open_job(500, 2));
  for (int t = 0; t < 60; ++t) {
    for (std::uint32_t node = 0; node < 2; ++node) {
      service.push(500, node, "nr_mapped_vmstat", t, 6030.0);
    }
  }

  const RetrainReport second = controller.run_cycle();
  EXPECT_EQ(second.outcome, RetrainOutcome::kPromoted) << second.detail;
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_GT(second.candidate_score, second.incumbent_score + 0.05 - 1e-12);
  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.dictionary_epoch, 2u);
  EXPECT_EQ(stats.dictionary_swaps, 1u);
  EXPECT_EQ(stats.jobs_on_stale_epoch, 1u);  // job 500 pinned to epoch 1

  // The pinned stream finishes against epoch 1 and still recognizes.
  for (int t = 60; t < 130; ++t) {
    for (std::uint32_t node = 0; node < 2; ++node) {
      service.push(500, node, "nr_mapped_vmstat", t, 6030.0);
    }
  }
  bool saw_500 = false;
  for (const JobVerdict& verdict : service.drain_verdicts()) {
    if (verdict.job_id != 500) continue;
    saw_500 = true;
    EXPECT_TRUE(verdict.result.recognized);
    EXPECT_EQ(verdict.result.prediction(), "ft");
  }
  EXPECT_TRUE(saw_500);
  EXPECT_EQ(service.stats().jobs_on_stale_epoch, 0u);

  // Phase 3 — a cycle over the unchanged window retrains a candidate
  // that can only TIE the (just-promoted) incumbent, and a tie never
  // clears a positive margin: the loop converges instead of churning
  // epochs. The epoch advanced exactly once across all three cycles.
  const RetrainReport third = controller.run_cycle();
  EXPECT_EQ(third.outcome, RetrainOutcome::kGatedOut) << third.detail;
  EXPECT_EQ(third.epoch, 2u);
  EXPECT_EQ(service.stats().dictionary_epoch, 2u);
  EXPECT_EQ(service.stats().dictionary_swaps, 1u);  // exactly once

  const RetrainStats rstats = controller.stats();
  EXPECT_EQ(rstats.cycles_triggered, 3u);
  EXPECT_EQ(rstats.cycles_gated_out, 2u);
  EXPECT_EQ(rstats.cycles_promoted, 1u);
  EXPECT_EQ(rstats.last_promoted_epoch, 2u);
  ASSERT_EQ(controller.lineage().size(), 3u);
  EXPECT_EQ(controller.lineage()[1].outcome, RetrainOutcome::kPromoted);
}

TEST_F(RetrainCycle, TriggersRequireFreshJobsAndHonorThresholds) {
  RecognitionService service = make_service();
  RetrainConfig config = controller_config();
  config.min_new_jobs = 4;
  RetrainController controller(service, config);
  const auto now = std::chrono::steady_clock::now();

  EXPECT_FALSE(controller.maybe_trigger(now));  // no traffic at all
  serve_phase(service, controller.recorder(), 1, 3, false);
  EXPECT_FALSE(controller.maybe_trigger(now));  // below min_new_jobs
  serve_phase(service, controller.recorder(), 11, 1, false);
  EXPECT_TRUE(controller.maybe_trigger(now));   // 4 fresh jobs
  EXPECT_FALSE(controller.maybe_trigger(now));  // nothing new since
  controller.join();
  const auto reports = controller.drain_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].cycle, 1u);
  EXPECT_TRUE(controller.drain_reports().empty());  // drained
}

TEST_F(RetrainCycle, DryRunWithholdsPromotion) {
  RecognitionService service = make_service();
  RetrainConfig config = controller_config();
  config.dry_run = true;
  RetrainController controller(service, config);
  serve_phase(service, controller.recorder(), 1, 8, true);  // drifted
  const RetrainReport report = controller.run_cycle();
  EXPECT_EQ(report.outcome, RetrainOutcome::kDryRun) << report.detail;
  EXPECT_EQ(service.stats().dictionary_epoch, 1u);  // untouched
  EXPECT_EQ(controller.stats().cycles_dry_run, 1u);
}

TEST_F(RetrainCycle, CrashBetweenTrainAndPromoteRestoresWithoutDoublePromotion) {
  // The fault_harness discipline applied to the retrain loop: snapshot
  // at the scripted crash point (after the candidate trained, BEFORE the
  // gate/promote), destroy everything, rebuild from the snapshot, replay
  // the traffic at-least-once, and require the lineage to converge on
  // exactly one promotion.
  // Margin 0: a replayed (tied) candidate passes the gate and runs into
  // the already-active backstop — the exact double-promotion hazard this
  // test exists for. (With a positive margin the gate itself absorbs the
  // replay; the backstop must hold even without that first line.)
  std::string crash_snapshot;
  // ---- First life: crash mid-cycle. ----
  {
    RecognitionService service = make_service();
    RetrainConfig config = controller_config();
    config.gate.margin = 0.0;
    RetrainController* controller_ptr = nullptr;
    RecognitionService* service_ptr = &service;
    config.after_train = [&crash_snapshot, &controller_ptr, &service_ptr] {
      if (!crash_snapshot.empty()) return;  // only the first cycle crashes
      crash_snapshot = base_capture(*service_ptr, /*replay_cursor=*/16,
                                    controller_ptr->encode_state());
    };
    RetrainController controller(service, config);
    controller_ptr = &controller;

    serve_phase(service, controller.recorder(), 101, 8, /*drifted=*/true);
    const RetrainReport report = controller.run_cycle();
    // The first life actually promoted (crash happens AFTER the snapshot
    // landed — the worst case for double-promotion on replay).
    EXPECT_EQ(report.outcome, RetrainOutcome::kPromoted) << report.detail;
    EXPECT_EQ(service.stats().dictionary_epoch, 2u);
    ASSERT_FALSE(crash_snapshot.empty());
  }  // SIGKILL: service, controller, and the traffic window are gone.

  // ---- Second life: restore from the mid-cycle snapshot. ----
  RecognitionService service = make_service();
  RetrainConfig config = controller_config();
  config.gate.margin = 0.0;
  RetrainController controller(service, config);
  {
    const ServiceRestoreInfo info = restore_one(service, crash_snapshot);
    EXPECT_EQ(info.replay_cursor, 16u);
    EXPECT_EQ(info.dictionary_epoch, 1u);  // pre-promote state
    ASSERT_FALSE(info.retrain_state.empty());
    ASSERT_TRUE(controller.restore_state(info.retrain_state));
  }
  // The attempt lineage restored: the cycle had triggered, not finished.
  EXPECT_EQ(controller.stats().cycles_triggered, 1u);
  EXPECT_EQ(controller.stats().cycles_promoted, 0u);

  // At-least-once replay: the emitter re-sends the same traffic.
  serve_phase(service, controller.recorder(), 101, 8, /*drifted=*/true);
  const RetrainReport replayed = controller.run_cycle();
  EXPECT_EQ(replayed.outcome, RetrainOutcome::kPromoted) << replayed.detail;
  EXPECT_EQ(replayed.epoch, 2u);

  // A second pass over the unchanged window retrains a byte-identical
  // candidate: the already-active guard absorbs it — no double
  // promotion, the epoch advanced exactly once in this life.
  const RetrainReport again = controller.run_cycle();
  EXPECT_EQ(again.outcome, RetrainOutcome::kAlreadyActive) << again.detail;
  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.dictionary_epoch, 2u);
  EXPECT_EQ(stats.dictionary_swaps, 1u);
  EXPECT_EQ(controller.stats().cycles_promoted, 1u);
  EXPECT_EQ(controller.stats().cycles_triggered, 3u);  // 1 restored + 2
}

TEST_F(RetrainCycle, LayoutChangeRebindsTheCaptureWindow) {
  // A restore or manual swap-dict can install an epoch whose
  // fingerprint layout differs from what the recorder has been
  // filtering for; the stale window would train every candidate on
  // truncated data. The controller must detect it and reset capture.
  RecognitionService service = make_service();
  RetrainController controller(service, controller_config());
  serve_phase(service, controller.recorder(), 1, 4, /*drifted=*/false);
  EXPECT_EQ(controller.recorder().stats().window_jobs, 4u);
  EXPECT_EQ(controller.recorder().capture_horizon(), 120);

  FingerprintConfig two_windows = config_of();
  two_windows.intervals = {{60, 120}, {120, 180}};
  telemetry::Dataset retrain_data({"nr_mapped_vmstat"});
  telemetry::ExecutionRecord record(1, {"ft", "X"}, 2, 1);
  for (std::size_t n = 0; n < 2; ++n) {
    for (int t = 0; t < 200; ++t) record.series(n, 0).push_back(6000.0);
  }
  retrain_data.add(std::move(record));
  EXPECT_FALSE(
      service
          .swap_dictionary(train_dictionary(retrain_data, two_windows))
          .already_active);

  const RetrainReport report = controller.run_cycle();
  EXPECT_EQ(report.outcome, RetrainOutcome::kSkippedNoData) << report.detail;
  const TrafficRecorderStats wstats = controller.recorder().stats();
  EXPECT_EQ(wstats.window_resets, 1u);
  EXPECT_EQ(wstats.window_jobs, 0u);
  EXPECT_EQ(controller.recorder().capture_horizon(), 180);  // new layout

  // Capture resumes under the new layout and the loop recovers (the
  // new epoch's verdicts fire at t = 180, so stream past it).
  for (std::uint64_t id = 51; id < 53; ++id) {
    const JobVerdict verdict =
        serve_job(service, controller.recorder(), id, 6030.0, 6030.0, 200);
    EXPECT_TRUE(verdict.result.recognized);
  }
  EXPECT_EQ(controller.recorder().stats().window_jobs, 2u);
}

TEST_F(RetrainCycle, BackgroundCycleRunsOffTheSchedulerThread) {
  // Serving mode: train + gate run on the controller's worker thread
  // while the scheduler thread keeps dispatching traffic — TSan-covered
  // via the `tsan` CTest label.
  RecognitionService service = make_service();
  RetrainConfig config = controller_config();
  config.min_new_jobs = 4;
  RetrainController controller(service, config);

  serve_phase(service, controller.recorder(), 1, 4, /*drifted=*/true);
  ASSERT_TRUE(controller.maybe_trigger(std::chrono::steady_clock::now()));

  // Traffic keeps flowing while the background cycle trains and gates.
  serve_phase(service, controller.recorder(), 51, 4, /*drifted=*/true);
  controller.join();
  EXPECT_FALSE(controller.cycle_in_flight());

  const auto reports = controller.drain_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, RetrainOutcome::kPromoted)
      << reports[0].detail;
  EXPECT_EQ(service.stats().dictionary_epoch, 2u);
  // The next trigger sees the 4 jobs served during the cycle.
  EXPECT_TRUE(controller.maybe_trigger(std::chrono::steady_clock::now()));
  controller.join();
}

TEST_F(RetrainCycle, WorkerCertifiesAndTheOwnerPromotesAtItsNextPoll) {
  // The worker trains and gates but never publishes: its certified
  // candidate waits, unpublished and unrecorded, until the owner's next
  // maybe_trigger() promotes it on the owner thread.
  RecognitionService service = make_service();
  RetrainConfig config = controller_config();
  config.min_new_jobs = 4;
  std::atomic<bool> trained{false};
  config.after_train = [&trained] { trained.store(true); };
  RetrainController controller(service, config);

  serve_phase(service, controller.recorder(), 1, 4, /*drifted=*/true);
  ASSERT_TRUE(controller.maybe_trigger(std::chrono::steady_clock::now()));
  for (int ms = 0; ms < 5000 && !trained.load(); ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(trained.load());
  // The gate replays one holdout job: ample time for the worker to
  // finish. Nothing below depends on it having finished.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(service.stats().dictionary_epoch, 1u);
  EXPECT_EQ(service.stats().dictionary_swaps, 0u);
  EXPECT_EQ(controller.stats().cycles_promoted, 0u);
  EXPECT_EQ(controller.stats().last_cycle, 0u);
  EXPECT_TRUE(controller.drain_reports().empty());
  EXPECT_TRUE(controller.cycle_in_flight());

  // No fresh jobs since the trigger: each poll only reaps the cycle.
  while (controller.cycle_in_flight()) {
    EXPECT_FALSE(controller.maybe_trigger(std::chrono::steady_clock::now()));
    std::this_thread::yield();
  }
  EXPECT_EQ(service.stats().dictionary_epoch, 2u);
  EXPECT_EQ(controller.stats().cycles_promoted, 1u);
  EXPECT_EQ(controller.stats().last_promoted_epoch, 2u);
  const auto reports = controller.drain_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, RetrainOutcome::kPromoted)
      << reports[0].detail;
  EXPECT_EQ(reports[0].epoch, 2u);
}

TEST(RetrainState, BlobRoundTripAndRejection) {
  RecognitionService service(train_levels({{"ft", 6000.0}}));
  RetrainConfig config;
  RetrainController controller(service, config);
  const RetrainReport report = controller.run_cycle();  // skipped: no data
  EXPECT_EQ(report.outcome, RetrainOutcome::kSkippedNoData);

  const std::vector<std::uint8_t> blob = controller.encode_state();
  RecognitionService other(train_levels({{"ft", 6000.0}}));
  RetrainController restored(other, config);
  ASSERT_TRUE(restored.restore_state(blob));
  EXPECT_EQ(restored.stats().cycles_triggered, 1u);
  EXPECT_EQ(restored.stats().cycles_skipped_no_data, 1u);
  ASSERT_EQ(restored.lineage().size(), 1u);
  EXPECT_EQ(restored.lineage()[0].outcome, RetrainOutcome::kSkippedNoData);
  EXPECT_EQ(restored.encode_state(), blob);

  // Rejections leave the controller untouched: empty is a no-op success,
  // anything corrupt fails loudly.
  EXPECT_TRUE(restored.restore_state({}));
  std::vector<std::uint8_t> corrupt = blob;
  corrupt[0] = 99;  // unknown version
  EXPECT_FALSE(restored.restore_state(corrupt));
  corrupt = blob;
  corrupt.pop_back();  // truncated
  EXPECT_FALSE(restored.restore_state(corrupt));
  corrupt = blob;
  corrupt.push_back(0);  // trailing bytes
  EXPECT_FALSE(restored.restore_state(corrupt));
  EXPECT_EQ(restored.encode_state(), blob);  // still intact
}

TEST(RetrainState, SnapshotCarriesRetrainSectionAndLegacyStatsRestore) {
  // Round trip: the Retrain section travels opaquely and is optional.
  RecognitionService service(train_levels({{"ft", 6000.0}}));
  const std::vector<std::uint8_t> blob = {9, 8, 7, 6, 5};
  {
    RecognitionService restored(train_levels({{"ft", 6000.0}}));
    EXPECT_EQ(restore_one(restored, base_capture(service, 1, blob))
                  .retrain_state,
              blob);
  }
  const std::string plain = base_capture(service, 1);
  {
    RecognitionService restored(train_levels({{"ft", 6000.0}}));
    EXPECT_TRUE(restore_one(restored, plain).retrain_state.empty());
  }

  // Legacy compatibility: a pre-retrain EFD-SNAP-V1 file whose Stats
  // section has only 9 counters (no dictionary_swaps_noop) must still
  // restore. Rewrite a fresh base's sections behind the V1 magic, with
  // the Stats section cut down to 9 counters.
  std::string legacy;
  {
    std::size_t at = core::kCaptureHeadBytes;
    legacy.assign(core::kSnapshotMagic, core::kSnapshotMagicBytes);
    while (at < plain.size()) {
      std::uint32_t length = 0;
      std::memcpy(&length, plain.data() + at, 4);
      std::string payload = plain.substr(at + 8, length);
      at += 8 + length;
      if (!payload.empty() &&
          payload[0] ==
              static_cast<char>(core::SnapshotSection::kStats)) {
        payload.resize(1 + 9 * 8);  // drop the 10th counter
      }
      std::vector<std::uint8_t> bytes(payload.begin(), payload.end());
      std::vector<std::uint8_t> header;
      util::put_u32(header, static_cast<std::uint32_t>(bytes.size()));
      util::put_u32(header, util::crc32(bytes));
      legacy.append(header.begin(), header.end());
      legacy.append(payload);
    }
  }
  RecognitionService restored(train_levels({{"ft", 6000.0}}));
  const ServiceRestoreInfo info = restore_one(restored, legacy);
  EXPECT_EQ(info.replay_cursor, 1u);
  EXPECT_EQ(restored.stats().dictionary_swaps_noop, 0u);
}

}  // namespace

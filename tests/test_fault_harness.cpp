/// \file test_fault_harness.cpp
/// \brief Deterministic crash/recovery tests built on fault_harness.hpp:
/// a service killed at scripted points (with everything since the last
/// capture lost) and restored from its EFD-SNAP-V2 chain must produce
/// exactly the verdicts of an uninterrupted run — across single crashes,
/// crashes before the first capture, repeated crashes, every-position
/// crash sweeps, torn writes, and deferred-mode services. A plan with
/// chain_limit 0 writes every capture as a base; a larger limit writes
/// base + delta chains.

#include "fault_harness.hpp"

#include <gtest/gtest.h>

#include "core/trainer.hpp"

namespace {

using namespace efd;
using namespace efd::core;
using namespace efd::testkit;

constexpr const char* kMetric = "nr_mapped_vmstat";

FingerprintConfig config_of() {
  FingerprintConfig config;
  config.metrics = {kMetric};
  config.rounding_depth = 2;
  return config;
}

class FaultHarnessTest : public ::testing::Test {
 protected:
  FaultHarnessTest() : dataset_({kMetric}) {
    add(1, "ft", 6000.0);
    add(2, "mg", 6100.0);
    dictionary_ = train_dictionary(dataset_, config_of());
    // Six jobs, alternating applications, interleaved round-robin so
    // crash points land mid-batch, mid-job, and post-completion.
    jobs_ = {{1, 6030.0}, {2, 6080.0}, {3, 6030.0},
             {4, 6080.0}, {5, 6030.0}, {6, 6080.0}};
    workload_ = interleaved_workload(jobs_, kMetric);
  }

  void add(std::uint64_t id, const std::string& app, double level) {
    telemetry::ExecutionRecord record(id, {app, "X"}, 2, 1);
    for (std::size_t n = 0; n < 2; ++n) {
      for (int t = 0; t < 150; ++t) record.series(n, 0).push_back(level);
    }
    dataset_.add(std::move(record));
  }

  FaultHarness::ServiceFactory factory(RecognitionServiceConfig config = {}) {
    return [this, config] {
      return std::make_unique<RecognitionService>(dictionary_, config);
    };
  }

  void expect_expected_predictions(const HarnessRun& run) {
    ASSERT_EQ(run.verdicts.size(), jobs_.size());
    for (const auto& [job_id, level] : jobs_) {
      const auto it = run.verdicts.find(job_id);
      ASSERT_NE(it, run.verdicts.end()) << "job " << job_id;
      EXPECT_EQ(it->second.prediction(), level == 6030.0 ? "ft" : "mg")
          << "job " << job_id;
    }
  }

  telemetry::Dataset dataset_;
  Dictionary dictionary_;
  std::vector<std::pair<std::uint64_t, double>> jobs_;
  Workload workload_;
};

TEST_F(FaultHarnessTest, BaselineProducesOneCorrectVerdictPerJob) {
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);
  expect_expected_predictions(baseline);
  EXPECT_EQ(baseline.crashes, 0u);
  EXPECT_EQ(baseline.duplicate_verdicts, 0u);
}

TEST_F(FaultHarnessTest, SingleMidStreamCrashRecoversWithExactParity) {
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  FaultPlan plan;
  plan.snapshot_every_messages = 5;
  plan.crash_after_messages = {workload_.size() / 2};
  const HarnessRun faulted = harness.run(workload_, plan);

  EXPECT_EQ(faulted.crashes, 1u);
  EXPECT_EQ(faulted.restores, 1u);
  EXPECT_GE(faulted.snapshots, 1u);
  EXPECT_TRUE(verdict_parity(faulted, baseline));
  expect_expected_predictions(faulted);
}

TEST_F(FaultHarnessTest, CrashBeforeFirstSnapshotReplaysFromScratch) {
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  FaultPlan plan;
  plan.snapshot_every_messages = 1000;  // never reached before the crash
  plan.crash_after_messages = {3};
  const HarnessRun faulted = harness.run(workload_, plan);

  EXPECT_EQ(faulted.crashes, 1u);
  EXPECT_EQ(faulted.restarts_from_scratch, 1u);
  EXPECT_TRUE(verdict_parity(faulted, baseline));
}

TEST_F(FaultHarnessTest, RepeatedCrashesStillConverge) {
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  FaultPlan plan;
  plan.snapshot_every_messages = 7;
  plan.crash_after_messages = {9, 23, 40, workload_.size() - 1};
  const HarnessRun faulted = harness.run(workload_, plan);

  EXPECT_EQ(faulted.crashes, 4u);
  EXPECT_EQ(faulted.restores, 4u);
  EXPECT_TRUE(verdict_parity(faulted, baseline));
  expect_expected_predictions(faulted);
}

TEST_F(FaultHarnessTest, CrashSweepAcrossTheWholeTrace) {
  // Kill at every 6th position of the trace (and the last message):
  // every phase — before any open completes, mid-batch, after verdicts
  // fired, between close and drain — must recover to exact parity.
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  for (std::size_t crash_at = 1; crash_at < workload_.size(); crash_at += 6) {
    FaultPlan plan;
    plan.snapshot_every_messages = 8;
    plan.crash_after_messages = {crash_at};
    const HarnessRun faulted = harness.run(workload_, plan);
    EXPECT_TRUE(verdict_parity(faulted, baseline)) << "crash_at=" << crash_at;
    EXPECT_EQ(faulted.content_mismatches, 0u) << "crash_at=" << crash_at;
  }
}

TEST_F(FaultHarnessTest, LateCrashRedeliversIdenticalVerdicts) {
  // Crash right after the first jobs' verdicts fired but before the
  // next snapshot: the rewind re-runs completed jobs, so their verdicts
  // are re-delivered. They must dedupe with identical content
  // (at-least-once, never at-odds). Trace layout: opens at 0..5, round
  // r batches at 6+6r..6+6r+5; verdicts fire in round 7 (ticks 112..127
  // close the [60,120) window), i.e. messages 48..53. Crashing after 51
  // with snapshots every 11 (last at 44) loses verdicts 48..50's
  // completions from service state while the harness already holds them.
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  FaultPlan plan;
  plan.snapshot_every_messages = 11;
  plan.crash_after_messages = {51};
  const HarnessRun faulted = harness.run(workload_, plan);

  EXPECT_GT(faulted.duplicate_verdicts, 0u);
  EXPECT_EQ(faulted.content_mismatches, 0u);
  EXPECT_TRUE(verdict_parity(faulted, baseline));
}

TEST_F(FaultHarnessTest, DeferredServiceRecoversQueuedSamples) {
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 4096;
  FaultHarness harness(factory(config));
  const HarnessRun baseline = harness.run_baseline(workload_);
  expect_expected_predictions(baseline);

  FaultPlan plan;
  plan.snapshot_every_messages = 6;
  plan.crash_after_messages = {15, 33};
  const HarnessRun faulted = harness.run(workload_, plan);

  EXPECT_EQ(faulted.crashes, 2u);
  EXPECT_TRUE(verdict_parity(faulted, baseline));
}

TEST_F(FaultHarnessTest, DeltaChainCrashSweepMatchesBaseline) {
  // The delta-chain twin of CrashSweepAcrossTheWholeTrace: persistence
  // is a base+delta chain (rebased every 3 deltas), recovery replays
  // base -> deltas. Every crash position must land on exact parity.
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  for (std::size_t crash_at = 1; crash_at < workload_.size(); crash_at += 6) {
    FaultPlan plan;
    plan.chain_limit = 3;
    plan.snapshot_every_messages = 8;
    plan.crash_after_messages = {crash_at};
    const HarnessRun faulted = harness.run(workload_, plan);
    EXPECT_TRUE(verdict_parity(faulted, baseline)) << "crash_at=" << crash_at;
    EXPECT_EQ(faulted.fallbacks, 0u) << "crash_at=" << crash_at;
    EXPECT_GE(faulted.chain_bases, 1u) << "crash_at=" << crash_at;
  }
}

TEST_F(FaultHarnessTest, DeltaChainRepeatedCrashesRebaseAndConverge) {
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  FaultPlan plan;
  plan.chain_limit = 2;
  plan.snapshot_every_messages = 7;
  plan.crash_after_messages = {9, 23, 40, workload_.size() - 1};
  const HarnessRun faulted = harness.run(workload_, plan);

  EXPECT_EQ(faulted.crashes, 4u);
  EXPECT_EQ(faulted.restores, 4u);
  EXPECT_GT(faulted.chain_deltas, 0u);
  // Each recovery plus each chain_limit overflow forces a fresh base.
  EXPECT_GE(faulted.chain_bases, 4u);
  EXPECT_TRUE(verdict_parity(faulted, baseline));
  expect_expected_predictions(faulted);
}

TEST_F(FaultHarnessTest, TornDeltaWriteFallsBackToThePreviousCapture) {
  // Power loss mid-write of a DELTA: the torn file fails the chain
  // replay, is discarded loudly (one fallback), and recovery lands on
  // the previous capture — still exact parity, never a crash.
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  FaultPlan plan;
  plan.chain_limit = 16;
  plan.snapshot_every_messages = 5;
  plan.torn_snapshot_writes = {3};  // third capture: a delta
  const HarnessRun faulted = harness.run(workload_, plan);

  EXPECT_EQ(faulted.torn_writes, 1u);
  EXPECT_EQ(faulted.crashes, 1u);
  EXPECT_EQ(faulted.fallbacks, 1u);
  EXPECT_EQ(faulted.restores, 1u);
  EXPECT_TRUE(verdict_parity(faulted, baseline));
  expect_expected_predictions(faulted);
}

TEST_F(FaultHarnessTest, TornBaseWriteRestartsFromScratch) {
  // Power loss mid-write of the FIRST base leaves no older capture to
  // fall back to: recovery must restart from scratch (loudly), not
  // boot off the torn file.
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  FaultPlan plan;
  plan.chain_limit = 16;
  plan.snapshot_every_messages = 6;
  plan.torn_snapshot_writes = {1};
  const HarnessRun faulted = harness.run(workload_, plan);

  EXPECT_EQ(faulted.torn_writes, 1u);
  EXPECT_GE(faulted.fallbacks, 1u);
  EXPECT_EQ(faulted.restarts_from_scratch, 1u);
  EXPECT_TRUE(verdict_parity(faulted, baseline));
}

TEST_F(FaultHarnessTest, TornLoneBaseWriteFailsLoudlyThenReplays) {
  // Every capture a base: the lone file is a torn prefix, restore
  // throws, recovery replays the trace from the beginning.
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  FaultPlan plan;
  plan.snapshot_every_messages = 9;
  plan.torn_snapshot_writes = {2};
  const HarnessRun faulted = harness.run(workload_, plan);

  EXPECT_EQ(faulted.torn_writes, 1u);
  EXPECT_EQ(faulted.fallbacks, 1u);
  EXPECT_EQ(faulted.restarts_from_scratch, 1u);
  EXPECT_TRUE(verdict_parity(faulted, baseline));
  expect_expected_predictions(faulted);
}

TEST_F(FaultHarnessTest, DeltaChainEqualsAllBasePlanAtEveryCadence) {
  // Deltas must change nothing a restore sees: for a spread of
  // cadences and one fixed crash point, recovery from a base+delta
  // chain and from a lone base produce identical verdict tables.
  FaultHarness harness(factory());
  const HarnessRun baseline = harness.run_baseline(workload_);

  for (const std::size_t cadence : {3u, 5u, 8u, 13u}) {
    FaultPlan all_bases;
    all_bases.snapshot_every_messages = cadence;
    all_bases.crash_after_messages = {workload_.size() / 2};
    FaultPlan chain = all_bases;
    chain.chain_limit = 4;
    const HarnessRun bases_run = harness.run(workload_, all_bases);
    const HarnessRun chain_run = harness.run(workload_, chain);
    EXPECT_EQ(bases_run.chain_deltas, 0u) << "cadence=" << cadence;
    EXPECT_TRUE(verdict_parity(chain_run, bases_run)) << "cadence=" << cadence;
    EXPECT_TRUE(verdict_parity(chain_run, baseline)) << "cadence=" << cadence;
  }
}

TEST_F(FaultHarnessTest, StatsContinuitySurvivesTheCrash) {
  FaultHarness harness(factory());
  FaultPlan plan;
  plan.snapshot_every_messages = 5;
  plan.crash_after_messages = {workload_.size() / 2};
  const HarnessRun faulted = harness.run(workload_, plan);

  // Counters restored from the snapshot keep climbing: the final
  // lifetime totals must cover at least one full pass of the trace.
  EXPECT_GE(faulted.final_stats.jobs_opened, jobs_.size());
  EXPECT_GE(faulted.final_stats.jobs_completed, jobs_.size());
  EXPECT_GT(faulted.final_stats.samples_pushed, 0u);
  EXPECT_EQ(faulted.final_stats.active_jobs, 0u);
}

}  // namespace

/// \file test_recognition_service.cpp
/// \brief Tests for the multi-job streaming service: per-job verdict
/// correctness against the offline matcher, lifecycle edge cases, online
/// learning, back-pressure, the reap/dirty-list edge, pooled drain
/// order, and 64-job runs over the simulated LDMS path whose sampling
/// threads share one service through a feed lock (exercised under
/// ThreadSanitizer in CI).

#include "core/online/recognition_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "core/matcher.hpp"
#include "core/trainer.hpp"
#include "ldms/sampler.hpp"
#include "ldms/streaming.hpp"
#include "sim/app_model.hpp"
#include "sim/cluster_sim.hpp"
#include "telemetry/metric_registry.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace efd;
using namespace efd::core;

FingerprintConfig config_of() {
  FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

/// Fixture with a two-app trained service (constant-signal dataset like
/// the online recognizer tests).
class ServiceFixture : public ::testing::Test {
 protected:
  ServiceFixture() : dataset_({"nr_mapped_vmstat"}) {
    add(1, "ft", 6000.0);
    add(2, "mg", 6100.0);
    dictionary_ = train_dictionary(dataset_, config_of());
  }

  void add(std::uint64_t id, const std::string& app, double level) {
    telemetry::ExecutionRecord record(id, {app, "X"}, 2, 1);
    for (std::size_t n = 0; n < 2; ++n) {
      for (int t = 0; t < 150; ++t) record.series(n, 0).push_back(level);
    }
    dataset_.add(std::move(record));
  }

  RecognitionService make_service(RecognitionServiceConfig config = {}) {
    return RecognitionService(dictionary_, config);
  }

  void stream_job(RecognitionService& service, std::uint64_t job,
                  double level, int ticks = 130) {
    for (int t = 0; t < ticks; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        service.push(job, node, "nr_mapped_vmstat", t, level);
      }
    }
  }

  telemetry::Dataset dataset_;
  Dictionary dictionary_;
};

TEST_F(ServiceFixture, VerdictFiresWhenWindowCloses) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(42, 2));
  EXPECT_TRUE(service.has_job(42));

  stream_job(service, 42, 6030.0);  // rounds to 6000 -> ft at depth 2

  EXPECT_FALSE(service.has_job(42));  // auto-closed at window end
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].job_id, 42u);
  EXPECT_EQ(verdicts[0].result.prediction(), "ft");
  EXPECT_TRUE(service.drain_verdicts().empty());  // drained exactly once
}

TEST_F(ServiceFixture, VerdictMatchesOfflineMatcher) {
  RecognitionService service = make_service();
  const auto& record = dataset_.record(1);  // mg
  ASSERT_TRUE(service.open_job(7, 2));
  for (int t = 0; t < 150; ++t) {
    for (std::uint32_t node = 0; node < 2; ++node) {
      service.push(7, node, "nr_mapped_vmstat", t,
                   record.series(node, 0)[static_cast<std::size_t>(t)]);
    }
  }
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);

  const RecognitionResult offline =
      Matcher(dictionary_).recognize(record, dataset_);
  EXPECT_EQ(verdicts[0].result.prediction(), offline.prediction());
  EXPECT_EQ(verdicts[0].result.votes, offline.votes);
  EXPECT_EQ(verdicts[0].result.matched_count, offline.matched_count);
}

TEST_F(ServiceFixture, LifecycleEdgeCases) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  EXPECT_FALSE(service.open_job(1, 2));  // duplicate id rejected

  EXPECT_FALSE(service.push(999, 0, "nr_mapped_vmstat", 0, 1.0));  // no job
  EXPECT_FALSE(service.close_job(999));

  // Force-closing an unready stream yields an unrecognized verdict.
  service.push(1, 0, "nr_mapped_vmstat", 0, 6000.0);
  EXPECT_TRUE(service.close_job(1));
  EXPECT_FALSE(service.has_job(1));
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].result.recognized);
  EXPECT_EQ(verdicts[0].result.prediction(), kUnknownApplication);

  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_jobs, 0u);
  EXPECT_EQ(stats.jobs_opened, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.samples_dropped, 1u);
  EXPECT_EQ(stats.samples_pushed, 1u);
}

TEST_F(ServiceFixture, OnlineLearningAddsRecognizableApplication) {
  RecognitionService service = make_service();
  // "learning new applications is as simple as adding new keys": the
  // keys are added to a copy of the active dictionary, published as the
  // successor epoch.
  Dictionary next = service.dictionary();
  for (std::uint32_t node = 0; node < 2; ++node) {
    FingerprintKey key;
    key.metric = "nr_mapped_vmstat";
    key.node_id = node;
    key.interval = {60, 120};
    key.rounded_means = {9900.0};
    next.insert(key, "lu_X");
  }
  ASSERT_FALSE(service.swap_dictionary(std::move(next)).already_active);
  ASSERT_TRUE(service.open_job(5, 2));
  stream_job(service, 5, 9870.0);  // rounds to 9900 at depth 2
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].result.prediction(), "lu");
}

TEST_F(ServiceFixture, DeferredModeBuffersUntilProcessPending) {
  RecognitionServiceConfig config;
  config.deferred = true;
  RecognitionService service = make_service(config);
  ASSERT_TRUE(service.open_job(3, 2));

  stream_job(service, 3, 6030.0);  // enqueued, not recognized yet
  EXPECT_EQ(service.stats().samples_pushed, 0u);
  EXPECT_EQ(service.stats().queued_samples, 2u * 130u);
  EXPECT_TRUE(service.drain_verdicts().empty());
  EXPECT_TRUE(service.has_job(3));

  const std::size_t fed = service.process_pending();
  EXPECT_GT(fed, 0u);
  EXPECT_EQ(service.stats().queued_samples, 0u);
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].result.prediction(), "ft");

  // The deferred verdict must be identical to the inline-mode one.
  RecognitionService inline_service = make_service();
  ASSERT_TRUE(inline_service.open_job(3, 2));
  stream_job(inline_service, 3, 6030.0);
  const auto inline_verdicts = inline_service.drain_verdicts();
  ASSERT_EQ(inline_verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].result.prediction(),
            inline_verdicts[0].result.prediction());
  EXPECT_EQ(verdicts[0].result.votes, inline_verdicts[0].result.votes);
}

TEST_F(ServiceFixture, ProcessPendingDrainsOnlyPushedStreams) {
  RecognitionServiceConfig config;
  config.deferred = true;
  RecognitionService service = make_service(config);
  constexpr std::uint64_t kIdleJobs = 5000;
  for (std::uint64_t job = 1; job <= kIdleJobs; ++job) {
    ASSERT_TRUE(service.open_job(job, 2));
  }
  EXPECT_EQ(service.process_pending(), 0u);  // nothing pushed yet

  // One job of 5000 gets 10 ticks x 2 nodes; the drain recognizes
  // exactly those samples and leaves no dirty stream behind.
  stream_job(service, 4242, 6030.0, 10);
  EXPECT_EQ(service.process_pending(), 20u);
  EXPECT_EQ(service.stats().samples_pushed, 20u);
  EXPECT_EQ(service.stats().queued_samples, 0u);
  EXPECT_EQ(service.process_pending(), 0u);

  // A push after a drain marks the stream dirty again.
  stream_job(service, 17, 6080.0, 3);
  EXPECT_EQ(service.process_pending(), 6u);
  EXPECT_EQ(service.stats().active_jobs, kIdleJobs);
}

TEST_F(ServiceFixture, JobIdIsReusableRightAfterTheDrainThatReturnsItsVerdict) {
  for (const bool deferred : {false, true}) {
    RecognitionServiceConfig config;
    config.deferred = deferred;
    RecognitionService service = make_service(config);
    ASSERT_TRUE(service.open_job(7, 2));
    stream_job(service, 7, 6030.0);
    service.process_pending();

    // The verdict is queued, so the stream lingers: not reusable yet.
    EXPECT_FALSE(service.has_job(7));
    EXPECT_FALSE(service.open_job(7, 2)) << "deferred=" << deferred;

    std::vector<JobVerdict> drained;
    service.drain_verdicts(drained);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].job_id, 7u);
    EXPECT_EQ(drained[0].result.prediction(), "ft");

    // Reusable from here: the reopened stream recognizes from scratch.
    ASSERT_TRUE(service.open_job(7, 2)) << "deferred=" << deferred;
    stream_job(service, 7, 6080.0);
    service.process_pending();
    service.drain_verdicts(drained);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].result.prediction(), "mg");
    EXPECT_EQ(service.stats().active_jobs, 0u);
  }
}

TEST_F(ServiceFixture, DropOldestPolicyBoundsQueueAndCountsOverflow) {
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 8;
  config.policy = BackpressurePolicy::kDropOldest;
  RecognitionService service = make_service(config);
  ASSERT_TRUE(service.open_job(1, 2));

  // A job that never completes must not grow service memory unboundedly:
  // 10000 pushes against a capacity-8 queue retain exactly 8 samples.
  constexpr int kPushes = 10000;
  for (int i = 0; i < kPushes; ++i) {
    EXPECT_TRUE(service.push(1, 0, "nr_mapped_vmstat", i, 6030.0));
  }
  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued_samples, 8u);
  EXPECT_EQ(stats.samples_overflowed, static_cast<std::uint64_t>(kPushes - 8));
  EXPECT_EQ(stats.samples_rejected, 0u);
  EXPECT_EQ(stats.samples_pushed, 0u);  // nothing recognized yet

  service.process_pending();
  stats = service.stats();
  EXPECT_EQ(stats.queued_samples, 0u);
  EXPECT_EQ(stats.samples_pushed, 8u);  // only the retained window fed
}

TEST_F(ServiceFixture, RejectPolicyRefusesWhenFull) {
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 4;
  config.policy = BackpressurePolicy::kReject;
  RecognitionService service = make_service(config);
  ASSERT_TRUE(service.open_job(1, 2));

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(service.push(1, 0, "nr_mapped_vmstat", i, 6030.0));
  }
  EXPECT_FALSE(service.push(1, 0, "nr_mapped_vmstat", 4, 6030.0));
  EXPECT_FALSE(service.push(1, 0, "nr_mapped_vmstat", 5, 6030.0));

  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued_samples, 4u);
  EXPECT_EQ(stats.samples_rejected, 2u);
  EXPECT_EQ(stats.samples_overflowed, 0u);
}

TEST_F(ServiceFixture, BlockPolicyIsLosslessAndDeadlockFree) {
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 4;
  config.policy = BackpressurePolicy::kBlock;
  RecognitionService service = make_service(config);
  ASSERT_TRUE(service.open_job(1, 2));

  // A push into a full queue drains that stream right there, on the
  // owner thread, and then enqueues: it never waits, and no sample is
  // lost.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.push(1, 0, "nr_mapped_vmstat", i, 6030.0));
  }
  EXPECT_EQ(service.stats().queued_samples, 4u);
  EXPECT_EQ(service.stats().pushes_blocked, 0u);
  ASSERT_TRUE(service.push(1, 1, "nr_mapped_vmstat", 0, 6030.0));
  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.pushes_blocked, 1u);
  EXPECT_EQ(stats.samples_pushed, 4u);
  EXPECT_EQ(stats.queued_samples, 1u);

  // A whole job through the capacity-4 queue, one sample at a time. The
  // queue fills at every 4th push after the first, so pushes 5, 9, ...,
  // 241 each force one drain. The drain at push 241 feeds sample 240
  // (node 1, t=119), which closes the last window: the verdict fires
  // inside that push, and the 20 samples from 241 on are late.
  RecognitionService paced = make_service(config);
  ASSERT_TRUE(paced.open_job(1, 2));
  stream_job(paced, 1, 6030.0);
  stats = paced.stats();
  EXPECT_EQ(stats.pushes_blocked, 60u);
  EXPECT_EQ(stats.samples_pushed, 240u);
  EXPECT_EQ(stats.samples_late, 20u);
  EXPECT_EQ(stats.samples_rejected, 0u);
  EXPECT_EQ(stats.samples_overflowed, 0u);
  EXPECT_EQ(stats.queued_samples, 0u);
  EXPECT_EQ(paced.process_pending(), 0u);  // nothing was left to drain

  // Lossless: the verdict equals the one an unbounded inline run fires.
  RecognitionService reference = make_service();
  ASSERT_TRUE(reference.open_job(1, 2));
  stream_job(reference, 1, 6030.0);
  const auto want = reference.drain_verdicts();
  const auto got = paced.drain_verdicts();
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(got[0].result.prediction(), "ft");
  EXPECT_EQ(got[0].result.votes, want[0].result.votes);
  EXPECT_EQ(got[0].result.label_votes, want[0].result.label_votes);
  EXPECT_EQ(got[0].result.fingerprint_count, want[0].result.fingerprint_count);
  EXPECT_EQ(got[0].result.matched_count, want[0].result.matched_count);
}

TEST_F(ServiceFixture, InlinePushBatchLargerThanQueueStaysLossless) {
  // Inline mode: the pushing thread is the consumer, so a batch larger
  // than the queue capacity must drain mid-batch, never shed — even
  // under the lossy policies.
  for (const auto policy : {BackpressurePolicy::kDropOldest,
                            BackpressurePolicy::kReject,
                            BackpressurePolicy::kBlock}) {
    RecognitionServiceConfig config;
    config.deferred = false;
    config.job_queue_capacity = 16;
    config.policy = policy;
    RecognitionService service = make_service(config);
    ASSERT_TRUE(service.open_job(1, 2));

    std::vector<RecognitionService::SamplePush> batch;
    for (int t = 0; t < 130; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        batch.push_back({node, t, 6030.0, "nr_mapped_vmstat"});
      }
    }
    const std::size_t accepted = service.push_batch(1, batch);
    const RecognitionServiceStats stats = service.stats();
    // Nothing shed by the policy: every sample either reached the
    // recognizer or arrived after the verdict fired at t=120 (late),
    // exactly like the per-sample inline path.
    EXPECT_EQ(stats.samples_overflowed, 0u) << backpressure_policy_name(policy);
    EXPECT_EQ(stats.samples_rejected, 0u) << backpressure_policy_name(policy);
    EXPECT_EQ(stats.samples_pushed, accepted);
    EXPECT_EQ(stats.samples_late, batch.size() - accepted);
    // The verdict fires on the sample completing [60,120) — node 1's
    // t=119 — so exactly 2 x 120 samples reach the recognizer.
    EXPECT_EQ(accepted, 2u * 120u) << backpressure_policy_name(policy);

    const auto verdicts = service.drain_verdicts();
    ASSERT_EQ(verdicts.size(), 1u) << backpressure_policy_name(policy);
    EXPECT_EQ(verdicts[0].result.prediction(), "ft")
        << backpressure_policy_name(policy);
  }
}

TEST_F(ServiceFixture, StaleSweepEvictsIdleStreamsAndBoundsMemory) {
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 16;
  config.policy = BackpressurePolicy::kDropOldest;
  RecognitionService service = make_service(config);

  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  service.push(1, 0, "nr_mapped_vmstat", 0, 6030.0);  // never completes

  // Nothing is stale within a generous TTL.
  EXPECT_EQ(service.sweep_stale_jobs(std::chrono::hours(1)), 0u);
  EXPECT_EQ(service.stats().active_jobs, 2u);

  // With TTL zero every idle stream is stale: both evicted, each yields
  // the unknown-application safeguard verdict, and the jobs map reaps.
  EXPECT_EQ(service.sweep_stale_jobs(std::chrono::seconds(0)), 2u);
  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_jobs, 0u);
  EXPECT_EQ(stats.jobs_evicted, 2u);
  EXPECT_EQ(stats.queued_samples, 0u);

  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  for (const JobVerdict& verdict : verdicts) {
    EXPECT_FALSE(verdict.result.recognized);
    EXPECT_EQ(verdict.result.prediction(), kUnknownApplication);
  }
  EXPECT_EQ(service.stats().pending_verdicts, 0u);

  // Evicted ids are reusable, and a re-run sweep finds nothing.
  EXPECT_TRUE(service.open_job(1, 2));
  EXPECT_EQ(service.sweep_stale_jobs(std::chrono::hours(1)), 0u);
}

TEST_F(ServiceFixture, PostVerdictBatchCountsLateUntilReapedThenDropped) {
  // A batch for a decided job counts late while its finished stream is
  // still held, and dropped once reap() removed it. Which one a run
  // reports follows the reap timing; the sum of the two does not.
  const std::vector<RecognitionService::SamplePush> batch = {
      {0, 130, 6030.0, "nr_mapped_vmstat"},
      {1, 130, 6030.0, "nr_mapped_vmstat"}};
  std::uint64_t totals[2] = {};
  for (const bool reaped : {false, true}) {
    RecognitionService service = make_service();
    ASSERT_TRUE(service.open_job(1, 2));
    stream_job(service, 1, 6030.0);
    std::vector<JobVerdict> verdicts;
    service.take_verdicts(verdicts);
    ASSERT_EQ(verdicts.size(), 1u);
    if (reaped) service.reap(verdicts);

    const RecognitionServiceStats before = service.stats();
    EXPECT_EQ(service.push_batch(1, batch), 0u);
    const RecognitionServiceStats after = service.stats();
    EXPECT_EQ(after.samples_late - before.samples_late, reaped ? 0u : 2u);
    EXPECT_EQ(after.samples_dropped - before.samples_dropped,
              reaped ? 2u : 0u);
    totals[reaped ? 1 : 0] = after.samples_late + after.samples_dropped;
  }
  EXPECT_EQ(totals[0], totals[1]);
}

TEST_F(ServiceFixture, ReapedStreamNeverReachedThroughTheDirtyList) {
  // Deferred push marks a stream dirty; close_job then finishes it and
  // drain_verdicts reaps it before the next process_pending. The reap
  // must take the stream off the dirty list, or process_pending would
  // touch freed memory (the ASan job runs this suite). Job 2 stays
  // dirty throughout and must still drain exactly.
  for (const bool reopen : {false, true}) {
    const std::string context = reopen ? "reopen" : "no reopen";
    RecognitionServiceConfig config;
    config.deferred = true;
    RecognitionService service = make_service(config);
    ASSERT_TRUE(service.open_job(1, 2));
    ASSERT_TRUE(service.open_job(2, 2));
    stream_job(service, 2, 6080.0);  // dirty, left for process_pending
    stream_job(service, 1, 6030.0, 50);  // dirty, closed before it drains

    ASSERT_TRUE(service.close_job(1));
    std::vector<JobVerdict> verdicts = service.drain_verdicts();
    ASSERT_EQ(verdicts.size(), 1u) << context;
    EXPECT_EQ(verdicts[0].job_id, 1u);
    // 50 ticks close no window: the unknown-application safeguard.
    EXPECT_FALSE(verdicts[0].result.recognized) << context;
    EXPECT_EQ(verdicts[0].result.prediction(), kUnknownApplication);
    EXPECT_EQ(service.stats().samples_pushed, 100u) << context;

    if (reopen) {
      ASSERT_TRUE(service.open_job(1, 2));
    }
    // Only job 2's 260 samples are left to drain; its verdict fires on
    // the 240th.
    EXPECT_EQ(service.process_pending(), 240u) << context;
    verdicts = service.drain_verdicts();
    ASSERT_EQ(verdicts.size(), 1u) << context;
    EXPECT_EQ(verdicts[0].job_id, 2u);
    EXPECT_EQ(verdicts[0].result.prediction(), "mg") << context;

    if (reopen) {
      // The reopened id is a fresh stream: it recognizes from scratch.
      EXPECT_TRUE(service.has_job(1));
      stream_job(service, 1, 6080.0);
      EXPECT_EQ(service.process_pending(), 240u) << context;
      verdicts = service.drain_verdicts();
      ASSERT_EQ(verdicts.size(), 1u);
      EXPECT_EQ(verdicts[0].job_id, 1u);
      EXPECT_EQ(verdicts[0].result.prediction(), "mg");
    }
    EXPECT_EQ(service.stats().active_jobs, 0u) << context;
  }
}

TEST_F(ServiceFixture, DeferredOwnerPushesWithPooledProcessing) {
  // The ingest pipeline's shape: the owner pushes a slice of every job,
  // then fans process_pending across a pool, until every job fired.
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 64;
  config.policy = BackpressurePolicy::kBlock;
  RecognitionService service = make_service(config);
  constexpr std::uint64_t kJobs = 16;
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    ASSERT_TRUE(service.open_job(job, 2));
  }

  util::ThreadPool pool(4);
  for (int t = 0; t < 130; t += 10) {
    for (std::uint64_t job = 1; job <= kJobs; ++job) {
      for (int tick = t; tick < t + 10; ++tick) {
        for (std::uint32_t node = 0; node < 2; ++node) {
          service.push(job, node, "nr_mapped_vmstat", tick,
                       job % 2 == 0 ? 6030.0 : 6080.0);
        }
      }
    }
    service.process_pending(&pool);
  }

  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), kJobs);
  for (const JobVerdict& verdict : verdicts) {
    EXPECT_EQ(verdict.result.prediction(),
              verdict.job_id % 2 == 0 ? "ft" : "mg")
        << "job " << verdict.job_id;
  }
  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.samples_pushed, kJobs * 240u);
  EXPECT_EQ(stats.samples_late, kJobs * 20u);
  EXPECT_EQ(stats.pushes_blocked, 0u);  // 20 samples per slice fit in 64
}

/// Pushes every job of \p jobs in slices of \p slice ticks, rotating
/// the job order each slice and calling process_pending(pool) after
/// each, and returns the verdicts in the order drain_verdicts yields
/// them. Job j streams 130 - (j % 3) * 40 ticks, so some end unready
/// and are force-closed at the end.
std::vector<JobVerdict> drive_sliced(RecognitionService& service,
                                     std::uint64_t jobs, int slice,
                                     util::ThreadPool* pool) {
  const auto ticks = [](std::uint64_t job) {
    return 130 - static_cast<int>(job % 3) * 40;
  };
  std::vector<JobVerdict> order;
  std::vector<JobVerdict> drained;
  for (std::uint64_t job = 1; job <= jobs; ++job) {
    EXPECT_TRUE(service.open_job(job, 2));
  }
  for (int t = 0, round = 0; t < 130; t += slice, ++round) {
    for (std::uint64_t i = 0; i < jobs; ++i) {
      const std::uint64_t job =
          1 + (i + static_cast<std::uint64_t>(round) * 5) % jobs;
      for (int tick = t; tick < std::min(t + slice, ticks(job)); ++tick) {
        for (std::uint32_t node = 0; node < 2; ++node) {
          service.push(job, node, "nr_mapped_vmstat", tick,
                       job % 2 == 0 ? 6030.0 : 6080.0);
        }
      }
    }
    service.process_pending(pool);
    service.drain_verdicts(drained);
    order.insert(order.end(), drained.begin(), drained.end());
  }
  for (std::uint64_t job = 1; job <= jobs; ++job) service.close_job(job);
  service.drain_verdicts(drained);
  order.insert(order.end(), drained.begin(), drained.end());
  return order;
}

void expect_same_verdicts(const std::vector<JobVerdict>& got,
                          const std::vector<JobVerdict>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const RecognitionResult& a = got[i].result;
    const RecognitionResult& b = want[i].result;
    EXPECT_EQ(got[i].job_id, want[i].job_id) << context << " at " << i;
    EXPECT_EQ(got[i].source, want[i].source) << context;
    EXPECT_EQ(a.recognized, b.recognized) << context;
    EXPECT_EQ(a.applications, b.applications) << context;
    EXPECT_EQ(a.votes, b.votes) << context;
    EXPECT_EQ(a.label_votes, b.label_votes) << context;
    EXPECT_EQ(a.matched_labels, b.matched_labels) << context;
    EXPECT_EQ(a.fingerprint_count, b.fingerprint_count) << context;
    EXPECT_EQ(a.matched_count, b.matched_count) << context;
  }
}

TEST_F(ServiceFixture, PooledDrainOrderEqualsUnpooledOrder) {
  // process_pending(&pool) folds its per-stream results in dirty-list
  // order on the owner thread, so drain_verdicts returns the verdicts
  // in exactly the process_pending(nullptr) order: no sort here.
  RecognitionServiceConfig config;
  config.deferred = true;
  constexpr std::uint64_t kJobs = 24;
  RecognitionService baseline_service = make_service(config);
  const std::vector<JobVerdict> baseline =
      drive_sliced(baseline_service, kJobs, 7, nullptr);
  ASSERT_EQ(baseline.size(), kJobs);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    RecognitionService service = make_service(config);
    expect_same_verdicts(drive_sliced(service, kJobs, 7, &pool), baseline,
                         "threads=" + std::to_string(threads));
  }
}

TEST_F(ServiceFixture, PooledDrainWithBackpressureMatchesSequentialDrain) {
  // A queue small enough that kBlock forces drains inside push, beside
  // pooled process_pending passes: at every pool size the verdict
  // sequence equals the unpooled one, nothing is shed, and every job
  // completes.
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 16;
  config.policy = BackpressurePolicy::kBlock;
  constexpr std::uint64_t kJobs = 32;
  RecognitionService baseline_service = make_service(config);
  const std::vector<JobVerdict> baseline =
      drive_sliced(baseline_service, kJobs, 13, nullptr);
  ASSERT_EQ(baseline.size(), kJobs);
  const RecognitionServiceStats want = baseline_service.stats();
  EXPECT_GT(want.pushes_blocked, 0u);

  for (const std::size_t threads : {1u, 2u, 3u}) {
    const std::string context = "threads=" + std::to_string(threads);
    util::ThreadPool pool(threads);
    RecognitionService service = make_service(config);
    expect_same_verdicts(drive_sliced(service, kJobs, 13, &pool), baseline,
                         context);
    const RecognitionServiceStats stats = service.stats();
    EXPECT_EQ(stats.samples_rejected, 0u) << context;
    EXPECT_EQ(stats.samples_overflowed, 0u) << context;
    EXPECT_EQ(stats.pushes_blocked, want.pushes_blocked) << context;
    EXPECT_EQ(stats.samples_pushed, want.samples_pushed) << context;
    EXPECT_EQ(stats.samples_late, want.samples_late) << context;
    EXPECT_EQ(stats.active_jobs, 0u) << context;
    EXPECT_EQ(stats.pending_verdicts, 0u) << context;
    EXPECT_EQ(stats.jobs_completed, kJobs) << context;
  }
}

/// \p jobs plans cycling through the paper's applications, each run
/// for \p duration seconds on 2 nodes (execution ids 1..jobs).
std::vector<sim::ExecutionPlan> simulated_plans(
    const std::vector<std::unique_ptr<sim::AppModel>>& apps,
    std::size_t jobs, double duration) {
  std::vector<sim::ExecutionPlan> plans;
  plans.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    sim::ExecutionPlan plan;
    plan.app = apps[j % apps.size()].get();
    plan.input_size = "X";
    plan.node_count = 2;
    plan.duration_seconds = duration;
    plan.execution_id = j + 1;
    plans.push_back(plan);
  }
  return plans;
}

TEST(RecognitionServiceStreaming, ConcurrentSimulatedClusterEndToEnd) {
  // Full-stack run: 64 simulated jobs through samplers -> collector ->
  // service across a pool, verdicts identical to offline recognition of
  // the bulk-generated records (the sim adapter guarantees bit-identical
  // telemetry between the two paths).
  const telemetry::MetricRegistry registry =
      telemetry::MetricRegistry::standard_catalog();
  const auto apps = sim::make_paper_applications();
  constexpr std::uint64_t kSeed = 2021;
  constexpr double kDuration = 125.0;
  const std::vector<sim::ExecutionPlan> plans =
      simulated_plans(apps, 64, kDuration);

  // Bulk-generate the same executions and train on them.
  sim::ClusterSimulator simulator(registry, {"nr_mapped_vmstat"}, kSeed);
  telemetry::Dataset dataset({"nr_mapped_vmstat"});
  for (const sim::ExecutionPlan& plan : plans) dataset.add(simulator.run(plan));

  const FingerprintConfig config = config_of();
  RecognitionService service(train_dictionary(dataset, config));

  const auto samplers = ldms::make_standard_samplers(registry);
  util::ThreadPool pool(8);
  const ldms::StreamingRunReport report = ldms::run_concurrent_jobs(
      service, registry, plans, samplers, kSeed, kDuration, &pool);

  EXPECT_EQ(report.jobs_run, plans.size());
  ASSERT_EQ(report.verdicts, plans.size());

  const Matcher offline_matcher(service.dictionary());
  for (const JobVerdict& verdict : report.job_verdicts) {
    const auto& record = dataset.record(verdict.job_id - 1);
    ASSERT_EQ(record.id(), verdict.job_id);
    const RecognitionResult offline =
        offline_matcher.recognize(record, dataset);
    EXPECT_EQ(verdict.result.prediction(), offline.prediction())
        << "job " << verdict.job_id;
    EXPECT_EQ(verdict.result.votes, offline.votes) << "job " << verdict.job_id;
  }
  EXPECT_EQ(service.stats().active_jobs, 0u);
}

TEST(RecognitionServiceStreaming, ManyConcurrentJobsFromManyThreads) {
  // 64 jobs sampled on 8 competing threads whose feeds share one service
  // through run_concurrent_jobs' feed mutex: the verdict table and the
  // lifetime counters equal a run sampled on one thread. TSan-validates
  // the feed lock.
  const telemetry::MetricRegistry registry =
      telemetry::MetricRegistry::standard_catalog();
  const auto apps = sim::make_paper_applications();
  constexpr std::uint64_t kSeed = 7;
  constexpr double kDuration = 125.0;
  const std::vector<sim::ExecutionPlan> plans =
      simulated_plans(apps, 64, kDuration);
  sim::ClusterSimulator simulator(registry, {"nr_mapped_vmstat"}, kSeed);
  telemetry::Dataset dataset({"nr_mapped_vmstat"});
  for (const sim::ExecutionPlan& plan : plans) dataset.add(simulator.run(plan));
  const Dictionary dictionary = train_dictionary(dataset, config_of());
  const auto samplers = ldms::make_standard_samplers(registry);

  const auto run = [&](std::size_t threads) {
    RecognitionService service(dictionary);
    util::ThreadPool pool(threads);
    ldms::StreamingRunReport report = ldms::run_concurrent_jobs(
        service, registry, plans, samplers, kSeed, kDuration, &pool);
    std::sort(report.job_verdicts.begin(), report.job_verdicts.end(),
              [](const JobVerdict& a, const JobVerdict& b) {
                return a.job_id < b.job_id;
              });
    return std::make_pair(std::move(report), service.stats());
  };
  const auto [want, want_stats] = run(1);
  const auto [got, got_stats] = run(8);
  ASSERT_EQ(want.verdicts, plans.size());
  EXPECT_GT(want.recognized, 0u);
  expect_same_verdicts(got.job_verdicts, want.job_verdicts, "8 threads");
  EXPECT_EQ(got.recognized, want.recognized);
  EXPECT_EQ(got_stats.samples_pushed, want_stats.samples_pushed);
  EXPECT_EQ(got_stats.samples_late, want_stats.samples_late);
  EXPECT_EQ(got_stats.jobs_completed, plans.size());
  EXPECT_EQ(got_stats.active_jobs, 0u);
}

}  // namespace

/// \file test_snapshot.cpp
/// \brief Service snapshot/restore tests (snapshot_capture() and
/// restore_chain()): mid-stream round-trips with verdict parity and stats
/// continuity, pending-verdict survival, epoch continuity across
/// hot-swaps, captures interleaved with live traffic and pooled drains
/// (TSan material), base+delta chains, golden capture bytes, the
/// checked-in legacy EFD-SNAP-V1 file, and fuzz-style hostile-input tests
/// for the decoder — truncated, corrupted, and adversarial
/// length-prefixed sections must never crash, over-read, or
/// over-allocate, mirroring test_wire_format.cpp's fuzz discipline.

#include "core/online/service_snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <vector>

#include "core/online/recognition_service.hpp"
#include "core/trainer.hpp"
#include "ingest/snapshot_chain.hpp"
#include "util/binary_io.hpp"
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

class SnapshotFixture : public ::testing::Test {
 protected:
  SnapshotFixture() : dataset_({"nr_mapped_vmstat"}) {
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

  /// A base capture of \p service, the first of its own fresh chain.
  static std::string base_capture(
      const RecognitionService& service, std::uint64_t replay_cursor = 0,
      std::span<const std::uint8_t> retrain_state = {},
      std::span<const SourceCursor> source_cursors = {}) {
    SnapshotChainState chain;
    std::ostringstream out;
    service.snapshot_capture(out, chain, /*force_base=*/true, replay_cursor,
                             retrain_state, source_cursors);
    return std::move(out).str();
  }

  /// The EFD-SNAP-V1 file of the same state: a base already is the V1
  /// section stream, so V1 is "EFDSNAP1" plus the base minus its head.
  static std::string as_v1(const std::string& base) {
    return std::string(kSnapshotMagic, kSnapshotMagicBytes) +
           base.substr(kCaptureHeadBytes);
  }

  /// restore_chain() takes a span of istream pointers; build one over a
  /// vector of capture byte strings.
  static ServiceRestoreInfo restore_from(RecognitionService& service,
                                         const std::vector<std::string>& parts,
                                         std::size_t count) {
    std::vector<std::istringstream> streams;
    streams.reserve(count);
    for (std::size_t i = 0; i < count; ++i) streams.emplace_back(parts[i]);
    std::vector<std::istream*> pointers;
    pointers.reserve(count);
    for (auto& stream : streams) pointers.push_back(&stream);
    return service.restore_chain(pointers);
  }

  /// restore_chain() over one part: a base capture or a V1 file.
  static ServiceRestoreInfo restore_one(RecognitionService& service,
                                        const std::string& bytes) {
    return restore_from(service, {bytes}, 1);
  }

  /// Streams ticks [from, to) of a constant-level job into a service.
  static void stream_range(RecognitionService& service, std::uint64_t job,
                           double level, int from, int to) {
    for (int t = from; t < to; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        service.push(job, node, "nr_mapped_vmstat", t, level);
      }
    }
  }

  static void expect_same_result(const RecognitionResult& a,
                                 const RecognitionResult& b,
                                 const std::string& context) {
    EXPECT_EQ(a.recognized, b.recognized) << context;
    EXPECT_EQ(a.prediction(), b.prediction()) << context;
    EXPECT_EQ(a.label_prediction(), b.label_prediction()) << context;
    EXPECT_EQ(a.applications, b.applications) << context;
    EXPECT_EQ(a.votes, b.votes) << context;
    EXPECT_EQ(a.label_votes, b.label_votes) << context;
    EXPECT_EQ(a.matched_labels, b.matched_labels) << context;
    EXPECT_EQ(a.fingerprint_count, b.fingerprint_count) << context;
    EXPECT_EQ(a.matched_count, b.matched_count) << context;
  }

  /// A valid snapshot of a mid-stream service (two open jobs, one
  /// pending verdict) — the fuzz corpus seed. It is a V1 file, so the
  /// legacy reader stays fuzzed.
  std::string mid_stream_snapshot() {
    RecognitionService service = make_service();
    EXPECT_TRUE(service.open_job(1, 2));
    EXPECT_TRUE(service.open_job(2, 2));
    EXPECT_TRUE(service.open_job(3, 2));
    stream_range(service, 1, 6030.0, 0, 80);
    stream_range(service, 2, 6080.0, 0, 100);
    stream_range(service, 3, 6030.0, 0, 130);  // completed, undrained
    return as_v1(base_capture(service, 4242));
  }

  telemetry::Dataset dataset_;
  Dictionary dictionary_;
};

TEST_F(SnapshotFixture, MidStreamRoundTripYieldsIdenticalVerdicts) {
  RecognitionService original = make_service();
  ASSERT_TRUE(original.open_job(1, 2));
  ASSERT_TRUE(original.open_job(2, 2));
  stream_range(original, 1, 6030.0, 0, 80);  // ft, mid-window
  stream_range(original, 2, 6080.0, 0, 95);  // mg, mid-window

  const std::string bytes = base_capture(original, 777);

  RecognitionService restored = make_service();
  const ServiceRestoreInfo info = restore_one(restored, bytes);
  EXPECT_EQ(info.replay_cursor, 777u);
  EXPECT_EQ(info.jobs_restored, 2u);
  EXPECT_EQ(info.verdicts_restored, 0u);
  EXPECT_EQ(info.dictionary_epoch, 1u);

  // Stats continuity: the restarted service carries the counters on.
  const RecognitionServiceStats before = original.stats();
  const RecognitionServiceStats after = restored.stats();
  EXPECT_EQ(after.active_jobs, 2u);
  EXPECT_EQ(after.jobs_opened, before.jobs_opened);
  EXPECT_EQ(after.samples_pushed, before.samples_pushed);
  EXPECT_EQ(after.queued_samples, before.queued_samples);

  // Finish the replay identically on both services: verdict parity.
  stream_range(original, 1, 6030.0, 80, 130);
  stream_range(original, 2, 6080.0, 95, 130);
  stream_range(restored, 1, 6030.0, 80, 130);
  stream_range(restored, 2, 6080.0, 95, 130);

  auto original_verdicts = original.drain_verdicts();
  auto restored_verdicts = restored.drain_verdicts();
  ASSERT_EQ(original_verdicts.size(), 2u);
  ASSERT_EQ(restored_verdicts.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(original_verdicts[i].job_id, restored_verdicts[i].job_id);
    expect_same_result(original_verdicts[i].result,
                       restored_verdicts[i].result,
                       "job " + std::to_string(original_verdicts[i].job_id));
  }
  EXPECT_EQ(original_verdicts[0].result.prediction(), "ft");
  EXPECT_EQ(original_verdicts[1].result.prediction(), "mg");
  EXPECT_EQ(original.stats().jobs_completed, restored.stats().jobs_completed);
}

TEST_F(SnapshotFixture, PerSourceCursorsRoundTripAndLegacyBodyRestores) {
  // Extended Meta body: named per-source cursors travel and come back.
  {
    RecognitionService original = make_service();
    const std::vector<core::SourceCursor> cursors = {
        {"tcp:7411", 120}, {"udp:7412", 77}, {"shm:node0", 3}};
    RecognitionService restored = make_service();
    const ServiceRestoreInfo info =
        restore_one(restored, base_capture(original, 200, {}, cursors));
    EXPECT_EQ(info.replay_cursor, 200u);
    EXPECT_EQ(info.source_cursors, cursors);
  }
  // Legacy 8-byte Meta body (no cursor list): restores with an empty
  // source list — old snapshots stay readable.
  {
    RecognitionService original = make_service();
    RecognitionService restored = make_service();
    const ServiceRestoreInfo info =
        restore_one(restored, base_capture(original, 99));
    EXPECT_EQ(info.replay_cursor, 99u);
    EXPECT_TRUE(info.source_cursors.empty());
  }
  // A cursor count inconsistent with the section length must fail the
  // restore, not allocate: flip the count field up. Layout of the V1
  // file after its 8-byte magic: u32 len | u32 crc | u8 type | u64
  // cursor | u32 count.
  {
    RecognitionService original = make_service();
    const std::vector<core::SourceCursor> one = {{"a", 1}};
    std::string bytes = as_v1(base_capture(original, 1, {}, one));
    const std::size_t count_at = 8 + 4 + 4 + 1 + 8;
    bytes[count_at] = '\x7F';
    // Re-seal the CRC so ONLY the count lie is on trial.
    const std::size_t payload_at = 8 + 8;
    std::uint32_t payload_len = 0;
    for (int i = 0; i < 4; ++i) {
      payload_len |= static_cast<std::uint32_t>(
                         static_cast<std::uint8_t>(bytes[8 + i]))
                     << (8 * i);
    }
    const std::uint32_t crc = efd::util::crc32(
        reinterpret_cast<const std::uint8_t*>(bytes.data()) + payload_at,
        payload_len);
    for (int i = 0; i < 4; ++i) {
      bytes[8 + 4 + static_cast<std::size_t>(i)] =
          static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    RecognitionService restored = make_service();
    EXPECT_THROW(restore_one(restored, bytes), SnapshotError);
  }
}

TEST_F(SnapshotFixture, DeferredQueuesSurviveRestore) {
  RecognitionServiceConfig config;
  config.deferred = true;
  RecognitionService original = make_service(config);
  ASSERT_TRUE(original.open_job(9, 2));
  stream_range(original, 9, 6030.0, 0, 130);  // enqueued, not recognized
  ASSERT_EQ(original.stats().samples_pushed, 0u);
  ASSERT_EQ(original.stats().queued_samples, 2u * 130u);

  const std::string bytes = base_capture(original);

  RecognitionService restored = make_service(config);
  const ServiceRestoreInfo info = restore_one(restored, bytes);
  EXPECT_EQ(info.jobs_restored, 1u);
  EXPECT_EQ(restored.stats().queued_samples, 2u * 130u);

  // The restored queue recognizes exactly like the original's would.
  restored.process_pending();
  const auto verdicts = restored.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].job_id, 9u);
  EXPECT_EQ(verdicts[0].result.prediction(), "ft");
}

TEST_F(SnapshotFixture, RestoredQueuedStreamDrainsOnProcessPendingWithoutPush) {
  RecognitionServiceConfig config;
  config.deferred = true;
  RecognitionService original = make_service(config);
  ASSERT_TRUE(original.open_job(4, 2));
  ASSERT_TRUE(original.open_job(5, 2));  // idle: nothing queued
  stream_range(original, 4, 6080.0, 0, 40);

  const std::string bytes = base_capture(original);

  RecognitionService restored = make_service(config);
  ASSERT_EQ(restore_one(restored, bytes).jobs_restored, 2u);
  ASSERT_EQ(restored.stats().queued_samples, 2u * 40u);

  // No push after the restore: the restore itself marked the queued
  // stream for the next drain, and only its samples are recognized.
  EXPECT_EQ(restored.process_pending(), 2u * 40u);
  EXPECT_EQ(restored.stats().queued_samples, 0u);
  EXPECT_EQ(restored.process_pending(), 0u);

  stream_range(restored, 4, 6080.0, 40, 130);
  restored.process_pending();
  const auto verdicts = restored.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].job_id, 4u);
  EXPECT_EQ(verdicts[0].result.prediction(), "mg");
}

TEST_F(SnapshotFixture, PendingVerdictsSurviveRestore) {
  RecognitionService original = make_service();
  ASSERT_TRUE(original.open_job(5, 2));
  stream_range(original, 5, 6080.0, 0, 130);  // verdict fired, undrained

  const std::string bytes = base_capture(original);

  RecognitionService restored = make_service();
  const ServiceRestoreInfo info = restore_one(restored, bytes);
  EXPECT_EQ(info.jobs_restored, 0u);  // done stream travels as a verdict
  EXPECT_EQ(info.verdicts_restored, 1u);

  // snapshot_capture() is non-destructive: BOTH services deliver the
  // verdict.
  auto original_verdicts = original.drain_verdicts();
  auto restored_verdicts = restored.drain_verdicts();
  ASSERT_EQ(original_verdicts.size(), 1u);
  ASSERT_EQ(restored_verdicts.size(), 1u);
  EXPECT_EQ(restored_verdicts[0].job_id, 5u);
  expect_same_result(original_verdicts[0].result, restored_verdicts[0].result,
                     "pending verdict");
}

TEST_F(SnapshotFixture, SwappedEpochSurvivesRestore) {
  RecognitionService original = make_service();
  // Retrain with a third application and hot-swap it in.
  add(3, "lu", 9900.0);
  const Dictionary retrained = train_dictionary(dataset_, config_of());
  EXPECT_EQ(original.swap_dictionary(retrained).epoch, 2u);

  const std::string bytes = base_capture(original);

  RecognitionService restored = make_service();  // boots with the OLD dict
  const ServiceRestoreInfo info = restore_one(restored, bytes);
  EXPECT_EQ(info.dictionary_epoch, 2u);
  EXPECT_EQ(restored.stats().dictionary_epoch, 2u);
  EXPECT_EQ(restored.stats().dictionary_swaps, 1u);

  // The restored service recognizes the application only the swapped
  // dictionary knows — proof the embedded epoch (not the constructor's
  // dictionary) is live.
  ASSERT_TRUE(restored.open_job(1, 2));
  stream_range(restored, 1, 9870.0, 0, 130);
  const auto verdicts = restored.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].result.prediction(), "lu");
}

TEST_F(SnapshotFixture, StaleEpochStreamRestoresWithFreshWindows) {
  // A stream pinned to an epoch whose metric/interval layout differs
  // from the active dictionary (crash inside a hot-swap window) cannot
  // transfer its window sums. The restore must NOT fail the boot (a
  // crash-looping server) and must NOT misattribute state: the stream
  // comes back open with fresh windows and is reported in streams_reset.
  RecognitionService original = make_service();
  ASSERT_TRUE(original.open_job(1, 2));
  stream_range(original, 1, 6030.0, 0, 80);  // pinned to epoch 1

  // Swap in a dictionary trained with a second interval: different
  // accumulator layout for new streams.
  FingerprintConfig two_windows = config_of();
  two_windows.intervals = {{60, 120}, {120, 180}};
  original.swap_dictionary(train_dictionary(dataset_, two_windows));
  ASSERT_EQ(original.stats().jobs_on_stale_epoch, 1u);

  const std::string bytes = base_capture(original);

  RecognitionService restored = make_service();
  const ServiceRestoreInfo info = restore_one(restored, bytes);
  EXPECT_EQ(info.jobs_restored, 1u);
  EXPECT_EQ(info.streams_reset, 1u);
  EXPECT_TRUE(restored.has_job(1));

  // Fresh windows: closing the never-refilled stream yields the
  // unknown-application safeguard, not a half-transferred verdict.
  ASSERT_TRUE(restored.close_job(1));
  const auto verdicts = restored.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].result.recognized);
}

TEST_F(SnapshotFixture, RestoreRefusesUsedService) {
  const std::string bytes = mid_stream_snapshot();

  RecognitionService used = make_service();
  ASSERT_TRUE(used.open_job(77, 2));
  EXPECT_THROW(restore_one(used, bytes), SnapshotError);
  EXPECT_TRUE(used.has_job(77));  // untouched

  RecognitionService undrained = make_service();
  ASSERT_TRUE(undrained.open_job(78, 2));
  stream_range(undrained, 78, 6030.0, 0, 130);
  ASSERT_GT(undrained.stats().pending_verdicts, 0u);
  EXPECT_THROW(restore_one(undrained, bytes), SnapshotError);
}

TEST_F(SnapshotFixture, RejectsBadMagicHostileLengthsAndTrailingBytes) {
  const std::string valid = mid_stream_snapshot();
  {
    std::string bytes = valid;
    bytes[0] = 'X';
    RecognitionService service = make_service();
    EXPECT_THROW(restore_one(service, bytes), SnapshotError);
  }
  {
    // A hostile 0xFFFFFFFF section length must be rejected from the
    // 8-byte header alone — not buffered, not allocated.
    std::string bytes = valid.substr(0, 8);
    bytes += std::string("\xFF\xFF\xFF\xFF\x00\x00\x00\x00", 8);
    RecognitionService service = make_service();
    EXPECT_THROW(restore_one(service, bytes), SnapshotError);
  }
  {
    // A zero-length section cannot even hold its type byte.
    std::string bytes = valid.substr(0, 8);
    bytes += std::string(8, '\0');
    RecognitionService service = make_service();
    EXPECT_THROW(restore_one(service, bytes), SnapshotError);
  }
  {
    std::string bytes = valid + "garbage";
    RecognitionService service = make_service();
    EXPECT_THROW(restore_one(service, bytes), SnapshotError);
  }
  {
    // The valid corpus itself restores (the fuzz baseline).
    RecognitionService service = make_service();
    const ServiceRestoreInfo info = restore_one(service, valid);
    EXPECT_EQ(info.replay_cursor, 4242u);
    EXPECT_EQ(info.jobs_restored, 2u);
    EXPECT_EQ(info.verdicts_restored, 1u);
  }
}

TEST_F(SnapshotFixture, FuzzTruncationAlwaysThrowsNeverCrashes) {
  // Every strict prefix of a valid snapshot — a crash mid-write at any
  // byte — must throw SnapshotError (the End terminator makes section-
  // boundary truncation detectable), never crash or half-restore.
  const std::string valid = mid_stream_snapshot();
  for (std::size_t cut = 0; cut < valid.size();
       cut += (cut < 128 ? 1 : 7)) {  // dense early, strided in the body
    RecognitionService service = make_service();
    EXPECT_THROW(restore_one(service, valid.substr(0, cut)), SnapshotError)
        << "cut=" << cut;
    EXPECT_EQ(service.stats().active_jobs, 0u) << "cut=" << cut;
    EXPECT_EQ(service.stats().jobs_opened, 0u) << "cut=" << cut;
  }
}

TEST_F(SnapshotFixture, FuzzCorruptionAlwaysDetected) {
  // Deterministic corruption fuzzing: every byte of the file is covered
  // by the magic check or a section CRC, so any flipped byte must
  // surface as SnapshotError — never a crash, never a silent
  // half-correct restore.
  const std::string valid = mid_stream_snapshot();
  std::mt19937 rng(2021);
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> delta(1, 255);

  for (int round = 0; round < 300; ++round) {
    std::string corrupted = valid;
    const int flips = 1 + round % 4;
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = pos(rng);
      corrupted[at] = static_cast<char>(
          static_cast<std::uint8_t>(corrupted[at]) ^
          static_cast<std::uint8_t>(delta(rng)));
    }
    RecognitionService service = make_service();
    EXPECT_THROW(restore_one(service, corrupted), SnapshotError)
        << "round=" << round;
  }
}

TEST_F(SnapshotFixture, PooledDrainMidStreamRestoreYieldsIdenticalVerdicts) {
  // Snapshot a deferred service mid-stream, with windows half-filled by
  // a pooled drain and samples still queued, then finish the original
  // and two restored services — one drained on the calling thread, one
  // fanned across a 3-thread pool. All three verdict tables must match.
  RecognitionServiceConfig config;
  config.deferred = true;
  constexpr std::uint64_t kJobs = 6;
  const auto level = [](std::uint64_t job) {
    return job % 2 == 0 ? 6030.0 : 6080.0;
  };
  util::ThreadPool pool(3);
  RecognitionService service = make_service(config);
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    ASSERT_TRUE(service.open_job(job, 2));
    stream_range(service, job, level(job), 0, 70);
  }
  service.process_pending(&pool);
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    stream_range(service, job, level(job), 70, 80);  // left queued
  }
  const std::string snapshot = base_capture(service);

  // Finish a service's jobs and return its verdicts sorted by job id.
  const auto finish = [&](RecognitionService& target, util::ThreadPool* with) {
    for (std::uint64_t job = 1; job <= kJobs; ++job) {
      stream_range(target, job, level(job), 80, 130);
    }
    target.process_pending(with);
    std::vector<JobVerdict> verdicts = target.drain_verdicts();
    EXPECT_EQ(verdicts.size(), kJobs);
    std::sort(verdicts.begin(), verdicts.end(),
              [](const JobVerdict& a, const JobVerdict& b) {
                return a.job_id < b.job_id;
              });
    return verdicts;
  };

  const std::vector<JobVerdict> original = finish(service, nullptr);
  for (util::ThreadPool* with : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool}) {
    const std::string context = with == nullptr ? "inline" : "pooled";
    RecognitionService restored = make_service(config);
    const ServiceRestoreInfo info = restore_one(restored, snapshot);
    EXPECT_EQ(info.jobs_restored, kJobs) << context;
    EXPECT_EQ(restored.stats().queued_samples, kJobs * 20) << context;
    const std::vector<JobVerdict> verdicts = finish(restored, with);
    ASSERT_EQ(verdicts.size(), original.size()) << context;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(verdicts[i].job_id, original[i].job_id);
      expect_same_result(verdicts[i].result, original[i].result,
                         context + " job " +
                             std::to_string(verdicts[i].job_id));
    }
  }
}

TEST_F(SnapshotFixture, SnapshotUnderLiveTrafficStaysRestorable) {
  // The owner interleaves captures with live traffic: after every slice
  // of pushes, and in deferred mode after every pooled drain too (the
  // serve --threads shape). Each capture is one consistent point —
  // every job is exactly one open stream or one pending verdict — and
  // finishing any restored capture yields the uninterrupted run's
  // verdict table.
  const auto level = [](std::uint64_t job) {
    return job % 2 == 0 ? 6030.0 : 6080.0;
  };
  const auto by_job = [](std::vector<JobVerdict> verdicts) {
    std::sort(verdicts.begin(), verdicts.end(),
              [](const JobVerdict& a, const JobVerdict& b) {
                return a.job_id < b.job_id;
              });
    return verdicts;
  };
  constexpr std::uint64_t kJobs = 8;
  for (const bool deferred : {false, true}) {
    const std::string mode = deferred ? "deferred" : "inline";
    RecognitionServiceConfig config;
    config.deferred = deferred;
    util::ThreadPool pool(2);
    RecognitionService service = make_service(config);
    for (std::uint64_t job = 1; job <= kJobs; ++job) {
      ASSERT_TRUE(service.open_job(job, 2));
    }

    std::vector<std::string> captures;
    std::vector<int> streamed_to;  // ticks pushed when each was taken
    const auto capture = [&](int to) {
      captures.push_back(base_capture(service, captures.size()));
      streamed_to.push_back(to);
    };
    for (int t = 0; t < 130; t += 10) {
      for (std::uint64_t job = 1; job <= kJobs; ++job) {
        stream_range(service, job, level(job), t, t + 10);
      }
      capture(t + 10);
      if (deferred) {
        service.process_pending(&pool);
        capture(t + 10);
      }
    }
    const std::vector<JobVerdict> want = by_job(service.drain_verdicts());
    ASSERT_EQ(want.size(), kJobs) << mode;

    for (std::size_t i = 0; i < captures.size(); ++i) {
      const std::string context = mode + " capture " + std::to_string(i);
      RecognitionService restored = make_service(config);
      const ServiceRestoreInfo info = restore_one(restored, captures[i]);
      EXPECT_EQ(info.replay_cursor, i) << context;
      EXPECT_EQ(info.jobs_restored + info.verdicts_restored, kJobs) << context;
      for (std::uint64_t job = 1; job <= kJobs; ++job) {
        stream_range(restored, job, level(job), streamed_to[i], 130);
      }
      restored.process_pending(&pool);
      const std::vector<JobVerdict> got = by_job(restored.drain_verdicts());
      ASSERT_EQ(got.size(), kJobs) << context;
      for (std::size_t j = 0; j < kJobs; ++j) {
        EXPECT_EQ(got[j].job_id, want[j].job_id) << context;
        expect_same_result(got[j].result, want[j].result, context);
      }
    }
  }
}

// --- EFD-SNAP-V2: incremental base+delta capture chains ----------------

class SnapshotChainFixture : public SnapshotFixture {
 protected:
  /// Drains and sorts a finished service's verdicts for table diffs.
  static std::vector<JobVerdict> sorted_verdicts(RecognitionService& service) {
    auto verdicts = service.drain_verdicts();
    std::sort(verdicts.begin(), verdicts.end(),
              [](const JobVerdict& a, const JobVerdict& b) {
                return a.job_id < b.job_id;
              });
    return verdicts;
  }
};

TEST_F(SnapshotChainFixture, FirstCaptureIsABaseAndRestoresAlone) {
  RecognitionService original = make_service();
  ASSERT_TRUE(original.open_job(1, 2));
  ASSERT_TRUE(original.open_job(2, 2));
  stream_range(original, 1, 6030.0, 0, 80);
  stream_range(original, 2, 6080.0, 0, 95);

  SnapshotChainState chain;
  std::ostringstream capture_out;
  const SnapshotCaptureInfo info =
      original.snapshot_capture(capture_out, chain, false, 321);
  EXPECT_TRUE(info.base);
  EXPECT_EQ(info.capture_id, 1u);
  EXPECT_EQ(info.parent_id, 0u);
  EXPECT_EQ(info.streams_written, 2u);
  EXPECT_EQ(chain.last_capture_id, 1u);
  EXPECT_EQ(chain.deltas_since_base, 0u);

  RecognitionService restored = make_service();
  const ServiceRestoreInfo restore_info =
      restore_from(restored, {std::move(capture_out).str()}, 1);
  EXPECT_EQ(restore_info.replay_cursor, 321u);
  EXPECT_EQ(restore_info.jobs_restored, 2u);

  stream_range(original, 1, 6030.0, 80, 130);
  stream_range(original, 2, 6080.0, 95, 130);
  stream_range(restored, 1, 6030.0, 80, 130);
  stream_range(restored, 2, 6080.0, 95, 130);
  const auto expected = sorted_verdicts(original);
  const auto actual = sorted_verdicts(restored);
  ASSERT_EQ(expected.size(), 2u);
  ASSERT_EQ(actual.size(), 2u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expect_same_result(expected[i].result, actual[i].result,
                       "job " + std::to_string(expected[i].job_id));
  }
}

TEST_F(SnapshotChainFixture, ChainRestoreEqualsFullSnapshotAtEveryLength) {
  // Grow a chain one capture at a time; after EVERY capture, the chain
  // restore and a lone base of the same instant must finish the replay
  // with identical verdict tables.
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  ASSERT_TRUE(service.open_job(3, 2));

  SnapshotChainState chain;
  std::vector<std::string> captures;
  const auto advance = [&](int from, int to) {
    stream_range(service, 1, 6030.0, from, to);
    stream_range(service, 2, 6080.0, from, to);
    stream_range(service, 3, 6030.0, from, std::min(to, 110));
  };

  int cursor = 0;
  for (const int upto : {20, 45, 70, 95, 120}) {
    advance(cursor, upto);
    cursor = upto;
    std::ostringstream capture_out;
    service.snapshot_capture(capture_out, chain, false,
                             static_cast<std::uint64_t>(upto));
    captures.push_back(std::move(capture_out).str());

    RecognitionService from_chain = make_service();
    const ServiceRestoreInfo chain_info =
        restore_from(from_chain, captures, captures.size());
    RecognitionService from_full = make_service();
    const ServiceRestoreInfo full_info = restore_one(
        from_full, base_capture(service, static_cast<std::uint64_t>(upto)));
    EXPECT_EQ(chain_info.replay_cursor, full_info.replay_cursor);
    EXPECT_EQ(chain_info.jobs_restored, full_info.jobs_restored);
    EXPECT_EQ(chain_info.verdicts_restored, full_info.verdicts_restored);

    for (RecognitionService* target : {&from_chain, &from_full}) {
      stream_range(*target, 1, 6030.0, cursor, 130);
      stream_range(*target, 2, 6080.0, cursor, 130);
      if (cursor < 110) stream_range(*target, 3, 6030.0, cursor, 110);
      if (target->has_job(3)) ASSERT_TRUE(target->close_job(3));
    }
    const auto expected = sorted_verdicts(from_full);
    const auto actual = sorted_verdicts(from_chain);
    ASSERT_EQ(actual.size(), expected.size()) << "chain len " << captures.size();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].job_id, expected[i].job_id);
      expect_same_result(expected[i].result, actual[i].result,
                         "chain len " + std::to_string(captures.size()) +
                             " job " + std::to_string(expected[i].job_id));
    }
  }
  // The whole run stayed one base + four deltas.
  EXPECT_EQ(chain.deltas_since_base, 4u);
}

TEST_F(SnapshotChainFixture, DeltaOmitsUnchangedStreamsAndStaysSmall) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  stream_range(service, 1, 6030.0, 0, 60);
  stream_range(service, 2, 6080.0, 0, 60);

  SnapshotChainState chain;
  std::ostringstream base_out;
  const SnapshotCaptureInfo base = service.snapshot_capture(base_out, chain);
  ASSERT_TRUE(base.base);

  // Only job 1 moves: the delta must carry exactly one stream section
  // and be dramatically smaller than the base (no Dictionary inside).
  stream_range(service, 1, 6030.0, 60, 70);
  std::ostringstream delta_out;
  const SnapshotCaptureInfo delta = service.snapshot_capture(delta_out, chain);
  EXPECT_FALSE(delta.base);
  EXPECT_EQ(delta.parent_id, base.capture_id);
  EXPECT_EQ(delta.streams_written, 1u);
  EXPECT_EQ(delta.streams_unchanged, 1u);
  // This fixture's two-application dictionary is tiny, so the base is
  // artificially small; the production-shape ≥5x ratio is measured by
  // bench_retrain_cycle. Here: the delta must at least beat the base.
  EXPECT_LT(delta.bytes, base.bytes)
      << "delta " << delta.bytes << " B vs base " << base.bytes << " B";

  // Nothing moves at all: a pure cursor tick writes zero streams.
  std::ostringstream idle_out;
  const SnapshotCaptureInfo idle = service.snapshot_capture(idle_out, chain);
  EXPECT_FALSE(idle.base);
  EXPECT_EQ(idle.streams_written, 0u);
  EXPECT_EQ(idle.streams_unchanged, 2u);
}

TEST_F(SnapshotChainFixture, ClosedJobsTravelInDeltasAndEpochChangeForcesBase) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  stream_range(service, 1, 6030.0, 0, 40);
  stream_range(service, 2, 6080.0, 0, 100);  // still mid-stream at the base

  SnapshotChainState chain;
  std::ostringstream base_out;
  ASSERT_TRUE(service.snapshot_capture(base_out, chain).base);

  // Job 2 completes BETWEEN captures: its stream disappears, so the
  // next delta must name it in ClosedJobs.
  stream_range(service, 2, 6080.0, 100, 130);
  ASSERT_EQ(service.drain_verdicts().size(), 1u);  // job 2 is gone

  std::ostringstream delta_out;
  const SnapshotCaptureInfo delta = service.snapshot_capture(delta_out, chain);
  EXPECT_FALSE(delta.base);
  EXPECT_EQ(delta.jobs_closed, 1u);

  RecognitionService restored = make_service();
  restore_from(restored, {base_out.str(), delta_out.str()}, 2);
  EXPECT_TRUE(restored.has_job(1));
  EXPECT_FALSE(restored.has_job(2));  // ClosedJobs removed it on replay

  // A hot-swap changes the dictionary identity: the next capture MUST
  // be a base (deltas never carry a Dictionary section).
  add(3, "lu", 9900.0);
  service.swap_dictionary(train_dictionary(dataset_, config_of()));
  std::ostringstream rebase_out;
  const SnapshotCaptureInfo rebase = service.snapshot_capture(rebase_out, chain);
  EXPECT_TRUE(rebase.base);
  EXPECT_EQ(rebase.parent_id, 0u);
  EXPECT_EQ(chain.deltas_since_base, 0u);

  // force_base also rebases even with no dictionary change.
  std::ostringstream forced_out;
  EXPECT_TRUE(service.snapshot_capture(forced_out, chain, true).base);
}

TEST_F(SnapshotChainFixture, GoldenCaptureBytesStayIdentical) {
  // One fixed state (two streams, a hot-swap, a third stream on the new
  // epoch, a Retrain blob and two source cursors), captured as a base
  // and then as a delta after one job completes. Length and CRC32 pin
  // every byte of both captures: files already on disk must keep
  // restoring, so a writer change that moves a byte needs a new format
  // version, not a new golden value.
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  stream_range(service, 1, 6030.0, 0, 40);
  stream_range(service, 2, 6080.0, 0, 100);
  add(3, "lu", 9900.0);
  ASSERT_EQ(
      service.swap_dictionary(train_dictionary(dataset_, config_of())).epoch,
      2u);
  ASSERT_TRUE(service.open_job(3, 2));
  stream_range(service, 3, 9870.0, 0, 30);
  const std::string blob_text = "golden-retrain";
  const std::vector<std::uint8_t> blob(blob_text.begin(), blob_text.end());
  const std::vector<SourceCursor> cursors = {{"tcp:7411", 120},
                                             {"udp:7412", 77}};

  SnapshotChainState chain;
  std::ostringstream base_out;
  const SnapshotCaptureInfo base =
      service.snapshot_capture(base_out, chain, false, 500, blob, cursors);
  stream_range(service, 1, 6030.0, 40, 60);
  stream_range(service, 2, 6080.0, 100, 130);  // job 2's verdict fires
  std::ostringstream delta_out;
  const SnapshotCaptureInfo delta =
      service.snapshot_capture(delta_out, chain, false, 600, blob, cursors);
  ASSERT_TRUE(base.base);
  ASSERT_FALSE(delta.base);
  EXPECT_EQ(delta.jobs_closed, 1u);

  const auto crc_of = [](const std::string& bytes) {
    return util::crc32(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       bytes.size());
  };
  const std::string base_bytes = std::move(base_out).str();
  const std::string delta_bytes = std::move(delta_out).str();
  EXPECT_EQ(base_bytes.size(), 848u);
  EXPECT_EQ(crc_of(base_bytes), 0x3cde4827u);
  EXPECT_EQ(delta_bytes.size(), 402u);
  EXPECT_EQ(crc_of(delta_bytes), 0xa606bd4bu);
  EXPECT_EQ(base.bytes, base_bytes.size());
  EXPECT_EQ(delta.bytes, delta_bytes.size());
}

/// The checked-in EFD-SNAP-V1 file. It was written by the V1 writer
/// itself (RecognitionService::snapshot, since deleted), not derived from
/// a base capture, so it stands for files already on disk. Its state, a
/// deferred service over this fixture's dictionary: job 1 (ft) completed
/// with its verdict pending, job 2 (mg) open after ticks [0, 50) were
/// drained and [50, 80) still queued, replay cursor 4242, a 21-byte
/// Retrain blob and two named source cursors.
std::string legacy_v1_path() {
  return std::string(EFD_TEST_DATA_DIR) + "/legacy_v1.efds";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// What the V1 writer's own restore() returned for the legacy file.
void expect_legacy_v1_info(const ServiceRestoreInfo& info) {
  EXPECT_EQ(info.replay_cursor, 4242u);
  EXPECT_EQ(info.last_capture_id, 0u);
  EXPECT_EQ(info.dictionary_epoch, 1u);
  EXPECT_EQ(info.jobs_restored, 1u);
  EXPECT_EQ(info.verdicts_restored, 1u);
  EXPECT_EQ(info.streams_reset, 0u);
  const std::string blob = "retrain-state-fixture";
  EXPECT_EQ(info.retrain_state,
            std::vector<std::uint8_t>(blob.begin(), blob.end()));
  const std::vector<SourceCursor> cursors = {{"tcp:7411", 120},
                                             {"udp:7412", 77}};
  EXPECT_EQ(info.source_cursors, cursors);
}

TEST_F(SnapshotChainFixture, LegacyV1FileRestoresThroughBothEntries) {
  RecognitionServiceConfig deferred;
  deferred.deferred = true;
  const std::string v1 = read_file(legacy_v1_path());
  ASSERT_EQ(v1.compare(0, kSnapshotMagicBytes, kSnapshotMagic), 0);

  // restore_chain() on the file alone, and the ingest layer's on-disk
  // chain restore, each rebuild what the V1 writer's restore() did.
  RecognitionService from_chain = make_service(deferred);
  expect_legacy_v1_info(restore_one(from_chain, v1));
  RecognitionService from_disk = make_service(deferred);
  const ingest::ChainRestoreResult disk =
      ingest::restore_service_from_chain(from_disk, legacy_v1_path());
  expect_legacy_v1_info(disk.info);
  EXPECT_EQ(disk.deltas_discarded, 0u);
  EXPECT_TRUE(disk.fallback_error.empty());

  for (RecognitionService* service : {&from_chain, &from_disk}) {
    EXPECT_EQ(service->stats().queued_samples, 2u * 30u);
    // Closing the jobs gives the verdicts the V1 restore gave: job 1's
    // pending ft verdict, and job 2 force-closed before its window.
    EXPECT_FALSE(service->close_job(1));
    EXPECT_TRUE(service->close_job(2));
    const auto verdicts = sorted_verdicts(*service);
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[0].job_id, 1u);
    EXPECT_TRUE(verdicts[0].result.recognized);
    EXPECT_EQ(verdicts[0].result.prediction(), "ft");
    EXPECT_EQ(verdicts[0].result.fingerprint_count, 2u);
    EXPECT_EQ(verdicts[0].result.matched_count, 2u);
    EXPECT_EQ(verdicts[1].job_id, 2u);
    EXPECT_FALSE(verdicts[1].result.recognized);
    EXPECT_EQ(verdicts[1].result.fingerprint_count, 0u);
  }

  // The restored window state is live: finishing job 2 recognizes mg.
  RecognitionService finished = make_service(deferred);
  restore_one(finished, v1);
  stream_range(finished, 2, 6080.0, 80, 130);
  finished.process_pending();
  const auto verdicts = sorted_verdicts(finished);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[1].result.prediction(), "mg");
  EXPECT_EQ(verdicts[1].result.matched_count, 2u);
}

TEST_F(SnapshotChainFixture, LegacyV1FileInsideAChainIsRejected) {
  const std::string v1 = read_file(legacy_v1_path());
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  stream_range(service, 1, 6030.0, 0, 40);
  SnapshotChainState chain;
  std::vector<std::string> captures;
  for (int round = 0; round < 2; ++round) {
    stream_range(service, 1, 6030.0, 40 + round * 10, 50 + round * 10);
    std::ostringstream out;
    service.snapshot_capture(out, chain);
    captures.push_back(std::move(out).str());
  }
  ASSERT_EQ(chain.deltas_since_base, 1u);

  // A V1 part has no chain identity: followed by a delta, or following
  // a base, the whole restore fails with the service untouched.
  for (const std::vector<std::string>& parts :
       {std::vector<std::string>{v1, captures[1]},
        std::vector<std::string>{captures[0], v1}}) {
    RecognitionService fresh = make_service();
    EXPECT_THROW(restore_from(fresh, parts, parts.size()), SnapshotError);
    EXPECT_EQ(fresh.stats().active_jobs, 0u);
    EXPECT_EQ(fresh.stats().pending_verdicts, 0u);
  }
}

/// The EFD-DICT-V1 text a snapshot's Dictionary section carries (V1 file
/// or V2 capture); empty when it has none.
std::string dictionary_section_text(const std::string& snapshot) {
  const bool v2 =
      snapshot.compare(0, kSnapshotMagicBytes, kSnapshotMagicV2) == 0;
  std::size_t pos = v2 ? kCaptureHeadBytes : kSnapshotMagicBytes;
  const auto* data = reinterpret_cast<const std::uint8_t*>(snapshot.data());
  // Dictionary payload: u8 type | u64 epoch version | u64 swap count | text.
  constexpr std::size_t kPrefix = 17;
  while (pos + 8 <= snapshot.size()) {
    util::ByteReader header(data + pos, 8);
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    EXPECT_TRUE(header.read_u32(length) && header.read_u32(crc));
    pos += 8;
    if (length >= kPrefix && pos + length <= snapshot.size() &&
        data[pos] == static_cast<std::uint8_t>(SnapshotSection::kDictionary)) {
      return snapshot.substr(pos + kPrefix, length - kPrefix);
    }
    pos += length;
  }
  return {};
}

/// An epoch's cached bytes are exactly a fresh save() of its dictionary.
void expect_bytes_coherent(const DictionaryHandle::Epoch& epoch,
                           const std::string& context) {
  std::string fresh;
  epoch.dictionary.save(fresh);
  EXPECT_EQ(epoch.bytes, fresh) << context;
}

TEST_F(SnapshotChainFixture, EpochBytesStayCoherentThroughSwapBaseAndRestores) {
  RecognitionService service = make_service();
  expect_bytes_coherent(*service.dictionary_handle().acquire(), "initial");
  ASSERT_TRUE(service.open_job(1, 2));
  stream_range(service, 1, 6030.0, 0, 40);

  SnapshotChainState chain;
  std::ostringstream first_base;
  ASSERT_TRUE(service.snapshot_capture(first_base, chain).base);
  EXPECT_EQ(dictionary_section_text(first_base.str()),
            service.dictionary_handle().acquire()->bytes);

  add(3, "lu", 9900.0);
  ASSERT_FALSE(
      service.swap_dictionary(train_dictionary(dataset_, config_of()))
          .already_active);
  const auto swapped = service.dictionary_handle().acquire();
  EXPECT_EQ(swapped->version, 2u);
  expect_bytes_coherent(*swapped, "swap");

  // The base captured right after the swap embeds the new epoch's bytes.
  std::vector<std::string> captures;
  std::ostringstream rebase;
  ASSERT_TRUE(service.snapshot_capture(rebase, chain).base);
  captures.push_back(rebase.str());
  EXPECT_EQ(dictionary_section_text(captures.back()), swapped->bytes);
  stream_range(service, 1, 6030.0, 40, 60);
  std::ostringstream delta;
  ASSERT_FALSE(service.snapshot_capture(delta, chain).base);
  captures.push_back(delta.str());

  const std::string v1 = as_v1(base_capture(service));
  EXPECT_EQ(dictionary_section_text(v1), swapped->bytes);
  RecognitionService from_v1 = make_service();
  restore_one(from_v1, v1);
  const auto v1_epoch = from_v1.dictionary_handle().acquire();
  expect_bytes_coherent(*v1_epoch, "V1 restore");
  EXPECT_EQ(v1_epoch->bytes, swapped->bytes);

  RecognitionService from_chain = make_service();
  restore_from(from_chain, captures, captures.size());
  const auto chain_epoch = from_chain.dictionary_handle().acquire();
  expect_bytes_coherent(*chain_epoch, "V2 chain restore");
  EXPECT_EQ(chain_epoch->bytes, swapped->bytes);
}

TEST_F(SnapshotChainFixture, BrokenChainLinksAlwaysThrowWithServiceUntouched) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  stream_range(service, 1, 6030.0, 0, 40);

  SnapshotChainState chain;
  std::vector<std::string> captures;
  for (int round = 0; round < 3; ++round) {
    stream_range(service, 1, 6030.0, 40 + round * 10, 50 + round * 10);
    std::ostringstream out;
    service.snapshot_capture(out, chain);
    captures.push_back(std::move(out).str());
  }

  {
    // A delta can never start a chain.
    RecognitionService fresh = make_service();
    EXPECT_THROW(restore_from(fresh, {captures[1]}, 1), SnapshotError);
    EXPECT_EQ(fresh.stats().active_jobs, 0u);
  }
  {
    // A missing middle link breaks parent_id continuity.
    RecognitionService fresh = make_service();
    EXPECT_THROW(restore_from(fresh, {captures[0], captures[2]}, 2),
                 SnapshotError);
    EXPECT_EQ(fresh.stats().active_jobs, 0u);
  }
  {
    // The intact chain is the baseline: it restores.
    RecognitionService fresh = make_service();
    const ServiceRestoreInfo info = restore_from(fresh, captures, 3);
    EXPECT_EQ(info.jobs_restored, 1u);
  }
}

TEST_F(SnapshotChainFixture, BrokenDeltaLinkOnDiskRestoresBaseOnlyAndNamesV2) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  stream_range(service, 1, 6030.0, 0, 40);
  SnapshotChainState chain;
  std::vector<std::pair<SnapshotCaptureInfo, std::string>> captures;
  for (int round = 0; round < 3; ++round) {
    stream_range(service, 1, 6030.0, 40 + round * 10, 50 + round * 10);
    std::ostringstream out;
    const SnapshotCaptureInfo info =
        service.snapshot_capture(out, chain, false, 100 + round);
    captures.emplace_back(info, std::move(out).str());
  }

  // The middle delta never landed, so the last one's parent is missing.
  const std::string path =
      ::testing::TempDir() + "/test_snapshot_broken_link.efds";
  for (const std::size_t i : {0u, 2u}) {
    const auto& [info, bytes] = captures[i];
    std::string error;
    ASSERT_TRUE(ingest::persist_capture(
        path, info.base, info.capture_id,
        {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()},
        &error))
        << error;
  }
  RecognitionService restored = make_service();
  const ingest::ChainRestoreResult result =
      ingest::restore_service_from_chain(restored, path);
  EXPECT_EQ(result.deltas_discarded, 1u);
  EXPECT_EQ(result.info.last_capture_id, captures[0].first.capture_id);
  EXPECT_EQ(result.info.replay_cursor, 100u);
  EXPECT_EQ(result.info.jobs_restored, 1u);
  EXPECT_NE(result.fallback_error.find("EFD-SNAP-V2: broken chain link"),
            std::string::npos)
      << result.fallback_error;
  EXPECT_EQ(result.fallback_error.find("EFD-SNAP-V1"), std::string::npos)
      << result.fallback_error;
  ingest::remove_chain_deltas(path);
  std::filesystem::remove(path);
}

TEST_F(SnapshotChainFixture, FuzzDeltaCorruptionAlwaysDetected) {
  // Every flipped byte in any capture of the chain must surface as
  // SnapshotError on replay — CRC sections plus envelope checks leave
  // no silent window — and the target service must stay untouched.
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  stream_range(service, 1, 6030.0, 0, 50);
  stream_range(service, 2, 6080.0, 0, 50);

  SnapshotChainState chain;
  std::vector<std::string> captures;
  for (int round = 0; round < 3; ++round) {
    stream_range(service, 1, 6030.0, 50 + round * 10, 60 + round * 10);
    std::ostringstream out;
    service.snapshot_capture(out, chain);
    captures.push_back(std::move(out).str());
  }

  std::mt19937 rng(2021);
  std::uniform_int_distribution<std::size_t> which(0, captures.size() - 1);
  std::uniform_int_distribution<int> delta(1, 255);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::string> corrupted = captures;
    const std::size_t part = which(rng);
    std::uniform_int_distribution<std::size_t> pos(0,
                                                   corrupted[part].size() - 1);
    std::size_t at = pos(rng);
    // The one deliberately unprotected window: the HEAD capture's own
    // envelope capture_id (bytes 9..16) has no later parent link to
    // validate it and no CRC. A flip there only skews the follower's
    // resume cursor, which the kFollowRequest handshake self-heals
    // (unknown cursor => the leader resends the full chain). Every
    // other byte of every capture must be caught — steer around it.
    while (part == captures.size() - 1 && at >= 9 && at < 17) at = pos(rng);
    corrupted[part][at] = static_cast<char>(
        static_cast<std::uint8_t>(corrupted[part][at]) ^
        static_cast<std::uint8_t>(delta(rng)));
    RecognitionService fresh = make_service();
    EXPECT_THROW(restore_from(fresh, corrupted, corrupted.size()),
                 SnapshotError)
        << "round=" << round << " part=" << part << " at=" << at;
    EXPECT_EQ(fresh.stats().active_jobs, 0u) << "round=" << round;
  }

  // Truncation of the final capture — the torn-write shape — too.
  for (std::size_t cut = 0; cut < captures.back().size();
       cut += (cut < 64 ? 1 : 11)) {
    std::vector<std::string> torn = captures;
    torn.back() = torn.back().substr(0, cut);
    RecognitionService fresh = make_service();
    EXPECT_THROW(restore_from(fresh, torn, torn.size()), SnapshotError)
        << "cut=" << cut;
  }
}

}  // namespace

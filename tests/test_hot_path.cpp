/// \file test_hot_path.cpp
/// \brief Hot-path guarantees behind bench_hot_path's numbers: the
/// counting-allocator proof that steady-state recognition, pooled frame
/// decode and the source mux's poll/verdict path stop touching the heap,
/// bit-exactness of the SIMD rounding kernel against both the scalar
/// build and the legacy libm formula, pooled-decoder and online
/// slot-path parity, UDP control retransmit bounds, and a
/// concurrent-scratch case for the TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "core/dictionary_handle.hpp"
#include "core/fingerprint.hpp"
#include "core/matcher.hpp"
#include "core/online_recognizer.hpp"
#include "core/recognition_scratch.hpp"
#include "core/rounding.hpp"
#include "core/rounding_kernel.hpp"
#include "core/trainer.hpp"
#include "ingest/buffer_pool.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/shm_transport.hpp"
#include "ingest/source_mux.hpp"
#include "ingest/tcp_transport.hpp"
#include "ingest/transport_feed.hpp"
#include "ingest/udp_transport.hpp"
#include "ingest/wire_format.hpp"
#include "util/rng.hpp"

// --- counting allocator ------------------------------------------------
// Global new/delete replacements: every heap allocation (and every free)
// in this binary bumps one relaxed counter. Tests snapshot the counters
// around a warmed steady-state window and assert they do not move, or
// around a dictionary publication step and bound them.

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
std::atomic<std::uint64_t> g_free_count{0};

void* counted_allocate(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* pointer = std::malloc(size != 0 ? size : 1)) return pointer;
  throw std::bad_alloc();
}

void* counted_allocate(std::size_t size, std::align_val_t alignment) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(alignment);
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* pointer = std::aligned_alloc(align, rounded != 0 ? rounded : align))
    return pointer;
  throw std::bad_alloc();
}

std::uint64_t allocations() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

void counted_free(void* pointer) noexcept {
  if (pointer == nullptr) return;
  g_free_count.fetch_add(1, std::memory_order_relaxed);
  std::free(pointer);
}

std::uint64_t frees() { return g_free_count.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_allocate(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_allocate(size, alignment);
}
void operator delete(void* pointer) noexcept { counted_free(pointer); }
void operator delete[](void* pointer) noexcept { counted_free(pointer); }
void operator delete(void* pointer, std::size_t) noexcept {
  counted_free(pointer);
}
void operator delete[](void* pointer, std::size_t) noexcept {
  counted_free(pointer);
}
void operator delete(void* pointer, std::align_val_t) noexcept {
  counted_free(pointer);
}
void operator delete[](void* pointer, std::align_val_t) noexcept {
  counted_free(pointer);
}

namespace {

using namespace efd;
using namespace efd::ingest;
using core::RecognitionService;
using core::RecognitionServiceConfig;

core::FingerprintConfig config_of() {
  core::FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

/// Two-app constant-signal fixture (the ingest-test shape).
class HotPathFixture : public ::testing::Test {
 protected:
  HotPathFixture() : dataset_({"nr_mapped_vmstat"}) {
    add(1, "ft", 6000.0);
    add(2, "mg", 6100.0);
    dictionary_ = core::train_dictionary(dataset_, config_of());
  }

  void add(std::uint64_t id, const std::string& app, double level) {
    telemetry::ExecutionRecord record(id, {app, "X"}, 2, 1);
    for (std::size_t n = 0; n < 2; ++n) {
      for (int t = 0; t < 150; ++t) record.series(n, 0).push_back(level);
    }
    dataset_.add(std::move(record));
  }

  RecognitionService make_service() {
    RecognitionServiceConfig config;
    config.deferred = true;
    return RecognitionService(dictionary_, config);
  }

  static void send_job(MessageSender& sender, std::uint64_t job_id,
                       double level, int ticks = 130) {
    TransportFeed feed(sender, /*batch_samples=*/64);
    feed.job_opened(job_id, 2);
    for (int t = 0; t < ticks; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        feed.publish(node, "nr_mapped_vmstat", t, level);
      }
    }
    feed.job_closed(job_id);
  }

  telemetry::Dataset dataset_;
  core::Dictionary dictionary_;
};

// --- steady-state allocation counts ------------------------------------

TEST_F(HotPathFixture, RecognizeIntoIsAllocationFreeAfterWarmup) {
  const core::Matcher matcher(dictionary_);
  const std::vector<std::size_t> slots = {0};
  core::RecognitionScratch scratch;

  // Warm the arena, lanes, and vote arrays.
  for (int pass = 0; pass < 2; ++pass) {
    for (const telemetry::ExecutionRecord& record : dataset_.records()) {
      matcher.recognize_into(record, slots, scratch);
    }
  }

  const std::uint64_t before = allocations();
  std::size_t matched = 0;
  for (int pass = 0; pass < 50; ++pass) {
    for (const telemetry::ExecutionRecord& record : dataset_.records()) {
      matcher.recognize_into(record, slots, scratch);
      matched += scratch.result().matched_count;
    }
  }
  EXPECT_EQ(allocations(), before) << "recognize_into allocated in steady state";
  EXPECT_GT(matched, 0u);
}

TEST_F(HotPathFixture, MillionSamplesThroughDecodeAndPushAreAllocationFree) {
  // The serve path's two per-sample stages — pooled frame decode and
  // slot-addressed accumulation — at the acceptance scale: one million
  // samples, amortized-zero allocations after warmup.
  constexpr std::size_t kSamplesPerFrame = 500;
  constexpr int kFrames = 2000;  // 1M samples total

  Message batch;
  batch.type = MessageType::kSampleBatch;
  batch.job_id = 1;
  for (std::size_t i = 0; i < kSamplesPerFrame; ++i) {
    WireSample sample;
    sample.metric = "nr_mapped_vmstat";
    sample.node_id = static_cast<std::uint32_t>(i % 2);
    sample.t = static_cast<std::int64_t>(i);
    sample.value = 6000.0;
    batch.samples.push_back(std::move(sample));
  }
  std::vector<std::uint8_t> frame;
  encode_frame(batch, frame);

  SampleBufferPool pool;  // private pool: deterministic stats
  FrameDecoder decoder;
  decoder.set_buffer_pool(&pool);
  core::OnlineRecognizer recognizer(dictionary_, 2);
  const std::uint32_t slot = recognizer.metric_slot("nr_mapped_vmstat");
  ASSERT_NE(slot, core::kNoMetricSlot);

  Message out;
  bool decode_failed = false;
  // No gtest assertions inside: the loop body is the measured window and
  // must not allocate on its success path.
  const auto pump = [&](int frames) {
    for (int i = 0; i < frames; ++i) {
      decoder.feed(frame);
      if (decoder.next(out) != DecodeStatus::kMessage) {
        decode_failed = true;
        return;
      }
      for (const WireSample& sample : out.samples) {
        recognizer.push_slot(sample.node_id, slot,
                             static_cast<int>(sample.t), sample.value);
      }
      pool.release(std::move(out.samples));
    }
  };

  pump(4);  // warmup: decoder buffer, pool, string capacities
  ASSERT_FALSE(decode_failed);
  const std::uint64_t before = allocations();
  pump(kFrames);
  ASSERT_FALSE(decode_failed);
  EXPECT_EQ(allocations(), before)
      << "pooled decode + push_slot allocated in steady state";
  const SampleBufferPool::Stats stats = pool.stats();
  EXPECT_GE(stats.hits, static_cast<std::uint64_t>(kFrames));
  EXPECT_TRUE(recognizer.ready());
  EXPECT_EQ(recognizer.result()->prediction(), "ft");
}

TEST_F(HotPathFixture, MixedSizeBatchesThroughTheViewDecodeAreAllocationFree) {
  // serve's per-sample path as dispatch runs it: the view decode, the
  // read into the push scratch, push_unread_batch and process_pending.
  // Eight jobs rotate through batch sizes 1, 2, 5, 16 and 32, so batch
  // sizes change from frame to frame (the fleet shape, one sample per
  // node). Ticks stay inside the first window, so no job completes.
  constexpr std::uint64_t kJobs = 8;
  const std::size_t sizes[] = {1, 2, 5, 16, 32};
  constexpr std::size_t kDistinct = 40;  // lcm(8 jobs, 5 sizes)
  std::vector<std::vector<std::uint8_t>> frames(kDistinct);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    Message batch;
    batch.type = MessageType::kSampleBatch;
    batch.job_id = 1 + i % kJobs;
    for (std::size_t s = 0; s < sizes[i % 5]; ++s) {
      batch.samples.push_back({static_cast<std::uint32_t>(s % 2),
                               static_cast<std::int32_t>((i + s) % 50),
                               6000.0, "nr_mapped_vmstat"});
    }
    encode_frame(batch, frames[i]);
  }

  RecognitionService service = make_service();
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    ASSERT_TRUE(service.open_job(job, 2));
  }
  FrameDecoder decoder;
  Message message;
  SampleBatchView batch;
  std::vector<RecognitionService::SamplePush> scratch;
  std::size_t accepted = 0;
  bool decode_failed = false;
  // No gtest assertions inside: the loop body is the measured window.
  const auto pump = [&](std::size_t count, std::size_t first) {
    for (std::size_t i = first; i < first + count; ++i) {
      decoder.feed(frames[i % kDistinct]);
      if (decoder.next(message, batch) != DecodeStatus::kMessage) {
        decode_failed = true;
        return;
      }
      accepted += service.push_unread_batch(
          message.job_id, batch.count, [&] {
            read_sample_batch(batch, scratch);
            return std::span<const RecognitionService::SamplePush>(scratch);
          });
      if (i % 4 == 3) service.process_pending();  // one poll's worth
    }
  };

  pump(4 * kDistinct, 0);  // warmup: decoder buffer, scratch, queues
  ASSERT_FALSE(decode_failed);
  const std::size_t warm_accepted = accepted;
  const std::uint64_t before = allocations();
  pump(10000, 4 * kDistinct);
  const std::uint64_t allocated = allocations() - before;
  ASSERT_FALSE(decode_failed);
  EXPECT_EQ(allocated, 0u)
      << "view decode + push_unread_batch allocated in steady state";
  // Every sample is accepted: the 10,000 frames cycle the five sizes
  // 2,000 times each.
  EXPECT_EQ(accepted - warm_accepted, 10000u / 5 * (1 + 2 + 5 + 16 + 32));
  service.process_pending();
  const core::RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_jobs, kJobs);
  EXPECT_EQ(stats.samples_dropped, 0u);
  EXPECT_EQ(stats.samples_late, 0u);
}

// --- source mux direct path ---------------------------------------------

/// A registered source that stays live but never has a message waiting.
class IdleSource final : public SampleSource {
 public:
  bool poll(std::vector<Envelope>& /*out*/) override { return true; }
};

TEST(SourceMuxHotPath, EmptyPollsAndVerdictNotesAreAllocationFree) {
  // The pipeline thread calls poll() every loop iteration and
  // note_verdict() once per verdict: after registration neither may
  // touch the heap.
  IdleSource a;
  IdleSource b;
  IdleSource c;
  SourceMux mux;
  mux.add_source("a", a);
  const SourceId id_b = mux.add_source("b", b);
  mux.add_source("c", c);
  std::vector<Envelope> out;
  out.reserve(1);
  bool live = true;
  for (int i = 0; i < 3; ++i) {  // warmup
    live &= mux.poll(out, std::chrono::milliseconds(0));
  }
  ASSERT_TRUE(live);

  std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    live &= mux.poll(out, std::chrono::milliseconds(0));
  }
  EXPECT_EQ(allocations(), before) << "empty SourceMux::poll allocated";
  EXPECT_TRUE(live);
  EXPECT_TRUE(out.empty());

  before = allocations();
  for (int i = 0; i < 1000; ++i) mux.note_verdict(id_b);
  EXPECT_EQ(allocations(), before) << "SourceMux::note_verdict allocated";
  EXPECT_EQ(mux.stats()[id_b].verdicts, 1000u);
}

// --- rounding kernel bit-exactness --------------------------------------

TEST(RoundingKernel, ScalarAndAvx2BuildsAreBitIdentical) {
  util::Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 4096; ++i) values.push_back(rng.lognormal(4.0, 6.0));
  for (int i = 0; i < 4096; ++i) values.push_back(-rng.lognormal(-2.0, 8.0));
  // Edge shapes: specials pass through, magnitudes at table boundaries.
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             1e308,
                             1e-308,
                             0.99999999999,
                             1.0,
                             10.0,
                             9.9999999};
  values.insert(values.end(), std::begin(specials), std::end(specials));

  for (int depth : {1, 2, 3, 5, 10, core::kKernelMaxDepth,
                    core::kKernelMaxDepth + 9}) {
    std::vector<double> scalar_lane = values;
    std::vector<double> avx2_lane = values;
    core::round_lanes_scalar(scalar_lane, depth);
    core::round_lanes_avx2(avx2_lane, depth);
    ASSERT_EQ(std::memcmp(scalar_lane.data(), avx2_lane.data(),
                          scalar_lane.size() * sizeof(double)),
              0)
        << "scalar and AVX2 lanes diverge at depth " << depth;
  }
}

TEST(AccumulateLanes, ScalarAvx2AndDispatchAreBitIdentical) {
  // Three identical lane blocks fed the same adversarial sample stream
  // through the scalar build, the AVX2 build, and the runtime dispatch;
  // full state (sums/counts/last_ts) and the completed-transition
  // return must agree byte-for-byte after every sample. Odd lane count
  // exercises the vector tail; -0.0 and NaN values probe the blend-form
  // sum update (`sum = in ? sum + v : sum`) the bit-identity relies on.
  // NaN sums compare as "both NaN" rather than byte-equal: when both
  // addends are NaN (inf + -inf followed by a NaN sample), IEEE lets
  // the add return either operand's payload and the builds may commute
  // the operands — the kernel only promises NaN-ness there.
  constexpr std::size_t kLanes = 37;
  std::vector<std::int32_t> begins(kLanes), ends(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    begins[i] = static_cast<std::int32_t>(i % 7);
    ends[i] = begins[i] + 1 + static_cast<std::int32_t>(i % 11);
  }
  struct LaneState {
    std::vector<double> sums;
    std::vector<std::uint64_t> counts;
    std::vector<std::int32_t> last_ts;
    core::AccumulatorLanes lanes(const std::vector<std::int32_t>& begins,
                                 const std::vector<std::int32_t>& ends) {
      return {sums.data(), counts.data(), last_ts.data(),
              begins.data(), ends.data(), sums.size()};
    }
  };
  const LaneState fresh{std::vector<double>(kLanes, 0.0),
                        std::vector<std::uint64_t>(kLanes, 0),
                        std::vector<std::int32_t>(kLanes, -1)};
  LaneState scalar = fresh, avx2 = fresh, dispatched = fresh;

  util::Rng rng(13);
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  // Forward progress with duplicates and regressions mixed in.
  const std::int32_t ticks[] = {0, 0,  1,  3,  2,  3,  4,  6,  5,  7,
                                8, 8, 10,  9, 11, 12, 13, 15, 14, 16};
  int step = 0;
  for (const std::int32_t t : ticks) {
    const double value =
        (step % 3 == 0)
            ? specials[static_cast<std::size_t>(step / 3) %
                       std::size(specials)]
            : rng.lognormal(2.0, 6.0) * (step % 2 == 0 ? 1.0 : -1.0);
    ++step;
    const std::size_t scalar_done =
        core::accumulate_lanes_scalar(scalar.lanes(begins, ends), t, value);
    const std::size_t avx2_done =
        core::accumulate_lanes_avx2(avx2.lanes(begins, ends), t, value);
    const std::size_t dispatch_done =
        core::accumulate_lanes(dispatched.lanes(begins, ends), t, value);
    ASSERT_EQ(scalar_done, avx2_done) << "t=" << t;
    ASSERT_EQ(scalar_done, dispatch_done) << "t=" << t;
    const auto sums_equal = [&](const std::vector<double>& a,
                                const std::vector<double>& b) {
      for (std::size_t i = 0; i < kLanes; ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i])) continue;
        if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
      }
      return true;
    };
    ASSERT_TRUE(sums_equal(scalar.sums, avx2.sums))
        << "scalar/AVX2 sums diverge at t=" << t;
    ASSERT_TRUE(sums_equal(scalar.sums, dispatched.sums))
        << "scalar/dispatch sums diverge at t=" << t;
    ASSERT_EQ(scalar.counts, avx2.counts) << "t=" << t;
    ASSERT_EQ(scalar.counts, dispatched.counts) << "t=" << t;
    ASSERT_EQ(scalar.last_ts, avx2.last_ts) << "t=" << t;
    ASSERT_EQ(scalar.last_ts, dispatched.last_ts) << "t=" << t;
  }
  // The stream made real progress: some lanes completed, some gathered
  // samples — the agreement above was not vacuous.
  std::uint64_t total = 0;
  for (const std::uint64_t count : scalar.counts) total += count;
  EXPECT_GT(total, 0u);
}

TEST(RoundingKernel, MatchesLegacyFormulaOnNormalValues) {
  util::Rng rng(11);
  for (int depth = 1; depth <= 12; ++depth) {
    for (int i = 0; i < 20000; ++i) {
      const double value = (i % 2 == 0 ? 1.0 : -1.0) * rng.lognormal(0.0, 10.0);
      if (!std::isnormal(value)) continue;
      const double kernel = core::round_value(value, depth);
      const double legacy = core::round_to_depth(value, depth);
      ASSERT_EQ(std::memcmp(&kernel, &legacy, sizeof(double)), 0)
          << "value " << value << " depth " << depth << ": kernel " << kernel
          << " vs legacy " << legacy;
    }
  }
}

TEST(RoundingKernel, SpecialsPassThroughUnchanged) {
  for (int depth : {1, 3, core::kKernelMaxDepth}) {
    EXPECT_EQ(core::round_value(0.0, depth), 0.0);
    EXPECT_TRUE(std::signbit(core::round_value(-0.0, depth)));
    EXPECT_TRUE(std::isinf(
        core::round_value(std::numeric_limits<double>::infinity(), depth)));
    EXPECT_TRUE(std::isnan(
        core::round_value(std::numeric_limits<double>::quiet_NaN(), depth)));
    // Subnormals pass through (the legacy formula degenerated to NaN).
    const double subnormal = std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(core::round_value(subnormal, depth), subnormal);
  }
}

// --- scratch path parity -------------------------------------------------

TEST_F(HotPathFixture, ScratchScoringRendersTheLegacyResult) {
  const core::Matcher matcher(dictionary_);
  const std::vector<std::size_t> slots = {0};
  core::RecognitionScratch scratch;
  core::RecognitionResult rendered;
  for (const telemetry::ExecutionRecord& record : dataset_.records()) {
    const core::RecognitionResult legacy = matcher.recognize(record, slots);
    matcher.recognize_into(record, slots, scratch);
    scratch.render_result(rendered);
    EXPECT_EQ(rendered.recognized, legacy.recognized);
    EXPECT_EQ(rendered.applications, legacy.applications);
    EXPECT_EQ(rendered.votes, legacy.votes);
    EXPECT_EQ(rendered.label_votes, legacy.label_votes);
    EXPECT_EQ(rendered.matched_labels, legacy.matched_labels);
    EXPECT_EQ(rendered.fingerprint_count, legacy.fingerprint_count);
    EXPECT_EQ(rendered.matched_count, legacy.matched_count);
  }
}

TEST_F(HotPathFixture, OnlineSlotPathMatchesStringPath) {
  core::OnlineRecognizer by_name(dictionary_, 2);
  core::OnlineRecognizer by_slot(dictionary_, 2);
  const std::uint32_t slot = by_slot.metric_slot("nr_mapped_vmstat");
  ASSERT_NE(slot, core::kNoMetricSlot);
  EXPECT_EQ(by_slot.metric_slot("not_a_metric"), core::kNoMetricSlot);

  for (int t = 0; t < 130; ++t) {
    for (std::uint32_t node = 0; node < 2; ++node) {
      by_name.push(node, "nr_mapped_vmstat", t, 6000.0);
      by_slot.push_slot(node, slot, t, 6000.0);
      ASSERT_EQ(by_name.ready(), by_slot.ready()) << "t=" << t;
    }
  }
  ASSERT_TRUE(by_slot.ready());
  EXPECT_EQ(by_name.result()->prediction(), by_slot.result()->prediction());
  EXPECT_EQ(by_name.result()->votes, by_slot.result()->votes);
}

// --- pooled decode parity ------------------------------------------------

TEST(BufferPool, PooledDecodeMatchesFreshDecode) {
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> frame;
  for (std::uint64_t job = 1; job <= 3; ++job) {
    Message batch;
    batch.type = MessageType::kSampleBatch;
    batch.job_id = job;
    for (std::size_t i = 0; i < 16 * job; ++i) {
      WireSample sample;
      sample.metric = i % 2 == 0 ? "nr_mapped_vmstat" : "MemFree_meminfo";
      sample.node_id = static_cast<std::uint32_t>(i);
      sample.t = static_cast<std::int64_t>(i);
      sample.value = 0.5 * static_cast<double>(i);
      batch.samples.push_back(std::move(sample));
    }
    frame.clear();
    encode_frame(batch, frame);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  SampleBufferPool pool;
  FrameDecoder pooled;
  pooled.set_buffer_pool(&pool);
  FrameDecoder fresh;
  fresh.set_buffer_pool(nullptr);
  pooled.feed(stream);
  fresh.feed(stream);

  Message pooled_out;
  Message fresh_out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(pooled.next(pooled_out), DecodeStatus::kMessage);
    ASSERT_EQ(fresh.next(fresh_out), DecodeStatus::kMessage);
    EXPECT_EQ(pooled_out.job_id, fresh_out.job_id);
    ASSERT_EQ(pooled_out.samples.size(), fresh_out.samples.size());
    for (std::size_t s = 0; s < pooled_out.samples.size(); ++s) {
      EXPECT_EQ(pooled_out.samples[s].metric, fresh_out.samples[s].metric);
      EXPECT_EQ(pooled_out.samples[s].node_id, fresh_out.samples[s].node_id);
      EXPECT_EQ(pooled_out.samples[s].t, fresh_out.samples[s].t);
      EXPECT_EQ(pooled_out.samples[s].value, fresh_out.samples[s].value);
    }
    // Round-trip through the pool, as the pipeline does post-dispatch.
    pool.release(std::move(pooled_out.samples));
  }
  EXPECT_GE(pool.stats().hits + pool.stats().misses, 3u);
}

TEST(BufferPool, RespectsItsFixedBudget) {
  SampleBufferPool pool;
  // Oversized buffers are discarded, not hoarded.
  std::vector<WireSample> huge(SampleBufferPool::kMaxPooledCapacity + 1);
  pool.release(std::move(huge));
  EXPECT_EQ(pool.stats().discards, 1u);
  // Zero-capacity vectors are ignored outright.
  pool.release(std::vector<WireSample>{});
  EXPECT_EQ(pool.stats().returns, 0u);
  // The pool never holds more than its budget.
  for (std::size_t i = 0; i < SampleBufferPool::kMaxPooledBuffers + 8; ++i) {
    std::vector<WireSample> buffer(4);
    pool.release(std::move(buffer));
  }
  EXPECT_EQ(pool.stats().returns, SampleBufferPool::kMaxPooledBuffers);
  EXPECT_EQ(pool.stats().discards, 9u);
}

// --- full-pipeline parity across transports ------------------------------

TEST_F(HotPathFixture, PooledPipelineParityAcrossTransports) {
  // The same two jobs over each transport; the pooled decode path must
  // produce the same verdicts everywhere (and as the offline matcher:
  // job 1 = ft, job 2 = mg).
  const auto collect = [&](auto& receive) {
    std::map<std::uint64_t, std::string> verdicts;
    Message message;
    while (verdicts.size() < 2 &&
           receive(message, std::chrono::seconds(10))) {
      if (message.type == MessageType::kVerdict) {
        verdicts[message.job_id] = message.verdict.application;
      }
    }
    return verdicts;
  };

  {
    RecognitionService service = make_service();
    TcpServer server({});
    IngestPipelineConfig config;
    config.max_verdicts = 2;
    IngestPipeline pipeline(service, server, config);
    pipeline.start();
    TcpClient client("127.0.0.1", server.port());
    send_job(client, 1, 6030.0);
    send_job(client, 2, 6080.0);
    client.finish_sending();
    auto receive = [&](Message& m, std::chrono::seconds t) {
      return client.receive(m, t);
    };
    const auto verdicts = collect(receive);
    pipeline.join();
    server.stop();
    ASSERT_EQ(verdicts.size(), 2u) << "tcp";
    EXPECT_EQ(verdicts.at(1), "ft");
    EXPECT_EQ(verdicts.at(2), "mg");
  }
  {
    RecognitionService service = make_service();
    UdpServer server({});
    IngestPipelineConfig config;
    config.max_verdicts = 2;
    IngestPipeline pipeline(service, server, config);
    pipeline.start();
    UdpClient client("127.0.0.1", server.port());
    send_job(client, 1, 6030.0);
    send_job(client, 2, 6080.0);
    auto receive = [&](Message& m, std::chrono::seconds t) {
      return client.receive(m, t);
    };
    const auto verdicts = collect(receive);
    pipeline.join();
    server.stop();
    ASSERT_EQ(verdicts.size(), 2u) << "udp";
    EXPECT_EQ(verdicts.at(1), "ft");
    EXPECT_EQ(verdicts.at(2), "mg");
  }
  {
    RecognitionService service = make_service();
    ShmRingServer server("hot_path_ring");
    IngestPipelineConfig config;
    config.max_verdicts = 2;
    IngestPipeline pipeline(service, server, config);
    pipeline.start();
    ShmRingClient client("hot_path_ring");
    send_job(client, 1, 6030.0);
    send_job(client, 2, 6080.0);
    client.finish_sending();
    auto receive = [&](Message& m, std::chrono::seconds t) {
      return client.receive(m, t);
    };
    const auto verdicts = collect(receive);
    pipeline.join();
    ASSERT_EQ(verdicts.size(), 2u) << "shm";
    EXPECT_EQ(verdicts.at(1), "ft");
    EXPECT_EQ(verdicts.at(2), "mg");
  }
}

// --- dictionary publication ----------------------------------------------

/// The fixture's trained dictionary plus \p decoys distinct depth-2 keys,
/// as EFD-DICT-V1 text: e2ebench churn-tcp's B1 shape.
std::string b1_text(const core::Dictionary& base, std::size_t decoys) {
  core::Dictionary dictionary = base;
  for (std::size_t k = 0; k < decoys; ++k) {
    core::FingerprintKey key;
    key.metric = "nr_mapped_vmstat";
    key.node_id = static_cast<std::uint32_t>(k % 32);
    key.interval = telemetry::kPaperInterval;
    key.rounded_means = {static_cast<double>(10 + k % 90) *
                         std::pow(10.0, 13 + static_cast<int>(k / 90))};
    dictionary.insert(key, "decoy_D");
  }
  std::string text;
  dictionary.save(text);
  return text;
}

TEST_F(HotPathFixture, DictionaryLoadEpochAndFreeAllocateIndependentlyOfKeyCount) {
  struct Cost {
    std::uint64_t load = 0;   ///< allocations of Dictionary::load
    std::uint64_t epoch = 0;  ///< allocations of building its Epoch
    std::uint64_t freed = 0;  ///< frees of dropping a superseded Epoch
  };
  const auto measure = [&](std::size_t decoys) {
    const std::string text = b1_text(dictionary_, decoys);
    Cost cost;
    std::uint64_t before = allocations();
    core::Dictionary loaded = core::Dictionary::load(text);
    cost.load = allocations() - before;
    EXPECT_EQ(loaded.size(), dictionary_.size() + decoys);

    core::DictionaryHandle handle(dictionary_);
    before = allocations();
    const auto outcome = handle.swap_if_changed(std::move(loaded));
    cost.epoch = allocations() - before;
    EXPECT_FALSE(outcome.already_active);
    EXPECT_EQ(handle.acquire()->bytes, text);

    // Publishing the base again supersedes the loaded epoch; the last
    // pin's release frees it.
    std::shared_ptr<core::DictionaryHandle::Epoch> superseded = handle.acquire();
    handle.swap_if_changed(core::Dictionary(dictionary_));
    before = frees();
    superseded.reset();
    cost.freed = frees() - before;
    return cost;
  };
  // A load tokenizes into flat arrays reserved from the declared key
  // count, so 1k and 10k decoy keys cost the same handful: the config,
  // the arrays, the tag table, one string per distinct metric and label.
  const Cost small = measure(1000);
  const Cost large = measure(10000);
  EXPECT_EQ(large.load, small.load);
  EXPECT_LE(large.load, 64u);
  EXPECT_EQ(large.epoch, small.epoch);
  EXPECT_LE(large.epoch, 16u);
  EXPECT_EQ(large.freed, small.freed);
  EXPECT_LE(large.freed, 64u);
}

TEST_F(HotPathFixture, IdenticalWireSwapIsRefusedBeforeAnyParse) {
  const std::string text = b1_text(dictionary_, 10000);
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service(core::Dictionary::load(text), service_config);
  ASSERT_EQ(service.dictionary_handle().acquire()->bytes, text);

  // In process: the active epoch's own bytes are refused with no parse,
  // which would allocate at least the rows' arrays.
  const std::uint64_t before = allocations();
  const auto outcome = service.swap_dictionary(std::string_view(text));
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_TRUE(outcome.already_active);
  EXPECT_EQ(outcome.epoch, 1u);
  EXPECT_EQ(service.stats().dictionary_swaps_noop, 1u);

  // Over the wire: the same already-active ack and counters as a parsed
  // no-op swap.
  TcpServer server({});
  IngestPipelineConfig config;
  config.allow_dictionary_swap = true;
  IngestPipeline pipeline(service, server, config);
  pipeline.start();
  TcpClient client("127.0.0.1", server.port());
  client.send(make_swap_dictionary(
      std::vector<std::uint8_t>(text.begin(), text.end())));
  Message ack;
  while (client.receive(ack, std::chrono::seconds(10)) &&
         ack.type != MessageType::kSwapAck) {
  }
  client.finish_sending();
  pipeline.stop();
  pipeline.join();
  server.stop();
  ASSERT_EQ(ack.type, MessageType::kSwapAck);
  EXPECT_FALSE(ack.swap_ack.ok);
  EXPECT_EQ(ack.swap_ack.epoch, 1u);
  EXPECT_NE(ack.swap_ack.error.find("already-active"), std::string::npos);
  EXPECT_EQ(pipeline.stats().swaps_rejected, 1u);
  EXPECT_EQ(pipeline.stats().dictionary_swaps, 0u);
  EXPECT_EQ(service.stats().dictionary_swaps_noop, 2u);
  EXPECT_EQ(service.dictionary_handle().version(), 1u);
}

// --- UDP control retransmit ----------------------------------------------

TEST_F(HotPathFixture, UdpControlRetransmitIsBoundedAndAbsorbed) {
  RecognitionService service = make_service();
  UdpServer server({});
  IngestPipelineConfig config;
  config.max_verdicts = 2;
  IngestPipeline pipeline(service, server, config);
  pipeline.start();

  UdpClient client("127.0.0.1", server.port());
  send_job(client, 1, 6030.0);
  send_job(client, 2, 6080.0);

  std::map<std::uint64_t, std::string> verdicts;
  Message message;
  while (verdicts.size() < 2 &&
         client.receive(message, std::chrono::seconds(10))) {
    if (message.type == MessageType::kVerdict) {
      verdicts[message.job_id] = message.verdict.application;
    }
  }
  pipeline.join();
  server.stop();

  // Verdict parity: retransmitted control frames never corrupt results.
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts.at(1), "ft");
  EXPECT_EQ(verdicts.at(2), "mg");

  // The client re-sent its unacked opens/closes with later datagrams —
  // at least once (samples follow the open immediately), and never more
  // than the per-frame budget allows.
  EXPECT_GT(client.retransmits(), 0u);
  EXPECT_LE(client.retransmits(),
            4u * static_cast<std::uint64_t>(UdpClient::kMaxRetransmits));
  // Both verdicts arrived, so every pending control frame was acked.
  EXPECT_EQ(client.pending_control(), 0u);

  // The server absorbed every duplicate it dispatched instead of
  // re-opening jobs: the pipeline saw exactly two opens and the absorbed
  // copies are counted. The count can trail the client's — retransmits
  // bundled after the final verdict may still sit in the socket buffer
  // when the poll loop stops — but at least the first open's duplicate
  // (bundled with the first sample batch) always lands before verdict 1.
  const UdpServer::Stats stats = server.stats();
  EXPECT_GT(stats.control_retransmits, 0u);
  EXPECT_LE(stats.control_retransmits, client.retransmits());
  EXPECT_EQ(server.transport_counters().retransmits, stats.control_retransmits);
  EXPECT_EQ(pipeline.stats().jobs_opened, 2u);
  EXPECT_EQ(pipeline.stats().open_rejected, 0u);
}

// --- concurrency (TSan target) -------------------------------------------

TEST_F(HotPathFixture, ConcurrentScratchesShareOneDictionary) {
  const core::Matcher matcher(dictionary_);
  const std::vector<std::size_t> slots = {0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      core::RecognitionScratch scratch;
      core::RecognitionResult rendered;
      for (int pass = 0; pass < 50; ++pass) {
        for (std::size_t r = 0; r < dataset_.size(); ++r) {
          matcher.recognize_into(dataset_.record(r), slots, scratch);
          scratch.render_result(rendered);
          const std::string& expected = r == 0 ? "ft" : "mg";
          if (rendered.prediction() != expected) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BufferPool, ConcurrentAcquireReleaseKeepsCounts) {
  SampleBufferPool pool;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        std::vector<WireSample> buffer = pool.acquire();
        buffer.resize(8);
        pool.release(std::move(buffer));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const SampleBufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, 2000u);
  EXPECT_EQ(stats.returns + stats.discards, 2000u);
  EXPECT_LE(stats.discards, SampleBufferPool::kMaxPooledBuffers + 2000u);
}

}  // namespace

/// \file test_hot_swap.cpp
/// \brief Live dictionary hot-swap tests: epoch pinning semantics (an
/// in-flight stream finishes against the dictionary it opened under; new
/// streams see the successor), swap/epoch observability in ServiceStats,
/// the already-active no-op-swap guard, epoch reclamation under
/// pin/release churn, and a stress run — 32 jobs streaming in waves
/// while the owner hot-swaps dictionaries between their slices,
/// asserting correct verdicts and monotonically increasing epochs.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <vector>

#include "core/dictionary_handle.hpp"
#include "core/online/recognition_service.hpp"
#include "core/trainer.hpp"

namespace {

using namespace efd;
using namespace efd::core;

FingerprintConfig config_of() {
  FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

/// Builds a constant-signal training dataset mapping each (app, level).
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

void stream_range(RecognitionService& service, std::uint64_t job, double level,
                  int from, int to) {
  for (int t = from; t < to; ++t) {
    for (std::uint32_t node = 0; node < 2; ++node) {
      service.push(job, node, "nr_mapped_vmstat", t, level);
    }
  }
}

TEST(DictionaryHandle, SwapPublishesDenseMonotoneVersions) {
  DictionaryHandle handle(train_levels({{"ft", 6000.0}}));
  EXPECT_EQ(handle.version(), 1u);
  EXPECT_EQ(handle.swap_count(), 0u);

  const auto pinned = handle.acquire();
  EXPECT_EQ(pinned->version, 1u);

  EXPECT_EQ(handle.swap_if_changed(train_levels({{"mg", 6100.0}})).epoch, 2u);
  EXPECT_EQ(handle.version(), 2u);
  EXPECT_EQ(handle.swap_count(), 1u);

  // The pre-swap pin still reads its own epoch's dictionary.
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(pinned->dictionary.applications_in_order(),
            std::vector<std::string>{"ft"});
  EXPECT_EQ(handle.acquire()->dictionary.applications_in_order(),
            std::vector<std::string>{"mg"});
}

TEST(HotSwap, InFlightStreamsFinishAgainstTheirEpoch) {
  // Dictionary A maps level 6000 -> ft; the retrained B maps the SAME
  // signal to a different application, so the verdict tells us exactly
  // which epoch a stream recognized against.
  RecognitionService service(train_levels({{"ft", 6000.0}}));

  ASSERT_TRUE(service.open_job(1, 2));
  stream_range(service, 1, 6030.0, 0, 80);  // in flight across the swap

  const auto outcome = service.swap_dictionary(train_levels({{"cg", 6000.0}}));
  EXPECT_EQ(outcome.epoch, 2u);
  EXPECT_FALSE(outcome.already_active);

  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.dictionary_epoch, 2u);
  EXPECT_EQ(stats.dictionary_swaps, 1u);
  EXPECT_EQ(stats.jobs_on_stale_epoch, 1u);  // job 1 pinned to epoch 1

  // A job opened after the swap recognizes against B...
  ASSERT_TRUE(service.open_job(2, 2));
  stream_range(service, 2, 6030.0, 0, 130);
  // ...while job 1 finishes against A, the epoch it opened under.
  stream_range(service, 1, 6030.0, 80, 130);

  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  for (const JobVerdict& verdict : verdicts) {
    EXPECT_EQ(verdict.result.prediction(),
              verdict.job_id == 1 ? "ft" : "cg")
        << "job " << verdict.job_id;
  }
  EXPECT_EQ(service.stats().jobs_on_stale_epoch, 0u);  // pre-swap stream done
}

TEST(HotSwap, IdenticalCandidateIsRejectedAsAlreadyActive) {
  // A no-op swap must not burn an epoch: nothing would change for
  // recognition, yet every in-flight stream would look stale and the
  // epoch/swap counters would lie. It is also the retrain loop's
  // double-promotion guard (an at-least-once replay retrains the same
  // window into a byte-identical candidate).
  const Dictionary base = train_levels({{"ft", 6000.0}});
  RecognitionService service(base);

  const auto noop = service.swap_dictionary(base);
  EXPECT_TRUE(noop.already_active);
  EXPECT_EQ(noop.epoch, 1u);
  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.dictionary_epoch, 1u);
  EXPECT_EQ(stats.dictionary_swaps, 0u);
  EXPECT_EQ(stats.dictionary_swaps_noop, 1u);

  // A reloaded copy has the same EFD-DICT-V1 bytes (its label ids may
  // differ, they are never serialized): still already-active.
  std::stringstream bytes;
  base.save(bytes);
  const auto reloaded = service.swap_dictionary(Dictionary::load(bytes));
  EXPECT_TRUE(reloaded.already_active);
  EXPECT_EQ(service.stats().dictionary_swaps_noop, 2u);

  // Real content change: the epoch advances, and swapping the ORIGINAL
  // back is a content change again (not a no-op).
  const auto changed = service.swap_dictionary(
      train_levels({{"ft", 6000.0}, {"mg", 6100.0}}));
  EXPECT_FALSE(changed.already_active);
  EXPECT_EQ(changed.epoch, 2u);
  const auto back = service.swap_dictionary(base);
  EXPECT_FALSE(back.already_active);
  EXPECT_EQ(back.epoch, 3u);
  stats = service.stats();
  EXPECT_EQ(stats.dictionary_swaps, 2u);
  EXPECT_EQ(stats.dictionary_swaps_noop, 2u);
}

TEST(HotSwap, EpochBytesAreTheCanonicalTextAndDecideAlreadyActive) {
  const Dictionary base = train_levels({{"ft", 6000.0}, {"mg", 6100.0}});
  RecognitionService service(base);
  const auto initial = service.dictionary_handle().acquire();
  std::string fresh;
  initial->dictionary.save(fresh);
  EXPECT_EQ(initial->bytes, fresh);

  // One label count more on one key: same keys, same labels, different
  // content, so not already-active.
  Dictionary bumped = base;
  const Dictionary::Row& row = *bumped.sorted_view().front();
  const FingerprintKey key = row.first;
  const std::string label = row.second.labels.front();
  bumped.insert(key, label);
  const auto outcome = service.swap_dictionary(bumped);
  EXPECT_FALSE(outcome.already_active);
  EXPECT_EQ(outcome.epoch, 2u);

  const auto swapped = service.dictionary_handle().acquire();
  fresh.clear();
  swapped->dictionary.save(fresh);
  EXPECT_EQ(swapped->bytes, fresh);
  EXPECT_NE(swapped->bytes, initial->bytes);

  // And the identical candidate is still caught.
  EXPECT_TRUE(service.swap_dictionary(bumped).already_active);
  EXPECT_EQ(service.stats().dictionary_epoch, 2u);
}

TEST(DictionaryHandle, SupersededEpochsAreReclaimedUnderChurn) {
  // The owner swaps in a loop while pins are taken before each swap and
  // released out of publication order. Every superseded epoch must be
  // freed exactly once (the shared_ptr contract — observed via weak_ptr
  // expiry), never while a pin still holds it (the pinned dictionary
  // stays readable), and the final active epoch must survive.
  const Dictionary even = train_levels({{"ft", 6000.0}});
  const Dictionary odd = train_levels({{"ft", 6000.0}, {"mg", 6100.0}});
  DictionaryHandle handle(even);

  constexpr int kSwaps = 50;
  constexpr std::size_t kHeldPins = 4;

  std::vector<std::weak_ptr<DictionaryHandle::Epoch>> observed;
  std::vector<std::shared_ptr<DictionaryHandle::Epoch>> pins;
  std::mt19937 rng(7);
  std::uint64_t reads = 0;
  for (int i = 0; i < kSwaps; ++i) {
    // Record the epoch being superseded and pin it, then swap in
    // alternating content (identical content would be a no-op).
    observed.push_back(handle.acquire());
    pins.push_back(handle.acquire());
    handle.swap_if_changed(i % 2 == 0 ? odd : even);
    if (pins.size() > kHeldPins) {
      pins.erase(pins.begin() +
                 static_cast<std::ptrdiff_t>(rng() % pins.size()));
    }
    for (const auto& pinned : pins) {
      // While pinned, the epoch's dictionary must be fully readable — a
      // premature free would crash or ASan-trip here.
      reads += pinned->dictionary.size();
      ASSERT_GE(pinned->version, 1u);
    }
  }
  pins.clear();

  // All pins are released. Exactly one epoch (the active one) may be
  // alive; every superseded epoch observed must be gone.
  auto active = handle.acquire();
  std::size_t alive = 0;
  for (const auto& weak : observed) {
    if (const auto epoch = weak.lock()) {
      ++alive;
      EXPECT_EQ(epoch.get(), active.get())
          << "superseded epoch " << epoch->version << " still alive";
    }
  }
  EXPECT_EQ(alive, 0u);  // every observed epoch was superseded
  EXPECT_EQ(handle.swap_count(), static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(active->version, 1u + handle.swap_count());
  EXPECT_GT(reads, 0u);

  // Releasing the last pin frees the active epoch too once superseded.
  std::weak_ptr<DictionaryHandle::Epoch> last = active;
  handle.swap_if_changed(active->dictionary.size() == even.size() ? odd
                                                                  : even);
  EXPECT_FALSE(last.expired());  // still pinned by `active`
  active.reset();
  EXPECT_TRUE(last.expired()) << "epoch leaked after its last pin dropped";
}

TEST(HotSwap, StressManyJobsStreamingAcrossContinuousSwaps) {
  // The retrain loop's real pattern: one owner thread opens, streams,
  // drains and reads stats for 32 jobs, and hot-swaps dictionaries
  // between their 10-tick slices, so every wave's streams cross swaps
  // and the next wave pins a newer epoch. Both dictionaries map the
  // streamed levels to the same applications, so a stream that lost its
  // pinned epoch would surface as a wrong or missing verdict; epoch
  // counters must climb monotonically. Each candidate is re-submitted
  // once and must be rejected as already-active.
  const Dictionary base =
      train_levels({{"ft", 6000.0}, {"mg", 6100.0}});
  // Same mapping for the streamed levels, plus one key no job streams:
  // content-different, verdict-identical.
  const Dictionary base_plus =
      train_levels({{"ft", 6000.0}, {"mg", 6100.0}, {"lu", 9900.0}});
  RecognitionServiceConfig config;
  config.deferred = true;
  RecognitionService service(base, config);

  constexpr std::uint64_t kJobs = 32;
  constexpr std::uint64_t kWave = 8;
  constexpr int kSwaps = 40;

  int swaps = 0;
  std::uint64_t last_epoch = service.dictionary_handle().version();
  const auto swap_once = [&] {
    const Dictionary& next = swaps % 2 == 0 ? base_plus : base;
    const auto outcome = service.swap_dictionary(next);
    EXPECT_FALSE(outcome.already_active);
    EXPECT_GT(outcome.epoch, last_epoch)
        << "epochs must increase monotonically";
    last_epoch = outcome.epoch;
    EXPECT_TRUE(service.swap_dictionary(next).already_active);
    ++swaps;
  };

  // Jobs open in waves, so they pin whichever epoch is active at that
  // moment, and stream in interleaved 10-tick slices.
  std::vector<JobVerdict> verdicts;
  std::vector<JobVerdict> drained;
  for (std::uint64_t first = 1; first <= kJobs; first += kWave) {
    for (std::uint64_t job = first; job < first + kWave; ++job) {
      ASSERT_TRUE(service.open_job(job, 2));
    }
    for (int t = 0; t < 130; t += 10) {
      for (std::uint64_t job = first; job < first + kWave; ++job) {
        stream_range(service, job, job % 2 == 0 ? 6030.0 : 6080.0, t, t + 10);
      }
      service.process_pending();
      service.drain_verdicts(drained);
      verdicts.insert(verdicts.end(), drained.begin(), drained.end());
      if (swaps < kSwaps) {
        swap_once();
        // Every stream still open was pinned before this swap.
        const RecognitionServiceStats stats = service.stats();
        EXPECT_EQ(stats.jobs_on_stale_epoch, stats.active_jobs);
      }
    }
  }
  EXPECT_EQ(swaps, kSwaps);

  ASSERT_EQ(verdicts.size(), kJobs);
  for (const JobVerdict& verdict : verdicts) {
    EXPECT_EQ(verdict.result.prediction(),
              verdict.job_id % 2 == 0 ? "ft" : "mg")
        << "job " << verdict.job_id;
  }

  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.dictionary_swaps, static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(stats.dictionary_swaps_noop, static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(stats.dictionary_epoch, 1u + static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(stats.active_jobs, 0u);
  EXPECT_EQ(stats.jobs_on_stale_epoch, 0u);
}

}  // namespace

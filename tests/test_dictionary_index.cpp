/// \file test_dictionary_index.cpp
/// \brief Flat row store suite: verdict parity between the id-space and
/// string scorers and across a save/load round trip (randomized
/// dictionaries, tie order, empty and collision-heavy tables),
/// restored == live-training table equivalence, a table that grows in
/// place under insert/prune/merge, publication at every epoch point,
/// scalar/AVX2 tag-scan mask identity, and a TSan-facing swap-storm test
/// (workers probing while epochs churn).

#include "core/dictionary_index.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "core/dictionary_handle.hpp"
#include "core/matcher.hpp"
#include "core/online/recognition_service.hpp"
#include "core/recognition_scratch.hpp"

namespace {

using namespace efd;
using namespace efd::core;

FingerprintKey key_of(double mean, std::uint32_t node = 0,
                      const std::string& metric = "nr_mapped_vmstat") {
  FingerprintKey key;
  key.metric = metric;
  key.node_id = node;
  key.interval = {60, 120};
  key.rounded_means = {mean};
  return key;
}

FingerprintConfig config_of() {
  FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

/// One training observation; a scripted sequence applied to two
/// dictionaries reproduces identical content AND identical tie-break
/// epoch order in both.
struct Observation {
  FingerprintKey key;
  std::string label;
};

std::vector<Observation> random_observations(std::mt19937_64& rng,
                                             std::size_t count) {
  const char* metrics[] = {"nr_mapped_vmstat", "MemFree_meminfo"};
  const char* apps[] = {"ft", "mg", "lu", "sp", "bt"};
  const char* sizes[] = {"X", "Y"};
  std::vector<Observation> observations;
  observations.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Observation obs;
    obs.key.metric = metrics[rng() % 2];
    obs.key.node_id = static_cast<std::uint32_t>(rng() % 8);
    obs.key.interval = (rng() % 2 == 0) ? telemetry::Interval{60, 120}
                                        : telemetry::Interval{0, 60};
    // Few distinct means -> many shared keys -> multi-label entries and
    // application collisions, the tie-break-relevant shape.
    obs.key.rounded_means = {static_cast<double>(100 * (1 + rng() % 24))};
    if (rng() % 4 == 0) {
      obs.key.rounded_means.push_back(
          static_cast<double>(1000 * (1 + rng() % 8)));
    }
    obs.label = std::string(apps[rng() % 5]) + "_" + sizes[rng() % 2];
    observations.push_back(std::move(obs));
  }
  return observations;
}

Dictionary dictionary_from(const std::vector<Observation>& observations) {
  Dictionary dictionary(config_of());
  for (const Observation& obs : observations) {
    dictionary.insert(obs.key, obs.label);
  }
  return dictionary;
}

/// Probe batch: every distinct trained key plus a near-miss variant of
/// each (same shape, shifted mean — exercises tag collisions and the
/// empty-slot termination path).
std::vector<FingerprintKey> probe_batch(
    const std::vector<Observation>& observations) {
  std::vector<FingerprintKey> keys;
  for (const Observation& obs : observations) {
    keys.push_back(obs.key);
    FingerprintKey miss = obs.key;
    miss.rounded_means[0] += 1.0;
    keys.push_back(std::move(miss));
  }
  return keys;
}

void expect_same_result(const RecognitionResult& a, const RecognitionResult& b,
                        const char* context) {
  EXPECT_EQ(a.recognized, b.recognized) << context;
  EXPECT_EQ(a.applications, b.applications) << context;
  EXPECT_EQ(a.votes, b.votes) << context;
  EXPECT_EQ(a.label_votes, b.label_votes) << context;
  EXPECT_EQ(a.matched_labels, b.matched_labels) << context;
  EXPECT_EQ(a.fingerprint_count, b.fingerprint_count) << context;
  EXPECT_EQ(a.matched_count, b.matched_count) << context;
}

RecognitionResult scored_via(const Dictionary& dictionary,
                             std::span<const FingerprintKey> keys) {
  Matcher matcher(dictionary);
  RecognitionScratch scratch;
  matcher.recognize_keys_into(keys, scratch);
  RecognitionResult result;
  scratch.render_result(result);
  return result;
}

TEST(DictionaryIndex, FindAndMiss) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(6000.0), "ft_X");
  dictionary.insert(key_of(6000.0), "mg_X");
  dictionary.insert(key_of(7000.0, 3), "mg_X");

  const DictionaryIndex* index = dictionary.probe_index();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->key_count(), 2u);
  EXPECT_GT(index->resident_bytes(), 0u);
  EXPECT_EQ(index->build_seconds(), 0.0);  // grown by insert(), not loaded

  const DictionaryIndex::Entry* entry = index->find(key_of(6000.0));
  ASSERT_NE(entry, nullptr);
  const auto ids = index->label_ids(*entry);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(dictionary.label_table().label_name(ids[0]), "ft_X");
  EXPECT_EQ(dictionary.label_table().label_name(ids[1]), "mg_X");
  EXPECT_EQ(index->key_of(*entry).metric, "nr_mapped_vmstat");
  EXPECT_EQ(dictionary.lookup(key_of(6000.0))->label_ids().data(), ids.data());

  EXPECT_EQ(index->find(key_of(9999.0)), nullptr);
  EXPECT_EQ(index->find(key_of(6000.0, 1)), nullptr);       // node differs
  EXPECT_EQ(index->find(key_of(6000.0, 0, "other")), nullptr);
  FingerprintKey wrong_interval = key_of(6000.0);
  wrong_interval.interval = {0, 60};
  EXPECT_EQ(index->find(wrong_interval), nullptr);
}

TEST(DictionaryIndex, EmptyDictionaryMisses) {
  Dictionary dictionary(config_of());
  const DictionaryIndex* index = dictionary.probe_index();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->key_count(), 0u);
  EXPECT_EQ(index->find(key_of(6000.0)), nullptr);

  const std::vector<FingerprintKey> keys = {key_of(6000.0)};
  const RecognitionResult result = scored_via(dictionary, keys);
  EXPECT_FALSE(result.recognized);
  EXPECT_EQ(result.prediction(), kUnknownApplication);
}

TEST(DictionaryIndex, RandomizedVerdictParityAcrossScorersAndReload) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL, 1234ULL}) {
    std::mt19937_64 rng(seed);
    const auto observations = random_observations(rng, 400);
    const Dictionary trained = dictionary_from(observations);
    std::string text;
    trained.save(text);
    const Dictionary loaded = Dictionary::load(text);

    const std::vector<FingerprintKey> keys = probe_batch(observations);
    const RecognitionResult via_ids = scored_via(trained, keys);
    // The string-keyed scorer names the same label ids through the
    // label table; the reloaded rows interned their labels in text
    // order — three paths, one verdict table.
    expect_same_result(via_ids, Matcher(trained).recognize_keys(keys),
                       "ids vs strings");
    expect_same_result(via_ids, scored_via(loaded, keys), "trained vs loaded");
    EXPECT_GT(via_ids.matched_count, 0u) << "degenerate seed " << seed;
  }
}

TEST(DictionaryIndex, TieOrderMatchesDictionaryFirstSeenOrder) {
  // sp learned before bt; one shared key gives each app one vote — the
  // tie array must come back [sp, bt] on both probe paths.
  std::vector<Observation> observations = {
      {key_of(7500.0), "sp_X"},
      {key_of(7500.0), "bt_X"},
  };
  const Dictionary dictionary = dictionary_from(observations);

  const std::vector<FingerprintKey> keys = {key_of(7500.0)};
  const RecognitionResult via_ids = scored_via(dictionary, keys);
  expect_same_result(via_ids, Matcher(dictionary).recognize_keys(keys),
                     "tie order");
  EXPECT_EQ(via_ids.applications, (std::vector<std::string>{"sp", "bt"}));
}

TEST(DictionaryIndex, CollisionHeavyTableFindsEveryKey) {
  // Thousands of keys stress natural probe-chain collisions; every
  // trained key must resolve and every near-miss must terminate absent.
  Dictionary dictionary(config_of());
  std::vector<FingerprintKey> present;
  for (std::uint32_t node = 0; node < 40; ++node) {
    for (int mean = 1; mean <= 80; ++mean) {
      FingerprintKey key = key_of(static_cast<double>(100 * mean), node);
      dictionary.insert(key, node % 2 == 0 ? "ft_X" : "mg_X");
      present.push_back(std::move(key));
    }
  }
  const DictionaryIndex* index = dictionary.probe_index();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->key_count(), present.size());

  for (const FingerprintKey& key : present) {
    EXPECT_NE(index->find(key), nullptr) << key.to_string();
    FingerprintKey miss = key;
    miss.rounded_means[0] += 1.0;
    EXPECT_EQ(index->find(miss), nullptr) << miss.to_string();
  }
}

TEST(DictionaryIndex, ScalarAndAvx2TagScansProduceIdenticalMasks) {
  std::mt19937_64 rng(42);
  std::vector<std::uint8_t> tags(kTagScanWindow);
  for (int round = 0; round < 200; ++round) {
    for (std::uint8_t& tag : tags) {
      // Mix of empties, a hot needle value, and arbitrary tags.
      const std::uint64_t roll = rng() % 4;
      tag = roll == 0 ? 0 : (roll == 1 ? 0x85 : (0x80 | (rng() & 0x7F)));
    }
    std::uint32_t scalar_match = 0;
    std::uint32_t scalar_empty = 0;
    index_detail::tag_scan_scalar(tags.data(), 0x85, &scalar_match,
                                  &scalar_empty);
#if defined(__x86_64__) || defined(__i386__)
    if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "no AVX2";
#endif
    std::uint32_t simd_match = 0;
    std::uint32_t simd_empty = 0;
    index_detail::tag_scan_avx2(tags.data(), 0x85, &simd_match, &simd_empty);
    ASSERT_EQ(scalar_match, simd_match) << "round " << round;
    ASSERT_EQ(scalar_empty, simd_empty) << "round " << round;
  }
}

TEST(DictionaryIndex, RestoredTableEqualsLiveTrainingTable) {
  std::mt19937_64 rng(2024);
  const auto observations = random_observations(rng, 300);
  Dictionary live = dictionary_from(observations);

  // EFD-DICT-V1 round-trip: the serialized bytes carry no tag table,
  // yet the restored dictionary's table has the identical key set and
  // slot count, and probes alike. (Its label runs are packed, while
  // training may have left moved runs behind, so the bytes held differ.)
  std::stringstream bytes;
  live.save(bytes);
  Dictionary restored = Dictionary::load(bytes);

  const DictionaryIndex* live_index = live.probe_index();
  const DictionaryIndex* restored_index = restored.probe_index();
  EXPECT_EQ(live_index->key_count(), restored_index->key_count());
  EXPECT_EQ(live_index->slot_count(), restored_index->slot_count());
  EXPECT_LE(restored_index->resident_bytes(), live_index->resident_bytes());
  EXPECT_GT(restored.index_build_seconds(), 0.0);
  std::string resaved;
  restored.save(resaved);
  EXPECT_EQ(resaved, bytes.str());

  const std::vector<FingerprintKey> keys = probe_batch(observations);
  expect_same_result(scored_via(live, keys), scored_via(restored, keys),
                     "live vs restored");
}

TEST(DictionaryIndex, InsertPruneAndMergeKeepTheTableCurrent) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(6000.0), "ft_X");
  const DictionaryIndex* index = dictionary.probe_index();
  EXPECT_GT(dictionary.probe_index()->resident_bytes(), 0u);

  // The rows are the table: an insert is visible to the next probe, with
  // no compile step and no second structure to fall back on.
  dictionary.insert(key_of(8000.0), "lu_X");
  dictionary.compile_probe_index();  // a no-op, however often it runs
  dictionary.compile_probe_index();
  EXPECT_EQ(dictionary.probe_index(), index);
  EXPECT_EQ(index->key_count(), 2u);
  EXPECT_NE(index->find(key_of(8000.0)), nullptr);
  const std::vector<FingerprintKey> keys = {key_of(8000.0)};
  EXPECT_EQ(scored_via(dictionary, keys).prediction(), "lu");

  // A key that gains a label after another key's run moves its run to
  // the end; both runs stay whole.
  dictionary.insert(key_of(6000.0), "mg_X");
  const auto moved = index->label_ids(*index->find(key_of(6000.0)));
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(dictionary.label_table().label_name(moved[0]), "ft_X");
  EXPECT_EQ(dictionary.label_table().label_name(moved[1]), "mg_X");
  EXPECT_EQ(index->label_ids(*index->find(key_of(8000.0))).size(), 1u);

  // prune_rare and merge rebuild or grow the same table.
  dictionary.insert(key_of(8000.0), "lu_X");
  EXPECT_EQ(dictionary.prune_rare(2), 0u);
  Dictionary more(config_of());
  more.insert(key_of(9000.0), "sp_X");
  more.insert(key_of(6000.0), "ft_X", 2);
  dictionary.merge(more);
  EXPECT_EQ(dictionary.probe_index()->key_count(), 3u);
  EXPECT_NE(dictionary.probe_index()->find(key_of(9000.0)), nullptr);
  EXPECT_EQ(dictionary.lookup(key_of(6000.0))->total_count(), 4u);
  EXPECT_EQ(dictionary.prune_rare(2), 1u);  // 9000 (1 observation)
  EXPECT_EQ(dictionary.size(), 2u);
  EXPECT_EQ(dictionary.probe_index()->find(key_of(9000.0)), nullptr);
  EXPECT_NE(dictionary.probe_index()->find(key_of(8000.0)), nullptr);
}

TEST(DictionaryIndex, EpochPublicationCompilesAtConstructionSwapAndReset) {
  Dictionary initial(config_of());
  initial.insert(key_of(6000.0), "ft_X");
  DictionaryHandle handle(std::move(initial));

  // Train completion: the initial epoch ships with its index.
  const std::shared_ptr<DictionaryHandle::Epoch> first = handle.acquire();
  const DictionaryIndex* first_index = first->dictionary.probe_index();
  ASSERT_NE(first_index, nullptr);
  EXPECT_EQ(first_index->key_count(), 1u);

  // Swap: the successor compiles its own; the pinned epoch keeps the old
  // index untouched for its in-flight streams.
  Dictionary next(config_of());
  next.insert(key_of(6000.0), "ft_X");
  next.insert(key_of(8000.0), "lu_X");
  EXPECT_FALSE(handle.swap_if_changed(std::move(next)).already_active);
  const std::shared_ptr<DictionaryHandle::Epoch> second = handle.acquire();
  ASSERT_NE(second->dictionary.probe_index(), nullptr);
  EXPECT_EQ(second->dictionary.probe_index()->key_count(), 2u);
  EXPECT_EQ(first->dictionary.probe_index(), first_index);
  EXPECT_EQ(first_index->key_count(), 1u);

  // Restore: reset() takes a ready-made epoch — built through the same
  // constructor, so the index is already compiled pre-publication.
  Dictionary restored(config_of());
  restored.insert(key_of(9000.0), "sp_X");
  auto epoch = std::make_shared<DictionaryHandle::Epoch>(7, std::move(restored));
  ASSERT_NE(epoch->dictionary.probe_index(), nullptr);
  handle.reset(epoch, 3);
  EXPECT_EQ(handle.acquire()->dictionary.probe_index(),
            epoch->dictionary.probe_index());
}

TEST(DictionaryIndex, ServiceStatsExposeBuildCostAndFootprint) {
  Dictionary dictionary(config_of());
  dictionary.insert(key_of(6000.0), "ft_X");
  RecognitionService service(std::move(dictionary), {});
  const RecognitionServiceStats stats = service.stats();
  EXPECT_GT(stats.index_bytes, 0u);
  EXPECT_GE(stats.index_build_seconds, 0.0);
}

/// The TSan target: the owner churns publications and hands each new
/// pinned epoch to four workers, which batch-probe it while the owner
/// publishes the next (as process_pending(pool) workers read the epochs
/// their streams pinned). Every pinned epoch must expose its fully built
/// index, never a torn or missing one, verdicts must match the pinned
/// epoch's content, and a superseded epoch is freed by whichever thread
/// drops the last pin.
TEST(DictionaryIndex, SwapStormConcurrentProbesStayCoherent) {
  constexpr int kWorkers = 4;
  constexpr int kSwaps = 60;
  constexpr int kProbesPerPin = 16;

  const auto build_generation = [](int generation) {
    Dictionary dictionary(config_of());
    for (std::uint32_t node = 0; node < 4; ++node) {
      dictionary.insert(key_of(6000.0, node), "ft_X");
      dictionary.insert(key_of(7000.0, node), "mg_X");
      // Generation-varying content so successive indexes differ.
      dictionary.insert(key_of(8000.0 + 100.0 * (generation % 5), node),
                        "lu_X");
    }
    return dictionary;
  };

  DictionaryHandle handle(build_generation(0));
  // The owner's hand-off: the newest pinned epoch. Workers copy the pin
  // under the mutex and probe outside it.
  std::mutex handoff_mutex;
  std::shared_ptr<DictionaryHandle::Epoch> handoff = handle.acquire();
  const auto take_pin = [&] {
    const std::lock_guard lock(handoff_mutex);
    return handoff;
  };
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> probes{0};
  // A worker whose ASSERT fails returns early; the owner stops waiting
  // for probes once no worker is left to make them.
  std::atomic<int> running{kWorkers};

  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      struct Exit {
        std::atomic<int>& running;
        ~Exit() { running.fetch_sub(1, std::memory_order_release); }
      } exit{running};
      RecognitionScratch scratch;
      std::vector<FingerprintKey> keys;
      for (std::uint32_t node = 0; node < 4; ++node) {
        keys.push_back(key_of(6000.0, node));
        keys.push_back(key_of(7000.0, node));
        keys.push_back(key_of(12345.0, node));  // always absent
      }
      while (!stop.load(std::memory_order_acquire)) {
        // Pin once, probe many — the stream lifecycle in miniature.
        const std::shared_ptr<DictionaryHandle::Epoch> epoch = take_pin();
        ASSERT_NE(epoch->dictionary.probe_index(), nullptr);
        const Matcher matcher(epoch->dictionary);
        for (int probe = 0; probe < kProbesPerPin; ++probe) {
          matcher.recognize_keys_into(keys, scratch);
          RecognitionResult result;
          scratch.render_result(result);
          // ft and mg tie at 4 votes each on every generation; ft was
          // always inserted first.
          ASSERT_TRUE(result.recognized);
          ASSERT_EQ(result.matched_count, 8u);
          ASSERT_EQ(result.prediction(), "ft");
          ASSERT_EQ(result.applications,
                    (std::vector<std::string>{"ft", "mg"}));
          probes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Swaps and probes must interleave: the first swap waits for the first
  // probe and every 10th swap waits for a probe after it, so the owner
  // can never finish before the workers have started.
  const auto wait_for_probe_after = [&](std::size_t seen) {
    while (probes.load(std::memory_order_relaxed) == seen &&
           running.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
  };
  wait_for_probe_after(0);
  for (int swap = 1; swap <= kSwaps; ++swap) {
    EXPECT_FALSE(handle.swap_if_changed(build_generation(swap)).already_active);
    {
      const std::lock_guard lock(handoff_mutex);
      handoff = handle.acquire();
    }
    if (swap % 10 == 0) {
      wait_for_probe_after(probes.load(std::memory_order_relaxed));
    }
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(handle.version(), static_cast<std::uint64_t>(1 + kSwaps));
  EXPECT_EQ(take_pin()->version, handle.version());
  EXPECT_GT(probes.load(), 0u);
}

}  // namespace

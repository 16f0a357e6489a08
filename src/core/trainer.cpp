#include "core/trainer.hpp"

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace efd::core {

Dictionary train_dictionary(const telemetry::Dataset& dataset,
                            const FingerprintConfig& config,
                            const std::vector<std::size_t>& indices,
                            util::ThreadPool* pool) {
  std::vector<std::size_t> slots;
  slots.reserve(config.metrics.size());
  for (const std::string& name : config.metrics) {
    slots.push_back(dataset.metric_slot(name));
  }
  const std::size_t count = indices.empty() ? dataset.size() : indices.size();
  const auto record = [&](std::size_t i) -> const telemetry::ExecutionRecord& {
    return dataset.record(indices.empty() ? i : indices[i]);
  };

  // Inserts always run here, in record order: that order alone decides
  // label order per entry and the application tie-break order, so the
  // output does not depend on whether fingerprints came from a pool.
  Dictionary dictionary(config);
  const auto learn = [&](std::size_t i,
                         const std::vector<FingerprintKey>& keys) {
    const std::string label = record(i).label().full();
    for (const FingerprintKey& key : keys) dictionary.insert(key, label);
  };

  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      learn(i, build_fingerprints(record(i), config, slots));
    }
  } else {
    std::vector<std::vector<FingerprintKey>> keys(count);
    util::parallel_for(*pool, 0, count, [&](std::size_t i) {
      keys[i] = build_fingerprints(record(i), config, slots);
    });
    for (std::size_t i = 0; i < count; ++i) learn(i, keys[i]);
  }

  EFD_LOG(kDebug, "trainer") << "dictionary built: " << dictionary.size()
                             << " keys at depth " << config.rounding_depth;
  return dictionary;
}

}  // namespace efd::core

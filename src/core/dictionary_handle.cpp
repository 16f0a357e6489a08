#include "core/dictionary_handle.hpp"

#include <utility>

namespace efd::core {

DictionaryHandle::DictionaryHandle(Dictionary initial)
    : current_(std::make_shared<Epoch>(1, std::move(initial))), version_(1) {}

std::uint64_t DictionaryHandle::swap(Dictionary next) {
  // Writers serialize (swaps are rare — a retrain cadence, not a hot
  // path) so versions are dense and monotone. The successor (index
  // compile included) is built before readers are locked out at all.
  std::lock_guard lock(writer_mutex_);
  const std::uint64_t version = acquire()->version + 1;
  publish(std::make_shared<Epoch>(version, std::move(next)));
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

DictionaryHandle::SwapOutcome DictionaryHandle::swap_if_changed(
    Dictionary next) {
  std::lock_guard lock(writer_mutex_);
  const std::shared_ptr<Epoch> active = acquire();
  auto candidate = std::make_shared<Epoch>(active->version + 1, std::move(next));
  if (candidate->bytes == active->bytes) {
    noop_swaps_.fetch_add(1, std::memory_order_relaxed);
    return {active->version, true};
  }
  publish(std::move(candidate));
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return {active->version + 1, false};
}

void DictionaryHandle::reset(std::shared_ptr<Epoch> epoch,
                             std::uint64_t swap_count,
                             std::uint64_t noop_swap_count) {
  std::lock_guard lock(writer_mutex_);
  publish(std::move(epoch));
  swaps_.store(swap_count, std::memory_order_relaxed);
  noop_swaps_.store(noop_swap_count, std::memory_order_relaxed);
}

void DictionaryHandle::publish(std::shared_ptr<Epoch> epoch) {
  const std::uint64_t version = epoch->version;
  {
    std::lock_guard lock(current_mutex_);
    current_.swap(epoch);
  }
  version_.store(version, std::memory_order_release);
  // `epoch` now holds the superseded one: released here, outside the
  // reader lock, if no stream still pins it.
}

}  // namespace efd::core

#include "core/dictionary_handle.hpp"

#include <utility>

namespace efd::core {

DictionaryHandle::DictionaryHandle(Dictionary initial)
    : current_(std::make_shared<Epoch>(1, std::move(initial))) {}

DictionaryHandle::SwapOutcome DictionaryHandle::swap_if_changed(
    Dictionary next) {
  auto candidate =
      std::make_shared<Epoch>(current_->version + 1, std::move(next));
  if (candidate->bytes == current_->bytes) {
    ++noop_swaps_;
    return {current_->version, true};
  }
  // `candidate` takes the superseded epoch: released on return, if no
  // stream still pins it.
  current_.swap(candidate);
  ++swaps_;
  return {current_->version, false};
}

DictionaryHandle::SwapOutcome DictionaryHandle::swap_if_changed(
    std::string_view text) {
  if (text != current_->bytes) return swap_if_changed(Dictionary::load(text));
  ++noop_swaps_;
  return {current_->version, true};
}

void DictionaryHandle::reset(std::shared_ptr<Epoch> epoch,
                             std::uint64_t swap_count,
                             std::uint64_t noop_swap_count) {
  current_ = std::move(epoch);
  swaps_ = swap_count;
  noop_swaps_ = noop_swap_count;
}

}  // namespace efd::core

#include "core/dictionary_handle.hpp"

#include <utility>

namespace efd::core {

DictionaryHandle::Epoch::Epoch(std::uint64_t version, Dictionary dictionary)
    : Epoch(version, written(std::move(dictionary))) {}

DictionaryHandle::Epoch::Epoch(std::uint64_t version, std::string text)
    : Epoch(version, parsed(std::move(text))) {}

DictionaryHandle::Epoch::Epoch(std::uint64_t version, Parts parts)
    : version(version),
      bytes(std::move(parts.bytes)),
      dictionary(std::move(parts.dictionary)),
      adopted_text(parts.adopted_text) {}

DictionaryHandle::Epoch::Parts DictionaryHandle::Epoch::written(
    Dictionary dictionary) {
  Parts parts{{}, std::move(dictionary)};
  parts.dictionary.save(parts.bytes);
  return parts;
}

DictionaryHandle::Epoch::Parts DictionaryHandle::Epoch::parsed(
    std::string text) {
  bool canonical = false;
  Dictionary dictionary = Dictionary::load(text, canonical);
  if (!canonical) return written(std::move(dictionary));
  return {std::move(text), std::move(dictionary), true};
}

DictionaryHandle::DictionaryHandle(Dictionary initial)
    : current_(std::make_shared<Epoch>(1, std::move(initial))) {}

DictionaryHandle::DictionaryHandle(std::shared_ptr<Epoch> initial)
    : current_(std::move(initial)) {}

DictionaryHandle::SwapOutcome DictionaryHandle::swap_if_changed(
    Dictionary next) {
  return publish(
      std::make_shared<Epoch>(current_->version + 1, std::move(next)));
}

DictionaryHandle::SwapOutcome DictionaryHandle::swap_if_changed(
    std::string_view text) {
  if (text != current_->bytes) {
    return publish(std::make_shared<Epoch>(current_->version + 1,
                                           std::string(text)));
  }
  ++noop_swaps_;
  return {current_->version, true};
}

DictionaryHandle::SwapOutcome DictionaryHandle::publish(
    std::shared_ptr<Epoch> candidate) {
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

void DictionaryHandle::reset(std::shared_ptr<Epoch> epoch,
                             std::uint64_t swap_count,
                             std::uint64_t noop_swap_count) {
  current_ = std::move(epoch);
  swaps_ = swap_count;
  noop_swaps_ = noop_swap_count;
}

}  // namespace efd::core

#include "ingest/source_mux.hpp"

#include <algorithm>
#include <utility>

namespace efd::ingest {

SourceMux::SourceMux() : loop_(std::make_shared<EventLoop>()) {}

SourceId SourceMux::add_source(std::string name, SampleSource& source) {
  const auto id = static_cast<SourceId>(entries_.size());
  // Names key the snapshot cursors: a duplicate (e.g. `--listen tcp:0`
  // twice) would make seed_cursor misattribute one source's restored
  // count to the other. Disambiguate deterministically by id, so the
  // same command line re-derives the same names on restart.
  const auto taken = [this](const std::string& candidate) {
    for (const Entry& existing : entries_) {
      if (existing.stats.name == candidate) return true;
    }
    return false;
  };
  if (taken(name)) {
    std::string candidate;
    for (SourceId suffix = id; ; ++suffix) {
      candidate = name + "#" + std::to_string(suffix);
      if (!taken(candidate)) break;
    }
    name = std::move(candidate);
  }
  Entry& entry = entries_.emplace_back();
  entry.stats.id = id;
  entry.stats.name = std::move(name);
  entry.source = &source;
  entry.has_fds = source.attach(loop_, id);
  return id;
}

bool SourceMux::poll(std::vector<Envelope>& out,
                     std::chrono::milliseconds timeout) {
  constexpr std::chrono::milliseconds kFdlessTick{1};
  const std::size_t before = out.size();
  const auto deadline = EventLoop::Clock::now() + timeout;
  bool live = false;
  for (;;) {
    live = false;
    bool fdless_live = false;
    for (Entry& entry : entries_) {
      bool& exhausted = entry.stats.exhausted;
      if (exhausted) continue;
      const std::size_t from = out.size();
      // A retired source's final batch (if any) is still delivered; the
      // source contract guarantees nothing more will ever appear.
      exhausted = !entry.source->poll(out);
      for (std::size_t i = from; i < out.size(); ++i) {
        out[i].source = entry.stats.id;
      }
      live |= !exhausted;
      fdless_live |= !exhausted && !entry.has_fds;
    }
    if (!live) break;
    auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - EventLoop::Clock::now());
    if (out.size() > before) wait = std::chrono::milliseconds(0);
    if (fdless_live) wait = std::min(wait, kFdlessTick);
    loop_->run_once(wait, out);
    if (out.size() > before || EventLoop::Clock::now() >= deadline) break;
  }
  for (std::size_t i = before; i < out.size(); ++i) {
    SourceMuxStats& stats = entries_[out[i].source].stats;
    ++stats.envelopes;
    stats.samples += out[i].sample_count();
  }
  return live;
}

void SourceMux::note_verdict(SourceId id) {
  if (id < entries_.size()) ++entries_[id].stats.verdicts;
}

bool SourceMux::seed_cursor(const std::string& name, std::uint64_t cursor) {
  for (Entry& entry : entries_) {
    if (entry.stats.name == name) {
      entry.stats.restored_cursor = cursor;
      entry.stats.envelopes += cursor;
      return true;
    }
  }
  return false;
}

std::vector<SourceMuxStats> SourceMux::stats() const {
  std::vector<SourceMuxStats> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back(entry.stats);
    out.back().transport = entry.source->transport_counters();
  }
  return out;
}

}  // namespace efd::ingest

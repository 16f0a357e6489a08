#include "ingest/source_mux.hpp"

#include <algorithm>
#include <utility>

namespace efd::ingest {

SourceId SourceMux::add_source(std::string name, SampleSource& source) {
  const auto id = static_cast<SourceId>(entries_.size());
  // Names key the snapshot cursors: a duplicate (e.g. `--listen tcp:0`
  // twice) would make seed_cursor misattribute one source's restored
  // count to the other. Disambiguate deterministically by id, so the
  // same command line re-derives the same names on restart.
  const auto taken = [this](const std::string& candidate) {
    for (const Entry& existing : entries_) {
      if (existing.name == candidate) return true;
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
  entry.id = id;
  entry.name = std::move(name);
  entry.source = &source;
  live_scratch_.reserve(entries_.size());  // poll() never allocates
  return id;
}

std::size_t SourceMux::poll_entry(Entry& entry, std::vector<Envelope>& out,
                                  std::chrono::milliseconds timeout) {
  const std::size_t before = out.size();
  const bool live = entry.source->poll(out, timeout);
  for (std::size_t i = before; i < out.size(); ++i) {
    out[i].source = entry.id;
    entry.envelopes.fetch_add(1, std::memory_order_relaxed);
    entry.samples.fetch_add(out[i].sample_count(),
                            std::memory_order_relaxed);
  }
  if (!live) {
    // Retired: its final batch (if any) was delivered above; the source
    // contract guarantees nothing more will ever appear.
    entry.exhausted.store(true, std::memory_order_release);
  }
  return out.size() - before;
}

bool SourceMux::poll(std::vector<Envelope>& out,
                     std::chrono::milliseconds timeout) {
  if (entries_.empty()) return false;  // nothing registered: exhausted

  std::vector<Entry*>& live = live_scratch_;
  live.clear();
  // Rotate the sweep's starting index so a chatty low-id source cannot
  // structurally starve the others of the "first look".
  const std::size_t start = rotate_++;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[(start + i) % entries_.size()];
    if (!entry.exhausted.load(std::memory_order_acquire)) {
      live.push_back(&entry);
    }
  }
  if (live.empty()) return false;

  bool any_live = false;
  if (live.size() == 1) {
    // A sole live source waits in its own readiness wait, once, for the
    // whole timeout: no empty non-blocking sweep first.
    if (poll_entry(*live.front(), out, timeout) > 0) return true;
    any_live = !live.front()->exhausted.load(std::memory_order_acquire);
  } else {
    // Pass 1: non-blocking sweep — drain whatever is already waiting on
    // any source.
    std::size_t appended = 0;
    for (Entry* entry : live) {
      appended += poll_entry(*entry, out, std::chrono::milliseconds(0));
    }
    if (appended > 0) return true;

    // Pass 2: nothing ready anywhere — wait on each still-live source in
    // turn for one short slice, round after round, returning as soon as
    // one yields. Sources later in a round get the first look next call.
    constexpr std::chrono::milliseconds kSlice{1};
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    do {
      any_live = false;
      for (Entry* entry : live) {
        if (entry->exhausted.load(std::memory_order_acquire)) continue;
        appended += poll_entry(*entry, out, kSlice);
        any_live |= !entry->exhausted.load(std::memory_order_acquire);
        if (appended > 0) return true;
      }
    } while (any_live && std::chrono::steady_clock::now() < deadline);
  }
  if (any_live) return true;
  // Everything retired this round; report exhaustion only when no
  // registered source can ever produce again.
  for (const Entry& entry : entries_) {
    if (!entry.exhausted.load(std::memory_order_acquire)) return true;
  }
  return false;
}

void SourceMux::note_verdict(SourceId id) {
  if (id < entries_.size()) {
    entries_[id].verdicts.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SourceMux::seed_cursor(const std::string& name, std::uint64_t cursor) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.restored_cursor.store(cursor, std::memory_order_relaxed);
      entry.envelopes.fetch_add(cursor, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

TransportCounters SourceMux::transport_counters() const {
  TransportCounters total;
  for (const SourceMuxStats& source : stats()) {
    total.frames += source.transport.frames;
    total.decode_errors += source.transport.decode_errors;
    total.drops += source.transport.drops;
    total.gaps += source.transport.gaps;
    total.blocked += source.transport.blocked;
    total.retransmits += source.transport.retransmits;
  }
  return total;
}

std::vector<SourceMuxStats> SourceMux::stats() const {
  std::vector<SourceMuxStats> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    SourceMuxStats stats;
    stats.id = entry.id;
    stats.name = entry.name;
    stats.envelopes = entry.envelopes.load(std::memory_order_relaxed);
    stats.samples = entry.samples.load(std::memory_order_relaxed);
    stats.verdicts = entry.verdicts.load(std::memory_order_relaxed);
    stats.restored_cursor =
        entry.restored_cursor.load(std::memory_order_relaxed);
    stats.exhausted = entry.exhausted.load(std::memory_order_acquire);
    stats.transport = entry.source->transport_counters();
    out.push_back(std::move(stats));
  }
  return out;
}

}  // namespace efd::ingest

#pragma once
/// \file ring_transport.hpp
/// \brief Bounded in-process transport over the LDMS ring buffer.
///
/// The zero-copy path for daemons co-located with the service (and the
/// unit-test/bench harness for the pipeline): producers send() decoded
/// Messages into a fixed-capacity ldms::RingBuffer, the pipeline polls
/// them out. The ring is consumed via pop_front — push-time eviction
/// never fires — so a full ring *blocks* the producer: back-pressure,
/// not sample loss. Designed for one consumer (the pipeline) and any
/// number of producer threads: a mutex serializes them (at monitoring
/// rates the lock is uncontended; the bound, not the lock, is the
/// point). The ring has no fd, so the SourceMux polls it on every loop
/// round, waiting at most 1 ms between rounds while it is live.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>

#include "ingest/transport.hpp"
#include "ldms/ring_buffer.hpp"

namespace efd::ingest {

class RingTransport final : public SampleSource, public MessageSender {
 public:
  /// \param capacity maximum buffered messages; must be > 0.
  /// \param sample_capacity additional bound on the *samples* buffered
  ///        across all queued batches (0 = the default of 64 x capacity).
  ///        A message bound alone under-constrains memory — `capacity`
  ///        max-size batches would hold capacity x 4096 samples — so the
  ///        producer also blocks once this many samples are retained.
  explicit RingTransport(std::size_t capacity,
                         std::size_t sample_capacity = 0)
      : ring_(capacity),
        sample_capacity_(sample_capacity == 0 ? capacity * 64
                                              : sample_capacity) {}

  /// Verdicts for jobs ingested via send() go here (optional).
  void set_verdict_sink(std::shared_ptr<VerdictSink> sink) {
    std::lock_guard lock(mutex_);
    verdict_sink_ = std::move(sink);
  }

  /// Blocks while the ring is full (back-pressure). Throws
  /// std::runtime_error if the transport was closed.
  void send(Message message) override {
    std::unique_lock lock(mutex_);
    if (at_capacity() && !closed_) {
      ++blocked_sends_;
      not_full_.wait(lock, [this] { return !at_capacity() || closed_; });
    }
    if (closed_) throw std::runtime_error("send on closed RingTransport");
    buffered_samples_ += message.samples.size();
    ++accepted_;
    ring_.push(Envelope{std::move(message), verdict_sink_});
  }

  /// Marks the producer side finished; poll() drains what remains and
  /// then reports exhaustion. Idempotent.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
  }

  bool poll(std::vector<Envelope>& out) override {
    std::unique_lock lock(mutex_);
    Envelope envelope;
    bool popped = false;
    while (ring_.pop_front(envelope)) {
      buffered_samples_ -= envelope.message.samples.size();
      out.push_back(std::move(envelope));
      popped = true;
    }
    const bool exhausted = closed_ && ring_.empty();
    lock.unlock();
    if (popped) not_full_.notify_all();
    return !exhausted;
  }

  TransportCounters transport_counters() const override {
    std::lock_guard lock(mutex_);
    TransportCounters counters;
    counters.frames = accepted_;
    counters.blocked = blocked_sends_;  // a producer hit a full ring
    return counters;
  }

 private:
  bool at_capacity() const {
    return ring_.full() || buffered_samples_ >= sample_capacity_;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  ldms::RingBuffer<Envelope> ring_;
  std::size_t sample_capacity_;
  std::size_t buffered_samples_ = 0;
  std::shared_ptr<VerdictSink> verdict_sink_;
  bool closed_ = false;
  std::uint64_t blocked_sends_ = 0;
  std::uint64_t accepted_ = 0;
};

}  // namespace efd::ingest

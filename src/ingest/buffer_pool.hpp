#pragma once
/// \file buffer_pool.hpp
/// \brief Fixed-budget recycler for decoded sample-batch buffers.
///
/// The owned decode (FrameDecoder::next(Message&)) materializes each
/// kSampleBatch as a std::vector<WireSample>, plus one heap string per
/// long metric name. The pool closes that loop for callers that decode
/// batch after batch (e2ebench's in-process pass, bench_hot_path): the
/// decoder acquires a recycled buffer, decodes into it IN PLACE (strings
/// keep their capacity across reuse), and the caller releases the
/// buffer back once it is done with the batch. Steady state: zero
/// allocations per batch of a recurring size. The servers need none of
/// this: they hand batches out as views into the frame bytes.
///
/// The budget is fixed on both axes so the pool can never become a leak:
/// at most kMaxPooledBuffers vectors are retained, and a buffer whose
/// capacity outgrew kMaxPooledCapacity (a pathological batch) is freed
/// instead of cached. Releasing never clears elements — the strings ARE
/// the asset being recycled.
///
/// Thread-safe: acquire/release take a mutex (uncontended at batch
/// granularity — one lock per wire batch, not per sample).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "ingest/wire_format.hpp"

namespace efd::ingest {

class SampleBufferPool {
 public:
  /// Buffers retained at rest; excess releases free their buffer.
  static constexpr std::size_t kMaxPooledBuffers = 64;
  /// Capacity ceiling for a retained buffer (== kMaxSamplesPerBatch): a
  /// buffer that grew past one maximum wire batch is an outlier and is
  /// freed rather than pinning its memory forever.
  static constexpr std::size_t kMaxPooledCapacity = kMaxSamplesPerBatch;

  struct Stats {
    std::uint64_t hits = 0;      ///< acquires served from the pool
    std::uint64_t misses = 0;    ///< acquires that built a fresh vector
    std::uint64_t returns = 0;   ///< buffers accepted back
    std::uint64_t discards = 0;  ///< releases dropped (full pool / oversize)
  };

  /// A buffer to decode into. May carry stale elements from its previous
  /// use — callers resize() to their count and overwrite every field.
  std::vector<WireSample> acquire();

  /// Hands a drained buffer back. Elements are intentionally NOT
  /// destroyed here (their string capacity is the point); empty-capacity
  /// vectors (e.g. moved-from ones) are ignored.
  void release(std::vector<WireSample>&& buffer);

  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<WireSample>> free_;
  Stats stats_;
};

/// Process-global pool shared by every FrameDecoder and the pipeline
/// (function-local static: safe lazy init, usable from any thread).
SampleBufferPool& sample_buffer_pool();

}  // namespace efd::ingest

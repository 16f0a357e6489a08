#include "core/online/recognition_service.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace efd::core {

const char* backpressure_policy_name(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kDropOldest: return "drop-oldest";
    case BackpressurePolicy::kReject: return "reject";
  }
  return "unknown";
}

std::optional<BackpressurePolicy> parse_backpressure_policy(
    std::string_view name) {
  if (name == "block") return BackpressurePolicy::kBlock;
  if (name == "drop-oldest") return BackpressurePolicy::kDropOldest;
  if (name == "reject") return BackpressurePolicy::kReject;
  return std::nullopt;
}

RecognitionService::RecognitionService(Dictionary dictionary,
                                       RecognitionServiceConfig config)
    : handle_(std::move(dictionary)), config_(config) {
  if (config_.job_queue_capacity == 0) config_.job_queue_capacity = 1;
}

void RecognitionService::schedule_stream(
    const std::shared_ptr<JobStream>& stream) {
  // Dedup: one dirty-list slot per dirty stream, however many pushes
  // landed. The drainer clears the flag before draining, so a push that
  // arrives mid-drain re-marks the stream and is never lost.
  if (stream->scheduled.exchange(true, std::memory_order_acq_rel)) return;
  std::lock_guard lock(dirty_mutex_);
  dirty_.push_back(stream);
}

const Dictionary& RecognitionService::dictionary() const {
  // The handle's current_ reference keeps this epoch alive after the
  // acquire() temporary drops, so the borrow is valid until the next
  // swap publishes a successor.
  return handle_.acquire()->dictionary;
}

RecognitionService::SwapOutcome RecognitionService::swap_dictionary(
    Dictionary next) {
  const SwapOutcome outcome = handle_.swap_if_changed(std::move(next));
  if (outcome.already_active) {
    swaps_noop_.fetch_add(1, std::memory_order_relaxed);
  }
  return outcome;
}

std::int64_t RecognitionService::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RecognitionService::SourceIngress* RecognitionService::ingress_for(
    std::uint32_t source_tag) {
  std::lock_guard lock(sources_mutex_);
  auto& slot = source_ingress_[source_tag];
  if (slot == nullptr) {
    slot = std::make_unique<SourceIngress>();
    slot->source = source_tag;
  }
  return slot.get();
}

bool RecognitionService::open_job(std::uint64_t job_id,
                                  std::uint32_t node_count,
                                  std::uint32_t source_tag) {
  auto stream =
      std::make_shared<JobStream>(handle_.acquire(), job_id, node_count);
  stream->last_activity_ns.store(now_ns(), std::memory_order_relaxed);
  SourceIngress* ingress = ingress_for(source_tag);
  stream->ingress = ingress;
  {
    std::unique_lock lock(jobs_mutex_);
    if (!jobs_.emplace(job_id, std::move(stream)).second) return false;
  }
  jobs_opened_.fetch_add(1, std::memory_order_relaxed);
  ingress->jobs_opened.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool RecognitionService::has_job(std::uint64_t job_id) const {
  std::shared_lock lock(jobs_mutex_);
  const auto it = jobs_.find(job_id);
  return it != jobs_.end() && !it->second->done.load(std::memory_order_acquire);
}

std::shared_ptr<RecognitionService::JobStream> RecognitionService::find_stream(
    std::uint64_t job_id) const {
  std::shared_lock lock(jobs_mutex_);
  const auto it = jobs_.find(job_id);
  return it != jobs_.end() ? it->second : nullptr;
}

bool RecognitionService::enqueue_locked(
    const std::shared_ptr<JobStream>& stream_ptr,
    std::unique_lock<std::mutex>& lock, const SamplePush& sample,
    std::int64_t enqueue_ns) {
  JobStream& stream = *stream_ptr;
  if (stream.done.load(std::memory_order_relaxed)) {
    // The verdict already fired; the stream lingers until the next
    // drain. Counted separately from drops — a job streaming past its
    // window end is healthy, not a routing failure.
    samples_late_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  if (stream.queue.size() >= config_.job_queue_capacity) {
    if (!config_.deferred && !stream.draining) {
      // Inline mode with no competing drainer: the pushing thread IS
      // the consumer, so recognize the backlog instead of shedding it —
      // a push_batch larger than the queue must stay lossless exactly
      // like PR 1's per-sample inline path.
      drain_stream(stream, lock);
      if (stream.done.load(std::memory_order_relaxed)) {
        samples_late_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    } else {
      switch (config_.policy) {
      case BackpressurePolicy::kReject:
        samples_rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
      case BackpressurePolicy::kDropOldest:
        // O(queue) memmove of PODs — acceptable on this degraded lossy
        // path; the lossless policies never reach it.
        stream.queue.erase(stream.queue.begin());
        stream.queued.fetch_sub(1, std::memory_order_relaxed);
        samples_overflowed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case BackpressurePolicy::kBlock: {
        bool blocked = false;
        while (stream.queue.size() >= config_.job_queue_capacity &&
               !stream.done.load(std::memory_order_relaxed)) {
          if (!stream.draining) {
            // No active drainer to wait on: make progress ourselves (even
            // in deferred mode). Waiting here would deadlock a pipeline
            // that is both the sole producer and the process_pending
            // caller; draining inline keeps kBlock lossless AND bounded.
            drain_stream(stream, lock);
            continue;
          }
          // Real back-pressure: an active drainer exists, so waiting
          // terminates. The stalled producer (the ingest poll loop,
          // typically) leaves TCP bytes unread and pushes the stall
          // back to the remote sender. The wait also ends when the
          // drainer finishes: other producers may have refilled the
          // queue by the time this one wakes, and with no drainer left
          // it must drain itself rather than wait forever.
          if (!blocked) pushes_blocked_.fetch_add(1, std::memory_order_relaxed);
          blocked = true;
          stream.space.wait(lock, [&] {
            return stream.queue.size() < config_.job_queue_capacity ||
                   stream.done.load(std::memory_order_relaxed) ||
                   !stream.draining;
          });
        }
        if (stream.done.load(std::memory_order_relaxed)) {
          samples_late_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        break;
      }
      }
    }
  }

  // Resolve the metric to its dictionary slot here, once: metric_slot only
  // reads the pinned epoch's immutable config, so it is safe while a
  // drainer owns the recognizer's mutable state.
  stream.queue.push_back(Sample{sample.node_id, sample.t, sample.value,
                                stream.recognizer.metric_slot(sample.metric),
                                enqueue_ns});
  stream.queued.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool RecognitionService::push(std::uint64_t job_id, std::uint32_t node_id,
                              std::string_view metric_name, int t,
                              double value) {
  const SamplePush sample{node_id, t, value, metric_name};
  return push_batch(job_id, std::span(&sample, 1)) == 1;
}

std::size_t RecognitionService::push_batch(
    std::uint64_t job_id, std::span<const SamplePush> samples) {
  if (samples.empty()) return 0;
  const std::shared_ptr<JobStream> stream = find_stream(job_id);
  if (stream == nullptr) {
    samples_dropped_.fetch_add(samples.size(), std::memory_order_relaxed);
    return 0;
  }

  std::size_t accepted = 0;
  // One clock read serves the whole batch: every accepted sample shares
  // this admission stamp (the e2e latency origin) and it doubles as the
  // stream's activity time, so latency stamping adds no steady-state
  // clock calls.
  const std::int64_t batch_ns = now_ns();
  auto& hot = obs::hot_path();
  const bool timed = hot.sample_now();
  std::unique_lock lock(stream->mutex);
  for (const SamplePush& sample : samples) {
    if (enqueue_locked(stream, lock, sample, batch_ns)) ++accepted;
  }
  if (timed) hot.enqueue_ns.observe(now_ns() - batch_ns);
  if (accepted > 0) {
    stream->last_activity_ns.store(batch_ns, std::memory_order_relaxed);
    if (!config_.deferred) {
      drain_stream(*stream, lock);
    } else {
      // Mark the stream dirty for the next process_pending; dedup makes
      // repeat marks one slot.
      schedule_stream(stream);
    }
  }
  return accepted;
}

std::size_t RecognitionService::drain_stream(
    JobStream& stream, std::unique_lock<std::mutex>& lock) {
  if (stream.draining) return 0;  // the token holder will consume our samples
  stream.draining = true;

  auto& hot = obs::hot_path();
  const bool timed = hot.sample_now();
  std::size_t fed_total = 0;
  // Swap the whole queue out into the stream-owned drain buffer: both
  // vectors reach the stream's high-water capacity and then recycle it,
  // so steady-state draining allocates nothing.
  std::vector<Sample>& batch = stream.drain_batch;
  while (!stream.queue.empty() &&
         !stream.done.load(std::memory_order_relaxed)) {
    batch.clear();
    std::swap(batch, stream.queue);
    stream.queued.store(0, std::memory_order_relaxed);
    lock.unlock();
    stream.space.notify_all();  // freed a full batch of capacity

    // The drain token makes the recognizer ours outside the mutex, so
    // producers keep enqueueing while this batch is recognized.
    const std::int64_t score_start = timed ? now_ns() : 0;
    std::size_t fed = 0;
    bool fired = false;
    std::int64_t fired_enqueue_ns = 0;
    RecognitionResult verdict;
    for (const Sample& sample : batch) {
      if (sample.metric_slot != kNoMetricSlot) {
        stream.recognizer.push_slot(sample.node_id, sample.metric_slot,
                                    sample.t, sample.value);
      }
      ++fed;  // unknown-metric samples still count as fed, as before
      if (stream.recognizer.ready()) {
        if (auto result = stream.recognizer.result()) verdict = *result;
        fired = true;
        fired_enqueue_ns = sample.enqueue_ns;
        break;
      }
    }
    if (timed) hot.score_ns.observe(now_ns() - score_start);
    fed_total += fed;
    samples_pushed_.fetch_add(fed, std::memory_order_relaxed);
    if (stream.ingress != nullptr) {
      stream.ingress->samples_pushed.fetch_add(fed,
                                               std::memory_order_relaxed);
    }
    if (fed < batch.size()) {
      // Samples behind the one that closed the last window: late.
      samples_late_.fetch_add(batch.size() - fed, std::memory_order_relaxed);
    }

    lock.lock();
    if (fired) {
      // done cannot have been set meanwhile: close/evict wait for the
      // drain token before finishing a stream. Queue the verdict before
      // publishing done (the reap treats done==true as "verdict queued").
      queue_verdict(stream.job_id, std::move(verdict),
                    stream.ingress != nullptr ? stream.ingress->source : 0,
                    fired_enqueue_ns);
      if (stream.ingress != nullptr) {
        stream.ingress->jobs_completed.fetch_add(1,
                                                 std::memory_order_relaxed);
      }
      stream.done.store(true, std::memory_order_release);
    }
  }
  if (stream.done.load(std::memory_order_relaxed) && !stream.queue.empty()) {
    // Arrived while the verdict fired; free the memory now, not at reap.
    samples_late_.fetch_add(stream.queue.size(), std::memory_order_relaxed);
    stream.queue.clear();
    stream.queued.store(0, std::memory_order_relaxed);
  }
  stream.draining = false;
  stream.drained.notify_all();
  stream.space.notify_all();
  return fed_total;
}

std::size_t RecognitionService::process_pending(util::ThreadPool* pool) {
  std::lock_guard process_lock(process_mutex_);
  std::vector<std::shared_ptr<JobStream>>& streams = draining_;
  {
    // Swap, not copy: dirty_ inherits the previous (cleared) buffer, so
    // the two lists trade capacity and steady state allocates nothing.
    std::lock_guard lock(dirty_mutex_);
    streams.swap(dirty_);
  }
  if (streams.empty()) return 0;

  std::atomic<std::size_t> fed{0};
  const auto drain_one = [&](std::size_t i) {
    JobStream& stream = *streams[i];
    // Clear BEFORE draining: a push landing after this point re-marks
    // the stream, so its samples drain next call.
    stream.scheduled.store(false, std::memory_order_release);
    std::unique_lock lock(stream.mutex);
    fed.fetch_add(drain_stream(stream, lock), std::memory_order_relaxed);
  };
  if (pool != nullptr && streams.size() > 1) {
    util::parallel_for(*pool, 0, streams.size(), drain_one);
  } else {
    for (std::size_t i = 0; i < streams.size(); ++i) drain_one(i);
  }
  streams.clear();
  return fed.load(std::memory_order_relaxed);
}

void RecognitionService::finish_stream(JobStream& stream) {
  // Caller holds the stream mutex with the drain token free, so the
  // recognizer is exclusively ours. Flush accepted-but-unprocessed
  // samples first — they arrived before the close decision.
  std::size_t consumed = 0;
  while (consumed < stream.queue.size() && !stream.recognizer.ready()) {
    const Sample& sample = stream.queue[consumed++];
    if (sample.metric_slot != kNoMetricSlot) {
      stream.recognizer.push_slot(sample.node_id, sample.metric_slot,
                                  sample.t, sample.value);
    }
  }
  if (consumed > 0) {
    samples_pushed_.fetch_add(consumed, std::memory_order_relaxed);
    if (stream.ingress != nullptr) {
      stream.ingress->samples_pushed.fetch_add(consumed,
                                               std::memory_order_relaxed);
    }
  }
  if (consumed < stream.queue.size()) {
    samples_late_.fetch_add(stream.queue.size() - consumed,
                            std::memory_order_relaxed);
  }
  stream.queue.clear();
  stream.queued.store(0, std::memory_order_relaxed);

  // An unready stream yields a default (unrecognized) verdict — the
  // paper's unknown-application safeguard for truncated executions.
  // Queued before done is published, as in drain_stream().
  RecognitionResult verdict;
  if (auto result = stream.recognizer.result()) verdict = *result;
  // Force-closed verdicts carry no enqueue stamp: their latency is
  // dominated by the close/evict decision, not the scoring path.
  queue_verdict(stream.job_id, std::move(verdict),
                stream.ingress != nullptr ? stream.ingress->source : 0, 0);
  if (stream.ingress != nullptr) {
    stream.ingress->jobs_completed.fetch_add(1, std::memory_order_relaxed);
  }
  stream.done.store(true, std::memory_order_release);
  stream.space.notify_all();  // blocked producers observe done -> late
}

bool RecognitionService::close_job(std::uint64_t job_id) {
  const std::shared_ptr<JobStream> stream = find_stream(job_id);
  if (stream == nullptr) return false;

  std::unique_lock lock(stream->mutex);
  stream->drained.wait(lock, [&] { return !stream->draining; });
  if (stream->done.load(std::memory_order_relaxed)) return false;
  finish_stream(*stream);
  return true;
}

std::size_t RecognitionService::sweep_stale_jobs(
    std::chrono::steady_clock::duration ttl) {
  const std::int64_t cutoff =
      now_ns() -
      std::chrono::duration_cast<std::chrono::nanoseconds>(ttl).count();
  std::vector<std::shared_ptr<JobStream>> stale;
  {
    std::shared_lock lock(jobs_mutex_);
    for (const auto& [job_id, stream] : jobs_) {
      if (!stream->done.load(std::memory_order_acquire) &&
          stream->last_activity_ns.load(std::memory_order_relaxed) <= cutoff) {
        stale.push_back(stream);
      }
    }
  }

  std::size_t evicted = 0;
  for (const auto& stream : stale) {
    std::unique_lock lock(stream->mutex);
    stream->drained.wait(lock, [&] { return !stream->draining; });
    if (stream->done.load(std::memory_order_relaxed)) continue;
    if (stream->last_activity_ns.load(std::memory_order_relaxed) > cutoff) {
      continue;  // revived between the scan and the lock
    }
    finish_stream(*stream);
    ++evicted;
  }
  if (evicted > 0) jobs_evicted_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

std::vector<JobVerdict> RecognitionService::drain_verdicts() {
  std::vector<JobVerdict> drained;
  drain_verdicts(drained);
  return drained;
}

void RecognitionService::drain_verdicts(std::vector<JobVerdict>& out) {
  out.clear();
  std::lock_guard drain_lock(drain_mutex_);
  {
    // verdicts_ inherits out's cleared buffer: the two trade capacity.
    std::lock_guard lock(verdicts_mutex_);
    out.swap(verdicts_);
  }
  if (out.empty() && reap_retry_.empty()) return;

  // Reap by the drained verdicts' job ids: every done stream queued
  // exactly one verdict before publishing done, so this visits the
  // finished streams only, never every open one. An id whose done is
  // not yet visible (its firing thread sits between the two) is
  // retried on the next drain. Reaped ids become reusable from here.
  std::unique_lock lock(jobs_mutex_);
  const auto reap = [&](std::uint64_t job_id) {
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return true;
    if (!it->second->done.load(std::memory_order_acquire)) return false;
    jobs_.erase(it);
    return true;
  };
  std::erase_if(reap_retry_, reap);
  for (const JobVerdict& verdict : out) {
    if (!reap(verdict.job_id)) reap_retry_.push_back(verdict.job_id);
  }
}

RecognitionServiceStats RecognitionService::stats() const {
  RecognitionServiceStats stats;
  stats.dictionary_epoch = handle_.version();
  stats.dictionary_swaps = handle_.swap_count();
  {
    const std::shared_ptr<DictionaryHandle::Epoch> epoch = handle_.acquire();
    stats.index_build_seconds = epoch->dictionary.index_build_seconds();
    stats.index_bytes = epoch->dictionary.index_resident_bytes();
  }
  {
    std::shared_lock lock(jobs_mutex_);
    for (const auto& [job_id, stream] : jobs_) {
      if (!stream->done.load(std::memory_order_acquire)) {
        ++stats.active_jobs;
        if (stream->epoch->version != stats.dictionary_epoch) {
          ++stats.jobs_on_stale_epoch;
        }
      }
      stats.queued_samples +=
          stream->queued.load(std::memory_order_relaxed);
    }
  }
  stats.pending_verdicts = pending_verdict_count();
  stats.jobs_opened = jobs_opened_.load(std::memory_order_relaxed);
  stats.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
  stats.jobs_evicted = jobs_evicted_.load(std::memory_order_relaxed);
  stats.samples_pushed = samples_pushed_.load(std::memory_order_relaxed);
  stats.samples_dropped = samples_dropped_.load(std::memory_order_relaxed);
  stats.samples_late = samples_late_.load(std::memory_order_relaxed);
  stats.samples_overflowed =
      samples_overflowed_.load(std::memory_order_relaxed);
  stats.samples_rejected = samples_rejected_.load(std::memory_order_relaxed);
  stats.pushes_blocked = pushes_blocked_.load(std::memory_order_relaxed);
  stats.dictionary_swaps_noop = swaps_noop_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(sources_mutex_);
    // A lone untagged source (the legacy single-transport mode) keeps
    // by_source empty — the aggregate counters already ARE its view.
    const bool tagged = source_ingress_.size() > 1 ||
                        (!source_ingress_.empty() &&
                         source_ingress_.begin()->first != 0);
    if (tagged) {
      stats.by_source.reserve(source_ingress_.size());
      for (const auto& [tag, ingress] : source_ingress_) {
        SourceIngressStats row;
        row.source = tag;
        row.jobs_opened = ingress->jobs_opened.load(std::memory_order_relaxed);
        row.jobs_completed =
            ingress->jobs_completed.load(std::memory_order_relaxed);
        row.samples_pushed =
            ingress->samples_pushed.load(std::memory_order_relaxed);
        stats.by_source.push_back(row);
      }
    }
  }
  return stats;
}

std::vector<std::uint64_t> RecognitionService::open_job_ids() const {
  std::vector<std::uint64_t> ids;
  {
    std::shared_lock lock(jobs_mutex_);
    ids.reserve(jobs_.size());
    for (const auto& [job_id, stream] : jobs_) {
      if (!stream->done.load(std::memory_order_acquire)) {
        ids.push_back(job_id);
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void RecognitionService::queue_verdict(std::uint64_t job_id,
                                       RecognitionResult result,
                                       std::uint32_t source,
                                       std::int64_t enqueue_ns) {
  const std::int64_t verdict_ns = now_ns();
  if (enqueue_ns > 0) {
    auto& hot = obs::hot_path();
    if (hot.enabled.load(std::memory_order_relaxed)) {
      hot.verdict_e2e_ns.observe(verdict_ns - enqueue_ns);
    }
  }
  {
    std::lock_guard lock(verdicts_mutex_);
    verdicts_.push_back(
        {job_id, std::move(result), source, enqueue_ns, verdict_ns});
  }
  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<JobVerdict> RecognitionService::collect_pending_verdicts() const {
  std::lock_guard lock(verdicts_mutex_);
  return verdicts_;
}

std::size_t RecognitionService::pending_verdict_count() const {
  std::lock_guard lock(verdicts_mutex_);
  return verdicts_.size();
}

}  // namespace efd::core

#include "core/online/recognition_service.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace efd::core {

thread_local RecognitionService::Worker* RecognitionService::tl_worker_ =
    nullptr;

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

RecognitionService::RecognitionService(ShardedDictionary dictionary,
                                       RecognitionServiceConfig config)
    : handle_(std::move(dictionary)), config_(config) {
  if (config_.job_queue_capacity == 0) config_.job_queue_capacity = 1;
  if (config_.worker_count > 0) {
    // Workers ARE the drain side: a push that scored inline would race
    // the owning worker for the recognizer, so worker mode is always
    // deferred.
    config_.deferred = true;
    start_workers(config_.worker_count);
  }
}

RecognitionService::~RecognitionService() { stop_workers(); }

void RecognitionService::start_workers(std::size_t count) {
  constexpr std::size_t kRingCapacity = 4096;  // power of two
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto worker = std::make_unique<Worker>(kRingCapacity);
    worker->owner = this;
    workers_.push_back(std::move(worker));
  }
  // Threads start only after workers_ is final (worker_loop and
  // schedule_stream index into it).
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
  }
}

void RecognitionService::stop_workers() {
  if (workers_.empty()) return;
  stop_workers_.store(true, std::memory_order_release);
  {
    // Unpark anyone at the quiesce barrier (a snapshot racing teardown).
    std::lock_guard lock(pause_mutex_);
    paused_.store(false, std::memory_order_relaxed);
  }
  pause_cv_.notify_all();
  for (auto& worker : workers_) {
    // Empty critical section: a worker between its predicate check and
    // its wait would otherwise miss this notify and sleep forever.
    { std::lock_guard lock(worker->producer_mutex); }
    worker->work_cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

std::uint32_t RecognitionService::assign_worker(
    std::uint64_t job_id) const noexcept {
  if (workers_.empty()) return 0;
  // splitmix64 finalizer: job ids are often sequential, and a plain
  // modulo would put every id on worker id%N forever — fine — but also
  // correlate with any id-structured load. The mix spreads them evenly.
  std::uint64_t x = job_id + 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % workers_.size());
}

void RecognitionService::schedule_stream(
    const std::shared_ptr<JobStream>& stream) {
  // Dedup: one drain-list slot per dirty stream, however many pushes
  // landed. The drainer clears the flag before draining, so a push that
  // arrives mid-drain re-marks the stream and is never lost.
  if (stream->scheduled.exchange(true, std::memory_order_acq_rel)) return;
  if (workers_.empty()) {
    // Poll-boundary drain: process_pending() consumes this list.
    std::lock_guard lock(dirty_mutex_);
    dirty_.push_back(stream);
    return;
  }
  Worker& worker = *workers_[stream->worker_index];
  {
    std::lock_guard lock(worker.producer_mutex);
    const std::uint64_t tail = worker.tail.load(std::memory_order_relaxed);
    if (tail - worker.head.load(std::memory_order_acquire) <
        worker.ring.size()) {
      worker.ring[tail & worker.mask] = stream;
      worker.tail.store(tail + 1, std::memory_order_release);
    } else {
      // Degenerate: more scheduled streams than ring slots. Spill
      // rather than block — callers hold stream mutexes.
      worker.overflow.push_back(stream);
    }
  }
  worker.work_cv.notify_one();
}

std::shared_ptr<RecognitionService::JobStream> RecognitionService::try_pop(
    Worker& worker) {
  const std::uint64_t head = worker.head.load(std::memory_order_relaxed);
  if (head != worker.tail.load(std::memory_order_acquire)) {
    std::shared_ptr<JobStream> stream =
        std::move(worker.ring[head & worker.mask]);
    worker.head.store(head + 1, std::memory_order_release);
    return stream;
  }
  std::lock_guard lock(worker.producer_mutex);
  if (worker.overflow.empty()) return nullptr;
  std::shared_ptr<JobStream> stream = std::move(worker.overflow.front());
  worker.overflow.erase(worker.overflow.begin());
  return stream;
}

void RecognitionService::worker_loop(Worker& worker) {
  tl_worker_ = &worker;
  while (!stop_workers_.load(std::memory_order_acquire)) {
    if (paused_.load(std::memory_order_acquire)) {
      // Quiesce barrier: park between drains until the guard releases.
      std::unique_lock lock(pause_mutex_);
      ++quiesced_;
      pause_cv_.notify_all();
      pause_cv_.wait(lock, [&] {
        return !paused_.load(std::memory_order_relaxed) ||
               stop_workers_.load(std::memory_order_relaxed);
      });
      --quiesced_;
      continue;
    }
    std::shared_ptr<JobStream> stream = try_pop(worker);
    if (stream == nullptr) {
      std::unique_lock lock(worker.producer_mutex);
      worker.work_cv.wait(lock, [&] {
        return worker.head.load(std::memory_order_relaxed) !=
                   worker.tail.load(std::memory_order_relaxed) ||
               !worker.overflow.empty() ||
               stop_workers_.load(std::memory_order_relaxed) ||
               paused_.load(std::memory_order_relaxed);
      });
      continue;
    }
    // Clear BEFORE draining: a producer enqueueing after this point
    // re-rings the stream, so its samples are picked up next round.
    stream->scheduled.store(false, std::memory_order_release);
    std::unique_lock lock(stream->mutex);
    drain_stream(*stream, lock);
  }
  tl_worker_ = nullptr;
}

RecognitionService::WorkerQuiesceGuard::WorkerQuiesceGuard(
    const RecognitionService& service)
    : service_(service) {
  if (service_.workers_.empty()) return;
  service_.quiesce_mutex_.lock();  // one quiescer at a time
  {
    std::lock_guard lock(service_.pause_mutex_);
    service_.paused_.store(true, std::memory_order_release);
  }
  for (const auto& worker : service_.workers_) {
    { std::lock_guard lock(worker->producer_mutex); }
    worker->work_cv.notify_all();
  }
  std::unique_lock lock(service_.pause_mutex_);
  service_.pause_cv_.wait(lock, [&] {
    return service_.quiesced_ == service_.workers_.size();
  });
}

RecognitionService::WorkerQuiesceGuard::~WorkerQuiesceGuard() {
  if (service_.workers_.empty()) return;
  {
    std::lock_guard lock(service_.pause_mutex_);
    service_.paused_.store(false, std::memory_order_release);
  }
  service_.pause_cv_.notify_all();
  service_.quiesce_mutex_.unlock();
}

const ShardedDictionary& RecognitionService::dictionary() const {
  // The handle's current_ reference keeps this epoch alive after the
  // acquire() temporary drops, so the borrow is valid until the next
  // swap publishes a successor.
  return handle_.acquire()->dictionary;
}

RecognitionService::SwapOutcome RecognitionService::swap_dictionary(
    ShardedDictionary next) {
  // Already-active guard: EFD-DICT-V1 serialization is deterministic
  // (sorted entries, config included), so byte equality is content AND
  // layout identity. Swaps are a retrain cadence, not a hot path — two
  // serializations per attempt is fine, and comparing fresh bytes (not a
  // publication-time hash) stays correct after learn() inserted into the
  // active epoch.
  {
    const auto active = handle_.acquire();
    std::ostringstream active_bytes, candidate_bytes;
    active->dictionary.save(active_bytes);
    next.save(candidate_bytes);
    if (std::move(active_bytes).str() == std::move(candidate_bytes).str()) {
      swaps_noop_.fetch_add(1, std::memory_order_relaxed);
      return {active->version, true};
    }
  }
  return {handle_.swap(std::move(next)), false};
}

std::int64_t RecognitionService::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RecognitionService::learn(const FingerprintKey& key,
                               const std::string& label) {
  handle_.acquire()->dictionary.insert(key, label);
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
  stream->worker_index = assign_worker(job_id);
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
      case BackpressurePolicy::kBlock:
        if (!workers_.empty()) {
          // Worker mode: never self-drain — the owning worker is the
          // sole scorer. Ring it (idempotent), then wait for space; the
          // cv wait releases the stream mutex, so the worker drains
          // independently and the wait terminates.
          schedule_stream(stream_ptr);
          pushes_blocked_.fetch_add(1, std::memory_order_relaxed);
          stream.space.wait(lock, [&] {
            return stream.queue.size() < config_.job_queue_capacity ||
                   stream.done.load(std::memory_order_relaxed);
          });
          if (stream.done.load(std::memory_order_relaxed)) {
            samples_late_.fetch_add(1, std::memory_order_relaxed);
            return false;
          }
        } else if (!stream.draining) {
          // No active drainer to wait on: make progress ourselves (even
          // in deferred mode). Waiting here would deadlock a pipeline
          // that is both the sole producer and the process_pending
          // caller; draining inline keeps kBlock lossless AND bounded.
          drain_stream(stream, lock);
          if (stream.done.load(std::memory_order_relaxed)) {
            samples_late_.fetch_add(1, std::memory_order_relaxed);
            return false;
          }
        } else {
          // Real back-pressure: an active drainer exists, so waiting
          // terminates. The stalled producer (the ingest poll loop,
          // typically) leaves TCP bytes unread and pushes the stall
          // back to the remote sender.
          pushes_blocked_.fetch_add(1, std::memory_order_relaxed);
          stream.space.wait(lock, [&] {
            return stream.queue.size() < config_.job_queue_capacity ||
                   stream.done.load(std::memory_order_relaxed);
          });
          if (stream.done.load(std::memory_order_relaxed)) {
            samples_late_.fetch_add(1, std::memory_order_relaxed);
            return false;
          }
        }
        break;
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
      // Mark the stream dirty for its drainer (the owning worker, or the
      // next process_pending); dedup makes repeat marks one slot.
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
        // On a worker thread, score with the worker's own scratch (one
        // arena serves every stream it drains); the verdict is the same
        // either way — scratch is working memory, not state.
        RecognitionScratch* scratch =
            (tl_worker_ != nullptr && tl_worker_->owner == this)
                ? &tl_worker_->scratch
                : nullptr;
        auto result = scratch != nullptr ? stream.recognizer.result(*scratch)
                                         : stream.recognizer.result();
        if (result) verdict = *result;
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
  // Worker mode: pushes already rang the owning workers, which score
  // asynchronously — the poll boundary has nothing to do.
  if (!workers_.empty()) return 0;

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
    // Clear BEFORE draining, as the workers do: a push landing after
    // this point re-marks the stream, so its samples drain next call.
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
  std::vector<PendingVerdict>& merged = drain_merge_;
  {
    // verdicts_ inherits merged's cleared buffer: the two trade capacity.
    std::lock_guard lock(verdicts_mutex_);
    merged.swap(verdicts_);
  }
  for (const auto& worker : workers_) {
    std::lock_guard lock(worker->staging_mutex);
    merged.insert(merged.end(),
                  std::make_move_iterator(worker->staging.begin()),
                  std::make_move_iterator(worker->staging.end()));
    worker->staging.clear();
  }
  if (merged.empty() && reap_retry_.empty()) return;

  // Merge staged + shared back into the single global completion order
  // (the order single-threaded mode yields natively).
  std::sort(merged.begin(), merged.end(),
            [](const PendingVerdict& a, const PendingVerdict& b) {
              return a.seq < b.seq;
            });

  {
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
    for (const PendingVerdict& pending : merged) {
      if (!reap(pending.verdict.job_id)) {
        reap_retry_.push_back(pending.verdict.job_id);
      }
    }
  }

  out.reserve(merged.size());
  for (PendingVerdict& pending : merged) {
    out.push_back(std::move(pending.verdict));
  }
  merged.clear();
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
  // The seq stamp (taken under the firing stream's mutex) is the global
  // completion order; drain_verdicts sorts by it, so the drained stream
  // is identical whether verdicts staged per-worker or centrally.
  const std::uint64_t seq =
      verdict_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t verdict_ns = now_ns();
  if (enqueue_ns > 0) {
    auto& hot = obs::hot_path();
    if (hot.enabled.load(std::memory_order_relaxed)) {
      hot.verdict_e2e_ns.observe(verdict_ns - enqueue_ns);
    }
  }
  PendingVerdict pending{
      seq, {job_id, std::move(result), source, enqueue_ns, verdict_ns}};
  if (tl_worker_ != nullptr && tl_worker_->owner == this) {
    // Worker fast path: stage locally; no cross-worker lock traffic on
    // the scoring path.
    std::lock_guard lock(tl_worker_->staging_mutex);
    tl_worker_->staging.push_back(std::move(pending));
  } else {
    std::lock_guard lock(verdicts_mutex_);
    verdicts_.push_back(std::move(pending));
  }
  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<RecognitionService::PendingVerdict>
RecognitionService::collect_pending_verdicts() const {
  std::vector<PendingVerdict> merged;
  {
    std::lock_guard lock(verdicts_mutex_);
    merged = verdicts_;
  }
  for (const auto& worker : workers_) {
    std::lock_guard lock(worker->staging_mutex);
    merged.insert(merged.end(), worker->staging.begin(),
                  worker->staging.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const PendingVerdict& a, const PendingVerdict& b) {
              return a.seq < b.seq;
            });
  return merged;
}

std::size_t RecognitionService::pending_verdict_count() const {
  std::size_t count = 0;
  {
    std::lock_guard lock(verdicts_mutex_);
    count = verdicts_.size();
  }
  for (const auto& worker : workers_) {
    std::lock_guard lock(worker->staging_mutex);
    count += worker->staging.size();
  }
  return count;
}

}  // namespace efd::core

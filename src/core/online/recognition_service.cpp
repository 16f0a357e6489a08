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
    : RecognitionService(
          std::make_shared<DictionaryHandle::Epoch>(1, std::move(dictionary)),
          config) {}

RecognitionService::RecognitionService(
    std::shared_ptr<DictionaryHandle::Epoch> initial,
    RecognitionServiceConfig config)
    : handle_(std::move(initial)), config_(config) {
  if (config_.job_queue_capacity == 0) config_.job_queue_capacity = 1;
}

const Dictionary& RecognitionService::dictionary() const {
  // The handle's current_ reference keeps this epoch alive after the
  // acquire() temporary drops, so the borrow is valid until the next
  // swap publishes a successor.
  return handle_.acquire()->dictionary;
}

RecognitionService::SwapOutcome RecognitionService::swap_dictionary(
    Dictionary next) {
  return handle_.swap_if_changed(std::move(next));
}

RecognitionService::SwapOutcome RecognitionService::swap_dictionary(
    std::string_view text) {
  return handle_.swap_if_changed(text);
}

std::int64_t RecognitionService::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SourceIngressStats* RecognitionService::ingress_for(std::uint32_t source_tag) {
  SourceIngressStats& ingress = source_ingress_[source_tag];
  ingress.source = source_tag;
  return &ingress;
}

bool RecognitionService::open_job(std::uint64_t job_id,
                                  std::uint32_t node_count,
                                  std::uint32_t source_tag) {
  const auto [it, opened] =
      jobs_.try_emplace(job_id, handle_.acquire(), job_id, node_count);
  if (!opened) return false;
  JobStream& stream = it->second;
  stream.last_activity_ns = now_ns();
  stream.ingress = ingress_for(source_tag);
  ++jobs_opened_;
  ++stream.ingress->jobs_opened;
  return true;
}

bool RecognitionService::has_job(std::uint64_t job_id) const {
  const auto it = jobs_.find(job_id);
  return it != jobs_.end() && !it->second.done;
}

RecognitionService::JobStream* RecognitionService::find_stream(
    std::uint64_t job_id) {
  const auto it = jobs_.find(job_id);
  return it != jobs_.end() ? &it->second : nullptr;
}

bool RecognitionService::enqueue(JobStream& stream, const SamplePush& sample,
                                 std::int64_t enqueue_ns) {
  if (stream.done) {
    // The verdict already fired; the stream lingers until the next
    // drain. Counted separately from drops — a job streaming past its
    // window end is healthy, not a routing failure.
    ++samples_late_;
    return false;
  }

  if (stream.queue.size() >= config_.job_queue_capacity) {
    if (!config_.deferred || config_.policy == BackpressurePolicy::kBlock) {
      // The owner thread IS the consumer, so recognize the backlog
      // instead of shedding it: inline mode always does (a push_batch
      // larger than the queue stays as lossless as per-sample inline
      // pushes), and a deferred kBlock push forces the drain it would
      // otherwise wait for.
      if (config_.deferred) ++pushes_blocked_;
      drain_stream(stream);
      if (stream.done) {
        ++samples_late_;
        return false;
      }
    } else if (config_.policy == BackpressurePolicy::kReject) {
      ++samples_rejected_;
      return false;
    } else {
      // kDropOldest: O(queue) memmove of PODs — acceptable on this
      // degraded lossy path; the lossless policies never reach it.
      stream.queue.erase(stream.queue.begin());
      ++samples_overflowed_;
    }
  }

  // Resolve the metric to its dictionary slot here, once: metric_slot only
  // reads the pinned epoch's immutable config.
  stream.queue.push_back(Sample{sample.node_id, sample.t, sample.value,
                                stream.recognizer.metric_slot(sample.metric),
                                enqueue_ns});
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
  return push_unread_batch(job_id, samples.size(),
                           [samples] { return samples; });
}

std::size_t RecognitionService::push_stream(
    JobStream& stream, std::span<const SamplePush> samples) {
  if (samples.empty()) return 0;
  std::size_t accepted = 0;
  // One clock read serves the whole batch: every accepted sample shares
  // this admission stamp (the e2e latency origin) and it doubles as the
  // stream's activity time, so latency stamping adds no steady-state
  // clock calls.
  const std::int64_t batch_ns = now_ns();
  auto& hot = obs::hot_path();
  const bool timed = hot.sample_now();
  for (const SamplePush& sample : samples) {
    if (enqueue(stream, sample, batch_ns)) ++accepted;
  }
  if (timed) hot.enqueue_ns.observe(now_ns() - batch_ns);
  if (accepted > 0) {
    stream.last_activity_ns = batch_ns;
    if (!config_.deferred) {
      drain_stream(stream);
    } else if (!stream.scheduled) {
      // Mark the stream dirty for the next process_pending, once.
      stream.scheduled = true;
      dirty_.push_back(&stream);
    }
  }
  return accepted;
}

JobVerdict RecognitionService::make_verdict(JobStream& stream,
                                            std::int64_t enqueue_ns) {
  JobVerdict verdict;
  verdict.job_id = stream.job_id;
  // An unready stream yields a default (unrecognized) verdict — the
  // paper's unknown-application safeguard for truncated executions.
  if (auto result = stream.recognizer.result()) verdict.result = *result;
  verdict.source = stream.ingress != nullptr ? stream.ingress->source : 0;
  verdict.enqueue_ns = enqueue_ns;
  verdict.verdict_ns = now_ns();
  return verdict;
}

void RecognitionService::drain_queue(JobStream& stream, Drained& out) {
  out.fed = 0;
  out.late = 0;
  out.verdict.reset();
  if (stream.queue.empty()) return;
  auto& hot = obs::hot_path();
  const bool timed = hot.sample_now();
  const std::int64_t score_start = timed ? now_ns() : 0;
  for (const Sample& sample : stream.queue) {
    if (sample.metric_slot != kNoMetricSlot) {
      stream.recognizer.push_slot(sample.node_id, sample.metric_slot,
                                  sample.t, sample.value);
    }
    ++out.fed;  // unknown-metric samples still count as fed, as before
    if (stream.recognizer.ready()) {
      out.verdict = make_verdict(stream, sample.enqueue_ns);
      break;
    }
  }
  if (timed) hot.score_ns.observe(now_ns() - score_start);
  // Samples behind the one that closed the last window are late.
  out.late = stream.queue.size() - out.fed;
  stream.queue.clear();
}

std::size_t RecognitionService::settle(JobStream& stream, Drained& drained) {
  samples_pushed_ += drained.fed;
  samples_late_ += drained.late;
  if (stream.ingress != nullptr) stream.ingress->samples_pushed += drained.fed;
  if (drained.verdict) {
    JobVerdict& verdict = *drained.verdict;
    if (verdict.enqueue_ns > 0) {
      auto& hot = obs::hot_path();
      if (hot.enabled.load(std::memory_order_relaxed)) {
        hot.verdict_e2e_ns.observe(verdict.verdict_ns - verdict.enqueue_ns);
      }
    }
    verdicts_.push_back(std::move(verdict));
    ++jobs_completed_;
    if (stream.ingress != nullptr) ++stream.ingress->jobs_completed;
    stream.done = true;
  }
  return drained.fed;
}

std::size_t RecognitionService::drain_stream(JobStream& stream) {
  Drained drained;
  drain_queue(stream, drained);
  return settle(stream, drained);
}

std::size_t RecognitionService::process_pending(util::ThreadPool* pool) {
  if (dirty_.empty()) return 0;
  // Pass 1 touches only each dirty stream and its own slot, so it fans
  // out with no lock; pass 2 folds the slots in dirty-list order on the
  // owner thread, so the verdict order does not depend on the pool.
  drained_.resize(dirty_.size());
  const auto drain_one = [this](std::size_t i) {
    drain_queue(*dirty_[i], drained_[i]);
  };
  if (pool != nullptr && dirty_.size() > 1) {
    util::parallel_for(*pool, 0, dirty_.size(), drain_one);
  } else {
    for (std::size_t i = 0; i < dirty_.size(); ++i) drain_one(i);
  }
  std::size_t fed = 0;
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    dirty_[i]->scheduled = false;
    fed += settle(*dirty_[i], drained_[i]);
  }
  dirty_.clear();
  return fed;
}

void RecognitionService::finish_stream(JobStream& stream) {
  // Flush accepted-but-unprocessed samples first — they arrived before
  // the close decision. Force-closed verdicts carry no enqueue stamp:
  // their latency is dominated by the close/evict decision, not the
  // scoring path.
  Drained drained;
  drain_queue(stream, drained);
  if (!drained.verdict) drained.verdict = make_verdict(stream, 0);
  drained.verdict->enqueue_ns = 0;
  settle(stream, drained);
}

bool RecognitionService::close_job(std::uint64_t job_id) {
  JobStream* const stream = find_stream(job_id);
  if (stream == nullptr || stream->done) return false;
  finish_stream(*stream);
  return true;
}

std::size_t RecognitionService::sweep_stale_jobs(
    std::chrono::steady_clock::duration ttl) {
  const std::int64_t cutoff =
      now_ns() -
      std::chrono::duration_cast<std::chrono::nanoseconds>(ttl).count();
  std::size_t evicted = 0;
  for (auto& [job_id, stream] : jobs_) {
    if (!stream.done && stream.last_activity_ns <= cutoff) {
      finish_stream(stream);
      ++evicted;
    }
  }
  jobs_evicted_ += evicted;
  return evicted;
}

std::vector<JobVerdict> RecognitionService::drain_verdicts() {
  std::vector<JobVerdict> drained;
  drain_verdicts(drained);
  return drained;
}

void RecognitionService::drain_verdicts(std::vector<JobVerdict>& out) {
  take_verdicts(out);
  reap(out);
}

void RecognitionService::take_verdicts(std::vector<JobVerdict>& out) {
  // verdicts_ inherits out's cleared buffer: the two trade capacity.
  out.clear();
  out.swap(verdicts_);
}

void RecognitionService::reap(std::span<const JobVerdict> verdicts) {
  // Reap by the drained verdicts' job ids, so this visits the finished
  // streams only, never every open one. A restored verdict may name a
  // job that is open again (captured both ways by an older snapshot);
  // that stream is not done and stays. Reaped ids become reusable from
  // here, and a reaped stream leaves the dirty list with its storage.
  for (const JobVerdict& verdict : verdicts) {
    const auto it = jobs_.find(verdict.job_id);
    if (it == jobs_.end() || !it->second.done) continue;
    if (it->second.scheduled) std::erase(dirty_, &it->second);
    jobs_.erase(it);
  }
}

RecognitionServiceStats RecognitionService::stats() const {
  RecognitionServiceStats stats;
  stats.dictionary_epoch = handle_.version();
  stats.dictionary_swaps = handle_.swap_count();
  stats.dictionary_swaps_noop = handle_.noop_swap_count();
  {
    const std::shared_ptr<DictionaryHandle::Epoch> epoch = handle_.acquire();
    stats.index_build_seconds = epoch->dictionary.index_build_seconds();
    stats.index_bytes = epoch->dictionary.probe_index()->resident_bytes();
  }
  for (const auto& [job_id, stream] : jobs_) {
    if (!stream.done) {
      ++stats.active_jobs;
      if (stream.epoch->version != stats.dictionary_epoch) {
        ++stats.jobs_on_stale_epoch;
      }
    }
    stats.queued_samples += stream.queue.size();
  }
  stats.pending_verdicts = verdicts_.size();
  stats.jobs_opened = jobs_opened_;
  stats.jobs_completed = jobs_completed_;
  stats.jobs_evicted = jobs_evicted_;
  stats.samples_pushed = samples_pushed_;
  stats.samples_dropped = samples_dropped_;
  stats.samples_late = samples_late_;
  stats.samples_overflowed = samples_overflowed_;
  stats.samples_rejected = samples_rejected_;
  stats.pushes_blocked = pushes_blocked_;
  // A lone untagged source (the legacy single-transport mode) keeps
  // by_source empty — the aggregate counters already ARE its view.
  const bool tagged =
      source_ingress_.size() > 1 ||
      (!source_ingress_.empty() && source_ingress_.begin()->first != 0);
  if (tagged) {
    stats.by_source.reserve(source_ingress_.size());
    for (const auto& [tag, ingress] : source_ingress_) {
      stats.by_source.push_back(ingress);
    }
  }
  return stats;
}

std::vector<std::uint64_t> RecognitionService::open_job_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(jobs_.size());
  for (const auto& [job_id, stream] : jobs_) {
    if (!stream.done) ids.push_back(job_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace efd::core

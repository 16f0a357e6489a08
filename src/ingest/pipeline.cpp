#include "ingest/pipeline.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "core/online/service_snapshot.hpp"
#include "core/rounding_kernel.hpp"
#include "ingest/buffer_pool.hpp"
#include "ingest/snapshot_chain.hpp"
#include "ingest/subscription.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "retrain/retrain_controller.hpp"
#include "util/thread_pool.hpp"

namespace efd::ingest {

namespace {

/// Max wait per poll: bounds the sweep and snapshot cadence jitter.
/// stop() and the HTTP plane ring or ride the loop, so they never wait
/// it out.
constexpr std::chrono::milliseconds kPollTimeout{50};

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Minimal JSON string escape for /index values (source names, error
// text): quotes, backslashes, and control bytes.
std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Message make_verdict_message(const core::JobVerdict& verdict) {
  Message message;
  message.type = MessageType::kVerdict;
  message.job_id = verdict.job_id;
  message.verdict.recognized = verdict.result.recognized;
  message.verdict.matched =
      static_cast<std::uint32_t>(verdict.result.matched_count);
  message.verdict.fingerprints =
      static_cast<std::uint32_t>(verdict.result.fingerprint_count);
  message.verdict.application = verdict.result.prediction();
  message.verdict.label = verdict.result.label_prediction();
  return message;
}

IngestPipeline::IngestPipeline(core::RecognitionService& service,
                               SourceMux& sources,
                               IngestPipelineConfig config,
                               util::ThreadPool* pool)
    : service_(service), sources_(&sources), config_(config), pool_(pool) {
  init_observability();
}

IngestPipeline::IngestPipeline(core::RecognitionService& service,
                               SampleSource& source,
                               IngestPipelineConfig config,
                               util::ThreadPool* pool)
    : service_(service),
      owned_mux_(std::make_unique<SourceMux>()),
      sources_(owned_mux_.get()),
      config_(config),
      pool_(pool) {
  owned_mux_->add_source("source", source);
  init_observability();
}

void IngestPipeline::init_observability() {
  start_ns_ = steady_now_ns();
  if (config_.http_port < 0) return;
  // Bound here, not in run(): probes can connect as soon as the process
  // constructed its pipeline, and a bind conflict fails construction
  // loudly instead of surfacing mid-serve. The handler runs on the run()
  // thread, inside SourceMux::poll.
  http_ = std::make_unique<obs::HttpServer>(
      sources_->loop(), static_cast<std::uint16_t>(config_.http_port),
      [this](const obs::HttpRequest& request) {
        obs::HttpResponse response;
        if (request.target == "/metrics") {
          response.content_type = "text/plain; version=0.0.4; charset=utf-8";
          response.body = scrape_rows().exposition(obs::global_metrics());
        } else if (request.target == "/index") {
          response.content_type = "application/json";
          response.body = index_json();
        } else if (request.target == "/healthz") {
          response.content_type = "application/json";
          response.body = "{\"status\":\"ok\",\"role\":\"leader\"}\n";
        } else {
          response.status = 404;
          response.body = "not found\n";
        }
        return response;
      });
}

std::uint16_t IngestPipeline::http_port() const noexcept {
  return http_ != nullptr ? http_->port() : 0;
}

IngestPipeline::~IngestPipeline() {
  stop();
  join();
}

void IngestPipeline::start() {
  thread_ = std::thread([this] { run(); });
}

void IngestPipeline::stop() {
  stop_.store(true, std::memory_order_release);
  sources_->loop()->wake();
}

void IngestPipeline::join() {
  if (thread_.joinable()) thread_.join();
}

void read_sample_batch(
    const SampleBatchView& batch,
    std::vector<core::RecognitionService::SamplePush>& out) {
  out.resize(batch.count);
  core::RecognitionService::SamplePush* push = out.data();
  for_each_sample(batch, [&push](const SampleRef& sample) {
    *push++ = {sample.node_id, sample.t, sample.value, sample.metric};
  });
}

void IngestPipeline::maybe_rebind_reply(
    std::uint64_t job_id, const std::shared_ptr<VerdictSink>& reply,
    SourceId source, bool known_open) {
  // A job restored from a snapshot is open in the service but has no
  // reply route (its emitter's connection died with the old process).
  // Bind it to the first (source, connection) that streams it, so a
  // reconnecting emitter — on whichever transport it comes back over —
  // receives the verdict it is still owed.
  if (reply == nullptr || replies_.contains(job_id)) return;
  if (!known_open && !service_.has_job(job_id)) return;
  replies_[job_id] = ReplyRoute{reply, source};
  ++stats_.jobs_rebound;
}

void IngestPipeline::deliver_parked(
    std::uint64_t job_id, const std::shared_ptr<VerdictSink>& reply,
    SourceId source) {
  if (reply == nullptr || parked_verdicts_.empty()) return;
  const auto it = parked_verdicts_.find(job_id);
  if (it == parked_verdicts_.end()) return;
  reply->deliver(it->second);
  parked_verdicts_.erase(it);
  sources_->note_verdict(source);
  ++stats_.verdicts_delivered;
}

void IngestPipeline::observe_sink(const std::shared_ptr<VerdictSink>& reply) {
  if (config_.retrain == nullptr || reply == nullptr) return;
  // Assign, never try_emplace: a new connection's sink can be allocated
  // at a freed sink's address, and the stale expired entry would
  // otherwise shadow it forever.
  observers_[reply.get()] = reply;
  // Bound the map across connection churn even when no retrain cycle
  // ever publishes (the other pruning point). Sweep only when the map
  // has grown past twice its post-sweep size: genuinely amortized — a
  // steady population of live connections never re-pays the scan on
  // every message.
  if (observers_.size() >= observers_sweep_at_) {
    for (auto it = observers_.begin(); it != observers_.end();) {
      it = it->second.expired() ? observers_.erase(it) : std::next(it);
    }
    observers_sweep_at_ = std::max<std::size_t>(64, observers_.size() * 2);
  }
}

void IngestPipeline::dispatch(Envelope& envelope) {
  Message& message = envelope.message;
  observe_sink(envelope.reply);
  switch (message.type) {
    case MessageType::kOpenJob:
      deliver_parked(message.job_id, envelope.reply, envelope.source);
      if (service_.open_job(message.job_id, message.node_count,
                            envelope.source)) {
        ++stats_.jobs_opened;
        replies_[message.job_id] =
            ReplyRoute{envelope.reply, envelope.source};
        if (config_.retrain != nullptr) {
          config_.retrain->recorder().job_opened(
              message.job_id, message.node_count, envelope.source);
        }
      } else {
        ++stats_.open_rejected;
        // Open for a job restored from a snapshot: the stream already
        // exists, but the new connection is its emitter now.
        maybe_rebind_reply(message.job_id, envelope.reply, envelope.source);
      }
      break;
    case MessageType::kSampleBatch: {
      deliver_parked(message.job_id, envelope.reply, envelope.source);
      const std::size_t count = envelope.sample_count();
      // One job resolution per wire batch, and the samples are read only
      // for an open job: a batch for an unknown, reaped or finished job
      // (a third of fleet traffic arrives after its verdict) is counted
      // unread.
      service_.push_unread_batch(message.job_id, count, [&] {
        maybe_rebind_reply(message.job_id, envelope.reply, envelope.source,
                           /*known_open=*/true);
        if (envelope.batch.data != nullptr) {
          read_sample_batch(envelope.batch, scratch_);
        } else {
          scratch_.clear();
          for (const WireSample& sample : message.samples) {
            scratch_.push_back({sample.node_id, sample.t, sample.value,
                                std::string_view(sample.metric)});
          }
        }
        return std::span<const core::RecognitionService::SamplePush>(
            scratch_);
      });
      stats_.samples += count;
      if (config_.retrain != nullptr) {
        // Capture tap: the recorder keeps samples past this poll, so a
        // wire view is copied out into WireSamples here; an owned batch
        // is moved.
        if (envelope.batch.data != nullptr) {
          for_each_sample(envelope.batch, [&message](const SampleRef& sample) {
            message.samples.push_back({sample.node_id, sample.t, sample.value,
                                       std::string(sample.metric)});
          });
        }
        config_.retrain->recorder().record_batch(message.job_id,
                                                 std::move(message.samples));
      }
      break;
    }
    case MessageType::kCloseJob:
      deliver_parked(message.job_id, envelope.reply, envelope.source);
      maybe_rebind_reply(message.job_id, envelope.reply, envelope.source);
      if (service_.close_job(message.job_id)) {
        ++stats_.jobs_closed;
      }
      break;
    case MessageType::kShutdown:
      if (config_.stop_on_shutdown_message) stop();
      break;
    case MessageType::kSwapDictionary: {
      if (!config_.allow_dictionary_swap) {
        ++stats_.swaps_rejected;
        if (envelope.reply != nullptr) {
          envelope.reply->deliver(make_swap_ack(
              false, service_.dictionary_handle().version(),
              "dictionary swap disabled on this endpoint"));
        }
        break;
      }
      try {
        const std::string_view blob(
            reinterpret_cast<const char*>(message.dictionary_blob.data()),
            message.dictionary_blob.size());
        const auto outcome =
            service_.swap_dictionary(core::Dictionary::load(blob));
        if (outcome.already_active) {
          // A byte-identical candidate must not burn an epoch; tell the
          // operator their push was a no-op instead of acking a "new"
          // epoch that never existed.
          ++stats_.swaps_rejected;
          if (envelope.reply != nullptr) {
            envelope.reply->deliver(make_swap_ack(
                false, outcome.epoch,
                "already-active: candidate is identical to the live "
                "dictionary"));
          }
          break;
        }
        ++stats_.dictionary_swaps;
        if (envelope.reply != nullptr) {
          envelope.reply->deliver(make_swap_ack(true, outcome.epoch));
        }
      } catch (const std::exception& error) {
        ++stats_.swaps_rejected;
        if (envelope.reply != nullptr) {
          envelope.reply->deliver(
              make_swap_ack(false, service_.dictionary_handle().version(),
                            error.what()));
        }
      }
      break;
    }
    case MessageType::kStatsRequest:
      ++stats_.stats_requests;
      if (envelope.reply != nullptr) {
        envelope.reply->deliver(make_stats_reply(scrape_rows().flat()));
      }
      break;
    case MessageType::kFollowRequest:
      handle_follow_request(envelope);
      break;
    case MessageType::kSubscribe:
      handle_subscribe(envelope);
      break;
    case MessageType::kSnapAck:
      // A follower's receipt: the capture is durable on ITS disk (or
      // was rejected — the follower re-handshakes on its own).
      ++(envelope.message.snap_ack.ok ? stats_.snap_acks_ok
                                      : stats_.snap_acks_failed);
      break;
    case MessageType::kPromote:
      // Promotion is a follower-side operation; a leader politely
      // declines so `efd_cli promote` pointed at the wrong endpoint
      // fails loudly instead of hanging.
      ++stats_.unexpected_messages;
      if (envelope.reply != nullptr) {
        envelope.reply->deliver(
            make_promote_ack(false, 0, "this endpoint is not a follower"));
      }
      break;
    case MessageType::kVerdict:
    case MessageType::kSwapAck:
    case MessageType::kStatsReply:
    case MessageType::kRetrainReport:
    case MessageType::kSnapBase:
    case MessageType::kSnapDelta:
    case MessageType::kPromoteAck:
    case MessageType::kSubscribeAck:
    case MessageType::kVerdictEvent:
    default:
      // Verdicts, acks, stats replies, retrain reports, and replicated
      // captures flow outbound only; anything else is a peer bug.
      ++stats_.unexpected_messages;
      break;
  }
}

void IngestPipeline::handle_subscribe(Envelope& envelope) {
  if (envelope.reply == nullptr) {
    // Fire-and-forget transport (UDP, replayed file): there is no
    // channel to stream events back on, so the subscription is a peer
    // bug, not a half-honorable request.
    ++stats_.unexpected_messages;
    return;
  }
  if (hub_ == nullptr) {
    // Lazy: a pipeline nobody subscribes to never pays for the hub's
    // dispatcher thread.
    hub_ = std::make_unique<SubscriptionHub>();
  }
  const std::uint64_t id =
      hub_->subscribe(envelope.reply, std::move(envelope.message.subscribe));
  ++stats_.subscribe_requests;
  envelope.reply->deliver(make_subscribe_ack(true, id));
}

obs::ScrapeRows IngestPipeline::scrape_rows() const {
  // Names are stable: downstream tooling diffs them across scrapes. Both
  // formats sort the rows, so the blocks below may come in any order.
  obs::ScrapeRows rows;
  const core::RecognitionServiceStats service = service_.stats();
  rows.block("service.", "efd_service_");
  rows.gauge("active_jobs", service.active_jobs);
  rows.gauge("pending_verdicts", service.pending_verdicts);
  rows.gauge("queued_samples", service.queued_samples);
  rows.counter("jobs_opened", service.jobs_opened);
  rows.counter("jobs_completed", service.jobs_completed);
  rows.counter("jobs_evicted", service.jobs_evicted);
  rows.counter("samples_pushed", service.samples_pushed);
  rows.counter("samples_dropped", service.samples_dropped);
  rows.counter("samples_late", service.samples_late);
  rows.counter("samples_overflowed", service.samples_overflowed);
  rows.counter("samples_rejected", service.samples_rejected);
  rows.counter("pushes_blocked", service.pushes_blocked);
  rows.gauge("dictionary_epoch", service.dictionary_epoch);
  rows.counter("dictionary_swaps", service.dictionary_swaps);
  rows.counter("dictionary_swaps_noop", service.dictionary_swaps_noop);
  rows.gauge("jobs_on_stale_epoch", service.jobs_on_stale_epoch);
  rows.block("dictionary.", "efd_dictionary_");
  rows.gauge("index_build_seconds", service.index_build_seconds);
  rows.gauge("index_bytes", service.index_bytes);
  for (const core::SourceIngressStats& ingress : service.by_source) {
    const std::string id = std::to_string(ingress.source);
    rows.block("service.source." + id + ".", "efd_service_source_",
               obs::label("source", id));
    rows.counter("jobs_opened", ingress.jobs_opened);
    rows.counter("jobs_completed", ingress.jobs_completed);
    rows.counter("samples_pushed", ingress.samples_pushed);
  }

  rows.block("ingest.", "efd_ingest_");
  rows.counter("envelopes", stats_.envelopes);
  rows.counter("samples", stats_.samples);
  rows.counter("jobs_opened", stats_.jobs_opened);
  rows.counter("open_rejected", stats_.open_rejected);
  rows.counter("jobs_closed", stats_.jobs_closed);
  rows.counter("verdicts_delivered", stats_.verdicts_delivered);
  rows.counter("unexpected_messages", stats_.unexpected_messages);
  rows.counter("sweeps", stats_.sweeps);
  rows.counter("evicted", stats_.evicted);
  rows.counter("snapshots_written", stats_.snapshots_written);
  rows.counter("snapshot_failures", stats_.snapshot_failures);
  rows.counter("snapshot_bases", stats_.snapshot_bases);
  rows.counter("snapshot_deltas", stats_.snapshot_deltas);
  rows.counter("restore_deltas_discarded", stats_.restore_deltas_discarded);
  rows.counter("followers_accepted", stats_.followers_accepted);
  rows.counter("follow_rejected", stats_.follow_rejected);
  rows.counter("captures_replicated", stats_.captures_replicated);
  rows.counter("captures_oversize", stats_.captures_oversize);
  rows.counter("snap_acks_ok", stats_.snap_acks_ok);
  rows.counter("snap_acks_failed", stats_.snap_acks_failed);
  rows.counter("jobs_restored", stats_.jobs_restored);
  rows.counter("jobs_rebound", stats_.jobs_rebound);
  rows.counter("dictionary_swaps", stats_.dictionary_swaps);
  rows.counter("swaps_rejected", stats_.swaps_rejected);
  rows.counter("stats_requests", stats_.stats_requests);
  rows.counter("retrain_reports", stats_.retrain_reports);
  rows.counter("subscribe_requests", stats_.subscribe_requests);
  rows.counter("verdict_events", stats_.verdict_events);
  // The flat scrape is one value token per line, so the reason text is
  // whitespace-folded; "none" keeps the row present (and diffable) on
  // healthy endpoints, and only a real error becomes an info series.
  std::string snapshot_error = stats_.snapshot_last_error;
  std::replace_if(
      snapshot_error.begin(), snapshot_error.end(),
      [](unsigned char c) { return std::isspace(c) != 0; }, '_');
  if (snapshot_error.empty()) {
    rows.text("snapshot_last_error", "none");
  } else {
    rows.info("snapshot_last_error", std::move(snapshot_error),
              "efd_ingest_snapshot_last_error_info", "reason");
  }

  // Process-global sample-buffer pool of the owned decode
  // (FrameDecoder::next(Message&)). The servers decode sample batches
  // as views and take nothing from it.
  const SampleBufferPool::Stats pool = sample_buffer_pool().stats();
  rows.block("pool.", "efd_pool_");
  rows.counter("hits", pool.hits);
  rows.counter("misses", pool.misses);
  rows.counter("returns", pool.returns);
  rows.counter("discards", pool.discards);

  // One row block per registered source: the operator's view of WHERE
  // traffic (and loss — drops/gaps on lossy transports) comes from.
  for (const SourceMuxStats& source : sources_->stats()) {
    const std::string id = std::to_string(source.id);
    rows.block("source." + id + ".", "efd_source_",
               obs::label("source", id) + "," +
                   obs::label("name", source.name));
    rows.text("name", source.name);
    rows.counter("envelopes", source.envelopes);
    rows.counter("samples", source.samples);
    rows.counter("verdicts", source.verdicts);
    rows.counter("frames", source.transport.frames);
    rows.counter("decode_errors", source.transport.decode_errors);
    rows.counter("drops", source.transport.drops);
    rows.counter("gaps", source.transport.gaps);
    rows.counter("blocked", source.transport.blocked);
    rows.counter("retransmits", source.transport.retransmits);
    rows.gauge("restored_cursor", source.restored_cursor);
    rows.gauge("exhausted", std::uint64_t{source.exhausted});
  }

  if (config_.retrain != nullptr) {
    const retrain::RetrainStats retrain = config_.retrain->stats();
    rows.block("retrain.", "efd_retrain_");
    rows.counter("cycles_triggered", retrain.cycles_triggered);
    rows.counter("cycles_trained", retrain.cycles_trained);
    rows.counter("cycles_promoted", retrain.cycles_promoted);
    rows.counter("cycles_gated_out", retrain.cycles_gated_out);
    rows.counter("cycles_already_active", retrain.cycles_already_active);
    rows.counter("cycles_skipped_no_data", retrain.cycles_skipped_no_data);
    rows.counter("cycles_failed", retrain.cycles_failed);
    rows.counter("cycles_dry_run", retrain.cycles_dry_run);
    rows.gauge("last_cycle", retrain.last_cycle);
    rows.gauge("last_promoted_epoch", retrain.last_promoted_epoch);
    rows.gauge("last_candidate_score", retrain.last_candidate_score);
    rows.gauge("last_incumbent_score", retrain.last_incumbent_score);
    const retrain::TrafficRecorderStats recorder =
        config_.retrain->recorder().stats();
    rows.gauge("window_jobs", recorder.window_jobs);
    rows.gauge("window_samples", recorder.window_samples);
    rows.gauge("window_applications", recorder.applications);
    rows.counter("jobs_captured", recorder.jobs_captured);
    rows.counter("jobs_admitted", recorder.jobs_admitted);
    rows.counter("jobs_replaced", recorder.jobs_replaced);
    rows.counter("jobs_sampled_out", recorder.jobs_sampled_out);
    rows.counter("jobs_unrecognized", recorder.jobs_unrecognized);
    rows.counter("jobs_untracked", recorder.jobs_untracked);
    rows.counter("samples_recorded", recorder.samples_recorded);
    rows.counter("samples_filtered", recorder.samples_filtered);
    rows.counter("window_resets", recorder.window_resets);
  }

  // Process identity and age.
  rows.block("build.", "");
  rows.info("version", obs::build_version(), "efd_build_info", "version");
  rows.info("sha", obs::build_sha(), "efd_build_info", "sha");
  rows.info("kernel", core::kernel_name(), "efd_build_info", "kernel");
  rows.uptime(
      static_cast<std::uint64_t>((steady_now_ns() - start_ns_) / 1'000'000'000));

  // One row block per live verdict subscriber: delivered/dropped tell an
  // operator WHICH consumer is too slow for the verdict rate.
  if (hub_ != nullptr) {
    for (const SubscriptionHub::SubscriberStats& sub : hub_->stats()) {
      const std::string id = std::to_string(sub.id);
      rows.block("subscriber." + id + ".", "efd_subscriber_",
                 obs::label("subscriber", id));
      rows.counter("delivered", sub.delivered);
      rows.counter("dropped", sub.dropped);
      rows.gauge("queued", sub.queued);
    }
  }
  return rows;
}

std::string IngestPipeline::index_json() const {
  // Runs on the run() thread (inside SourceMux::poll) or after run()
  // returns, so the service and this pipeline read as of the last poll
  // boundary.
  constexpr std::size_t kMaxListedJobs = 256;
  const core::RecognitionServiceStats service = service_.stats();
  const std::vector<std::uint64_t> jobs = service_.open_job_ids();

  std::ostringstream out;
  out << "{\"uptime_seconds\":"
      << (steady_now_ns() - start_ns_) / 1'000'000'000
      << ",\"build\":{\"version\":\"" << json_escape(obs::build_version())
      << "\",\"sha\":\"" << json_escape(obs::build_sha())
      << "\",\"kernel\":\"" << json_escape(core::kernel_name()) << "\"}"
      << ",\"dictionary\":{\"epoch\":" << service.dictionary_epoch
      << ",\"swaps\":" << service.dictionary_swaps << "}";

  out << ",\"jobs\":{\"active\":" << service.active_jobs
      << ",\"pending_verdicts\":" << service.pending_verdicts << ",\"ids\":[";
  const std::size_t listed = std::min(jobs.size(), kMaxListedJobs);
  for (std::size_t i = 0; i < listed; ++i) {
    if (i != 0) out << ',';
    out << jobs[i];
  }
  out << "],\"ids_truncated\":" << (jobs.size() > listed ? "true" : "false")
      << "}";

  out << ",\"sources\":[";
  bool first = true;
  for (const SourceMuxStats& source : sources_->stats()) {
    if (!first) out << ',';
    first = false;
    out << "{\"id\":" << source.id << ",\"name\":\""
        << json_escape(source.name) << "\",\"envelopes\":" << source.envelopes
        << ",\"samples\":" << source.samples
        << ",\"verdicts\":" << source.verdicts
        << ",\"exhausted\":" << (source.exhausted ? "true" : "false") << "}";
  }
  out << "]";

  // The last capture written, not chain_.last_capture_id: a failed
  // write zeroes that to force a fresh base.
  out << ",\"snapshot_chain\":{\"length\":" << chain_records_.size()
      << ",\"last_capture_id\":"
      << (chain_records_.empty() ? 0 : chain_records_.back().capture_id)
      << ",\"written\":" << stats_.snapshots_written
      << ",\"failures\":" << stats_.snapshot_failures
      << ",\"last_error\":\"" << json_escape(stats_.snapshot_last_error)
      << "\"}";

  out << ",\"followers\":{\"live\":" << followers_.size()
      << ",\"accepted\":" << stats_.followers_accepted << "}";

  out << ",\"subscribers\":[";
  if (hub_ != nullptr) {
    first = true;
    for (const SubscriptionHub::SubscriberStats& sub : hub_->stats()) {
      if (!first) out << ',';
      first = false;
      out << "{\"id\":" << sub.id << ",\"delivered\":" << sub.delivered
          << ",\"dropped\":" << sub.dropped << ",\"queued\":" << sub.queued
          << "}";
    }
  }
  out << "]}\n";
  return std::move(out).str();
}

void IngestPipeline::publish_retrain_reports() {
  if (config_.retrain == nullptr) return;
  const std::vector<retrain::RetrainReport> reports =
      config_.retrain->drain_reports();
  if (reports.empty()) return;
  for (const retrain::RetrainReport& report : reports) {
    WireRetrainReport wire;
    wire.cycle = report.cycle;
    wire.outcome = static_cast<std::uint8_t>(report.outcome);
    wire.epoch = report.epoch;
    wire.candidate_score = report.candidate_score;
    wire.incumbent_score = report.incumbent_score;
    wire.window_jobs = report.window_jobs;
    wire.holdout_jobs = report.holdout_jobs;
    const Message message = make_retrain_report(wire);
    for (auto it = observers_.begin(); it != observers_.end();) {
      if (const auto sink = it->second.lock()) {
        sink->deliver(message);
        ++stats_.retrain_reports;
        ++it;
      } else {
        it = observers_.erase(it);  // connection is gone
      }
    }
  }
}

void IngestPipeline::write_snapshot() {
  // Encode the capture in memory first: base (full, Dictionary
  // included) when the dictionary epoch moved or the chain is at its
  // length limit, an incremental delta otherwise.
  std::ostringstream buffer(std::ios::binary);
  core::SnapshotCaptureInfo info;
  try {
    std::vector<std::uint8_t> retrain_state;
    if (config_.retrain != nullptr) {
      retrain_state = config_.retrain->encode_state();
    }
    // One named resume cursor per registered source (its lifetime
    // envelope count), alongside the legacy aggregate cursor. Only
    // genuinely multi-source pipelines write the extended Meta body:
    // a single-source deployment's per-source cursor would be
    // redundant with the aggregate.
    std::vector<core::SourceCursor> cursors;
    const std::vector<SourceMuxStats> source_stats = sources_->stats();
    if (source_stats.size() > 1) {
      for (const SourceMuxStats& source : source_stats) {
        cursors.push_back({source.name, source.envelopes});
      }
    }
    const bool force_base =
        config_.snapshot_chain_limit == 0 ||
        chain_.deltas_since_base >= config_.snapshot_chain_limit;
    info = service_.snapshot_capture(buffer, chain_, force_base,
                                     stats_.envelopes, retrain_state, cursors);
  } catch (const std::exception& error) {
    // Durability is best-effort while serving: count it, surface the
    // reason in the scrape, keep going. The chain state is untouched
    // (snapshot_capture commits only on success).
    ++stats_.snapshot_failures;
    stats_.snapshot_last_error = error.what();
    return;
  }

  const std::string blob = std::move(buffer).str();
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size());
  std::string error;
  if (!persist_capture(config_.snapshot_path, info.base, info.capture_id,
                       bytes, &error)) {
    ++stats_.snapshot_failures;
    stats_.snapshot_last_error = error;
    // The capture id is burned but its bytes never became durable, so
    // the on-disk chain no longer links to the in-memory one: force
    // the next capture to start a fresh base.
    chain_.last_capture_id = 0;
    return;
  }
  if (info.base) {
    ++stats_.snapshot_bases;
    chain_records_.clear();
  } else {
    ++stats_.snapshot_deltas;
  }

  // Remember the capture for follower catch-up and stream it to every
  // live follower. 18 = the kSnapBase/kSnapDelta frame's own header
  // (u32 len | version | type | u64 capture_id | u64 parent_id).
  ChainRecord record;
  record.base = info.base;
  record.capture_id = info.capture_id;
  record.parent_id = info.parent_id;
  if (blob.size() + 18 <= kMaxFrameBytes) {
    record.bytes = std::make_shared<const std::vector<std::uint8_t>>(
        blob.begin(), blob.end());
  }
  if (!followers_.empty()) {
    if (record.bytes == nullptr) {
      ++stats_.captures_oversize;
    } else {
      const Message frame =
          make_snap_capture(record.base, record.capture_id, record.parent_id,
                            std::vector<std::uint8_t>(*record.bytes));
      for (auto it = followers_.begin(); it != followers_.end();) {
        if (const auto sink = it->lock()) {
          sink->deliver(frame);
          ++stats_.captures_replicated;
          ++it;
        } else {
          it = followers_.erase(it);  // follower is gone
        }
      }
    }
  }
  chain_records_.push_back(std::move(record));

  const std::uint64_t count = ++stats_.snapshots_written;
  verdicts_at_last_snapshot_ = stats_.verdicts_delivered;
  if (config_.on_snapshot) {
    config_.on_snapshot(count, capture_path(config_.snapshot_path, info.base,
                                            info.capture_id));
  }
}

void IngestPipeline::handle_follow_request(Envelope& envelope) {
  if (!config_.allow_followers || envelope.reply == nullptr) {
    // Gated off, or a fire-and-forget transport with no channel to
    // stream captures back on.
    ++stats_.follow_rejected;
    if (envelope.reply != nullptr) {
      envelope.reply->deliver(
          make_snap_ack(false, 0, "followers disabled on this endpoint"));
    }
    return;
  }

  // Catch-up: everything after the follower's durable cursor. A cursor
  // we do not hold (leader restarted, follower from another lineage)
  // gets the full chain — the base resets the follower's local chain.
  std::size_t start = 0;
  if (const std::uint64_t cursor = envelope.message.capture_id; cursor != 0) {
    for (std::size_t i = 0; i < chain_records_.size(); ++i) {
      if (chain_records_[i].capture_id == cursor) {
        start = i + 1;
        break;
      }
    }
  }
  for (std::size_t i = start; i < chain_records_.size(); ++i) {
    const ChainRecord& record = chain_records_[i];
    if (record.bytes == nullptr) {
      // Too large for a wire frame (the kSwapDictionary limitation):
      // nothing after it can apply either. The follower re-syncs at
      // the next base small enough to travel.
      ++stats_.captures_oversize;
      envelope.reply->deliver(make_snap_ack(
          false, record.capture_id,
          "capture exceeds the wire frame limit; awaiting a smaller base"));
      break;
    }
    envelope.reply->deliver(
        make_snap_capture(record.base, record.capture_id, record.parent_id,
                          std::vector<std::uint8_t>(*record.bytes)));
    ++stats_.captures_replicated;
  }

  ++stats_.followers_accepted;
  for (const std::weak_ptr<VerdictSink>& existing : followers_) {
    if (existing.lock() == envelope.reply) return;  // re-handshake, same link
  }
  followers_.push_back(envelope.reply);
}

std::uint64_t IngestPipeline::flush_verdicts() {
  // Stage first, ship second: verdicts that drained in one poll cycle
  // and route to the same connection leave in a single deliver_many()
  // call (one vectored syscall on the TCP path) instead of one write
  // per verdict. The drain and staging vectors are members, so a steady
  // verdict rate reuses their capacity allocation-free.
  std::uint64_t delivered = 0;
  obs::HotPathMetrics& hot = obs::hot_path();
  const bool timed = hot.enabled.load(std::memory_order_relaxed);
  const std::int64_t flush_start = timed ? steady_now_ns() : 0;
  // hub_ is created and owned by this (the run()) thread; publish() fans
  // a copy of each verdict out to subscriber queues without ever
  // blocking — slow consumers shed events in the hub, not here.
  SubscriptionHub* const hub =
      hub_ != nullptr && hub_->has_subscribers() ? hub_.get() : nullptr;
  std::vector<Message>& messages = outbound_verdicts_;
  std::vector<ReplyRoute>& routes = outbound_routes_;
  messages.clear();
  routes.clear();
  // Take the verdicts now and reap their streams only after delivery:
  // the teardown stays off every verdict's path to its peer.
  service_.take_verdicts(drained_verdicts_);
  for (const core::JobVerdict& verdict : drained_verdicts_) {
    if (config_.on_verdict) config_.on_verdict(verdict);
    if (hub != nullptr) {
      const std::uint64_t latency_ns =
          verdict.enqueue_ns > 0 && verdict.verdict_ns > verdict.enqueue_ns
              ? static_cast<std::uint64_t>(verdict.verdict_ns -
                                           verdict.enqueue_ns)
              : 0;
      Message event = make_verdict_message(verdict);
      event.type = MessageType::kVerdictEvent;
      event.verdict_event.source = verdict.source;
      event.verdict_event.latency_ns = latency_ns;
      hub->publish(event, event.verdict.application);
      ++stats_.verdict_events;
    }
    if (config_.retrain != nullptr) {
      // Capture tap: the verdict's label is what the captured samples
      // train under (self-training from served traffic).
      config_.retrain->recorder().job_finished(
          verdict.job_id, verdict.result.recognized,
          verdict.result.label_prediction());
    }
    ++delivered;
    const auto it = replies_.find(verdict.job_id);
    if (it == replies_.end()) continue;
    if (it->second.sink != nullptr) {
      messages.push_back(make_verdict_message(verdict));
      routes.push_back(it->second);
    }
    replies_.erase(it);
  }
  for (std::size_t i = 0; i < messages.size();) {
    std::size_t j = i + 1;
    while (j < messages.size() && routes[j].sink == routes[i].sink) ++j;
    routes[i].sink->deliver_many(
        std::span<const Message>(messages).subspan(i, j - i));
    for (std::size_t k = i; k < j; ++k) {
      // Only an actual delivery counts toward source.<id>.verdicts
      // ("verdicts routed back") — fire-and-forget emitters have no
      // reply channel.
      sources_->note_verdict(routes[k].source);
    }
    i = j;
  }
  messages.clear();
  routes.clear();
  service_.reap(drained_verdicts_);
  if (delivered > 0) {
    stats_.verdicts_delivered += delivered;
    // Only flushes that moved a verdict are observed — the poll loop
    // calls this every iteration and empty passes would swamp the
    // histogram with no-op timings.
    if (timed) hot.flush_ns.observe(steady_now_ns() - flush_start);
  }
  return delivered;
}

std::uint64_t IngestPipeline::run() {
  // Declare every registered source's tag to the service up front, so a
  // multi-listener deployment shows its service.source.* rows (even
  // all-zero ones) from the first scrape — not only once a job happens
  // to arrive on a non-zero source.
  for (const SourceMuxStats& source : sources_->stats()) {
    service_.register_source_tag(source.id);
  }
  if (config_.restore_on_start && !config_.snapshot_path.empty()) {
    // Only a genuinely ABSENT file is a normal first boot. A snapshot
    // that exists but cannot be opened (permissions, I/O error) — like a
    // corrupt one — throws SnapshotError out of run(): crash recovery
    // with bad state is the operator's call (delete the file to boot
    // fresh), never something to guess past silently.
    std::error_code probe;
    if (std::filesystem::exists(config_.snapshot_path, probe)) {
      const ChainRestoreResult restored =
          restore_service_from_chain(service_, config_.snapshot_path);
      if (!restored.fallback_error.empty()) {
        // The base restored but its delta chain did not: the discard
        // is loud — stderr for the operator, the scrape for monitors —
        // never a silent rewind to older state.
        stats_.restore_deltas_discarded = restored.deltas_discarded;
        stats_.snapshot_last_error =
            "restore discarded " + std::to_string(restored.deltas_discarded) +
            " delta(s): " + restored.fallback_error;
        std::fprintf(stderr,
                     "warning: snapshot chain at %s: discarded %zu delta(s) "
                     "and fell back to the base: %s\n",
                     config_.snapshot_path.c_str(), restored.deltas_discarded,
                     restored.fallback_error.c_str());
      }
      // Continue the restored capture lineage: the next capture is a
      // fresh base whose id follows everything already on disk, so a
      // follower that held the old chain sees a reset, never a rewind.
      chain_.next_capture_id = restored.info.last_capture_id + 1;
      const core::ServiceRestoreInfo& info = restored.info;
      stats_.jobs_restored = info.jobs_restored;
      // Seed per-source envelope counters from the snapshot's named
      // cursors, so lifetime source.<id>.* rows stay continuous across
      // the restart. A cursor whose name no longer matches a registered
      // source (the operator rewired the topology) is dropped — never
      // misattributed to a different transport.
      for (const core::SourceCursor& cursor : info.source_cursors) {
        sources_->seed_cursor(cursor.name, cursor.cursor);
      }
      if (config_.retrain != nullptr &&
          !config_.retrain->restore_state(info.retrain_state)) {
        // The section passed its CRC, so a decode failure is version
        // skew, not bit rot — fail as loudly as any other corrupt
        // snapshot rather than silently zeroing the retrain lineage.
        throw core::SnapshotError("retrain state rejected by controller");
      }
      // Verdicts that completed pre-crash but were never shipped: park
      // them for the emitter's reconnect (see deliver_parked) instead of
      // flushing them at nobody on the first loop iteration. They are
      // NOT offered to the traffic recorder: their samples died with the
      // old process.
      for (core::JobVerdict& verdict : service_.drain_verdicts()) {
        if (config_.on_verdict) config_.on_verdict(verdict);
        parked_verdicts_[verdict.job_id] = make_verdict_message(verdict);
      }
    }
  }

  std::uint64_t total_delivered = 0;
  const auto start = std::chrono::steady_clock::now();
  auto last_sweep = start;
  auto last_snapshot = start;
  std::vector<Envelope> batch;
  bool more = true;

  while (more && !stop_.load(std::memory_order_acquire)) {
    if (config_.external_stop != nullptr &&
        config_.external_stop->load(std::memory_order_relaxed)) {
      // Signal-driven shutdown (SIGTERM/SIGINT in the CLI): break into
      // the normal wind-down below — drain, close jobs, final snapshot
      // — instead of dying with the last snapshot stale.
      break;
    }
    batch.clear();
    // The only wait of the loop; HTTP requests are answered inside it.
    more = sources_->poll(batch, kPollTimeout);
    if (!batch.empty()) {
      stats_.envelopes += batch.size();
      for (Envelope& envelope : batch) dispatch(envelope);
    }

    // Recognize what the batch enqueued — only the streams it pushed —
    // then ship finished verdicts back (a no-op for inline services;
    // with a pool the dirty streams fan out across it).
    service_.process_pending(pool_);
    total_delivered += flush_verdicts();

    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep >= config_.sweep_interval) {
      const std::size_t evicted = service_.sweep_stale_jobs();
      ++stats_.sweeps;
      if (evicted > 0) {
        stats_.evicted += evicted;
        total_delivered += flush_verdicts();
      }
      last_sweep = now;
    }

    if (config_.retrain != nullptr) {
      // Closed loop, at the poll boundary: promote a finished cycle's
      // candidate, check the retrain triggers (train + gate run on the
      // controller's worker thread — recognition keeps flowing), and fan
      // finished cycles out to every connection as kRetrainReport frames.
      config_.retrain->maybe_trigger(now);
      publish_retrain_reports();
    }

    if (!config_.snapshot_path.empty()) {
      const bool interval_due =
          config_.snapshot_interval.count() > 0 &&
          now - last_snapshot >= config_.snapshot_interval;
      const bool verdicts_due =
          config_.snapshot_every_verdicts > 0 &&
          stats_.verdicts_delivered - verdicts_at_last_snapshot_ >=
              config_.snapshot_every_verdicts;
      if (interval_due || verdicts_due) {
        write_snapshot();
        last_snapshot = now;
      }
    }

    if (config_.max_verdicts != 0 &&
        stats_.verdicts_delivered >= config_.max_verdicts) {
      break;
    }
  }

  if (config_.close_jobs_on_end) {
    // The source is gone (or we are stopping): every job this pipeline
    // opened still deserves a verdict — the unknown-application
    // safeguard for emitters that died mid-stream.
    std::vector<std::uint64_t> open_jobs;
    open_jobs.reserve(replies_.size());
    for (const auto& [job_id, route] : replies_) open_jobs.push_back(job_id);
    for (const std::uint64_t job_id : open_jobs) {
      if (service_.close_job(job_id)) {
        ++stats_.jobs_closed;
      }
    }
    total_delivered += flush_verdicts();
  }
  if (config_.retrain != nullptr) {
    // Wind the loop down cleanly: wait out an in-flight cycle and
    // promote it, so the final snapshot (below) carries its outcome, and
    // ship the last reports to whoever is still connected.
    config_.retrain->join();
    publish_retrain_reports();
  }
  if (!config_.snapshot_path.empty() &&
      (config_.snapshot_interval.count() > 0 ||
       config_.snapshot_every_verdicts > 0)) {
    // Final snapshot on a clean exit: the successor process restarts
    // with continuous lifetime counters (and whatever streams remain).
    write_snapshot();
  }
  return total_delivered;
}

}  // namespace efd::ingest

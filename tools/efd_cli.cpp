/// \file efd_cli.cpp
/// \brief Command-line front end for the EFD library — the tool an HPC
/// operator would actually run against exported monitoring data.
///
/// Subcommands:
///   generate   synthesize a labeled telemetry dataset (Table 2 replica)
///   train      build a dictionary from a labeled dataset CSV
///   recognize  look up executions of a dataset against a dictionary
///   dump       print a dictionary in Table 4's layout
///   stats      dictionary statistics (exclusiveness, collisions)
///   evaluate   run one of the paper's five experiments
///   serve-sim  run the RecognitionService over many simultaneously
///              monitored simulated jobs
///   serve      serve a trained dictionary over TCP: node daemons (or
///              `replay`) stream EFD-WIRE-V1 frames in, verdicts flow
///              back over the same connection. --snapshot-path makes the
///              endpoint durable (periodic EFD-SNAP-V2 base+delta
///              capture chains, fsync'd through to disk; --restore
///              resumes in-flight jobs after a crash or power loss),
///              --allow-swap accepts live dictionary hot-swaps,
///              --allow-followers streams the capture chain to warm
///              standbys, --follow host:port runs AS a warm standby
///              (promotable via `promote` or automatically after
///              --promote-grace-ms of leader silence), and
///              --auto-retrain closes the loop: captured traffic
///              retrains the dictionary in the background and the
///              result self-swaps once it clears the validation gate.
///              SIGINT/SIGTERM drain, write a final snapshot, exit 0
///   replay     stream a dataset CSV against a running `serve` endpoint
///              and print the verdicts
///   swap-dict  hot-swap a retrained dictionary into a running `serve`
///              endpoint (kSwapDictionary control frame) and report the
///              new dictionary epoch
///   promote    flip a running `serve --follow` warm standby into the
///              serving leader (kPromote control frame)
///   watch      subscribe to a running `serve` endpoint's verdict
///              stream (kSubscribe, optional --app/--source filters)
///              and tail the kVerdictEvent frames
///
/// Concurrency knobs: --threads sizes a dedicated worker pool, and --jobs
/// (serve-sim) sets how many jobs are monitored concurrently.
///
/// Examples:
///   efd_cli generate --out history.csv --repetitions 10
///   efd_cli train --data history.csv --out apps.efd --threads 8
///   efd_cli recognize --data new_jobs.csv --dict apps.efd --threads 8
///   efd_cli evaluate --data history.csv --experiment hard-input
///   efd_cli serve-sim --dict apps.efd --jobs 64 --threads 8
///   efd_cli serve --dict apps.efd --port 7411 --policy drop-oldest
///   efd_cli replay --data new_jobs.csv --port 7411

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/coverage.hpp"
#include "core/online/recognition_service.hpp"
#include "core/recognizer.hpp"
#include "core/trainer.hpp"
#include "eval/efd_experiment.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/replication.hpp"
#include "obs/http_server.hpp"
#include "ingest/shm_transport.hpp"
#include "ingest/snapshot_chain.hpp"
#include "ingest/source_mux.hpp"
#include "ingest/tcp_transport.hpp"
#include "ingest/transport_feed.hpp"
#include "ingest/udp_transport.hpp"
#include "retrain/retrain_controller.hpp"
#include "ldms/sampler.hpp"
#include "ldms/streaming.hpp"
#include "sim/app_model.hpp"
#include "sim/dataset_generator.hpp"
#include "telemetry/dataset_io.hpp"
#include "telemetry/metric_registry.hpp"
#include "util/arg_parser.hpp"
#include "util/string_utils.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace efd;

/// Signal-driven shutdown flag for `serve`: SIGINT/SIGTERM flip it, the
/// pipeline polls it (IngestPipelineConfig::external_stop) and winds
/// down cleanly — drain, final snapshot, exit 0 — instead of dying with
/// the on-disk snapshot stale. Lock-free atomics are async-signal-safe;
/// nothing else happens in the handler.
std::atomic<bool> g_shutdown_requested{false};

extern "C" void handle_shutdown_signal(int) {
  g_shutdown_requested.store(true, std::memory_order_relaxed);
}

/// Routes SIGINT/SIGTERM to the clean-shutdown flag for the lifetime of
/// a serve command.
void install_shutdown_handlers() {
  struct sigaction action = {};
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: blocking syscalls (accept/poll/recv) must wake with
  // EINTR so the poll loop observes the flag promptly.
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

int usage() {
  std::cerr <<
      "usage: efd_cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  generate   --out FILE [--repetitions N] [--seed S] [--metrics a,b]\n"
      "             [--no-large] [--noise-scale F]\n"
      "  train      --data FILE --out FILE [--metrics a,b] [--depth N|auto]\n"
      "             [--intervals 60:120[,120:180]] [--combine]\n"
      "             [--threads N]\n"
      "  recognize  --data FILE --dict FILE [--threads N]\n"
      "  dump       --dict FILE\n"
      "  stats      --dict FILE | --port P [--host H]\n"
      "             (remote: scrape a running serve endpoint's counters as\n"
      "             sorted `name value` lines; serve --http serves them as\n"
      "             Prometheus text at GET /metrics)\n"
      "  coverage   --data FILE --dict FILE\n"
      "  evaluate   --data FILE --experiment normal-fold|soft-input|\n"
      "             soft-unknown|hard-input|hard-unknown [--metrics a,b]\n"
      "             [--depth N|auto] [--folds K] [--seed S]\n"
      "  serve-sim  --dict FILE [--jobs N] [--threads N]\n"
      "             [--seed S] [--duration SECONDS]\n"
      "  serve      --dict FILE [--port P] [--threads N]\n"
      "             [--listen tcp:PORT|udp:PORT|shm:NAME]...  (repeatable:\n"
      "             every listener feeds the same service; default tcp)\n"
      "             [--policy block|drop-oldest|reject] [--queue-capacity N]\n"
      "             [--ttl-seconds S] [--max-jobs N] [--quiet]\n"
      "             [--allow-shutdown] [--allow-swap] [--http PORT]\n"
      "             [--snapshot-path FILE] [--snapshot-interval-ms MS]\n"
      "             [--snapshot-every VERDICTS] [--restore]\n"
      "             [--snapshot-chain-limit N] [--allow-followers]\n"
      "             [--follow HOST:PORT] [--promote-grace-ms MS]\n"
      "             [--die-after-snapshots N]\n"
      "             [--auto-retrain] [--retrain-interval-ms MS]\n"
      "             [--retrain-min-jobs N] [--retrain-window JOBS]\n"
      "             [--retrain-window-ttl-ms MS] [--retrain-holdout F]\n"
      "             [--retrain-margin F] [--retrain-dry-run]\n"
      "             [--retrain-exclude-source ID]...\n"
      "  replay     --data FILE (--port P [--udp] | --shm NAME) [--host H]\n"
      "             [--batch N] [--stride N] [--offset K] [--pace-us US]\n"
      "  swap-dict  --dict FILE --port P [--host H]\n"
      "  promote    --port P [--host H]  (flip a --follow standby into\n"
      "             the serving leader)\n"
      "  watch      --port P [--host H] [--app NAME]... [--source ID]...\n"
      "             [--count N] [--timeout-ms MS]  (tail the verdict\n"
      "             stream of a running serve endpoint)\n";
  return 2;
}

std::vector<std::string> metric_list(const util::ArgParser& args) {
  const std::string csv =
      args.get("metrics", std::string(telemetry::kHeadlineMetric));
  std::vector<std::string> metrics;
  for (auto& name : util::split(csv, ',')) {
    if (!name.empty()) metrics.push_back(name);
  }
  return metrics;
}

std::vector<telemetry::Interval> interval_list(const util::ArgParser& args) {
  std::vector<telemetry::Interval> intervals;
  for (const auto& token : util::split(args.get("intervals", "60:120"), ',')) {
    const auto parts = util::split(token, ':');
    if (parts.size() != 2) continue;
    const auto begin = util::parse_int(parts[0]);
    const auto end = util::parse_int(parts[1]);
    if (begin && end) {
      intervals.push_back({static_cast<int>(*begin), static_cast<int>(*end)});
    }
  }
  if (intervals.empty()) intervals.push_back(telemetry::kPaperInterval);
  return intervals;
}

int cmd_generate(const util::ArgParser& args) {
  const std::string out = args.get("out");
  if (out.empty()) return usage();

  sim::GeneratorConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.small_repetitions =
      static_cast<std::size_t>(args.get_int("repetitions", 10));
  config.include_large_input = !args.has("no-large");
  config.noise_scale = args.get_double("noise-scale", 1.0);
  config.metrics = metric_list(args);

  const telemetry::Dataset dataset = sim::generate_paper_dataset(config);
  telemetry::write_csv_file(dataset, out);
  const auto summary = telemetry::summarize(dataset);
  std::cout << "wrote " << out << ": " << summary.executions << " executions, "
            << summary.metrics << " metrics, " << summary.samples
            << " samples\n";
  return 0;
}

/// Builds the worker pool a command was asked for (--threads N); null
/// means "use the global pool" downstream.
std::unique_ptr<util::ThreadPool> make_pool(const util::ArgParser& args) {
  const long long threads = args.get_int("threads", 0);
  if (threads <= 0) return nullptr;
  return std::make_unique<util::ThreadPool>(static_cast<std::size_t>(threads));
}

int cmd_train(const util::ArgParser& args) {
  const std::string data = args.get("data");
  const std::string out = args.get("out");
  if (data.empty() || out.empty()) return usage();

  const telemetry::Dataset dataset = telemetry::read_csv_file(data);

  core::RecognizerConfig config;
  config.metrics = metric_list(args);
  config.intervals = interval_list(args);
  config.combine_metrics = args.has("combine");
  const std::string depth = args.get("depth", "auto");
  if (depth != "auto") {
    config.auto_depth = false;
    config.rounding_depth =
        static_cast<int>(util::parse_int(depth).value_or(2));
  }

  const bool parallel = args.has("threads");
  const auto pool = make_pool(args);

  core::Recognizer recognizer(config);
  if (parallel) {
    recognizer.train_parallel(dataset, {}, pool.get());
  } else {
    recognizer.train(dataset);
  }
  recognizer.save(out);

  const auto stats = recognizer.dictionary().stats();
  std::cout << "trained on " << dataset.size() << " executions; depth "
            << recognizer.rounding_depth() << " ("
            << (depth == "auto" ? "selected by inner CV" : "fixed") << ")"
            << (parallel ? " [parallel build]" : "") << "\n"
            << "dictionary: " << stats.key_count << " keys ("
            << stats.exclusive_keys << " exclusive, " << stats.colliding_keys
            << " colliding) -> " << out << "\n";
  return 0;
}

int cmd_recognize(const util::ArgParser& args) {
  const std::string data = args.get("data");
  const std::string dict = args.get("dict");
  if (data.empty() || dict.empty()) return usage();

  const telemetry::Dataset dataset = telemetry::read_csv_file(data);
  const core::Recognizer recognizer = core::Recognizer::load(dict);

  // Batch path: fan the lookups out across the worker pool (identical
  // results to per-record recognize, in dataset order).
  const auto pool = make_pool(args);
  const std::vector<core::RecognitionResult> results =
      recognizer.recognize_batch(dataset, pool.get());

  util::TablePrinter table({"execution", "truth", "prediction", "input guess",
                            "matched", "tie"});
  std::size_t correct = 0, known = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto& record = dataset.record(i);
    const auto& result = results[i];
    if (result.recognized) ++known;
    if (result.prediction() == record.label().application) ++correct;
    table.add_row({std::to_string(record.id()), record.label().full(),
                   result.prediction(), result.label_prediction(),
                   std::to_string(result.matched_count) + "/" +
                       std::to_string(result.fingerprint_count),
                   result.applications.size() > 1 ? "yes" : ""});
  }
  table.print(std::cout);
  std::cout << correct << "/" << dataset.size() << " correct, " << known
            << " recognized as known applications\n";
  return 0;
}

int cmd_dump(const util::ArgParser& args) {
  const std::string dict = args.get("dict");
  if (dict.empty()) return usage();
  const core::Dictionary dictionary = core::Dictionary::load_file(dict);

  util::TablePrinter table(
      {"Metric Name", "Node", "Interval", "Mean", "Application + Input Size"});
  for (const std::uint32_t ordinal : dictionary.sorted_order()) {
    const core::DictionaryEntry entry = dictionary.entry(ordinal);
    const core::FingerprintKey key = entry.key();
    std::string labels;
    for (std::size_t i = 0; i < entry.size(); ++i) {
      if (i != 0) labels += ", ";
      labels += entry.label(i) + " (x" + std::to_string(entry.counts()[i]) + ")";
    }
    std::string means;
    for (std::size_t i = 0; i < key.rounded_means.size(); ++i) {
      if (i != 0) means += " + ";
      means += util::format_mean(key.rounded_means[i]);
    }
    table.add_row({key.metric, std::to_string(key.node_id),
                   "[" + std::to_string(key.interval.begin_seconds) + ":" +
                       std::to_string(key.interval.end_seconds) + "]",
                   means, labels});
  }
  table.print(std::cout);
  return 0;
}

int cmd_stats(const util::ArgParser& args) {
  // Remote mode: scrape a running serve endpoint (kStatsRequest →
  // kStatsReply) and print its flat `name value` block verbatim. The
  // Prometheus text exposition is `serve --http`'s GET /metrics.
  if (args.has("port")) {
    const auto port = args.get_int("port", 0);
    if (port <= 0 || port > 65535) return usage();
    const std::string host = args.get("host", "127.0.0.1");
    ingest::TcpClient client(host, static_cast<std::uint16_t>(port));
    client.send(ingest::make_stats_request());
    ingest::Message reply;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (!client.receive(reply, std::chrono::milliseconds(250))) continue;
      if (reply.type != ingest::MessageType::kStatsReply) continue;
      std::cout << reply.stats_text;
      return 0;
    }
    std::cerr << "error: no stats reply from " << host << ":" << port << "\n";
    return 1;
  }

  const std::string dict = args.get("dict");
  if (dict.empty()) return usage();
  const core::Dictionary dictionary = core::Dictionary::load_file(dict);
  const auto stats = dictionary.stats();

  std::cout << "metrics:        "
            << util::join(dictionary.config().metrics, ", ") << "\n"
            << "rounding depth: " << dictionary.config().rounding_depth << "\n"
            << "intervals:      ";
  for (const auto& interval : dictionary.config().intervals) {
    std::cout << "[" << interval.begin_seconds << ":" << interval.end_seconds
              << ") ";
  }
  std::cout << "\nkeys:           " << stats.key_count << "\n"
            << "exclusive:      " << stats.exclusive_keys << "\n"
            << "colliding:      " << stats.colliding_keys << "\n"
            << "observations:   " << stats.total_observations << "\n"
            << "labels/key:     " << util::format_fixed(stats.mean_labels_per_key, 2)
            << "\n";
  return 0;
}

int cmd_coverage(const util::ArgParser& args) {
  const std::string data = args.get("data");
  const std::string dict = args.get("dict");
  if (data.empty() || dict.empty()) return usage();

  const telemetry::Dataset dataset = telemetry::read_csv_file(data);
  const core::Dictionary dictionary = core::Dictionary::load_file(dict);
  std::cout << core::analyze_coverage(dictionary, dataset).to_string();
  return 0;
}

int cmd_evaluate(const util::ArgParser& args) {
  const std::string data = args.get("data");
  if (data.empty()) return usage();
  const telemetry::Dataset dataset = telemetry::read_csv_file(data);

  const std::string name = args.get("experiment", "normal-fold");
  eval::ExperimentKind kind;
  if (name == "normal-fold") kind = eval::ExperimentKind::kNormalFold;
  else if (name == "soft-input") kind = eval::ExperimentKind::kSoftInput;
  else if (name == "soft-unknown") kind = eval::ExperimentKind::kSoftUnknown;
  else if (name == "hard-input") kind = eval::ExperimentKind::kHardInput;
  else if (name == "hard-unknown") kind = eval::ExperimentKind::kHardUnknown;
  else {
    std::cerr << "unknown experiment: " << name << "\n";
    return usage();
  }

  eval::EfdExperimentConfig config;
  config.metrics = metric_list(args);
  config.split.folds = static_cast<std::size_t>(args.get_int("folds", 5));
  config.split.seed = static_cast<std::uint64_t>(args.get_int("seed", 2021));
  const std::string depth = args.get("depth", "auto");
  if (depth != "auto") {
    config.auto_depth = false;
    config.fixed_depth = static_cast<int>(util::parse_int(depth).value_or(3));
  }

  const auto score = eval::run_efd_experiment(dataset, kind, config);
  std::cout << eval::experiment_name(kind)
            << ": mean macro F = " << util::format_fixed(score.mean_f1, 4)
            << " over " << score.per_round_f1.size() << " rounds\n";
  if (args.has("verbose")) {
    for (std::size_t r = 0; r < score.per_round_f1.size(); ++r) {
      std::cout << "  " << score.round_descriptions[r] << ": "
                << util::format_fixed(score.per_round_f1[r], 4) << "\n";
    }
  }
  return 0;
}

int cmd_serve_sim(const util::ArgParser& args) {
  const std::string dict = args.get("dict");
  if (dict.empty()) return usage();

  const auto jobs = static_cast<std::size_t>(args.get_int("jobs", 64));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double duration = args.get_double("duration", 0.0);
  auto pool = make_pool(args);

  core::Dictionary dictionary = core::Dictionary::load_file(dict);
  std::cout << "serving dictionary: " << dictionary.size() << " keys\n";
  core::RecognitionService service(std::move(dictionary));

  // Round-robin the paper's applications into a concurrent job mix.
  const telemetry::MetricRegistry registry =
      telemetry::MetricRegistry::standard_catalog();
  const auto apps = sim::make_paper_applications();
  std::vector<sim::ExecutionPlan> plans;
  plans.reserve(jobs);
  static const std::vector<std::string> inputs = {"X", "Y", "Z"};
  for (std::size_t j = 0; j < jobs; ++j) {
    sim::ExecutionPlan plan;
    plan.app = apps[j % apps.size()].get();
    plan.input_size = inputs[(j / apps.size()) % inputs.size()];
    plan.node_count = 4;
    plan.execution_id = j + 1;
    plans.push_back(plan);
  }

  const auto samplers = ldms::make_standard_samplers(registry);
  const auto start = std::chrono::steady_clock::now();
  const ldms::StreamingRunReport report = ldms::run_concurrent_jobs(
      service, registry, plans, samplers, seed, duration, pool.get());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::size_t correct = 0;
  for (const core::JobVerdict& verdict : report.job_verdicts) {
    const auto& plan = plans[verdict.job_id - 1];
    if (verdict.result.prediction() == plan.app->name()) ++correct;
  }

  const core::RecognitionServiceStats stats = service.stats();
  std::cout << "monitored " << report.jobs_run << " concurrent jobs in "
            << util::format_fixed(elapsed, 2) << " s ("
            << util::format_fixed(
                   elapsed > 0.0 ? static_cast<double>(report.jobs_run) / elapsed
                                 : 0.0,
                   1)
            << " jobs/s)\n"
            << "verdicts: " << report.verdicts << " (" << report.recognized
            << " recognized, " << correct << " correct)\n"
            << "samples:  " << stats.samples_pushed << " accepted, "
            << stats.samples_late << " after verdict, "
            << stats.samples_dropped << " dropped\n";
  return 0;
}

/// One `--listen` listener: the transport behind it plus its mux
/// registration. The spec string (e.g. "udp:7412") doubles as the
/// source's stable name — keep specs identical across restarts so the
/// per-source snapshot cursors re-attach.
struct Listener {
  std::string spec;
  std::unique_ptr<ingest::TcpServer> tcp;
  std::unique_ptr<ingest::UdpServer> udp;
  std::unique_ptr<ingest::ShmRingServer> shm;

  ingest::SampleSource& source() {
    if (tcp != nullptr) return *tcp;
    if (udp != nullptr) return *udp;
    return *shm;
  }
  void stop() {
    if (tcp != nullptr) tcp->stop();
    if (udp != nullptr) udp->stop();
    if (shm != nullptr) shm->stop();
  }
};

/// Builds the listener a `--listen tcp:PORT|udp:PORT|shm:NAME` spec
/// names; throws on an unparsable spec.
Listener make_listener(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string rest =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  Listener listener;
  listener.spec = spec;
  if (kind == "tcp" || kind == "udp") {
    const auto port = util::parse_int(rest);
    if (!port || *port < 0 || *port > 65535) {
      throw std::invalid_argument("bad port in --listen spec: " + spec);
    }
    if (kind == "tcp") {
      ingest::TcpServer::Config config;
      config.port = static_cast<std::uint16_t>(*port);
      listener.tcp = std::make_unique<ingest::TcpServer>(config);
      std::cout << "listening on port " << listener.tcp->port() << std::endl;
    } else {
      ingest::UdpServer::Config config;
      config.port = static_cast<std::uint16_t>(*port);
      listener.udp = std::make_unique<ingest::UdpServer>(config);
      std::cout << "listening on udp port " << listener.udp->port()
                << std::endl;
    }
    return listener;
  }
  if (kind == "shm") {
    if (rest.empty()) {
      throw std::invalid_argument("shm --listen spec needs a name: " + spec);
    }
    listener.shm = std::make_unique<ingest::ShmRingServer>(rest);
    std::cout << "listening on shm segment " << rest << std::endl;
    return listener;
  }
  throw std::invalid_argument("unknown --listen transport: " + spec);
}

/// serve: the production front door. Node daemons (or `replay`) connect
/// over any mix of listeners — TCP, lossy UDP, shared memory — stream
/// wire frames, and get verdicts back on the channel each job arrived
/// on. Exits after --max-jobs verdicts (for harnesses) or runs until
/// killed.
int cmd_serve(const util::ArgParser& args) {
  const std::string dict = args.get("dict");
  if (dict.empty()) return usage();

  core::RecognitionServiceConfig service_config;
  service_config.deferred = true;
  const std::string policy = args.get("policy", "block");
  if (const auto parsed = core::parse_backpressure_policy(policy)) {
    service_config.policy = *parsed;
  } else {
    std::cerr << "unknown policy: " << policy << "\n";
    return usage();
  }
  // A negative capacity would wrap to an effectively unbounded queue
  // (no back-pressure); a TTL <= 0 would evict every stream at the
  // first sweep.
  const long long queue_capacity = args.get_int("queue-capacity", 4096);
  if (queue_capacity < 1) {
    std::cerr << "error: --queue-capacity must be >= 1, got "
              << queue_capacity << "\n";
    return usage();
  }
  const long long ttl_seconds = args.get_int("ttl-seconds", 600);
  if (ttl_seconds < 1) {
    std::cerr << "error: --ttl-seconds must be >= 1, got " << ttl_seconds
              << "\n";
    return usage();
  }
  service_config.job_queue_capacity =
      static_cast<std::size_t>(queue_capacity);
  service_config.stale_ttl = std::chrono::seconds(ttl_seconds);

  core::Dictionary dictionary = core::Dictionary::load_file(dict);
  std::cout << "serving dictionary: " << dictionary.size() << " keys (policy "
            << core::backpressure_policy_name(service_config.policy)
            << ", queue " << service_config.job_queue_capacity << ", ttl "
            << ttl_seconds << " s)\n";
  core::RecognitionService service(std::move(dictionary), service_config);

  // N listeners → one service: every --listen spec becomes a registered
  // mux source with its own identity, counters, and verdict routing.
  // No --listen keeps the historical single-TCP shape (--port).
  std::vector<std::string> listen_specs = args.get_all("listen");
  if (listen_specs.empty()) {
    listen_specs.push_back("tcp:" + std::to_string(args.get_int("port", 0)));
  }
  std::vector<Listener> listeners;
  listeners.reserve(listen_specs.size());
  ingest::SourceMux sources;
  for (const std::string& spec : listen_specs) {
    listeners.push_back(make_listener(spec));
    sources.add_source(spec, listeners.back().source());
  }
  // Stops every listener, then runs the loop until each has retired: a
  // TCP peer still sending is read to its EOF (up to kStopGrace), so a
  // shutdown never resets a sender mid-stream.
  const auto stop_listeners = [&] {
    for (Listener& listener : listeners) listener.stop();
    std::vector<ingest::Envelope> discarded;
    while (sources.poll(discarded, std::chrono::milliseconds(100))) {
      discarded.clear();
    }
  };

  ingest::IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts =
      static_cast<std::uint64_t>(args.get_int("max-jobs", 0));
  // kShutdown and kSwapDictionary are unauthenticated wire input: any
  // connected peer could stop or reconfigure the whole endpoint. Only
  // honor them when the operator opted in.
  pipeline_config.stop_on_shutdown_message = args.has("allow-shutdown");
  pipeline_config.allow_dictionary_swap = args.has("allow-swap");
  pipeline_config.snapshot_path = args.get("snapshot-path");
  pipeline_config.snapshot_interval =
      std::chrono::milliseconds(args.get_int("snapshot-interval-ms", 0));
  pipeline_config.snapshot_every_verdicts =
      static_cast<std::uint64_t>(args.get_int("snapshot-every", 0));
  pipeline_config.snapshot_chain_limit = static_cast<std::uint64_t>(
      std::max<long long>(0, args.get_int("snapshot-chain-limit", 16)));
  pipeline_config.restore_on_start = args.has("restore");
  pipeline_config.allow_followers = args.has("allow-followers");
  // --http PORT starts the observability plane (GET /metrics, /index,
  // /healthz) on 127.0.0.1; 0 binds an ephemeral port (printed below).
  pipeline_config.http_port = static_cast<int>(args.get_int("http", -1));
  // Clean signal-driven shutdown: SIGTERM/SIGINT drain the pipeline,
  // write the final snapshot, and exit 0 — `kill -TERM` must leave a
  // restorable snapshot behind, not a stale one.
  install_shutdown_handlers();
  pipeline_config.external_stop = &g_shutdown_requested;
  if (!args.has("quiet")) {
    pipeline_config.on_verdict = [](const core::JobVerdict& verdict) {
      std::cout << "verdict job=" << verdict.job_id << " app="
                << verdict.result.prediction() << " label="
                << verdict.result.label_prediction() << " matched="
                << verdict.result.matched_count << "/"
                << verdict.result.fingerprint_count << std::endl;
    };
  }
  // Fault-injection knob for the crash-recovery harness: simulate a hard
  // crash (_Exit: no destructors, no final snapshot, sockets dropped by
  // the kernel) right after the Nth snapshot lands — so the snapshot on
  // disk is guaranteed to predate the "lost" tail of the traffic.
  const long long die_after = args.get_int("die-after-snapshots", 0);
  const bool quiet = args.has("quiet");
  if (!pipeline_config.snapshot_path.empty()) {
    pipeline_config.on_snapshot = [die_after, quiet](std::uint64_t count,
                                                     const std::string& path) {
      if (!quiet) std::cout << "snapshot " << count << " -> " << path
                            << std::endl;
      if (die_after > 0 && count >= static_cast<std::uint64_t>(die_after)) {
        std::cout << "fault-injection: simulated crash after snapshot "
                  << count << std::endl;
        std::cout.flush();
        std::_Exit(137);
      }
    };
  }

  auto pool = make_pool(args);

  // Closed-loop retraining: capture served traffic, retrain in the
  // background, gate, self-swap. All knobs operator-gated like the other
  // live-reconfiguration paths.
  std::unique_ptr<retrain::RetrainController> retrain_controller;
  if (args.has("auto-retrain")) {
    retrain::RetrainConfig retrain_config;
    retrain_config.interval = std::chrono::milliseconds(
        args.get_int("retrain-interval-ms", 0));
    retrain_config.min_new_jobs =
        static_cast<std::uint64_t>(args.get_int("retrain-min-jobs", 0));
    if (retrain_config.interval.count() <= 0 &&
        retrain_config.min_new_jobs == 0) {
      // No trigger would mean "capture forever, retrain never".
      retrain_config.min_new_jobs = 64;
    }
    retrain_config.recorder.window_jobs_per_app =
        static_cast<std::size_t>(args.get_int("retrain-window", 32));
    retrain_config.recorder.window_ttl = std::chrono::milliseconds(
        args.get_int("retrain-window-ttl-ms", 0));
    for (const std::string& spec : args.get_all("retrain-exclude-source")) {
      if (const auto id = util::parse_int(spec)) {
        retrain_config.recorder.excluded_sources.push_back(
            static_cast<std::uint32_t>(*id));
      }
    }
    retrain_config.holdout_fraction = args.get_double("retrain-holdout", 0.25);
    retrain_config.gate.margin = args.get_double("retrain-margin", 0.0);
    retrain_config.dry_run = args.has("retrain-dry-run");
    retrain_config.pool = pool.get();
    retrain_config.on_report = [](const retrain::RetrainReport& report) {
      std::cout << "retrain cycle " << report.cycle << ": "
                << retrain::retrain_outcome_name(report.outcome) << " (epoch "
                << report.epoch << ", candidate "
                << util::format_fixed(report.candidate_score, 4)
                << " vs incumbent "
                << util::format_fixed(report.incumbent_score, 4) << ", "
                << report.window_jobs << " window jobs, "
                << report.holdout_jobs << " holdout) " << report.detail
                << std::endl;
    };
    retrain_controller =
        std::make_unique<retrain::RetrainController>(service, retrain_config);
    pipeline_config.retrain = retrain_controller.get();
    std::cout << "auto-retrain: window "
              << retrain_config.recorder.window_jobs_per_app
              << " jobs/app, trigger "
              << (retrain_config.interval.count() > 0
                      ? std::to_string(retrain_config.interval.count()) +
                            " ms"
                      : std::string("off"))
              << " / " << retrain_config.min_new_jobs
              << " new jobs, gate margin "
              << util::format_fixed(retrain_config.gate.margin, 4)
              << (retrain_config.dry_run ? ", DRY RUN" : "") << std::endl;
  }
  // Warm-standby mode: mirror the leader's capture chain onto the local
  // snapshot path until promotion (operator kPromote, or auto after
  // --promote-grace-ms of leader silence), then fall through to normal
  // serving restored from that chain — the failover path.
  const std::string follow = args.get("follow");
  if (!follow.empty()) {
    const std::size_t colon = follow.rfind(':');
    std::optional<long long> follow_port;
    if (colon != std::string::npos) {
      follow_port = util::parse_int(follow.substr(colon + 1));
    }
    if (!follow_port || *follow_port <= 0 || *follow_port > 65535) {
      std::cerr << "error: --follow needs HOST:PORT, got " << follow << "\n";
      return usage();
    }
    if (pipeline_config.snapshot_path.empty()) {
      std::cerr << "error: --follow requires --snapshot-path (the local "
                   "chain the standby persists and promotes from)\n";
      return usage();
    }
    ingest::FollowerConfig follower_config;
    follower_config.leader_host = follow.substr(0, colon);
    follower_config.leader_port = static_cast<std::uint16_t>(*follow_port);
    follower_config.snapshot_path = pipeline_config.snapshot_path;
    follower_config.promote_grace = std::chrono::milliseconds(
        std::max<long long>(0, args.get_int("promote-grace-ms", 0)));
    follower_config.external_stop = &g_shutdown_requested;
    follower_config.control = &sources;
    // Every replicated capture is validated by restoring the full local
    // chain into a throwaway service configured like the one a
    // promotion would boot.
    follower_config.shadow_factory = [dict, service_config] {
      return std::make_unique<core::RecognitionService>(
          core::Dictionary::load_file(dict), service_config);
    };
    if (!args.has("quiet")) {
      follower_config.log = [](const std::string& line) {
        std::cout << line << std::endl;
      };
    }
    // Standby observability: while following, /healthz answers 503 so a
    // load balancer never routes traffic here pre-promotion. The standby
    // listener is torn down before the promoted pipeline binds its own
    // (same port when --http was explicit; a fresh ephemeral one for 0).
    // It sits on the listeners' loop, answered whenever the follower
    // polls its control listeners.
    std::unique_ptr<obs::HttpServer> standby_http;
    if (pipeline_config.http_port >= 0) {
      standby_http = std::make_unique<obs::HttpServer>(
          sources.loop(),
          static_cast<std::uint16_t>(pipeline_config.http_port),
          [](const obs::HttpRequest& request) {
            obs::HttpResponse response;
            if (request.target == "/healthz") {
              response.status = 503;
              response.content_type = "application/json";
              response.body =
                  "{\"status\":\"standby\",\"role\":\"follower\"}\n";
            } else {
              response.status = 404;
              response.body = "not found\n";
            }
            return response;
          });
      std::cout << "http: standby listening on 127.0.0.1:"
                << standby_http->port() << std::endl;
    }
    ingest::ReplicationFollower follower(std::move(follower_config));
    std::cout << "following " << follow << " (promote grace "
              << args.get_int("promote-grace-ms", 0) << " ms)" << std::endl;
    const auto outcome = follower.run();
    standby_http.reset();
    const ingest::FollowerStats fstats = follower.stats();
    std::cout << "follower: " << fstats.captures_applied
              << " captures applied (" << fstats.bases_applied << " bases, "
              << fstats.captures_rejected << " rejected), "
              << fstats.reconnects << " reconnects, newest capture "
              << fstats.last_capture_id << std::endl;
    if (outcome == ingest::ReplicationFollower::Outcome::kStopped) {
      stop_listeners();
      return 0;
    }
    std::cout << "promoted: serving from the local chain" << std::endl;
    // Serve exactly what was replicated; the promotion itself must not
    // be poisoned by a stale shutdown signal.
    pipeline_config.restore_on_start = true;
    g_shutdown_requested.store(false, std::memory_order_relaxed);
  }

  ingest::IngestPipeline pipeline(service, sources, pipeline_config,
                                  pool.get());
  if (pipeline.http_port() != 0) {
    std::cout << "http: listening on 127.0.0.1:" << pipeline.http_port()
              << std::endl;
  }
  const std::uint64_t delivered = pipeline.run();
  stop_listeners();

  const core::RecognitionServiceStats stats = service.stats();
  const ingest::IngestPipelineStats pstats = pipeline.stats();
  std::cout << "served " << delivered << " verdicts over "
            << listeners.size() << " listener"
            << (listeners.size() == 1 ? "" : "s") << "\n";
  // Per-source exit summary: where the traffic came from, and what each
  // lossy link actually lost (drops/gaps are per source, so a congested
  // UDP sampler cannot hide behind a healthy TCP replayer).
  for (const ingest::SourceMuxStats& source : pipeline.sources().stats()) {
    std::cout << "source " << source.id << " (" << source.name << "): "
              << source.envelopes << " envelopes, " << source.samples
              << " samples, " << source.verdicts << " verdicts, "
              << source.transport.drops << " drops, "
              << source.transport.gaps << " gaps, "
              << source.transport.decode_errors << " decode errors, "
              << source.transport.blocked << " blocked\n";
  }
  std::cout << "samples:  " << pstats.samples << " ingested, "
            << stats.samples_pushed << " recognized, "
            << stats.samples_overflowed << " overflowed, "
            << stats.samples_rejected << " rejected, " << stats.samples_late
            << " late\n"
            << "jobs:     " << pstats.jobs_opened << " opened, "
            << pstats.jobs_restored << " restored, " << pstats.jobs_rebound
            << " rebound, " << stats.jobs_evicted
            << " evicted by the stale sweep\n"
            << "durability: " << pstats.snapshots_written << " snapshots ("
            << pstats.snapshot_failures << " failed), dictionary epoch "
            << stats.dictionary_epoch << " after " << pstats.dictionary_swaps
            << " swaps (" << pstats.swaps_rejected << " rejected)\n";
  if (retrain_controller != nullptr) {
    const retrain::RetrainStats rstats = retrain_controller->stats();
    const retrain::TrafficRecorderStats wstats =
        retrain_controller->recorder().stats();
    std::cout << "retrain:  " << rstats.cycles_triggered << " cycles ("
              << rstats.cycles_promoted << " promoted, "
              << rstats.cycles_gated_out << " gated out, "
              << rstats.cycles_already_active << " already-active, "
              << rstats.cycles_dry_run << " dry-run), window "
              << wstats.window_jobs << " jobs / " << wstats.window_samples
              << " samples across " << wstats.applications
              << " applications\n";
  }
  return 0;
}

/// swap-dict: push a retrained dictionary into a running serve endpoint.
/// The dictionary file is read locally and shipped as bytes (the server
/// does not need to share a filesystem with the operator).
int cmd_swap_dict(const util::ArgParser& args) {
  const std::string dict = args.get("dict");
  const auto port = args.get_int("port", 0);
  if (dict.empty() || port <= 0 || port > 65535) return usage();
  const std::string host = args.get("host", "127.0.0.1");

  std::ifstream in(dict, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot read " << dict << "\n";
    return 1;
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (bytes.size() > ingest::kMaxFrameBytes) {
    std::cerr << "error: dictionary exceeds the " << ingest::kMaxFrameBytes
              << "-byte wire limit; restart the server with the snapshot "
                 "flow instead\n";
    return 1;
  }

  ingest::TcpClient client(host, static_cast<std::uint16_t>(port));
  client.send(ingest::make_swap_dictionary(std::move(bytes)));

  ingest::Message reply;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!client.receive(reply, std::chrono::milliseconds(250))) continue;
    if (reply.type != ingest::MessageType::kSwapAck) continue;
    if (reply.swap_ack.ok) {
      std::cout << "swapped: dictionary epoch " << reply.swap_ack.epoch
                << " is live\n";
      return 0;
    }
    std::cerr << "swap rejected (epoch " << reply.swap_ack.epoch
              << " still live): " << reply.swap_ack.error << "\n";
    return 1;
  }
  std::cerr << "error: no swap ack from " << host << ":" << port << "\n";
  return 1;
}

/// promote: flip a running `serve --follow` warm standby into the
/// serving leader. Modeled on swap-dict: one control frame, one ack.
int cmd_promote(const util::ArgParser& args) {
  const auto port = args.get_int("port", 0);
  if (port <= 0 || port > 65535) return usage();
  const std::string host = args.get("host", "127.0.0.1");

  ingest::TcpClient client(host, static_cast<std::uint16_t>(port));
  client.send(ingest::make_promote());

  ingest::Message reply;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!client.receive(reply, std::chrono::milliseconds(250))) continue;
    if (reply.type != ingest::MessageType::kPromoteAck) continue;
    if (reply.snap_ack.ok) {
      std::cout << "promoted: standby will serve from capture "
                << reply.snap_ack.capture_id << "\n";
      return 0;
    }
    std::cerr << "promotion rejected: " << reply.snap_ack.error << "\n";
    return 1;
  }
  std::cerr << "error: no promote ack from " << host << ":" << port << "\n";
  return 1;
}

/// watch: subscribe to a running serve endpoint's verdict stream
/// (kSubscribe, optionally filtered by --app NAME / --source ID, both
/// repeatable) and tail the kVerdictEvent frames it fans out. The
/// server never blocks on a slow watcher: a full subscriber queue sheds
/// events, counted in the `subscriber.<id>.dropped` scrape row.
int cmd_watch(const util::ArgParser& args) {
  const auto port = args.get_int("port", 0);
  if (port <= 0 || port > 65535) return usage();
  const std::string host = args.get("host", "127.0.0.1");
  std::vector<std::string> applications = args.get_all("app");
  std::vector<std::uint32_t> source_filters;
  for (const std::string& spec : args.get_all("source")) {
    if (const auto id = util::parse_int(spec)) {
      source_filters.push_back(static_cast<std::uint32_t>(*id));
    }
  }
  const long long count = args.get_int("count", 0);          // 0 = forever
  const long long timeout_ms = args.get_int("timeout-ms", 0);  // 0 = none

  ingest::TcpClient client(host, static_cast<std::uint16_t>(port));
  client.send(ingest::make_subscribe(std::move(applications),
                                     std::move(source_filters)));

  ingest::Message message;
  const auto ack_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool acked = false;
  while (!acked && std::chrono::steady_clock::now() < ack_deadline) {
    if (!client.receive(message, std::chrono::milliseconds(250))) continue;
    if (message.type != ingest::MessageType::kSubscribeAck) continue;
    if (!message.snap_ack.ok) {
      std::cerr << "error: subscription rejected: " << message.snap_ack.error
                << "\n";
      return 1;
    }
    std::cout << "subscribed id=" << message.snap_ack.capture_id << std::endl;
    acked = true;
  }
  if (!acked) {
    std::cerr << "error: no subscribe ack from " << host << ":" << port
              << "\n";
    return 1;
  }

  install_shutdown_handlers();
  const auto start = std::chrono::steady_clock::now();
  long long seen = 0;
  while (!g_shutdown_requested.load(std::memory_order_relaxed)) {
    if (timeout_ms > 0 &&
        std::chrono::steady_clock::now() - start >
            std::chrono::milliseconds(timeout_ms)) {
      break;
    }
    const auto status =
        client.receive_status(message, std::chrono::milliseconds(250));
    if (status == ingest::TcpClient::ReceiveStatus::kClosed) {
      std::cerr << "connection closed by server\n";
      return seen > 0 ? 0 : 1;
    }
    if (status != ingest::TcpClient::ReceiveStatus::kMessage) continue;
    if (message.type != ingest::MessageType::kVerdictEvent) continue;
    std::cout << "verdict job=" << message.job_id << " source="
              << message.verdict_event.source << " app="
              << message.verdict.application << " label="
              << message.verdict.label << " matched="
              << message.verdict.matched << "/"
              << message.verdict.fingerprints << " latency_us="
              << message.verdict_event.latency_ns / 1000 << std::endl;
    ++seen;
    if (count > 0 && seen >= count) break;
  }
  return 0;
}

/// Inserts a fixed delay after every frame — the throttle `--pace-us`
/// puts between datagrams so a lossless-by-intent UDP replay does not
/// outrun the receiver's socket buffer (real samplers emit at
/// monitoring cadence; replay is a firehose).
class PacedSender final : public ingest::MessageSender {
 public:
  PacedSender(ingest::MessageSender& inner, std::chrono::microseconds pace)
      : inner_(&inner), pace_(pace) {}
  void send(ingest::Message message) override {
    inner_->send(std::move(message));
    if (pace_.count() > 0) std::this_thread::sleep_for(pace_);
  }

 private:
  ingest::MessageSender* inner_;
  std::chrono::microseconds pace_;
};

/// replay: stream a dataset CSV against a running serve endpoint — over
/// TCP (default), lossy UDP (--udp), or a shared-memory segment
/// (--shm NAME) — one job per execution, and print the verdicts that
/// come back. --stride/--offset replay every Nth execution (split one
/// workload across several transports of one endpoint).
int cmd_replay(const util::ArgParser& args) {
  const std::string data = args.get("data");
  const std::string shm_name = args.get("shm");
  const auto port = args.get_int("port", 0);
  if (data.empty()) return usage();
  if (shm_name.empty() && (port <= 0 || port > 65535)) return usage();
  const std::string host = args.get("host", "127.0.0.1");
  auto batch = static_cast<std::size_t>(args.get_int("batch", 256));
  const auto stride =
      static_cast<std::size_t>(std::max<long long>(1, args.get_int("stride", 1)));
  const auto offset = static_cast<std::size_t>(
      std::max<long long>(0, args.get_int("offset", 0)));
  const std::chrono::microseconds pace(args.get_int("pace-us", 0));

  const telemetry::Dataset dataset = telemetry::read_csv_file(data);
  // The replayed subset: every stride-th execution starting at offset.
  std::vector<const telemetry::ExecutionRecord*> records;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (i % stride == offset % stride) records.push_back(&dataset.record(i));
  }

  std::unique_ptr<ingest::TcpClient> tcp;
  std::unique_ptr<ingest::UdpClient> udp;
  std::unique_ptr<ingest::ShmRingClient> shm;
  ingest::MessageSender* sender = nullptr;
  std::function<bool(ingest::Message&, std::chrono::milliseconds)> receive;
  std::function<void()> finish;
  if (!shm_name.empty()) {
    shm = std::make_unique<ingest::ShmRingClient>(shm_name);
    sender = shm.get();
    receive = [&shm](ingest::Message& out, std::chrono::milliseconds timeout) {
      return shm->receive(out, timeout);
    };
    finish = [&shm] { shm->finish_sending(); };
  } else if (args.has("udp")) {
    // Every batch must fit one datagram: clamp --batch against the
    // worst-case encoded sample for THIS dataset's metric names, so a
    // size that is legal on the stream transports cannot abort the
    // replay mid-stream after jobs were already opened.
    std::size_t longest_metric = 0;
    for (const std::string& metric : dataset.metric_names()) {
      longest_metric = std::max(longest_metric, metric.size());
    }
    // 18 = the kSampleBatch frame's own header (u32 len | version |
    // type | u64 job_id | u32 count); each sample costs another 18 +
    // metric bytes.
    const std::size_t max_udp_batch =
        (ingest::kMaxUdpPayloadBytes - 18) / (18 + longest_metric);
    if (batch > max_udp_batch) {
      std::cerr << "note: --batch " << batch << " clamped to "
                << max_udp_batch << " (UDP datagram size cap)\n";
      batch = max_udp_batch;
    }
    udp = std::make_unique<ingest::UdpClient>(
        host, static_cast<std::uint16_t>(port));
    sender = udp.get();
    receive = [&udp](ingest::Message& out, std::chrono::milliseconds timeout) {
      return udp->receive(out, timeout);
    };
    finish = [&udp] { udp->finish_sending(); };
  } else {
    tcp = std::make_unique<ingest::TcpClient>(
        host, static_cast<std::uint16_t>(port));
    sender = tcp.get();
    receive = [&tcp](ingest::Message& out, std::chrono::milliseconds timeout) {
      return tcp->receive(out, timeout);
    };
    finish = [&tcp] { tcp->finish_sending(); };
  }
  PacedSender paced(*sender, pace);

  std::map<std::uint64_t, ingest::WireVerdict> verdicts;
  const auto collect = [&](std::chrono::milliseconds timeout) {
    ingest::Message message;
    while (receive(message, timeout)) {
      if (message.type == ingest::MessageType::kVerdict) {
        verdicts[message.job_id] = message.verdict;
      }
      timeout = std::chrono::milliseconds(1);  // drain whatever is ready
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t samples_sent = 0;
  for (const telemetry::ExecutionRecord* record : records) {
    ingest::TransportFeed feed(paced, batch);
    feed.job_opened(record->id(),
                    static_cast<std::uint32_t>(record->node_count()));
    std::size_t longest = 0;
    for (std::size_t node = 0; node < record->node_count(); ++node) {
      for (std::size_t slot = 0; slot < dataset.metric_names().size();
           ++slot) {
        longest = std::max(longest, record->series(node, slot).size());
      }
    }
    for (std::size_t t = 0; t < longest; ++t) {
      for (std::size_t node = 0; node < record->node_count(); ++node) {
        for (std::size_t slot = 0; slot < dataset.metric_names().size();
             ++slot) {
          const telemetry::TimeSeries& series = record->series(node, slot);
          if (t < series.size()) {
            feed.publish(static_cast<std::uint32_t>(node),
                         dataset.metric_names()[slot], static_cast<int>(t),
                         series[t]);
            ++samples_sent;
          }
        }
      }
    }
    feed.job_closed(record->id());
    collect(std::chrono::milliseconds(1));  // keep the reply pipe drained
  }
  finish();
  while (verdicts.size() < records.size()) {
    const std::size_t before = verdicts.size();
    collect(std::chrono::seconds(10));
    if (verdicts.size() == before) break;  // server went away
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  util::TablePrinter table(
      {"execution", "truth", "prediction", "input guess", "matched"});
  std::size_t correct = 0, known = 0;
  for (const telemetry::ExecutionRecord* record : records) {
    const auto it = verdicts.find(record->id());
    if (it == verdicts.end()) {
      table.add_row({std::to_string(record->id()), record->label().full(),
                     "(no verdict)", "", ""});
      continue;
    }
    const ingest::WireVerdict& verdict = it->second;
    if (verdict.recognized) ++known;
    if (verdict.application == record->label().application) ++correct;
    table.add_row({std::to_string(record->id()), record->label().full(),
                   verdict.application, verdict.label,
                   std::to_string(verdict.matched) + "/" +
                       std::to_string(verdict.fingerprints)});
  }
  table.print(std::cout);
  std::cout << correct << "/" << records.size() << " correct, " << known
            << " recognized as known applications\n"
            << "streamed " << samples_sent << " samples in "
            << util::format_fixed(elapsed, 2) << " s ("
            << util::format_fixed(
                   elapsed > 0.0 ? static_cast<double>(samples_sent) / elapsed
                                 : 0.0,
                   0)
            << " samples/s)\n";
  return verdicts.size() == records.size() ? 0 : 1;
}

/// One subcommand and every option it reads; any other option is an
/// error, so a typo or a removed flag fails instead of being ignored.
struct Command {
  const char* name;
  int (*run)(const util::ArgParser&);
  std::vector<std::string> options;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"generate", cmd_generate,
       {"out", "repetitions", "seed", "metrics", "no-large", "noise-scale"}},
      {"train", cmd_train,
       {"data", "out", "metrics", "depth", "intervals", "combine", "threads"}},
      {"recognize", cmd_recognize, {"data", "dict", "threads"}},
      {"dump", cmd_dump, {"dict"}},
      {"stats", cmd_stats, {"dict", "port", "host"}},
      {"coverage", cmd_coverage, {"data", "dict"}},
      {"evaluate", cmd_evaluate,
       {"data", "experiment", "metrics", "depth", "folds", "seed", "verbose"}},
      {"serve-sim", cmd_serve_sim,
       {"dict", "jobs", "threads", "seed", "duration"}},
      {"serve", cmd_serve,
       {"dict", "port", "threads", "listen", "policy", "queue-capacity",
        "ttl-seconds", "max-jobs", "quiet", "allow-shutdown", "allow-swap",
        "http", "snapshot-path", "snapshot-interval-ms", "snapshot-every",
        "restore", "snapshot-chain-limit", "allow-followers", "follow",
        "promote-grace-ms", "die-after-snapshots", "auto-retrain",
        "retrain-interval-ms", "retrain-min-jobs", "retrain-window",
        "retrain-window-ttl-ms", "retrain-holdout", "retrain-margin",
        "retrain-dry-run", "retrain-exclude-source"}},
      {"replay", cmd_replay,
       {"data", "port", "udp", "shm", "host", "batch", "stride", "offset",
        "pace-us"}},
      {"swap-dict", cmd_swap_dict, {"dict", "port", "host"}},
      {"promote", cmd_promote, {"port", "host"}},
      {"watch", cmd_watch,
       {"port", "host", "app", "source", "count", "timeout-ms"}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::ArgParser args(argc - 1, argv + 1);

  for (const Command& entry : commands()) {
    if (command != entry.name) continue;
    const std::vector<std::string> unknown =
        args.unknown_options(entry.options);
    if (!unknown.empty()) {
      std::cerr << "error: unknown option --" << unknown.front() << " for "
                << command << "\n";
      return usage();
    }
    try {
      return entry.run(args);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << "\n";
      return 1;
    }
  }
  return usage();
}

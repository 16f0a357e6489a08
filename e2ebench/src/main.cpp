/// \file main.cpp
/// \brief e2e_bench: drives the real `efd_cli serve` with one workload and
/// prints every metric by name with its unit, then one JSON result line.
///
///   e2e_bench run --workload NAME --seed N --seconds S --trace 0|1
///                 --cli PATH/efd_cli --work DIR
///   e2e_bench saturate --seconds S --cli PATH --work DIR [--seed N]
///                      [--rate SAMPLES_PER_S]
///
/// `run --trace 0` reports the end-to-end metrics, each the median over
/// kSessions untraced sessions (fresh serve processes streaming the same
/// schedule). `run --trace 1` makes the same untraced sessions, then one
/// traced session (/metrics scraped at its start and end, spans kept
/// around every generator send/receive), then the in-process layer pass,
/// and reports the per-layer metrics. `saturate` streams the fleet-tcp
/// shape with no schedule (or, with --rate R, at a trial rate) and
/// reports what serve sustains — how the fixed open-loop rate
/// (kFleetRateSps) was sized.

#include <cpuid.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ingest/wire_format.hpp"
#include "layers.hpp"
#include "load_driver.hpp"
#include "serve_process.hpp"
#include "stats.hpp"
#include "util/arg_parser.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

namespace {

using namespace e2ebench;
namespace fs = std::filesystem;

/// Each run is this many sessions — a fresh serve process streaming the
/// same schedule for seconds / kSessions — and reports medians over them,
/// so one unlucky process (thread placement, a host stall) moves one
/// session, not the result.
constexpr int kSessions = 4;
/// Extra server starts per run for setup_s, besides every session's own.
constexpr int kSetupStarts = 3;
/// Closed-loop schedules are built for this rate; a run that outpaces it
/// simply ends early.
constexpr double kClosedLoopCapSps = 40e6;
/// Samples the in-process layer pass replays.
constexpr std::size_t kLayerSampleCap = 2'000'000;
constexpr auto kReadyTimeout = std::chrono::seconds(60);
constexpr auto kStopTimeout = std::chrono::seconds(30);

/// Machine and build identity, printed with every result.
struct Fingerprint {
  std::string cpu_model;
  bool avx2 = false;
  long nproc = 0;
  std::string compiler = __VERSION__;
  std::string os_kernel;
  std::string build_sha = "unknown";
  std::string build_kernel = "unknown";
};

Fingerprint machine_fingerprint() {
  Fingerprint fp;
  fp.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11])) {
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    fp.cpu_model = brand;
    fp.cpu_model.erase(0, fp.cpu_model.find_first_not_of(' '));
  }
  fp.avx2 = __builtin_cpu_supports("avx2");
  utsname name{};
  if (::uname(&name) == 0) fp.os_kernel = name.release;
  return fp;
}

/// \p text with double quotes swapped for single ones, for a quoted field.
std::string unquoted(std::string text) {
  std::replace(text.begin(), text.end(), '"', '\'');
  return text;
}

/// Paths of one run's working files inside the work directory.
struct RunPaths {
  fs::path dir;
  std::string dict_a, dict_b1, snapshot, shm_name;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

void remove_snapshots(const RunPaths& paths) {
  std::error_code ignored;
  for (const auto& entry : fs::directory_iterator(paths.dir, ignored)) {
    if (entry.path().filename().string().rfind("chain.snap", 0) == 0) {
      fs::remove(entry.path(), ignored);
    }
  }
}

ServeConfig serve_config(const WorkloadSpec& spec, const RunPaths& paths,
                         const std::string& cli) {
  ServeConfig config;
  config.cli_path = cli;
  config.dict_path = spec.churn ? paths.dict_b1 : paths.dict_a;
  config.tcp = spec.transport == Transport::kTcp;
  if (spec.transport == Transport::kShm) config.shm_name = paths.shm_name;
  if (spec.churn) {
    config.snapshot_path = paths.snapshot;
    config.snapshot_interval_ms = kSnapshotIntervalMs;
  }
  // Every workload accepts swaps: churn-tcp swaps while it measures, and
  // each traced run times a few swaps after its last verdict.
  config.allow_swap = true;
  return config;
}

ScheduleParams schedule_params(const WorkloadSpec& spec, const Inputs& inputs,
                               double seconds, std::uint64_t seed,
                               double rate_sps) {
  ScheduleParams params;
  params.slots = spec.concurrent_jobs;
  params.lanes = spec.data_connections;
  params.seed = seed;
  double mean_samples = 0.0, mean_frames = 0.0;
  for (const ExecTemplate& exec : inputs.execs) {
    mean_samples += static_cast<double>(exec.samples);
    mean_frames += static_cast<double>(exec.frames.size());
  }
  mean_samples /= static_cast<double>(inputs.execs.size());
  mean_frames /= static_cast<double>(inputs.execs.size());
  if (spec.open_loop) {
    params.rate_sps = rate_sps;
    // Jobs already running when the budget is hit stream to their end
    // (about half a job per slot), so stop starting jobs that much
    // earlier and the schedule spans about `seconds`.
    const double total = rate_sps * seconds;
    const double tail = static_cast<double>(spec.concurrent_jobs) * mean_samples / 2.0;
    params.sample_budget = static_cast<std::uint64_t>(std::max(total - tail, total / 2.0));
    params.stagger_rounds = static_cast<std::size_t>(mean_frames);
  } else {
    params.rate_sps = 0.0;
    params.sample_budget = static_cast<std::uint64_t>(kClosedLoopCapSps * seconds);
    params.stagger_rounds = 0;
  }
  return params;
}

struct RunOutcome {
  double setup_s = 0.0;
  DriveResult drive;
  ServeExit exit;
  Scrape before, after;
  std::vector<double> scrape_ms;
  std::vector<double> probe_swap_ms;
};

Scrape timed_scrape(std::uint16_t port, std::vector<double>& times) {
  const std::int64_t begin = now_ns();
  const HttpResult result = http_get(port, "/metrics", std::chrono::seconds(10));
  times.push_back(static_cast<double>(now_ns() - begin) / 1e6);
  if (result.status != 200) throw std::runtime_error("GET /metrics failed");
  return Scrape::parse(result.body);
}

RunOutcome measured_run(const WorkloadSpec& spec, const Inputs& inputs,
                        const Schedule& schedule, const RunPaths& paths,
                        const std::string& cli, double seconds, bool trace) {
  RunOutcome run;
  remove_snapshots(paths);
  ServeProcess serve(serve_config(spec, paths, cli));
  run.setup_s = serve.wait_ready(kReadyTimeout);

  std::vector<std::unique_ptr<Channel>> channels;
  for (std::size_t i = 0; i < spec.data_connections; ++i) {
    channels.push_back(spec.transport == Transport::kShm
                           ? attach_shm(paths.shm_name)
                           : connect_tcp(serve.tcp_port()));
  }
  std::unique_ptr<Channel> control;
  if (spec.churn) control = connect_tcp(serve.tcp_port());
  std::vector<Channel*> data;
  for (auto& channel : channels) data.push_back(channel.get());

  const std::vector<std::uint8_t> swap_b1 = efd::ingest::encode(
      efd::ingest::make_swap_dictionary(std::vector<std::uint8_t>(
          inputs.dictionaries.b1.begin(), inputs.dictionaries.b1.end())));
  const std::vector<std::uint8_t> swap_b2 = efd::ingest::encode(
      efd::ingest::make_swap_dictionary(std::vector<std::uint8_t>(
          inputs.dictionaries.b2.begin(), inputs.dictionaries.b2.end())));

  DriveConfig config;
  config.open_loop = spec.open_loop;
  config.stop_opening_after_ns = static_cast<std::int64_t>(seconds * 1e9);
  config.trace = trace;
  if (spec.churn) {
    // serve starts on B1: the first swap publishes B2.
    config.swap_frames = {&swap_b2, &swap_b1};
    config.swap_period_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(kSwapPeriod).count();
  }

  if (trace) run.before = timed_scrape(serve.http_port(), run.scrape_ms);
  run.drive = drive(inputs.execs, schedule, data, control.get(), config);
  if (trace) {
    run.after = timed_scrape(serve.http_port(), run.scrape_ms);
    if (!spec.churn && run.drive.error.empty()) {
      // Swap round trips over the workload's own link, after the last
      // verdict so they cannot disturb the measured traffic.
      for (const auto* frame : {&swap_b1, &swap_b2, &swap_b1}) {
        run.probe_swap_ms.push_back(
            swap_round_trip_ms(*data.front(), *frame, std::chrono::seconds(10)));
      }
    }
  }
  run.exit = serve.stop(kStopTimeout);
  return run;
}

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      std::cout << "# INCORRECT: " << metric.name << " is not a number\n";
      correct = false;
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json << ", ";
    json << "\"" << metrics[i].name << "\": {\"value\": "
         << format_number(std::isfinite(metrics[i].value) ? metrics[i].value : 0.0)
         << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

/// End-to-end figures of one run, shared by the untraced report and the
/// traced run's overhead comparison.
struct EndToEnd {
  double throughput_sps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t verdicts = 0;
  bool p99_supported = false;
  double cpu_ns_per_sample = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  VerdictCheck check;
  bool clean_exit = false;
};

EndToEnd summarize(const RunOutcome& run, const Schedule& schedule,
                   const Inputs& inputs) {
  EndToEnd e;
  const DriveResult& d = run.drive;
  const double span_s =
      static_cast<double>(std::max(d.last_verdict_ns, d.last_send_ns) -
                          d.first_send_ns) / 1e9;
  e.throughput_sps = span_s > 0 ? static_cast<double>(d.samples_sent) / span_s : 0.0;
  const std::vector<double> latencies = verdict_latencies_us(d);
  e.verdicts = latencies.size();
  e.p50_us = percentile(latencies, 0.50);
  e.p99_us = percentile(latencies, 0.99);
  e.p99_supported = percentile_supported(latencies.size(), 0.99);
  e.cpu_ns_per_sample =
      d.samples_sent > 0 ? run.exit.cpu_seconds * 1e9 / static_cast<double>(d.samples_sent)
                         : 0.0;
  e.peak_rss_mb = run.exit.peak_rss_mb;
  e.check = check_verdicts(schedule, d, inputs.reference);
  e.attempted = e.check.expected;
  e.clean_exit = run.exit.exited && run.exit.exit_code == 0;
  // Jobs a crashed server still owed are missing too; the unclean exit
  // itself marks the run incorrect (run_is_correct).
  e.failed = e.check.missing;
  return e;
}

bool run_is_correct(const EndToEnd& e, const RunOutcome& run,
                    const Inputs& inputs, const WorkloadSpec& spec,
                    std::ostream& log) {
  bool ok = true;
  const auto fail = [&](const std::string& why) {
    log << "# INCORRECT: " << why << "\n";
    ok = false;
  };
  if (e.check.wrong > 0) {
    fail(std::to_string(e.check.wrong) + " verdicts differ from the reference (" +
         e.check.first_mismatch + ")");
  }
  if (run.drive.duplicates > 0) fail("duplicate verdicts");
  if (run.drive.unexpected > 0) {
    fail(std::to_string(run.drive.unexpected) +
         " replies that no job on their connection expected");
  }
  if (!e.clean_exit) {
    const std::string& output = run.exit.output;
    fail("serve did not exit 0 after SIGTERM (exit code " +
         std::to_string(run.exit.exit_code) + "); its last output: " +
         output.substr(output.size() > 400 ? output.size() - 400 : 0));
  }
  if (!run.drive.error.empty()) fail("transport: " + run.drive.error);
  if (!e.p99_supported) {
    fail("only " + std::to_string(e.verdicts) + " verdicts; p99 needs >= " +
         std::to_string(kMinVerdicts));
  }
  if (spec.churn && run.drive.swap_failures > 0) fail("a dictionary swap was refused");
  if (inputs.reference_b1 != inputs.reference) {
    fail("decoy dictionary B1 changes the reference verdicts");
  }
  return ok;
}

void print_fingerprint(const Fingerprint& fp, const WorkloadSpec& spec,
                       std::uint64_t seed, double seconds, bool trace,
                       double rate_sps) {
  std::cout << "# e2e_bench workload=" << spec.name << " seed=" << seed
            << " seconds=" << seconds << " trace=" << (trace ? 1 : 0) << "\n"
            << "# machine: nproc=" << fp.nproc << " cpu=\"" << unquoted(fp.cpu_model)
            << "\" avx2=" << (fp.avx2 ? "yes" : "no") << " os_kernel=" << fp.os_kernel
            << "\n"
            << "# build: compiler=\"" << unquoted(fp.compiler)
            << "\" efd_build_info sha=" << fp.build_sha
            << " kernel=" << fp.build_kernel << "\n"
            << "# load: "
            << (spec.open_loop ? "open loop at " + format_number(rate_sps) +
                                     " samples/s (fixed)"
                               : std::string("closed loop (socket back-pressure only)"))
            << ", " << spec.concurrent_jobs << " concurrent jobs, "
            << (spec.batch_samples == 0
                    ? std::string("one frame per job per tick")
                    : std::to_string(spec.batch_samples) + "-sample frames")
            << ", " << spec.data_connections << " "
            << (spec.transport == Transport::kShm ? "shm segment(s)" : "TCP connection(s)")
            << (spec.churn ? ", snapshot chain every " +
                                 std::to_string(kSnapshotIntervalMs) +
                                 " ms, dictionary swap every " +
                                 std::to_string(kSwapPeriod.count()) + " ms"
                           : std::string())
            << "\n";
}

void write_spans(const fs::path& path, const DriveResult& drive) {
  std::ofstream out(path);
  out << "lane,kind,start_ns,end_ns,bytes\n";
  for (const Span& span : drive.spans) {
    out << static_cast<int>(span.lane) << ',' << (span.kind == 0 ? "send" : "recv")
        << ',' << span.start_ns - drive.first_send_ns << ','
        << span.end_ns - drive.first_send_ns << ',' << span.bytes << '\n';
  }
}

/// Median of one EndToEnd field over the sessions of a run.
template <typename Field>
double session_median(const std::vector<EndToEnd>& sessions, Field field) {
  std::vector<double> values;
  for (const EndToEnd& e : sessions) values.push_back(field(e));
  return efd::util::median(values);
}

int cmd_run(const efd::util::ArgParser& args, bool saturate) {
  const std::string name = saturate ? "fleet-tcp" : args.get("workload");
  const WorkloadSpec* found = find_workload(name);
  if (found == nullptr) {
    std::cerr << "unknown workload '" << name << "'; known:";
    for (const auto& spec : all_workloads()) std::cerr << " " << spec.name;
    std::cerr << "\n";
    return 2;
  }
  WorkloadSpec spec = *found;
  // saturate: no schedule, or --rate R for an open loop at a trial rate.
  const double rate = saturate ? args.get_double("rate", 0.0) : kFleetRateSps;
  if (saturate) spec.open_loop = rate > 0;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get("trace", "0") == "1";
  const std::string cli = args.get("cli");
  const std::string work = args.get("work", ".bench_work");
  if (cli.empty() || !fs::exists(cli) || seconds <= 0) {
    std::cerr << "usage: e2e_bench run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --cli PATH --work DIR\n";
    return 2;
  }

  RunPaths paths;
  paths.dir = fs::path(work) / (spec.name + "-s" + std::to_string(seed) + "-p" +
                                std::to_string(::getpid()));
  fs::create_directories(paths.dir);
  paths.dict_a = (paths.dir / "a.efd").string();
  paths.dict_b1 = (paths.dir / "b1.efd").string();
  paths.snapshot = (paths.dir / "chain.snap").string();
  paths.shm_name = "e2ebench_" + std::to_string(::getpid());
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{paths.dir};

  Fingerprint fp = machine_fingerprint();
  const Inputs inputs = build_inputs(spec, seed);
  write_file(paths.dict_a, inputs.dictionaries.a);
  write_file(paths.dict_b1, inputs.dictionaries.b1);
  if (inputs.dictionaries.b1.size() + 16 > efd::ingest::kMaxFrameBytes) {
    throw std::runtime_error("decoy dictionary does not fit one wire frame");
  }
  const double session_seconds = seconds / kSessions;
  const Schedule schedule = build_schedule(
      inputs.execs, schedule_params(spec, inputs, session_seconds, seed, rate));

  // setup_s: complete starts (exec -> listeners accept and /healthz 200),
  // each stopped with SIGTERM, plus every session's own start; the first
  // also reads the build identity from /metrics.
  std::vector<double> setups;
  for (int i = 0; i < kSetupStarts; ++i) {
    remove_snapshots(paths);
    ServeProcess serve(serve_config(spec, paths, cli));
    setups.push_back(serve.wait_ready(kReadyTimeout));
    if (i == 0) {
      const HttpResult metrics =
          http_get(serve.http_port(), "/metrics", std::chrono::seconds(10));
      const Scrape scrape = Scrape::parse(metrics.body);
      fp.build_sha = scrape.label("efd_build_info", "sha");
      fp.build_kernel = scrape.label("efd_build_info", "kernel");
    }
    const ServeExit exit = serve.stop(kStopTimeout);
    if (!exit.exited || exit.exit_code != 0) {
      throw std::runtime_error("serve did not exit 0 after SIGTERM during setup");
    }
  }
  print_fingerprint(fp, spec, seed, seconds, trace, rate);

  // The untraced sessions: each a fresh serve process streaming the same
  // schedule; every end-to-end figure is the median over sessions.
  bool correct = true;
  std::vector<EndToEnd> sessions;
  std::size_t attempted = 0, failed = 0, verdicts = 0;
  for (int k = 0; k < kSessions; ++k) {
    const RunOutcome run =
        measured_run(spec, inputs, schedule, paths, cli, session_seconds, false);
    setups.push_back(run.setup_s);
    sessions.push_back(summarize(run, schedule, inputs));
    const EndToEnd& e = sessions.back();
    correct = run_is_correct(e, run, inputs, spec, std::cout) && correct;
    attempted += e.attempted;
    failed += e.failed;
    verdicts += e.verdicts;
    std::cout << "# session " << k + 1 << "/" << kSessions << ": throughput_sps "
              << format_number(e.throughput_sps) << ", verdict_p50_us "
              << format_number(e.p50_us) << ", verdict_p99_us "
              << format_number(e.p99_us) << " over " << e.verdicts
              << " verdicts, cpu_ns_per_sample " << format_number(e.cpu_ns_per_sample)
              << ", gen_lag_p99_us " << format_number(percentile(run.drive.lag_us, 0.99))
              << ", " << e.check.wrong << " wrong / " << e.failed << " missing verdicts\n";
  }
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  const double p50_us = session_median(sessions, [](const EndToEnd& e) { return e.p50_us; });
  const double p99_us = session_median(sessions, [](const EndToEnd& e) { return e.p99_us; });
  const double throughput =
      session_median(sessions, [](const EndToEnd& e) { return e.throughput_sps; });
  std::cout << "# verdicts: " << verdicts << " received of " << attempted
            << " jobs sent over " << kSessions << " sessions (" << failed
            << " failed); every verdict checked against the reference table\n";
  if (saturate) {
    std::cout << "saturation throughput_sps = " << format_number(throughput)
              << " samples/s, verdict_p50_us " << format_number(p50_us)
              << ", verdict_p99_us " << format_number(p99_us) << "\n";
    print_result(correct, attempted, failed, {{"throughput_sps", throughput, "samples/s"}});
    return 0;
  }

  const std::vector<Metric> end_to_end = {
      {"setup_s", efd::util::median(setups), "s"},
      {"throughput_sps", throughput, "samples/s"},
      {"verdict_p50_us", p50_us, "us"},
      {"cpu_ns_per_sample",
       session_median(sessions, [](const EndToEnd& e) { return e.cpu_ns_per_sample; }), "ns"},
      {"peak_rss_mb",
       session_median(sessions, [](const EndToEnd& e) { return e.peak_rss_mb; }), "MB"},
  };
  std::cout << "# end-to-end (median over " << kSessions << " untraced sessions; "
            << "setup_s is the median of " << setups.size() << " starts)\n";
  for (const Metric& metric : end_to_end) {
    std::cout << metric.name << " = " << format_number(metric.value) << " "
              << metric.unit << "\n";
  }
  // Printed with every run but not gated: on a shared 4-vCPU VM the p99
  // of the TCP workloads follows the host's stalls (see README.md).
  std::cout << "verdict_p99_us = " << format_number(p99_us) << " us\n"
            << "verdict_count = " << verdicts << " count\n"
            << "jobs_failed_frac = " << format_number(failed_frac) << " ratio\n";
  if (!trace) {
    print_result(correct, attempted, failed, end_to_end);
    return 0;
  }

  // ---- traced session + in-process layer pass ----
  const RunOutcome traced =
      measured_run(spec, inputs, schedule, paths, cli, session_seconds, true);
  const EndToEnd t = summarize(traced, schedule, inputs);
  correct = run_is_correct(t, traced, inputs, spec, std::cout) && correct;
  const LayerTimings layers = run_layer_pass(spec, inputs, schedule, kLayerSampleCap);
  if (layers.verdict_mismatches > 0) {
    std::cout << "# INCORRECT: in-process layer pass produced "
              << layers.verdict_mismatches << " verdicts unlike the reference\n";
    correct = false;
  }
  // One span dump per workload (the latest traced run's), so repeated
  // runs do not pile up files.
  const fs::path spans_path = fs::path(work) / ("spans-" + spec.name + ".csv");
  write_spans(spans_path, traced.drive);

  const Scrape& b = traced.before;
  const Scrape& a = traced.after;
  const auto delta = [&](std::string_view family) {
    return a.sum_family(family) - b.sum_family(family);
  };
  const auto quantile = [&](std::string_view family, std::string_view labels, double q) {
    return histogram_quantile(b.buckets(family, labels), a.buckets(family, labels), q);
  };
  const double ingested = std::max(1.0, delta("efd_ingest_samples"));
  const double pool_hits = delta("efd_source_pool_hits");
  const double pool_misses = delta("efd_source_pool_misses");
  const double admit_p50_us = quantile("efd_verdict_latency_ns", "", 0.50) / 1e3;
  const double admit_p99_us = quantile("efd_verdict_latency_ns", "", 0.99) / 1e3;
  const DriveResult& d = traced.drive;
  const double samples = std::max<double>(1.0, static_cast<double>(d.samples_sent));
  double send_ns = 0, recv_ns = 0;
  for (const Span& span : d.spans) {
    (span.kind == 0 ? send_ns : recv_ns) += static_cast<double>(span.end_ns - span.start_ns);
  }
  const double swap_ack_ms =
      spec.churn ? efd::util::median(d.swap_ack_ms) : efd::util::median(traced.probe_swap_ms);
  // Tracing cost: the traced session against the untraced median, on the
  // figure the workload is about (latency open loop, capacity closed).
  const double overhead =
      spec.open_loop ? (t.p50_us - p50_us) / std::max(p50_us, 1e-9)
                     : (throughput - t.throughput_sps) / std::max(throughput, 1e-9);
  const double traced_failed_frac =
      t.attempted > 0 ? static_cast<double>(t.failed) / static_cast<double>(t.attempted) : 0.0;

  struct Row {
    std::string layer;
    Metric metric;
    std::string moves;
  };
  const std::vector<Row> rows = {
      {"generator", {"ingest.gen_lag_p99_us", percentile(d.lag_us, 0.99), "us"},
       "verdict_p99_us fleet-* (generator guard)"},
      {"generator", {"ingest.send_blocked_frac", d.sending_ns > 0 ? d.blocked_ns / d.sending_ns : 0.0, "ratio"},
       "throughput_sps flood-tcp; verdict_p99_us fleet-*"},
      {"generator", {"ingest.client_send_ns_per_sample", send_ns / samples, "ns"},
       "(self time of generator send spans)"},
      {"generator", {"ingest.client_recv_ns_per_sample", recv_ns / samples, "ns"},
       "(self time of generator receive spans)"},
      {"ingest", {"ingest.frames_per_sample", static_cast<double>(d.frames_sent) / samples, "count"},
       "cpu_ns_per_sample fleet-tcp"},
      {"ingest", {"ingest.bytes_per_sample", static_cast<double>(d.bytes_sent) / samples, "bytes"},
       "cpu_ns_per_sample fleet-tcp"},
      {"ingest", {"ingest.decode_ns_per_sample", layers.decode_ns_per_sample, "ns"},
       "throughput_sps flood-tcp"},
      {"ingest", {"ingest.server_decode_p50_ns", quantile("efd_stage_duration_ns", "stage=\"decode\"", 0.5), "ns"},
       "throughput_sps flood-tcp"},
      {"ingest", {"ingest.server_flush_p50_ns", quantile("efd_stage_duration_ns", "stage=\"verdict_flush\"", 0.5), "ns"},
       "verdict_p50_us fleet-tcp"},
      {"ingest", {"ingest.pool_hit_ratio", pool_hits + pool_misses > 0 ? pool_hits / (pool_hits + pool_misses) : 0.0, "ratio"},
       "cpu_ns_per_sample flood-tcp"},
      {"ingest", {"ingest.transport_errors", delta("efd_source_decode_errors") + delta("efd_source_drops"), "count"},
       "jobs_failed_frac all"},
      {"ingest", {"ingest.verdict_encode_ns", layers.verdict_encode_ns, "ns"},
       "verdict_p50_us fleet-tcp"},
      {"online", {"online.enqueue_ns_per_sample", layers.enqueue_ns_per_sample, "ns"},
       "throughput_sps flood-tcp"},
      {"online", {"online.drain_ns_per_sample", layers.drain_ns_per_sample, "ns"},
       "throughput_sps flood-tcp; cpu_ns_per_sample fleet-tcp"},
      {"online", {"online.drain_verdicts_ns", layers.drain_verdicts_ns, "ns"},
       "verdict_p50_us fleet-tcp"},
      {"online", {"online.admit_to_verdict_p50_us", admit_p50_us, "us"},
       "verdict_p50_us fleet-tcp"},
      {"online", {"online.admit_to_verdict_p99_us", admit_p99_us, "us"},
       "verdict_p99_us fleet-tcp"},
      {"online", {"online.late_frac", (delta("efd_service_samples_late") + delta("efd_service_samples_dropped")) / ingested, "ratio"},
       "cpu_ns_per_sample all"},
      {"online", {"online.pushes_blocked", delta("efd_service_pushes_blocked"), "count"},
       "throughput_sps flood-tcp"},
      {"online", {"online.swap_us", layers.swap_us, "us"}, "verdict_p99_us churn-tcp"},
      {"online", {"online.swap_ack_p50_ms", swap_ack_ms, "ms"}, "verdict_p99_us churn-tcp"},
      {"online", {"online.snapshot_capture_ms", layers.snapshot_capture_ms, "ms"},
       "verdict_p99_us churn-tcp"},
      {"online", {"online.snapshot_delta_bytes", layers.snapshot_delta_bytes, "bytes"},
       "verdict_p99_us churn-tcp"},
      {"core", {"core.score_us_per_verdict", layers.score_us_per_verdict, "us"},
       "verdict_p50_us fleet-tcp; throughput_sps flood-tcp"},
      {"core", {"core.lookup_ns_per_key", layers.lookup_ns_per_key_a, "ns"},
       "throughput_sps flood-tcp"},
      {"core", {"core.lookup_ns_per_key_b1", layers.lookup_ns_per_key_b1, "ns"},
       "verdict_p99_us churn-tcp"},
      {"core", {"core.index_build_ms", layers.index_build_ms, "ms"}, "setup_s churn-tcp"},
      {"core", {"core.index_build_gauge_ms", b.value("efd_dictionary_index_build_seconds") * 1e3, "ms"},
       "setup_s churn-tcp"},
      {"core", {"core.round_ns_per_value", layers.round_ns_per_value, "ns"},
       "throughput_sps flood-tcp"},
      {"obs", {"obs.scrape_ms", efd::util::median(traced.scrape_ms), "ms"}, "none (cost of tracing)"},
      {"obs", {"obs.trace_overhead_frac", overhead, "ratio"}, "none (cost of tracing)"},
      {"unattributed", {"unattributed_p50_us", t.p50_us - admit_p50_us, "us"},
       "verdict_p50_us fleet-tcp vs fleet-shm"},
      {"end-to-end", {"verdict_p99_us", p99_us, "us"}, "(untraced sessions, not gated)"},
      {"end-to-end", {"verdict_count", static_cast<double>(verdicts), "count"},
       "(untraced sessions)"},
      {"end-to-end", {"jobs_failed_frac", failed_frac, "ratio"}, "(untraced sessions)"},
  };

  std::cout << "# per-layer (traced session: verdict_p50_us "
            << format_number(t.p50_us) << " us, verdict_p99_us "
            << format_number(t.p99_us) << " us over " << t.verdicts
            << " verdicts, jobs_failed_frac " << format_number(traced_failed_frac)
            << "; in-process pass over " << layers.samples
            << " samples; snapshot base " << format_number(layers.snapshot_base_ms)
            << " ms / " << format_number(layers.snapshot_base_bytes) << " bytes with "
            << layers.snapshot_open_streams << " open streams; spans in "
            << spans_path.string() << ")\n";
  std::printf("%-13s %-34s %22s %-6s %s\n", "layer", "metric", "value", "unit",
              "should move");
  std::vector<Metric> per_layer;
  for (const Row& row : rows) {
    std::printf("%-13s %-34s %22s %-6s %s\n", row.layer.c_str(),
                row.metric.name.c_str(), format_number(row.metric.value).c_str(),
                row.metric.unit.c_str(), row.moves.c_str());
    per_layer.push_back(row.metric);
  }
  std::fflush(stdout);
  print_result(correct, attempted, failed, per_layer);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const efd::util::ArgParser args(argc - 1, argv + 1);
  try {
    if (command == "run") return cmd_run(args, false);
    if (command == "saturate") return cmd_run(args, true);
  } catch (const std::exception& error) {
    std::cerr << "e2e_bench: " << error.what() << "\n";
    return 1;
  }
  std::cerr << "usage: e2e_bench run|saturate --workload NAME --seed N "
               "--seconds S --trace 0|1 --cli PATH --work DIR\n";
  return 2;
}

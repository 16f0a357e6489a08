/// \file test_obs_e2e.cpp
/// \brief End-to-end observability plane through the real efd_cli
/// binary: `serve --http 0` scraped over raw loopback HTTP (/healthz,
/// /index, /metrics), `watch` tailing the verdict stream to parity with
/// the replayed workload, and a SIGSTOPped subscriber proving a frozen
/// consumer never stalls serving or the live watcher.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef EFD_CLI_PATH
#error "EFD_CLI_PATH must be defined by the build"
#endif

std::string cli() { return EFD_CLI_PATH; }

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::pair<int, std::string> run(const std::string& command_line) {
  const std::string out_file = temp_path("obs_stdout.txt");
  const int status =
      std::system((command_line + " > " + out_file + " 2>&1").c_str());
  const std::string output = slurp(out_file);
  std::remove(out_file.c_str());
  return {status, output};
}

void spawn(const std::string& command_line, const std::string& out_file,
           const std::string& pid_file) {
  const std::string full = command_line + " > " + out_file +
                           " 2>&1 & echo $! > " + pid_file;
  ASSERT_EQ(std::system(full.c_str()), 0) << full;
}

long read_pid(const std::string& pid_file) {
  std::ifstream in(pid_file);
  long pid = 0;
  in >> pid;
  return pid;
}

bool process_alive(long pid) { return pid > 1 && ::kill(pid, 0) == 0; }

void await_exit(long pid) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    if (!process_alive(pid)) return;
    ::usleep(100 * 1000);
  }
  if (pid > 1) ::kill(static_cast<pid_t>(pid), SIGKILL);
}

/// Scrapes "<marker>N" out of a growing server log.
int await_marker_int(const std::string& out_file, const std::string& marker) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream in(out_file);
    std::string line;
    while (std::getline(in, line)) {
      const auto at = line.find(marker);
      if (at != std::string::npos) {
        return std::atoi(line.c_str() + at + marker.size());
      }
    }
    ::usleep(100 * 1000);
  }
  return 0;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// Waits until the file contains \p expected occurrences of \p needle.
bool await_occurrences(const std::string& out_file, const std::string& needle,
                       std::size_t expected) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    if (count_occurrences(slurp(out_file), needle) >= expected) return true;
    ::usleep(100 * 1000);
  }
  return false;
}

/// One blocking GET against 127.0.0.1:<port>; returns headers + body.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[4096];
  ssize_t got = 0;
  while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

/// Extracts the integer value of the first sample line starting with
/// \p prefix ("name{labels}" or bare name) in a /metrics payload.
long metric_value(const std::string& exposition, const std::string& prefix) {
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    return std::atol(line.c_str() + space + 1);
  }
  return -1;
}

/// The /metrics family a flat scrape row renders into, or "" for a row
/// that only labels others (`source.<id>.name`) or a healthy snapshot
/// error ("none").
std::string flat_row_family(const std::string& name,
                            const std::string& value) {
  const auto after_id = [&name](std::size_t prefix) {
    return name.substr(name.find('.', prefix) + 1);
  };
  if (name.rfind("source.", 0) == 0) {
    const std::string rest = after_id(7);
    return rest == "name" ? "" : "efd_source_" + rest;
  }
  if (name.rfind("service.source.", 0) == 0) {
    return "efd_service_source_" + after_id(15);
  }
  if (name.rfind("subscriber.", 0) == 0) {
    return "efd_subscriber_" + after_id(11);
  }
  if (name == "ingest.snapshot_last_error") {
    return value == "none" ? "" : "efd_ingest_snapshot_last_error_info";
  }
  if (name.rfind("build.", 0) == 0) return "efd_build_info";
  std::string family = "efd_" + name;
  std::replace(family.begin(), family.end(), '.', '_');
  return family;
}

struct ProcessGuard {
  std::string pid_file;
  ~ProcessGuard() {
    const long pid = read_pid(pid_file);
    if (pid > 1) {
      ::kill(static_cast<pid_t>(pid), SIGCONT);
      ::kill(static_cast<pid_t>(pid), SIGTERM);
    }
    std::remove(pid_file.c_str());
  }
};

class ObsE2e : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_path_ = temp_path("obs_data.csv");
    dict_path_ = temp_path("obs_dict.efd");
    auto [generate_status, generate_output] = run(
        cli() + " generate --out " + data_path_ + " --repetitions 2 --no-large");
    ASSERT_EQ(generate_status, 0) << generate_output;
    const auto colon = generate_output.find(": ");
    ASSERT_NE(colon, std::string::npos) << generate_output;
    executions_ = std::atoi(generate_output.c_str() + colon + 2);
    ASSERT_GT(executions_, 0);
    auto [train_status, train_output] =
        run(cli() + " train --data " + data_path_ + " --out " + dict_path_);
    ASSERT_EQ(train_status, 0) << train_output;
  }

  static void TearDownTestSuite() {
    std::remove(data_path_.c_str());
    std::remove(dict_path_.c_str());
  }

  static std::string data_path_;
  static std::string dict_path_;
  static int executions_;
};

std::string ObsE2e::data_path_;
std::string ObsE2e::dict_path_;
int ObsE2e::executions_ = 0;

TEST_F(ObsE2e, HttpPlaneAndVerdictStreamEndToEnd) {
  const std::string serve_log = temp_path("obs_serve.log");
  const std::string serve_pid = temp_path("obs_serve.pid");
  ProcessGuard serve_guard{serve_pid};
  spawn(cli() + " serve --dict " + dict_path_ + " --port 0 --http 0 --quiet",
        serve_log, serve_pid);
  const int tcp_port = await_marker_int(serve_log, "listening on port ");
  const int http_port =
      await_marker_int(serve_log, "http: listening on 127.0.0.1:");
  ASSERT_GT(tcp_port, 0) << slurp(serve_log);
  ASSERT_GT(http_port, 0) << slurp(serve_log);

  // The plane answers before any traffic: health, index, and a 404.
  const std::string health = http_get(http_port, "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << health;
  EXPECT_NE(health.find("{\"status\":\"ok\",\"role\":\"leader\"}"),
            std::string::npos)
      << health;
  const std::string index_idle = http_get(http_port, "/index");
  EXPECT_NE(index_idle.find("Content-Type: application/json"),
            std::string::npos)
      << index_idle;
  EXPECT_NE(index_idle.find("\"jobs\""), std::string::npos) << index_idle;
  EXPECT_NE(index_idle.find("\"dictionary\""), std::string::npos)
      << index_idle;
  EXPECT_EQ(http_get(http_port, "/nope").rfind("HTTP/1.1 404 Not Found\r\n", 0),
            0u);

  // Live watcher (subscriber 1): tails every verdict.
  const std::string watch_log = temp_path("obs_watch.log");
  const std::string watch_pid = temp_path("obs_watch.pid");
  ProcessGuard watch_guard{watch_pid};
  spawn(cli() + " watch --port " + std::to_string(tcp_port) +
            " --count 0 --timeout-ms 60000",
        watch_log, watch_pid);
  ASSERT_TRUE(await_occurrences(watch_log, "subscribed id=", 1))
      << slurp(watch_log);

  // Frozen watcher (subscriber 2): subscribes, then SIGSTOP — it stops
  // reading its socket entirely. Serving and subscriber 1 must not care.
  const std::string frozen_log = temp_path("obs_frozen.log");
  const std::string frozen_pid = temp_path("obs_frozen.pid");
  ProcessGuard frozen_guard{frozen_pid};
  spawn(cli() + " watch --port " + std::to_string(tcp_port) +
            " --count 0 --timeout-ms 60000",
        frozen_log, frozen_pid);
  ASSERT_TRUE(await_occurrences(frozen_log, "subscribed id=", 1))
      << slurp(frozen_log);
  ASSERT_EQ(::kill(static_cast<pid_t>(read_pid(frozen_pid)), SIGSTOP), 0);

  // Drive the full workload through; the live watcher reaches parity.
  auto [replay_status, replay_output] =
      run(cli() + " replay --data " + data_path_ + " --port " +
          std::to_string(tcp_port));
  EXPECT_EQ(replay_status, 0) << replay_output;
  ASSERT_TRUE(await_occurrences(watch_log, "verdict job=",
                                static_cast<std::size_t>(executions_)))
      << slurp(watch_log);
  const std::string watched = slurp(watch_log);
  EXPECT_EQ(count_occurrences(watched, "verdict job="),
            static_cast<std::size_t>(executions_));
  EXPECT_EQ(count_occurrences(watched, "latency_us="),
            static_cast<std::size_t>(executions_));

  // /metrics after traffic: histograms populated, build info present,
  // per-subscriber series live, and the full CLI scrape is a subset.
  const std::string metrics = http_get(http_port, "/metrics");
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE efd_verdict_latency_ns histogram"),
            std::string::npos);
  EXPECT_GT(metric_value(metrics, "efd_verdict_latency_ns_count"), 0)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE efd_stage_duration_ns histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("efd_stage_duration_ns_bucket{stage=\"score\""),
            std::string::npos);
  EXPECT_NE(metrics.find("efd_build_info{version="), std::string::npos);
  EXPECT_NE(metrics.find("efd_uptime_seconds "), std::string::npos);
  EXPECT_EQ(metric_value(metrics, "efd_subscriber_delivered{subscriber=\"1\"}"),
            executions_)
      << metrics;
  // The frozen subscriber's accounting is visible; whatever it could not
  // take was shed, never allowed to block the flush (parity above).
  EXPECT_GE(metric_value(metrics, "efd_subscriber_delivered{subscriber=\"2\"}"),
            0)
      << metrics;
  EXPECT_GE(metric_value(metrics, "efd_subscriber_dropped{subscriber=\"2\"}"),
            0)
      << metrics;

  // Every row of the CLI flat scrape maps to a family on /metrics.
  auto [stats_status, stats_output] =
      run(cli() + " stats --port " + std::to_string(tcp_port));
  EXPECT_EQ(stats_status, 0) << stats_output;
  std::istringstream rows(stats_output);
  std::string line;
  std::size_t mapped = 0;
  while (std::getline(rows, line)) {
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string family =
        flat_row_family(line.substr(0, space), line.substr(space + 1));
    if (family.empty()) continue;
    EXPECT_NE(metrics.find("\n# TYPE " + family + " "), std::string::npos)
        << line;
    ++mapped;
  }
  EXPECT_GT(mapped, 50u) << stats_output;

  // /index reflects the live subscribers and source traffic.
  const std::string index = http_get(http_port, "/index");
  EXPECT_NE(index.find("\"subscribers\""), std::string::npos) << index;
  EXPECT_NE(index.find("\"delivered\""), std::string::npos) << index;
  EXPECT_NE(index.find("\"sources\""), std::string::npos) << index;

  // Orderly teardown: thaw + stop the watchers, then stop serve.
  const long frozen = read_pid(frozen_pid);
  ::kill(static_cast<pid_t>(frozen), SIGCONT);
  ::kill(static_cast<pid_t>(frozen), SIGTERM);
  await_exit(frozen);
  const long watcher = read_pid(watch_pid);
  ::kill(static_cast<pid_t>(watcher), SIGTERM);
  await_exit(watcher);
  const long server = read_pid(serve_pid);
  ::kill(static_cast<pid_t>(server), SIGTERM);
  await_exit(server);
  std::remove(serve_log.c_str());
  std::remove(watch_log.c_str());
  std::remove(frozen_log.c_str());
}

TEST_F(ObsE2e, FollowerStandbyAnswersHealthz) {
  // A warm standby exposes a 503 /healthz while replicating, so a load
  // balancer never routes scrapes or traffic to it pre-promotion.
  const std::string leader_snap = temp_path("obs_leader.efds");
  const std::string leader_log = temp_path("obs_leader.log");
  const std::string leader_pid = temp_path("obs_leader.pid");
  ProcessGuard leader_guard{leader_pid};
  spawn(cli() + " serve --dict " + dict_path_ + " --snapshot-path " +
            leader_snap + " --snapshot-every 2 --allow-followers --quiet",
        leader_log, leader_pid);
  const int leader_port = await_marker_int(leader_log, "listening on port ");
  ASSERT_GT(leader_port, 0) << slurp(leader_log);

  const std::string follower_snap = temp_path("obs_follower.efds");
  const std::string follower_log = temp_path("obs_follower.log");
  const std::string follower_pid = temp_path("obs_follower.pid");
  ProcessGuard follower_guard{follower_pid};
  spawn(cli() + " serve --dict " + dict_path_ + " --snapshot-path " +
            follower_snap + " --follow 127.0.0.1:" +
            std::to_string(leader_port) + " --http 0",
        follower_log, follower_pid);
  const int standby_port =
      await_marker_int(follower_log, "http: standby listening on 127.0.0.1:");
  ASSERT_GT(standby_port, 0) << slurp(follower_log);

  const std::string health = http_get(standby_port, "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u)
      << health;
  EXPECT_NE(health.find("{\"status\":\"standby\",\"role\":\"follower\"}"),
            std::string::npos)
      << health;

  const long follower = read_pid(follower_pid);
  ::kill(static_cast<pid_t>(follower), SIGTERM);
  await_exit(follower);
  const long leader = read_pid(leader_pid);
  ::kill(static_cast<pid_t>(leader), SIGTERM);
  await_exit(leader);
  std::remove(leader_log.c_str());
  std::remove(follower_log.c_str());
  std::remove(leader_snap.c_str());
  std::remove(follower_snap.c_str());
}

}  // namespace

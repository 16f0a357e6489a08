/// \file test_multi_source_e2e.cpp
/// \brief End-to-end multi-source serving through the real efd_cli
/// binary: one `serve` process with three listeners (TCP + UDP + shared
/// memory), the replay workload split into thirds across them, and the
/// merged verdict table diffed against a single-TCP-source baseline —
/// the acceptance gate. Also exercises the live scrapes with their
/// per-source rows: the flat `stats --port` and `serve --http`'s GET
/// /metrics.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  const std::string out_file = temp_path("ms_stdout.txt");
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

/// The verdict rows of a replay table, sorted so runs compare
/// independent of arrival order.
std::vector<std::string> verdict_rows(const std::string& output) {
  std::vector<std::string> rows;
  std::stringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 3 || line[0] != '|') continue;
    const auto first = line.find_first_not_of(" |");
    if (first == std::string::npos || !std::isdigit(line[first])) continue;
    rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
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

struct ServeGuard {
  std::string pid_file;
  ~ServeGuard() {
    const long pid = read_pid(pid_file);
    if (pid > 1) ::kill(static_cast<pid_t>(pid), SIGTERM);
    std::remove(pid_file.c_str());
  }
};

class MultiSourceE2e : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_path_ = temp_path("ms_data.csv");
    dict_path_ = temp_path("ms_dict.efd");
    auto [generate_status, generate_output] = run(
        cli() + " generate --out " + data_path_ + " --repetitions 2 --no-large");
    ASSERT_EQ(generate_status, 0) << generate_output;
    // "wrote <path>: N executions, ..."
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

std::string MultiSourceE2e::data_path_;
std::string MultiSourceE2e::dict_path_;
int MultiSourceE2e::executions_ = 0;

TEST_F(MultiSourceE2e, SplitWorkloadAcrossThreeTransportsMatchesBaseline) {
  // --- baseline: one TCP listener, the whole workload ------------------
  const std::string baseline_log = temp_path("ms_baseline.log");
  const std::string baseline_pid = temp_path("ms_baseline.pid");
  ServeGuard baseline_guard{baseline_pid};
  spawn(cli() + " serve --dict " + dict_path_ + " --port 0 --max-jobs " +
            std::to_string(executions_) + " --quiet",
        baseline_log, baseline_pid);
  const int baseline_port =
      await_marker_int(baseline_log, "listening on port ");
  ASSERT_GT(baseline_port, 0) << slurp(baseline_log);
  auto [baseline_status, baseline_output] =
      run(cli() + " replay --data " + data_path_ + " --port " +
          std::to_string(baseline_port));
  EXPECT_EQ(baseline_status, 0) << baseline_output;
  const std::vector<std::string> baseline = verdict_rows(baseline_output);
  ASSERT_EQ(baseline.size(), static_cast<std::size_t>(executions_));
  await_exit(read_pid(baseline_pid));
  std::remove(baseline_log.c_str());

  // --- multi-source: tcp + udp + shm, a third of the workload each -----
  const std::string shm_name = "ms_e2e_" + std::to_string(::getpid());
  const std::string serve_log = temp_path("ms_serve.log");
  const std::string serve_pid = temp_path("ms_serve.pid");
  ServeGuard serve_guard{serve_pid};
  // --threads 2 fans each poll's drain across a pool: the verdict-parity
  // gate at the end of this test then also proves the parallel drain
  // reproduces the single-threaded baseline end to end.
  spawn(cli() + " serve --dict " + dict_path_ +
            " --listen tcp:0 --listen udp:0 --listen shm:" + shm_name +
            " --threads 2 --max-jobs " + std::to_string(executions_) +
            " --http 0 --quiet",
        serve_log, serve_pid);
  const int tcp_port = await_marker_int(serve_log, "listening on port ");
  const int udp_port = await_marker_int(serve_log, "listening on udp port ");
  const int http_port =
      await_marker_int(serve_log, "http: listening on 127.0.0.1:");
  ASSERT_GT(tcp_port, 0) << slurp(serve_log);
  ASSERT_GT(udp_port, 0) << slurp(serve_log);
  ASSERT_GT(http_port, 0) << slurp(serve_log);

  auto [tcp_status, tcp_output] =
      run(cli() + " replay --data " + data_path_ + " --port " +
          std::to_string(tcp_port) + " --stride 3 --offset 0");
  EXPECT_EQ(tcp_status, 0) << tcp_output;
  // UDP leg: small batches plus light pacing keep the lossy transport
  // lossless on loopback — the parity gate needs every sample through.
  auto [udp_status, udp_output] =
      run(cli() + " replay --data " + data_path_ + " --port " +
          std::to_string(udp_port) +
          " --udp --batch 128 --pace-us 300 --stride 3 --offset 1");
  EXPECT_EQ(udp_status, 0) << udp_output;

  // Live scrape while the endpoint still serves: per-source rows exist,
  // and the UDP leg shows traffic with zero loss.
  auto [stats_status, stats_output] =
      run(cli() + " stats --port " + std::to_string(tcp_port));
  EXPECT_EQ(stats_status, 0) << stats_output;
  EXPECT_NE(stats_output.find("source.0.name tcp:0"), std::string::npos)
      << stats_output;
  EXPECT_NE(stats_output.find("source.1.name udp:0"), std::string::npos)
      << stats_output;
  EXPECT_NE(stats_output.find("source.1.gaps 0"), std::string::npos)
      << stats_output;
  EXPECT_NE(stats_output.find("service.source.1.jobs_opened"),
            std::string::npos)
      << stats_output;
  // Sample-buffer recycling counters: the process-global pool rows of
  // the owned decode. The servers decode sample batches as views and own
  // no pool, so no source carries pool_* rows.
  EXPECT_NE(stats_output.find("pool.hits "), std::string::npos)
      << stats_output;
  EXPECT_NE(stats_output.find("pool.discards "), std::string::npos)
      << stats_output;
  EXPECT_EQ(stats_output.find(".pool_"), std::string::npos) << stats_output;

  // The same rows as Prometheus text exposition, on GET /metrics.
  const std::string prometheus_output = http_get(http_port, "/metrics");
  EXPECT_EQ(prometheus_output.rfind("HTTP/1.1 200 OK\r\n", 0), 0u)
      << prometheus_output;
  EXPECT_NE(prometheus_output.find("# TYPE efd_service_jobs_opened counter"),
            std::string::npos)
      << prometheus_output;
  EXPECT_NE(prometheus_output.find("# TYPE efd_source_gaps counter"),
            std::string::npos)
      << prometheus_output;
  EXPECT_NE(
      prometheus_output.find("efd_source_gaps{source=\"1\",name=\"udp:0\"} 0"),
      std::string::npos)
      << prometheus_output;
  EXPECT_NE(prometheus_output.find("# TYPE efd_pool_hits counter"),
            std::string::npos)
      << prometheus_output;
  EXPECT_EQ(prometheus_output.find("efd_source_pool_"), std::string::npos)
      << prometheus_output;

  auto [shm_status, shm_output] =
      run(cli() + " replay --data " + data_path_ + " --shm " + shm_name +
          " --stride 3 --offset 2");
  EXPECT_EQ(shm_status, 0) << shm_output;

  await_exit(read_pid(serve_pid));
  const std::string serve_output = slurp(serve_log);
  std::remove(serve_log.c_str());

  // Per-source exit summary names every listener.
  EXPECT_NE(serve_output.find("source 0 (tcp:0):"), std::string::npos)
      << serve_output;
  EXPECT_NE(serve_output.find("source 1 (udp:0):"), std::string::npos)
      << serve_output;
  EXPECT_NE(serve_output.find("source 2 (shm:" + shm_name + "):"),
            std::string::npos)
      << serve_output;

  // The acceptance gate: the merged verdict table of the split run is
  // IDENTICAL to the single-source baseline.
  std::vector<std::string> merged;
  for (const std::string* output : {&tcp_output, &udp_output, &shm_output}) {
    const std::vector<std::string> rows = verdict_rows(*output);
    merged.insert(merged.end(), rows.begin(), rows.end());
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, baseline);
}

}  // namespace

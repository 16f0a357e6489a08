#pragma once
/// \file serve_process.hpp
/// \brief Runs the real `efd_cli serve` binary as a child process: spawn,
/// readiness (listeners accept and /healthz answers 200), SIGTERM stop,
/// and CPU/peak-RSS accounting from wait4.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Deployment and workload-defining flags only: the server's tuning
/// (workers, shards, queue capacity, policy) stays at its shipped
/// defaults.
struct ServeConfig {
  std::string cli_path;
  std::string dict_path;
  bool tcp = true;               ///< --listen tcp:0
  std::string shm_name;          ///< --listen shm:NAME when non-empty
  std::string snapshot_path;     ///< --snapshot-path when non-empty
  int snapshot_interval_ms = 0;
  bool allow_swap = false;
};

struct ServeExit {
  bool exited = false;   ///< exited on its own after SIGTERM (not killed)
  int exit_code = -1;    ///< valid when exited
  double cpu_seconds = 0.0;  ///< user + system
  double peak_rss_mb = 0.0;
  std::string output;    ///< everything the server printed on stdout
};

/// One `serve` child. The destructor kills and reaps it if stop() was
/// never called.
class ServeProcess {
 public:
  explicit ServeProcess(const ServeConfig& config);
  ~ServeProcess();

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// Blocks until every listener is up and GET /healthz answers 200;
  /// returns seconds since the exec. Throws on timeout or early exit.
  double wait_ready(std::chrono::milliseconds timeout);

  std::uint16_t tcp_port() const noexcept { return tcp_port_; }
  std::uint16_t http_port() const noexcept { return http_port_; }

  /// SIGTERM, then waits up to \p timeout for a clean exit (SIGKILL
  /// after that), draining stdout meanwhile.
  ServeExit stop(std::chrono::milliseconds timeout);

 private:
  /// Reads whatever stdout has (waiting up to \p timeout_ms); false on
  /// EOF.
  bool pump_output(int timeout_ms);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string output_;
  std::size_t parsed_ = 0;  ///< prefix of output_ already scanned for lines
  std::chrono::steady_clock::time_point spawned_;
  std::uint16_t tcp_port_ = 0;
  std::uint16_t http_port_ = 0;
  bool want_tcp_ = true;
  bool want_shm_ = false;
  bool shm_ready_ = false;
};

struct HttpResult {
  int status = 0;
  std::string body;
};

/// GET http://127.0.0.1:PORT/PATH; status 0 when the request failed.
HttpResult http_get(std::uint16_t port, const std::string& path,
                    std::chrono::milliseconds timeout);

}  // namespace e2ebench

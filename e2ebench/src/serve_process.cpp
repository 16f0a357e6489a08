#include "serve_process.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace e2ebench {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/// Connects to 127.0.0.1:port; -1 on failure.
int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The number after \p marker on one stdout line, or -1.
long number_after(const std::string& line, const std::string& marker) {
  const std::size_t at = line.find(marker);
  if (at == std::string::npos) return -1;
  return std::strtol(line.c_str() + at + marker.size(), nullptr, 10);
}

}  // namespace

ServeProcess::ServeProcess(const ServeConfig& config)
    : want_tcp_(config.tcp), want_shm_(!config.shm_name.empty()) {
  std::vector<std::string> args = {config.cli_path, "serve", "--dict",
                                   config.dict_path, "--http", "0", "--quiet"};
  if (config.tcp) {
    args.push_back("--listen");
    args.push_back("tcp:0");
  }
  if (!config.shm_name.empty()) {
    args.push_back("--listen");
    args.push_back("shm:" + config.shm_name);
  }
  if (!config.snapshot_path.empty()) {
    args.push_back("--snapshot-path");
    args.push_back(config.snapshot_path);
    args.push_back("--snapshot-interval-ms");
    args.push_back(std::to_string(config.snapshot_interval_ms));
  }
  if (config.allow_swap) args.push_back("--allow-swap");

  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  spawned_ = Clock::now();
  const int rc = ::posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + config.cli_path + ": " +
                             std::strerror(rc));
  }
  stdout_fd_ = pipe_fds[0];
}

ServeProcess::~ServeProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool ServeProcess::pump_output(int timeout_ms) {
  if (stdout_fd_ < 0) return false;
  pollfd pfd{stdout_fd_, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return true;
  char buffer[4096];
  const ssize_t n = ::read(stdout_fd_, buffer, sizeof buffer);
  if (n <= 0) {
    if (n < 0 && errno == EINTR) return true;
    ::close(stdout_fd_);
    stdout_fd_ = -1;
    return false;
  }
  output_.append(buffer, static_cast<std::size_t>(n));
  return true;
}

double ServeProcess::wait_ready(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  // 1. The listeners and the HTTP plane announce themselves on stdout.
  while (!((tcp_port_ != 0 || !want_tcp_) && (shm_ready_ || !want_shm_) &&
           http_port_ != 0)) {
    if (Clock::now() >= deadline) {
      throw std::runtime_error("serve did not announce its listeners: " +
                               output_);
    }
    if (!pump_output(remaining_ms(deadline))) {
      throw std::runtime_error("serve exited during start-up: " + output_);
    }
    std::size_t newline;
    while ((newline = output_.find('\n', parsed_)) != std::string::npos) {
      const std::string line = output_.substr(parsed_, newline - parsed_);
      parsed_ = newline + 1;
      if (const long port = number_after(line, "listening on port ");
          port > 0) {
        tcp_port_ = static_cast<std::uint16_t>(port);
      } else if (line.find("listening on shm segment ") != std::string::npos) {
        shm_ready_ = true;
      } else if (const long http = number_after(line, "http: listening on 127.0.0.1:");
                 http > 0) {
        http_port_ = static_cast<std::uint16_t>(http);
      }
    }
  }
  // 2. The TCP listener accepts a connection.
  if (want_tcp_) {
    int fd = -1;
    while ((fd = connect_local(tcp_port_)) < 0) {
      if (Clock::now() >= deadline) {
        throw std::runtime_error("serve's TCP listener never accepted");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::close(fd);
  }
  // 3. /healthz answers 200.
  for (;;) {
    const HttpResult health = http_get(
        http_port_, "/healthz",
        std::chrono::milliseconds(std::max(1, remaining_ms(deadline))));
    if (health.status == 200) break;
    if (Clock::now() >= deadline) {
      throw std::runtime_error("serve's /healthz never answered 200");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return std::chrono::duration<double>(Clock::now() - spawned_).count();
}

ServeExit ServeProcess::stop(std::chrono::milliseconds timeout) {
  ServeExit result;
  if (pid_ <= 0) return result;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + timeout;
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t done = ::wait4(pid_, &status, WNOHANG, &usage);
    if (done == pid_) break;
    if (Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      break;
    }
    if (!pump_output(5)) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  while (pump_output(100)) {
  }
  result.exited = WIFEXITED(status);
  result.exit_code = result.exited ? WEXITSTATUS(status) : -1;
  result.cpu_seconds =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
          1e-6;
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  result.output = output_;
  return result;
}

HttpResult http_get(std::uint16_t port, const std::string& path,
                    std::chrono::milliseconds timeout) {
  HttpResult result;
  const auto deadline = Clock::now() + timeout;
  const int fd = connect_local(port);
  if (fd < 0) return result;
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return result;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[16384];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, std::max(1, remaining_ms(deadline))) <= 0) break;
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.1 200 OK\r\n...\r\n\r\nbody"
  if (response.rfind("HTTP/1.", 0) != 0) return result;
  result.status = std::atoi(response.c_str() + 9);
  const std::size_t body = response.find("\r\n\r\n");
  if (body != std::string::npos) result.body = response.substr(body + 4);
  return result;
}

}  // namespace e2ebench

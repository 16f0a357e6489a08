/// \file test_obs_http.cpp
/// \brief obs::HttpServer coverage via a raw loopback socket client on
/// the test thread, with the server's EventLoop driven by a loop thread:
/// ephemeral binds, GET/HEAD dispatch, query stripping, handler status
/// passthrough, 405/400 handling, request counters, the 8 KiB cap and
/// the 2 s deadline, and scrapes of a live IngestPipeline's /metrics and
/// /index while it serves traffic, writes a snapshot chain and gains a
/// subscriber (TSan material: the handlers run on the pipeline thread,
/// inside its poll, and read the pipeline without a lock).

#include "obs/http_server.hpp"
#include "ingest/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/trainer.hpp"
#include "ingest/event_loop.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/ring_transport.hpp"
#include "ingest/transport_feed.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "retrain/retrain_controller.hpp"
#include "thread_probe.hpp"

namespace {

using namespace efd::obs;

/// A connected loopback client socket, or -1.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until the server closes, then closes \p fd.
std::string read_to_eof(int fd) {
  std::string response;
  char chunk[1024];
  ssize_t got = 0;
  while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

/// Sends one raw request to 127.0.0.1:<port> and returns the full
/// response (headers + body). Empty string on connect failure.
std::string raw_request(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  if (fd < 0) return {};
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  return read_to_eof(fd);
}

std::string http_get(std::uint16_t port, const std::string& target,
                     const std::string& method = "GET") {
  return raw_request(port, method + " " + target +
                               " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

HttpServer::Handler echo_handler() {
  return [](const HttpRequest& request) {
    HttpResponse response;
    if (request.target == "/missing") {
      response.status = 404;
      response.body = "not found\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = "{\"target\":\"" + request.target + "\"}";
    return response;
  };
}

using efd::test::thread_ids;
using efd::test::voluntary_switches;

/// Drives an EventLoop on its own thread, as the pipeline thread does,
/// until destroyed. Read the server's state only after that: the loop
/// thread owns it while it runs.
class LoopThread {
 public:
  explicit LoopThread(std::shared_ptr<efd::ingest::EventLoop> loop)
      : loop_(std::move(loop)), thread_([this] {
          std::vector<efd::ingest::Envelope> none;
          while (!done_.load(std::memory_order_acquire)) {
            loop_->run_once(std::chrono::seconds(10), none);
          }
        }) {}
  ~LoopThread() {
    done_.store(true, std::memory_order_release);
    loop_->wake();
    thread_.join();
  }

 private:
  std::shared_ptr<efd::ingest::EventLoop> loop_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

/// A server on a fresh loop.
struct ServedLoop {
  std::shared_ptr<efd::ingest::EventLoop> loop =
      std::make_shared<efd::ingest::EventLoop>();
  HttpServer server{loop, 0, echo_handler()};
};

TEST(ObsHttp, BindsEphemeralPortAndDispatchesGet) {
  ServedLoop served;
  ASSERT_NE(served.server.port(), 0);
  std::string response;
  {
    LoopThread running(served.loop);
    response = http_get(served.server.port(), "/healthz");
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("{\"target\":\"/healthz\"}"), std::string::npos);
  const HttpServer::Stats stats = served.server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.bad_requests, 0u);
}

TEST(ObsHttp, StripsQueryString) {
  ServedLoop served;
  LoopThread running(served.loop);
  const std::string response =
      http_get(served.server.port(), "/metrics?debug=1&verbose=yes");
  EXPECT_NE(response.find("{\"target\":\"/metrics\"}"), std::string::npos);
}

TEST(ObsHttp, PropagatesHandlerStatus) {
  ServedLoop served;
  LoopThread running(served.loop);
  const std::string response = http_get(served.server.port(), "/missing");
  EXPECT_EQ(response.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
  EXPECT_NE(response.find("not found\n"), std::string::npos);
}

TEST(ObsHttp, HeadOmitsBody) {
  // The headers are the GET response's, Content-Length included (RFC
  // 9110: it reports the length the GET body would have); only the body
  // is missing.
  ServedLoop served;
  LoopThread running(served.loop);
  const std::string head = http_get(served.server.port(), "/healthz", "HEAD");
  const std::string get = http_get(served.server.port(), "/healthz");
  EXPECT_EQ(head.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  const std::size_t end = head.find("\r\n\r\n");
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(head.substr(end + 4), "");
  const std::size_t get_end = get.find("\r\n\r\n");
  ASSERT_NE(get_end, std::string::npos);
  EXPECT_EQ(head.substr(0, end), get.substr(0, get_end));
  EXPECT_NE(head.find("Content-Length: " +
                      std::to_string(get.size() - get_end - 4) + "\r\n"),
            std::string::npos)
      << head;
}

TEST(ObsHttp, RejectsOtherMethods) {
  ServedLoop served;
  std::string response;
  {
    LoopThread running(served.loop);
    response = http_get(served.server.port(), "/metrics", "POST");
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u);
  EXPECT_EQ(served.server.stats().requests, 1u);  // parsed, counted, rejected
}

TEST(ObsHttp, CountsMalformedRequests) {
  ServedLoop served;
  std::string response;
  {
    LoopThread running(served.loop);
    response = raw_request(served.server.port(), "garbage\r\n\r\n");
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u);
  const HttpServer::Stats stats = served.server.stats();
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.bad_requests, 1u);
}

TEST(ObsHttp, ServesSequentialConnections) {
  ServedLoop served;
  {
    LoopThread running(served.loop);
    for (int i = 0; i < 5; ++i) {
      const std::string response = http_get(served.server.port(), "/healthz");
      EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << i;
    }
  }
  EXPECT_EQ(served.server.stats().requests, 5u);
}

TEST(ObsHttp, AnswersARequestSentInPieces) {
  // The request parses incrementally: bytes that trickle in over several
  // reads make one request.
  ServedLoop served;
  std::string response;
  {
    LoopThread running(served.loop);
    const int fd = connect_to(served.server.port());
    ASSERT_GE(fd, 0);
    for (const char* piece :
         {"GET /hea", "lthz HTTP/1.1\r\nHost: x", "\r\n\r\n"}) {
      ASSERT_GT(::send(fd, piece, std::strlen(piece), MSG_NOSIGNAL), 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    response = read_to_eof(fd);
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("{\"target\":\"/healthz\"}"), std::string::npos);
  EXPECT_EQ(served.server.stats().requests, 1u);
}

TEST(ObsHttp, ResumesAResponseLargerThanTheSocketBuffer) {
  // A 4 MiB body does not fit the socket buffer: the loop writes what
  // fits and resumes on each writable event while the client reads
  // slowly.
  const std::string big(4u << 20, 'x');
  auto loop = std::make_shared<efd::ingest::EventLoop>();
  HttpServer server(loop, 0, [&big](const HttpRequest&) {
    HttpResponse response;
    response.body = big;
    return response;
  });
  std::string response;
  {
    LoopThread running(loop);
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    const std::string request = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    response = read_to_eof(fd);
  }
  const std::size_t end = response.find("\r\n\r\n");
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(response.substr(end + 4), big);
}

TEST(ObsHttp, StopIsIdempotent) {
  ServedLoop served;
  served.server.stop();
  served.server.stop();
  EXPECT_TRUE(http_get(served.server.port(), "/healthz").empty());
}

TEST(ObsHttp, AnIdleLoopSleepsAndWakesPromptly) {
  // No thread of its own: the loop thread blocks in one epoll_wait until
  // a client connects, so over an idle second it does not wake, and a
  // wake() ends the wait at once.
  ServedLoop served;
  const std::set<std::string> before = thread_ids();
  auto running = std::make_unique<LoopThread>(served.loop);
  std::vector<std::string> started;
  for (const std::string& tid : thread_ids()) {
    if (before.count(tid) == 0) started.push_back(tid);
  }
  ASSERT_EQ(started.size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const long switches = voluntary_switches(started[0]);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LE(voluntary_switches(started[0]) - switches, 2);
  const auto stop_begin = std::chrono::steady_clock::now();
  running.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_begin,
            std::chrono::milliseconds(50));
}

TEST(ObsHttp, ExplicitPortConflictThrows) {
  ServedLoop served;
  EXPECT_THROW(HttpServer(served.loop, served.server.port(), echo_handler()),
               efd::ingest::TransportError);
}

/// Verdicts a pipeline ships back, by job id (delivered on its thread).
/// Other frames on the same channel (subscribe acks, verdict events from
/// the hub's dispatcher) are ignored.
class VerdictCollector final : public efd::ingest::VerdictSink {
 public:
  void deliver(const efd::ingest::Message& verdict) override {
    std::lock_guard lock(mutex_);
    if (verdict.type != efd::ingest::MessageType::kVerdict) return;
    verdicts_[verdict.job_id] = verdict.verdict.application;
  }

  std::map<std::uint64_t, std::string> verdicts() const {
    std::lock_guard lock(mutex_);
    return verdicts_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::string> verdicts_;
};

/// A deferred service over a two-application dictionary: "ft" at 6000,
/// "mg" at 6100 (depth 2 rounds 6030 to ft and 6080 to mg).
efd::core::RecognitionService two_application_service() {
  efd::core::FingerprintConfig fingerprint;
  fingerprint.metrics = {"nr_mapped_vmstat"};
  fingerprint.rounding_depth = 2;
  efd::telemetry::Dataset dataset({"nr_mapped_vmstat"});
  for (const auto& [id, app, level] :
       {std::tuple{1, "ft", 6000.0}, std::tuple{2, "mg", 6100.0}}) {
    efd::telemetry::ExecutionRecord record(id, {app, "X"}, 2, 1);
    for (std::size_t node = 0; node < 2; ++node) {
      for (int t = 0; t < 150; ++t) record.series(node, 0).push_back(level);
    }
    dataset.add(std::move(record));
  }
  efd::core::RecognitionServiceConfig service_config;
  service_config.deferred = true;
  return efd::core::RecognitionService(
      efd::core::train_dictionary(dataset, fingerprint), service_config);
}

/// Streams one complete job (130 ticks on 2 nodes) through \p ring:
/// even ids recognize as "ft", odd ids as "mg".
void stream_job(efd::ingest::RingTransport& ring, std::uint64_t job) {
  efd::ingest::TransportFeed feed(ring, /*batch_samples=*/32);
  feed.job_opened(job, 2);
  for (int t = 0; t < 130; ++t) {
    for (std::uint32_t node = 0; node < 2; ++node) {
      feed.publish(node, "nr_mapped_vmstat", t,
                   job % 2 == 0 ? 6030.0 : 6080.0);
    }
  }
  feed.job_closed(job);
}

/// Loops GET /metrics and /index until \p serving clears, counting each
/// answered scrape in \p scrapes; every one must be a 200.
std::thread start_scraper(std::uint16_t port, std::atomic<bool>& serving,
                          std::atomic<std::size_t>& scrapes) {
  return std::thread([port, &serving, &scrapes] {
    while (serving.load(std::memory_order_acquire)) {
      for (const char* target : {"/metrics", "/index"}) {
        const std::string response = http_get(port, target);
        EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << target;
        ++scrapes;
      }
    }
  });
}

/// Blocks until the scraper finishes at least one more scrape.
void wait_for_scrape(const std::atomic<std::size_t>& scrapes) {
  const std::size_t seen = scrapes.load();
  while (scrapes.load() == seen) std::this_thread::yield();
}

/// The decimal number that follows \p key in \p text (after \p from).
std::uint64_t number_after(const std::string& text, const std::string& key,
                           std::size_t from = 0) {
  const std::size_t at = text.find(key, from);
  if (at == std::string::npos) return ~std::uint64_t{0};
  return std::stoull(text.substr(at + key.size()));
}

TEST(ObsHttp, ScrapesALivePipelineWhileItServes) {
  // A scraper GETs /metrics and /index in a loop on its own connections
  // (served on the HTTP thread) while the pipeline thread streams 16
  // jobs through its service; the emitter lets one scrape finish after
  // each job, so scrapes overlap a live run(). Every scrape answers 200
  // and every verdict is exact.
  efd::core::RecognitionService service = two_application_service();

  auto collector = std::make_shared<VerdictCollector>();
  efd::ingest::RingTransport ring(256);
  ring.set_verdict_sink(collector);
  efd::ingest::IngestPipelineConfig config;
  config.http_port = 0;
  efd::ingest::IngestPipeline pipeline(service, ring, config);
  ASSERT_NE(pipeline.http_port(), 0);
  pipeline.start();

  std::atomic<bool> serving{true};
  std::atomic<std::size_t> scrapes{0};
  std::thread scraper = start_scraper(pipeline.http_port(), serving, scrapes);

  constexpr std::uint64_t kJobs = 16;
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    stream_job(ring, job);
    wait_for_scrape(scrapes);
  }
  // The scraper stops first: its requests are answered only while run()
  // polls.
  serving.store(false, std::memory_order_release);
  scraper.join();
  ring.close();
  pipeline.join();

  EXPECT_GE(scrapes.load(), kJobs);
  const auto verdicts = collector->verdicts();
  ASSERT_EQ(verdicts.size(), kJobs);
  for (const auto& [job, application] : verdicts) {
    EXPECT_EQ(application, job % 2 == 0 ? "ft" : "mg") << "job " << job;
  }
  // No thread serves HTTP once run() returned: the final counters are
  // read from the rows /metrics renders.
  const std::string metrics =
      pipeline.scrape_rows().exposition(efd::obs::global_metrics());
  EXPECT_NE(metrics.find("jobs_completed"), std::string::npos);
  // No snapshot error: the "none" row stays out of the exposition.
  EXPECT_EQ(metrics.find("snapshot_last_error"), std::string::npos);
}

TEST(ObsHttp, ScrapesOverlapSnapshotChainAndSubscriberChanges) {
  // Every piece of pipeline state the /metrics and /index handlers read
  // changes while they scrape: each poll boundary
  // that delivers a verdict adds a capture to the snapshot chain, and a
  // kSubscribe sent mid-run creates the subscription hub. After join()
  // the three views of the snapshot count agree and /index lists the
  // subscriber.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("obs_http_chain_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));

  efd::core::RecognitionService service = two_application_service();
  auto collector = std::make_shared<VerdictCollector>();
  efd::ingest::RingTransport ring(256);
  ring.set_verdict_sink(collector);
  efd::ingest::IngestPipelineConfig config;
  config.http_port = 0;
  config.snapshot_path = (dir / "chain.efds").string();
  config.snapshot_every_verdicts = 1;
  efd::ingest::IngestPipeline pipeline(service, ring, config);
  ASSERT_NE(pipeline.http_port(), 0);
  pipeline.start();

  std::atomic<bool> serving{true};
  std::atomic<std::size_t> scrapes{0};
  std::thread scraper = start_scraper(pipeline.http_port(), serving, scrapes);

  constexpr std::uint64_t kJobs = 16;
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    stream_job(ring, job);
    wait_for_scrape(scrapes);
    if (job == kJobs / 2) {
      ring.send(efd::ingest::make_subscribe());
      wait_for_scrape(scrapes);
    }
  }
  // The scraper stops first: its requests are answered only while run()
  // polls.
  serving.store(false, std::memory_order_release);
  scraper.join();
  ring.close();
  pipeline.join();

  const auto verdicts = collector->verdicts();
  ASSERT_EQ(verdicts.size(), kJobs);
  for (const auto& [job, application] : verdicts) {
    EXPECT_EQ(application, job % 2 == 0 ? "ft" : "mg") << "job " << job;
  }

  const efd::ingest::IngestPipelineStats& stats = pipeline.stats();
  // One capture per poll iteration that delivered a verdict, plus the
  // final one on exit.
  EXPECT_GE(stats.snapshots_written, 2u);
  EXPECT_EQ(stats.subscribe_requests, 1u);
  // No thread serves HTTP once run() returned: read what /index and
  // /metrics render.
  const std::string index = pipeline.index_json();
  const std::size_t chain = index.find("\"snapshot_chain\":");
  ASSERT_NE(chain, std::string::npos) << index;
  EXPECT_EQ(number_after(index, "\"written\":", chain),
            stats.snapshots_written)
      << index;
  EXPECT_NE(index.find("\"subscribers\":[{\"id\":"), std::string::npos)
      << index;
  const std::string metrics =
      pipeline.scrape_rows().exposition(efd::obs::global_metrics());
  EXPECT_EQ(number_after(metrics, "\nefd_ingest_snapshots_written "),
            stats.snapshots_written)
      << metrics;

  fs::remove_all(dir);
}

TEST(ObsHttp, APipelineWithHttpRunsOneThread) {
  // The HTTP listener sits on the pipeline's loop: starting the pipeline
  // adds its run() thread and no other.
  efd::core::RecognitionService service = two_application_service();
  efd::ingest::RingTransport ring(16);
  const std::size_t before = thread_ids().size();
  efd::ingest::IngestPipelineConfig config;
  config.http_port = 0;
  efd::ingest::IngestPipeline pipeline(service, ring, config);
  EXPECT_EQ(thread_ids().size(), before);
  pipeline.start();
  const std::string health = http_get(pipeline.http_port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << health;
  EXPECT_EQ(thread_ids().size(), before + 1);
  ring.close();
  pipeline.join();
  EXPECT_EQ(pipeline.http()->stats().requests, 1u);
}

TEST(ObsHttp, VerdictsFlowWhileHttpClientsMisbehave) {
  // Two clients misbehave on the pipeline's own loop: one sends half a
  // request line and goes silent, one sends more than 8 KiB without a
  // blank line. Neither delays a verdict; the second gets a 400 and its
  // EOF at once, the first is dropped at its 2 s deadline.
  efd::core::RecognitionService service = two_application_service();
  auto collector = std::make_shared<VerdictCollector>();
  efd::ingest::RingTransport ring(256);
  ring.set_verdict_sink(collector);
  efd::ingest::IngestPipelineConfig config;
  config.http_port = 0;
  efd::ingest::IngestPipeline pipeline(service, ring, config);
  pipeline.start();

  const int silent = connect_to(pipeline.http_port());
  ASSERT_GE(silent, 0);
  const auto silent_since = std::chrono::steady_clock::now();
  ASSERT_GT(::send(silent, "GET /metr", 9, MSG_NOSIGNAL), 0);

  const std::string oversized =
      raw_request(pipeline.http_port(), std::string(9000, 'a'));
  EXPECT_EQ(oversized.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u)
      << oversized;

  constexpr std::uint64_t kJobs = 8;
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    const auto sent = std::chrono::steady_clock::now();
    stream_job(ring, job);
    while (collector->verdicts().size() < job &&
           std::chrono::steady_clock::now() - sent < std::chrono::seconds(5)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(collector->verdicts().size(), job);
    EXPECT_LT(std::chrono::steady_clock::now() - sent,
              std::chrono::milliseconds(500))
        << "job " << job;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - silent_since,
            std::chrono::milliseconds(1500));

  // The silent client is closed at its deadline, without a response.
  EXPECT_EQ(read_to_eof(silent), "");
  const auto silent_for = std::chrono::steady_clock::now() - silent_since;
  EXPECT_GE(silent_for, std::chrono::milliseconds(1900));
  EXPECT_LT(silent_for, std::chrono::milliseconds(3500));

  ring.close();
  pipeline.join();
  EXPECT_EQ(pipeline.http()->stats().bad_requests, 2u);
  EXPECT_EQ(pipeline.http()->stats().requests, 0u);
}

/// Occurrences of \p needle in \p text.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(ObsScrapeRows, EveryDeclaredRowRendersOnceInBothFormats) {
  // A real pipeline with two sources, one subscriber, a retrain
  // controller and a failing snapshot path declares every row block.
  // Each row is one line of the flat scrape, and one sample of the
  // exposition under its declared # TYPE.
  namespace fs = std::filesystem;
  efd::core::RecognitionService service = two_application_service();
  efd::retrain::RetrainController retrain(service, {});
  auto collector = std::make_shared<VerdictCollector>();
  efd::ingest::RingTransport first(256);
  efd::ingest::RingTransport second(256);
  first.set_verdict_sink(collector);
  second.set_verdict_sink(collector);
  efd::ingest::SourceMux mux;
  mux.add_source("first", first);
  mux.add_source("second \"quoted\"", second);
  efd::ingest::IngestPipelineConfig config;
  config.retrain = &retrain;
  config.snapshot_path = (fs::path(::testing::TempDir()) / "no_such_dir" /
                          ("rows_" + std::to_string(::getpid())) /
                          "chain.efds")
                             .string();
  config.snapshot_every_verdicts = 1;
  efd::ingest::IngestPipeline pipeline(service, mux, config);
  pipeline.start();
  first.send(efd::ingest::make_subscribe());
  stream_job(first, 2);
  stream_job(second, 3);
  first.close();
  second.close();
  pipeline.join();
  ASSERT_EQ(collector->verdicts().size(), 2u);
  ASSERT_GT(pipeline.stats().snapshot_failures, 0u);

  const efd::obs::ScrapeRows rows = pipeline.scrape_rows();
  const efd::obs::MetricsRegistry empty;
  const std::string flat = "\n" + rows.flat();
  const std::string exposition = "\n" + rows.exposition(empty);
  EXPECT_EQ(count_of(flat, "\n") - 1, rows.rows().size());

  // The type each series family is declared with: a current level is a
  // gauge, every lifetime total a counter.
  const std::set<std::string> gauges = {
      "efd_service_active_jobs", "efd_service_pending_verdicts",
      "efd_service_queued_samples", "efd_service_dictionary_epoch",
      "efd_service_jobs_on_stale_epoch",
      "efd_dictionary_index_build_seconds", "efd_dictionary_index_bytes",
      "efd_source_restored_cursor", "efd_source_exhausted",
      "efd_retrain_last_cycle", "efd_retrain_last_promoted_epoch",
      "efd_retrain_last_candidate_score",
      "efd_retrain_last_incumbent_score", "efd_retrain_window_jobs",
      "efd_retrain_window_samples", "efd_retrain_window_applications",
      "efd_subscriber_queued", "efd_uptime_seconds"};
  std::set<std::string> blocks;
  for (const efd::obs::ScrapeRow& row : rows.rows()) {
    SCOPED_TRACE(row.name);
    blocks.insert(row.name.substr(0, row.name.find('.')));
    EXPECT_EQ(count_of(flat, "\n" + row.name + " " + row.value + "\n"), 1u);
    if (row.kind == efd::obs::RowKind::kText) {
      if (row.family.empty()) continue;  // flat only
      // Folded into its family's one info series, as a label.
      const std::string type = "\n# TYPE " + row.family + " gauge\n";
      EXPECT_EQ(count_of(exposition, type), 1u);
      const std::size_t series =
          exposition.find("\n" + row.family + "{", exposition.find(type));
      ASSERT_NE(series, std::string::npos);
      const std::string line = exposition.substr(
          series, exposition.find('\n', series + 1) - series);
      EXPECT_EQ(count_of(line, row.labels), 1u) << line;
      continue;
    }
    const bool gauge = row.kind == efd::obs::RowKind::kGauge;
    EXPECT_EQ(gauge, gauges.count(row.family) == 1);
    const std::string type = "\n# TYPE " + row.family +
                             (gauge ? " gauge\n" : " counter\n");
    EXPECT_EQ(count_of(exposition, type), 1u);
    const std::string sample =
        "\n" + row.family +
        (row.labels.empty() ? "" : "{" + row.labels + "}") + " " +
        row.value + "\n";
    EXPECT_EQ(count_of(exposition, sample), 1u);
    EXPECT_LT(exposition.find(type), exposition.find(sample));
  }
  EXPECT_EQ(blocks, (std::set<std::string>{"build", "dictionary", "ingest",
                                           "pool", "retrain", "service",
                                           "source", "subscriber",
                                           "uptime"}));
  // Both sources carry their (escaped) names as labels; no name series.
  EXPECT_NE(exposition.find("{source=\"1\",name=\"second \\\"quoted\\\"\"}"),
            std::string::npos)
      << exposition;
  EXPECT_EQ(exposition.find("efd_source_name"), std::string::npos);
  EXPECT_NE(exposition.find("\nefd_ingest_snapshot_last_error_info{reason="),
            std::string::npos);
}

}  // namespace
